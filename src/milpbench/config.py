"""Configuration registry, store, and per-instance adapter.

The registry pins the 47 tunable solver parameters by index and canonical
name.  A :class:`ConfigStore` maps labels to typed parameter assignments and
resolves an incoming instance to a configuration in three steps: exact
instance-name match, highest-priority matching feature rule, then the
default label.  ``map_to_reference`` translates the supported subset onto
:class:`ReferenceSolverOptions`; unsupported indices are collected, never
rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import IO, Optional, Union

from .instance import FeatureVector
from .solver.options import BranchRule, NodeStrategy, ReferenceSolverOptions


class ConfigError(ValueError):
    """Schema violation, unknown parameter, out-of-domain value, dangling label."""


class ValueKind(Enum):
    INTEGER = "integer"
    REAL = "real"
    ENUMERATION = "enumeration"


@dataclass(frozen=True)
class ParamDef:
    index: int
    name: str
    value_kind: ValueKind


_PARAM_NAMES = (
    "CPXPARAM_MIP_Cuts_RLT",
    "CPXPARAM_MIP_Cuts_MCFCut",
    "CPXPARAM_Emphasis_Numerical",
    "CPXPARAM_MIP_Strategy_Dive",
    "CPXPARAM_Preprocessing_Dependency",
    "CPXPARAM_MIP_Limits_GomoryCand",
    "CPXPARAM_MIP_Cuts_Disjunctive",
    "CPXPARAM_Preprocessing_Folding",
    "CPXPARAM_MIP_Strategy_SubAlgorithm",
    "CPXPARAM_Preprocessing_Relax",
    "CPXPARAM_Simplex_Crash",
    "CPXPARAM_MIP_Strategy_Probe",
    "CPXPARAM_MIP_Cuts_FlowCovers",
    "CPXPARAM_MIP_Cuts_Covers",
    "CPXPARAM_MIP_Cuts_Gomory",
    "CPXPARAM_MIP_Cuts_Implied",
    "CPXPARAM_Preprocessing_Symmetry",
    "CPXPARAM_MIP_Cuts_MIRCut",
    "CPXPARAM_MIP_Strategy_VariableSelect",
    "CPXPARAM_MIP_Cuts_LocalImplied",
    "CPXPARAM_MIP_Cuts_ZeroHalfCut",
    "CPXPARAM_Preprocessing_Dual",
    "CPXPARAM_MIP_Cuts_BQP",
    "CPXPARAM_Preprocessing_CoeffReduce",
    "CPXPARAM_MIP_Strategy_FPHeur",
    "CPXPARAM_MIP_Limits_AggForCut",
    "CPXPARAM_MIP_Strategy_StartAlgorithm",
    "CPXPARAM_MIP_Strategy_Search",
    "CPXPARAM_MIP_Cuts_Cliques",
    "CPXPARAM_MIP_SubMIP_StartAlg",
    "CPXPARAM_Preprocessing_Reduce",
    "CPXPARAM_MIP_Limits_CutsFactor",
    "CPXPARAM_Preprocessing_RepeatPresolve",
    "CPXPARAM_Threads",
    "CPXPARAM_MIP_SubMIP_SubAlg",
    "CPXPARAM_Preprocessing_BoundStrength",
    "CPXPARAM_MIP_Strategy_NodeSelect",
    "CPXPARAM_MIP_Strategy_PresolveNode",
    "CPXPARAM_MIP_Strategy_Branch",
    "CPXPARAM_MIP_Cuts_PathCut",
    "CPXPARAM_MIP_Cuts_LiftProj",
    "CPXPARAM_Emphasis_MIP",
    "CPXPARAM_Preprocessing_Linear",
    "CPXPARAM_MIP_Strategy_RINSHeur",
    "CPXPARAM_MIP_Cuts_GUBCovers",
    "CPXPARAM_MIP_Tolerances_MIPGap",
    "CPXPARAM_Advance",
)

_REAL_VALUED = {32, 46}  # CutsFactor and MIPGap take fractional values
_ENUM_VALUED = {19, 37}  # variable/node selection accept strategy names too


def _kind_for(i: int) -> ValueKind:
    if i in _REAL_VALUED:
        return ValueKind.REAL
    if i in _ENUM_VALUED:
        return ValueKind.ENUMERATION
    return ValueKind.INTEGER


PARAMETER_REGISTRY: tuple[ParamDef, ...] = tuple(
    ParamDef(index=i, name=name, value_kind=_kind_for(i))
    for i, name in enumerate(_PARAM_NAMES, start=1)
)

_BY_NAME = {p.name: p for p in PARAMETER_REGISTRY}


def param_by_index(i: int) -> ParamDef:
    if not 1 <= i <= len(PARAMETER_REGISTRY):
        raise ConfigError(f"parameter index {i} out of range 1..{len(PARAMETER_REGISTRY)}")
    return PARAMETER_REGISTRY[i - 1]


def param_by_name(name: str) -> ParamDef:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown parameter name {name!r}") from None


@dataclass(frozen=True)
class Configuration:
    assignments: dict[int, Union[int, float, str]] = field(default_factory=dict)
    label: str = ""


_FEATURES = frozenset(f.name for f in fields(FeatureVector))
_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


@dataclass(frozen=True)
class ConfigRule:
    predicate: tuple[tuple[str, str, float], ...]  # (field, op, threshold) conjunction
    config_label: str
    priority: int

    def matches(self, features: FeatureVector) -> bool:
        return all(_OPS[op](getattr(features, f), v) for f, op, v in self.predicate)


@dataclass(frozen=True)
class ConfigStore:
    configs: dict[str, Configuration]
    by_instance: dict[str, str]
    rules: tuple[ConfigRule, ...]  # kept sorted by descending priority
    default_label: str


def empty_store(label: str = "default") -> ConfigStore:
    return ConfigStore(
        configs={label: Configuration({}, label)},
        by_instance={},
        rules=(),
        default_label=label,
    )


def _resolve_param(key: str) -> ParamDef:
    try:
        return param_by_index(int(key))
    except (ValueError, TypeError):
        return param_by_name(key)


def _check_value(p: ParamDef, value, domain: Optional[dict]) -> Union[int, float, str]:
    if isinstance(value, bool):
        value = int(value)
    if p.value_kind is ValueKind.ENUMERATION and isinstance(value, str):
        pass  # open enumeration: symbolic values resolve at mapping time
    elif not isinstance(value, (int, float)):
        raise ConfigError(f"{p.name}: value {value!r} is not a number")
    elif p.value_kind is ValueKind.REAL:
        value = float(value)
    else:
        if float(value) != int(value):
            raise ConfigError(f"{p.name}: expected an integer, got {value!r}")
        value = int(value)
    if domain:
        if "min" in domain and value < domain["min"]:
            raise ConfigError(f"{p.name}: {value} below domain minimum {domain['min']}")
        if "max" in domain and value > domain["max"]:
            raise ConfigError(f"{p.name}: {value} above domain maximum {domain['max']}")
        if "values" in domain and value not in domain["values"]:
            raise ConfigError(f"{p.name}: {value} not in allowed values {domain['values']}")
    return value


def _parse_assignments(raw: dict, owner: str, domains: dict[int, dict]) -> dict[int, Union[int, float, str]]:
    """Resolve each key by index or name and check its value; a parameter
    assigned twice, under either key, is rejected."""
    assignments: dict[int, Union[int, float, str]] = {}
    for key, value in raw.items():
        p = _resolve_param(key)
        if p.index in assignments:
            raise ConfigError(f"{owner} assigns {p.name} twice")
        assignments[p.index] = _check_value(p, value, domains.get(p.index))
    return assignments


def load_store(source: Union[str, IO[str]]) -> ConfigStore:
    """Load and fully validate a JSON configuration store.

    Top-level keys: "configs", "by_instance", "rules", "default", and an
    optional per-store "domains" tightening.  Parameter assignments may be
    keyed by registry index or canonical name.
    """
    text = source if isinstance(source, str) else source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"store is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("store must be a JSON object")

    domains: dict[int, dict] = {}
    for key, dom in (doc.get("domains") or {}).items():
        p = _resolve_param(key)
        if not isinstance(dom, dict):
            raise ConfigError(f"domain for {p.name} must be an object")
        domains[p.index] = dom

    configs: dict[str, Configuration] = {}
    raw_configs = doc.get("configs")
    if not isinstance(raw_configs, dict) or not raw_configs:
        raise ConfigError('store needs a non-empty "configs" object')
    for label, raw in raw_configs.items():
        if not isinstance(raw, dict):
            raise ConfigError(f"config {label!r} must be an object of parameter assignments")
        configs[label] = Configuration(_parse_assignments(raw, f"config {label!r}", domains), label)

    default_label = doc.get("default")
    if not isinstance(default_label, str) or default_label not in configs:
        raise ConfigError(f'"default" must name a config; got {default_label!r}')

    by_instance: dict[str, str] = {}
    for iname, label in (doc.get("by_instance") or {}).items():
        if label not in configs:
            raise ConfigError(f"by_instance[{iname!r}] references missing config {label!r}")
        by_instance[iname] = label

    rules: list[ConfigRule] = []
    priorities: set[int] = set()
    for k, raw in enumerate(doc.get("rules") or []):
        if not isinstance(raw, dict):
            raise ConfigError(f"rule #{k} must be an object")
        label = raw.get("config")
        if label not in configs:
            raise ConfigError(f"rule #{k} references missing config {label!r}")
        priority = raw.get("priority")
        if not isinstance(priority, int):
            raise ConfigError(f"rule #{k} needs an integer priority")
        if priority in priorities:
            raise ConfigError(f"rule priority {priority} is not unique")
        priorities.add(priority)
        clauses = []
        for clause in raw.get("when") or []:
            f, op, v = clause.get("field"), clause.get("op"), clause.get("value")
            if f not in _FEATURES:
                raise ConfigError(f"rule #{k}: unknown feature field {f!r}")
            if op not in _OPS:
                raise ConfigError(f"rule #{k}: unknown operator {op!r}")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"rule #{k}: threshold {v!r} is not a number")
            clauses.append((f, op, float(v)))
        rules.append(ConfigRule(tuple(clauses), label, priority))
    rules.sort(key=lambda r: -r.priority)

    return ConfigStore(
        configs=configs,
        by_instance=by_instance,
        rules=tuple(rules),
        default_label=default_label,
    )


def adapt(name: str, features: FeatureVector, store: ConfigStore) -> Configuration:
    """Resolve a configuration: by_instance hit, then rules, then default.

    Pure and total: equal inputs yield equal outputs and the default always
    resolves.
    """
    label = store.by_instance.get(name)
    if label is None:
        for rule in store.rules:  # descending priority
            if rule.matches(features):
                label = rule.config_label
                break
    if label is None:
        label = store.default_label
    return store.configs[label]


# indices the reference solver honors; the four on/off parameters are on for
# positive values
_TOGGLES = {
    4: "diving",
    14: "cover_cuts",
    24: "presolve_coeff_reduce",
    36: "presolve_bound_tighten",
}
_IDX_GOMORY = 15
_IDX_VARSEL = 19
_IDX_NODESEL = 37
_IDX_MIPGAP = 46


def map_to_reference(
    cfg: Configuration, time_limit_s: float = ReferenceSolverOptions.time_limit_s
) -> ReferenceSolverOptions:
    """Translate the supported parameter subset onto reference-solver options.

    Conventions (an analogy, not an emulation): node selection 0 means
    depth-first and anything else best-bound; variable selection 2/3/4 means
    pseudocost and anything else most-fractional; Gomory values clamp to a
    nonnegative round count.  Every other index, threads included, lands in
    ``ignored``, and a field no assignment sets keeps its
    :class:`ReferenceSolverOptions` default.
    """
    opts: dict[str, object] = {}
    ignored: list[int] = []
    for idx, value in sorted(cfg.assignments.items()):
        if idx in _TOGGLES:
            opts[_TOGGLES[idx]] = value > 0
        elif idx == _IDX_NODESEL:
            chosen = _as_choice(value, {"depth_first": 0, "best_bound": 1})
            opts["node_strategy"] = NodeStrategy.DEPTH_FIRST if chosen == 0 else NodeStrategy.BEST_BOUND
        elif idx == _IDX_VARSEL:
            chosen = _as_choice(value, {"most_fractional": 0, "pseudocost": 2})
            opts["branch_rule"] = BranchRule.PSEUDOCOST if chosen in (2, 3, 4) else BranchRule.MOST_FRACTIONAL
        elif idx == _IDX_GOMORY:
            opts["gomory_rounds"] = max(0, int(value))
        elif idx == _IDX_MIPGAP:
            if value < 0 or not math.isfinite(value):
                raise ConfigError(f"gap tolerance must be a finite nonnegative real, got {value}")
            opts["rel_gap"] = float(value)
        else:
            ignored.append(idx)
    return ReferenceSolverOptions(time_limit_s=time_limit_s, ignored=tuple(ignored), **opts)


def _as_choice(value, names: dict[str, int]) -> int:
    if isinstance(value, str):
        if value not in names:
            raise ConfigError(f"unknown strategy name {value!r}")
        return names[value]
    return int(value)


def configuration_to_json(cfg: Configuration) -> str:
    """Serialize one configuration for the external-backend contract."""
    named = {param_by_index(i).name: v for i, v in sorted(cfg.assignments.items())}
    return json.dumps({"label": cfg.label, "assignments": named}, indent=2) + "\n"


def load_configuration(text: str) -> Configuration:
    """Parse a standalone configuration: {"label", "assignments"} or a bare
    assignments object keyed by index or name."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    label = "config"
    raw = doc
    if "assignments" in doc and isinstance(doc["assignments"], dict):
        label = str(doc.get("label", label))
        raw = doc["assignments"]
    return Configuration(_parse_assignments(raw, f"configuration {label!r}", {}), label)
