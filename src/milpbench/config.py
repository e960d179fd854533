"""Configuration registry, store, and per-instance adapter.

The registry pins the 47 tunable solver parameters by index and canonical
name.  A :class:`ConfigStore` maps labels to typed parameter assignments and
resolves an incoming instance to a configuration in three steps: exact
instance-name match, highest-priority matching feature rule, then the
default label.  ``_check_value`` is the one test of a parameter value: a
store or configuration that loads holds finite numbers only, strategy names
resolved to their integers.  ``map_to_reference`` translates the supported
subset onto :class:`ReferenceSolverOptions`; unsupported indices are
collected, never rejected.
"""

from __future__ import annotations

import json
import operator
import sys
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
# the strategy names the two selection parameters accept, each another spelling of its integer
_STRATEGY_NAMES = {
    19: {"most_fractional": 0, "pseudocost": 2},  # VariableSelect
    37: {"depth_first": 0, "best_bound": 1},  # NodeSelect
}


PARAMETER_REGISTRY: tuple[ParamDef, ...] = tuple(
    ParamDef(i, name, ValueKind.REAL if i in _REAL_VALUED else
             ValueKind.ENUMERATION if i in _STRATEGY_NAMES else ValueKind.INTEGER)
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
    assignments: dict[int, Union[int, float]] = field(default_factory=dict)
    label: str = ""


_FEATURES = tuple(f.name for f in fields(FeatureVector))  # a tuple: membership needs no hash
_OPS = {"<": operator.lt, "<=": operator.le, "=": operator.eq, "==": operator.eq, ">=": operator.ge, ">": operator.gt}


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
    return ConfigStore({label: Configuration({}, label)}, {}, (), label)


def _resolve_param(key: str) -> ParamDef:
    try:
        return param_by_index(int(key))
    except (ValueError, TypeError):
        return param_by_name(key)


def _finite(v) -> bool:
    """A JSON number that a float holds, so not NaN or infinite; true and false are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _check_value(p: ParamDef, value, domain: Optional[dict]) -> Union[int, float]:
    """The one test of a parameter value, run as a store or configuration
    loads and again by ``map_to_reference``: a strategy name becomes its
    integer; the number must be finite, integral unless the parameter is real,
    at least 0 for MIPGap, and inside the store's domain."""
    names = _STRATEGY_NAMES.get(p.index)
    if names is not None and isinstance(value, str):
        if value not in names:
            raise ConfigError(f"{p.name}: unknown strategy name {value!r}; accepted: {', '.join(names)}")
        value = names[value]
    if isinstance(value, bool):
        value = int(value)
    if not _finite(value):
        raise ConfigError(f"{p.name}: value {value!r} is not a finite number")
    if p.value_kind is ValueKind.REAL:
        value = float(value)
    elif value != int(value):
        raise ConfigError(f"{p.name}: expected an integer, got {value!r}")
    else:
        value = int(value)  # an integral float
    if p.index == 46 and value < 0:  # MIPGap, a relative gap tolerance
        raise ConfigError(f"{p.name}: gap tolerance must be at least 0, got {value}")
    if domain:
        if "min" in domain and value < domain["min"]:
            raise ConfigError(f"{p.name}: {value} below domain minimum {domain['min']}")
        if "max" in domain and value > domain["max"]:
            raise ConfigError(f"{p.name}: {value} above domain maximum {domain['max']}")
        if "values" in domain and value not in domain["values"]:
            raise ConfigError(f"{p.name}: {value} not in allowed values {domain['values']}")
    return value


def _parse_assignments(raw: dict, owner: str, domains: dict[int, dict]) -> dict[int, Union[int, float]]:
    """Resolve each key by index or name and check its value; a parameter
    assigned twice, under either key, is rejected."""
    assignments: dict[int, Union[int, float]] = {}
    for key, value in raw.items():
        p = _resolve_param(key)
        if p.index in assignments:
            raise ConfigError(f"{owner} assigns {p.name} twice")
        assignments[p.index] = _check_value(p, value, domains.get(p.index))
    return assignments


def _section(doc: dict, key: str, kind: type):
    """An optional top-level section, of the given JSON type when present."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        raise ConfigError(f'"{key}" must be a JSON {"object" if kind is dict else "array"}, got {value!r}')
    return value


def load_store(source: Union[str, IO[str]]) -> ConfigStore:
    """Load and fully validate a JSON configuration store.

    Top-level keys: "configs", "by_instance", "rules", "default", and an
    optional per-store "domains" tightening.  Parameter assignments may be
    keyed by registry index or canonical name.  Anything malformed is a
    :class:`ConfigError`, so a store that loads runs to the end.
    """
    text = source if isinstance(source, str) else source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"store is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("store must be a JSON object")

    domains: dict[int, dict] = {}
    for key, dom in _section(doc, "domains", dict).items():
        p = _resolve_param(key)
        if not isinstance(dom, dict):
            raise ConfigError(f"domain for {p.name} must be an object")
        values = dom.get("values", [])
        bounds = [dom[k] for k in ("min", "max") if k in dom] + (values if isinstance(values, list) else [None])
        if not all(map(_finite, bounds)):
            raise ConfigError(f"domain for {p.name}: min, max and each of values must be a finite number, got {dom!r}")
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

    by_instance: dict[str, str] = _section(doc, "by_instance", dict)
    for iname, label in by_instance.items():
        if not isinstance(label, str) or label not in configs:
            raise ConfigError(f"by_instance[{iname!r}] references missing config {label!r}")

    rules: list[ConfigRule] = []
    for k, raw in enumerate(_section(doc, "rules", list)):
        if not isinstance(raw, dict):
            raise ConfigError(f"rule #{k} must be an object")
        label = raw.get("config")
        if not isinstance(label, str) or label not in configs:
            raise ConfigError(f"rule #{k} references missing config {label!r}")
        priority = raw.get("priority")
        if type(priority) is not int:
            raise ConfigError(f"rule #{k} needs an integer priority")
        if any(r.priority == priority for r in rules):
            raise ConfigError(f"rule priority {priority} is not unique")
        when = raw.get("when", [])
        if not isinstance(when, list) or not all(isinstance(c, dict) for c in when):
            raise ConfigError(f'rule #{k}: "when" must be an array of clause objects, got {when!r}')
        clauses = []
        for clause in when:
            f, op, v = clause.get("field"), clause.get("op"), clause.get("value")
            if f not in _FEATURES:
                raise ConfigError(f"rule #{k}: unknown feature field {f!r}")
            if not isinstance(op, str) or op not in _OPS:
                raise ConfigError(f"rule #{k}: unknown operator {op!r}")
            if not _finite(v):
                raise ConfigError(f"rule #{k}: threshold {v!r} is not a finite number")
            clauses.append((f, op, float(v)))
        rules.append(ConfigRule(tuple(clauses), label, priority))
    rules.sort(key=lambda r: -r.priority)

    return ConfigStore(configs, by_instance, tuple(rules), default_label)


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


# each index the reference solver honors: the option it sets and how a checked
# value converts; the four on/off parameters are on for positive values
_HONORED = {
    4: ("diving", lambda v: v > 0),
    14: ("cover_cuts", lambda v: v > 0),
    15: ("gomory_rounds", lambda v: max(0, v)),
    19: ("branch_rule", lambda v: BranchRule.PSEUDOCOST if v in (2, 3, 4) else BranchRule.MOST_FRACTIONAL),
    24: ("presolve_coeff_reduce", lambda v: v > 0),
    36: ("presolve_bound_tighten", lambda v: v > 0),
    37: ("node_strategy", lambda v: NodeStrategy.DEPTH_FIRST if v == 0 else NodeStrategy.BEST_BOUND),
    46: ("rel_gap", float),
}


def map_to_reference(
    cfg: Configuration, time_limit_s: float = ReferenceSolverOptions.time_limit_s
) -> ReferenceSolverOptions:
    """Translate the supported parameter subset onto reference-solver options.

    Conventions (an analogy, not an emulation): node selection 0 means
    depth-first and anything else best-bound; variable selection 2/3/4 means
    pseudocost and anything else most-fractional; Gomory values clamp to a
    nonnegative round count.  Every other index, threads included, lands in
    ``ignored``, and a field no assignment sets keeps its
    :class:`ReferenceSolverOptions` default.  Each honored value passes the
    loader's check first, so a :class:`Configuration` built in code meets the
    same rule as one loaded from JSON.
    """
    opts: dict[str, object] = {}
    ignored: list[int] = []
    for idx, value in sorted(cfg.assignments.items()):
        if idx in _HONORED:
            option, convert = _HONORED[idx]
            opts[option] = convert(_check_value(param_by_index(idx), value, None))
        else:
            ignored.append(idx)
    return ReferenceSolverOptions(time_limit_s=time_limit_s, ignored=tuple(ignored), **opts)


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
