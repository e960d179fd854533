import dataclasses
import json
import math

import numpy as np
import pytest

from milpbench.config import (
    PARAMETER_REGISTRY,
    ConfigError,
    Configuration,
    ValueKind,
    adapt,
    load_configuration,
    load_store,
    map_to_reference,
    param_by_index,
)
from milpbench.instance import extract_features
from milpbench.solver import BranchRule, NodeStrategy, ReferenceSolverOptions

from _helpers import knapsack_2var, random_binary_instance


def make_store(doc: dict):
    return load_store(json.dumps(doc))


MINIMAL = {
    "configs": {"aggressive": {"15": 2, "14": 1}},
    "default": "aggressive",
}


def test_registry_has_47_bijective_entries():
    assert len(PARAMETER_REGISTRY) == 47
    assert len({p.name for p in PARAMETER_REGISTRY}) == 47
    assert [p.index for p in PARAMETER_REGISTRY] == list(range(1, 48))


@pytest.mark.parametrize(
    "index,name",
    [
        (1, "CPXPARAM_MIP_Cuts_RLT"),
        (34, "CPXPARAM_Threads"),
        (47, "CPXPARAM_Advance"),
        (15, "CPXPARAM_MIP_Cuts_Gomory"),
        (46, "CPXPARAM_MIP_Tolerances_MIPGap"),
    ],
)
def test_param_by_index(index, name):
    assert param_by_index(index).name == name


def test_param_by_index_out_of_range():
    with pytest.raises(ConfigError):
        param_by_index(0)
    with pytest.raises(ConfigError):
        param_by_index(48)


def test_minimal_store_loads_and_adapts_everywhere():
    store = make_store(MINIMAL)
    features = extract_features(knapsack_2var())
    cfg = adapt("anything", features, store)
    assert cfg.label == "aggressive"
    assert cfg.assignments == {15: 2, 14: 1}


def test_store_rejects_index_48():
    doc = {"configs": {"bad": {"48": 1}}, "default": "bad"}
    with pytest.raises(ConfigError, match="48"):
        make_store(doc)


def test_store_rejects_dangling_rule_label():
    doc = dict(MINIMAL)
    doc["rules"] = [{"priority": 1, "config": "missing", "when": []}]
    with pytest.raises(ConfigError, match="missing"):
        make_store(doc)


def test_store_rejects_unknown_parameter_name():
    doc = {"configs": {"bad": {"CPXPARAM_Nonsense": 1}}, "default": "bad"}
    with pytest.raises(ConfigError, match="Nonsense"):
        make_store(doc)


def test_store_rejects_fractional_integer_value():
    doc = {"configs": {"bad": {"34": 1.5}}, "default": "bad"}
    with pytest.raises(ConfigError, match="integer"):
        make_store(doc)


def test_store_domain_tightening():
    doc = {
        "configs": {"c": {"34": 99}},
        "default": "c",
        "domains": {"34": {"min": 1, "max": 64}},
    }
    with pytest.raises(ConfigError, match="above domain maximum"):
        make_store(doc)


def test_store_duplicate_priorities_rejected():
    doc = {
        "configs": {"a": {}, "b": {}},
        "default": "a",
        "rules": [
            {"priority": 5, "config": "a", "when": []},
            {"priority": 5, "config": "b", "when": []},
        ],
    }
    with pytest.raises(ConfigError, match="priority"):
        make_store(doc)


def test_adapt_resolution_order():
    doc = {
        "configs": {"base": {}, "named": {"34": 4}, "ruled": {"34": 2}},
        "default": "base",
        "by_instance": {"knap2": "named"},
        "rules": [{"priority": 10, "config": "ruled", "when": [{"field": "n_int_vars", "op": ">=", "value": 0}]}],
    }
    store = make_store(doc)
    features = extract_features(knapsack_2var())
    # exact name match beats the always-true rule
    assert adapt("knap2", features, store).label == "named"
    # otherwise the rule fires
    assert adapt("other", features, store).label == "ruled"


def test_adapt_falls_back_to_default_when_no_rule_matches():
    doc = {
        "configs": {"base": {}, "ruled": {}},
        "default": "base",
        "rules": [{"priority": 1, "config": "ruled", "when": [{"field": "n_bin_vars", "op": ">=", "value": 100}]}],
    }
    store = make_store(doc)
    assert adapt("x", extract_features(knapsack_2var()), store).label == "base"


def test_adapt_priority_ordering():
    doc = {
        "configs": {"base": {}, "low": {}, "high": {}},
        "default": "base",
        "rules": [
            {"priority": 1, "config": "low", "when": [{"field": "n_vars", "op": ">", "value": 0}]},
            {"priority": 9, "config": "high", "when": [{"field": "n_vars", "op": ">", "value": 0}]},
        ],
    }
    store = make_store(doc)
    assert adapt("x", extract_features(knapsack_2var()), store).label == "high"


def test_adapt_is_pure():
    rng = np.random.default_rng(8)
    store = make_store(
        {
            "configs": {"base": {}, "r": {"15": 1}},
            "default": "base",
            "rules": [{"priority": 3, "config": "r", "when": [{"field": "density", "op": ">", "value": 0.5}]}],
        }
    )
    for _ in range(20):
        inst = random_binary_instance(rng, max_vars=6, max_rows=4)
        features = extract_features(inst)
        first = adapt(inst.name, features, store)
        assert adapt(inst.name, features, store) == first
        assert all(1 <= i <= 47 for i in first.assignments)


def test_map_gap_tolerance_zero():
    opts = map_to_reference(Configuration({46: 0.0}, "gap0"))
    assert opts.rel_gap == 0.0


def test_map_threads_recorded_inert():
    # the solver is single-threaded: threads are recorded in ``ignored`` only
    opts = map_to_reference(Configuration({34: 8}, "t8"))
    assert opts == ReferenceSolverOptions(ignored=(34,))
    assert map_to_reference(Configuration({}, "plain")) == ReferenceSolverOptions()


# a non-default value for each index the solver honours
SUPPORTED = {4: 1, 14: 1, 15: 2, 19: 2, 24: 1, 36: 1, 37: 0, 46: 0.1}


def test_every_option_field_has_a_parameter_that_sets_it():
    opts = map_to_reference(Configuration(SUPPORTED, "all"))
    default = ReferenceSolverOptions()
    unset = [f.name for f in dataclasses.fields(opts) if getattr(opts, f.name) == getattr(default, f.name)]
    assert unset == ["time_limit_s", "ignored"]
    for p in PARAMETER_REGISTRY:
        if p.index not in SUPPORTED:
            assert map_to_reference(Configuration({p.index: 1}, "one")).ignored == (p.index,)


def test_map_unsupported_index_lands_in_ignored():
    opts = map_to_reference(Configuration({1: 3}, "rlt"))
    assert opts.ignored == (1,)


def test_map_strategy_conventions():
    opts = map_to_reference(Configuration({37: 0, 19: 2, 15: 2, 14: 1, 36: 1, 24: 1, 4: 1}, "s"))
    assert opts.node_strategy is NodeStrategy.DEPTH_FIRST
    assert opts.branch_rule is BranchRule.PSEUDOCOST
    assert opts.gomory_rounds == 2
    assert opts.cover_cuts and opts.presolve_bound_tighten and opts.presolve_coeff_reduce
    assert opts.diving


def test_map_accepts_strategy_names():
    opts = map_to_reference(Configuration({37: "depth_first", 19: "pseudocost"}, "names"))
    assert opts.node_strategy is NodeStrategy.DEPTH_FIRST
    assert opts.branch_rule is BranchRule.PSEUDOCOST


def test_map_negative_gomory_clamps_to_zero():
    assert map_to_reference(Configuration({15: -1}, "n")).gomory_rounds == 0


def test_load_configuration_bare_and_wrapped():
    bare = load_configuration('{"CPXPARAM_Threads": 4}')
    assert bare.assignments == {34: 4}
    wrapped = load_configuration('{"label": "x", "assignments": {"15": 2}}')
    assert wrapped.label == "x"
    assert wrapped.assignments == {15: 2}


@pytest.mark.parametrize(
    "load",
    [
        lambda raw: make_store({"configs": {"c": raw}, "default": "c"}),
        lambda raw: load_configuration(json.dumps(raw)),
    ],
    ids=["store", "configuration"],
)
def test_parameter_assigned_by_index_and_name_is_rejected(load):
    with pytest.raises(ConfigError, match="CPXPARAM_MIP_Cuts_Gomory twice"):
        load({"15": 1, "CPXPARAM_MIP_Cuts_Gomory": 3})


def test_store_accepts_strategy_names_for_enum_params():
    store = make_store({"configs": {"s": {"37": "depth_first"}}, "default": "s"})
    opts = map_to_reference(store.configs["s"])
    assert opts.node_strategy is NodeStrategy.DEPTH_FIRST


# Every parameter value is checked once, as it loads: a store that loads runs
# to the end, and a bad value names its parameter instead of failing the first
# job that uses it.
BAD_VALUES = {
    "NodeSelect name": ("37", "foo"),
    "VariableSelect name": ("19", "bogus"),
    "negative MIPGap": ("46", -0.5),
    "NaN MIPGap": ("46", math.nan),
    "infinite Threads": ("34", math.inf),
    "NaN Threads": ("34", math.nan),
    "NaN CutsFactor": ("32", math.nan),
}


@pytest.mark.parametrize("key,value", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_a_bad_value_in_a_rule_picked_configuration_fails_at_load(key, value):
    doc = {
        "configs": {"base": {}, "bad": {key: value}},
        "default": "base",
        "rules": [{"priority": 1, "config": "bad", "when": [{"field": "n_vars", "op": ">=", "value": 1}]}],
    }
    with pytest.raises(ConfigError, match=param_by_index(int(key)).name):
        make_store(doc)


@pytest.mark.parametrize(
    "assignments",
    [{46: math.nan}, {37: "foo"}, {4: 0.5}, {15: math.inf}, {19: [2]}],
    ids=["NaN MIPGap", "unknown name", "fractional toggle", "infinite Gomory", "list"],
)
def test_a_configuration_built_in_code_meets_the_load_rule(assignments):
    with pytest.raises(ConfigError, match=param_by_index(next(iter(assignments))).name):
        map_to_reference(Configuration(assignments, "code"))


_CLAUSE = {"field": "n_vars", "op": ">=", "value": 1}
MALFORMED = {
    "domain bound": ({"domains": {"46": {"min": "a"}}}, "CPXPARAM_MIP_Tolerances_MIPGap"),
    "domain values": ({"domains": {"46": {"values": 0.1}}}, "CPXPARAM_MIP_Tolerances_MIPGap"),
    "clause": ({"rules": [{"priority": 1, "config": "c", "when": [5]}]}, '"when"'),
    "when object": ({"rules": [{"priority": 1, "config": "c", "when": {}}]}, '"when"'),
    "bool priority": ({"rules": [{"priority": True, "config": "c", "when": [_CLAUSE]}]}, "priority"),
    "by_instance array": ({"by_instance": []}, '"by_instance"'),
    "domains array": ({"domains": []}, '"domains"'),
    "rules object": ({"rules": {}}, '"rules"'),
    "NaN threshold": ({"rules": [{"priority": 1, "config": "c", "when": [{**_CLAUSE, "value": math.nan}]}]},
                      "threshold"),
    "array label": ({"by_instance": {"knap2": ["c"]}}, "by_instance"),
    "array field": ({"rules": [{"priority": 1, "config": "c", "when": [{**_CLAUSE, "field": []}]}]}, "field"),
    "array operator": ({"rules": [{"priority": 1, "config": "c", "when": [{**_CLAUSE, "op": []}]}]}, "operator"),
}


@pytest.mark.parametrize("extra,key", list(MALFORMED.values()), ids=list(MALFORMED))
def test_a_malformed_store_is_a_config_error_naming_its_key(extra, key):
    with pytest.raises(ConfigError, match=key):
        make_store({"configs": {"c": {}}, "default": "c", **extra})


def test_a_strategy_name_is_another_spelling_of_its_integer():
    named = make_store({"configs": {"s": {"37": "depth_first"}}, "default": "s"})
    assert named.configs == make_store({"configs": {"s": {"37": 0}}, "default": "s"}).configs
    assert named.configs["s"].assignments == {37: 0}
    domain = make_store({"configs": {"s": {"37": "depth_first"}}, "default": "s", "domains": {"37": {"values": [0, 1]}}})
    assert domain.configs == named.configs
    with pytest.raises(ConfigError, match="CPXPARAM_MIP_Strategy_NodeSelect: 0 below domain minimum 1"):
        make_store({"configs": {"s": {"37": "depth_first"}}, "default": "s", "domains": {"37": {"min": 1}}})


# The mapping as it was before each value was checked at load (commit
# 2be5569): its loader check, ``map_to_reference`` and ``_as_choice``, kept
# as an oracle.
def _oracle_check_value(p, value):
    if isinstance(value, bool):
        value = int(value)
    if p.value_kind is ValueKind.ENUMERATION and isinstance(value, str):
        pass
    elif not isinstance(value, (int, float)):
        raise ConfigError(f"{p.name}: value {value!r} is not a number")
    elif p.value_kind is ValueKind.REAL:
        value = float(value)
    else:
        if float(value) != int(value):
            raise ConfigError(f"{p.name}: expected an integer, got {value!r}")
        value = int(value)
    return value


_ORACLE_TOGGLES = {4: "diving", 14: "cover_cuts", 24: "presolve_coeff_reduce", 36: "presolve_bound_tighten"}


def _oracle_map_to_reference(cfg):
    opts = {}
    ignored = []
    for idx, value in sorted(cfg.assignments.items()):
        if idx in _ORACLE_TOGGLES:
            opts[_ORACLE_TOGGLES[idx]] = value > 0
        elif idx == 37:
            chosen = _oracle_as_choice(value, {"depth_first": 0, "best_bound": 1})
            opts["node_strategy"] = NodeStrategy.DEPTH_FIRST if chosen == 0 else NodeStrategy.BEST_BOUND
        elif idx == 19:
            chosen = _oracle_as_choice(value, {"most_fractional": 0, "pseudocost": 2})
            opts["branch_rule"] = BranchRule.PSEUDOCOST if chosen in (2, 3, 4) else BranchRule.MOST_FRACTIONAL
        elif idx == 15:
            opts["gomory_rounds"] = max(0, int(value))
        elif idx == 46:
            if value < 0 or not math.isfinite(value):
                raise ConfigError(f"gap tolerance must be a finite nonnegative real, got {value}")
            opts["rel_gap"] = float(value)
        else:
            ignored.append(idx)
    return ReferenceSolverOptions(ignored=tuple(ignored), **opts)


def _oracle_as_choice(value, names):
    if isinstance(value, str):
        if value not in names:
            raise ConfigError(f"unknown strategy name {value!r}")
        return names[value]
    return int(value)


GRID_INDICES = (1, 4, 14, 15, 19, 24, 32, 34, 36, 37, 46)
GRID_VALUES = (*range(-3, 8), 0.5, 2.0, -0.25, True, math.inf, math.nan,
               "depth_first", "best_bound", "most_fractional", "pseudocost")


def test_mapping_agrees_with_the_oracle_wherever_the_oracle_succeeds():
    agreed, newly_rejected = 0, []
    for idx in GRID_INDICES:
        for value in GRID_VALUES:
            try:
                expected = _oracle_map_to_reference(Configuration({idx: _oracle_check_value(param_by_index(idx), value)}))
            except (ConfigError, ValueError, OverflowError, TypeError):
                expected = None
            try:
                got = map_to_reference(load_configuration(json.dumps({str(idx): value})))
            except ConfigError:
                if expected is not None:
                    newly_rejected.append((idx, str(value)))
                continue
            assert expected is not None, (idx, value)  # every value the oracle rejects fails at load
            assert got == expected, (idx, value)
            agreed += 1
    # integer parameters take 13 grid values each, the selections 15, CutsFactor 15, MIPGap 11
    assert agreed == 7 * 13 + 2 * 15 + 15 + 11
    assert newly_rejected == [(32, "inf"), (32, "nan")]  # the oracle let a non-finite CutsFactor through
