import hashlib
import itertools
import math

import numpy as np
import pytest

from milpbench.instance import Instance, Relation, Sense, Variable, VarKind, make_row
from milpbench.solver import ReferenceSolverOptions, branch_and_bound, solve_lp
from milpbench.solver.cuts import cover_cuts, gomory_cuts
from milpbench.solver.simplex import BoundedSimplex, LpStatus
from milpbench.solver.standard_form import to_standard_form

from _helpers import (
    counting_clock,
    enumerate_binary_optimum,
    market_split_instance,
    random_binary_instance,
    two_row_knapsack,
)


def _gomory_for(inst: Instance):
    form = to_standard_form(inst)
    splx = BoundedSimplex(form)
    res = splx.solve()
    assert res.status is LpStatus.OPTIMAL
    return form, splx, gomory_cuts(splx, form.is_int)


def test_single_row_rounding_cut():
    # min -y with 2y <= 3, y integer: relaxation sits at 1.5 and the cut
    # must imply y <= 1, after which the tree closes at the root
    inst = Instance(
        "gm",
        Sense.MINIMIZE,
        (Variable("y", 0.0, math.inf, VarKind.INTEGER),),
        (make_row("r", [(0, 2.0)], Relation.LE, 3.0),),
        objective=((0, -1.0),),
    )
    relax = solve_lp(inst)
    assert relax.objective == pytest.approx(-1.5, abs=1e-9)
    assert relax.point[0] == pytest.approx(1.5, abs=1e-9)

    _, _, cuts = _gomory_for(inst)
    assert cuts, "a fractional basic integer must yield a cut"
    g, rhs = cuts[0]
    # the cut is g.y >= rhs; at y=1.5 it must be violated, at y<=1 satisfied
    assert g[0] * 1.5 < rhs - 1e-12
    assert g[0] * 1.0 >= rhs - 1e-9
    assert g[0] * 0.0 >= rhs - 1e-9

    out = branch_and_bound(inst, ReferenceSolverOptions(gomory_rounds=1))
    assert out.status.value == "optimal"
    assert out.incumbent.objective == pytest.approx(-1.0, abs=1e-9)
    assert out.nodes == 1


def test_gomory_cut_never_excludes_integral_points():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(120):
        inst = random_binary_instance(rng, max_vars=8, max_rows=5)
        form = to_standard_form(inst)
        splx = BoundedSimplex(form)
        res = splx.solve()
        if res.status is not LpStatus.OPTIMAL:
            continue
        cuts = gomory_cuts(splx, form.is_int)
        if not cuts:
            continue
        n = inst.n_vars
        for bits in itertools.product((0.0, 1.0), repeat=n):
            feasible = True
            for row in inst.rows:
                act = sum(c * bits[j] for j, c in row.coefficients)
                lo, hi = row.interval()
                if act < lo - 1e-9 or act > hi + 1e-9:
                    feasible = False
                    break
            if not feasible:
                continue
            for g, rhs in cuts:
                assert float(np.dot(g, bits)) >= rhs - 1e-7, (
                    f"cut excludes feasible point {bits} on {inst.name}"
                )
            checked += 1
    assert checked > 50


def test_cover_cut_separates_fractional_knapsack_point():
    # 3x0 + 3x1 + 3x2 <= 5: the point (1, 2/3, 0) needs {x0, x1} <= 1
    A = np.array([[3.0, 3.0, 3.0]])
    rlo = np.array([-math.inf])
    rup = np.array([5.0])
    lb = np.zeros(3)
    ub = np.ones(3)
    is_int = np.ones(3, dtype=bool)
    xstar = np.array([1.0, 2.0 / 3.0, 0.0])
    cuts = cover_cuts(A, rlo, rup, lb, ub, is_int, xstar)
    assert cuts
    g, rhs = cuts[0]
    assert float(g @ xstar) < rhs - 1e-9  # violated at the fractional point
    for bits in itertools.product((0.0, 1.0), repeat=3):
        if 3.0 * sum(bits) <= 5.0 + 1e-9:
            assert float(g @ np.array(bits)) >= rhs - 1e-9


def test_cover_cut_complements_negative_weights():
    # -3x0 + 3x1 + 3x2 <= 2 complements x0; covers stay integrally valid
    A = np.array([[-3.0, 3.0, 3.0]])
    rlo = np.array([-math.inf])
    rup = np.array([2.0])
    lb = np.zeros(3)
    ub = np.ones(3)
    is_int = np.ones(3, dtype=bool)
    xstar = np.array([0.0, 1.0, 2.0 / 3.0])
    cuts = cover_cuts(A, rlo, rup, lb, ub, is_int, xstar)
    assert cuts
    for g, rhs in cuts:
        for bits in itertools.product((0.0, 1.0), repeat=3):
            act = -3.0 * bits[0] + 3.0 * bits[1] + 3.0 * bits[2]
            if act <= 2.0 + 1e-9:
                assert float(g @ np.array(bits)) >= rhs - 1e-9


def test_cover_must_exceed_capacity_beyond_row_tolerance():
    # x0 + x1 >= 2 - 2e-9 is a Gomory row met by (1, 1) up to rounding;
    # {x0, x1} is no cover of it, so x0 + x1 <= 1 must not be derived
    A = np.array([[-1.0, -1.0]])
    rlo = np.array([-2.0 + 2e-9])
    rup = np.array([math.inf])
    cuts = cover_cuts(A, rlo, rup, np.zeros(2), np.ones(2), np.ones(2, dtype=bool), np.array([1.0, 1.0]))
    assert cuts == []


def test_cover_cuts_skip_non_binary_rows():
    A = np.array([[2.0, 2.0]])
    rlo = np.array([-math.inf])
    rup = np.array([3.0])
    lb = np.zeros(2)
    ub = np.array([1.0, 4.0])
    is_int = np.array([True, True])  # second variable is integer but not binary
    cuts = cover_cuts(A, rlo, rup, lb, ub, is_int, np.array([0.75, 0.75]))
    assert cuts == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_binary_fixed_at_one_moves_its_term_to_the_rows_side(sign):
    # 3x0 + 3x1 + 3x2 + 4x3 + 7x4 <= 9 with x3 fixed at 1 and x4 at 0 is the
    # knapsack 3x0 + 3x1 + 3x2 <= 5 over the free binaries; sign -1 writes
    # both rows as >= rows
    xstar = np.array([1.0, 2.0 / 3.0, 0.0, 1.0, 0.0])
    is_int = np.ones(5, dtype=bool)
    lb, ub = np.array([0.0, 0.0, 0.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    sides = (lambda b: (np.array([-math.inf]), np.array([b]))) if sign > 0 else \
        (lambda b: (np.array([-b]), np.array([math.inf])))
    fixed = cover_cuts(sign * np.array([[3.0, 3.0, 3.0, 4.0, 7.0]]), *sides(9.0), lb, ub, is_int, xstar)
    moved = cover_cuts(sign * np.array([[3.0, 3.0, 3.0, 0.0, 0.0]]), *sides(5.0), lb, ub, is_int, xstar)
    assert len(fixed) == 1
    assert [(g.tolist(), float.hex(rhs)) for g, rhs in fixed] == [(g.tolist(), float.hex(rhs)) for g, rhs in moved]
    g, rhs = fixed[0]
    assert g.tolist() == [-1.0, -1.0, 0.0, 0.0, 0.0] and rhs == pytest.approx(-1.0, abs=1e-8)


def test_cut_pipeline_preserves_optimum_on_random_instances():
    rng = np.random.default_rng(313)
    for _ in range(40):
        inst = random_binary_instance(rng, max_vars=7, max_rows=4)
        want_status, want_obj = enumerate_binary_optimum(inst)
        out = branch_and_bound(inst, ReferenceSolverOptions(gomory_rounds=2, cover_cuts=True))
        assert out.status.value == want_status
        if want_status == "optimal":
            assert out.incumbent.objective == pytest.approx(want_obj, abs=1e-6)


def _knapsack_10x3(rng: np.random.Generator) -> Instance:
    """max profit.x over 10 binaries and 3 rows of density 0.5, weights 1..49,
    each rhs half its row weight."""
    rows = []
    for i in range(3):
        mask = rng.random(10) < 0.5
        if not mask.any():
            mask[rng.integers(10)] = True
        w = rng.integers(1, 50, size=10)
        coeffs = [(int(j), float(w[j])) for j in np.flatnonzero(mask)]
        rows.append(make_row(f"r{i}", coeffs, Relation.LE, float(sum(c for _, c in coeffs) // 2)))
    profit = rng.integers(1, 50, size=10)
    variables = tuple(Variable(f"x{j}", 0.0, 1.0, VarKind.BINARY) for j in range(10))
    return Instance("knap", Sense.MAXIMIZE, variables, tuple(rows), tuple((j, float(p)) for j, p in enumerate(profit)))


@pytest.mark.parametrize("seed", range(22, 35))
def test_gomory_and_cover_knapsacks_reach_the_enumerated_optimum(seed):
    # Seeds 22 and 26 each hold a knapsack whose node LPs, after the cuts,
    # pivoted on a tiny element and returned x_j > 1 on a binary, so the
    # search re-branched on one node until its budget ran out; raising the
    # pivot tolerance to 1e-6 instead did the same to seed 34 after a pivot of
    # 3.05e-6.  Seed 33 holds one where a cover of a Gomory row cut off the
    # optimum (120 instead of 121).  The clock bounds the search at about 300
    # nodes.
    rng = np.random.default_rng(seed)
    opts = ReferenceSolverOptions(gomory_rounds=2, cover_cuts=True, time_limit_s=300)
    for _ in range(25):
        inst = _knapsack_10x3(rng)
        _, want = enumerate_binary_optimum(inst)
        out = branch_and_bound(inst, opts, clock=counting_clock())
        assert out.status.value == "optimal"
        assert out.incumbent.objective == pytest.approx(want, abs=1e-6)


def test_an_equality_row_separates_its_le_side_only():
    # x0 + x1 + x2 = 2 at (0.2, 0.2, 1): the <= side's cover {x0, x1, x2}
    # holds 1.4 <= 2, and the >= side is not separated; the same row
    # written as >= 2 yields x0 + x1 >= 1 from the cover {x0, x1} of its
    # complements
    xstar = np.array([0.2, 0.2, 1.0])
    box = (np.zeros(3), np.ones(3), np.ones(3, dtype=bool))
    A = np.ones((1, 3))
    assert cover_cuts(A, np.array([2.0]), np.array([2.0]), *box, xstar) == []
    cuts = cover_cuts(A, np.array([2.0]), np.array([math.inf]), *box, xstar)
    assert len(cuts) == 1
    g, rhs = cuts[0]
    assert g.tolist() == [1.0, 1.0, 0.0] and rhs == pytest.approx(1.0, abs=1e-8) and rhs < 1.0


def test_a_cover_violated_by_a_twentieth_yields_its_cut():
    # 3x0 + 3x1 + 3x2 <= 5 at (1, 0.05, 0): x0 + x1 <= 1 is violated by 0.05
    cuts = cover_cuts(np.array([[3.0, 3.0, 3.0]]), np.array([-math.inf]), np.array([5.0]),
                      np.zeros(3), np.ones(3), np.ones(3, dtype=bool), np.array([1.0, 0.05, 0.0]))
    assert len(cuts) == 1
    g, rhs = cuts[0]
    assert g.tolist() == [-1.0, -1.0, 0.0] and rhs == pytest.approx(-1.0, abs=1e-8)


def _many_rows(seed: int, m: int = 72, n: int = 30) -> Instance:
    """max c.x over 22 binaries, 4 integers in [0, 5] and 4 continuous columns
    in [0, 10], under ``m`` rows of 3-7 signed terms (<=, >= or a range)
    around a random integral point; about half the rows are all binary."""
    rng = np.random.default_rng(seed)
    kinds = [VarKind.BINARY] * 22 + [VarKind.INTEGER] * 4 + [VarKind.CONTINUOUS] * 4
    variables = tuple(Variable(f"x{j}", 0.0, 1.0 if k is VarKind.BINARY else 5.0 if k is VarKind.INTEGER else 10.0, k)
                      for j, k in enumerate(kinds))
    anchor = np.array([rng.integers(0, 2) if j < 22 else rng.integers(0, 6) for j in range(n)], dtype=float)
    rows = []
    for i in range(m):
        pool = 22 if i % 2 else n
        support = sorted(int(j) for j in rng.choice(pool, size=int(rng.integers(3, 8)), replace=False))
        coeffs = [(j, float(int(rng.integers(1, 10)) * (1 if rng.random() < 0.7 else -1))) for j in support]
        act = float(sum(c * anchor[j] for j, c in coeffs))
        relation = (Relation.LE, Relation.GE, Relation.RANGE)[i % 3]
        slack = float(rng.integers(0, 3))
        if relation is Relation.GE:
            rows.append(make_row(f"r{i}", coeffs, relation, act - slack))
        else:
            width = slack + float(rng.integers(0, 4)) if relation is Relation.RANGE else None
            rows.append(make_row(f"r{i}", coeffs, relation, act + slack, width))
    objective = tuple((j, float(rng.integers(1, 20))) for j in range(n))
    return Instance(f"many{seed}", Sense.MAXIMIZE, variables, tuple(rows), objective)


_DIGEST_MODELS = {
    "two_row_knapsack": two_row_knapsack,
    "market_split": lambda: market_split_instance(seed=5, n=12, m=2),
    **{f"knapsack_10x3_{k}": (lambda k=k: _knapsack_10x3(np.random.default_rng(40 + k))) for k in range(3)},
    "many_rows_7": lambda: _many_rows(7),
    "many_rows_9": lambda: _many_rows(9),
}

# (Gomory cuts, cover cuts, sha256 of each cut's g.tobytes() and float.hex(rhs)
# in order) from one call of each separator at the model's LP optimum; a
# change that moves a cut by one bit changes the digest
_CUT_DIGESTS = {
    "knapsack_10x3_0": (3, 3, "2f1abf7cee1ceddf8679540d3f99ac748623e4d3a642c4583d278383d28988ad"),
    "knapsack_10x3_1": (2, 2, "f2457373ef7d0e2b3b1547a0290ebba53d190c50d4663b000f23a2b0a46f1e8b"),
    "knapsack_10x3_2": (3, 3, "896c76b0b8b90d359e3ad2ef30300dd7597fcd0839c18e76e521aa589752073b"),
    "many_rows_7": (16, 16, "b0b3d5b49520473d481e9e88c7588ec3cda269201fa6c54b6dfa76bcacf40f46"),
    "many_rows_9": (8, 12, "89e47aa33972448110ffce7f805aa301e665a48aeeb7eeee0825f5a8256dbac8"),
    "market_split": (2, 2, "2b8b611cb88bc3c8c8d98d39e5427a536a98effe324bfe50468f8c98ebb44ba6"),
    "two_row_knapsack": (2, 2, "8825143b14616251d8962bc33efb20ffb97b630ad0aa182f7c5234e1e5e62a80"),
}


@pytest.mark.parametrize("model", sorted(_DIGEST_MODELS))
def test_separators_return_the_pinned_cuts_to_the_bit(model):
    form = to_standard_form(_DIGEST_MODELS[model]())
    splx = BoundedSimplex(form)
    res = splx.solve()
    assert res.status is LpStatus.OPTIMAL
    gomory = gomory_cuts(splx, form.is_int)
    cover = cover_cuts(form.A, form.rlo, form.rup, form.lb, form.ub, form.is_int, res.point)
    h = hashlib.sha256()
    for g, rhs in gomory + cover:
        h.update(g.tobytes())
        h.update(float.hex(rhs).encode())
    assert (len(gomory), len(cover), h.hexdigest()) == _CUT_DIGESTS[model]
