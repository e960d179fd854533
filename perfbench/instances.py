"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and fixed sizes, so a seed
changes the data but never the family or the size of an instance.  Generators
that know their optimum return it; the others are checked by ``oracle.py``.
"""

from __future__ import annotations

import numpy as np

from milpbench.instance import Instance, Relation, Sense, Variable, VarKind, make_row


def _binaries(n: int) -> tuple[Variable, ...]:
    return tuple(Variable(f"x{j}", 0.0, 1.0, VarKind.BINARY) for j in range(n))


def knapsack(rng: np.random.Generator, name: str, n: int, m: int, density: float = 0.1) -> Instance:
    """Multi-row 0/1 knapsack: weights 1..49, each rhs half its row weight."""
    rows = []
    for i in range(m):
        mask = rng.random(n) < density
        if not mask.any():
            mask[rng.integers(n)] = True
        w = rng.integers(1, 50, size=n)
        coeffs = [(int(j), float(w[j])) for j in np.flatnonzero(mask)]
        rows.append(make_row(f"r{i}", coeffs, Relation.LE, float(sum(c for _, c in coeffs) // 2)))
    profit = rng.integers(1, 50, size=n)
    objective = tuple((j, float(profit[j])) for j in range(n))
    return Instance(name, Sense.MAXIMIZE, _binaries(n), tuple(rows), objective)


def chain(name: str, n: int) -> tuple[Instance, float]:
    """min -sum(x) s.t. 2 sum(x) <= 2n-1: optimum -(n-1), about 2n nodes without cuts."""
    row = make_row("cap", [(j, 2.0) for j in range(n)], Relation.LE, 2.0 * n - 1.0)
    inst = Instance(name, Sense.MINIMIZE, _binaries(n), (row,), tuple((j, -1.0) for j in range(n)))
    return inst, -(n - 1.0)


def equal_weight_knapsack(rng: np.random.Generator, name: str, n: int) -> tuple[Instance, float]:
    """max profit.x s.t. 3 sum(x) <= 3k+1: the LP takes a third of one more item.

    One Gomory or cover cut closes the gap; plain branching needs tens of
    thousands of nodes at n=80.  The optimum is the sum of the k largest profits.
    """
    k = n // 2 + int(rng.integers(-3, 4))
    profit = rng.integers(1, 50, size=n)
    row = make_row("cap", [(j, 3.0) for j in range(n)], Relation.LE, 3.0 * k + 1.0)
    inst = Instance(name, Sense.MAXIMIZE, _binaries(n), (row,), tuple((j, float(profit[j])) for j in range(n)))
    return inst, float(np.sort(profit)[::-1][:k].sum())


def market_split(rng: np.random.Generator, name: str, n: int, m: int) -> Instance:
    """Equality knapsacks with rhs half the row weight: often infeasible."""
    a = rng.integers(0, 100, size=(m, n))
    rows = [
        make_row(f"r{i}", [(j, float(a[i, j])) for j in range(n)], Relation.EQ, float(int(a[i].sum()) // 2))
        for i in range(m)
    ]
    return Instance(name, Sense.MINIMIZE, _binaries(n), tuple(rows), ())


def facility_location(rng: np.random.Generator, name: str, n_fac: int, n_cust: int) -> Instance:
    """Facility location, strong form: binary openings y_i, continuous shares x_ij <= y_i.

    Every capacity covers the total demand, so the LP relaxation is nearly
    integral and a solve stays at the root.
    """
    fx, fy = rng.random(n_fac), rng.random(n_fac)
    cx, cy = rng.random(n_cust), rng.random(n_cust)
    demand = rng.integers(5, 36, size=n_cust)
    capacity = int(demand.sum()) + rng.integers(0, 101, size=n_fac)
    fixed = rng.integers(100, 301, size=n_fac)
    variables = [Variable(f"y{i}", 0.0, 1.0, VarKind.BINARY) for i in range(n_fac)]
    objective = [(i, float(fixed[i])) for i in range(n_fac)]

    def x(i: int, j: int) -> int:
        return n_fac + i * n_cust + j

    for i in range(n_fac):
        for j in range(n_cust):
            variables.append(Variable(f"x{i}_{j}", 0.0, 1.0, VarKind.CONTINUOUS))
            dist = float(np.hypot(fx[i] - cx[j], fy[i] - cy[j]))
            objective.append((x(i, j), round(dist * 100.0 * demand[j]) / 10.0))
    rows = [make_row(f"serve{j}", [(x(i, j), 1.0) for i in range(n_fac)], Relation.EQ, 1.0) for j in range(n_cust)]
    for i in range(n_fac):
        coeffs = [(x(i, j), float(demand[j])) for j in range(n_cust)] + [(i, -float(capacity[i]))]
        rows.append(make_row(f"cap{i}", coeffs, Relation.LE, 0.0))
        rows += [make_row(f"link{i}_{j}", [(i, -1.0), (x(i, j), 1.0)], Relation.LE, 0.0) for j in range(n_cust)]
    return Instance(name, Sense.MINIMIZE, tuple(variables), tuple(rows), tuple(objective))


def interval_cover(rng: np.random.Generator, name: str, n: int, m: int) -> Instance:
    """Cover m points on a line with general-integer copies of n intervals.

    The first intervals tile the line, so every demand can be met.
    """
    starts, ends = [], []
    tile = max(1, -(-m // max(1, n // 4)))
    for a in range(0, m, tile):
        starts.append(a)
        ends.append(min(m, a + tile) - 1)
    while len(starts) < n:
        a = int(rng.integers(0, m))
        starts.append(a)
        ends.append(min(m - 1, a + int(rng.integers(2, 40))))
    demand = rng.integers(1, 4, size=m)
    variables = tuple(Variable(f"z{k}", 0.0, 6.0, VarKind.INTEGER) for k in range(n))
    cost = [float(ends[k] - starts[k] + 1 + int(rng.integers(0, 10))) for k in range(n)]
    rows = []
    for p in range(m):
        cover = [(k, 1.0) for k in range(n) if starts[k] <= p <= ends[k]]
        rows.append(make_row(f"p{p}", cover, Relation.GE, float(demand[p])))
    return Instance(name, Sense.MINIMIZE, variables, tuple(rows), tuple(enumerate(cost)))


def tiny_binary(rng: np.random.Generator, name: str, n: int, m: int) -> Instance:
    """n binaries, m rows anchored near a random point; some infeasible."""
    anchor = rng.integers(0, 2, size=n)
    rows = []
    for i in range(m):
        support = sorted(int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        coeffs = [(j, float(int(rng.integers(-5, 6)) or 1)) for j in support]
        act = sum(c * anchor[j] for j, c in coeffs)
        relation = (Relation.LE, Relation.GE, Relation.EQ)[int(rng.integers(0, 3))]
        rhs = float(act) if relation is Relation.EQ and rng.random() < 0.5 else float(act + int(rng.integers(-2, 4)))
        rows.append(make_row(f"r{i}", coeffs, relation, rhs))
    objective = tuple((j, float(int(rng.integers(-10, 11)))) for j in range(n))
    sense = Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE
    return Instance(name, sense, _binaries(n), tuple(rows), objective)


def tiny_mixed(rng: np.random.Generator, name: str, kinds: tuple[VarKind, ...], m: int) -> Instance:
    """Bounded variables of the given kinds with m rows, some ranged."""
    n = len(kinds)
    variables = []
    for j, kind in enumerate(kinds):
        lo = float(rng.integers(-3, 2))
        if kind is VarKind.BINARY:
            variables.append(Variable(f"v{j}", 0.0, 1.0, kind))
        elif kind is VarKind.INTEGER:
            variables.append(Variable(f"v{j}", lo, lo + float(rng.integers(1, 8)), kind))
        else:
            variables.append(Variable(f"v{j}", lo, lo + float(rng.integers(1, 10)), kind))
    rows = []
    for i in range(m):
        support = sorted(int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        coeffs = [(j, float(int(rng.integers(-5, 6)) or 2)) for j in support]
        relation = (Relation.LE, Relation.GE, Relation.EQ, Relation.RANGE)[int(rng.integers(0, 4))]
        rhs = float(int(rng.integers(-8, 9)))
        width = float(int(rng.integers(0, 5))) if relation is Relation.RANGE else None
        rows.append(make_row(f"c{i}", coeffs, relation, rhs, width))
    objective = tuple((j, float(c)) for j in range(n) if (c := int(rng.integers(-9, 10))) != 0)
    sense = Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE
    return Instance(name, sense, tuple(variables), tuple(rows), objective, float(int(rng.integers(-4, 5))))
