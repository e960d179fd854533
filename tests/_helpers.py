"""Shared builders and independent oracles for the test suite.

The enumeration oracles here are deliberately brute-force and never reuse
solver code paths: feasibility is checked row by row over explicitly
enumerated points.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from milpbench.instance import Instance, Relation, Sense, Variable, VarKind, make_row
from milpbench.mps import write_mps

INF = math.inf
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_instances(monkeypatch):
    """The benchmark's instance generators (``perfbench/instances.py``); nothing is written there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("instances")


def write_instance(directory, inst: Instance) -> str:
    """Serialize an instance to <dir>/<name>.mps and return the path."""
    path = Path(directory) / f"{inst.name}.mps"
    path.write_text(write_mps(inst))
    return str(path)


def var(name, lo=0.0, hi=1.0, kind=VarKind.BINARY):
    return Variable(name, lo, hi, kind)


def binary_instance(name, n, rows, objective, sense=Sense.MINIMIZE, constant=0.0):
    return Instance(
        name=name,
        sense=sense,
        variables=tuple(Variable(f"x{j}", 0.0, 1.0, VarKind.BINARY) for j in range(n)),
        rows=tuple(rows),
        objective=tuple(objective),
        objective_constant=constant,
    )


def knapsack_2var() -> Instance:
    """min -x0 - 2*x1  s.t.  x0 + x1 <= 1, both binary."""
    return binary_instance(
        "knap2",
        2,
        [make_row("c1", [(0, 1.0), (1, 1.0)], Relation.LE, 1.0)],
        [(0, -1.0), (1, -2.0)],
    )


def two_row_knapsack(seed: int = 1, n: int = 12) -> Instance:
    """Two packing rows of random weights over ``n`` binaries; cut rounds add rows to its root."""
    rng = np.random.default_rng(seed)
    w = rng.integers(3, 20, size=(2, n))
    rows = [
        make_row(f"c{i}", [(j, float(v)) for j, v in enumerate(w[i])], Relation.LE, float(w[i].sum() // 2))
        for i in range(2)
    ]
    return binary_instance(f"knap{seed}", n, rows, [(j, -float(rng.integers(5, 30))) for j in range(n)])


def contradictory_bounds_instance() -> Instance:
    """x >= 1 and x <= 0 on an integer variable: infeasible."""
    return Instance(
        name="contradict",
        sense=Sense.MINIMIZE,
        variables=(Variable("x", 0.0, 10.0, VarKind.INTEGER),),
        rows=(
            make_row("ge1", [(0, 1.0)], Relation.GE, 1.0),
            make_row("le0", [(0, 1.0)], Relation.LE, 0.0),
        ),
        objective=((0, 1.0),),
    )


def chain_instance(n: int, name: Optional[str] = None, off_lattice: bool = False) -> Instance:
    """min -sum(x)  s.t.  2*sum(x) <= 2n-1 over n binaries.

    The LP bound is -(n-0.5), which rounds up to the incumbent -(n-1) on the
    objective's step of 1, so the search settles the chain at the root or
    its first children.  ``off_lattice`` gives x0 the cost -1.5, so the
    objective has no step: the LP bound stays half a unit below the
    incumbent along an n-deep chain, and plain search walks 2n+1 nodes while
    one Gomory round proves sum(x) <= n-1 at the root.
    """
    return binary_instance(
        name or f"chain{n:03d}",
        n,
        [make_row("cap", [(j, 2.0) for j in range(n)], Relation.LE, 2.0 * n - 1.0)],
        [(j, -1.5 if off_lattice and j == 0 else -1.0) for j in range(n)],
    )


def market_split_instance(seed: int = 7, n: int = 25, m: int = 4) -> Instance:
    """Equality knapsack split; brutal for tree search at this size."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(m, n))
    rows = []
    for i in range(m):
        rhs = float(int(a[i].sum()) // 2)
        rows.append(make_row(f"r{i}", [(j, float(a[i, j])) for j in range(n)], Relation.EQ, rhs))
    return binary_instance(f"msplit{seed}", n, rows, [])


def parity_infeasible_instance(n: int = 6, name: Optional[str] = None) -> Instance:
    """2*sum(x) = odd over binaries: integrally infeasible, LP feasible."""
    rhs = float(2 * (n // 2) + 1)
    assert rhs <= 2 * n
    return binary_instance(
        name or f"parity{n}",
        n,
        [make_row("eq", [(j, 2.0) for j in range(n)], Relation.EQ, rhs)],
        [],
    )


def empty_cover_instance(k: int = 5, n: int = 3, name: Optional[str] = None) -> Instance:
    """sum(x) >= k with only n < k binaries: no cover exists."""
    assert n < k
    return binary_instance(
        name or f"nocover{n}v{k}",
        n,
        [make_row("need", [(j, 1.0) for j in range(n)], Relation.GE, float(k))],
        [],
    )


def counting_clock():
    """A clock for ``branch_and_bound(clock=...)`` that advances one unit per
    reading: the search reads it once per open node, so a time limit of N
    units is a budget of about N nodes, whatever the host's speed."""
    return itertools.count().__next__


# ---- independent oracles ---------------------------------------------------


def enumerate_binary_optimum(inst: Instance, tol: float = 1e-9):
    """Brute-force optimum over all 0/1 assignments.

    Returns ("optimal", value) or ("infeasible", None).  Works on any
    instance whose variables are all binary.
    """
    n = inst.n_vars
    assert all(v.kind is VarKind.BINARY for v in inst.variables)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        ok = True
        for j, v in enumerate(inst.variables):
            if bits[j] < v.lower - tol or bits[j] > v.upper + tol:
                ok = False
                break
        if not ok:
            continue
        for row in inst.rows:
            act = sum(c * bits[j] for j, c in row.coefficients)
            lo, hi = row.interval()
            if act < lo - tol or act > hi + tol:
                ok = False
                break
        if not ok:
            continue
        val = inst.objective_value(bits)
        if best is None:
            best = val
        elif inst.sense is Sense.MINIMIZE:
            best = min(best, val)
        else:
            best = max(best, val)
    return ("optimal", best) if best is not None else ("infeasible", None)


def enumerate_box_integer_optimum(inst: Instance, tol: float = 1e-9):
    """Brute force over finite integer boxes (all variables integral)."""
    ranges = []
    for v in inst.variables:
        assert v.is_integral and math.isfinite(v.lower) and math.isfinite(v.upper)
        ranges.append(range(int(math.ceil(v.lower)), int(math.floor(v.upper)) + 1))
    best = None
    for point in itertools.product(*ranges):
        ok = True
        for row in inst.rows:
            act = sum(c * point[j] for j, c in row.coefficients)
            lo, hi = row.interval()
            if act < lo - tol or act > hi + tol:
                ok = False
                break
        if not ok:
            continue
        val = inst.objective_value(point)
        if best is None:
            best = val
        elif inst.sense is Sense.MINIMIZE:
            best = min(best, val)
        else:
            best = max(best, val)
    return ("optimal", best) if best is not None else ("infeasible", None)


def random_binary_instance(rng: np.random.Generator, max_vars: int = 10, max_rows: int = 6) -> Instance:
    """Random all-binary instance with integral data and mixed feasibility."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    anchor = rng.integers(0, 2, size=n)  # many rows are anchored near a real point
    rows = []
    for i in range(m):
        k = int(rng.integers(1, n + 1))
        support = rng.choice(n, size=k, replace=False)
        coeffs = []
        for j in sorted(support):
            c = int(rng.integers(-5, 6))
            if c == 0:
                c = 1
            coeffs.append((int(j), float(c)))
        act = sum(c * anchor[j] for j, c in coeffs)
        relation = (Relation.LE, Relation.GE, Relation.EQ)[int(rng.integers(0, 3))]
        slack = int(rng.integers(-2, 4))
        if relation is Relation.EQ and rng.random() < 0.5:
            rhs = float(act)  # satisfiable equality
        else:
            rhs = float(act + slack)
        rows.append(make_row(f"r{i}", coeffs, relation, rhs))
    objective = [(j, float(int(rng.integers(-10, 11)))) for j in range(n)]
    sense = Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE
    return binary_instance(f"rand{rng.integers(0, 10 ** 9)}", n, rows, objective, sense=sense)


def random_lp_instance(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 5) -> Instance:
    """Random continuous LP with finite-ish bounds for simplex cross-checks."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    variables = []
    for j in range(n):
        lo = float(rng.integers(-5, 1))
        hi = lo + float(rng.integers(0, 11))
        if rng.random() < 0.15:
            hi = INF
        if rng.random() < 0.1:
            lo = -INF
        variables.append(Variable(f"x{j}", lo, hi, VarKind.CONTINUOUS))
    rows = []
    for i in range(m):
        k = int(rng.integers(1, n + 1))
        support = sorted(int(j) for j in rng.choice(n, size=k, replace=False))
        coeffs = [(j, float(int(rng.integers(-4, 5)) or 1)) for j in support]
        relation = (Relation.LE, Relation.GE, Relation.EQ)[int(rng.integers(0, 3))]
        rhs = float(int(rng.integers(-10, 11)))
        rows.append(make_row(f"r{i}", coeffs, relation, rhs))
    objective = [(j, float(int(rng.integers(-6, 7)))) for j in range(n)]
    return Instance(
        name="lp",
        sense=Sense.MINIMIZE,
        variables=tuple(variables),
        rows=tuple(rows),
        objective=tuple(objective),
    )


def random_mixed_instance(rng: np.random.Generator) -> Instance:
    """Small mixed-integer instance (binaries plus continuous) for round trips."""
    n = int(rng.integers(1, 7))
    variables = []
    for j in range(n):
        roll = rng.random()
        if roll < 0.4:
            variables.append(Variable(f"v{j}", 0.0, 1.0, VarKind.BINARY))
        elif roll < 0.7:
            lo = float(rng.integers(-3, 2))
            variables.append(Variable(f"v{j}", lo, lo + float(rng.integers(1, 8)), VarKind.INTEGER))
        else:
            lo = float(rng.integers(-5, 1))
            hi = lo + float(rng.integers(1, 10))
            if rng.random() < 0.2:
                hi = INF
            variables.append(Variable(f"v{j}", lo, hi, VarKind.CONTINUOUS))
    m = int(rng.integers(0, 5))
    rows = []
    for i in range(m):
        k = int(rng.integers(1, n + 1))
        support = sorted(int(j) for j in rng.choice(n, size=k, replace=False))
        coeffs = [(j, float(int(rng.integers(-5, 6)) or 2)) for j in support]
        relation = (Relation.LE, Relation.GE, Relation.EQ, Relation.RANGE)[int(rng.integers(0, 4))]
        rhs = float(int(rng.integers(-8, 9)))
        width = float(int(rng.integers(0, 5))) if relation is Relation.RANGE else None
        rows.append(make_row(f"c{i}", coeffs, relation, rhs, width))
    objective = [
        (j, float(c))
        for j in range(n)
        if (c := int(rng.integers(-9, 10))) != 0 and rng.random() < 0.8
    ]
    sense = Sense.MINIMIZE if rng.random() < 0.5 else Sense.MAXIMIZE
    constant = float(int(rng.integers(-4, 5)))
    return Instance(
        name=f"mix{rng.integers(0, 10 ** 6)}",
        sense=sense,
        variables=tuple(variables),
        rows=tuple(rows),
        objective=tuple(objective),
        objective_constant=constant,
    )
