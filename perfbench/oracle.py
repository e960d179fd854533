"""Reference answers that share no code with the solver under test.

A closed form wins where the generator knows one, small all-binary models are
enumerated exhaustively, and everything else goes to HiGHS through
``scipy.optimize.milp`` with a zero gap.  scipy is imported only here, after
the measured passes, so it never shows in the measured memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
from typing import Optional

import numpy as np

from milpbench.instance import Instance, Sense, VarKind

_ENUMERATE_MAX_VARS = 14
_FEAS_TOL = 1e-9


def _dense(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    c = np.zeros(inst.n_vars)
    for j, v in inst.objective:
        c[j] = v
    A = np.zeros((inst.n_rows, inst.n_vars))
    lo = np.empty(inst.n_rows)
    hi = np.empty(inst.n_rows)
    for i, row in enumerate(inst.rows):
        for j, v in row.coefficients:
            A[i, j] = v
        lo[i], hi[i] = row.interval()
    return c, A, lo, hi


def _better(sense: Sense, values: np.ndarray) -> float:
    return float(values.min() if sense is Sense.MINIMIZE else values.max())


def _enumerate(inst: Instance) -> tuple[str, Optional[float]]:
    n = inst.n_vars
    points = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    c, A, lo, hi = _dense(inst)
    act = points @ A.T
    ok = np.all((act >= lo - _FEAS_TOL) & (act <= hi + _FEAS_TOL), axis=1)
    for j, v in enumerate(inst.variables):
        ok &= (points[:, j] >= v.lower) & (points[:, j] <= v.upper)
    if not ok.any():
        return "infeasible", None
    return "optimal", _better(inst.sense, points[ok] @ c) + inst.objective_constant


@contextlib.contextmanager
def _native_stdout_silenced():
    """HiGHS prints debug lines from C; keep them off the result stream."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def _highs(inst: Instance) -> tuple[str, Optional[float]]:
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, A, lo, hi = _dense(inst)
    sign = 1.0 if inst.sense is Sense.MINIMIZE else -1.0
    bounds = Bounds([v.lower for v in inst.variables], [v.upper for v in inst.variables])
    integrality = np.array([0 if v.kind is VarKind.CONTINUOUS else 1 for v in inst.variables])
    constraints = [LinearConstraint(A, lo, hi)] if inst.n_rows else []
    for presolve in (True, False):  # HiGHS's presolve sometimes ends in a solve error
        with _native_stdout_silenced():
            res = milp(sign * c, constraints=constraints, integrality=integrality, bounds=bounds,
                       options={"mip_rel_gap": 0.0, "presolve": presolve})
        if res.status == 0:
            return "optimal", sign * float(res.fun) + inst.objective_constant
        if res.status == 2:
            return "infeasible", None
    raise RuntimeError(f"{inst.name}: HiGHS ended with status {res.status} ({res.message})")


def reference(inst: Instance, known_optimum: Optional[float] = None) -> tuple[str, Optional[float]]:
    """("optimal", value) or ("infeasible", None) for ``inst`` in its own sense."""
    if known_optimum is not None:
        return "optimal", known_optimum
    if inst.n_vars <= _ENUMERATE_MAX_VARS and all(v.kind is VarKind.BINARY for v in inst.variables):
        return _enumerate(inst)
    return _highs(inst)


def agrees(inst: Instance, claim_status: str, claim_objective: Optional[float],
           ref: tuple[str, Optional[float]]) -> bool:
    """True when a solver claim matches the reference status and optimum.

    HiGHS meets rows to 1e-6, so its optimum may be off by that much per unit
    of objective coefficient: the tolerance is 1e-6 times the larger of the
    optimum and the sum of absolute objective coefficients.
    """
    status, value = ref
    if claim_status != status:
        return False
    if status == "infeasible":
        return True
    scale = max(1.0, abs(value), sum(abs(c) for _, c in inst.objective))
    return claim_objective is not None and abs(claim_objective - value) <= 1e-6 * scale
