"""Dense array form of an instance used by the simplex and the tree search.

Rows are normalized to two-sided activity intervals rlo <= A x <= rup.  A
column repeated in a row or in the objective gets the sum of its entries.
Integer bounds are ceil/floor-normalized here (exactness-preserving and
required for cut validity); the user-facing Instance is never altered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..instance import Instance, Sense


@dataclass
class StandardForm:
    name: str
    c: np.ndarray          # objective coefficients in MINIMIZE orientation
    A: np.ndarray          # (m, n) dense
    rlo: np.ndarray
    rup: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray     # bool mask, binaries included
    var_names: tuple[str, ...]
    obj_constant: float    # constant in MINIMIZE orientation
    flipped: bool          # True when the user sense was MAXIMIZE

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def user_objective(self, internal_value: float) -> float:
        """Map an internal (minimization) objective back to the user sense,
        constant included."""
        value = internal_value + self.obj_constant
        return -value if self.flipped else value


def to_standard_form(inst: Instance) -> StandardForm:
    n = inst.n_vars
    m = inst.n_rows
    c = np.zeros(n)
    for j, v in inst.objective:
        c[j] += v
    A = np.zeros((m, n))
    rlo = np.empty(m)
    rup = np.empty(m)
    for i, (row, A_i) in enumerate(zip(inst.rows, A)):
        rlo[i], rup[i] = row.interval()
        for j, v in row.coefficients:
            A_i[j] += v  # a row of A is a view: one index per entry is cheaper than two
    lb = np.array([v.lower for v in inst.variables], dtype=float)
    ub = np.array([v.upper for v in inst.variables], dtype=float)
    is_int = np.array([v.is_integral for v in inst.variables], dtype=bool)

    # integral variables live on integral bounds
    for j in np.flatnonzero(is_int):
        if math.isfinite(lb[j]):
            lb[j] = math.ceil(lb[j] - 1e-9)
        if math.isfinite(ub[j]):
            ub[j] = math.floor(ub[j] + 1e-9)

    flipped = inst.sense is Sense.MAXIMIZE
    if flipped:
        c = -c
    const = -inst.objective_constant if flipped else inst.objective_constant
    return StandardForm(
        name=inst.name,
        c=c,
        A=A,
        rlo=rlo,
        rup=rup,
        lb=lb,
        ub=ub,
        is_int=is_int,
        var_names=tuple(v.name for v in inst.variables),
        obj_constant=const,
        flipped=flipped,
    )
