"""In-memory MILP model and feature extraction.

An :class:`Instance` is an immutable container: a linear objective with a
sense, variables with bounds and integrality kinds, and linear rows.  Rows
keep sparse coefficient lists sorted by variable index so that structurally
equal models compare equal regardless of construction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

INF = math.inf


class Sense(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class VarKind(Enum):
    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="
    RANGE = "range"


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float = 0.0
    upper: float = INF
    kind: VarKind = VarKind.CONTINUOUS

    @property
    def is_integral(self) -> bool:
        return self.kind is not VarKind.CONTINUOUS


@dataclass(frozen=True)
class LinearRow:
    """One linear constraint.

    ``coefficients`` is a tuple of (variable index, value) pairs sorted by
    index with no duplicates.  For RANGE rows the feasible interval is
    ``[rhs - range_width, rhs]``; for the other relations ``range_width`` is
    None.
    """

    name: str
    coefficients: tuple[tuple[int, float], ...]
    relation: Relation
    rhs: float
    range_width: Optional[float] = None

    def interval(self) -> tuple[float, float]:
        """Feasible interval (lo, hi) for the row activity."""
        if self.relation is Relation.LE:
            return (-INF, self.rhs)
        if self.relation is Relation.GE:
            return (self.rhs, INF)
        if self.relation is Relation.EQ:
            return (self.rhs, self.rhs)
        return (self.rhs - (self.range_width or 0.0), self.rhs)


@dataclass(frozen=True)
class Instance:
    """Immutable MILP model; safe to share across threads."""

    name: str
    sense: Sense
    variables: tuple[Variable, ...]
    rows: tuple[LinearRow, ...]
    objective: tuple[tuple[int, float], ...] = ()
    objective_constant: float = 0.0
    objective_name: str = "obj"

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def objective_value(self, values: Iterable[float]) -> float:
        x = list(values)
        return sum(c * x[j] for j, c in self.objective) + self.objective_constant


@dataclass(frozen=True)
class FeatureVector:
    """Instance characteristics consumed by the configuration adapter."""

    n_vars: int
    n_int_vars: int
    n_bin_vars: int
    n_cont_vars: int
    n_rows: int
    n_nonzeros: int
    n_eq_rows: int
    n_ineq_rows: int
    density: float
    max_abs_coeff: float
    min_abs_nonzero_coeff: float


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def make_row(
    name: str,
    coefficients: Iterable[tuple[int, float]],
    relation: Relation,
    rhs: float,
    range_width: Optional[float] = None,
) -> LinearRow:
    """Build a row with its coefficients sorted by variable index.

    Duplicate indices are kept; :func:`validate_instance` reports them."""
    coeffs = tuple(sorted(coefficients, key=lambda t: t[0]))
    return LinearRow(name, coeffs, relation, rhs, range_width)


def validate_instance(inst: Instance) -> list[Diagnostic]:
    """Check instance invariants; returns diagnostics, empty means valid.

    Pure query: reports crossed bounds, empty rows, duplicate coefficients,
    out-of-range variable references, duplicate names, and binary variables
    whose bounds escape [0, 1].
    """
    out: list[Diagnostic] = []
    seen_vars: set[str] = set()
    for j, v in enumerate(inst.variables):
        if v.name in seen_vars:
            out.append(Diagnostic("duplicate-variable", f"variable name {v.name!r} repeats"))
        seen_vars.add(v.name)
        if v.lower > v.upper:
            out.append(
                Diagnostic(
                    "crossed-bounds",
                    f"variable {v.name!r} has lower {v.lower} > upper {v.upper}",
                )
            )
        if v.kind is VarKind.BINARY and (v.lower < 0 or v.upper > 1):
            out.append(
                Diagnostic(
                    "binary-bounds",
                    f"binary variable {v.name!r} has bounds outside [0, 1]",
                )
            )
    seen_rows: set[str] = set()
    for row in inst.rows:
        if row.name in seen_rows:
            out.append(Diagnostic("duplicate-row", f"row name {row.name!r} repeats"))
        seen_rows.add(row.name)
        if not row.coefficients:
            out.append(Diagnostic("empty-row", f"row {row.name!r} has no coefficients"))
        indices = [j for j, _ in row.coefficients]
        if len(set(indices)) != len(indices):
            out.append(
                Diagnostic("duplicate-coefficient", f"row {row.name!r} repeats a variable")
            )
        for j in indices:
            if not 0 <= j < inst.n_vars:
                out.append(
                    Diagnostic(
                        "bad-reference",
                        f"row {row.name!r} references variable index {j}",
                    )
                )
        if row.relation is Relation.RANGE:
            if row.range_width is None or not math.isfinite(row.range_width) or row.range_width < 0:
                out.append(
                    Diagnostic("bad-range", f"range row {row.name!r} needs a finite nonnegative width")
                )
    for j, c in inst.objective:
        if not 0 <= j < inst.n_vars:
            out.append(Diagnostic("bad-reference", f"objective references variable index {j}"))
    return out


def extract_features(inst: Instance) -> FeatureVector:
    """Deterministic structural counts used for configuration matching."""
    n_bin = sum(1 for v in inst.variables if v.kind is VarKind.BINARY)
    n_int = sum(1 for v in inst.variables if v.kind is VarKind.INTEGER)
    n_cont = inst.n_vars - n_bin - n_int
    n_eq = sum(1 for r in inst.rows if r.relation is Relation.EQ)
    n_nonzeros = sum(len(r.coefficients) for r in inst.rows)
    cells = inst.n_vars * inst.n_rows
    density = n_nonzeros / cells if cells > 0 else 0.0
    mags = [abs(c) for r in inst.rows for _, c in r.coefficients]
    nonzero_mags = [m for m in mags if m > 0.0]
    return FeatureVector(
        n_vars=inst.n_vars,
        n_int_vars=n_int,
        n_bin_vars=n_bin,
        n_cont_vars=n_cont,
        n_rows=inst.n_rows,
        n_nonzeros=n_nonzeros,
        n_eq_rows=n_eq,
        n_ineq_rows=inst.n_rows - n_eq,
        density=density,
        max_abs_coeff=max(mags) if mags else 0.0,
        min_abs_nonzero_coeff=min(nonzero_mags) if nonzero_mags else 0.0,
    )
