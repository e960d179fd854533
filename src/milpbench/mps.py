"""Free-format MPS reader and writer.

The dialect is whitespace-delimited: section headers start in column one,
data records are indented.  Supported sections are NAME, OBJSENSE, ROWS,
COLUMNS (with INTORG/INTEND markers), RHS, RANGES, BOUNDS and ENDATA; bound
codes UP/LO/FX/BV/MI/PL/FR/UI/LI are honored.  RANGES follow the de-facto
standard (see docs/formats.md for the exact interval table).  An RHS entry
on the objective row is stored as the negated objective constant.
"""

from __future__ import annotations

import gzip
import io
import math
import zlib
from pathlib import Path
from typing import Iterable, TextIO, Union

from .instance import INF, Instance, LinearRow, Relation, Sense, Variable, VarKind

_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
# each bound code and whether its record takes a value
_BOUND_CODES = {"UP": True, "LO": True, "FX": True, "UI": True, "LI": True,
                "FR": False, "MI": False, "PL": False, "BV": False}


class MpsParseError(ValueError):
    """Syntax or consistency error in an MPS stream, with a 1-based line number (0: the whole file)."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _ColumnState:
    __slots__ = ("name", "lower", "upper", "kind")

    def __init__(self, name: str, integral: bool):
        self.name = name
        self.lower = 0.0
        self.upper = INF
        self.kind = VarKind.INTEGER if integral else VarKind.CONTINUOUS


def _parse_float(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MpsParseError(f"expected a number, got {token!r}", line_no) from None
    if value != value:
        raise MpsParseError(f"NaN is not a value: {token!r}", line_no)
    return value


def parse_mps(source: Union[str, TextIO], name_hint: str = "") -> Instance:
    """Parse free-format MPS text into a normalized :class:`Instance`.

    Raises :class:`MpsParseError` on syntax errors, NaN values, infinite
    coefficients in COLUMNS, duplicate row/column names, references to
    undeclared rows, or a missing ENDATA terminator.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    name = name_hint
    sense = Sense.MINIMIZE
    objective_name = ""
    objective_constant = 0.0
    free_rows: set[str] = set()

    row_relation: dict[str, Relation] = {}  # constraint rows in ROWS order
    row_coeffs: dict[str, dict[int, float]] = {}
    row_rhs: dict[str, float] = {}
    row_range: dict[str, float] = {}

    columns: dict[str, _ColumnState] = {}  # in order of first appearance
    col_index: dict[str, int] = {}
    obj_coeffs: dict[int, float] = {}
    cname, j = None, -1  # the column of the last COLUMNS record and its index

    section = None
    pending_objsense = False
    in_integer_block = False
    saw_endata = False
    line_no = 0

    for line_no, raw in enumerate(source, start=1):
        tokens = raw.split()  # the one split of a line answers the blank, comment and header tests
        if not tokens or tokens[0][0] == "*":
            continue

        if not raw[0].isspace():
            head = tokens[0].upper()
            if head not in _SECTIONS:
                raise MpsParseError(f"unknown section {tokens[0]!r}", line_no)
            pending_objsense = False
            if head == "ENDATA":
                saw_endata = True
                break
            if head == "NAME":
                if len(tokens) > 1:
                    name = tokens[1]
                section = None
            elif head == "OBJSENSE":
                if len(tokens) > 1:
                    sense = _read_sense(tokens[1], line_no)
                else:
                    pending_objsense = True
                section = None
            else:
                section = head
            continue

        if pending_objsense:
            sense = _read_sense(tokens[0], line_no)
            pending_objsense = False
            continue

        if section == "ROWS":
            if len(tokens) != 2:
                raise MpsParseError("ROWS record needs a type and a name", line_no)
            rtype, rname = tokens[0].upper(), tokens[1]
            if rname in row_relation or rname in free_rows or (rname == objective_name and objective_name):
                raise MpsParseError(f"duplicate row name {rname!r}", line_no)
            if rtype == "N":
                if not objective_name:
                    objective_name = rname
                else:
                    free_rows.add(rname)  # extra free rows carry no constraint
            elif rtype in ("L", "G", "E"):
                row_relation[rname] = {"L": Relation.LE, "G": Relation.GE, "E": Relation.EQ}[rtype]
                row_coeffs[rname] = {}
            else:
                raise MpsParseError(f"unknown row type {rtype!r}", line_no)

        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                joined = " ".join(tokens).upper()
                if "INTORG" in joined:
                    in_integer_block = True
                elif "INTEND" in joined:
                    in_integer_block = False
                else:
                    raise MpsParseError("marker record without INTORG/INTEND", line_no)
                continue
            n = len(tokens)
            if n < 3 or n % 2 == 0:
                raise MpsParseError("COLUMNS record needs a name plus row/value pairs", line_no)
            if tokens[0] != cname:
                cname = tokens[0]
                if cname not in columns:
                    columns[cname] = _ColumnState(cname, in_integer_block)
                    col_index[cname] = len(col_index)
                j = col_index[cname]
            for k in range(1, n, 2):
                rname = tokens[k]
                try:
                    val = float(tokens[k + 1])
                except ValueError:
                    val = math.nan
                if val - val != 0.0:  # not a number or NaN (_parse_float says which), or infinite
                    _parse_float(tokens[k + 1], line_no)
                    if rname not in free_rows:  # a free row's coefficients are discarded
                        raise MpsParseError(f"infinite coefficient {tokens[k + 1]!r} in row {rname!r}", line_no)
                coeffs = row_coeffs.get(rname)
                if coeffs is not None:  # ROWS keeps constraint names apart from the objective's
                    if j in coeffs:
                        raise MpsParseError(
                            f"duplicate coefficient for column {cname!r} in row {rname!r}",
                            line_no,
                        )
                    coeffs[j] = val
                elif rname == objective_name:
                    if j in obj_coeffs:
                        raise MpsParseError(
                            f"duplicate objective coefficient for column {cname!r}", line_no
                        )
                    if val != 0.0:  # zero entries only declare the column
                        obj_coeffs[j] = val
                elif rname in free_rows:
                    pass  # coefficients on extra free rows are discarded
                else:
                    raise MpsParseError(f"undeclared row {rname!r}", line_no)

        elif section == "RHS":
            for rname, val in _pair_records(tokens, row_coeffs, objective_name, free_rows, line_no):
                if rname == objective_name:
                    objective_constant = -val
                elif rname not in free_rows:
                    row_rhs[rname] = val

        elif section == "RANGES":
            for rname, val in _pair_records(tokens, row_coeffs, objective_name, free_rows, line_no):
                if rname == objective_name or rname in free_rows:
                    raise MpsParseError(f"range on non-constraint row {rname!r}", line_no)
                row_range[rname] = val

        elif section == "BOUNDS":
            _apply_bound(tokens, columns, line_no)

        elif section is None:
            raise MpsParseError(f"data record outside any section: {raw.strip()!r}", line_no)
        else:
            raise MpsParseError(f"unsupported section {section!r}", line_no)

    if not saw_endata:
        raise MpsParseError("missing ENDATA", line_no + 1)

    variables = tuple(_finalize_variable(col) for col in columns.values())
    rows = tuple(
        _finalize_row(rname, relation, row_coeffs[rname], row_rhs.get(rname, 0.0), row_range.get(rname))
        for rname, relation in row_relation.items()
    )
    return Instance(
        name=name,
        sense=sense,
        variables=variables,
        rows=rows,
        objective=tuple(sorted(obj_coeffs.items())),
        objective_constant=objective_constant,
        objective_name=objective_name or "obj",
    )


def _read_sense(token: str, line_no: int) -> Sense:
    t = token.upper()
    if t in ("MAX", "MAXIMIZE"):
        return Sense.MAXIMIZE
    if t in ("MIN", "MINIMIZE"):
        return Sense.MINIMIZE
    raise MpsParseError(f"unknown objective sense {token!r}", line_no)


def _pair_records(
    tokens: list[str],
    row_coeffs: dict[str, dict[int, float]],
    objective_name: str,
    free_rows: set[str],
    line_no: int,
) -> Iterable[tuple[str, float]]:
    """RHS/RANGES records: optional set name followed by row/value pairs."""
    start = 1 if len(tokens) % 2 == 1 else 0
    out = []
    for k in range(start, len(tokens), 2):
        rname = tokens[k]
        if rname not in row_coeffs and rname != objective_name and rname not in free_rows:
            raise MpsParseError(f"undeclared row {rname!r}", line_no)
        out.append((rname, _parse_float(tokens[k + 1], line_no)))
    return out


def _apply_bound(tokens: list[str], columns: dict[str, _ColumnState], line_no: int) -> None:
    code = tokens[0].upper()
    takes_value = _BOUND_CODES.get(code)
    if takes_value is None:
        raise MpsParseError(f"unknown bound code {code!r}", line_no)
    n = len(tokens)  # the bound set's name is optional
    if not takes_value:
        if n not in (2, 3):
            raise MpsParseError(f"bound code {code} takes no value", line_no)
        cname = tokens[-1]
    elif n in (3, 4):
        cname, value = tokens[n - 2], _parse_float(tokens[n - 1], line_no)
    else:
        raise MpsParseError(f"bound code {code} needs a column and a value", line_no)

    col = columns.get(cname)
    if col is None:
        raise MpsParseError(f"bound on undeclared column {cname!r}", line_no)

    if code == "BV":  # the kind only: _finalize_variable meets the bounds with [0, 1]
        col.kind = VarKind.BINARY
        return
    if code in ("LO", "LI", "FX", "MI", "FR"):
        col.lower = value if takes_value else -INF
    if code in ("UP", "UI", "FX", "PL", "FR"):
        col.upper = value if takes_value else INF
    if code in ("UI", "LI") and col.kind is VarKind.CONTINUOUS:
        col.kind = VarKind.INTEGER


def _finalize_variable(col: _ColumnState) -> Variable:
    lower, upper, kind = col.lower, col.upper, col.kind
    if kind is VarKind.BINARY:  # the one place a binary meets [0, 1]: after its last record, rounded inward
        lower = max(0.0, float(math.ceil(lower - 1e-9))) if math.isfinite(lower) else max(lower, 0.0)
        upper = min(1.0, float(math.floor(upper + 1e-9))) if math.isfinite(upper) else min(upper, 1.0)
    return Variable(col.name, lower, upper, kind)


def _finalize_row(
    name: str, relation: Relation, coeffs: dict[int, float], rhs: float, rng: float | None
) -> LinearRow:
    sorted_coeffs = tuple(sorted(coeffs.items()))
    if rng is not None and not (relation is Relation.EQ and rng == 0.0):
        width = abs(rng)
        if relation is Relation.LE:
            return LinearRow(name, sorted_coeffs, Relation.RANGE, rhs, width)
        if relation is Relation.GE:
            return LinearRow(name, sorted_coeffs, Relation.RANGE, rhs + width, width)
        if rng > 0:
            return LinearRow(name, sorted_coeffs, Relation.RANGE, rhs + rng, rng)
        return LinearRow(name, sorted_coeffs, Relation.RANGE, rhs, -rng)
    return LinearRow(name, sorted_coeffs, relation, rhs, None)


def instance_stem(path: Union[str, Path]) -> str:
    """File name without ``.gz`` and then ``.mps``: the name of an instance with no NAME card."""
    name = (path if isinstance(path, Path) else Path(path)).name  # a Path is not built again
    return name.removesuffix(".gz").removesuffix(".mps")


def load_instance(path: Union[str, Path]) -> Instance:
    """Read an instance from an ``.mps`` file; ``.gz`` paths are decompressed.

    Raises ``OSError`` when the file cannot be read and :class:`MpsParseError`
    for anything wrong with what it holds; nothing else.
    """
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    try:
        with opener(path, "rt") as handle:  # type: ignore[arg-type]
            return parse_mps(handle, name_hint=instance_stem(path))
    except (UnicodeDecodeError, EOFError, zlib.error) as exc:  # not text, or a cut or corrupt gzip stream
        raise MpsParseError(f"unreadable content: {type(exc).__name__}: {exc}", 0) from exc


def write_mps(inst: Instance) -> str:
    """Serialize an instance to free-format MPS.

    Floats are written with ``repr`` so a write/parse round trip reproduces
    the instance exactly (coefficients are kept in canonical index order).
    """
    out: list[str] = [f"NAME {inst.name}".rstrip()]
    if inst.sense is Sense.MAXIMIZE:
        out.append("OBJSENSE")
        out.append("    MAX")
    out.append("ROWS")
    out.append(f" N  {inst.objective_name}")
    for row in inst.rows:
        code = {Relation.LE: "L", Relation.GE: "G", Relation.EQ: "E", Relation.RANGE: "L"}[row.relation]
        out.append(f" {code}  {row.name}")

    obj = dict(inst.objective)
    by_col: dict[int, list[tuple[str, float]]] = {}
    for row in inst.rows:
        for j, c in row.coefficients:
            by_col.setdefault(j, []).append((row.name, c))

    out.append("COLUMNS")
    in_int = False
    marker = 0
    for j, v in enumerate(inst.variables):
        if v.is_integral != in_int:
            tag = "INTORG" if v.is_integral else "INTEND"
            out.append(f"    M{marker}  'MARKER'  '{tag}'")
            marker += 1
            in_int = v.is_integral
        entries = []
        if j in obj:
            entries.append((inst.objective_name, obj[j]))
        entries.extend(by_col.get(j, ()))
        if not entries:
            entries.append((inst.objective_name, 0.0))  # declare the column
        for rname, c in entries:
            out.append(f"    {v.name}  {rname}  {c!r}")
    if in_int:
        out.append(f"    M{marker}  'MARKER'  'INTEND'")

    out.append("RHS")
    if inst.objective_constant != 0.0:
        out.append(f"    RHS  {inst.objective_name}  {-inst.objective_constant!r}")
    for row in inst.rows:
        if row.relation is Relation.RANGE or row.rhs != 0.0:
            out.append(f"    RHS  {row.name}  {row.rhs!r}")

    ranged = [r for r in inst.rows if r.relation is Relation.RANGE]
    if ranged:
        out.append("RANGES")
        for row in ranged:
            out.append(f"    RNG  {row.name}  {row.range_width!r}")

    bound_lines: list[str] = []
    for v in inst.variables:
        if v.kind is VarKind.BINARY:
            bound_lines.append(f" BV BND  {v.name}")
            if (v.lower, v.upper) != (0.0, 1.0):
                bound_lines.append(f" FX BND  {v.name}  {v.lower!r}")
            continue
        if v.lower == v.upper:
            bound_lines.append(f" FX BND  {v.name}  {v.lower!r}")
            continue
        if v.lower == -INF and v.upper == INF:
            bound_lines.append(f" FR BND  {v.name}")
            continue
        if v.lower == -INF:
            bound_lines.append(f" MI BND  {v.name}")
        elif v.lower != 0.0:
            bound_lines.append(f" LO BND  {v.name}  {v.lower!r}")
        if v.upper != INF:
            bound_lines.append(f" UP BND  {v.name}  {v.upper!r}")
    if bound_lines:
        out.append("BOUNDS")
        out.extend(bound_lines)

    out.append("ENDATA")
    return "\n".join(out) + "\n"
