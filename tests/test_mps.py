import gzip
import io
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from milpbench import mps
from milpbench.instance import Instance, Relation, Sense, VarKind
from milpbench.mps import MpsParseError, load_instance, parse_mps, write_mps

from _helpers import random_binary_instance, random_lp_instance, random_mixed_instance

TWO_VAR = """\
NAME tiny
ROWS
 N  obj
 L  c1
COLUMNS
    x  obj  1.0  c1  1.0
    y  obj  1.0  c1  1.0
RHS
    RHS  c1  1.0
BOUNDS
 BV BND  x
 BV BND  y
ENDATA
"""


def test_parse_two_binary_knapsack():
    inst = parse_mps(TWO_VAR)
    assert inst.name == "tiny"
    assert inst.sense is Sense.MINIMIZE
    assert [v.name for v in inst.variables] == ["x", "y"]
    assert all(v.kind is VarKind.BINARY for v in inst.variables)
    assert all((v.lower, v.upper) == (0.0, 1.0) for v in inst.variables)
    assert len(inst.rows) == 1
    row = inst.rows[0]
    assert row.relation is Relation.LE
    assert row.rhs == 1.0
    assert row.coefficients == ((0, 1.0), (1, 1.0))
    assert inst.objective == ((0, 1.0), (1, 1.0))


def test_mi_bound_keeps_continuous():
    text = TWO_VAR.replace(" BV BND  x", " MI BND  x")
    inst = parse_mps(text)
    x = inst.variables[0]
    assert x.lower == -math.inf
    assert x.kind is VarKind.CONTINUOUS
    assert inst.variables[1].kind is VarKind.BINARY


def test_undeclared_row_reports_line_number():
    text = TWO_VAR.replace("    y  obj  1.0  c1  1.0", "    y  obj  1.0  ghost  1.0")
    with pytest.raises(MpsParseError) as err:
        parse_mps(text)
    assert "ghost" in str(err.value)
    assert err.value.line_no == 7


def test_duplicate_row_name_rejected():
    text = TWO_VAR.replace(" L  c1", " L  c1\n L  c1")
    with pytest.raises(MpsParseError, match="duplicate row"):
        parse_mps(text)


def test_duplicate_coefficient_rejected():
    text = TWO_VAR.replace("    x  obj  1.0  c1  1.0", "    x  obj  1.0  c1  1.0\n    x  c1  2.0")
    with pytest.raises(MpsParseError, match="duplicate coefficient"):
        parse_mps(text)


def test_missing_endata():
    with pytest.raises(MpsParseError, match="ENDATA"):
        parse_mps(TWO_VAR.replace("ENDATA\n", ""))


def test_bound_codes():
    text = """\
NAME bounds
ROWS
 N  obj
 G  r
COLUMNS
    a  obj  1.0  r  1.0
    b  obj  1.0  r  1.0
    c  obj  1.0  r  1.0
    d  obj  1.0  r  1.0
    e  obj  1.0  r  1.0
    f  obj  1.0  r  1.0
RHS
    RHS  r  1.0
BOUNDS
 UP BND  a  4.0
 LO BND  a  -2.0
 FX BND  b  3.0
 FR BND  c
 UI BND  d  9
 LI BND  e  2
 PL BND  f
ENDATA
"""
    inst = parse_mps(text)
    by = {v.name: v for v in inst.variables}
    assert (by["a"].lower, by["a"].upper) == (-2.0, 4.0)
    assert (by["b"].lower, by["b"].upper) == (3.0, 3.0)
    assert (by["c"].lower, by["c"].upper) == (-math.inf, math.inf)
    assert by["d"].kind is VarKind.INTEGER and by["d"].upper == 9.0
    assert by["e"].kind is VarKind.INTEGER and by["e"].lower == 2.0
    assert by["f"].upper == math.inf


def test_integer_marker_defaults():
    text = """\
NAME ints
ROWS
 N  obj
 L  r
COLUMNS
    M0  'MARKER'  'INTORG'
    k  obj  1.0  r  1.0
    M1  'MARKER'  'INTEND'
    z  obj  1.0  r  1.0
RHS
    RHS  r  5.0
ENDATA
"""
    inst = parse_mps(text)
    k, z = inst.variables
    assert k.kind is VarKind.INTEGER
    assert (k.lower, k.upper) == (0.0, math.inf)  # marker integers default to [0, inf)
    assert z.kind is VarKind.CONTINUOUS


def test_objsense_and_objective_constant():
    text = """\
NAME maxi
OBJSENSE
    MAX
ROWS
 N  cost
 L  r
COLUMNS
    x  cost  2.0  r  1.0
RHS
    RHS  r  4.0  cost  7.0
ENDATA
"""
    inst = parse_mps(text)
    assert inst.sense is Sense.MAXIMIZE
    assert inst.objective_constant == -7.0  # objective-row rhs is stored negated


@pytest.mark.parametrize(
    "rtype,rng,expected_lo,expected_hi",
    [
        ("L", 4.0, 6.0, 10.0),   # [rhs-|r|, rhs]
        ("G", 4.0, 10.0, 14.0),  # [rhs, rhs+|r|]
        ("E", 4.0, 10.0, 14.0),  # r>0: [rhs, rhs+r]
        ("E", -4.0, 6.0, 10.0),  # r<0: [rhs+r, rhs]
    ],
)
def test_ranges_semantics(rtype, rng, expected_lo, expected_hi):
    text = f"""\
NAME ranged
ROWS
 N  obj
 {rtype}  r
COLUMNS
    x  obj  1.0  r  1.0
RHS
    RHS  r  10.0
RANGES
    RNG  r  {rng}
ENDATA
"""
    inst = parse_mps(text)
    row = inst.rows[0]
    assert row.relation is Relation.RANGE
    assert row.interval() == (expected_lo, expected_hi)


def test_bv_with_explicit_bounds_keeps_tighter_intersection():
    text = TWO_VAR.replace(" BV BND  y", " BV BND  y\n UP BND  y  0.0")
    inst = parse_mps(text)
    y = inst.variables[1]
    assert y.kind is VarKind.BINARY
    assert (y.lower, y.upper) == (0.0, 0.0)


def test_parse_is_deterministic():
    a = parse_mps(TWO_VAR)
    b = parse_mps(TWO_VAR)
    assert a == b


def test_round_trip_random_instances():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        inst = random_mixed_instance(rng)
        again = parse_mps(write_mps(inst))
        assert again == inst


def test_gzip_load(tmp_path):
    path = tmp_path / "tiny.mps.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(TWO_VAR)
    inst = load_instance(path)
    assert inst.name == "tiny"
    assert inst.n_vars == 2


# The oracle below is parse_mps's line loop as it was before the loop split
# each line once and kept the current column across COLUMNS records.  The
# helpers it calls are the parser's own: only the loop changed.


def _oracle_parse_mps(source, name_hint=""):
    if isinstance(source, str):
        source = io.StringIO(source)

    name = name_hint
    sense = Sense.MINIMIZE
    objective_name = ""
    objective_constant = 0.0
    free_rows = set()
    row_relation, row_order, row_coeffs, row_rhs, row_range = {}, [], {}, {}, {}
    columns, col_index, col_order, obj_coeffs = {}, {}, [], {}
    section = None
    pending_objsense = False
    in_integer_block = False
    saw_endata = False
    line_no = 0

    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n\r")
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        is_header = not line[0].isspace()
        tokens = line.split()
        if is_header and tokens[0].upper() in mps._SECTIONS:
            head = tokens[0].upper()
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
                    sense = mps._read_sense(tokens[1], line_no)
                    section = None
                else:
                    pending_objsense = True
                    section = None
            else:
                section = head
            continue
        if is_header:
            raise MpsParseError(f"unknown section {tokens[0]!r}", line_no)
        if pending_objsense:
            sense = mps._read_sense(tokens[0], line_no)
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
                    free_rows.add(rname)
            elif rtype in ("L", "G", "E"):
                row_relation[rname] = {"L": Relation.LE, "G": Relation.GE, "E": Relation.EQ}[rtype]
                row_order.append(rname)
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
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise MpsParseError("COLUMNS record needs a name plus row/value pairs", line_no)
            cname = tokens[0]
            if cname not in columns:
                columns[cname] = mps._ColumnState(cname, in_integer_block)
                col_index[cname] = len(col_order)
                col_order.append(cname)
            j = col_index[cname]
            for k in range(1, len(tokens), 2):
                rname, val = tokens[k], mps._parse_float(tokens[k + 1], line_no)
                if rname == objective_name:
                    if j in obj_coeffs:
                        raise MpsParseError(f"duplicate objective coefficient for column {cname!r}", line_no)
                    if val != 0.0:
                        obj_coeffs[j] = val
                elif rname in row_coeffs:
                    if j in row_coeffs[rname]:
                        raise MpsParseError(
                            f"duplicate coefficient for column {cname!r} in row {rname!r}", line_no
                        )
                    row_coeffs[rname][j] = val
                elif rname in free_rows:
                    pass
                else:
                    raise MpsParseError(f"undeclared row {rname!r}", line_no)
        elif section == "RHS":
            for rname, val in mps._pair_records(tokens, row_coeffs, objective_name, free_rows, line_no):
                if rname == objective_name:
                    objective_constant = -val
                elif rname not in free_rows:
                    row_rhs[rname] = val
        elif section == "RANGES":
            for rname, val in mps._pair_records(tokens, row_coeffs, objective_name, free_rows, line_no):
                if rname == objective_name or rname in free_rows:
                    raise MpsParseError(f"range on non-constraint row {rname!r}", line_no)
                row_range[rname] = val
        elif section == "BOUNDS":
            mps._apply_bound(tokens, columns, line_no)
        elif section is None:
            raise MpsParseError(f"data record outside any section: {line.strip()!r}", line_no)
        else:
            raise MpsParseError(f"unsupported section {section!r}", line_no)

    if not saw_endata:
        raise MpsParseError("missing ENDATA", line_no + 1)
    return Instance(
        name=name,
        sense=sense,
        variables=tuple(mps._finalize_variable(columns[c]) for c in col_order),
        rows=tuple(
            mps._finalize_row(r, row_relation[r], row_coeffs[r], row_rhs.get(r, 0.0), row_range.get(r))
            for r in row_order
        ),
        objective=tuple(sorted(obj_coeffs.items())),
        objective_constant=objective_constant,
        objective_name=objective_name or "obj",
    )


def _oracle_load_instance(path):
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rt") as handle:
        return _oracle_parse_mps(handle, name_hint=mps.instance_stem(path))


def _outcome(parse, *args):
    """What a parser makes of its input: the instance's repr (which tells
    -0.0 from 0.0), or the error's message and line number."""
    try:
        return ("instance", repr(parse(*args)))
    except MpsParseError as exc:
        return ("error", str(exc), exc.line_no)


def _columns_span(lines):
    start = lines.index("COLUMNS") + 1
    end = next(k for k in range(start, len(lines)) if not lines[k][0].isspace())
    return start, end


def _split_column(lines, rnd):
    """Move a column's first record after the next column's records."""
    start, end = _columns_span(lines)
    names = [line.split()[0] for line in lines[start:end]]
    firsts = [k for k in range(len(names)) if k == 0 or names[k] != names[k - 1]]
    if len(firsts) < 2:
        return lines
    pick = rnd.randrange(len(firsts) - 1)
    a, b = firsts[pick], firsts[pick + 1]
    after = next((k for k in range(b, len(names)) if names[k] != names[b]), len(names))
    body = lines[start:end]
    moved = body[:a] + body[a + 1:after] + [body[a]] + body[after:]
    return lines[:start] + moved + lines[end:]


def _merge_records(lines, rnd):
    """Join runs of a column's records into 5- and 7-token records."""
    start, end = _columns_span(lines)
    body, out, k = lines[start:end], [], 0
    while k < len(body):
        tokens = body[k].split()
        width = rnd.choice((2, 3))
        while "'MARKER'" not in tokens and width > 1 and k + 1 < len(body):
            nxt = body[k + 1].split()
            if nxt[0] != tokens[0] or "'MARKER'" in nxt:
                break
            tokens += nxt[1:]
            k += 1
            width -= 1
        out.append("    " + "  ".join(tokens))
        k += 1
    return lines[:start] + out + lines[end:]


def _mutants(text, rnd):
    """(label, text) pairs: the text itself and variants each parser must agree on."""
    lines = text.splitlines()
    yield "as written", text
    yield "crlf", text.replace("\n", "\r\n")
    at = rnd.randrange(len(text) - 1)
    yield "bare cr", text[:at] + "\r" + text[at:]
    seps = ("\t", "\f", " \t ", "\f\t", "\x0b")
    yield "tabs and form feeds", "\n".join(
        re.sub(" +", lambda _: rnd.choice(seps), line) if rnd.random() < 0.6 else line for line in lines
    ) + "\n"
    noisy = list(lines)
    for _ in range(3):
        noisy.insert(rnd.randrange(len(noisy) + 1), rnd.choice(("* note", "   * note", "*", "", "   ", "\t")))
    yield "comments and blanks", "\n".join(noisy) + "\n"
    yield "text after ENDATA", text + "junk 1 2\n ghost  line\n"
    yield "no ENDATA", text.replace("ENDATA\n", "")
    yield "no ENDATA, no final newline", text.replace("ENDATA\n", "").rstrip("\n")
    yield "column split", "\n".join(_split_column(lines, rnd)) + "\n"
    yield "5- and 7-token records", "\n".join(_merge_records(lines, rnd)) + "\n"
    at = rnd.randrange(len(lines))
    tokens = lines[at].split()
    del tokens[rnd.randrange(len(tokens))]
    yield "dropped token", "\n".join(lines[:at] + ["    " + "  ".join(tokens)] + lines[at + 1:]) + "\n"
    numeric = [k for k, line in enumerate(lines) if re.search(r"\s-?\d", line)]
    at = rnd.choice(numeric) if numeric else 0
    garbled = re.sub(r"(\s)(-?\d[^\s]*)", lambda m: m.group(1) + rnd.choice(("1.0x", "--1", "e5", "0x10", "1,5")),
                     lines[at], count=1)
    yield "garbled number", "\n".join(lines[:at] + [garbled] + lines[at + 1:]) + "\n"
    at = rnd.randrange(len(lines))
    yield "duplicated line", "\n".join(lines[:at + 1] + lines[at:]) + "\n"


def test_parser_agrees_with_the_oracle_on_instances_and_mutants():
    rng = np.random.default_rng(20261019)
    rnd = random.Random(20261019)
    builders = (random_mixed_instance, random_binary_instance, random_lp_instance)
    texts = [TWO_VAR] + [write_mps(builders[k % 3](rng)) for k in range(300)]
    kinds = set()
    for text in texts:
        for label, mutant in _mutants(text, rnd):
            expected = _outcome(_oracle_parse_mps, mutant, "hint")
            assert _outcome(parse_mps, mutant, "hint") == expected, (label, mutant)
            kinds.add((label, expected[0]))
    # the mutants reach both outcomes: most parse, and each kind of damage is caught somewhere
    assert {label for label, outcome in kinds if outcome == "error"} >= {
        "no ENDATA", "no ENDATA, no final newline", "dropped token", "garbled number", "bare cr"
    }
    assert {label for label, outcome in kinds if outcome == "instance"} >= {
        "as written", "crlf", "tabs and form feeds", "comments and blanks", "text after ENDATA",
        "column split", "5- and 7-token records",
    }


@pytest.mark.parametrize("suffix", [".mps.gz", ".mps"])
def test_loader_agrees_with_the_oracle_on_crlf_files(tmp_path, suffix):
    rng = np.random.default_rng(7)
    for k in range(20):
        text = write_mps(random_mixed_instance(rng)).replace("\n", "\r\n")
        if k % 4 == 3:
            text = text.replace("\r\n", "\r")  # bare CRs end lines in a file opened as text
        path = tmp_path / f"m{k}{suffix}"
        data = text.encode()
        path.write_bytes(gzip.compress(data) if suffix == ".mps.gz" else data)
        expected = _outcome(_oracle_load_instance, path)
        assert expected[0] == "instance"
        assert _outcome(load_instance, path) == expected
