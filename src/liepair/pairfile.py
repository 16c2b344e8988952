"""Line-oriented plain-text format for pairs (g, h).

Human-auditable mathematical input: every number is an exact fraction
literal ("-3/2"; a U+2212 minus is accepted), all indices are 1-based.  The
formal grammar lives in docs/pair_format.md; parse errors and validation
failures carry the offending line number.

A `complexify auto` directive keeps the cartan-compact rows on the pair; the
mechanical complexification is built from them and the torus-g rows (the
split Cartan part) on first use, exactly as the catalog does, so
serialization round-trips.

Values become exact data here and nowhere else: each table (structure
constants, matrices, complex structure) is read as ints over one
denominator and each row as an exact vector (`linalg.integer_row`).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import LieAlgebra, ValidationError, validate
from .checks import OUTCOMES, QUESTIONS, Expectation, Pair
from .linalg import frac, integer_row


class ParseError(ValueError):
    """Malformed pair file; message carries the 1-based line number."""


def _err(lineno, msg):
    return ParseError(f"line {lineno}: {msg}")


_ASCII_INTEGER = re.compile(r"-?[0-9]+")


def _parse_fraction(tok, lineno):
    # nearly every token is an integer, which int() parses without the
    # regular expression that Fraction(str) matches
    if _ASCII_INTEGER.fullmatch(tok):
        return Fraction(int(tok))
    try:
        return frac(tok)
    except (ValueError, ZeroDivisionError, TypeError):
        raise _err(lineno, f"bad fraction literal {tok!r}") from None


def _parse_int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise _err(lineno, f"bad integer {tok!r}") from None


def _parse_row(toks, lineno, numbers):
    """The values of a row's tokens.  `numbers` maps every token already
    parsed in this text to its value, so each distinct token is parsed
    once per text."""
    try:
        return [numbers[t] for t in toks]
    except KeyError:
        pass
    for t in toks:
        if t not in numbers:
            numbers[t] = _parse_fraction(t, lineno)
    return [numbers[t] for t in toks]


class _AlgebraBlock:
    def __init__(self):
        self.name = "g"
        self.dim = None
        self.labels = None
        self.constants = {}  # (i, j) -> (line number, {k: c})
        self.matsize = None
        self.matrices = {}  # k -> (line number, entries)
        self.complex_rows = {}  # k -> (line number, entries)
        self.cartan_compact = []  # (line number, entries)


def parse_pair_text(text: str, origin="<string>") -> Pair:
    """Parse and validate a pair file; raises ParseError or ValidationError
    with line-anchored diagnostics."""
    lines = text.splitlines()
    name = ""
    provenance = origin
    notes = []
    expectations = []
    complexify_auto = False
    torus_h_maximal = True
    alg_block = None
    h_rows = []
    torus_rows = {"h": [], "g": []}
    # None at top level; inside `begin algebra` the _AlgebraBlock being
    # filled, inside a subalgebra or torus block the list of its rows
    block = None
    numbers = {}  # token -> Fraction, see _parse_row
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if block is not None and line == "end":
            block = None
            continue
        toks = line.split()
        head = toks[0]
        if isinstance(block, list):
            if head != "row" or len(toks) < 2 or toks[1] != "=":
                raise _err(lineno, "expected 'row = v1 v2 ...'")
            block.append(_parse_row(toks[2:], lineno, numbers))
        elif block is not None:
            _parse_algebra_line(block, toks, line, lineno, numbers)
        elif head == "pair":
            name = line[len("pair"):].strip()
        elif head == "provenance":
            provenance = line[len("provenance"):].strip()
        elif head == "note":
            notes.append(line[len("note"):].strip())
        elif head == "torus-h-maximality":
            if len(toks) != 2 or toks[1] not in ("asserted", "unasserted"):
                raise _err(lineno, "expected 'asserted' or 'unasserted'")
            torus_h_maximal = toks[1] == "asserted"
        elif head == "complexify":
            if len(toks) != 2 or toks[1] != "auto":
                raise _err(lineno, "only 'complexify auto' is supported")
            complexify_auto = True
        elif head == "expect":
            expectations.append(_parse_expect(line, lineno))
        elif toks[:2] == ["begin", "algebra"]:
            block = alg_block = _AlgebraBlock()
        elif toks[:2] == ["begin", "subalgebra"]:
            block = h_rows = []
        elif toks[:2] == ["begin", "torus"]:
            if len(toks) != 3 or toks[2] not in ("h", "g"):
                raise _err(lineno, "expected 'begin torus h' or 'begin torus g'")
            block = torus_rows[toks[2]] = []
        elif head == "begin":
            raise _err(lineno, f"unknown block header {' '.join(toks)!r}")
        else:
            raise _err(lineno, f"unknown directive {head!r}")
    if block is not None:
        raise _err(len(lines), "unterminated block (missing 'end')")
    if alg_block is None:
        raise ParseError("no algebra block found")
    g = _build_algebra(alg_block)
    rep = validate(g)
    if not rep.ok:
        raise ValidationError(f"algebra invalid: {rep.first_problem}")
    J = None
    if alg_block.complex_rows:
        J = _exact_matrix(
            _rows_dict_to_matrix(alg_block.complex_rows, g.dim, "complex"))
        _check_complex_structure(g, J)
    compact = None
    if complexify_auto:
        for lineno, row in alg_block.cartan_compact:
            if len(row) != g.dim:
                raise _err(lineno, f"cartan-compact row has length {len(row)}"
                           f", algebra dim {g.dim}")
        compact = tuple(integer_row(row) for _, row in alg_block.cartan_compact)
    return Pair.create(g, [integer_row(r) for r in h_rows],
                       [integer_row(r) for r in torus_rows["h"]],
                       [integer_row(r) for r in torus_rows["g"]],
                       complex_structure=J, name=name, provenance=provenance,
                       compact_cartan_rows=compact,
                       torus_h_asserted_maximal=torus_h_maximal,
                       notes=tuple(notes), expectations=tuple(expectations))


def _check_complex_structure(g: LieAlgebra, J):
    """J² = −1 and the bracket is complex-linear, [J e_i, e_j] = J [e_i, e_j]
    for every basis pair; Pair.create checks that h is J-stable.  J is
    (rows, d), so J² = −1 reads rows² = −d², and both sides of the
    bracket identity are over d·g.den; each is summed on ints over the
    nonzero entries of J's columns and of the structure constants."""
    rows, d = J
    n = g.dim
    cols = [[(k, rows[k][i]) for k in range(n) if rows[k][i]]
            for i in range(n)]

    def combine(terms):
        out = {}
        for coeffs, x in terms:
            for k, y in coeffs:
                out[k] = out.get(k, 0) + x * y
        return {k: v for k, v in out.items() if v}

    for j in range(n):
        if combine((cols[k], x) for k, x in cols[j]) != {j: -d * d}:
            raise ValidationError("complex structure does not square to -1")
    for i in range(n):
        for j in range(n):
            lhs = combine((g.sparse[k][j], x) for k, x in cols[i])
            rhs = combine((cols[m], c) for m, c in g.sparse[i][j])
            if lhs != rhs:
                raise ValidationError(
                    "bracket is not complex-linear for the stored complex "
                    f"structure at basis pair ({i + 1}, {j + 1})")


def parse_pair_file(path) -> Pair:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e}") from None
    return parse_pair_text(text, origin=str(path))


def _parse_expect(line, lineno):
    toks = line.split()
    if len(toks) < 3:
        raise _err(lineno, "expect needs a question and an outcome")
    question, outcome = toks[1], toks[2]
    for word, kind, allowed in ((question, "question", QUESTIONS),
                                (outcome, "outcome", OUTCOMES)):
        if word not in allowed:
            raise _err(lineno, f"unknown {kind} {word!r}; expected one of "
                       f"{', '.join(allowed)}")
    margin = None
    dimension = None
    source = ""
    rest = line.split(None, 3)[3] if len(toks) > 3 else ""
    while rest:
        if rest.startswith("margin="):
            tok, _, rest = rest[len("margin="):].partition(" ")
            margin = _parse_fraction(tok, lineno)
            rest = rest.strip()
        elif rest.startswith("dim="):
            tok, _, rest = rest[len("dim="):].partition(" ")
            try:
                dimension = int(tok)
            except ValueError:
                raise _err(lineno, f"bad dimension {tok!r}") from None
            rest = rest.strip()
        elif rest.startswith("source="):
            source = rest[len("source="):].strip()
            rest = ""
        else:
            raise _err(lineno, f"bad expect attribute near {rest!r}")
    return Expectation(question=question, outcome=outcome, margin=margin,
                       dimension=dimension, source=source)


def _parse_algebra_line(block, toks, line, lineno, numbers):
    """One directive inside `begin algebra`, into `block`; `numbers` as in
    _parse_row."""
    head = toks[0]
    if head == "dim":
        block.dim = _parse_int(" ".join(toks[1:]), lineno)
        if block.dim < 0:
            raise _err(lineno, "dim must be at least 0")
    elif head == "name":
        block.name = line[len("name"):].strip()
    elif head == "labels":
        block.labels = toks[1:]
    elif head == "c":
        if len(toks) < 5 or toks[3] != "=":
            raise _err(lineno, "expected 'c i j = k:val ...'")
        ii = _parse_int(toks[1], lineno) - 1
        jj = _parse_int(toks[2], lineno) - 1
        if not 0 <= ii < jj:
            raise _err(lineno, "structure constants need 1 <= i < j")
        entry = {}
        for tok in toks[4:]:
            k, _, v = tok.partition(":")
            k = _parse_int(k, lineno) - 1
            if k in entry:
                raise _err(lineno, f"target {k + 1} given twice")
            value = numbers.get(v)
            if value is None:
                value = numbers[v] = _parse_fraction(v, lineno)
            entry[k] = value
        _put_once(block.constants, (ii, jj), lineno, entry,
                  f"c {ii + 1} {jj + 1}")
    elif head == "matsize":
        block.matsize = _parse_int(" ".join(toks[1:]), lineno)
        if block.matsize < 1:
            raise _err(lineno, "matsize must be at least 1")
    elif head == "matrix":
        if len(toks) < 3 or toks[2] != "=":
            raise _err(lineno, "expected 'matrix i = entries...'")
        k = _parse_int(toks[1], lineno) - 1
        _put_once(block.matrices, k, lineno,
                  _parse_row(toks[3:], lineno, numbers), f"matrix {k + 1}")
    elif head == "complex":
        if len(toks) < 3 or toks[2] != "=":
            raise _err(lineno, "expected 'complex i = entries...'")
        k = _parse_int(toks[1], lineno) - 1
        _put_once(block.complex_rows, k, lineno,
                  _parse_row(toks[3:], lineno, numbers), f"complex {k + 1}")
    elif head == "cartan-compact":
        if toks[1:2] != ["="]:
            raise _err(lineno, "expected 'cartan-compact = v1 v2 ...'")
        block.cartan_compact.append(
            (lineno, _parse_row(toks[2:], lineno, numbers)))
    else:
        raise _err(lineno, f"unknown algebra directive {head!r}")


def _put_once(table, key, lineno, value, what):
    if key in table:
        raise _err(lineno, f"{what} repeats line {table[key][0]}")
    table[key] = (lineno, value)


def _check_indices(rows, dim, what):
    for k, (lineno, _) in rows.items():
        if not 0 <= k < dim:
            raise _err(lineno, f"{what} index {k + 1} outside 1..{dim}")


def _exact_matrix(rows):
    """(integer rows, d): rows of values over their common denominator."""
    width = len(rows[0]) if rows else 0
    nums, d = integer_row([x for row in rows for x in row])
    return tuple(nums[i * width:(i + 1) * width]
                 for i in range(len(rows))), d


def _rows_dict_to_matrix(rows, dim, what):
    _check_indices(rows, dim, what)
    M = []
    for i in range(dim):
        if i not in rows:
            raise ParseError(f"{what} row {i + 1} missing")
        lineno, row = rows[i]
        if len(row) != dim:
            raise _err(lineno, f"{what} row {i + 1} has wrong length")
        M.append(tuple(row))
    return tuple(M)


def _build_algebra(block: _AlgebraBlock) -> LieAlgebra:
    if block.dim is None:
        raise ParseError("algebra block missing 'dim'")
    n = block.dim
    labels = block.labels or [f"e{k + 1}" for k in range(n)]
    if len(labels) != n:
        raise ParseError(f"expected {n} labels, got {len(labels)}")
    for (i, j), (lineno, entry) in block.constants.items():
        if j >= n or not all(0 <= k < n for k in entry):
            raise _err(lineno, f"basis index outside 1..{n}")
    # every constant over one denominator
    nums, den = integer_row([c for _, entry in block.constants.values()
                             for c in entry.values()])
    it = iter(nums)
    table = {key: {k: next(it) for k in entry}
             for key, (_, entry) in block.constants.items()}
    realization = None
    if block.matrices:
        if block.matsize is None:
            raise ParseError("matrix rows given without 'matsize'")
        m = block.matsize
        _check_indices(block.matrices, n, "matrix")
        rows = []
        for k in range(n):
            if k not in block.matrices:
                raise ParseError(f"matrix {k + 1} missing")
            lineno, flatv = block.matrices[k]
            if len(flatv) != m * m:
                raise _err(lineno, f"matrix {k + 1} has {len(flatv)} entries, "
                           f"expected {m * m}")
            rows.extend(flatv[r * m:(r + 1) * m] for r in range(m))
        # every matrix over one denominator
        rows, d = _exact_matrix(rows)
        realization = ([rows[k * m:(k + 1) * m] for k in range(n)], d)
    return LieAlgebra.from_structure(labels, table, den,
                                     realization=realization, name=block.name)


def serialize_pair(pair: Pair) -> str:
    """Canonical text for a pair; parse_pair_text inverts it exactly."""
    g = pair.g
    out = []
    out.append(f"pair {pair.name}")
    out.append(f"provenance {pair.provenance}")
    for note in pair.notes:
        out.append(f"note {note}")
    if not pair.torus_h_asserted_maximal:
        out.append("torus-h-maximality unasserted")
    out.append("")
    out.append("begin algebra g")
    out.append(f"name {g.name}")
    out.append(f"dim {g.dim}")
    out.append(f"labels {' '.join(g.basis_labels)}")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            entries = g.sparse[i][j]
            if entries:
                values = _literals([c for _, c in entries], g.den)
                body = " ".join(f"{k + 1}:{v}"
                                for (k, _), v in zip(entries, values))
                out.append(f"c {i + 1} {j + 1} = {body}")
    if g.matrix_realization is not None:
        mats, d = g.matrix_realization
        out.append(f"matsize {len(mats[0])}")
        for k, M in enumerate(mats):
            flatv = " ".join(_literals([x for row in M for x in row], d))
            out.append(f"matrix {k + 1} = {flatv}")
    if pair.complex_structure is not None:
        rows, d = pair.complex_structure
        for i, row in enumerate(rows):
            out.append(f"complex {i + 1} = {' '.join(_literals(row, d))}")
    for row in pair.compact_cartan_rows or ():
        out.append(f"cartan-compact = {' '.join(_literals(*row))}")
    out += ["end", ""]
    for header, sub in (("subalgebra h", pair.h), ("torus h", pair.torus_h),
                        ("torus g", pair.torus_g)):
        out.append(f"begin {header}")
        out.extend(f"row = {' '.join(_literals(*row))}" for row in sub.rows)
        out += ["end", ""]
    if pair.compact_cartan_rows is not None:
        out.append("complexify auto")
    for e in pair.expectations:
        line = f"expect {e.question} {e.outcome}"
        if e.margin is not None:
            line += f" margin={e.margin}"
        if e.dimension is not None:
            line += f" dim={e.dimension}"
        if e.source:
            line += f" source={e.source}"
        out.append(line)
    return "\n".join(out).rstrip() + "\n"


def _literals(nums, den):
    """The fraction literals of the entries of nums / den: each is the
    Fraction it stands for, written as one.  Over den 1 the ints are
    written as they are, the same text for a quarter of the cost."""
    if den == 1:
        return [str(x) for x in nums]
    return [str(Fraction(x, den)) for x in nums]
