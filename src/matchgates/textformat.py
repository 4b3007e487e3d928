"""The plain-text circuit format: `parse_circuit` and `serialize_circuit`.

A header, then one gate per line, with `#` starting a comment.  Matrices are
written row-major as comma-separated reals, real part before imaginary part
for each entry.  Floats are written with repr(), which round-trips exactly.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable

import numpy as np

from .circuits import (
    GATE_KINDS,
    KIND_CODES,
    _KIND_NAMES,
    _LINE_LIMIT,
    _NLINES,
    _NPARAMS,
    Circuit,
    GateColumns,
    GeneralCircuit,
    MatchgateCircuit,
    ParseError,
    _misshapen,
    _ParsedGates,
    _refused,
    _table,
    _table_of,
    validate_or_raise,
)

# serialize_circuit writes a table this many gates at a time, so that its
# scratch arrays stay bounded while the text grows.
_TABLE_CHUNK = 1 << 16


def _refuse(index: int, table: GateColumns, row: int, gates: _ParsedGates) -> None:
    """Raise ValueError naming gate `index` (1-based), row `row` of `table`, by
    what the text would change: its kind or counts (a -1 row keeps neither: the
    circuit's gate is read), its rot plane, or else a line the parser refuses."""
    if table.kinds[row] < 0:
        g = gates[index - 1]
        raise ValueError(f"gate {index} ({g.kind}): {_misshapen(g)}")
    kind, problem = _KIND_NAMES[table.kinds[row]], f"line out of range +-{_LINE_LIMIT}"
    if kind == "rot":
        plane = float(table.params[table.param_at[row]])
        if not (plane.is_integer() and (plane or math.copysign(1, plane) > 0)):
            problem = f"plane must be an integer, got {plane!r}"  # -0.0 would read back as 0.0
    raise ValueError(f"gate {index} ({kind}): {problem}")


def _texts(values: np.ndarray, fmt: Callable) -> np.ndarray:
    """fmt of each value, as an object array, called once per distinct value;
    floats are told apart by their bits, so -0.0 is not 0.0."""
    keys = values.view(np.int64) if values.dtype == float else values
    distinct, back = np.unique(keys, return_inverse=True)
    return np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)[back]


def _chunk_lines(chunk: GateColumns) -> np.ndarray:
    """The text of each gate of a table the serializer takes, as an object
    array.  Per kind, each distinct gate (line numbers and parameter bits)
    is formatted once, and within those each distinct real and line number."""
    kinds, lines, params, line_at, param_at = chunk
    out = np.empty(len(kinds), dtype=object)
    for code in set(kinds.tolist()) - {-1}:  # -1: a row left out
        kind = _KIND_NAMES[code]
        _, nlines, nparams = GATE_KINDS[kind]
        rows = np.flatnonzero(kinds == code)
        gate_lines = lines[line_at[rows, None] + np.arange(nlines)]
        gate_params = params[param_at[rows, None] + np.arange(nparams)]
        bits = np.hstack([gate_lines, gate_params.view(np.int64)])  # one row per gate
        row = np.dtype((np.void, bits.itemsize * bits.shape[1]))  # compared byte by byte
        _, first, back = np.unique(bits.view(row).ravel(), return_index=True, return_inverse=True)
        gate_lines, gate_params = gate_lines[first], gate_params[first]
        # Columns of texts: the kind with the first line, each other line, each field.
        cols = [_texts(gate_lines[:, 0], f"{kind} {{}}".format)]
        cols += [_texts(gate_lines[:, i], str) for i in range(1, nlines)]
        at = 0
        for key, count in _FIELDS[kind]:
            values = gate_params[:, at : at + count]
            if key == "plane=":
                cols.append(_texts(values[:, 0], lambda v: f"plane={int(v)}"))
            else:
                reals = _texts(values.ravel(), repr).reshape(-1, count).tolist()
                cols.append(np.array([key + ",".join(r) for r in reals], dtype=object))
            at += count
        if len(cols) > 1:
            cols[0] = np.array(list(map(" ".join, zip(*cols))), dtype=object)
        out[rows] = cols[0][back]
    return out


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format (always ends with a newline).

    Every float is written with repr(), so the text is fixed by the circuit's
    values bit for bit (-0.0 stays -0.0).  The gates are read as the
    distinct blocks that hold them (`_ParsedGates.blocks`), and those blocks
    are written once, kind by kind, with each distinct gate, real and line
    number formatted once per chunk (`_chunk_lines`); a range of rows
    repeated in the circuit, as compress repeats each window's, is written
    from that text.  A gate the text would change is refused first
    (`_refuse`), with ValueError naming it by its 1-based index in the
    circuit.
    """
    head = [f"circuit {circuit.flavor}", f"width={circuit.width}", f"input={circuit.input}"]
    if circuit.flavor == "mg":
        head.append(f"measure={circuit.measure_line}")
        if circuit.allow_idle:
            head.append("idle=1")
    gates = circuit.gates
    blocks, first, counts = gates.blocks()
    refused = _refused(blocks)
    if refused.any():  # name the first the circuit holds by its index there
        rows = np.concatenate([np.arange(a, a + n) for a, n in zip(first, counts)])
        for i in np.flatnonzero(refused[rows])[:1].tolist():
            _refuse(i + 1, blocks, rows[i], gates)
    # The rows _TABLE_CHUNK at a time; a refused row, no gate of the circuit, is left out.
    blocks = blocks._replace(kinds=np.where(refused, -1, blocks.kinds))
    lines = []
    for lo in range(0, len(refused), _TABLE_CHUNK):
        lines += _chunk_lines(blocks.part(lo, lo + _TABLE_CHUNK)).tolist()
    ranges = [(a, a + n) for a, n in zip(first, counts) if n]
    texts = {r: "\n".join(lines[r[0] : r[1]]) for r in set(ranges)}  # each distinct range once
    return "\n".join([" ".join(head), *map(texts.__getitem__, ranges), ""])


def _parse_kv(tok: str, lineno: int) -> tuple[str, str]:
    if "=" not in tok:
        raise ParseError(f"expected key=value, got {tok!r}", lineno)
    key, _, val = tok.partition("=")
    if not key or not val:
        raise ParseError(f"malformed key=value token {tok!r}", lineno)
    return key, val


def _parse_int(val: str, what: str, lineno: int) -> int:
    try:
        return int(val)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {val!r}", lineno) from None


def _parse_floats(val: str, what: str, lineno: int) -> tuple[float, ...]:
    try:
        return tuple(map(float, val.split(",")))
    except ValueError:
        raise ParseError(f"bad {what} value {val!r}", lineno) from None


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises ParseError / ValidationError.

    The first line that holds more than a comment is the header.  The gate
    lines after it, comments cut, are read _READ_BLOCK at a time straight
    into table rows (`_read_block`); a block that reader is not sure of goes
    through the line parser (`_parse_gate`) instead, which words the error
    and its line.  Gate lines are read before the header fields.  The
    returned circuit has passed `validate`.
    """
    rows = text.splitlines()
    if "#" in text:
        rows = [row.split("#", 1)[0] for row in rows]
    at = next((i for i, row in enumerate(rows) if row.split()), None)
    if at is None:
        raise ParseError("empty input: no circuit header")
    header, header_line = rows[at].split(), at + 1
    if header[0] != "circuit":
        raise ParseError(f"expected 'circuit' header, got {header[0]!r}", header_line)
    blocks = []
    for lo in range(header_line, len(rows) + 1, _READ_BLOCK):  # at least one block, maybe empty
        block = rows[lo : lo + _READ_BLOCK]
        read = _read_block(block)
        if read is None:
            body = enumerate(map(str.split, block), start=lo + 1)
            read = _table_of([_parse_gate(toks, lineno) for lineno, toks in body if toks])[:3]
        blocks.append(read)

    if len(header) < 2 or header[1] not in ("mg", "qc"):
        raise ParseError("header must name a flavor, 'mg' or 'qc'", header_line)
    flavor = header[1]
    fields: dict[str, str] = {}
    for tok in header[2:]:
        key, val = _parse_kv(tok, header_line)
        if key in fields:
            raise ParseError(f"duplicate header field {key!r}", header_line)
        fields[key] = val
    for key in fields:
        if key not in ("width", "input", "measure", "idle"):
            raise ParseError(f"unknown header field {key!r}", header_line)
    if "width" not in fields or "input" not in fields:
        raise ParseError("header needs width= and input=", header_line)
    width = _parse_int(fields["width"], "width", header_line)
    inp = fields["input"]

    cls: type[MatchgateCircuit] | type[GeneralCircuit]
    if flavor == "mg":
        if "measure" not in fields:
            raise ParseError("mg header needs measure=", header_line)
        measure = _parse_int(fields["measure"], "measure", header_line)
        idle = _parse_int(fields.get("idle", "0"), "idle", header_line)
        if idle not in (0, 1):
            raise ParseError("idle must be 0 or 1", header_line)
        cls, rest = MatchgateCircuit, (inp, measure, bool(idle))
    else:
        if "measure" in fields or "idle" in fields:
            raise ParseError("measure=/idle= apply only to mg circuits", header_line)
        cls, rest = GeneralCircuit, (inp,)
    circuit = cls(width, _ParsedGates(_table(*map(np.concatenate, zip(*blocks)))), *rest)
    validate_or_raise(circuit)
    return circuit


# Each kind's key=value fields after its lines, in the serializer's order, with
# the reals each holds; a rot plane is an integer.
_FIELDS = {kind: () for kind in GATE_KINDS} | {
    "rot": (("plane=", 1), ("theta=", 1)),
    "mg": (("a=", 8), ("b=", 8)),
    "u1": (("m=", 8),),
    "u2": (("m=", 32),),
    "cu1": (("m=", 8),),
}
# By kind code (-1, an unknown kind, matches no line): the tokens on a gate
# line, and each field's reals and its key after a newline (see _read_block).
_NTOKENS = np.array([1 + GATE_KINDS[kind][1] + len(f) for kind, f in _FIELDS.items()] + [0])
_FIELD_REALS = np.array(
    [[n for _, n in f] + [0] * (2 - len(f)) for f in _FIELDS.values()] + [[0, 0]]
)
_FIELD_MARKS = np.array(
    [["\n" + key for key, _ in f] + [""] * (2 - len(f)) for f in _FIELDS.values()] + [["", ""]],
    dtype=object,
)


# Gate lines that parse_circuit reads at a time, so that its token strings
# stay few while the table grows.
_READ_BLOCK = 4096


def _read_block(rows: list[str]) -> tuple[np.ndarray, ...] | None:
    """Kinds, lines and parameters of some gate lines, or None at any doubt.

    Every gate line must be its kind's serializer form: the kind, its line
    numbers, then its fields in order, each value with the kind's count of
    reals.  An unknown kind, another token count, a field out of order or
    without its key, a value with another count of reals or a token that
    int() or float() refuses is a doubt, as is a line beyond int64.  Lines
    and rot planes are read by int() and the reals by float(), one map each,
    so values are exactly the line parser's."""
    body = [toks for toks in map(str.split, rows) if toks]
    names = list(map(itemgetter(0), body))
    n = len(body)
    kinds = np.fromiter(map(KIND_CODES.get, names, repeat(-1)), np.intp, n)
    ntoks = np.fromiter(map(len, body), np.intp, n)
    if (ntoks != _NTOKENS[kinds]).any():
        return None
    nlines, nparams = _NLINES[kinds], _NPARAMS[kinds]
    nfields = ntoks - 1 - nlines
    # Every token end to end: each gate's kind, its lines, then its fields.
    flat = list(chain.from_iterable(body))
    first = np.cumsum(ntoks) - ntoks
    line_at = np.cumsum(nlines) - nlines
    field_at = np.cumsum(nfields) - nfields
    line_tokens = np.repeat(first + 1 - line_at, nlines) + np.arange(nlines.sum())
    field_tokens = np.repeat(first + 1 + nlines - field_at, nfields) + np.arange(nfields.sum())
    fields = [flat[i] for i in field_tokens.tolist()]
    # Joined by ",\n" and split at commas, the fields give their reals in gate
    # order, but a field's first piece also holds its key and, after the
    # first field, a newline before it.  Newlines sit only where fields do
    # start, so the piece where each field is due to start begins with its
    # newline and key exactly when every field has its key and its count of
    # reals.  The key is cut; float() skips the newline.
    reals = ",\n".join(fields).split(",") if fields else []
    if len(reals) != nparams.sum():
        return None
    field_kinds = np.repeat(kinds, nfields)
    which = np.arange(len(fields)) - np.repeat(field_at, nfields)  # field index in its line
    nreals = _FIELD_REALS[field_kinds, which]
    starts = (np.cumsum(nreals) - nreals).tolist()
    heads, marks = [reals[i] for i in starts], _FIELD_MARKS[field_kinds, which].tolist()
    if marks:
        marks[0] = marks[0][1:]
    if not all(map(str.startswith, heads, marks)):
        return None
    values = list(map(str.removeprefix, heads, marks))  # each field's first real
    for i, value in zip(starts, values):
        reals[i] = value
    # A rot plane, its field's only real, is read again by int().
    rot = kinds == KIND_CODES["rot"]
    planes = [values[i] for i in field_at[rot].tolist()]
    line_texts = [flat[i] for i in line_tokens.tolist()]
    try:
        lines = np.fromiter(map(int, line_texts), np.int64, len(line_texts))
        params = np.fromiter(map(float, reals), float, len(reals))
        plane_values = np.fromiter(map(int, planes), np.int64, len(planes))
    except (ValueError, OverflowError):  # a token int() or float() refuses, or a huge line
        return None
    params[(np.cumsum(nparams) - nparams)[rot]] = plane_values
    return kinds, lines, params


def _parse_gate(toks: list[str], lineno: int) -> tuple[str, tuple[int, ...], tuple[float, ...]]:
    """One gate line's kind, lines and reals, or the ParseError that words it."""
    kind = toks[0]
    sig = GATE_KINDS.get(kind)
    if sig is None:
        raise ParseError(f"unknown gate kind {kind!r}", lineno)
    _, nlines, nparams = sig
    if len(toks) < 1 + nlines:
        raise ParseError(f"{kind} needs {nlines} line argument(s)", lineno)
    lines = tuple(_parse_int(t, "line", lineno) for t in toks[1 : 1 + nlines])
    rest = toks[1 + nlines :]
    kv = {}
    for tok in rest:
        key, val = _parse_kv(tok, lineno)
        if key in kv:
            raise ParseError(f"duplicate field {key!r}", lineno)
        kv[key] = val

    params: tuple[float, ...] = ()
    if kind == "rot":
        if set(kv) != {"plane", "theta"}:
            raise ParseError("rot needs plane= and theta=", lineno)
        plane = _parse_int(kv["plane"], "plane", lineno)
        theta = _parse_floats(kv["theta"], "theta", lineno)
        if len(theta) != 1:
            raise ParseError("theta must be a single real", lineno)
        params = (float(plane), theta[0])
    elif kind == "mg":
        if set(kv) != {"a", "b"}:
            raise ParseError("mg needs a= and b=", lineno)
        a = _parse_floats(kv["a"], "a", lineno)
        b = _parse_floats(kv["b"], "b", lineno)
        if len(a) != 8 or len(b) != 8:
            raise ParseError("mg blocks take 8 reals each", lineno)
        params = a + b
    elif kind in ("u1", "u2", "cu1"):
        if set(kv) != {"m"}:
            raise ParseError(f"{kind} needs m=", lineno)
        params = _parse_floats(kv["m"], "m", lineno)
        if len(params) != nparams:
            raise ParseError(f"{kind} takes {nparams} reals, got {len(params)}", lineno)
    else:
        if kv:
            raise ParseError(f"{kind} takes no parameters", lineno)
    if not all(-(2**63) <= k < 2**63 for k in lines):  # no table row holds it
        raise ParseError(f"line out of range +-{_LINE_LIMIT}", lineno)
    return kind, lines, params
