"""Circuit containers, validation, gate matrices, and the plain-text format.

Two circuit flavors share one gate-application type:

  * `mg`: nearest-neighbour matchgate circuits.  Every gate occupies an
    adjacent line pair (k, k+1) and is recorded by its lower line k.  These
    circuits carry a classical input bit string and a measured line.
  * `qc`: general circuits built from x / h and explicit one- and two-qubit
    unitaries (`u1`, `u2`) plus the controlled one-qubit gate `cu1`.

The text format is line-oriented: a header, then one gate per line, with `#`
starting a comment.  Matrices are written row-major as comma-separated reals,
real part before imaginary part for each entry.  Floats are serialized with
repr(), which round-trips exactly.  The parser reads gate lines straight into
one GateColumns table, each row holding its kind's counts of lines and
parameters (`read_gates` makes a gate built in code without them a -1 row,
empty).  Every circuit holds its `gates` as row ranges of such tables,
behind a sequence that equals, hashes and prints as the GateApp tuple: a
circuit built from GateApps reads them into one table when it is
constructed and keeps their tuple; any other builds it only when the gates
themselves are read.  The serializer writes each distinct table of a
circuit once, kind by kind, each distinct gate, real and line number
formatted once, and joins the texts of the ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter
from collections.abc import Sequence
from typing import Callable, Iterator, NamedTuple, TypeVar

import numpy as np

from . import algebra

__all__ = [
    "CircuitError",
    "ParseError",
    "ValidationError",
    "GuardError",
    "UsageError",
    "GateApp",
    "MatchgateCircuit",
    "GeneralCircuit",
    "GATE_KINDS",
    "gate_matrix",
    "gate_matrices",
    "complex_from_reals",
    "reals_from_complex",
    "validate",
    "parse_circuit",
    "serialize_circuit",
]


class CircuitError(Exception):
    """Base class for circuit-level errors."""


class ParseError(CircuitError):
    """Malformed circuit text; carries the 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class ValidationError(CircuitError):
    """A structurally well-formed circuit that violates an invariant."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class GuardError(CircuitError):
    """A request beyond a hard resource guard (width, cost)."""


class UsageError(CircuitError, ValueError):
    """A valid circuit or argument that the call does not take: the other
    flavor, a line off the circuit, a form the call needs but the circuit
    lacks, a width too small to generate."""


# kind -> (flavor, number of line arguments, number of real parameters)
GATE_KINDS: dict[str, tuple[str, int, int]] = {
    "w": ("mg", 1, 0),
    "gxx": ("mg", 1, 0),
    "rot": ("mg", 1, 2),
    "mg": ("mg", 1, 16),
    "x": ("qc", 1, 0),
    "h": ("qc", 1, 0),
    "u1": ("qc", 1, 8),
    "u2": ("qc", 2, 32),
    "cu1": ("qc", 2, 8),
}


@dataclass(frozen=True)
class GateApp:
    """One gate application: a kind, the line(s) it acts on, raw parameters.

    For mg-flavor kinds `lines` holds the single lower line k of the pair
    (k, k+1).  Parameters are flat tuples of floats exactly as they appear in
    the text format.
    """

    kind: str
    lines: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(map(int, self.lines)))
        object.__setattr__(self, "params", tuple(map(float, self.params)))


def _gate(kind: str, lines: tuple[int, ...], params: tuple[float, ...]) -> GateApp:
    """A GateApp of values that are already ints and floats: no second conversion."""
    g = object.__new__(GateApp)
    fields = g.__dict__
    fields["kind"] = kind
    fields["lines"] = lines
    fields["params"] = params
    return g


class _Piece(NamedTuple):
    """Gates lo .. hi - 1 of a GateColumns block."""

    block: GateColumns
    lo: int
    hi: int


class _ParsedGates(Sequence):
    """The gates of a circuit, behind a read-only sequence that equals the
    GateApp tuple.

    The gates are `pieces` end to end, each a row range of a GateColumns
    block: a parsed, expanded or code-built circuit is one piece, and
    compress emits each window's blocks as the same objects every time.
    `table`, which `validate`, the simulation, the oracle and compress read,
    concatenates the pieces when first asked for.  Gates read from one
    GateApp tuple keep it as their tuple; for any others, len() builds
    nothing and any other use of the gates builds the flat tuple once."""

    __slots__ = ("pieces", "_len", "_table", "_built")

    def __init__(self, *parts: _Piece | GateColumns | Sequence[GateApp]):
        """The gates of `parts` end to end: pieces, tables, the pieces of
        other such sequences, or GateApps, each read as one table; the gates
        of one GateApp tuple keep it."""
        pieces: list[_Piece] = []
        for part in parts or [()]:  # no parts: one empty block
            if isinstance(part, _Piece):
                pieces.append(part)
            elif isinstance(part, _ParsedGates):
                pieces += part.pieces
            else:
                table = part if isinstance(part, GateColumns) else read_gates(part)
                pieces.append(_Piece(table, 0, len(table.kinds)))
        self.pieces = pieces
        _, lo, hi = zip(*pieces)
        self._len = sum(hi) - sum(lo)
        self._table: GateColumns | None = None
        one = parts[0] if len(parts) == 1 else None
        self._built: tuple[GateApp, ...] | None = one if type(one) is tuple else None

    def blocks(self) -> tuple[GateColumns, list[int], list[int]]:
        """The distinct blocks end to end, and each piece's first row in
        them and its count of rows."""
        held, lo, hi = zip(*self.pieces)
        blocks = {id(block): block for block in held}
        start = dict(zip(blocks, accumulate((len(b.kinds) for b in blocks.values()), initial=0)))
        first = [start[id(block)] + at for block, at in zip(held, lo)]
        return _joined(list(blocks.values())), first, [b - a for a, b in zip(lo, hi)]

    @property
    def table(self) -> GateColumns:
        if self._table is None:
            self._table = _joined([block.part(lo, hi) for block, lo, hi in self.pieces if hi > lo])
        return self._table

    @property
    def _gates(self) -> tuple[GateApp, ...]:
        if self._built is None:
            self._built = _gate_apps(self.table)
        return self._built

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._gates[index]

    def __iter__(self):
        return iter(self._gates)

    def __reversed__(self):
        return reversed(self._gates)

    def __eq__(self, other):
        return self._gates == other

    def __hash__(self):
        return hash(self._gates)

    def __repr__(self) -> str:
        return repr(self._gates)

    def __add__(self, other):
        return self._gates + other

    def __radd__(self, other):
        return other + self._gates


@dataclass(frozen=True)
class MatchgateCircuit:
    """A nearest-neighbour matchgate circuit with classical input and readout.

    `input` is the basis-state bit string (line 1 first), `measure_line` the
    line whose Z expectation / output distribution is of interest.  When
    `allow_idle` is set, lines untouched by every gate are permitted.
    """

    width: int
    gates: Sequence[GateApp]
    input: str
    measure_line: int = 1
    allow_idle: bool = False
    flavor: str = field(default="mg", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.gates, _ParsedGates):
            object.__setattr__(self, "gates", _ParsedGates(tuple(self.gates)))


@dataclass(frozen=True)
class GeneralCircuit:
    """A general circuit on `width` qubits applied to the basis input state."""

    width: int
    gates: Sequence[GateApp]
    input: str
    flavor: str = field(default="qc", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.gates, _ParsedGates):
            object.__setattr__(self, "gates", _ParsedGates(tuple(self.gates)))


Circuit = MatchgateCircuit | GeneralCircuit
C = TypeVar("C", MatchgateCircuit, GeneralCircuit)


def complex_from_reals(params: tuple[float, ...] | list[float]) -> np.ndarray:
    """Pack a flat (re, im, re, im, ...) sequence into a square complex matrix."""
    vals = np.asarray(params, dtype=float)
    if vals.size % 2 != 0:
        raise ValueError("parameter list must pair real and imaginary parts")
    z = vals[0::2] + 1j * vals[1::2]
    d = math.isqrt(z.size)
    if d * d != z.size:
        raise ValueError(f"{z.size} complex entries do not form a square matrix")
    return z.reshape(d, d)


def reals_from_complex(m: np.ndarray) -> tuple[float, ...]:
    """Flatten a complex matrix row-major into (re, im, re, im, ...)."""
    return tuple(np.asarray(m, dtype=complex).ravel().view(float).tolist())


# Validation reads this many gates at a time, so its scratch memory does not
# grow with the gate count: compress validates its input inside the traced
# window of the flat-memory criterion (09), whose peak a larger run raises.
_VALIDATE_CHUNK = 512

# Kind codes (positions in GATE_KINDS) and, by code, each kind's name and
# signature; code -1 (an unknown kind or a misshapen gate) reads the last
# entry: the name "?" (a table keeps no name for it), no flavor and no counts.
KIND_CODES = {kind: code for code, kind in enumerate(GATE_KINDS)}
_KIND_NAMES = (*GATE_KINDS, "?")
_FLAVOR, _NLINES, _NPARAMS = map(np.array, zip(*GATE_KINDS.values(), ("", 0, 0)))


class GateColumns(NamedTuple):
    """A run of gates as arrays, in circuit order.

    `kinds` holds KIND_CODES; `lines` and `params` hold every gate's lines
    and parameters end to end, each gate its kind's counts of them (a -1
    row, an unknown kind or a misshapen gate, none), and `line_at` and
    `param_at` the offsets of each gate's first line and parameter.
    """

    kinds: np.ndarray
    lines: np.ndarray
    params: np.ndarray
    line_at: np.ndarray
    param_at: np.ndarray

    def rows(self, kind: str) -> np.ndarray:
        """The parameters of every `kind` gate, one row per gate."""
        width = GATE_KINDS[kind][2]
        at = self.param_at[self.kinds == KIND_CODES[kind]]
        if not len(at):
            return np.empty((0, width))
        # Row i of this view is params[i : i + width]; indexing it copies each
        # gate's row in one piece.
        p, step = self.params, self.params.strides[0]
        return np.lib.stride_tricks.as_strided(p, (len(p) - width + 1, width), (step, step))[at]

    def line_tuples(self) -> list[tuple[int, ...]]:
        """Each gate's lines, as a tuple."""
        return _cut(self.lines.tolist(), self.line_at, _NLINES[self.kinds])

    def part(self, lo: int, hi: int) -> GateColumns:
        """Gates lo .. hi - 1 (hi clipped to the gate count, lo below it), cut
        at the stored offsets: a row relabelled -1 to skip it keeps its values.
        All the gates are the table itself."""
        n = len(self.kinds)
        if lo == 0 and hi >= n:
            return self
        hi = min(hi, n)
        l0, l1 = self.line_at[lo], self.line_at[hi] if hi < n else len(self.lines)
        p0, p1 = self.param_at[lo], self.param_at[hi] if hi < n else len(self.params)
        return GateColumns(
            self.kinds[lo:hi],
            self.lines[l0:l1],
            self.params[p0:p1],
            self.line_at[lo:hi] - l0,
            self.param_at[lo:hi] - p0,
        )


def _table(kinds: np.ndarray, lines: np.ndarray, params: np.ndarray) -> GateColumns:
    """Gates as a table, each row holding its kind's counts, which fix the offsets."""
    line_at, param_at = (np.cumsum(counts) - counts for counts in (_NLINES[kinds], _NPARAMS[kinds]))
    return GateColumns(kinds, lines, params, line_at, param_at)


# read_gates clips a line beyond int64 to this bound, which the serializer refuses.
_LINE_LIMIT = 2**62


def read_gates(gates: tuple[GateApp, ...]) -> GateColumns:
    """Read gates into a table in one pass over their lines and parameters; a
    gate of an unknown kind or without its kind's counts is a -1 row, empty."""
    codes = np.array([KIND_CODES.get(g.kind, -1) for g in gates], np.intp)
    nlines = np.array([len(g.lines) for g in gates], np.intp)
    nparams = np.array([len(g.params) for g in gates], np.intp)
    shaped = (nlines == _NLINES[codes]) & (nparams == _NPARAMS[codes])
    held = list(compress(gates, shaped.tolist()))
    lines = [g.lines for g in held]
    try:
        line_col = np.fromiter(chain.from_iterable(lines), np.int64, nlines[shaped].sum())
    except OverflowError:  # a line beyond int64 is out of range of every width
        big = np.array([*chain.from_iterable(lines)], dtype=object)
        line_col = np.clip(big, -_LINE_LIMIT, _LINE_LIMIT).astype(np.int64)
    params = np.fromiter(chain.from_iterable(g.params for g in held), float, nparams[shaped].sum())
    return _table(np.where(shaped, codes, -1), line_col, params)


def _joined(tables: list[GateColumns]) -> GateColumns:
    """Tables end to end, as one; none is no gates."""
    if len(tables) == 1:
        return tables[0]
    return _table(*map(np.concatenate, zip(*(t[:3] for t in tables or [read_gates(())]))))


def _cut(flat: list, at: np.ndarray, counts: np.ndarray) -> list[tuple]:
    """Each gate's run of `flat`, as a tuple."""
    return [tuple(flat[a:b]) for a, b in zip(at.tolist(), (at + counts).tolist())]


def _gate_apps(cols: GateColumns) -> tuple[GateApp, ...]:
    """The GateApps of a table; a -1 row reads as "?" with no lines or parameters."""
    kinds = [_KIND_NAMES[c] for c in cols.kinds.tolist()]
    params = _cut(cols.params.tolist(), cols.param_at, _NPARAMS[cols.kinds])
    return tuple(map(_gate, kinds, cols.line_tuples(), params))


def _gate_chunks(
    gates: Sequence[GateApp], size: int, last_first: bool = False
) -> Iterator[tuple[int, GateColumns]]:
    """(index of the first gate, columns) of each run of `size` gates, in
    circuit order or the last run first: slices of a circuit's table, or of
    the table bare GateApps are read into once."""
    table = gates.table if isinstance(gates, _ParsedGates) else read_gates(gates)
    starts = range(0, len(table.kinds), size)
    for lo in reversed(starts) if last_first else starts:
        yield lo, table.part(lo, lo + size)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _constant(m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rows: np.repeat(m[None], len(rows), axis=0)


def _mg_matrices(rows: np.ndarray) -> np.ndarray:
    """G(A, B) of each row a00 .. b11, in the layout of `algebra.make_matchgate`."""
    g = np.zeros((len(rows), 4, 4), dtype=complex)
    g[:, algebra.MG_ROWS, algebra.MG_COLS] = rows.view(complex)
    return g


def _controlled_matrices(rows: np.ndarray) -> np.ndarray:
    g = np.zeros((len(rows), 4, 4), dtype=complex)
    g[:, 0, 0] = g[:, 1, 1] = 1.0
    g[:, 2:, 2:] = rows.view(complex).reshape(-1, 2, 2)
    return g


# kind -> the dense matrices of its gates, one per row of GateColumns.rows(kind)
_MATRICES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "w": _constant(algebra.FERMIONIC_SWAP),
    "gxx": _constant(algebra.GXX),
    "rot": lambda rows: algebra.rotation_generator_exponential(rows[:, 0], rows[:, 1]),
    "mg": _mg_matrices,
    "x": _constant(algebra.PAULI_X),
    "h": _constant(_HADAMARD),
    "u1": lambda rows: rows.view(complex).reshape(-1, 2, 2),
    "u2": lambda rows: rows.view(complex).reshape(-1, 4, 4),
    "cu1": _controlled_matrices,
}


def gate_matrices(cols: GateColumns) -> list[np.ndarray]:
    """The dense unitary of every gate in a table, in gate order (4x4 or 2x2,
    complex), built for all gates of one kind at once.

    For `cu1` the full controlled 4x4 matrix is returned, control on the
    first listed line being the more significant factor.  ValueError for a
    -1 row (an unknown kind or a misshapen gate), a rot plane that is not an
    integer in 1..6 or a non-finite rot angle.
    """
    kinds = cols.kinds
    if (kinds < 0).any():
        raise ValueError("unknown gate kind")
    out: list[np.ndarray] = [None] * len(kinds)
    for code in set(kinds.tolist()):
        kind = _KIND_NAMES[code]
        for i, m in zip(np.flatnonzero(kinds == code).tolist(), _MATRICES[kind](cols.rows(kind))):
            out[i] = m
    return out


def gate_matrix(gate: GateApp) -> np.ndarray:
    """The dense unitary for one gate application: `gate_matrices` of it alone.

    ValueError for a gate `_misshapen` words.  An `mg` gate's blocks are
    checked as `algebra.make_matchgate` checks them: ValueError if either is
    not unitary or their determinants differ.
    """
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    problem = _misshapen(gate)
    if problem:
        raise ValueError(f"{gate.kind} gate: {problem}")
    m = gate_matrices(read_gates((gate,)))[0]
    if gate.kind == "mg":
        algebra.make_matchgate(complex_from_reals(gate.params[:8]), complex_from_reals(gate.params[8:]))
    return m


def _misshapen(g: GateApp, flavor: str | None = None) -> str | None:
    """What first makes `g` no gate of `flavor` (of either when None): an
    unknown kind, another flavor, its count of lines, then of parameters."""
    sig = GATE_KINDS.get(g.kind)
    if sig is None:
        return "unknown kind"
    if flavor not in (None, sig[0]):
        return f"not a {flavor} gate"
    if len(g.lines) != sig[1]:
        return f"expected {sig[1]} line(s), got {len(g.lines)}"
    if len(g.params) != sig[2]:
        return f"expected {sig[2]} parameter(s), got {len(g.params)}"
    return None


def _not_unitary(name: str, params: tuple[float, ...]) -> str:
    dev = algebra.unitary_deviation(complex_from_reals(params))
    return f"{name} not unitary (deviation {dev:.3g})"


def _determinant_gap(params: tuple[float, ...]) -> float:
    a, b = complex_from_reals(params[:8]), complex_from_reals(params[8:])
    return abs(np.linalg.det(a) - np.linalg.det(b))


def _chunk_violations(
    circuit: Circuit, first: int, cols: GateColumns, touched: np.ndarray | None
) -> list[str]:
    """The violations of the circuit's gates from index `first` on, read into
    `cols`, in gate order, from checks on whole arrays.

    A gate reports only its first structural failure, `_misshapen`'s first;
    a gate without one marks its lines in `touched` (when given) and has its
    rot plane, matrices and determinants checked, as `not x <= tol` so NaN fails.
    """
    flavor = circuit.flavor
    top = circuit.width - 1 if flavor == "mg" else circuit.width
    kinds, nlines = cols.kinds, _NLINES[cols.kinds]
    finite = np.isfinite(cols.params)
    nonfinite = np.zeros(len(kinds), dtype=bool)
    if not finite.all():
        nonfinite[np.repeat(np.arange(len(kinds)), _NPARAMS[kinds])[~finite]] = True
    # Every kind takes one or two lines, so the first and the last cover them
    # all; the padding keeps the reads for a gate without lines in bounds.
    lines = np.append(cols.lines, 0)
    lo, hi = lines[cols.line_at], lines[cols.line_at + nlines - 1]
    out_of_range = (np.minimum(lo, hi) < 1) | (np.maximum(lo, hi) > top)
    which_line = "line {g.lines[0]}" if flavor == "mg" else "line"
    # (failing gates, message) in check order; a gate reports the first it fails.
    structure = (
        (nonfinite, "non-finite parameter"),
        (out_of_range, which_line + " out of range 1..{top}"),
        ((nlines > 1) & (lo == hi), "repeated line"),
    )
    misfit = (_FLAVOR != flavor)[kinds]  # -1 rows too
    failed = np.logical_or.reduce([misfit, *(bad for bad, _ in structure)])
    found = []
    for i in np.flatnonzero(failed).tolist():
        g = circuit.gates[first + i]
        rest = next((message for bad, message in structure if bad[i]), "")
        found.append((i, _misshapen(g, flavor) or rest.format(g=g, top=top)))
    if touched is not None:
        k = lo[~failed]
        touched[k] = touched[k + 1] = True
    live = cols._replace(kinds=np.where(failed, -1, kinds)) if found else cols

    def check(kind, ok, message):
        if not ok.all():
            rows = np.flatnonzero(live.kinds == KIND_CODES[kind])[~ok]
            found.extend((i, message(circuit.gates[first + i])) for i in rows.tolist())

    with np.errstate(all="ignore"):
        if flavor == "mg":
            plane = live.rows("rot")[:, 0]
            ok = (plane == np.trunc(plane)) & (plane >= 1) & (plane <= 6)
            check("rot", ok, lambda g: f"plane must be an integer in 1..6, got {g.params[0]}")
            blocks = live.rows("mg").view(complex).reshape(-1, 2, 2)  # a, b, a, b, ...
            if len(blocks):
                unitary = algebra.unitary_deviation(blocks).reshape(-1, 2) <= algebra.TOL_UNITARY
                check("mg", unitary[:, 0], lambda g: _not_unitary("block a", g.params[:8]))
                check("mg", unitary[:, 1], lambda g: _not_unitary("block b", g.params[8:]))
                dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
                ok = np.abs(dets[0::2] - dets[1::2]) <= algebra.TOL_DET_MATCH
                check("mg", ok, lambda g: f"determinant mismatch {_determinant_gap(g.params):.3g}")
        else:
            for kind in ("u1", "u2", "cu1"):
                m = live.rows(kind).view(complex)
                if len(m):
                    d = math.isqrt(m.shape[1])
                    ok = algebra.unitary_deviation(m.reshape(-1, d, d)) <= algebra.TOL_UNITARY
                    check(kind, ok, lambda g: _not_unitary("matrix", g.params))
    found.sort(key=lambda f: f[0])
    gates = circuit.gates
    return [f"gate {first + i + 1} ({gates[first + i].kind}): {message}" for i, message in found]


def _require_flavor(circuit: Circuit, flavor: str) -> None:
    """Raise UsageError naming both flavors unless `circuit` is of `flavor`;
    an invalid circuit of the other flavor raises ValidationError first."""
    if circuit.flavor != flavor:
        validate_or_raise(circuit)
        named = {"mg": "an mg circuit", "qc": "a qc circuit"}
        raise UsageError(f"expected {named[flavor]}, got {named[circuit.flavor]}")


def _require_line(circuit: Circuit, k: int) -> None:
    """Raise UsageError unless line `k` is on the circuit; an invalid
    circuit raises ValidationError first."""
    if not 1 <= k <= circuit.width:
        validate_or_raise(circuit)
        raise UsageError(f"line {k} out of range 1..{circuit.width}")


def _header_violations(circuit: Circuit) -> list[str]:
    out: list[str] = []
    flavor = circuit.flavor
    width = circuit.width
    if width < 1:
        out.append(f"width must be >= 1, got {width}")
        return out
    if flavor == "mg" and width < 2:
        out.append(f"matchgate circuits need width >= 2, got {width}")
    if len(circuit.input) != width:
        out.append(f"input length {len(circuit.input)} != width {width}")
    if set(circuit.input) - {"0", "1"}:
        out.append(f"input must be a bit string, got {circuit.input!r}")
    if flavor == "mg" and not 1 <= circuit.measure_line <= width:
        out.append(f"measure line {circuit.measure_line} out of range 1..{width}")
    return out


def validate(circuit: Circuit) -> list[str]:
    """Collect every invariant violation in the circuit (empty list == valid).

    Checks width and input shape, line ranges, gate arity, parameter counts
    and finiteness, unitarity of explicit matrices (tolerance 1e-9), the
    matchgate determinant condition, and for mg circuits that every line is
    touched unless `allow_idle` is set.

    Gates of both flavors are checked as arrays, 512 at a time; a gate reports
    its first structural failure, or else any plane, unitarity and determinant failures.
    A circuit whose header fails is reported by its header alone.
    """
    out = _header_violations(circuit)
    if out:  # before the idle check allocates by a width the input may not bear out
        return out
    width = circuit.width
    idle_check = circuit.flavor == "mg" and not circuit.allow_idle
    touched = np.zeros(width + 2, dtype=bool) if idle_check else None
    for lo, cols in _gate_chunks(circuit.gates, _VALIDATE_CHUNK):
        out += _chunk_violations(circuit, lo, cols, touched)
    if idle_check:
        idle = (np.flatnonzero(~touched[1 : width + 1]) + 1).tolist()
        if idle:
            out.append(f"idle line(s) {idle} (set idle=1 to permit)")
    return out


def validate_or_raise(circuit: Circuit) -> None:
    """Raise ValidationError unless `circuit` passes `validate`.

    Circuits and their gates are frozen and hold only ints, floats and
    strings, so a pass is recorded on the circuit object and a later call on
    the same object returns at once.  A failure is not recorded.
    """
    if getattr(circuit, "_valid", False):
        return
    violations = validate(circuit)
    if violations:
        raise ValidationError(violations)
    _mark_valid(circuit)


def _mark_valid(circuit: C) -> C:
    """Record `circuit` as passing `validate`, as `validate_or_raise` does.

    For a circuit a library function built from one it had just validated,
    by steps that keep every invariant, so no later call checks it again.
    """
    object.__setattr__(circuit, "_valid", True)
    return circuit


# ---------------------------------------------------------------------------
# text format


# serialize_circuit writes a table this many gates at a time, so that its
# scratch arrays stay bounded while the text grows.
_TABLE_CHUNK = 1 << 16


def _refuse(index: int, g: GateApp) -> None:
    """Raise ValueError naming gate `index` (1-based) if the text would carry
    it as another gate or as a line the parser refuses."""
    problem = _misshapen(g)
    if not problem and g.kind == "rot":
        plane = g.params[0]
        if not (plane.is_integer() and (plane or math.copysign(1, plane) > 0)):
            problem = f"plane must be an integer, got {plane!r}"  # -0.0 would read back as 0.0
    if not problem and not all(abs(line) < _LINE_LIMIT for line in g.lines):
        problem = f"line out of range +-{_LINE_LIMIT}"  # a table holds it clipped
    if problem:
        raise ValueError(f"gate {index} ({g.kind}): {problem}")


def _refused(table: GateColumns) -> np.ndarray:
    """Whether `_refuse` refuses each gate of a table."""
    kinds, lines, params, _, param_at = table
    refused = kinds < 0
    rot = np.flatnonzero(kinds == KIND_CODES["rot"])
    plane = params[param_at[rot]]
    integral = (plane == np.trunc(plane)) & np.isfinite(plane)
    refused[rot[~integral | ((plane == 0) & np.signbit(plane))]] = True
    refused[np.repeat(np.arange(len(kinds)), _NLINES[kinds])[np.abs(lines) >= _LINE_LIMIT]] = True
    return refused


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
        held = np.flatnonzero(np.concatenate([refused[a : a + n] for a, n in zip(first, counts)]))
        if len(held):
            _refuse(int(held[0]) + 1, gates[int(held[0])])
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

    The gate lines, comments cut, are read straight into one GateColumns
    table (`_read_table`); text that reader is not sure of goes through the
    line parser instead, which words the error and its line.  The returned
    circuit has passed `validate`.
    """
    rows = text.splitlines()
    read = _read_table([row.split("#", 1)[0] for row in rows] if "#" in text else rows)
    if read is None:
        header, header_line, gates = _read_lines(rows)
    else:
        header, header_line, table = read

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
    circuit = cls(width, gates if read is None else _ParsedGates(table), *rest)
    validate_or_raise(circuit)
    return circuit


def _read_lines(rows: list[str]) -> tuple[list[str], int, list[GateApp]]:
    """The line parser: header tokens, header line and gates, one line at a time."""
    header: list[str] | None = None
    header_line = 0
    gates: list[GateApp] = []
    for lineno, raw in enumerate(rows, start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if header is None:
            if toks[0] != "circuit":
                raise ParseError(f"expected 'circuit' header, got {toks[0]!r}", lineno)
            header = toks
            header_line = lineno
            continue
        gates.append(_parse_gate(toks, lineno))
    if header is None:
        raise ParseError("empty input: no circuit header")
    return header, header_line, gates


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


# Gate lines that _read_table reads at a time, so that its token strings stay
# few while the table grows.
_READ_BLOCK = 4096


def _read_table(rows: list[str]) -> tuple[list[str], int, GateColumns] | None:
    """Header tokens, header line and the gates as one table, or None at any doubt.

    Every gate line must be its kind's serializer form: the kind, its line
    numbers, then its fields in order, each value with the kind's count of
    reals.  An unknown kind, another token count, a field out of order or
    without its key, a value with another count of reals or a token that
    int() or float() refuses is a doubt.
    """
    at = next((i for i, row in enumerate(rows) if row.split()), None)
    header = rows[at].split() if at is not None else None
    if header is None or header[0] != "circuit":
        return None
    blocks = []
    for lo in range(at + 1, len(rows) + 1, _READ_BLOCK):  # at least one block, maybe empty
        block = _read_block(rows[lo : lo + _READ_BLOCK])
        if block is None:
            return None
        blocks.append(block)
    return header, at + 1, _table(*map(np.concatenate, zip(*blocks)))


def _read_block(rows: list[str]) -> tuple[np.ndarray, ...] | None:
    """Kinds, lines and parameters of some gate lines, or None at any doubt.
    Lines and rot planes are read by int() and the reals by float(), one map
    each, so values are exactly the line parser's."""
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


def _parse_gate(toks: list[str], lineno: int) -> GateApp:
    kind = toks[0]
    sig = GATE_KINDS.get(kind)
    if sig is None:
        raise ParseError(f"unknown gate kind {kind!r}", lineno)
    _, nlines, nparams = sig
    if len(toks) < 1 + nlines:
        raise ParseError(f"{kind} needs {nlines} line argument(s)", lineno)
    try:
        lines = tuple(map(int, toks[1 : 1 + nlines]))
    except ValueError:  # name the first bad token
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
    return GateApp(kind, lines, params)
