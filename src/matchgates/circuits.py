"""Circuit containers, validation and gate matrices.

Two circuit flavors share one gate-application type:

  * `mg`: nearest-neighbour matchgate circuits.  Every gate occupies an
    adjacent line pair (k, k+1) and is recorded by its lower line k.  These
    circuits carry a classical input bit string and a measured line.
  * `qc`: general circuits built from x / h and explicit one- and two-qubit
    unitaries (`u1`, `u2`) plus the controlled one-qubit gate `cu1`.

Every circuit holds its `gates` as row ranges of GateColumns tables, each
row holding its kind's counts of lines and parameters (`read_gates` makes a
gate built in code without them a -1 row, empty), behind a sequence that
equals, hashes and prints as the GateApp tuple.  Inside the library a gate
is a table row: GateApps are built only for callers who hand them to a
circuit, read its `gates`, or call `compress_gate_stream`,
`gray_converter_circuit` or `two_level_to_matchgates`; parsed text is read
into table rows.  The text format is `textformat`, whose `parse_circuit`
and `serialize_circuit` are importable from here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
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
    concatenates the pieces when first asked for.  len() builds nothing;
    any other use of the gates builds the flat GateApp tuple from the table
    once.  Gates read from one GateApp tuple that the table cannot give back
    keep it: a row `_refused` marks reads back as "?" or clipped, and a NaN
    as another NaN.  Such gates are invalid, only ever validated or refused."""

    __slots__ = ("pieces", "_len", "_table", "_built")

    def __init__(self, *parts: _Piece | GateColumns | Sequence[GateApp]):
        """The gates of `parts` end to end: pieces, tables, the pieces of
        other such sequences, or GateApps, each read as one table."""
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
        one, table = parts[0] if len(parts) == 1 else None, pieces[0].block
        lossy = type(one) is tuple and (_refused(table).any() or not np.isfinite(table.params).all())
        self._built: tuple[GateApp, ...] | None = one if lossy else None

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


# Validation and `light_cone` read this many gates at a time, so their scratch
# memory does not grow with the gate count: compress validates and scans its
# input inside the traced window of the flat-memory criterion (09), whose
# peak a larger run raises.  expand's cone scan reads its swap networks in
# runs of about this many swaps.
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

    def take(self, rows: np.ndarray) -> GateColumns:
        """The gates at `rows`, in that order, as a table of their own."""
        kinds = self.kinds[rows]
        lines = self.lines[_ranges(self.line_at[rows], _NLINES[kinds])]
        return _table(kinds, lines, self.params[_ranges(self.param_at[rows], _NPARAMS[kinds])])

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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices starts[i] .. starts[i] + counts[i] - 1 of every i, end to end."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _table(kinds: np.ndarray, lines: np.ndarray, params: np.ndarray) -> GateColumns:
    """Gates as a table, each row holding its kind's counts, which fix the offsets."""
    line_at, param_at = (np.cumsum(counts) - counts for counts in (_NLINES[kinds], _NPARAMS[kinds]))
    return GateColumns(kinds, lines, params, line_at, param_at)


def _table_of(gates: list[tuple]) -> GateColumns:
    """Gates given as (kind, lines, reals), each with its kind's counts, as a table."""
    kinds = np.array([KIND_CODES[g[0]] for g in gates], np.intp)
    lines = np.fromiter(chain.from_iterable(g[1] for g in gates), np.int64)
    return _table(kinds, lines, np.fromiter(chain.from_iterable(g[2] for g in gates), float))


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


def _refused(table: GateColumns) -> np.ndarray:
    """Whether the text format refuses each gate of a table (`textformat._refuse`)."""
    kinds, lines, params, _, param_at = table
    refused = kinds < 0
    rot = np.flatnonzero(kinds == KIND_CODES["rot"])
    plane = params[param_at[rot]]
    integral = (plane == np.trunc(plane)) & np.isfinite(plane)
    refused[rot[~integral | ((plane == 0) & np.signbit(plane))]] = True
    refused[np.repeat(np.arange(len(kinds)), _NLINES[kinds])[np.abs(lines) >= _LINE_LIMIT]] = True
    return refused


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
    gates: _ParsedGates, size: int, last_first: bool = False
) -> Iterator[tuple[int, GateColumns]]:
    """(index of the first gate, columns) of each run of `size` gates, in
    circuit order or the last run first: slices of the gates' table."""
    starts = range(0, len(gates), size)
    for lo in reversed(starts) if last_first else starts:
        yield lo, gates.table.part(lo, lo + size)


# How a gate moves the support of a backward light cone (`_cone_moves`), by
# kind code: it keeps it, exchanges its two lines' membership, or adds both
# (a rot in plane 1 or 6 keeps it).
_KEEPS, _SWAPS, _SPREADS = 0, 1, 2
_CONE_EFFECT = np.array(
    [_SWAPS if k == "w" else _KEEPS if k == "gxx" or sig[:2] == ("qc", 1) else _SPREADS
     for k, sig in GATE_KINDS.items()] + [_SPREADS]
)
_PAIRED = _FLAVOR == "mg"  # kinds that act on the pair of their one line and the next


def _cone_moves(cols: GateColumns) -> tuple[list[int], list[int], list[int]]:
    """How each gate of a table moves the support of a backward light cone
    (`_KEEPS`, `_SWAPS` or `_SPREADS`) and the two lines it meets, as lists.

    An mg gate acts on its pair (k, k+1).  `w` only exchanges the two lines'
    dimensions, so it exchanges their membership; `gxx` is diagonal and a
    `rot` in plane 1 or 6 stays within one line, so they leave it as it is;
    every other mg kind adds both lines.  A one-line qc gate leaves the
    support as it is and a two-line one adds both its lines.
    """
    kinds, at = cols.kinds, cols.line_at
    effect = _CONE_EFFECT[kinds]
    rot = np.flatnonzero(kinds == KIND_CODES["rot"])
    plane = cols.params[cols.param_at[rot]]
    effect[rot[(plane == 1) | (plane == 6)]] = _KEEPS
    first = cols.lines[at]
    second = np.where(_PAIRED[kinds], first + 1, cols.lines[at + _NLINES[kinds] - 1])
    return effect.tolist(), first.tolist(), second.tolist()


def _cone_scan(moves: tuple[list[int], list[int], list[int]], support: list[bool]) -> list[int]:
    """The gates, last first, that a backward light cone keeps: scanned last
    gate first, a gate (its `_cone_moves`) is kept iff it meets `support`,
    which it then moves in place."""
    effect, first, second = moves
    kept = []
    for i in range(len(effect) - 1, -1, -1):
        a, b = first[i], second[i]
        if support[a] or support[b]:
            kept.append(i)
            if effect[i] == _SWAPS:
                support[a], support[b] = support[b], support[a]
            elif effect[i] == _SPREADS:
                support[a] = support[b] = True
    return kept


def light_cone(gates: _ParsedGates, width: int, line: int) -> np.ndarray:
    """Whether each of a valid circuit's gates lies in the backward light
    cone of `line`'s readout on `width` lines: a gate outside it never meets
    the lines its later gates carry the readout to, so it cannot change it.

    One scan (`_cone_scan`), last gate first, over a set of support lines
    that starts as `line`: a gate is kept iff it meets the support, and then
    moves it as `_cone_moves` says.
    """
    support = [False] * (width + 2)
    support[line] = True
    keep = np.zeros(len(gates), dtype=bool)
    for lo, cols in _gate_chunks(gates, _VALIDATE_CHUNK, last_first=True):
        keep[np.array(_cone_scan(_cone_moves(cols), support), dtype=np.intp) + lo] = True
    return keep


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _constant(m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rows: np.repeat(m[None], len(rows), axis=0)


def _mg_matrices(rows: np.ndarray) -> np.ndarray:
    """G(A, B) of each row a00 .. b11, in the layout of `algebra.make_matchgate`."""
    g = np.zeros((len(rows), 4, 4), dtype=complex)
    g[:, algebra.MG_ROWS, algebra.MG_COLS] = rows.view(complex)
    return g


def _controlled_matrices(blocks: np.ndarray) -> np.ndarray:
    """The controlled 4x4 of each 2x2 target block, control the first factor."""
    g = np.zeros((len(blocks), 4, 4), dtype=complex)
    g[:, 0, 0] = g[:, 1, 1] = 1.0
    g[:, 2:, 2:] = blocks
    return g


def _unitaries(d: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rows: rows.view(complex).reshape(-1, d, d)


# kind -> the matrix each of its gates applies where it acts, one per row of
# GateColumns.rows(kind): a cu1 gate's is its 2x2 target block, which acts
# where its control reads 1.
_BLOCKS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "w": _constant(algebra.FERMIONIC_SWAP),
    "gxx": _constant(algebra.GXX),
    "rot": lambda rows: algebra.rotation_generator_exponential(rows[:, 0], rows[:, 1]),
    "mg": _mg_matrices,
    "x": _constant(algebra.PAULI_X),
    "h": _constant(_HADAMARD),
    "u1": _unitaries(2),
    "u2": _unitaries(4),
    "cu1": _unitaries(2),
}
# kind -> the dense matrices of its gates: a cu1 gate's is its full controlled 4x4.
_MATRICES = {**_BLOCKS, "cu1": lambda rows: _controlled_matrices(_BLOCKS["cu1"](rows))}


def _by_kind(
    cols: GateColumns, makers: dict[str, Callable[[np.ndarray], np.ndarray]]
) -> list[np.ndarray]:
    """Each gate's matrix in gate order, built for all gates of one kind at once."""
    kinds = cols.kinds
    if (kinds < 0).any():
        raise ValueError("unknown gate kind")
    out: list[np.ndarray] = [None] * len(kinds)
    for code in set(kinds.tolist()):
        kind = _KIND_NAMES[code]
        for i, m in zip(np.flatnonzero(kinds == code).tolist(), makers[kind](cols.rows(kind))):
            out[i] = m
    return out


def gate_matrices(cols: GateColumns) -> list[np.ndarray]:
    """The dense unitary of every gate in a table, in gate order (4x4 or 2x2,
    complex), built for all gates of one kind at once.

    For `cu1` the full controlled 4x4 matrix is returned, control on the
    first listed line being the more significant factor.  ValueError for a
    -1 row (an unknown kind or a misshapen gate), a rot plane that is not an
    integer in 1..6 or a non-finite rot angle.
    """
    return _by_kind(cols, _MATRICES)


def _gate_blocks(cols: GateColumns) -> list[np.ndarray]:
    """`gate_matrices`, but a `cu1` gate's matrix is its 2x2 target block:
    the unitary it applies to the amplitudes whose control reads 1."""
    return _by_kind(cols, _BLOCKS)


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
    which_line = "line {0}" if flavor == "mg" else "line"
    # (failing gates, message) in check order; a gate reports the first it fails.
    structure = (
        (nonfinite, "non-finite parameter"),
        (out_of_range, which_line + " out of range 1..{top}"),
        ((nlines > 1) & (lo == hi), "repeated line"),
    )
    misfit = (_FLAVOR != flavor)[kinds]  # -1 rows too
    failed = np.logical_or.reduce([misfit, *(bad for bad, _ in structure)])
    found = []  # (gate, kind, message)
    for i in np.flatnonzero(failed).tolist():
        kind, ends = _KIND_NAMES[kinds[i]], (lo[i], hi[i])
        problem = misfit[i] and f"not a {flavor} gate"
        if kinds[i] < 0 or max(abs(int(end)) for end in ends) >= _LINE_LIMIT:
            g = circuit.gates[first + i]  # a row the table cannot hold: the caller's gate, kept
            kind, problem, ends = g.kind, _misshapen(g, flavor), g.lines
        rest = next((message for bad, message in structure if bad[i]), "")
        found.append((i, kind, problem or rest.format(*ends, top=top)))
    if touched is not None:
        k = lo[~failed]
        touched[k] = touched[k + 1] = True
    live = cols._replace(kinds=np.where(failed, -1, kinds)) if found else cols

    def check(kind, ok, message):
        if not ok.all():
            rows = np.flatnonzero(live.kinds == KIND_CODES[kind])[~ok].tolist()
            found.extend((i, kind, message(p)) for i, p in zip(rows, live.rows(kind)[~ok].tolist()))

    with np.errstate(all="ignore"):
        if flavor == "mg":
            plane = live.rows("rot")[:, 0]
            ok = (plane == np.trunc(plane)) & (plane >= 1) & (plane <= 6)
            check("rot", ok, lambda p: f"plane must be an integer in 1..6, got {p[0]}")
            blocks = live.rows("mg").view(complex).reshape(-1, 2, 2)  # a, b, a, b, ...
            if len(blocks):
                unitary = algebra.unitary_deviation(blocks).reshape(-1, 2) <= algebra.TOL_UNITARY
                check("mg", unitary[:, 0], lambda p: _not_unitary("block a", p[:8]))
                check("mg", unitary[:, 1], lambda p: _not_unitary("block b", p[8:]))
                dets = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
                ok = np.abs(dets[0::2] - dets[1::2]) <= algebra.TOL_DET_MATCH
                check("mg", ok, lambda p: f"determinant mismatch {_determinant_gap(p):.3g}")
        else:
            for kind in ("u1", "u2", "cu1"):
                m = live.rows(kind).view(complex)
                if len(m):
                    d = math.isqrt(m.shape[1])
                    ok = algebra.unitary_deviation(m.reshape(-1, d, d)) <= algebra.TOL_UNITARY
                    check(kind, ok, lambda p: _not_unitary("matrix", p))
    found.sort(key=lambda f: f[0])
    return [f"gate {first + i + 1} ({kind}): {message}" for i, kind, message in found]


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


# The text format reads and writes these circuits, so it imports this module;
# its entry points stay importable from here.
from .textformat import parse_circuit, serialize_circuit  # noqa: E402
