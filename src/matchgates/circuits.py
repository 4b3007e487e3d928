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
one GateColumns table; a parsed circuit's `gates` is a sequence over that
table that equals, hashes and prints as the GateApp tuple, built only when
the gates themselves are read.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from collections.abc import Sequence
from typing import Callable, Iterator, NamedTuple

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


class _ParsedGates(Sequence):
    """The gates of a parsed circuit: its GateColumns `table`, read by
    `validate` and the simulation, behind a read-only sequence that equals
    the GateApp tuple.  Any use but len() builds that tuple once."""

    __slots__ = ("table", "_built")

    def __init__(self, table: GateColumns):
        self.table = table
        self._built: tuple[GateApp, ...] | None = None

    @property
    def _gates(self) -> tuple[GateApp, ...]:
        if self._built is None:
            self._built = _gate_apps(self.table)
        return self._built

    def __len__(self) -> int:
        return len(self.table.kinds)

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
    gates: tuple[GateApp, ...]
    input: str
    measure_line: int = 1
    allow_idle: bool = False
    flavor: str = field(default="mg", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.gates, _ParsedGates):
            object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class GeneralCircuit:
    """A general circuit on `width` qubits applied to the basis input state."""

    width: int
    gates: tuple[GateApp, ...]
    input: str
    flavor: str = field(default="qc", init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.gates, _ParsedGates):
            object.__setattr__(self, "gates", tuple(self.gates))


Circuit = MatchgateCircuit | GeneralCircuit


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
# grow with the gate count (the compilers validate while streaming).
_VALIDATE_CHUNK = 512

# Kind codes (positions in GATE_KINDS) and, by code, each kind's signature;
# code -1 (an unknown kind) reads the last entry, which matches no gate.
KIND_CODES = {kind: code for code, kind in enumerate(GATE_KINDS)}
_KIND_NAMES = tuple(GATE_KINDS)
_FLAVOR, _NLINES, _NPARAMS = map(np.array, zip(*GATE_KINDS.values(), ("", -1, -1)))


class GateColumns(NamedTuple):
    """A run of gates as arrays, in circuit order.

    `kinds` holds KIND_CODES (-1 for an unknown kind); `lines` and `params`
    hold every gate's lines and parameters end to end, `nlines` and
    `nparams` their counts per gate, and `line_at` and `param_at` the
    offsets of each gate's first line and parameter.
    """

    kinds: np.ndarray
    nlines: np.ndarray
    nparams: np.ndarray
    lines: np.ndarray
    params: np.ndarray
    line_at: np.ndarray
    param_at: np.ndarray

    def rows(self, kind: str) -> np.ndarray:
        """The parameters of every `kind` gate, one row per gate; each must
        have the kind's parameter count."""
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
        return _cut(self.lines.tolist(), self.line_at, self.nlines)

    def part(self, lo: int, hi: int) -> GateColumns:
        """Gates lo .. hi - 1 (hi clipped to the gate count, lo below it)."""
        hi = min(hi, len(self.kinds))
        l0, l1 = self.line_at[lo], self.line_at[hi - 1] + self.nlines[hi - 1]
        p0, p1 = self.param_at[lo], self.param_at[hi - 1] + self.nparams[hi - 1]
        return GateColumns(
            self.kinds[lo:hi],
            self.nlines[lo:hi],
            self.nparams[lo:hi],
            self.lines[l0:l1],
            self.params[p0:p1],
            self.line_at[lo:hi] - l0,
            self.param_at[lo:hi] - p0,
        )


def _columns(kinds, nlines, nparams, lines, params) -> GateColumns:
    line_at, param_at = np.cumsum(nlines) - nlines, np.cumsum(nparams) - nparams
    return GateColumns(kinds, nlines, nparams, lines, params, line_at, param_at)


def read_gates(gates: tuple[GateApp, ...]) -> GateColumns:
    """Read gates into columns in one pass over their lines and parameters."""
    n = len(gates)
    kinds = np.fromiter([KIND_CODES.get(g.kind, -1) for g in gates], np.intp, n)
    lines = [g.lines for g in gates]
    params = [g.params for g in gates]
    nlines = np.fromiter(map(len, lines), np.intp, n)
    nparams = np.fromiter(map(len, params), np.intp, n)
    try:
        line_col = np.fromiter(chain.from_iterable(lines), np.int64, nlines.sum())
    except OverflowError:  # a line beyond int64 is out of range of every width
        big = np.array([*chain.from_iterable(lines)], dtype=object)
        line_col = np.clip(big, -(2**62), 2**62).astype(np.int64)
    param_col = np.fromiter(chain.from_iterable(params), float, nparams.sum())
    return _columns(kinds, nlines, nparams, line_col, param_col)


def _cut(flat: list, at: np.ndarray, counts: np.ndarray) -> list[tuple]:
    """Each gate's run of `flat`, as a tuple."""
    return [tuple(flat[a:b]) for a, b in zip(at.tolist(), (at + counts).tolist())]


def _gate_apps(cols: GateColumns) -> tuple[GateApp, ...]:
    """The GateApps of a table of known kinds."""
    kinds = [_KIND_NAMES[c] for c in cols.kinds.tolist()]
    params = _cut(cols.params.tolist(), cols.param_at, cols.nparams)
    return tuple(map(_gate, kinds, cols.line_tuples(), params))


def _gate_chunks(
    gates: Sequence[GateApp], size: int, last_first: bool = False
) -> Iterator[tuple[int, GateColumns]]:
    """(index of the first gate, columns) of each run of `size` gates, in
    circuit order or the last run first: slices of a parsed circuit's table,
    or read from the GateApps of a circuit built in code."""
    starts = range(0, len(gates), size)
    for lo in reversed(starts) if last_first else starts:
        if isinstance(gates, _ParsedGates):
            yield lo, gates.table.part(lo, lo + size)
        else:
            yield lo, read_gates(gates[lo : lo + size])


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_PLANE_PRODUCTS = np.array(algebra.PLANE_PRODUCTS)


def _constant(m: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rows: np.repeat(m[None], len(rows), axis=0)


def _rot_matrices(rows: np.ndarray) -> np.ndarray:
    """cos(theta/2) 1 + sin(theta/2) c'_a c'_b, as in
    `algebra.rotation_generator_exponential`."""
    plane = rows[:, 0].astype(np.intp)
    if ((plane < 1) | (plane > 6)).any():
        raise ValueError("rot plane out of range 1..6")
    half = (rows[:, 1] / 2.0)[:, None, None]
    return np.cos(half) * np.eye(4) + np.sin(half) * _PLANE_PRODUCTS[plane - 1]


def _mg_matrices(rows: np.ndarray) -> np.ndarray:
    """G(A, B), laid out as `algebra.make_matchgate` lays it out."""
    blocks = rows.view(complex).reshape(-1, 2, 2, 2)  # a, b of each gate
    g = np.zeros((len(rows), 4, 4), dtype=complex)
    g[:, 0::3, 0::3] = blocks[:, 0]  # rows and columns 0 and 3
    g[:, 1:3, 1:3] = blocks[:, 1]
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
    "rot": _rot_matrices,
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
    first listed line being the more significant factor.  ValueError for an
    unknown kind, a parameter count that is not the kind's, or a rot plane
    outside 1..6.
    """
    kinds = cols.kinds
    if (kinds < 0).any():
        raise ValueError("unknown gate kind")
    if (cols.nparams != _NPARAMS[kinds]).any():
        raise ValueError("parameter count is not the kind's")
    out: list[np.ndarray] = [None] * len(kinds)
    for code in set(kinds.tolist()):
        kind = _KIND_NAMES[code]
        for i, m in zip(np.flatnonzero(kinds == code).tolist(), _MATRICES[kind](cols.rows(kind))):
            out[i] = m
    return out


def gate_matrix(gate: GateApp) -> np.ndarray:
    """The dense unitary for one gate application: `gate_matrices` of it alone.

    An `mg` gate's blocks are checked as `algebra.make_matchgate` checks them:
    ValueError if either is not unitary or their determinants differ.
    """
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    m = gate_matrices(read_gates((gate,)))[0]
    if gate.kind == "mg":
        algebra.make_matchgate(complex_from_reals(gate.params[:8]), complex_from_reals(gate.params[8:]))
    return m


def _deviations(m: np.ndarray) -> np.ndarray:
    """max |M^dag M - 1| of each matrix in a (k, d, d) stack, NaN where a product
    overflows; 2x2 stacks take the closed form, several times faster than matmul."""
    if m.shape[1] != 2:
        return np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(m.shape[1])).max(axis=(1, 2))
    p, q, r, s = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    # The entries of M^dag M - 1: two diagonal, one off-diagonal pair.
    dev = np.maximum(
        np.abs((p.conj() * p + r.conj() * r).real - 1.0),
        np.abs((q.conj() * q + s.conj() * s).real - 1.0),
    )
    return np.maximum(dev, np.abs(p.conj() * q + r.conj() * s))


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

    A gate reports only its first structural failure; a gate without one
    marks its lines in `touched` (when given) and has its rot plane,
    matrices and determinants checked, as `not x <= tol` so NaN fails.
    """
    flavor = circuit.flavor
    top = circuit.width - 1 if flavor == "mg" else circuit.width
    kinds, nlines, nparams = cols.kinds, cols.nlines, cols.nparams
    finite = np.isfinite(cols.params)
    nonfinite = np.zeros(len(kinds), dtype=bool)
    if not finite.all():
        nonfinite[np.repeat(np.arange(len(kinds)), nparams)[~finite]] = True
    # Every kind takes one or two lines, so the first and the last cover them
    # all; the padding keeps the reads for a gate without lines in bounds.
    lines = np.append(cols.lines, 0)
    lo, hi = lines[cols.line_at], lines[cols.line_at + nlines - 1]
    out_of_range = (np.minimum(lo, hi) < 1) | (np.maximum(lo, hi) > top)
    which_line = "line {g.lines[0]}" if flavor == "mg" else "line"
    # (failing gates, message) in check order; a gate reports the first it fails.
    structure = (
        (kinds < 0, "unknown kind"),
        ((_FLAVOR != flavor)[kinds], "not a {flavor} gate"),
        (nlines != _NLINES[kinds], "expected {want[1]} line(s), got {nlines}"),
        (nparams != _NPARAMS[kinds], "expected {want[2]} parameter(s), got {nparams}"),
        (nonfinite, "non-finite parameter"),
        (out_of_range, which_line + " out of range 1..{top}"),
        ((nlines > 1) & (lo == hi), "repeated line"),
    )
    failed = np.logical_or.reduce([bad for bad, _ in structure])
    found = []
    for i in np.flatnonzero(failed).tolist():
        g = circuit.gates[first + i]
        message = next(message for bad, message in structure if bad[i])
        want = GATE_KINDS.get(g.kind)
        counts = dict(nlines=len(g.lines), nparams=len(g.params))
        found.append((i, message.format(g=g, flavor=flavor, top=top, want=want, **counts)))
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
                unitary = _deviations(blocks).reshape(-1, 2) <= algebra.TOL_UNITARY
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
                    ok = _deviations(m.reshape(-1, d, d)) <= algebra.TOL_UNITARY
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


def mg_runs_last_first(circuit: MatchgateCircuit, size: int) -> Iterator[GateColumns]:
    """The gates of a matchgate circuit as validated runs of `size` gates,
    the last run first (the order reverse propagation consumes them in).

    Header fields are checked at the call.  Each run is read once and, unless
    the circuit already passed `validate_or_raise`, checked as `validate`
    checks its chunks.  At the first violation the whole circuit goes through
    `validate_or_raise`, so an invalid circuit raises ValidationError with
    validate's messages, possibly after later runs were yielded.
    """
    _require_flavor(circuit, "mg")
    if _header_violations(circuit):
        validate_or_raise(circuit)
    return _mg_runs_last_first(circuit, size)


def _mg_runs_last_first(circuit: MatchgateCircuit, size: int) -> Iterator[GateColumns]:
    width = circuit.width
    checked = getattr(circuit, "_valid", False)
    touched = np.zeros(width + 2, dtype=bool)
    for lo, cols in _gate_chunks(circuit.gates, size, last_first=True):
        if not checked and _chunk_violations(circuit, lo, cols, touched):
            validate_or_raise(circuit)
        yield cols
    if not (checked or circuit.allow_idle or touched[1 : width + 1].all()):
        validate_or_raise(circuit)


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
    """
    out = _header_violations(circuit)
    width = circuit.width
    if width < 1:
        return out
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
    object.__setattr__(circuit, "_valid", True)


# ---------------------------------------------------------------------------
# text format


# serialize_circuit keeps at most this many formatted gates, so a circuit
# whose gates never repeat is written in flat memory.
_GATE_CACHE_SIZE = 1024


def _gate_text(index: int, g: GateApp) -> str:
    """Gate `index` (1-based) as one line of the text format; ValueError for a
    gate that the text would carry as another gate or as a line the parser refuses."""
    sig, p = GATE_KINDS.get(g.kind), g.params
    if sig is None:
        problem = "unknown kind"
    elif len(g.lines) != sig[1]:
        problem = f"expected {sig[1]} line(s), got {len(g.lines)}"
    elif len(p) != sig[2]:
        problem = f"expected {sig[2]} parameter(s), got {len(p)}"
    elif g.kind == "rot" and not (p[0].is_integer() and (p[0] or math.copysign(1, p[0]) > 0)):
        problem = f"plane must be an integer, got {p[0]!r}"  # -0.0 would read back as 0.0
    else:
        problem = None
    if problem:
        raise ValueError(f"gate {index} ({g.kind}): {problem}")
    toks = [g.kind, *map(str, g.lines)]
    if g.kind == "rot":
        toks += (f"plane={int(p[0])}", f"theta={p[1]!r}")
    elif g.kind == "mg":
        toks += ("a=" + ",".join(map(repr, p[:8])), "b=" + ",".join(map(repr, p[8:])))
    elif g.kind in ("u1", "u2", "cu1"):
        toks.append("m=" + ",".join(map(repr, p)))
    return " ".join(toks)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format (always ends with a newline).

    Every float is written with repr(), so the text is fixed by the circuit's
    values bit for bit (-0.0 stays -0.0).  Each distinct gate is formatted
    once per call and its repeats are written from that text: the compilers
    emit a few hundred distinct gates many thousand times.  The cache key
    holds the parameters' packed bytes, since a float key would let 0.0
    stand in for -0.0.
    """
    head = [f"circuit {circuit.flavor}", f"width={circuit.width}", f"input={circuit.input}"]
    if circuit.flavor == "mg":
        head.append(f"measure={circuit.measure_line}")
        if circuit.allow_idle:
            head.append("idle=1")
    lines = [" ".join(head)]
    texts: dict[tuple[str, tuple[int, ...], bytes], str] = {}
    packers: dict[int, Callable[..., bytes]] = {}  # by parameter count
    for index, g in enumerate(circuit.gates, start=1):
        p = g.params
        pack = packers.get(len(p))
        if pack is None:
            pack = packers[len(p)] = struct.Struct(f"{len(p)}d").pack
        key = (g.kind, g.lines, pack(*p))
        text = texts.get(key)
        if text is None:
            if len(texts) == _GATE_CACHE_SIZE:
                texts.clear()
            text = texts[key] = _gate_text(index, g)
        lines.append(text)
    return "\n".join(lines) + "\n"


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
    circuit = cls(width, tuple(gates) if read is None else _ParsedGates(table), *rest)
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
    return header, at + 1, _columns(*map(np.concatenate, zip(*blocks)))


def _read_block(rows: list[str]) -> tuple[np.ndarray, ...] | None:
    """Kinds, line counts, parameter counts, lines and parameters of some gate
    lines, or None at any doubt.  Lines and rot planes are read by int() and
    the reals by float(), one map each, so values are exactly the line parser's."""
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
    return kinds, nlines, nparams, lines, params


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
