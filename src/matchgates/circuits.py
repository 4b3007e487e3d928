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
repr(), which round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from . import algebra

__all__ = [
    "CircuitError",
    "ParseError",
    "ValidationError",
    "GuardError",
    "GateApp",
    "MatchgateCircuit",
    "GeneralCircuit",
    "GATE_KINDS",
    "gate_matrix",
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
        object.__setattr__(self, "lines", tuple(int(l) for l in self.lines))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


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
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class GeneralCircuit:
    """A general circuit on `width` qubits applied to the basis input state."""

    width: int
    gates: tuple[GateApp, ...]
    input: str
    flavor: str = field(default="qc", init=False, repr=False)

    def __post_init__(self):
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
    m = np.asarray(m, dtype=complex).ravel()
    out: list[float] = []
    for z in m:
        out.append(float(z.real))
        out.append(float(z.imag))
    return tuple(out)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def gate_matrix(gate: GateApp) -> np.ndarray:
    """The dense unitary for one gate application (4x4 or 2x2, complex).

    For `cu1` the full controlled 4x4 matrix is returned, control on the
    first listed line being the more significant factor.
    """
    kind = gate.kind
    if kind == "w":
        return algebra.FERMIONIC_SWAP.copy()
    if kind == "gxx":
        return algebra.GXX.copy()
    if kind == "rot":
        plane = int(gate.params[0])
        return algebra.rotation_generator_exponential(plane, gate.params[1])
    if kind == "mg":
        a = complex_from_reals(gate.params[:8])
        b = complex_from_reals(gate.params[8:])
        return algebra.make_matchgate(a, b)
    if kind == "x":
        return algebra.PAULI_X.copy()
    if kind == "h":
        return _HADAMARD.copy()
    if kind == "u1":
        return complex_from_reals(gate.params)
    if kind == "u2":
        return complex_from_reals(gate.params)
    if kind == "cu1":
        u = complex_from_reals(gate.params)
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = u
        return out
    raise ValueError(f"unknown gate kind {kind!r}")


_BATCH_THRESHOLD = 512
_SCREEN_CHUNK = 512

# Codes of the mg-flavor kinds in MgColumns.kinds, and their parameter counts.
MG_KIND_CODES = {"w": 0, "gxx": 1, "rot": 2, "mg": 3}
_MG_NPARAMS = np.array([GATE_KINDS[k][2] for k in MG_KIND_CODES])


class MgColumns(NamedTuple):
    """A run of mg-flavor gates as arrays, in circuit order.

    `kinds` holds MG_KIND_CODES, `lines` the lower line k of each gate, `rot`
    the (plane, theta) rows of the `rot` gates and `mg` the 16 reals of the
    `mg` gates.
    """

    kinds: np.ndarray
    lines: np.ndarray
    rot: np.ndarray
    mg: np.ndarray


def _read_mg_chunk(chunk: tuple[GateApp, ...]) -> MgColumns | None:
    """Read gates into columns in one pass over their parameters.

    Returns None when some gate has a kind, line count or parameter count
    that no mg-flavor gate has; the per-gate checks reject such a gate.
    """
    n = len(chunk)
    kinds = np.fromiter([MG_KIND_CODES.get(g.kind, -1) for g in chunk], np.int8, n)
    if (kinds < 0).any():
        return None
    lines = [g.lines for g in chunk]
    params = [g.params for g in chunk]
    nparams = _MG_NPARAMS[kinds]
    if (np.fromiter(map(len, lines), np.intp, n) != 1).any() or (
        np.fromiter(map(len, params), np.intp, n) != nparams
    ).any():
        return None
    try:
        line_col = np.fromiter(chain.from_iterable(lines), np.int64, n)
    except OverflowError:  # a line beyond int64 is out of range
        return None
    flat = np.fromiter(chain.from_iterable(params), float, int(nparams.sum()))
    starts = np.cumsum(nparams) - nparams
    rot_at = starts[kinds == MG_KIND_CODES["rot"]]
    mg_at = starts[kinds == MG_KIND_CODES["mg"]]
    return MgColumns(
        kinds,
        line_col,
        flat[rot_at[:, None] + np.arange(2)],
        flat[mg_at[:, None] + np.arange(16)],
    )


def _mg_chunk_is_clean(cols: MgColumns, width: int) -> bool:
    """The per-gate invariants, checked on whole arrays.

    True when every gate provably passes; any doubt (including NaN from
    overflowing products, hence the `not x <= tol` form) returns False.
    """
    lines, rot, mg = cols.lines, cols.rot, cols.mg
    if lines.min() < 1 or lines.max() > width - 1:
        return False
    if not (np.isfinite(rot).all() and np.isfinite(mg).all()):
        return False
    planes = rot[:, 0]
    if not ((planes == np.round(planes)) & (planes >= 1) & (planes <= 6)).all():
        return False
    blocks = mg.view(complex).reshape(-1, 2, 2)  # a-blocks and b-blocks interleaved
    p, q, r, s = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    with np.errstate(all="ignore"):
        # The entries of U^dag U - 1: two diagonal, one off-diagonal pair.
        devs = (
            (p.conj() * p + r.conj() * r).real - 1.0,
            (q.conj() * q + s.conj() * s).real - 1.0,
            p.conj() * q + r.conj() * s,
        )
        if not all(np.abs(d).max(initial=0.0) <= algebra.TOL_UNITARY for d in devs):
            return False
        dets = p * s - q * r
        return bool(np.abs(dets[0::2] - dets[1::2]).max(initial=0.0) <= algebra.TOL_DET_MATCH)


def _screen_mg_batch(circuit: MatchgateCircuit) -> bool:
    """Vectorized all-clear check for large mg circuits.

    Returns True when every gate provably satisfies the invariants, so the
    per-gate loop (which exists to produce precise messages) can be skipped;
    any doubt returns False.  Works on fixed-size chunks so validation
    memory stays constant in the gate count (the compilers validate while
    streaming and must not buffer the whole circuit's worth of scratch).
    """
    width = circuit.width
    gates = circuit.gates
    touched = np.zeros(width + 2, dtype=bool)
    for lo in range(0, len(gates), _SCREEN_CHUNK):
        cols = _read_mg_chunk(gates[lo : lo + _SCREEN_CHUNK])
        if cols is None or not _mg_chunk_is_clean(cols, width):
            return False
        touched[cols.lines] = touched[cols.lines + 1] = True
    return circuit.allow_idle or bool(touched[1 : width + 1].all())


def mg_runs_last_first(circuit: MatchgateCircuit, size: int) -> Iterator[MgColumns]:
    """The gates of a matchgate circuit as validated runs of `size` gates,
    the last run first (the order reverse propagation consumes them in).

    Header fields are checked at the call.  Each run is read once and, unless
    the circuit already passed `validate_or_raise`, screened by the array
    checks of `validate`.  At the first doubt the whole circuit goes through
    `validate_or_raise`, so an invalid circuit raises ValidationError with
    validate's messages, possibly after later runs were yielded.
    """
    if _header_violations(circuit):
        validate_or_raise(circuit)
    return _mg_runs_last_first(circuit, size)


def _mg_runs_last_first(circuit: MatchgateCircuit, size: int) -> Iterator[MgColumns]:
    width = circuit.width
    gates = circuit.gates
    checked = getattr(circuit, "_valid", False)
    touched = np.zeros(width + 2, dtype=bool)
    for lo in reversed(range(0, len(gates), size)):
        cols = _read_mg_chunk(gates[lo : lo + size])
        if not checked and (cols is None or not _mg_chunk_is_clean(cols, width)):
            validate_or_raise(circuit)
            checked = True
        if cols is None:
            raise ValueError(f"{circuit.flavor} circuit holds gates of another flavor")
        touched[cols.lines] = touched[cols.lines + 1] = True
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

    Large matchgate circuits are screened by one vectorized pass; the
    per-gate loop runs only when that pass cannot certify the circuit.
    """
    out = _header_violations(circuit)
    flavor = circuit.flavor
    width = circuit.width
    if width < 1:
        return out

    if (
        not out
        and flavor == "mg"
        and len(circuit.gates) >= _BATCH_THRESHOLD
        and _screen_mg_batch(circuit)
    ):
        return out

    touched: set[int] = set()
    for idx, g in enumerate(circuit.gates, start=1):
        label = f"gate {idx} ({g.kind})"
        sig = GATE_KINDS.get(g.kind)
        if sig is None:
            out.append(f"{label}: unknown kind")
            continue
        kind_flavor, nlines, nparams = sig
        if kind_flavor != flavor:
            out.append(f"{label}: not a {flavor} gate")
            continue
        if len(g.lines) != nlines:
            out.append(f"{label}: expected {nlines} line(s), got {len(g.lines)}")
            continue
        if len(g.params) != nparams:
            out.append(f"{label}: expected {nparams} parameter(s), got {len(g.params)}")
            continue
        if not all(math.isfinite(p) for p in g.params):
            out.append(f"{label}: non-finite parameter")
            continue
        if flavor == "mg":
            k = g.lines[0]
            if not 1 <= k <= width - 1:
                out.append(f"{label}: line {k} out of range 1..{width - 1}")
                continue
            touched.update((k, k + 1))
        else:
            if any(not 1 <= q <= width for q in g.lines):
                out.append(f"{label}: line out of range 1..{width}")
                continue
            if len(set(g.lines)) != len(g.lines):
                out.append(f"{label}: repeated line")
                continue
            touched.update(g.lines)

        if g.kind == "rot":
            plane = g.params[0]
            if plane != int(plane) or not 1 <= int(plane) <= 6:
                out.append(f"{label}: plane must be an integer in 1..6, got {plane}")
        elif g.kind == "mg":
            a = complex_from_reals(g.params[:8])
            b = complex_from_reals(g.params[8:])
            for name, m in (("a", a), ("b", b)):
                dev = algebra.unitary_deviation(m)
                if not dev <= algebra.TOL_UNITARY:
                    out.append(f"{label}: block {name} not unitary (deviation {dev:.3g})")
            gap = abs(np.linalg.det(a) - np.linalg.det(b))
            if not gap <= algebra.TOL_DET_MATCH:
                out.append(f"{label}: determinant mismatch {gap:.3g}")
        elif g.kind in ("u1", "u2", "cu1"):
            m = complex_from_reals(g.params)
            dev = algebra.unitary_deviation(m)
            if not dev <= algebra.TOL_UNITARY:
                out.append(f"{label}: matrix not unitary (deviation {dev:.3g})")

    if flavor == "mg" and not circuit.allow_idle:
        idle = sorted(set(range(1, width + 1)) - touched)
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


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format (always ends with a newline)."""
    head = [f"circuit {circuit.flavor}", f"width={circuit.width}", f"input={circuit.input}"]
    if circuit.flavor == "mg":
        head.append(f"measure={circuit.measure_line}")
        if circuit.allow_idle:
            head.append("idle=1")
    lines = [" ".join(head)]
    for g in circuit.gates:
        toks = [g.kind] + [str(l) for l in g.lines]
        if g.kind == "rot":
            toks.append(f"plane={int(g.params[0])}")
            toks.append(f"theta={_fmt(g.params[1])}")
        elif g.kind == "mg":
            toks.append("a=" + ",".join(_fmt(p) for p in g.params[:8]))
            toks.append("b=" + ",".join(_fmt(p) for p in g.params[8:]))
        elif g.kind in ("u1", "u2", "cu1"):
            toks.append("m=" + ",".join(_fmt(p) for p in g.params))
        lines.append(" ".join(toks))
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
        return tuple(float(t) for t in val.split(","))
    except ValueError:
        raise ParseError(f"bad {what} value {val!r}", lineno) from None


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises ParseError / ValidationError.

    The returned circuit has passed `validate`.
    """
    header: list[str] | None = None
    header_line = 0
    gates: list[GateApp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if header is None:
            if toks[0] != "circuit":
                raise ParseError(f"expected 'circuit' header, got {toks[0]!r}", lineno)
            header = toks
            header_line = lineno
            continue
        gates.append(_parse_gate(toks, lineno))
    if header is None:
        raise ParseError("empty input: no circuit header")

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

    circuit: Circuit
    if flavor == "mg":
        if "measure" not in fields:
            raise ParseError("mg header needs measure=", header_line)
        measure = _parse_int(fields["measure"], "measure", header_line)
        idle = _parse_int(fields.get("idle", "0"), "idle", header_line)
        if idle not in (0, 1):
            raise ParseError("idle must be 0 or 1", header_line)
        circuit = MatchgateCircuit(width, tuple(gates), inp, measure, bool(idle))
    else:
        if "measure" in fields or "idle" in fields:
            raise ParseError("measure=/idle= apply only to mg circuits", header_line)
        circuit = GeneralCircuit(width, tuple(gates), inp)
    validate_or_raise(circuit)
    return circuit


def _parse_gate(toks: list[str], lineno: int) -> GateApp:
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
    return GateApp(kind, lines, params)
