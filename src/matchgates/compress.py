"""Compile a standardized matchgate circuit onto exponentially fewer qubits.

A width-n matchgate circuit (all-zero input, line-1 readout, n a power of
two) fixes the rotation R in SO(2n) and the pairing matrix S.  Its readout
equals Re <0|V|0> for the real orthogonal V = S^{-1} R S R^{-1} acting on a
register of mu = log2(2n) qubits, with rotation dimension j carried by the
basis state whose label is the Gray code of j-1.  That real part is produced
by the standard one-ancilla interference ("Hadamard-test") pattern: an H on
the control line, V applied under that control, and a closing H.

Register layout (width mu + 2):
  line 1            control, measured
  lines 2 .. mu+1   data, Gray-label bit 1 (most significant) .. bit mu
  line mu+2         work ancilla, starts and ends in |0>

Controlled-V is streamed gate by gate.  Matchgate k acts on the window of
dimensions 2k-1 .. 2k+2, whose four Gray labels agree on every bit but the
last and one other.  So for each matchgate, once per pass, one AND of the
control line and the window's shared bits is computed into the work
ancilla, borrowing the two window lines as dirty scratch (at mu = 2 the
window shares no bit, and the control line itself is the AND).  Each plane
rotation of the matchgate's Givens factors is then a short conjugation
that aligns its two labels, a rotation controlled by the ancilla and the
other window bit (an exact five-gate network), and the conjugation undone.
The same AND gates then uncompute the ancilla.  Everything is decomposed
exactly to the cu1/u1/x gate set.  S contributes Gray-to-binary
conversion, one controlled block on the last data line, and conversion
back.

Everything is generated lazily; memory is O(mu^2) per emitted gate, plus
the gates of a bounded number of windows one stream keeps for reuse,
independent of the input length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import algebra
from .circuits import (
    GateApp,
    GeneralCircuit,
    MatchgateCircuit,
    UsageError,
    _require_flavor,
    reals_from_complex,
    validate_or_raise,
)
from .simulate import gate_rotations

MAX_LABEL_DISTANCE = 2

_X_PARAMS = reals_from_complex(algebra.PAULI_X)
# Square root of X and its inverse: the exact 5-gate two-control building block.
_V_MATRIX = np.array([[1.0 + 1.0j, 1.0 - 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]]) / 2.0
_V_PARAMS = reals_from_complex(_V_MATRIX)
_VDG_PARAMS = reals_from_complex(_V_MATRIX.conj().T)


def gray(i: int, mu: int) -> str:
    """Reflected-binary Gray label of index i, as mu bits MSB first."""
    if not 0 <= i < (1 << mu):
        raise ValueError(f"index {i} out of range for {mu} bits")
    g = i ^ (i >> 1)
    return format(g, f"0{mu}b")


def gray_converter_circuit(mu: int) -> list[GateApp]:
    """mu - 1 controlled-X gates mapping |binary(i)> to |gray(i)>.

    Bit p (1-based, MSB first) lives on line p.  The Gray label satisfies
    g_p = b_p xor b_{p-1}, so the conversion is one descending chain of
    controlled-X; the inverse map is the reversed (ascending) chain.
    """
    if mu < 1:
        raise ValueError("bit count must be >= 1")
    return [GateApp("cu1", (p - 1, p), _X_PARAMS) for p in range(mu, 1, -1)]


def _shift_lines(gates: list[GateApp], offset: int) -> list[GateApp]:
    return [GateApp(g.kind, tuple(l + offset for l in g.lines), g.params) for g in gates]


@dataclass(frozen=True)
class ControlPattern:
    """A multi-controlled action: fire iff every (line, value) control agrees.

    `target` is the line the two-level rotation acts on; `controls` lists
    (line, required bit) pairs sorted by line.
    """

    target: int
    controls: tuple[tuple[int, int], ...]


def align_conjugation(label_a: str, label_b: str) -> tuple[list[GateApp], ControlPattern]:
    """Conjugation making two bit labels differ only in one position.

    Labels are equal-length bit strings (bit p of the label is "line" p of
    the returned gates).  The gates (x and controlled-X, self-inverse as a
    sequence when reversed) map label_a and label_b to partner states
    differing only at pattern.target, with every other bit pinned to the
    control values in the pattern.  label_a keeps its original bit at the
    target position.
    """
    mu = len(label_a)
    if len(label_b) != mu or label_a == label_b:
        raise ValueError("labels must have equal length and differ")
    diff = [p for p in range(mu) if label_a[p] != label_b[p]]
    tau = diff[0]
    rest = diff[1:]
    low = label_a if label_a[tau] == "0" else label_b  # the label with tau-bit 0
    gates: list[GateApp] = []
    for d in rest:
        if low[d] == "1":
            gates.append(GateApp("x", (d + 1,)))
    for d in rest:
        gates.append(GateApp("cu1", (tau + 1, d + 1), _X_PARAMS))
    controls = []
    for p in range(mu):
        if p == tau:
            continue
        controls.append((p + 1, 0 if p in rest else int(label_a[p])))
    return gates, ControlPattern(tau + 1, tuple(sorted(controls)))


def _toffoli(c1: int, c2: int, t: int) -> list[GateApp]:
    """Exact 5-gate Toffoli over cu1, via the square root of X."""
    return [
        GateApp("cu1", (c2, t), _V_PARAMS),
        GateApp("cu1", (c1, c2), _X_PARAMS),
        GateApp("cu1", (c2, t), _VDG_PARAMS),
        GateApp("cu1", (c1, c2), _X_PARAMS),
        GateApp("cu1", (c1, t), _V_PARAMS),
    ]


def _mcx(controls: tuple[int, ...], target: int, pool: tuple[int, ...]) -> list[GateApp]:
    """X under r >= 2 controls, exactly, borrowing the non-empty `pool` of
    lines as dirty scratch.

    Scratch lines are restored to their incoming state whatever it was.  The
    cost is O(r) Toffolis: with at least r-2 scratch lines a single
    borrowed-ladder network is used, else the problem splits in two with
    each half borrowing the other's controls.
    """
    r = len(controls)
    if r == 2:
        return _toffoli(controls[0], controls[1], target)
    if len(pool) >= r - 2:
        anc = pool[: r - 2]
        top = _toffoli(controls[-1], anc[-1], target)
        desc = []
        for i in range(r - 3, 0, -1):
            desc.extend(_toffoli(controls[i + 1], anc[i - 1], anc[i]))
        base = _toffoli(controls[0], controls[1], anc[0])
        asc = []
        for i in range(1, r - 2):
            asc.extend(_toffoli(controls[i + 1], anc[i - 1], anc[i]))
        half = top + desc + base + asc
        return half + half
    s = pool[0]
    h = (r + 1) // 2
    first, second = controls[:h], controls[h:]
    g1 = _mcx(first, s, second + (target,) + pool[1:])
    g2 = _mcx(second + (s,), target, first + pool[1:])
    return g1 + g2 + g1 + g2


def _rot_params(theta: float) -> tuple[float, ...]:
    """cu1/u1 parameters of the rotation block [[c, -s], [s, c]] by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return (c, 0.0, -s, 0.0, s, 0.0, c, 0.0)


def _rotation_core(c1: int, c2: int, t: int, theta: float, c2_value: int = 1) -> list[GateApp]:
    """Rotation by theta on line t iff line c1 is 1 and line c2 is `c2_value`.

    The exact five-gate network: rotations by +-theta/2 under c2, under
    c1 xor c2 and under c1, signed to sum to theta on the one firing
    pattern and to 0 on the other three.  c2 is restored whatever its state.
    """
    half = _rot_params(theta / 2.0)
    nhalf = _rot_params(-theta / 2.0)
    first, second = (half, nhalf) if c2_value else (nhalf, half)
    cx = GateApp("cu1", (c1, c2), _X_PARAMS)
    return [
        GateApp("cu1", (c2, t), first),
        cx,
        GateApp("cu1", (c2, t), second),
        cx,
        GateApp("cu1", (c1, t), half),
    ]


def pad_to_power_of_two(circuit: MatchgateCircuit) -> MatchgateCircuit:
    """Widen with idle all-zero lines until the width is a power of two."""
    _require_flavor(circuit, "mg")
    validate_or_raise(circuit)
    n = circuit.width
    target = 1 << max(1, (n - 1).bit_length())
    if target == n:
        return circuit
    return MatchgateCircuit(
        target,
        circuit.gates,
        circuit.input + "0" * (target - n),
        circuit.measure_line,
        allow_idle=True,
    )


def _require_standard(circuit: MatchgateCircuit) -> int:
    _require_flavor(circuit, "mg")
    validate_or_raise(circuit)
    n = circuit.width
    if circuit.input != "0" * n:
        raise UsageError("compress needs an all-zero input (standardize first)")
    if circuit.measure_line != 1:
        raise UsageError("compress needs measure line 1 (standardize first)")
    if n & (n - 1):
        raise UsageError("compress needs a power-of-two width (pad first)")
    return n


def _window_bits(k: int, mu: int) -> list[int]:
    """The label bits (0-based) in which matchgate k's window varies.

    The window is dimensions 2k-1 .. 2k+2, the Gray labels of 2k-2 .. 2k+1.
    From an even start these vary only in the last bit and the bit flipped
    between the middle two, and agree on every other bit.
    """
    labels = [gray(i, mu) for i in range(2 * k - 2, 2 * k + 2)]
    varying = [q for q in range(mu) if len({label[q] for label in labels}) > 1]
    if len(varying) > MAX_LABEL_DISTANCE or varying[-1] != mu - 1:
        raise RuntimeError(f"Gray labels of window {k} vary in bits {varying}")
    return varying


# Windows whose gates one compress stream keeps for reuse.  Building a
# window's AND and aligned planes costs more than emitting them, and a
# circuit's matchgates revisit their windows; the bound keeps the stream's
# memory independent of the width.
WINDOW_CACHE_SIZE = 64


def _window_and(k: int, mu: int) -> tuple[tuple[GateApp, ...], int]:
    """The AND of matchgate k's window: its gates, and the line holding it.

    The gates set the clean ancilla (line mu+2) to (control line 1) AND
    (every bit the window shares, at its value), borrowing the two window
    lines as dirty scratch; the same gates uncompute it.  With no shared bit
    (mu = 2) the control line itself is that AND, and there are no gates.
    """
    varying = _window_bits(k, mu)
    shared = [q for q in range(mu) if q not in varying]
    if not shared:
        return (), 1
    label = gray(2 * k - 2, mu)
    # Label bit q sits on data line q + 2.
    wraps = [GateApp("x", (q + 2,)) for q in shared if label[q] == "0"]
    controls = (1,) + tuple(q + 2 for q in shared)
    window = tuple(q + 2 for q in varying)
    return tuple(wraps + _mcx(controls, mu + 2, window) + wraps), mu + 2


def _window_plane(
    k: int, a: int, b: int, mu: int
) -> tuple[tuple[GateApp, ...], int, int, int, bool]:
    """Plane (a, b) of matchgate k's window, as register lines: the
    align_conjugation gates, the target, the other window line and the
    value it must hold, and whether the rotation's sign flips.

    Aligned, the plane's two Gray labels differ only at the target, a window
    bit; the pattern pins the shared bits, which the AND holds, and the
    other window bit, so a factor is a rotation under two controls.
    """
    la = gray(2 * k - 3 + a, mu)
    conj, pattern = align_conjugation(la, gray(2 * k - 3 + b, mu))
    tau = pattern.target  # 1-based label bit, on data line tau + 1
    other = next(q + 1 for q in _window_bits(k, mu) if q + 1 != tau)
    # la keeps its own bit at the target: if that bit is 0 the basis (|0>, |1>)
    # is (dim a, dim b) and the block is R(theta), else the inverse rotation.
    flip = la[tau - 1] == "1"
    value = dict(pattern.controls)[other]
    return tuple(_shift_lines(conj, 1)), tau + 1, other + 1, value, flip


def _window(k: int, mu: int) -> tuple[tuple[GateApp, ...], int, dict]:
    """Matchgate k's window: its AND gates, the line holding the AND, and
    its six planes (a, b), a < b, as `_window_plane` gives them."""
    gates, fired = _window_and(k, mu)
    planes = {(a, b): _window_plane(k, a, b, mu) for a in range(1, 4) for b in range(a + 1, 5)}
    return gates, fired, planes


def _rotation_pass(
    circuit: MatchgateCircuit, window: Callable[[int], tuple], invert: bool
) -> Iterator[GateApp]:
    """Controlled R (or R^{-1} with `invert`), one matchgate at a time: its
    window's AND computed once, every factor under it, the AND uncomputed.

    `window(k)` gives matchgate k's window as `_window` does."""
    for k, rot in gate_rotations(circuit.gates, last_first=invert):
        factors = algebra.givens_factor(rot)
        if not factors:
            continue
        if invert:
            factors = [
                algebra.PlaneRotation(f.a, f.b, -f.theta) for f in reversed(factors)
            ]
        gates, fired, planes = window(k)
        yield from gates
        for f in factors:
            conj, target, other, value, flip = planes[f.a, f.b]
            theta = -f.theta if flip else f.theta
            yield from conj
            yield from _rotation_core(fired, other, target, theta, value)
            yield from reversed(conj)
        yield from gates


def _pairing_pass(mu: int, invert: bool) -> Iterator[GateApp]:
    """Controlled S (or S^{-1}): binary relabeling, one controlled block, undo.

    In binary labels S acts on each dimension pair (2k-1, 2k), i.e. on the
    least significant label bit, as [[0, -1], [1, 0]]: the rotation by pi/2.
    """
    to_gray = _shift_lines(gray_converter_circuit(mu), 1)  # data lines 2..mu+1
    yield from to_gray[::-1]  # gray labels -> binary labels
    angle = -math.pi / 2.0 if invert else math.pi / 2.0
    yield GateApp("cu1", (1, mu + 1), _rot_params(angle))
    yield from to_gray  # back to gray labels


def compress_gate_stream(circuit: MatchgateCircuit) -> Iterator[GateApp]:
    """Lazily emit the compressed circuit's gates.

    Iterates the input gate list twice (once reversed); per-gate working
    state is O(mu^2), plus the gates of the last WINDOW_CACHE_SIZE windows
    used, which both passes of this stream reuse.
    """
    n = _require_standard(circuit)
    mu = (2 * n).bit_length() - 1
    window = functools.lru_cache(maxsize=WINDOW_CACHE_SIZE)(lambda k: _window(k, mu))
    yield GateApp("h", (1,))
    yield from _rotation_pass(circuit, window, invert=True)
    yield from _pairing_pass(mu, invert=False)
    yield from _rotation_pass(circuit, window, invert=False)
    yield from _pairing_pass(mu, invert=True)
    yield GateApp("h", (1,))


def compress_circuit(circuit: MatchgateCircuit) -> GeneralCircuit:
    """Compile a standardized matchgate circuit to width log2(n) + 3.

    The output's <Z_1> on the all-zero input equals the input circuit's
    <Z_1>.  Requires all-zero input, measure line 1, power-of-two width.
    """
    gates = tuple(compress_gate_stream(circuit))
    mu = (2 * circuit.width).bit_length() - 1
    return GeneralCircuit(mu + 2, gates, "0" * (mu + 2))
