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

Controlled-V is streamed gate by gate: each matchgate contributes its 4x4
rotation, split into plane rotations whose Gray labels differ in at most 3
bits; each plane rotation becomes a short conjugation plus one multiply-
controlled two-level rotation, decomposed exactly to the cu1/u1/x gate set.
S contributes Gray-to-binary conversion, one controlled block on the last
data line, and conversion back.

Everything is generated lazily; memory is O(mu^2) per emitted gate
independent of the input length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import algebra
from .circuits import (
    GateApp,
    GeneralCircuit,
    MatchgateCircuit,
    reals_from_complex,
    validate_or_raise,
)
from .simulate import gate_rotations

MAX_LABEL_DISTANCE = 3

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


def gray_to_index(label: str) -> int:
    """Inverse of gray: the index whose Gray label is `label`."""
    g = int(label, 2)
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


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
    """Multi-controlled X, exactly, borrowing `pool` lines as dirty scratch.

    Scratch lines are restored to their incoming state whatever it was.  For
    r controls the cost is O(r) Toffolis once pool is non-empty; with at
    least r-2 scratch lines a single borrowed-ladder network is used, else
    the problem splits in two with each half borrowing the other's controls.
    """
    r = len(controls)
    if r == 0:
        return [GateApp("x", (target,))]
    if r == 1:
        return [GateApp("cu1", (controls[0], target), _X_PARAMS)]
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
    if not pool:
        raise ValueError("need at least one scratch line for 3+ controls")
    s = pool[0]
    h = (r + 1) // 2
    first, second = controls[:h], controls[h:]
    g1 = _mcx(first, s, second + (target,) + pool[1:])
    g2 = _mcx(second + (s,), target, first + pool[1:])
    return g1 + g2 + g1 + g2


def lambda_r_decompose(
    pattern: ControlPattern, rot: np.ndarray, ancilla: int
) -> list[GateApp]:
    """Exact decomposition of a multi-controlled 2x2 real rotation.

    `rot` must be [[c, -s], [s, c]]; `ancilla` is one scratch line distinct
    from the controls and target (its state is restored exactly, so |0> in,
    |0> out).  Controls requiring value 0 are wrapped in X.  Zero, one and
    two controls decompose directly (the two-control case via the standard
    five-gate network); three or more use one rotation sandwich
    R(theta/2) . MCX . R(-theta/2) . MCX, giving O(r) gates in the control
    count r.
    """
    c, s = float(rot[0, 0]), float(rot[1, 0])
    if (
        rot.shape != (2, 2)
        or not abs(rot[0, 1] + s) <= 1e-12
        or not abs(rot[1, 1] - c) <= 1e-12
        or not abs(c * c + s * s - 1.0) <= 1e-9
    ):
        raise ValueError("expected a 2x2 rotation [[c, -s], [s, c]]")
    t = pattern.target
    lines = tuple(l for l, _ in pattern.controls)
    if ancilla == t or ancilla in lines:
        raise ValueError("ancilla collides with the pattern's lines")
    theta = math.atan2(s, c)
    wraps = [GateApp("x", (l,)) for l, v in pattern.controls if v == 0]

    r = len(lines)
    if r == 0:
        core = [GateApp("u1", (t,), reals_from_complex(algebra.rot2(theta)))]
    elif r == 1:
        core = [GateApp("cu1", (lines[0], t), reals_from_complex(algebra.rot2(theta)))]
    elif r == 2:
        half = reals_from_complex(algebra.rot2(theta / 2.0))
        nhalf = reals_from_complex(algebra.rot2(-theta / 2.0))
        core = [
            GateApp("cu1", (lines[1], t), half),
            GateApp("cu1", (lines[0], lines[1]), _X_PARAMS),
            GateApp("cu1", (lines[1], t), nhalf),
            GateApp("cu1", (lines[0], lines[1]), _X_PARAMS),
            GateApp("cu1", (lines[0], t), half),
        ]
    else:
        # X R(phi) X = R(-phi), so MCX . R(-t/2) . MCX . R(t/2) applies
        # R(theta) when all controls fire and cancels to identity otherwise.
        mcx = _mcx(lines, t, (ancilla,))
        core = (
            [GateApp("u1", (t,), reals_from_complex(algebra.rot2(theta / 2.0)))]
            + mcx
            + [GateApp("u1", (t,), reals_from_complex(algebra.rot2(-theta / 2.0)))]
            + mcx
        )
    return wraps + core + wraps[::-1]


def pad_to_power_of_two(circuit: MatchgateCircuit) -> MatchgateCircuit:
    """Widen with idle all-zero lines until the width is a power of two."""
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
    validate_or_raise(circuit)
    n = circuit.width
    if circuit.input != "0" * n:
        raise ValueError("compress needs an all-zero input (standardize first)")
    if circuit.measure_line != 1:
        raise ValueError("compress needs measure line 1 (standardize first)")
    if n & (n - 1):
        raise ValueError("compress needs a power-of-two width (pad first)")
    return n


def _controlled_two_level(
    dim_a: int,
    dim_b: int,
    theta: float,
    mu: int,
    control_line: int,
    ancilla: int,
) -> Iterator[GateApp]:
    """Gates applying, under the interference control, the rotation that
    moves dimension dim_a toward dim_b by theta (1-based dimensions)."""
    la = gray(dim_a - 1, mu)
    lb = gray(dim_b - 1, mu)
    distance = sum(x != y for x, y in zip(la, lb))
    if distance > MAX_LABEL_DISTANCE:
        raise RuntimeError(
            f"Gray labels of dimensions {dim_a}, {dim_b} differ in {distance} bits"
        )
    conj, pattern = align_conjugation(la, lb)
    # Shift bit-space lines onto register lines (data starts at line 2).
    conj = _shift_lines(conj, 1)
    controls = tuple(sorted(((l + 1, v) for l, v in pattern.controls)))
    controls = controls + ((control_line, 1),)
    shifted = ControlPattern(pattern.target + 1, controls)
    # dim_a keeps its own bit at the target position; if that bit is 0 the
    # rebit basis (|0>, |1>) is (dim_a, dim_b) and the block is [[c,-s],[s,c]],
    # otherwise the roles swap and the block is the inverse rotation.
    local = algebra.rot2(theta if la[pattern.target - 1] == "0" else -theta)
    yield from conj
    yield from lambda_r_decompose(shifted, local, ancilla)
    yield from reversed(conj)


def _rotation_pass(
    circuit: MatchgateCircuit, mu: int, invert: bool, ancilla: int
) -> Iterator[GateApp]:
    """Controlled R (or R^{-1} with `invert`), one matchgate at a time."""
    for k, rot in gate_rotations(circuit.gates, last_first=invert):
        factors = algebra.givens_factor(rot)
        if invert:
            factors = [
                algebra.PlaneRotation(f.a, f.b, -f.theta) for f in reversed(factors)
            ]
        base = 2 * k - 2
        for f in factors:
            yield from _controlled_two_level(
                base + f.a, base + f.b, f.theta, mu, 1, ancilla
            )


_S_BLOCK = algebra.rot2(math.pi / 2.0)  # [[0, -1], [1, 0]]: the per-pair action of S


def _pairing_pass(mu: int, invert: bool) -> Iterator[GateApp]:
    """Controlled S (or S^{-1}): binary relabeling, one controlled block, undo.

    In binary labels S acts on each dimension pair (2k-1, 2k), i.e. on the
    least significant label bit, as [[0, -1], [1, 0]].
    """
    to_gray = _shift_lines(gray_converter_circuit(mu), 1)  # data lines 2..mu+1
    yield from to_gray[::-1]  # gray labels -> binary labels
    block = _S_BLOCK.T if invert else _S_BLOCK
    yield GateApp("cu1", (1, mu + 1), reals_from_complex(block))
    yield from to_gray  # back to gray labels


def compress_gate_stream(circuit: MatchgateCircuit) -> Iterator[GateApp]:
    """Lazily emit the compressed circuit's gates.

    Iterates the input gate list twice (once reversed); per-gate working
    state is O(mu^2).
    """
    n = _require_standard(circuit)
    mu = (2 * n).bit_length() - 1
    ancilla = mu + 2
    yield GateApp("h", (1,))
    yield from _rotation_pass(circuit, mu, invert=True, ancilla=ancilla)
    yield from _pairing_pass(mu, invert=False)
    yield from _rotation_pass(circuit, mu, invert=False, ancilla=ancilla)
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
