"""Compile a general circuit into an exponentially wider matchgate circuit.

An m-qubit general circuit, measured in Z on line 1, is converted in three
steps:

  1. a gadget `w` on lines (1, m+1) of an (m+1)-qubit register makes the
     line-1 readout of the original circuit appear as the expectation of a
     *real* observable of the widened circuit, so complex amplitudes can be
     traded for one extra qubit;
  2. every gate, and the gadget itself, is turned real ("realified"): a
     unitary U on K qubits becomes the real orthogonal
     Re(U) (x) 1  -  Im(U) (x) YT on K+1 rebits, where YT = [[0, 1], [-1, 0]]
     and the extra rebit B is shared by all gates;
  3. the resulting real orthogonal operator on m+2 rebits, dimension
     2n = 2^{m+3}, is realized as the rotation of a width-n matchgate
     circuit.  Rebit A is always the in-pair bit of a rotation dimension;
     lines 1..m+1 are the bits of the line pair's index, in a *layout* that
     changes as the circuit is emitted.  Before each realified gate one
     fermionic-swap network (Kivlichan et al. 2018, arXiv:1711.04789)
     moves the gate's rebits to the lowest pair-index bits: the `w` swaps
     of an insertion sort of the pair permutation, one per inversion.  The
     gate is then factored into rotations in adjacent planes (a, a+1)
     (`algebra.givens_factor`), and each lifts to local `rot` gates with no
     swap of its own: with A in the gate a plane is one `rot` inside one
     line window, and with A a spectator it is two, planes (1,3) and (2,4)
     of the window of pairs a and a+1.

The output width is n = 2^{m+2} / 2 = 2^{m+1}, i.e. exactly 2^{m+1} lines.
Exponential by design; guarded at EXPAND_MAX_WIDTH input qubits, and at
EXPAND_MAX_GATES emitted gates, counted exactly before any is emitted.

The output is one GateColumns table, built as arrays with no GateApp per
emitted gate: the Z_A layer, then per gate its swap network and the `rot`
gates of the first block of pairs, repeated for every other block with
the block's offset added to the lines.  The map from a plane rotation to
its `rot` gate is `_rot_gates`, shared with the public
`two_level_to_matchgates`.

Rebit register (width m + 2): lines 1..m carry the original qubits, line
m+1 is the realification rebit B, line m+2 (least significant) is the
gadget rebit A.  The matchgate circuit's rotation is assembled as
P V_hat^T . Z_A, where V_hat is the realified widened circuit, Z_A flips
the sign of every odd rotation dimension pair, and P is the pair
permutation of the final layout; the transpose and the Z_A layer together
make the matchgate readout reproduce <Z_1> exactly rather than up to sign.
The layout is never undone: a pair permutation moves whole pairs without
signs and keeps pair 1 (index 0 in every layout) in place, so P leaves the
rows of line 1's readout as they are, and it would equally leave the
all-zero input's pairing matrix unchanged on the input side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .circuits import (
    GateApp,
    GeneralCircuit,
    KIND_CODES,
    GuardError,
    MatchgateCircuit,
    _mark_valid,
    _ParsedGates,
    _require_flavor,
    _table,
    gate_matrices,
    reals_from_complex,
    validate_or_raise,
)

EXPAND_MAX_WIDTH = 4
# The guard under --force: 5 Haar u2 gates at 8 qubits emit 134k gates (0.5 s, 44 MiB, 2-core VM).
EXPAND_FORCED_MAX_WIDTH = 8
# expand refuses, before emitting anything, a circuit that would emit more
# gates than this: 100 Haar u2 gates at 8 qubits emit 1.97M gates (4.0 s, 223 MiB peak RSS, 2-core VM).
EXPAND_MAX_GATES = 2_000_000

# YT = iY: the real rotation by which realification represents multiplication
# by -i on the extra rebit.
YTILDE = np.array([[0.0, 1.0], [-1.0, 0.0]])

# v = |+><+| (x) 1 + |-><-| (x) YT, then swap the pair: the two-qubit gadget
# making Re and Im parts of the line-1 amplitudes separately observable.
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)
W_GADGET = _SWAP @ (np.kron(_PLUS, np.eye(2)) + np.kron(_MINUS, YTILDE))


def append_w_gadget(circuit: GeneralCircuit) -> GeneralCircuit:
    """Widen by one qubit and append the readout gadget on lines (1, m+1).

    Requires an all-zero input (fold basis inputs into x gates first).
    """
    _require_flavor(circuit, "qc")
    validate_or_raise(circuit)
    if circuit.input.strip("0"):
        raise ValueError("gadget step expects an all-zero input")
    m = circuit.width
    gadget = GateApp("u2", (1, m + 1), reals_from_complex(W_GADGET))
    return GeneralCircuit(m + 1, _ParsedGates(circuit.gates, (gadget,)), "0" * (m + 1))


@dataclass(frozen=True)
class RealGate:
    """A real orthogonal gate on a few rebits (det +1, orthogonality 1e-9)."""

    matrix: np.ndarray = field(repr=False)
    lines: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.lines)
        if not 1 <= k <= 3:
            raise ValueError(f"rebit arity must be 1..3, got {k}")
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2**k, 2**k):
            raise ValueError(f"matrix shape {m.shape} does not match {k} rebits")
        dev = algebra.unitary_deviation(m)
        if not dev <= algebra.TOL_ORTHOGONAL:
            raise ValueError(f"matrix not orthogonal (deviation {dev:.3g})")
        object.__setattr__(self, "matrix", m)


def realify_gate(u: np.ndarray, lines: tuple[int, ...]) -> RealGate:
    """The real orthogonal gate Re(u) (x) 1 - Im(u) (x) YT.

    `u` acts on the rebits lines[:-1]; the last entry of `lines` is the
    shared rebit B carrying the new least significant tensor slot.  The
    result always lands in SO (determinant +1, equal to |det u|^2), which
    is asserted rather than corrected.
    """
    u = np.asarray(u, dtype=complex)
    k = len(lines) - 1
    if u.shape != (2**k, 2**k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} qubits + B")
    dev = algebra.unitary_deviation(u)
    if not dev <= algebra.TOL_UNITARY:
        raise ValueError(f"input not unitary (deviation {dev:.3g})")
    out = np.kron(u.real, np.eye(2)) - np.kron(u.imag, YTILDE)
    if np.linalg.det(out) < 0.0:
        raise RuntimeError("realified gate left SO; its determinant should be +1")
    return RealGate(out, tuple(lines))


def _permute_lines(u: np.ndarray, lines: tuple[int, ...], target: tuple[int, ...]) -> np.ndarray:
    """Reorder a gate's tensor factors from the line order `lines` to `target`."""
    order = [lines.index(q) for q in target]
    if order == sorted(order):
        return u
    j = len(lines)
    t = u.reshape((2,) * (2 * j)).transpose(order + [j + o for o in order])
    return t.reshape(2**j, 2**j)


def pair_permutation(before: tuple[int, ...], after: tuple[int, ...]) -> np.ndarray:
    """Where each line pair goes when the rebit lines, listed from the most
    significant pair-index bit down, are reordered from `before` to `after`:
    entry x is the new 0-based index of the pair now at index x."""
    width = len(before)
    x = np.arange(2**width)
    out = np.zeros_like(x)
    for old, q in enumerate(before):
        new = after.index(q)
        out |= (x >> (width - 1 - old) & 1) << (width - 1 - new)
    return out


def inversion_count(perm: np.ndarray) -> int:
    """The pairs x < y with perm[x] > perm[y]: how many adjacent swaps sort perm."""
    return int(np.count_nonzero(np.triu(perm[:, None] > perm[None, :])))


def swap_network(perm: np.ndarray) -> list[int]:
    """The lines k of the `w` gates that move the pair at index x to perm[x].

    `w` on line k exchanges pairs k and k+1 (1-based) without signs.  The
    swaps are the adjacent transpositions of an insertion sort of perm, one
    per inversion.
    """
    order = perm.tolist()
    lines: list[int] = []
    for i in range(1, len(order)):
        item, j = order[i], i
        while j and order[j - 1] > item:
            order[j] = order[j - 1]
            lines.append(j)
            j -= 1
        order[j] = item
    return lines


# The rot plane (1..6, algebra.PLANES) of window dimensions (a, b), at
# [a, b]; 0 where b is past the window.
_WINDOW_PLANES = np.zeros((5, 6), dtype=np.int64)
for _plane, (_a, _b) in enumerate(algebra.PLANES, start=1):
    _WINDOW_PLANES[_a, _b] = _plane


def _rot_gates(
    a: np.ndarray, b: np.ndarray, theta: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The line k and the (plane, angle) row of the one `rot` gate realizing
    each rotation by theta[i] in plane (a[i], b[i]) of SO(2n), inside the
    window of dimensions 2k-1 .. 2k+2 of line pair (k, k+1).

    Every pair must satisfy 1 <= a < b <= 2n; ValueError names the first
    plane that lies in no one window.
    """
    k = np.minimum((a + 1) // 2, n - 1)
    off = 2 * k - 2
    plane = _WINDOW_PLANES[a - off, np.minimum(b - off, 5)]
    bad = np.flatnonzero(plane == 0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"dimension pair ({a[i]}, {b[i]}) lies in no one line window")
    # The rot gate's own convention carries [la, lb] = +sin, so realizing
    # plane_rotation(la, lb, theta) needs the opposite angle.
    return k, np.stack([plane.astype(float), -theta], axis=1)


def two_level_to_matchgates(a: int, b: int, theta: float, n: int) -> list[GateApp]:
    """The one local `rot` gate, as a list, realizing the rotation by theta
    in plane (a, b) of SO(2n).

    Both dimensions must lie in one line window, the dimensions 2k-1 .. 2k+2
    of some line pair (k, k+1); a plane in no window raises ValueError.
    """
    if not 1 <= a < b <= 2 * n:
        raise ValueError(f"bad dimension pair ({a}, {b}) for {n} lines")
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    k, rows = _rot_gates(np.array([a]), np.array([b]), np.array([theta], dtype=float), n)
    return [GateApp("rot", (int(k[0]),), tuple(rows[0].tolist()))]


def expand_circuit(circuit: GeneralCircuit, width_guard: int = EXPAND_MAX_WIDTH) -> MatchgateCircuit:
    """Compile an m-qubit general circuit to a 2^{m+1}-line matchgate circuit.

    The result runs on the all-zero input and reproduces the source
    circuit's <Z_1> (on its basis input) as its own <Z_1>.  Its gates are
    one GateColumns table (`_ParsedGates`): no GateApp is built for an
    emitted gate unless the gates are read one by one.
    """
    _require_flavor(circuit, "qc")
    validate_or_raise(circuit)
    m = circuit.width
    if m > width_guard:
        raise GuardError(
            f"expanding {m} qubits needs 2^{m + 1} lines; guard is {width_guard} qubits"
        )

    # Fold the basis input into x gates, then append the readout gadget.
    prefix = [GateApp("x", (q + 1,)) for q, c in enumerate(circuit.input) if c == "1"]
    widened = append_w_gadget(
        _mark_valid(GeneralCircuit(m, _ParsedGates(prefix, circuit.gates), "0" * m))
    )

    a_line, b_line = m + 2, m + 1
    n = 2 ** (m + 1)

    # V_hat^T: the realified gates, transposed, in reverse order.  Before
    # each gate the layout moves the gate's rebits (other than A) to the
    # lowest pair-index bits, so the pairs split into blocks of 2^j adjacent
    # pairs, one per assignment of the spectator lines, on which the gate
    # acts alike.  Each gate is factored once into plane rotations, all gates
    # of one matrix size in one call, and its factors lifted to the gates of
    # the first block; the other blocks, which commute with it, get the same
    # gates shifted.
    layout = tuple(range(1, m + 2))  # rebit lines, most significant pair-index bit first
    plan: list[tuple[np.ndarray, bool, int]] = []  # (pair moves, A in the gate, block size)
    reals: list[np.ndarray] = []
    table = widened.gates.table
    for gate_lines, u in zip(reversed(table.line_tuples()), reversed(gate_matrices(table))):
        lines = tuple(l if l <= m else a_line for l in gate_lines) + (b_line,)
        rg = realify_gate(u, lines)
        moved = tuple(q for q in layout if q in lines)
        after = tuple(q for q in layout if q not in lines) + moved
        local = moved + ((a_line,) if a_line in lines else ())
        reals.append(_permute_lines(rg.matrix.T, rg.lines, local))
        plan.append((pair_permutation(layout, after), a_line in lines, 2 ** len(moved)))
        layout = after
    factors: list[list[algebra.PlaneRotation]] = [[] for _ in reals]
    for d in {len(real) for real in reals}:
        same = [i for i, real in enumerate(reals) if len(real) == d]
        for i, fs in zip(same, algebra.givens_factor(np.stack([reals[i] for i in same]))):
            factors[i] = fs

    # The Z_A layer emits one local gate per pair; a gate its swap network
    # and, per block, one gate per factor with A in the gate, two without.
    emitted = n // 2 + sum(
        inversion_count(moves) + n // block * len(fs) * (1 if with_a else 2)
        for (moves, with_a, block), fs in zip(plan, factors)
    )
    if emitted > EXPAND_MAX_GATES:
        raise GuardError(f"expanding would emit {emitted} gates; guard is {EXPAND_MAX_GATES}")

    # The table, as parts in circuit order: (lines, rot rows or None for w).
    # The Z_A layer: sign-flip of both dimensions of every odd-indexed pair,
    # written as pi-rotations in the planes (4t-2, 4t).
    t = np.arange(1, n // 2 + 1)
    parts = [_rot_gates(4 * t - 2, 4 * t, np.full(n // 2, math.pi), n)]
    for (moves, with_a, block), fs in zip(plan, factors):
        parts.append((np.array(swap_network(moves), dtype=np.int64), None))
        a, b = np.array([(f.a, f.b) for f in fs], dtype=np.int64).reshape(-1, 2).T
        theta = np.array([f.theta for f in fs], dtype=float)
        if not with_a:
            # A is a spectator: the factor acts alike on the A=0 and A=1
            # dimensions of pairs a and a+1, planes (1,3) and (2,4) of one window.
            a = np.stack([2 * a - 1, 2 * a], axis=1).ravel()
            b = np.stack([2 * b - 1, 2 * b], axis=1).ravel()
            theta = np.repeat(theta, 2)
        lines, rows = _rot_gates(a, b, theta, block)
        # The first block's gates, then the same gates shifted to each other block.
        shifted = (lines + np.arange(0, n, block)[:, None]).ravel()
        parts.append((shifted, np.tile(rows, (n // block, 1))))
    rot, w = KIND_CODES["rot"], KIND_CODES["w"]
    kinds = np.concatenate([np.full(len(lines), w if rows is None else rot) for lines, rows in parts])
    lines = np.concatenate([lines for lines, _ in parts])
    params = np.concatenate([rows.ravel() for _, rows in parts if rows is not None])
    return MatchgateCircuit(n, _ParsedGates(_table(kinds, lines, params)), "0" * n, 1)
