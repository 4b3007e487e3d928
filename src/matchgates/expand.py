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

Each stage runs once over the whole circuit, as arrays, with no GateApp
per emitted gate.  A short walk over the gates, last first, fixes every
layout.  The gates of one matrix size are realified as one stack, checked
once (`_realify`) and factored by one `algebra.givens_factor` call.  One
table of where each rebit moves gives every pair permutation
(`_bit_permutations`); their per-position left moves (`_left_moves`) give
both the exact count for the guard and the swap networks (`_networks`).
One `_rot_gates` call lifts every factor to the `rot` gates of its gate's
first block of pairs, which are copied to the other blocks with the
block's offset added to the lines, and one stable sort by gate puts each
swap network before its gate's `rot` gates, after the Z_A layer.
`realify_gate`, `pair_permutation`, `inversion_count` and `swap_network`
are the one-gate case of the same helpers; `_rot_gates` also serves the
public `two_level_to_matchgates`.

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
# The guard under --force: `expand --force` of 5 Haar u2 gates at 8 qubits emits 132k gates
# (0.34 s, 50 MiB peak RSS, 2-core VM).
EXPAND_FORCED_MAX_WIDTH = 8
# expand refuses, before emitting anything, a circuit that would emit more
# gates than this: `expand --force` of 95 Haar u2 gates at 8 qubits emits 1.94M gates
# (1.3 s, 233 MiB peak RSS, 2-core VM).
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


def _realify(u: np.ndarray) -> np.ndarray:
    """Re(u) (x) 1 - Im(u) (x) YT for every unitary of a (count, s, s) stack.

    Broadcasting takes the same products as np.kron.  The stack is checked
    at once: every input unitary (ValueError), every result orthogonal
    (ValueError) and in SO, its determinant +1 = |det u|^2, which is
    asserted rather than corrected (RuntimeError).
    """
    dev = algebra.unitary_deviation(u)
    bad = np.flatnonzero(~(dev <= algebra.TOL_UNITARY))  # NaN fails
    if bad.size:
        raise ValueError(f"input not unitary (deviation {dev[bad[0]]:.3g})")
    count, s = u.shape[:2]
    re, im = u.real[:, :, None, :, None], u.imag[:, :, None, :, None]
    out = (re * np.eye(2)[:, None] - im * YTILDE[:, None]).reshape(count, 2 * s, 2 * s)
    dev = algebra.unitary_deviation(out)
    bad = np.flatnonzero(~(dev <= algebra.TOL_ORTHOGONAL))
    if bad.size:
        raise ValueError(f"matrix not orthogonal (deviation {dev[bad[0]]:.3g})")
    if (np.linalg.det(out) < 0.0).any():
        raise RuntimeError("realified gate left SO; its determinant should be +1")
    return out


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
    return RealGate(_realify(u[None])[0], tuple(lines))


def _bit_permutations(new_pos: np.ndarray) -> np.ndarray:
    """Row g: entry x is where index x of 2^w goes when its w bits, listed
    from the most significant down, move from position t to new_pos[g, t]."""
    count, width = new_pos.shape
    x = np.arange(2**width)
    out = np.zeros((count, x.size), dtype=np.int64)
    for old in range(width):
        out |= (x >> (width - 1 - old) & 1) << (width - 1 - new_pos[:, old, None])
    return out


def pair_permutation(before: tuple[int, ...], after: tuple[int, ...]) -> np.ndarray:
    """Where each line pair goes when the rebit lines, listed from the most
    significant pair-index bit down, are reordered from `before` to `after`:
    entry x is the new 0-based index of the pair now at index x."""
    return _bit_permutations(np.array([[after.index(q) for q in before]], dtype=np.int64))[0]


def _left_moves(perms: np.ndarray) -> np.ndarray:
    """Entry (g, i) is #{x < i : perms[g, x] > perms[g, i]}: how many places
    an insertion sort of row g moves its entry at i to the left.

    Rows of P entries are compared in batches of at most EXPAND_MAX_GATES
    comparisons (one row when P^2 is larger), so the memory taken stays
    below that of the largest circuit expand emits, whatever the row count.
    """
    count, size = perms.shape
    earlier = np.triu(np.ones((size, size), dtype=bool), 1)
    step = max(1, EXPAND_MAX_GATES // size**2)
    out = np.empty_like(perms)
    for lo in range(0, count, step):
        part = perms[lo : lo + step]
        out[lo : lo + step] = ((part[:, :, None] > part[:, None, :]) & earlier).sum(axis=1)
    return out


def _networks(moves: np.ndarray) -> np.ndarray:
    """The lines of the `w` gates of insertion sorts, one sort per row of
    `moves` (the _left_moves of its permutation), end to end: the entry at
    position i moves left on lines i, i-1, ..., i - moves[i] + 1."""
    c = moves.ravel()
    starts = np.cumsum(c) - c
    first = (np.arange(moves.shape[-1]) + starts.reshape(moves.shape)).ravel()
    return np.repeat(first, c) - np.arange(c.sum())


def inversion_count(perm: np.ndarray) -> int:
    """The pairs x < y with perm[x] > perm[y]: how many adjacent swaps sort perm."""
    return int(_left_moves(np.asarray(perm)[None]).sum())


def swap_network(perm: np.ndarray) -> list[int]:
    """The lines k of the `w` gates that move the pair at index x to perm[x].

    `w` on line k exchanges pairs k and k+1 (1-based) without signs.  The
    swaps are the adjacent transpositions of an insertion sort of perm, one
    per inversion.
    """
    return _networks(_left_moves(np.asarray(perm)[None])).tolist()


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
    # acts alike.  The walk records, per gate, where each layout rebit moves
    # and where each of the gate's local rebits sits in its own line order.
    table = widened.gates.table
    layout = tuple(range(1, m + 2))  # rebit lines, most significant pair-index bit first
    new_pos, local_pos, with_a, block = [], [], [], []
    for gate_lines in reversed(table.line_tuples()):
        lines = tuple(l if l <= m else a_line for l in gate_lines) + (b_line,)
        moved = tuple(q for q in layout if q in lines)
        after = tuple(q for q in layout if q not in lines) + moved
        local = moved + ((a_line,) if a_line in lines else ())
        new_pos.append([after.index(q) for q in layout])
        local_pos.append([lines.index(q) for q in local])
        with_a.append(a_line in lines)
        block.append(2 ** len(moved))
        layout = after
    with_a, block = np.array(with_a), np.array(block)

    # Realify and factor all gates of one matrix size at once.  Transposing
    # and reordering a gate's tensor factors to its local rebits only
    # reindexes it: entry (r, c) is realified entry (pi(c), pi(r)).
    mats = gate_matrices(table)[::-1]
    factors: list[list[algebra.PlaneRotation]] = [[] for _ in mats]
    for s in {len(u) for u in mats}:
        same = [i for i, u in enumerate(mats) if len(u) == s]
        real = _realify(np.stack([mats[i] for i in same]))
        pi = _bit_permutations(np.array([local_pos[i] for i in same]))
        real = real[np.arange(len(same))[:, None, None], pi[:, None, :], pi[:, :, None]]
        for i, fs in zip(same, algebra.givens_factor(real)):
            factors[i] = fs

    # The route: an insertion sort of each gate's pair permutation, whose
    # entry at i moves left once per earlier larger entry (_left_moves,
    # which bounds the memory its comparisons take).
    moves = _left_moves(_bit_permutations(np.array(new_pos)))

    # The Z_A layer emits one local gate per pair; a gate its swap network
    # and, per block, one gate per factor with A in the gate, two without.
    swaps = moves.sum(axis=1)
    counts = np.array([len(fs) for fs in factors])
    rots = counts * np.where(with_a, 1, 2)  # rot gates of the first block
    copied = rots * (n // block)
    emitted = n // 2 + int(swaps.sum() + copied.sum())
    if emitted > EXPAND_MAX_GATES:
        raise GuardError(f"expanding would emit {emitted} gates; guard is {EXPAND_MAX_GATES}")

    # The first block's rot gates of every gate, in one call.  With A a
    # spectator a factor in plane (a, a+1) acts alike on the A=0 and A=1
    # dimensions of pairs a and a+1: planes (2a-1, 2a+1) and (2a, 2a+2),
    # i.e. (1,3) and (2,4) of one window.
    flat = [r for fs in factors for r in fs]
    gates = np.arange(len(factors))
    gate = np.repeat(gates, counts)
    spectator = ~with_a[gate]
    row = np.repeat(np.arange(len(flat)), 1 + spectator)  # the factor of each rot gate
    spectator, second = spectator[row], np.diff(row, prepend=-1) == 0
    a = np.array([r.a for r in flat], dtype=np.int64)[row]
    a = np.where(spectator, 2 * a - 1 + second, a)
    theta = np.array([r.theta for r in flat], dtype=float)[row]
    first_lines, first_rows = _rot_gates(a, a + 1 + spectator, theta, block[gate[row]])

    # The same gates shifted to every other block: emitted rot gate t of
    # gate g is its first-block gate t mod rots[g], shifted by block[g] for
    # each full round before it.
    t = np.arange(copied.sum()) - np.repeat(np.cumsum(copied) - copied, copied)
    rounds, t = np.divmod(t, np.repeat(rots, copied))
    src = np.repeat(np.cumsum(rots) - rots, copied) + t
    rot_lines = first_lines[src] + rounds * np.repeat(block, copied)

    # Each gate's swap network goes before its rot gates: one stable sort
    # by gate of the swaps, then the rot gates.
    w_lines = _networks(moves)
    order = np.argsort(
        np.concatenate([np.repeat(gates, swaps), np.repeat(gates, copied)]), kind="stable"
    )

    # The Z_A layer leads: sign-flip of both dimensions of every odd-indexed
    # pair, written as pi-rotations in the planes (4t-2, 4t).
    z = np.arange(1, n // 2 + 1)
    z_lines, z_rows = _rot_gates(4 * z - 2, 4 * z, np.full(n // 2, math.pi), n)
    rot, w = KIND_CODES["rot"], KIND_CODES["w"]
    kinds = np.concatenate([np.full(n // 2, rot), np.where(order < len(w_lines), w, rot)])
    lines = np.concatenate([z_lines, np.concatenate([w_lines, rot_lines])[order]])
    params = np.concatenate([z_rows.ravel(), first_rows[src].ravel()])
    return MatchgateCircuit(n, _ParsedGates(_table(kinds, lines, params)), "0" * n, 1)
