"""Compile a general circuit into an exponentially wider matchgate circuit.

An m-qubit general circuit, measured in Z on line 1, is converted in four
steps:

  1. the basis input is folded into x gates before the circuit, the gates
     outside line 1's backward light cone are dropped, and the rest are
     fused into blocks of one or two qubits (`_blocks`): a gate
     joins the last block on its lines when that block is the last on all
     of them, and otherwise starts a block on its own lines that takes in
     the one-qubit blocks last on them.  Each block's unitary is the product
     of its gates, formed for all blocks at once (`_fused`);
  2. a gadget `w` on lines (1, m+1) of an (m+1)-qubit register makes the
     line-1 readout of the original circuit appear as the expectation of a
     *real* observable of the widened circuit, so complex amplitudes can be
     traded for one extra qubit.  The gadget stays a gate of its own;
  3. every block, and the gadget, is turned real ("realified"): a
     unitary U on K qubits becomes the real orthogonal
     Re(U) (x) 1  -  Im(U) (x) YT on K+1 rebits, where YT = [[0, 1], [-1, 0]]
     and the extra rebit B is shared by all gates;
  4. the resulting real orthogonal operator on m+2 rebits, dimension
     2n = 2^{m+3}, is realized as the rotation of a width-n matchgate
     circuit.  Rebit A is always the in-pair bit of a rotation dimension;
     lines 1..m+1 are the bits of the line pair's index, in a *layout* that
     changes as the circuit is emitted.  Before each realified gate one
     fermionic-swap network (Kivlichan et al. 2018, arXiv:1711.04789)
     moves the gate's rebits to the lowest pair-index bits: the `w` swaps
     of an insertion sort of the pair permutation, one per inversion.  The
     gate is then factored into rotations in adjacent planes (a, a+1)
     (`algebra.givens_factor`), and each lifts to one local gate with no
     swap of its own: with A in the gate a `rot` inside one line window,
     and with A a spectator the hopping matchgate `mg` G(1, R(t)) on the
     window of pairs a and a+1, which turns its planes (1,3) and (2,4) by
     one angle (`_hopping_rows`).  Of these gates only those in the
     backward light cone of line 1 of the emitted circuit are emitted
     (`_emitted_cone`); a line no kept gate meets stays idle (`idle=1`).

The light cone is one scan (`circuits._cone_scan`), last gate first, over a
set of support lines that starts as line 1: a gate is kept iff it touches
the support, which it then moves (`circuits._cone_moves`): a two-qubit gate
adds both of its lines, and a `w` exchanges their membership.  The Z_1
readout in the Heisenberg picture never reaches a dropped gate's lines, so
it is the same.  The same scan drops input gates (`circuits.light_cone`) in
step 1 and emitted gates in step 4; the output width, the all-zero input and
the validation of every input gate are unchanged.

Fewer, wider gates give fewer factors and fewer swap networks, and the
route starts from the first-use layout (`_first_use_layout`): B lowest, then
the qubits in the order the walk, last gate first, first touches them, so
the first gates routed need few swaps or none.

The output width is n = 2^{m+2} / 2 = 2^{m+1}, i.e. exactly 2^{m+1} lines.
Exponential by design; guarded at EXPAND_MAX_WIDTH input qubits, and at
EXPAND_MAX_GATES emitted gates: the kept ones, counted exactly before any is
emitted.

Each stage runs once over the whole circuit, with no GateApp per emitted
gate, and all but the cone scan run as arrays.  A short walk over the
blocks, last first, fixes every layout (`_walk`).  The blocks of one matrix
size are realified as one stack, checked once (`_realify`) and factored by
one `algebra.givens_factor` call.  One table of where each rebit moves gives
every pair permutation (`_bit_permutations`); their per-position left moves
(`_left_moves`) give the swap networks (`_networks`).  One `_rot_gates` call
lifts every factor to its gate in its gate's first block of pairs.  The
light cone of the emission is scanned from this compact description, last
gate first, before anything is emitted (`_emitted_cone`): a copy of a
gate's first block meets only its own block of lines, so each distinct
support of a block is scanned once per gate, and once the support holds
every line all earlier gates are kept whole.  Then only the kept rows are
built: the first-block gates copied to every block with the block's offset
added to the lines (of a partly kept gate, the ones kept for that block),
each gate's kept swaps before its copies.  The Z_A layer leads as gate 0
of this description: no swap, and one block of every line.
`realify_gate` is the one-gate case of `_realify`; `_rot_gates` also serves
the public `two_level_to_matchgates`.

Rebit register (width m + 2): lines 1..m carry the original qubits, line m+1
is the realification rebit B, line m+2 (least significant) is the gadget
rebit A.  The full emission's rotation is P V_hat^T Q . Z_A, where V_hat is
the realified widened circuit, Z_A flips the sign of every odd rotation
dimension pair, and P and Q^T are the pair permutations of the final and the
start layout; the transpose and the Z_A layer together make the matchgate
readout reproduce <Z_1> exactly rather than up to sign.  The emitted circuit
drops only gates outside line 1's light cone, each acting where the
propagated rows of line 1 are exactly zero, so its rotation is that product
in the two rows line 1's readout reads, and only there.  A pair permutation
moves whole pairs without signs and keeps pair 1 (index 0 in every layout)
in place, so P leaves the rows of line 1's readout as they are, and Q, which
commutes with Z_A, leaves the all-zero input's pairing matrix unchanged: the
start layout is free, and the layout is never undone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .circuits import (
    KIND_CODES,
    GateApp,
    GateColumns,
    GeneralCircuit,
    GuardError,
    MatchgateCircuit,
    _VALIDATE_CHUNK,
    _cone_moves,
    _cone_scan,
    _ParsedGates,
    _require_flavor,
    _table,
    _table_of,
    gate_matrices,
    light_cone,
    validate_or_raise,
)

EXPAND_MAX_WIDTH = 4
# The guard under --force.
EXPAND_FORCED_MAX_WIDTH = 8
# expand refuses, before emitting anything, a circuit that would emit more
# gates than this: `expand --force` of 115 Haar u2 gates on random line pairs
# at 8 qubits emits 1.32M gates (1.0 s, 221 MiB peak RSS, 2-core VM).
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


def _hopping_rows(t: np.ndarray) -> np.ndarray:
    """The 16 reals of the mg gate G(1, R(t)) of each angle, R(t) the 2x2
    rotation: the product of the `rot` gates by t in planes 2 and 5."""
    c, s, rows = np.cos(t), np.sin(t), np.zeros((len(t), 16))
    rows[:, [0, 6]], rows[:, 8::2] = 1.0, np.column_stack([c, -s, s, c])
    return rows


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


def _blocks(gate_lines: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Gates grouped, in order, into blocks of one or two lines whose
    product, block after block, is the gates' product: each block's lines
    and the indices of its gates, in gate order.

    A gate joins the last block on its lines when that block is the last on
    all of them, and so covers them.  Otherwise it starts a block on its own
    lines, which first takes in the last block of each of them if that block
    has one line: nothing after such a block touches its line, so its gates
    commute up to the gate.  A block keeps the lines of the gate that
    started it, so no block spans more than two lines.
    """
    lines_of: list[tuple[int, ...]] = []
    members: list[list[int] | None] = []
    last: dict[int, int] = {}  # line -> the last block on it
    for i, lines in enumerate(gate_lines):
        owners = {last.get(q) for q in lines}
        if len(owners) == 1 and None not in owners:
            members[owners.pop()].append(i)
            continue
        taken: list[int] = []
        for q in lines:
            b = last.get(q)
            if b is not None and len(lines_of[b]) == 1:
                taken += members[b]
                members[b] = None
            last[q] = len(lines_of)
        lines_of.append(lines)
        members.append(taken + [i])
    return [(lines, gates) for lines, gates in zip(lines_of, members) if gates is not None]


def _products(mats: np.ndarray, run: np.ndarray) -> np.ndarray:
    """The product M_last @ ... @ M_first of each run of equal entries of
    `run` in a (N, d, d) stack, one matrix per run, in order.

    Each round multiplies every pair of neighbours in one run with one
    stacked matmul, so a run of N factors takes log2(N) rounds and no
    product is taken gate by gate.
    """
    while (run[1:] == run[:-1]).any():
        at = np.arange(len(run))
        first = np.r_[True, run[1:] != run[:-1]]
        keep = (at - np.maximum.accumulate(np.where(first, at, 0))) % 2 == 0
        paired = keep & np.r_[~first[1:], False]  # with a right neighbour in its run
        lead = np.flatnonzero(paired)
        out = mats[keep]
        out[paired[keep]] = mats[lead + 1] @ mats[lead]
        mats, run = out, run[keep]
    return mats


# The basis order of a two-line gate read with its lines exchanged.
_EXCHANGED = [0, 2, 1, 3]


def _fused(
    gate_lines: list[tuple[int, ...]], mats: list[np.ndarray]
) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """The lines and unitaries of the `_blocks` of gates with these lines
    and matrices.  A block's unitary is the product of its gates' matrices,
    each embedded in the block's lines; the products of all blocks of one
    width are formed at once (`_products`)."""
    blocks = _blocks(gate_lines)
    out: list[np.ndarray] = [None] * len(blocks)
    for width in (1, 2):
        which = [b for b, (lines, _) in enumerate(blocks) if len(lines) == width]
        if not which:
            continue
        gates = [i for b in which for i in blocks[b][1]]
        run = np.repeat(np.arange(len(which)), [len(blocks[b][1]) for b in which])
        if width == 1:
            stack = np.stack([mats[i] for i in gates])
        else:
            # Where each gate sits in its block: 0 on the block's lines, 1 on
            # them exchanged, 2 on the first line alone, 3 on the second.
            place = []
            for b in which:
                lines, members = blocks[b]
                for g in (gate_lines[i] for i in members):
                    place.append(g != lines if len(g) == 2 else 2 + (g[0] != lines[0]))
            place = np.array(place)
            stack = np.empty((len(gates), 4, 4), dtype=complex)
            two = np.flatnonzero(place < 2)
            if two.size:
                u = np.stack([mats[gates[k]] for k in two])
                swapped = place[two] == 1
                u[swapped] = u[swapped][:, _EXCHANGED][:, :, _EXCHANGED]
                stack[two] = u
            one = np.flatnonzero(place >= 2)
            if one.size:
                u, eye = np.stack([mats[gates[k]] for k in one]), np.eye(2)
                high = (place[one] == 2)[:, None, None, None, None]
                kron = np.where(
                    high, np.einsum("nij,kl->nikjl", u, eye), np.einsum("ij,nkl->nikjl", eye, u)
                )
                stack[one] = kron.reshape(-1, 4, 4)
        for b, u in zip(which, _products(stack, run)):
            out[b] = u
    return [lines for lines, _ in blocks], out


def _first_use_layout(gate_lines: list[tuple[int, ...]], m: int) -> tuple[int, ...]:
    """The start layout of the route (rebits 1..m and B = m+1, most
    significant pair-index bit first): the qubits the walk, last gate first,
    never touches, then the others, the first touched lowest, then B.
    Qubit m+1 of `gate_lines` is the gadget's, rebit A."""
    used = dict.fromkeys(q for lines in reversed(gate_lines) for q in lines if q <= m)
    return (*(q for q in range(1, m + 1) if q not in used), *reversed(used), m + 1)


def _walk(
    gate_lines: list[tuple[int, ...]], m: int, layout: tuple[int, ...]
) -> tuple[list[list[int]], list[list[int]], np.ndarray, np.ndarray]:
    """The route's layouts, walked last gate first from the start `layout`.

    Before each realified gate the layout moves the gate's rebits (other
    than A) to the lowest pair-index bits, so the pairs split into blocks of
    2^j adjacent pairs, one per assignment of the spectator lines, on which
    the gate acts alike.  Per gate, in walk order: where each layout rebit
    moves, where each of the gate's local rebits sits in its own line order,
    whether rebit A is in the gate, and its block of pairs.
    """
    a_line, b_line = m + 2, m + 1
    new_pos, local_pos, with_a, block = [], [], [], []
    for lines in reversed(gate_lines):
        lines = tuple(l if l <= m else a_line for l in lines) + (b_line,)
        moved = tuple(q for q in layout if q in lines)
        after = tuple(q for q in layout if q not in lines) + moved
        local = moved + ((a_line,) if a_line in lines else ())
        new_pos.append([after.index(q) for q in layout])
        local_pos.append([lines.index(q) for q in local])
        with_a.append(a_line in lines)
        block.append(2 ** len(moved))
        layout = after
    return new_pos, local_pos, np.array(with_a), np.array(block)


def _emitted_cone(
    moves: np.ndarray, first: GateColumns, starts: np.ndarray, block: np.ndarray
) -> tuple[int, list[tuple[np.ndarray, np.ndarray, list[np.ndarray]]]]:
    """Which gates of the expansion lie in line 1's backward light cone.

    The expansion is, per gate g, its swap network (the `_networks` of
    moves[g]) and its first-block gates, rows starts[g] .. starts[g+1]-1
    of `first`, copied to every block of block[g] lines; gate 0, the Z_A
    layer, has no swap and one block of all lines.  It is scanned last
    gate first by `circuits._cone_scan` from this description.  The copies
    meet disjoint lines, so each copy reads only its block's support, and
    each distinct support of a block is scanned once per gate; a block the
    support misses keeps nothing.  Once the support holds every line, every
    earlier gate meets it and it stays whole, so the scan stops there.

    Returns (whole, partial): gates 0 .. whole - 1 keep every gate, and
    partial[g - whole] is (swaps, ids, rows) of each later gate: the lines
    of the swaps of its network it keeps, in order, and per block the index
    in `rows` of the sorted first-block rows it keeps.  Besides `moves` it
    holds at most four bytes per kept swap and two per block.
    """
    n = int(block[0])  # the Z_A layer's one block is every line
    support = [False, True] + [False] * (n - 1)  # line 1 of lines 1..n
    effect, lo_line, hi_line = _cone_moves(first)
    starts, partial = starts.tolist() + [len(effect)], []
    # The networks are read in runs of about _VALIDATE_CHUNK swaps, the last
    # gate's first: `network` holds those of gates net .. the gate that read it.
    at_swap = [0, *np.cumsum(moves.sum(axis=1)).tolist()]
    g = net = len(block)
    while g and not all(support[1:]):
        g -= 1
        b, lo, hi = int(block[g]), starts[g], starts[g + 1]
        gate = (effect[lo:hi], lo_line[lo:hi], hi_line[lo:hi])
        ids, rows, seen = np.empty(n // b, dtype=np.int16), [], {}
        for r in range(n // b):
            at = slice(r * b + 1, r * b + b + 1)
            pattern = tuple(support[at])
            if pattern not in seen:
                local = [False, *pattern]
                kept = _cone_scan(gate, local)
                seen[pattern] = (len(rows), local[1:])
                rows.append(np.array(kept[::-1], dtype=np.int64) + lo)
            ids[r], support[at] = seen[pattern]
        if g < net:
            net = min(g, bisect.bisect_left(at_swap, at_swap[g + 1] - _VALIDATE_CHUNK))
            swaps = _networks(moves[net : g + 1])
            network = _cone_moves(_table(np.full(len(swaps), KIND_CODES["w"]), swaps, np.empty(0)))
        lo, hi = at_swap[g] - at_swap[net], at_swap[g + 1] - at_swap[net]
        kept = _cone_scan(tuple(column[lo:hi] for column in network), support)
        partial.append((swaps[lo:hi][kept[::-1]].astype(np.int32), ids, rows))
    return g, partial[::-1]


def expand_circuit(circuit: GeneralCircuit, width_guard: int = EXPAND_MAX_WIDTH) -> MatchgateCircuit:
    """Compile an m-qubit general circuit to a 2^{m+1}-line matchgate circuit.

    The result runs on the all-zero input and reproduces the source
    circuit's <Z_1> (on its basis input) as its own <Z_1>.  Its gates are
    one GateColumns table (`_ParsedGates`).
    """
    _require_flavor(circuit, "qc")
    validate_or_raise(circuit)
    m = circuit.width
    if m > width_guard:
        raise GuardError(
            f"expanding {m} qubits needs 2^{m + 1} lines; guard is {width_guard} qubits"
        )

    # Fold the basis input into x gates, keep the gates in line 1's backward
    # light cone, fuse, then append the readout gadget.
    prefix = _table_of([("x", (q + 1,), ()) for q, c in enumerate(circuit.input) if c == "1"])
    gates = _ParsedGates(prefix, circuit.gates)
    table = gates.table.take(np.flatnonzero(light_cone(gates, m, 1)))
    gate_lines, mats = _fused(table.line_tuples(), gate_matrices(table))
    gate_lines.append((1, m + 1))
    mats.append(W_GADGET.astype(complex))

    # V_hat^T: the realified gates, transposed, in reverse order, each routed
    # from a start layout that puts the qubits lowest in order of first use.
    n = 2 ** (m + 1)
    new_pos, local_pos, with_a, block = _walk(gate_lines, m, _first_use_layout(gate_lines, m))

    # Realify and factor all gates of one matrix size at once.  Transposing
    # and reordering a gate's tensor factors to its local rebits only
    # reindexes it: entry (r, c) is realified entry (pi(c), pi(r)).
    mats = mats[::-1]
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
    # which bounds the memory its comparisons take).  The Z_A layer leads
    # as gate 0, which keeps the layout: it has no swap.
    moves = _left_moves(_bit_permutations(np.array([list(range(m + 1)), *new_pos])))

    # The first block's gate of every factor, in one call.  With A a
    # spectator a factor in plane (a, a+1) acts alike on the A=0 and A=1
    # dimensions of pairs a and a+1: planes (2a-1, 2a+1) and (2a, 2a+2),
    # i.e. (1,3) and (2,4) of one window, turned by one angle: one mg gate.
    flat = [r for fs in factors for r in fs]
    counts = np.array([len(fs) for fs in factors])
    gate = np.repeat(np.arange(len(factors)), counts)
    spectator = ~with_a[gate]
    a = np.array([r.a for r in flat], dtype=np.int64)
    a = np.where(spectator, 2 * a - 1, a)
    theta = np.array([r.theta for r in flat], dtype=float)
    first_lines, rot_rows = _rot_gates(a, a + 1 + spectator, theta, block[gate])
    params = _hopping_rows(rot_rows[:, 1])
    params[~spectator, :2] = rot_rows[~spectator]
    rot, mg, w = KIND_CODES["rot"], KIND_CODES["mg"], KIND_CODES["w"]

    # The Z_A layer, one block of all lines: sign-flip of both dimensions of
    # every odd-indexed pair, written as pi-rotations in the planes (4t-2, 4t).
    z = np.arange(1, n // 2 + 1)
    z_lines, z_rows = _rot_gates(4 * z - 2, 4 * z, np.full(n // 2, math.pi), n)
    params = params[np.arange(16) < np.where(spectator, 16, 2)[:, None]]  # 16 reals or 2
    kinds = np.r_[np.full(n // 2, rot), np.where(spectator, mg, rot)]
    first = _table(kinds, np.r_[z_lines, first_lines], np.r_[z_rows.ravel(), params])
    gates_of = np.r_[n // 2, counts]  # the first block's gates
    starts = np.cumsum(gates_of) - gates_of
    block = np.r_[n, block]

    # Only the gates in line 1's light cone are emitted, and the guard counts
    # exactly those, before any is.
    whole, partial = _emitted_cone(moves, first, starts, block)
    copied = (gates_of * (n // block))[:whole]
    n_w = [*moves.sum(axis=1)[:whole].tolist(), *(len(swaps) for swaps, _, _ in partial)]
    n_copied = copied.tolist() + [sum(len(rows[i]) for i in ids) for _, ids, rows in partial]
    emitted = sum(n_w) + sum(n_copied)
    if emitted > EXPAND_MAX_GATES:
        raise GuardError(f"expanding would emit {emitted} gates; guard is {EXPAND_MAX_GATES}")

    # Each gate's kept swaps go before its kept copies.  Gates before `whole`
    # keep every gate: copy t of gate g is its first-block gate t mod
    # gates_of[g], shifted by block[g] for each full round before it.  Each
    # later gate keeps, in each block, the first-block gates kept for that
    # block's support, shifted to it.
    t = np.arange(copied.sum()) - np.repeat(np.cumsum(copied) - copied, copied)
    rounds, t = np.divmod(t, np.repeat(gates_of[:whole], copied))
    w_lines = [_networks(moves[:whole]), *(swaps for swaps, _, _ in partial)]
    src = [np.repeat(starts[:whole], copied) + t]
    shift = [rounds * np.repeat(block[:whole], copied)]
    for g, (_, ids, rows) in enumerate(partial, start=whole):
        kept = [rows[i] for i in ids.tolist()]
        src.append(np.concatenate(kept))
        shift.append(np.repeat(np.arange(len(ids)) * block[g], [len(k) for k in kept]))
    is_w = np.repeat(np.tile([True, False], len(n_w)), np.ravel([n_w, n_copied], order="F"))
    copies = first.take(np.concatenate(src))
    kinds, lines = np.full(len(is_w), w), np.empty(len(is_w), dtype=np.int64)
    kinds[~is_w], lines[~is_w] = copies.kinds, copies.lines + np.concatenate(shift)
    lines[is_w] = np.concatenate(w_lines)
    table = _table(kinds, lines, copies.params)
    return MatchgateCircuit(n, _ParsedGates(table), "0" * n, 1, allow_idle=True)
