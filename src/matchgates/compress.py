"""Compile a standardized matchgate circuit onto exponentially fewer qubits.

A width-n matchgate circuit (all-zero input, line-1 readout, n a power of
two) fixes the rotation R in SO(2n) and the pairing matrix S.  Its readout
equals Re <0|V|0> for the real orthogonal V = S^{-1} R S R^{-1} acting on a
register of mu = log2(2n) qubits, with rotation dimension j carried by the
basis state whose label is the Gray code of j-1.  That real part is produced
by the standard one-ancilla interference ("Hadamard-test") pattern: an H on
the control line, V applied under that control, and a closing H.  Only S
needs the control, as c-(R S R^{-1}) = R c-S R^{-1} (Barenco et al. 1995,
arXiv:quant-ph/9503016): the rotation passes never read line 1.

Register layout (width mu + 2):
  line 1            control, measured
  lines 2 .. mu+1   data, Gray-label bit 1 (most significant) .. bit mu
  line mu+2         work ancilla, starts and ends in |0>

Controlled-V is streamed in runs of gates.  Matchgate k acts on the window of
dimensions 2k-1 .. 2k+2, whose four Gray labels agree on every bit but the
last and one other, q: the window is the two-qubit subspace of lines q and
last with every shared bit fixed.  So for each matchgate, once per pass, the
AND of the window's shared bits alone is computed into the work ancilla,
borrowing the two window lines as dirty scratch (at mu = 3 the one shared
line is itself the AND; at mu = 2 the window shares no bit, and the control
line fires it, since a controlled R is also correct).  The
matchgate's rotation, in the (bit q, last bit) basis, is an R in SO(4), and
in the magic basis Q it is local: Q R Q^dag = A (x) B (Vatan & Williams 2004,
arXiv:quant-ph/0308006).  So the window's R is Q on the two window lines, A on
line q and B on the last line each under the ancilla, and Q^dag; wherever
the ancilla is 0, Q^dag undoes Q.  The same AND gates then uncompute the
ancilla.  Window k shares no dimension with the windows of pairs k +- 2 and
beyond, so within a run a matchgate on pair k is folded into the last kept
matchgate on k when no matchgate on pair k - 1 or k + 1 came after that
one, and only the product is compiled.  Everything is decomposed exactly to
the cu1/u1/x gate set.  S contributes Gray-to-binary conversion, one
controlled block on the last data line, and conversion back.

Only the gates in line 1's backward light cone are compiled
(`circuits.light_cone`): scanned last first, a gate is kept iff it meets a
set of support lines that starts as line 1; `w` exchanges its two lines'
membership, `gxx` and a `rot` in plane 1 or 6 leave it as it is, and every
other kind adds both lines.  A dropped gate meets no dimension of the two
rows of R that the readout (R S R^T)[2, 1] reads, so it changes neither.
The width, the input and the validation of every gate are unchanged;
`standardize`, which compress runs first, keeps every gate.

Everything is generated lazily, a run of 64 matchgates at a time
(`simulate._ROTATION_RUN`), as row ranges of GateColumns blocks: the
rotations of a run are split into local pairs in one call, and the run's
controlled gates are one block of two rows per matchgate, built from those
arrays.  The windows a run needs that the stream does not hold are built
together, as rows of one table, from one AND template per mu; a window's
AND, Q and Q^dag are emitted as the same objects each time it is used, and
so are the frame and pairing runs.  Only the public gate lists build
GateApps (see `circuits`).  Memory is O(mu^2) per matchgate of the current
run, plus the blocks of the at most WINDOW_CACHE_SIZE windows one stream
keeps for reuse (a block holds at most one run's windows), independent of
the input length.  `compress_circuit` keeps the output as these ranges,
and `serialize_circuit` writes each distinct block once.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import algebra
from .circuits import (
    KIND_CODES,
    GateApp,
    GeneralCircuit,
    MatchgateCircuit,
    UsageError,
    _HADAMARD,
    _ParsedGates,
    _Piece,
    _gate_apps,
    _mark_valid,
    _require_flavor,
    _table,
    _table_of,
    light_cone,
    reals_from_complex,
    validate_or_raise,
)
from .simulate import rotation_runs

_X_PARAMS = reals_from_complex(algebra.PAULI_X)
# Square root of X and its inverse: the exact 5-gate two-control building block.
_V_MATRIX = np.array([[1.0 + 1.0j, 1.0 - 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]]) / 2.0
_V_PARAMS = reals_from_complex(_V_MATRIX)
_VDG_PARAMS = reals_from_complex(_V_MATRIX.conj().T)
# The one-line gates of algebra.MAGIC on lines (q, p) and of its inverse.
_S_MATRIX = np.diag([1.0, 1.0j])
_HS_MATRIX = _HADAMARD @ _S_MATRIX
_S_PARAMS, _SDG_PARAMS = reals_from_complex(_S_MATRIX), reals_from_complex(_S_MATRIX.conj())
_HS_PARAMS, _HSDG_PARAMS = reals_from_complex(_HS_MATRIX), reals_from_complex(_HS_MATRIX.conj().T)
# The exact 5-gate Toffoli (c1, c2, t) over cu1, via the square root of X:
# each gate's (control, target) as positions in (c1, c2, t), and its reals.
_TOFFOLI_LINES = np.array([1, 2, 0, 1, 1, 2, 0, 1, 0, 2])
_TOFFOLI_PARAMS = np.concatenate([_V_PARAMS, _X_PARAMS, _VDG_PARAMS, _X_PARAMS, _V_PARAMS])
# Q = algebra.MAGIC on lines (q, last), then Q^dag: each gate's kind, its
# lines as positions in (q, last), and its reals.
_MAGIC_KINDS = np.array([KIND_CODES[kind] for kind in ("u1", "u1", "cu1", "cu1", "u1", "u1")])
_MAGIC_LINES = np.array([0, 1, 1, 0, 1, 0, 1, 0])
_MAGIC_PARAMS = np.concatenate(
    [_S_PARAMS, _HS_PARAMS, _X_PARAMS, _X_PARAMS, _HSDG_PARAMS, _SDG_PARAMS]
)


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
    return list(_gate_apps(_table_of(_gray_chain(mu, 0))))


def _gray_chain(mu: int, offset: int) -> list[tuple]:
    """`gray_converter_circuit(mu)` as (kind, lines, reals), every line moved by `offset`."""
    return [("cu1", (p - 1 + offset, p + offset), _X_PARAMS) for p in range(mu, 1, -1)]


def _toffolis(triples: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The cu1 gates of each exact Toffoli (c1, c2, t), end to end: their
    (control, target) lines and their reals."""
    lines = np.array(triples, dtype=np.int64).reshape(-1, 3)[:, _TOFFOLI_LINES]
    return lines.ravel(), np.repeat(_TOFFOLI_PARAMS[None], len(triples), axis=0).ravel()


def _mcx(
    controls: tuple[int, ...], target: int, pool: tuple[int, ...]
) -> list[tuple[int, int, int]]:
    """X under r >= 2 controls, exactly, as Toffolis (c1, c2, t) (see
    `_toffolis`), borrowing the non-empty `pool` of lines as dirty scratch.

    Scratch lines are restored to their incoming state whatever it was.  The
    cost is O(r) Toffolis: with at least r-2 scratch lines a single
    borrowed-ladder network is used, else the problem splits in two with
    each half borrowing the other's controls.
    """
    r = len(controls)
    if r == 2:
        return [(controls[0], controls[1], target)]
    if len(pool) >= r - 2:
        anc = pool[: r - 2]
        top = [(controls[-1], anc[-1], target)]
        desc = [(controls[i + 1], anc[i - 1], anc[i]) for i in range(r - 3, 0, -1)]
        base = [(controls[0], controls[1], anc[0])]
        asc = [(controls[i + 1], anc[i - 1], anc[i]) for i in range(1, r - 2)]
        half = top + desc + base + asc
        return half + half
    s = pool[0]
    h = (r + 1) // 2
    first, second = controls[:h], controls[h:]
    g1 = _mcx(first, s, second + (target,) + pool[1:])
    g2 = _mcx(second + (s,), target, first + pool[1:])
    return g1 + g2 + g1 + g2


def pad_to_power_of_two(circuit: MatchgateCircuit) -> MatchgateCircuit:
    """Widen with idle all-zero lines until the width is a power of two."""
    _require_flavor(circuit, "mg")
    validate_or_raise(circuit)
    n = circuit.width
    target = 1 << max(1, (n - 1).bit_length())
    if target == n:
        return circuit
    padded = MatchgateCircuit(
        target,
        circuit.gates,
        circuit.input + "0" * (target - n),
        circuit.measure_line,
        allow_idle=True,
    )
    return _mark_valid(padded)


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


# Windows whose gates one compress stream keeps for reuse.  Building a
# window's gates costs more than emitting them, and a circuit's matchgates
# revisit their windows; the bound keeps the stream's memory independent of
# the width.
WINDOW_CACHE_SIZE = 64


class _Window(NamedTuple):
    """Matchgate k's window: `gates` computes the AND on line `fired` (and,
    again, uncomputes it); the labels vary on lines `q` and `last`, and
    `basis` lists the four dimensions (0-based) in the (bit q, last bit)
    order |00>, |01>, |10>, |11>; `enter` is `algebra.MAGIC` on (q, last)
    and `leave` its inverse.  The three are rows of one table."""

    gates: _Piece
    fired: int
    q: int
    last: int
    basis: tuple[int, ...]
    enter: _Piece
    leave: _Piece


def _and_template(mu: int) -> tuple[np.ndarray, ...]:
    """The rows every window at `mu` holds (see `_windows`), as positions in
    its lines (shared lines..., fired, q, last) and in its flags (is each
    shared line's bit 0..., true): the row kinds, the lines, which flag keeps
    each row and each line, and the reals.

    The AND is `_mcx` of the mu - 2 shared lines onto the work ancilla,
    borrowing the two window lines.  `_mcx` never reads a line's value, so
    computing it once on the positions and renumbering them gives each
    window's Toffolis.
    """
    c = mu - 2
    and_lines, and_params = _toffolis(_mcx(tuple(range(c)), c, (c + 1, c + 2)) if c > 1 else [])
    t, u = len(and_lines) // 2, c if c > 1 else 0  # the AND's rows, the X undoing the wraps
    x, cu1 = KIND_CODES["x"], KIND_CODES["cu1"]
    kinds = np.concatenate([np.full(c, x), np.full(t, cu1), np.full(u, x), _MAGIC_KINDS])
    lines = np.concatenate([np.arange(c), and_lines, np.arange(u), c + 1 + _MAGIC_LINES])
    row_flag = np.concatenate([np.arange(c), np.full(t, c), np.arange(u), np.full(6, c)])
    line_flag = np.concatenate([np.arange(c), np.full(2 * t, c), np.arange(u), np.full(8, c)])
    return kinds, lines, row_flag, line_flag, np.concatenate([and_params, _MAGIC_PARAMS])


def _windows(ks: list[int], mu: int, template: tuple[np.ndarray, ...]) -> list[_Window]:
    """The windows of the matchgates on pairs `ks` (see `_Window`), rows of
    one table, from `_and_template(mu)`.

    Window k is dimensions 2k-1 .. 2k+2, the Gray labels of 2k-2 .. 2k+1.
    From an even start these vary only in the last bit and the bit flipped
    between the middle two, on line q = mu - (trailing zeros of k), and agree
    on every other bit.  The AND gates set the clean ancilla (line mu+2) to
    the AND of every shared bit, at its value, borrowing the two window lines
    as dirty scratch: X on every shared line whose bit is 0, the Toffolis,
    and those X again.  One shared bit (mu = 3) is the AND itself, and its X
    is undone by the AND's second use; with none (mu = 2) line 1 fires the
    core (a controlled R is also correct), and there are no gates.
    """
    kinds, positions, row_flag, line_flag, params = template
    c, last, count = mu - 2, mu + 1, len(ks)
    label = np.array([(2 * k - 2) ^ (k - 1) for k in ks], dtype=np.int64)  # Gray label of 2k - 2
    q = np.array([mu + 1 - (k & -k).bit_length() for k in ks], dtype=np.int64)
    shared = np.arange(2, 2 + c) + (np.arange(2, 2 + c) >= q[:, None])  # every data line but q
    fired = np.full(count, mu + 2) if c > 1 else shared[:, 0] if c else np.ones(count, np.int64)
    at = np.column_stack([shared, fired, q, np.full(count, last)]).astype(np.int64)
    flags = np.column_stack([(label[:, None] >> (last - shared)) & 1 == 0, np.ones(count, bool)])
    rows, lines = flags[:, row_flag], at[:, positions][flags[:, line_flag]]
    block = _table(kinds[rows.nonzero()[1]], lines, np.tile(params, count))
    # As 2 * (bit q) + (last bit), the four labels read s, s ^ 1, s ^ 3, s ^ 2.
    s = 2 * (label >> (last - q) & 1) + (label & 1)
    bases = np.argsort(np.array([0, 1, 3, 2]) ^ s[:, None], axis=1).tolist()
    ends = np.cumsum(rows.sum(axis=1)).tolist()
    out = []
    for end, start, f, qk, basis in zip(ends, [0, *ends], fired.tolist(), q.tolist(), bases):
        ranges = ((start, end - 6), (end - 6, end - 3), (end - 3, end))
        gates, enter, leave = (_Piece(block, lo, hi) for lo, hi in ranges)
        out.append(_Window(gates, f, qk, last, tuple(basis), enter, leave))
    return out


def _window_cache(mu: int) -> Callable[[list[int]], list[_Window]]:
    """One stream's windows: each call gives the windows of pairs `ks`,
    building those that are not among the WINDOW_CACHE_SIZE it used last in
    one `_windows` call."""
    template, kept = _and_template(mu), {}

    def windows(ks: list[int]) -> list[_Window]:
        used = dict.fromkeys(ks)
        new = [k for k in used if k not in kept]
        built = dict(zip(new, _windows(new, mu, template) if new else []))
        for k in used:  # the last used last
            kept[k] = kept.pop(k, None) or built[k]
        got = [kept[k] for k in ks]
        while len(kept) > WINDOW_CACHE_SIZE:
            del kept[next(iter(kept))]
        return got

    return windows


def _fused(lines: list[int], rots: np.ndarray, invert: bool) -> tuple[list[int], np.ndarray]:
    """One run's matchgates, in emission order, each folded into the last
    kept matchgate on its pair k when no matchgate on pair k - 1 or k + 1
    came after that one (see the module docstring).  The kept product is
    R_i R_j for the later R_i, or R_j R_i in the R^{-1} pass, whose
    rotations are read last first and transposed after."""
    kept: dict[int, int] = {}  # pair -> index of its last kept matchgate
    out_lines: list[int] = []
    out: list[np.ndarray] = []
    for k, r in zip(lines, rots):
        j = kept.get(k, -1)
        if j >= 0 and kept.get(k - 1, -1) < j and kept.get(k + 1, -1) < j:
            out[j] = out[j] @ r if invert else r @ out[j]
        else:
            kept[k] = len(out)
            out_lines.append(k)
            out.append(r)
    return out_lines, np.array(out)


def _rotation_pass(
    circuit: MatchgateCircuit,
    keep: np.ndarray,
    cache: Callable[[list[int]], list[_Window]],
    invert: bool,
) -> Iterator[_ParsedGates | _Piece]:
    """R (or R^{-1} with `invert`), one kept matchgate at a time
    (see `_fused`): its window's AND, Q, A on line q and B on the last line
    under the AND, Q^dag, the AND again to uncompute it.  A kept matchgate
    whose rotation is the identity (to OMIT_ANGLE) emits nothing.

    The rotations of each run of _ROTATION_RUN matchgates are fused,
    permuted into their windows' bases, transposed for R^{-1}, and split in
    one call; the run's A and B gates are one block, rows 2i and 2i + 1 for
    its i-th moved matchgate.  Only the gates `keep` marks are read; fusion
    never crosses a run.
    """
    for lines, rots in rotation_runs(circuit.gates, invert, keep):
        lines, rots = _fused(lines, rots, invert)
        moved = np.flatnonzero(np.abs(rots - np.eye(4)).max(axis=(1, 2)) > algebra.OMIT_ANGLE)
        windows = cache([lines[i] for i in moved.tolist()])
        basis = np.array([w.basis for w in windows], dtype=np.intp).reshape(-1, 4)
        r = rots[moved[:, None, None], basis[:, :, None], basis[:, None, :]]
        a, b = algebra.local_pair(r.transpose(0, 2, 1) if invert else r)
        pairs = np.concatenate([a.reshape(-1, 4), b.reshape(-1, 4)], axis=1).view(float)
        targets = np.array([(w.fired, w.q, w.fired, w.last) for w in windows], dtype=np.int64)
        run = _table(np.full(2 * len(windows), KIND_CODES["cu1"]), targets.ravel(), pairs.ravel())
        for i, w in enumerate(windows):
            yield w.gates
            yield w.enter
            yield _Piece(run, 2 * i, 2 * i + 2)
            yield w.leave
            yield w.gates


def _pairing_run(mu: int, invert: bool) -> _ParsedGates:
    """Controlled S (or S^{-1}): binary relabeling, one controlled block, undo.

    In binary labels S acts on each dimension pair (2k-1, 2k), i.e. on the
    least significant label bit, as [[0, -1], [1, 0]]: the rotation by pi/2.
    """
    to_gray = _gray_chain(mu, 1)  # data lines 2..mu+1
    angle = -math.pi / 2.0 if invert else math.pi / 2.0
    # gray labels -> binary labels, the block, back to gray labels
    block = reals_from_complex(algebra.rot2(angle))
    return _ParsedGates(_table_of([*to_gray[::-1], ("cu1", (1, mu + 1), block), *to_gray]))


def _gate_pieces(circuit: MatchgateCircuit) -> Iterator[_ParsedGates | _Piece]:
    """The compressed circuit's gates, as tables and rows of tables: the
    interference frame around R^{-1}, controlled S, R and controlled S^{-1}.
    Both rotation passes read only the gates in line 1's backward light
    cone, which fix the two rows of R the readout reads."""
    n = _require_standard(circuit)
    mu = (2 * n).bit_length() - 1
    keep = light_cone(circuit.gates, n, 1)
    cache = _window_cache(mu)
    frame = _ParsedGates(_table_of([("h", (1,), ())]))
    yield frame
    yield from _rotation_pass(circuit, keep, cache, invert=True)
    yield _pairing_run(mu, invert=False)
    yield from _rotation_pass(circuit, keep, cache, invert=False)
    yield _pairing_run(mu, invert=True)
    yield frame


def compress_gate_stream(circuit: MatchgateCircuit) -> Iterator[GateApp]:
    """Lazily emit the compressed circuit's gates.

    Iterates the input gate list twice (once reversed), _ROTATION_RUN
    gates at a time.  Working state is one run's rotations, local pairs and
    controlled gates, plus the gates of the last WINDOW_CACHE_SIZE windows
    used, which both passes of this stream reuse.
    """
    for part in _gate_pieces(circuit):  # a window's gates are built once, for both passes
        yield from part if isinstance(part, _ParsedGates) else _ParsedGates(part)


def compress_circuit(circuit: MatchgateCircuit) -> GeneralCircuit:
    """Compile a standardized matchgate circuit to width log2(n) + 3.

    The output's <Z_1> on the all-zero input equals the input circuit's
    <Z_1>.  Requires all-zero input, measure line 1, power-of-two width.
    Its gates keep the pieces they were emitted as (`_ParsedGates.pieces`),
    so `serialize_circuit` writes each distinct block once.
    """
    gates = _ParsedGates(*_gate_pieces(circuit))
    mu = (2 * circuit.width).bit_length() - 1
    return GeneralCircuit(mu + 2, gates, "0" * (mu + 2))
