"""Compilation of matchgate circuits into exponentially narrower general circuits."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgates import algebra, circuits, compress, randgen
from matchgates.algebra import rot2
from matchgates.circuits import (
    KIND_CODES,
    GateApp,
    MatchgateCircuit,
    gate_matrix,
    reals_from_complex,
)
from matchgates.compress import (
    _mcx,
    _toffolis,
    compress_circuit,
    compress_gate_stream,
    gray,
    gray_converter_circuit,
    pad_to_power_of_two,
)
from matchgates.oracle import apply_dense_gate, expectation_z, run_statevector
from matchgates.simulate import _ROTATION_RUN, rotation_runs, simulate_expectation
from matchgates.standardize import standardize

from conftest import dense_unitary, record_gate_objects


# ----- Gray labels -----------------------------------------------------------


def test_gray_sequence_for_three_bits():
    labels = [gray(i, 3) for i in range(8)]
    assert labels == ["000", "001", "011", "010", "110", "111", "101", "100"]


def test_adjacent_gray_labels_differ_in_one_bit():
    for mu in (2, 3, 4, 5):
        for i in range((1 << mu) - 1):
            a, b = gray(i, mu), gray(i + 1, mu)
            assert sum(x != y for x, y in zip(a, b)) == 1


def test_gray_labelling_is_a_bijection():
    labels = [gray(i, 4) for i in range(16)]
    assert len(set(labels)) == 16


def test_gray_index_range_is_checked():
    with pytest.raises(ValueError):
        gray(8, 3)
    with pytest.raises(ValueError):
        gray(-1, 3)


def test_plane_partners_stay_within_the_label_distance_budget():
    # Givens factors of a 4x4 block touch adjacent dimension pairs
    # (base+a, base+a+1) over an even base; their Gray labels differ in
    # exactly one bit.  The four labels of a window vary only in the last
    # bit and one other, which is what lets one AND of the other bits
    # serve every factor of a matchgate.
    for mu in range(2, 11):
        for base in range(0, (1 << mu) - 4 + 1, 2):
            labels = [gray(base + i, mu) for i in range(4)]
            for la, lb in zip(labels, labels[1:]):
                assert sum(x != y for x, y in zip(la, lb)) == 1
            varying = [q for q in range(mu) if len({l[q] for l in labels}) > 1]
            assert len(varying) == 2 and varying[-1] == mu - 1


# ----- Binary <-> Gray relabeling circuit ------------------------------------


def test_converter_is_empty_for_one_bit():
    assert gray_converter_circuit(1) == []
    with pytest.raises(ValueError):
        gray_converter_circuit(0)


def test_converter_maps_binary_labels_to_gray_labels():
    mu = 3
    u = dense_unitary(gray_converter_circuit(mu), mu)
    for i in range(1 << mu):
        col = u[:, i]
        target = int(gray(i, mu), 2)
        assert col[target] == pytest.approx(1.0)
        assert np.abs(col).sum() == pytest.approx(1.0)


def test_converter_composed_with_its_reverse_is_identity():
    mu = 4
    gates = gray_converter_circuit(mu)
    u = dense_unitary(gates + gates[::-1], mu)
    assert np.abs(u - np.eye(1 << mu)).max() <= 1e-12


# ----- Windows and their local pairs -----------------------------------------


def _block_diagonal(t1: float, t2: float) -> np.ndarray:
    r = np.zeros((4, 4))
    r[:2, :2], r[2:, 2:] = rot2(t1), rot2(t2)
    return r


def test_local_pair_is_exact_on_so4_stacks(rng):
    q, _ = np.linalg.qr(rng.normal(size=(64, 4, 4)))
    q[np.linalg.det(q) < 0, :, 0] *= -1
    by_pi = [algebra.plane_rotation(4, a, b, np.pi) for a, b in algebra.PLANES]
    blocks = [
        _block_diagonal(t1, t2)
        for t1, t2 in [(0.3, -1.2), (np.pi, np.pi), (np.pi / 2, 0.0), (0.0, -np.pi / 2)]
    ]
    r = np.concatenate([q, np.eye(4)[None], -np.eye(4)[None], by_pi, blocks])
    a, b = algebra.local_pair(r)
    for m in (a, b):
        assert np.abs(m @ m.conj().swapaxes(1, 2) - np.eye(2)).max() <= 1e-12
        assert np.abs(np.linalg.det(m) - 1.0).max() <= 1e-12
    pair = np.einsum("tij,tkl->tikjl", a, b).reshape(-1, 4, 4)
    magic = algebra.MAGIC
    assert np.abs(magic.conj().T @ pair @ magic - r).max() <= 1e-12
    empty = algebra.local_pair(np.zeros((0, 4, 4)))
    assert [m.shape for m in empty] == [(0, 2, 2), (0, 2, 2)]


@pytest.mark.parametrize(
    "bad, message",
    [
        (1.01 * np.eye(4), "matrix 2 of the stack is not orthogonal"),
        (np.diag([1.0, 1.0, 1.0, -1.0]), "matrix 2 of the stack has determinant -1"),
        (np.full((4, 4), np.nan), "matrix 2 of the stack is not orthogonal"),
    ],
)
def test_local_pair_refuses_a_matrix_outside_so4(bad, message):
    r = np.stack([np.eye(4), algebra.plane_rotation(4, 2, 3, 0.4), bad, bad])
    with pytest.raises(ValueError, match=message):
        algebra.local_pair(r)


def test_local_pair_refuses_one_matrix_and_checks_its_product():
    with pytest.raises(ValueError, match="stack"):
        algebra.local_pair(np.eye(4))
    # Outside the magic basis a rotation is not a product of local gates.
    r = algebra.plane_rotation(4, 1, 3, 0.7)[None]
    with mock.patch.object(algebra, "MAGIC", np.eye(4)):
        with pytest.raises(RuntimeError, match="local pair failed to reproduce"):
            algebra.local_pair(r)


def _gates(piece) -> tuple:
    """The GateApps of a piece compress emits."""
    return tuple(circuits._ParsedGates(piece))


def _toffoli_gates(triples) -> tuple:
    """The GateApps of each exact Toffoli (c1, c2, t)."""
    lines, params = _toffolis(triples)
    return _gates(circuits._table(np.full(len(lines) // 2, KIND_CODES["cu1"]), lines, params))


def _on_lines(gates, lines: dict) -> list:
    """The gates with their lines renumbered by `lines`."""
    return [GateApp(g.kind, tuple(lines[l] for l in g.lines), g.params) for g in gates]


def _kept(lines: list) -> list:
    """Positions in `lines`, one run's pairs in emission order, grouped as
    a pass compiles them: a matchgate on pair k joins the group of the last
    kept matchgate on k unless one on pair k - 1 or k + 1 came between."""
    groups, last = [], {}
    for i, k in enumerate(lines):
        j = last.get(k)
        if j is not None and all(abs(lines[p] - k) != 1 for p in range(groups[j][0], i)):
            groups[j].append(i)
        else:
            last[k] = len(groups)
            groups.append([i])
    return groups


def _kept_runs(lines: list) -> list:
    """Each run's groups (see `_kept`) as positions in `lines`, the R^{-1}
    pass's runs first (last run first, its gates last first), then the R
    pass's."""
    starts = range(0, len(lines), _ROTATION_RUN)
    runs = [list(range(lo, min(lo + _ROTATION_RUN, len(lines)))) for lo in starts]
    order = [run[::-1] for run in runs[::-1]] + runs
    return [[[run[i] for i in g] for g in _kept([lines[p] for p in run])] for run in order]


def _staircase(rng, n: int) -> tuple[GateApp, ...]:
    """Haar matchgates on pairs n - 1 down to 1.  Closing a circuit, they
    put every gate in line 1's backward light cone: scanned last first, each
    meets the lines the later ones reach, so after them the support holds
    every line and compress drops no gate."""
    return tuple(_haar_mg(rng, k) for k in range(n - 1, 0, -1))


def _window(k: int, mu: int) -> compress._Window:
    """Matchgate k's window, as compress builds it."""
    return compress._windows([k], mu, compress._and_template(mu))[0]


def reference_window(k: int, mu: int) -> compress._Window:
    """Matchgate k's window built on its own, from its Gray labels, with its
    own `_mcx` call on the window's lines: the reference that the windows
    compress builds in batches from one AND template per mu must equal."""
    labels = [gray(i, mu) for i in range(2 * k - 2, 2 * k + 2)]
    varying = [p for p in range(mu) if len({label[p] for label in labels}) > 1]
    assert len(varying) == 2 and varying[-1] == mu - 1
    bit = varying[0]
    basis = tuple(sorted(range(4), key=lambda i: labels[i][bit] + labels[i][-1]))
    q, last = bit + 2, mu + 1  # label bit p sits on data line p + 2
    controls = tuple(p + 2 for p in range(mu) if p not in varying)  # the shared bits' lines
    fired = mu + 2 if len(controls) > 1 else (controls + (1,))[0]
    and_lines, and_params = _toffolis(_mcx(controls, fired, (q, last)) if len(controls) > 1 else [])
    # The AND is X on every shared line whose bit is 0, the Toffolis, and
    # those X again; a lone shared line's X is undone by the AND's second use.
    wraps = np.array([l for l in controls if labels[0][l - 2] == "0"], dtype=np.int64)
    unwraps = wraps if len(controls) > 1 else wraps[:0]
    x, cu1 = np.full(len(wraps), KIND_CODES["x"]), np.full(len(and_lines) // 2, KIND_CODES["cu1"])
    kinds = np.concatenate([x, cu1, x[: len(unwraps)], compress._MAGIC_KINDS])
    lines = np.concatenate([wraps, and_lines, unwraps, np.array([q, last])[compress._MAGIC_LINES]])
    block = circuits._table(kinds, lines, np.concatenate([and_params, compress._MAGIC_PARAMS]))
    n = len(kinds) - 6
    ranges = ((0, n), (n, n + 3), (n + 3, n + 6))
    gates, enter, leave = (circuits._Piece(block, lo, hi) for lo, hi in ranges)
    return compress._Window(gates, fired, q, last, basis, enter, leave)


def _rows(gates) -> tuple:
    """The kinds, lines and reals of a window's gates, as lists."""
    table = circuits._ParsedGates(gates).table
    return table.kinds.tolist(), table.lines.tolist(), table.params.tolist()


@pytest.mark.parametrize("mu", range(2, 8))
def test_batched_windows_match_the_window_by_window_build(mu):
    # Every window at mu, built in one batch in order, in reverse and
    # shuffled, holds the reference's rows and fields; the batch is one table.
    ks = list(range(1, 1 << (mu - 1)))
    template = compress._and_template(mu)
    order = np.random.default_rng(mu).permutation(ks).tolist()
    for batch in (ks, ks[::-1], order):
        got = compress._windows(batch, mu, template)
        assert len({id(p.block) for w in got for p in (w.gates, w.enter, w.leave)}) == 1
        for k, w in zip(batch, got):
            want = reference_window(k, mu)
            assert (w.fired, w.q, w.last, w.basis) == (want.fired, want.q, want.last, want.basis)
            assert all(type(v) is int for v in (w.fired, w.q, w.last, *w.basis))
            for part in ("gates", "enter", "leave"):
                assert _rows(getattr(w, part)) == _rows(getattr(want, part)), (k, part)


def _per_kept(k: int, mu: int) -> int:
    """Gates one kept matchgate on pair k emits per pass: its AND twice, Q,
    the local pair and Q^dag."""
    w = _window(k, mu)
    return 2 * len(_gates(w.gates)) + len(_gates(w.enter)) + 2 + len(_gates(w.leave))


def test_window_magic_gates_are_the_magic_basis_and_its_inverse():
    for k, mu in [(1, 2), (2, 3), (5, 4)]:
        w = _window(k, mu)
        lines = {w.q: 1, w.last: 2}
        enter = dense_unitary(_on_lines(_gates(w.enter), lines), 2)
        phase = enter[0, 0] / algebra.MAGIC[0, 0]
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.abs(enter - phase * algebra.MAGIC).max() <= 1e-12
        leave = dense_unitary(_on_lines(_gates(w.leave), lines), 2)
        assert np.abs(leave @ enter - np.eye(4)).max() <= 1e-12


def _basis_bits(k: int, mu: int) -> list[str]:
    """Window k's four Gray labels, in its (bit q, last bit) basis order,
    each as the two bits it holds on lines q and last."""
    w = _window(k, mu)
    labels = [gray(i, mu) for i in range(2 * k - 2, 2 * k + 2)]
    return [labels[i][w.q - 2] + labels[i][w.last - 2] for i in w.basis]


def test_alignment_of_distance_one_labels_needs_no_gates(rng):
    # mu = 3, window 2: labels 011, 010, 110, 111 vary in bits 1 and 3 (data
    # lines 2 and 4).  Plane (2, 3) differs in bit 1 only, planes (1, 2) and
    # (3, 4) in bit 3 only, so the window is the two-qubit subspace of lines
    # 2 and 4 up to a reordering of its four dimensions.
    w = _window(2, 3)
    assert (w.q, w.last, w.basis) == (2, 4, (1, 0, 2, 3))
    assert _basis_bits(2, 3) == ["00", "01", "10", "11"]
    # So the reordering is folded into the rotation and no gate aligns the
    # labels: the output is the frame, the two pairing runs, and per kept
    # matchgate and pass its AND twice, Q, the local pair and Q^dag.
    n, mu = 8, 4
    # Haar matchgates: no product of them is the identity, as a product of
    # two w or two gxx gates is.  The staircase keeps all of them compiled.
    c = randgen.random_matchgate_circuit(n, 12, rng, "0" * n, 1, kinds="haar")
    c = MatchgateCircuit(n, (*c.gates, *_staircase(rng, n)), "0" * n, 1)
    lines = [g.lines[0] for g in c.gates]
    for _, rots in rotation_runs(c.gates):
        assert (np.abs(rots - np.eye(4)).max(axis=(1, 2)) > algebra.OMIT_ANGLE).all()
    kept = [g[0] for run in _kept_runs(lines) for g in run]
    pairing = len(_gates(compress._pairing_run(mu, invert=False)))
    want = 2 + 2 * pairing + sum(_per_kept(lines[i], mu) for i in kept)
    assert len(compress_circuit(c).gates) == want


def test_alignment_four_bit_example():
    # (AND line, q, last, basis).  mu = 3, window 2: labels 011, 010, 110,
    # 111 on data lines 2..4; the one shared bit, 1 on line 3, is the AND.
    assert _window(2, 3)[1:5] == (3, 2, 4, (1, 0, 2, 3))
    # mu = 4, window 4: labels 0101, 0100, 1100, 1101 vary in bits 1 and 4
    # (data lines 2 and 5); the ancilla is line 6.
    assert _window(4, 4)[1:5] == (6, 2, 5, (1, 0, 2, 3))
    assert _basis_bits(4, 4) == ["00", "01", "10", "11"]


@pytest.mark.parametrize("mu", range(2, 7))
def test_window_planes_align_their_labels(mu):
    # Every window's three adjacent planes (1, 2), (2, 3), (3, 4) join
    # labels that differ in one bit only, on a window line: the last line
    # for the outer two, line q for the middle one.  In the window's basis
    # order its labels hold 00, 01, 10, 11 on (q, last), and every bit off
    # the window lines is shared by all four.
    for k in range(1, 1 << (mu - 1)):
        w = _window(k, mu)
        assert 2 <= w.q <= mu and w.last == mu + 1
        assert sorted(w.basis) == [0, 1, 2, 3]
        labels = [gray(i, mu) for i in range(2 * k - 2, 2 * k + 2)]
        for a, target in ((0, w.last), (1, w.q), (2, w.last)):
            la, lb = labels[a], labels[a + 1]
            assert [p + 2 for p in range(mu) if la[p] != lb[p]] == [target]
        assert _basis_bits(k, mu) == ["00", "01", "10", "11"]
        for p in range(mu):
            if p + 2 not in (w.q, w.last):
                assert len({label[p] for label in labels}) == 1


def _window_rotation(k: int, mu: int, r: np.ndarray, line1: tuple[int, ...]) -> np.ndarray:
    """Dense r on matchgate k's window labels on mu + 2 lines, applied where
    line 1 holds a value in `line1`; every other basis state is left alone."""
    width = mu + 2
    out = np.eye(1 << width)
    labels = [int(gray(i, mu), 2) for i in range(2 * k - 2, 2 * k + 2)]
    for control, ancilla in itertools.product(line1, (0, 1)):
        # Line 1 is the most significant bit, the work ancilla the least.
        index = [(control << (width - 1)) | (label << 1) | ancilla for label in labels]
        out[np.ix_(index, index)] = r
    return out


@pytest.mark.parametrize("mu", range(2, 7))
def test_window_gates_apply_the_controlled_window_rotation(mu, rng):
    # For every window, one pass emits the AND, Q, A on line q and B on the
    # last line under the AND, Q^dag and the AND again: densely, with the
    # work ancilla in |0>, the window's rotation R (R^T in the inverse pass)
    # on its Gray labels, and the identity elsewhere.  The AND reads the
    # shared label bits only, so R acts for either value of line 1 and
    # leaves line 1 alone; at mu = 2 no bit is shared and line 1 fires R.
    n, width = 1 << (mu - 1), mu + 2
    for k in range(1, n):
        gate = GateApp("mg", (k,), randgen.random_matchgate_params(rng))
        c = MatchgateCircuit(n, (gate,), "0" * n, measure_line=1, allow_idle=True)
        [(_, rots)] = rotation_runs(c.gates)
        w = _window(k, mu)
        and_gates = dense_unitary(_gates(w.gates), width)
        for invert, r in ((False, rots[0]), (True, rots[0].T)):
            # The pass reads the one gate whether or not it is in line 1's light cone.
            cache = compress._window_cache(mu)
            passes = compress._rotation_pass(c, np.ones(1, bool), cache, invert)
            runs = [_gates(p) for p in passes]
            assert runs[0] == runs[4] == _gates(w.gates)
            assert (runs[1], runs[3]) == (_gates(w.enter), _gates(w.leave))
            assert [(g.kind, g.lines) for g in runs[2]] == [
                ("cu1", (w.fired, w.q)),
                ("cu1", (w.fired, w.last)),
            ]
            u = and_gates @ dense_unitary([*runs[1], *runs[2], *runs[3]], width) @ and_gates
            # Even columns: the work ancilla (the last line) in |0>.
            expected = _window_rotation(k, mu, r, (1,) if mu == 2 else (0, 1))
            assert np.abs(u[:, ::2] - expected[:, ::2]).max() <= 1e-12


# ----- Multi-controlled rotations ---------------------------------------------


def _expected_controlled(target: int, controls, rot: np.ndarray, width: int):
    """Dense rotation on line `target` of `width` lines, applied iff every
    (line, value) pair in `controls` holds."""
    dim = 1 << width
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = format(i, f"0{width}b")
        if all(bits[l - 1] == str(v) for l, v in controls):
            t = target - 1
            for new_bit in (0, 1):
                j = int(bits[:t] + str(new_bit) + bits[t + 1 :], 2)
                out[j, i] += rot[new_bit, int(bits[t])]
        else:
            out[i, i] = 1.0
    return out


def test_toffoli_network_is_exact():
    u = dense_unitary(_toffoli_gates([(1, 2, 3)]), 3)
    expected = np.eye(8, dtype=complex)
    expected[6:, 6:] = [[0, 1], [1, 0]]
    assert np.abs(u - expected).max() <= 1e-12


def test_multi_controlled_x_with_one_dirty_scratch_line():
    for r in (3, 4, 5):
        controls = tuple(range(1, r + 1))
        target = r + 1
        scratch = r + 2
        gates = _toffoli_gates(_mcx(controls, target, (scratch,)))
        u = dense_unitary(gates, r + 2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = _expected_controlled(target, [(c, 1) for c in controls], x, r + 2)
        # Exact on every scratch state, i.e. the scratch line is restored.
        assert np.abs(u - expected).max() <= 1e-12


@pytest.mark.parametrize("r", range(2, 8))
def test_multi_controlled_x_with_two_dirty_scratch_lines(r, rng):
    # Compress borrows the two window lines of a matchgate for its AND.
    width = r + 3
    perm = tuple(int(p) for p in rng.permutation(width) + 1)
    controls, target, pool = perm[:r], perm[r], perm[r + 1 :]
    gates = _toffoli_gates(_mcx(controls, target, pool))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = _expected_controlled(target, [(c, 1) for c in controls], x, width)
    assert np.abs(dense_unitary(gates, width) - expected).max() <= 1e-12
    # A random state entangles the scratch lines with every other line; the
    # gates, applied one by one, flip the target and restore the scratch.
    state = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    state /= np.linalg.norm(state)
    out = state
    for g in gates:
        out = apply_dense_gate(out, gate_matrix(g), g.lines, width)
    assert np.abs(out - expected @ state).max() <= 1e-12


# ----- Full compilation --------------------------------------------------------


def test_padding_to_power_of_two_widths(rng):
    c3 = randgen.random_matchgate_circuit(3, 9, rng)
    padded = pad_to_power_of_two(c3)
    assert padded.width == 4
    assert padded.input == c3.input + "0"
    assert padded.allow_idle
    c4 = randgen.random_matchgate_circuit(4, 9, rng)
    assert pad_to_power_of_two(c4) == c4
    c5 = randgen.random_matchgate_circuit(5, 9, rng)
    assert pad_to_power_of_two(c5).width == 8


def test_compression_requires_the_standard_form(rng):
    c = randgen.random_matchgate_circuit(4, 8, rng, input_bits="0100", measure_line=1)
    with pytest.raises(ValueError):
        compress_circuit(c)
    k2 = randgen.random_matchgate_circuit(4, 8, rng, input_bits="0000", measure_line=2)
    with pytest.raises(ValueError):
        compress_circuit(k2)
    c6 = randgen.random_matchgate_circuit(6, 8, rng, input_bits="000000", measure_line=1)
    with pytest.raises(ValueError):
        compress_circuit(c6)


def test_compressed_width_is_logarithmic(rng):
    for n in (2, 4, 8, 16, 32):
        c = randgen.random_matchgate_circuit(
            n, 4, rng, input_bits="0" * n, measure_line=1
        )
        out = compress_circuit(c)
        mu = int(np.log2(2 * n))
        assert out.width == mu + 2
        assert out.flavor == "qc"
        assert out.input == "0" * (mu + 2)


def test_gate_stream_matches_the_one_shot_compiler(rng):
    c = randgen.random_matchgate_circuit(4, 6, rng, input_bits="0000", measure_line=1)
    streamed = tuple(compress_gate_stream(c))
    assert streamed == compress_circuit(c).gates
    assert streamed[0] == GateApp("h", (1,))
    assert streamed[-1] == GateApp("h", (1,))


def test_gate_stream_splits_one_run_of_rotations_at_a_time(rng):
    c = randgen.random_matchgate_circuit(8, 2000, rng, "0" * 8, 1, kinds="haar")
    c = MatchgateCircuit(8, (*c.gates, *_staircase(rng, 8)), "0" * 8, 1)
    stacks = []
    local_pair = algebra.local_pair
    with mock.patch.object(
        algebra, "local_pair", side_effect=lambda r: stacks.append(len(r)) or local_pair(r)
    ):
        stream = compress_gate_stream(c)
        first = list(itertools.islice(stream, 200))
        assert len(first) == 200 and len(stacks) <= 1
        rest = list(stream)
    # Each pass splits the kept rotations of _ROTATION_RUN matchgates at a
    # time (no Haar matchgate, nor a product of them, is the identity); the
    # inverse pass reads the short last run first.
    runs = _kept_runs([g.lines[0] for g in c.gates])
    assert len(runs) == 2 * -(-len(c.gates) // _ROTATION_RUN)
    assert stacks == [len(run) for run in runs]
    assert tuple(first + rest) == compress_circuit(c).gates


def test_trivial_rotations_compile_to_the_bare_interference_frame():
    # Zero-angle rotations factor away entirely, leaving h, S, S^-1, h: the
    # compiled circuit must then read out +1 like the identity circuit.
    gates = tuple(GateApp("rot", (k,), (1.0, 0.0)) for k in (1, 2, 3))
    c = MatchgateCircuit(4, gates, "0000", measure_line=1)
    out = compress_circuit(c)
    assert expectation_z(run_statevector(out), 1) == pytest.approx(1.0, abs=1e-12)


def test_compressed_circuit_reproduces_the_expectation(rng):
    for _ in range(4):
        c = randgen.random_matchgate_circuit(
            4, 12, rng, input_bits="0000", measure_line=1
        )
        want = simulate_expectation(c)
        out = compress_circuit(c)
        got = expectation_z(run_statevector(out), 1)
        assert abs(want - got) <= 1e-8


def test_compression_composes_with_the_standardizer(rng):
    c = randgen.random_matchgate_circuit(4, 10, rng, input_bits="1010", measure_line=3)
    out = compress_circuit(standardize(c))
    want = simulate_expectation(c)
    got = expectation_z(run_statevector(out), 1)
    assert abs(want - got) <= 1e-8


_IDENTITY_MG = reals_from_complex(np.eye(2)) * 2


def test_a_two_line_window_needs_no_and():
    # At n = 2 (mu = 2) the window shares no bit: the control line is the
    # AND, and the work ancilla (line 4) stays untouched.
    gates = (GateApp("mg", (1,), randgen.random_matchgate_params(np.random.default_rng(3))),)
    c = MatchgateCircuit(2, gates, "00", measure_line=1)
    out = compress_circuit(c)
    assert out.width == 4
    assert all(4 not in g.lines for g in out.gates)
    assert abs(expectation_z(run_statevector(out), 1) - simulate_expectation(c)) <= 1e-12


def test_one_and_pair_and_one_local_pair_per_moved_matchgate(rng):
    n, mu = 8, 4
    ancilla = mu + 2
    gates = list(randgen.random_matchgate_circuit(n, 10, rng, "0" * n, 1, kinds="haar").gates)
    gates[3:3] = [GateApp("rot", (1,), (2.0, 0.0)), GateApp("mg", (n - 1,), _IDENTITY_MG)]
    gates += _staircase(rng, n)
    c = MatchgateCircuit(n, tuple(gates), "0" * n, measure_line=1)
    rots = np.concatenate([r for _, r in rotation_runs(c.gates)])
    moved = int((np.abs(rots - np.eye(4)).max(axis=(1, 2)) > algebra.OMIT_ANGLE).sum())
    assert moved == len(gates) - 2  # the identity gates emit nothing
    # A kept matchgate moves unless it holds only the identity gates (no
    # product of Haar matchgates is the identity).
    kept = _kept_runs([g.lines[0] for g in gates])
    kept_moved = sum(1 for run in kept for group in run if set(group) - {3, 4})

    runs = [_gates(p) for p in compress._gate_pieces(c)]
    # Per moved kept matchgate and pass: the AND twice, Q and Q^dag (three
    # gates each) and one core of two cu1 gates from the ancilla, onto a window
    # line q and onto the last data line.
    at = [i for i, r in enumerate(runs) if len(r) == 2 and {g.lines[0] for g in r} == {ancilla}]
    assert len(at) == kept_moved
    ands = [runs[i - 2] for i in at]
    for i in at:
        a, b = runs[i]
        assert a.kind == b.kind == "cu1" and 2 <= a.lines[1] <= mu and b.lines[1] == mu + 1
        assert runs[i + 2] == runs[i - 2] and len(runs[i - 1]) == len(runs[i + 1]) == 3
    pairing = len(_gates(compress._pairing_run(mu, invert=False)))
    out = list(itertools.chain(*runs))
    assert len(out) == 2 + 2 * pairing + sum(2 * len(g) + 8 for g in ands)
    # Each AND is emitted twice (compute, uncompute), and nothing else
    # targets the work ancilla.
    to_ancilla = sum(1 for g in out if g.lines[-1] == ancilla)
    assert to_ancilla == sum(2 * sum(g.lines[-1] == ancilla for g in a) for a in ands)


@pytest.mark.parametrize("mu", range(2, 7))
def test_only_the_frame_and_the_pairing_runs_touch_line_one(mu, rng):
    # c-(R S R^{-1}) = R c-S R^{-1}: the rotation passes need no control
    # line.  Line 1 is on the frame H gates and the pairing runs only (at
    # mu = 2, where no label bit is shared, it also fires each core), and
    # every AND reads exactly its window's shared-bit lines.
    n = 1 << (mu - 1)
    c = randgen.random_matchgate_circuit(n, 4 * n, rng, "0" * n, 1, kinds="haar")
    c = MatchgateCircuit(n, (*c.gates, *_staircase(rng, n)), "0" * n, 1)
    mcx_calls, built = [], []
    windows, mcx = compress._windows, compress._mcx

    def mcx_spy(controls, target, pool):
        mcx_calls.append((controls, target, pool))
        return mcx(controls, target, pool)

    def windows_spy(ks, m, template):
        built.extend(zip(ks, windows(ks, m, template)))
        return [w for _, w in built[-len(ks) :]]

    with mock.patch.multiple(compress, _windows=windows_spy, _mcx=mcx_spy):
        pieces = [_gates(p) for p in compress._gate_pieces(c)]
    # The stream's one AND template is `_mcx` of the shared lines' positions
    # onto the fired position, borrowing the positions of q and last.
    c = mu - 2
    assert mcx_calls[:1] == ([(tuple(range(c)), c, (c + 1, c + 2))] if c > 1 else [])
    assert len(built) >= n - 1
    for k, w in built:
        labels = [gray(i, mu) for i in range(2 * k - 2, 2 * k + 2)]
        shared = {p + 2 for p in range(mu) if p + 2 not in (w.q, w.last)}
        assert all(len({label[p - 2] for label in labels}) == 1 for p in shared)
        touched = {line for g in _gates(w.gates) for line in g.lines}
        if len(shared) > 1:  # the AND reads every shared line, borrowing q and last
            assert w.fired == mu + 2
            assert shared | {w.fired} <= touched <= shared | {w.fired, w.q, w.last}
        else:
            assert w.fired == (*shared, 1)[0] and touched <= shared
    frame = _gates(circuits._table_of([("h", (1,), ())]))
    pairing = [_gates(compress._pairing_run(mu, invert)) for invert in (False, True)]
    assert pieces[0] == pieces[-1] == frame and pairing[0] in pieces and pairing[1] in pieces
    for piece in pieces[1:-1]:
        if piece not in pairing:
            for g in piece:
                at_core = mu == 2 and g.kind == "cu1" and g.lines[0] == 1 and g.lines[1] > 1
                assert 1 not in g.lines or at_core, g


def _haar_mg(rng, k: int) -> GateApp:
    return GateApp("mg", (k,), randgen.random_matchgate_params(rng))


def test_a_matchgate_folds_into_its_pair_past_distant_matchgates():
    # Pairs 5 and 6 share no dimension with pair 2, so the rot and its
    # inverse meet, their product is the identity, and neither is compiled.
    rng = np.random.default_rng(24)
    rot, inverse = GateApp("rot", (2,), (3.0, 0.7)), GateApp("rot", (2,), (3.0, -0.7))
    core = (_haar_mg(rng, 5), _haar_mg(rng, 6))
    c = MatchgateCircuit(8, (rot, *core, inverse), "0" * 8, 1, allow_idle=True)
    bare = MatchgateCircuit(8, core, "0" * 8, 1, allow_idle=True)
    assert compress_circuit(c).gates == compress_circuit(bare).gates


def test_a_matchgate_on_a_neighbouring_pair_keeps_both_apart():
    # A gate on pair 3 overlaps window 2, so both rots are compiled, in
    # each pass.  The staircase puts every gate in line 1's light cone.
    rng = np.random.default_rng(24)
    rot, inverse = GateApp("rot", (2,), (3.0, 0.7)), GateApp("rot", (2,), (3.0, -0.7))
    core = (_haar_mg(rng, 5), _haar_mg(rng, 3), _haar_mg(rng, 6))
    stair = _staircase(rng, 8)
    c = MatchgateCircuit(8, (rot, *core, inverse, *stair), "0" * 8, 1, allow_idle=True)
    bare = MatchgateCircuit(8, (*core, *stair), "0" * 8, 1, allow_idle=True)
    out = compress_circuit(c)
    assert len(out.gates) == len(compress_circuit(bare).gates) + 2 * 2 * _per_kept(2, 4)
    assert abs(expectation_z(run_statevector(out), 1) - simulate_expectation(c)) <= 1e-12


def test_matchgates_in_two_runs_are_not_fused():
    # Alternating pairs 4 and 5 fill the first run but its last gate; a rot
    # on pair 1 closes it, and its inverse opens the next run.  Fusion stays
    # within a run, so both are compiled, in each pass; one gate earlier,
    # both fall in the first run and cancel.  The staircase puts every gate
    # in line 1's light cone, so the fill is compiled too.
    rng = np.random.default_rng(25)
    fill = tuple(_haar_mg(rng, 4 + i % 2) for i in range(_ROTATION_RUN - 1))
    rot, inverse = GateApp("rot", (1,), (1.0, 0.4)), GateApp("rot", (1,), (1.0, -0.4))
    stair = _staircase(rng, 8)
    split = MatchgateCircuit(8, (*fill, rot, inverse, *stair), "0" * 8, 1)
    within = MatchgateCircuit(8, (*fill[:-1], rot, inverse, fill[-1], *stair), "0" * 8, 1)
    bare = len(compress_circuit(MatchgateCircuit(8, (*fill, *stair), "0" * 8, 1)).gates)
    assert len(compress_circuit(split).gates) == bare + 2 * 2 * _per_kept(1, 4)
    assert len(compress_circuit(within).gates) == bare


def test_fused_matchgates_on_two_far_pairs_keep_the_readout():
    # Width 4 has pairs 1, 2 and 3; with no gate on pair 2, each run
    # compiles as one product on pair 1 and one on pair 3.
    rng = np.random.default_rng(26)
    gates = tuple(_haar_mg(rng, int(k)) for k in rng.choice([1, 3], 500))
    c = MatchgateCircuit(4, gates, "0000", 1)
    out = compress_circuit(c)
    got, want = expectation_z(run_statevector(out), 1), expectation_z(run_statevector(c), 1)
    assert abs(got - want) <= 1e-9


_EXAMPLE_MG = randgen.random_matchgate_params(np.random.default_rng(32))


@st.composite
def _standard_circuits(draw):
    # Power-of-two widths from 2 to 32; every circuit touches the first and
    # last window and may hold identity rotations, which have no factors.
    # From n = 32 (mu = 6) the window AND's five controls outnumber the
    # borrowed lines, and _mcx splits.
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [1] + draw(st.lists(st.integers(1, n - 1), max_size=8)) + [n - 1]
    gates = []
    for k in lines:
        kind = draw(st.sampled_from(["mg", "rot", "identity", "w", "gxx"]))
        if kind == "mg":
            gates.append(GateApp("mg", (k,), randgen.random_matchgate_params(rng)))
        elif kind == "rot":
            theta = draw(st.floats(-np.pi, np.pi))
            gates.append(GateApp("rot", (k,), (float(draw(st.integers(1, 6))), theta)))
        elif kind == "identity":
            gates.append(GateApp("mg", (k,), _IDENTITY_MG))
        else:
            gates.append(GateApp(kind, (k,)))
    return MatchgateCircuit(n, tuple(gates), "0" * n, measure_line=1, allow_idle=True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_standard_circuits())
@example(
    MatchgateCircuit(
        16, (GateApp("mg", (1,), _IDENTITY_MG), GateApp("w", (15,))), "0" * 16, 1, allow_idle=True
    )
)
@example(
    MatchgateCircuit(
        32,
        (
            GateApp("mg", (1,), _EXAMPLE_MG),
            GateApp("gxx", (31,)),
            GateApp("mg", (16,), _EXAMPLE_MG),
        ),
        "0" * 32,
        1,
        allow_idle=True,
    )
)
def test_compressed_readout_matches_the_fast_simulation(circuit):
    out = compress_circuit(circuit)
    got = expectation_z(run_statevector(out), 1)
    assert abs(got - simulate_expectation(circuit)) <= 1e-9


def test_windows_past_the_cache_bound_are_rebuilt_exactly():
    # Width 128 has 127 windows, more than one stream keeps for reuse.
    # Visiting 65 windows and then the first again evicts it, so its gates
    # are built a second time.  Scanned last first, each matchgate meets
    # the lines the later ones reach, so all lie in line 1's light cone.
    n = 128
    rng = np.random.default_rng(11)
    lines = [1, *range(65, 0, -1)]
    gates = tuple(GateApp("mg", (k,), randgen.random_matchgate_params(rng)) for k in lines)
    c = MatchgateCircuit(n, gates, "0" * n, measure_line=1, allow_idle=True)
    assert len(set(lines)) > compress.WINDOW_CACHE_SIZE
    with mock.patch.object(compress, "_windows", wraps=compress._windows) as built:
        out = compress_circuit(c)
    assert sum(len(call.args[0]) for call in built.call_args_list) > len(set(lines))
    with mock.patch.object(compress, "WINDOW_CACHE_SIZE", 0):
        assert compress_circuit(c).gates == out.gates
    got = expectation_z(run_statevector(out), 1)
    assert abs(got - simulate_expectation(c)) <= 1e-9


def test_compressing_a_parsed_circuit_reads_its_table(rng, monkeypatch):
    built = pad_to_power_of_two(standardize(randgen.random_matchgate_circuit(6, 40, rng, "010110", 4)))
    parsed = circuits.parse_circuit(circuits.serialize_circuit(built))

    def refuse(cols):
        raise AssertionError("the parsed gates were turned into GateApps")

    monkeypatch.setattr(circuits, "_gate_apps", refuse)
    got, want = compress_circuit(parsed), compress_circuit(built)
    monkeypatch.undo()  # the comparison reads both outputs' gates
    assert got.gates == want.gates


def test_cli_compress_builds_no_gate_object_per_window_or_matchgate(tmp_path, rng, monkeypatch):
    from matchgates import cli

    src, dst = tmp_path / "c.mg", tmp_path / "c.qc"
    circuit = randgen.random_matchgate_circuit(8, 400, rng, "01101001", 3)
    src.write_text(circuits.serialize_circuit(circuit))
    windows, batch = [], compress._windows
    built = record_gate_objects(monkeypatch)
    kept = lambda ks, mu, template: windows.extend(batch(ks, mu, template)) or windows[-len(ks) :]
    monkeypatch.setattr(compress, "_windows", kept)
    assert cli.main(["compress", str(src), str(dst)]) == 0
    monkeypatch.undo()
    # Windows, controlled gates, the pairing runs, the frame and standardize's
    # added gates are all rows of tables: no gate object is built.
    assert windows and built == []
    standard = standardize(circuit)
    # The compressed gates are read as one table, never as the GateApp tuple.
    asked, flat = [], circuits._ParsedGates._gates
    spy = property(lambda gates: asked.append(1) or flat.fget(gates))
    monkeypatch.setattr(circuits._ParsedGates, "_gates", spy)
    out = compress_circuit(pad_to_power_of_two(standard))
    got = expectation_z(run_statevector(out), 1)
    assert asked == [] and abs(got - simulate_expectation(standard)) <= 1e-9
