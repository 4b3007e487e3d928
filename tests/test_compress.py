"""Compilation of matchgate circuits into exponentially narrower general circuits."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgates import algebra, compress, randgen
from matchgates.algebra import givens_factor, rot2
from matchgates.circuits import GateApp, MatchgateCircuit, gate_matrix, reals_from_complex
from matchgates.compress import (
    _X_PARAMS,
    _mcx,
    _rotation_core,
    _shift_lines,
    _toffoli,
    _window,
    _window_bits,
    compress_circuit,
    compress_gate_stream,
    gray,
    gray_converter_circuit,
    pad_to_power_of_two,
)
from matchgates.oracle import apply_dense_gate, expectation_z, run_statevector
from matchgates.simulate import _ROTATION_RUN, rotation_runs, simulate_expectation
from matchgates.standardize import standardize

from conftest import dense_unitary


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


# ----- Window planes ----------------------------------------------------------


def test_alignment_of_distance_one_labels_needs_no_gates(rng):
    # mu = 3, window 2: labels 011, 010, 110, 111 vary in bits 1 and 3 (data
    # lines 2 and 4).  Plane (2, 3) differs in bit 1 only, planes (1, 2) and
    # (3, 4) in bit 3 only; label a of (1, 2) has a 1 there.
    planes = _planes(_window(2, 3))
    assert planes[1, 2] == (4, 2, 0, True)
    assert planes[2, 3] == (2, 4, 0, False)
    # So a factor emits its five-gate core and nothing else: the output is
    # the frame, the two pairing runs, and per matchgate with factors and
    # pass its AND twice and five gates per factor.
    n, mu = 8, 4
    c = randgen.random_matchgate_circuit(n, 12, rng, "0" * n, 1)
    per_pass = 0
    for lines, rots in rotation_runs(c.gates):
        for k, r in zip(lines, rots):
            factors = givens_factor(r)
            if factors:
                per_pass += 2 * len(compress._window_and(k, mu)[0]) + 5 * len(factors)
    pairing = len(compress._pairing_run(mu, invert=False))
    assert len(compress_circuit(c).gates) == 2 + 2 * pairing + 2 * per_pass


def _planes(window) -> dict:
    """A window's planes as (target, other, value, flip), once each plane's
    shared controlled-X is checked to act on (the AND line, other)."""
    _, fired, planes = window
    for target, other, value, flip, cx in planes.values():
        assert cx == GateApp("cu1", (fired, other), _X_PARAMS)
    return {plane: p[:4] for plane, p in planes.items()}


def test_alignment_four_bit_example():
    # The three planes as (target, other, value, flip).  mu = 3, window 2:
    # labels 011, 010, 110, 111 on data lines 2..4.
    planes = _planes(_window(2, 3))
    assert planes == {(1, 2): (4, 2, 0, True), (2, 3): (2, 4, 0, False), (3, 4): (4, 2, 1, False)}
    # mu = 4, window 4: labels 0101, 0100, 1100, 1101 vary in bits 1 and 4
    # (data lines 2 and 5).
    planes = _planes(_window(4, 4))
    assert planes == {(1, 2): (5, 2, 0, True), (2, 3): (2, 5, 0, False), (3, 4): (5, 2, 1, False)}


@pytest.mark.parametrize("mu", range(2, 7))
def test_window_planes_align_their_labels(mu):
    # Every window keeps exactly its three adjacent planes.  In each, the
    # two labels differ only at the target, a window line, and the other
    # window line holds label a's value.  The sign flips iff label a has
    # target bit 1.
    for k in range(1, 1 << (mu - 1)):
        window = [q + 2 for q in _window_bits(k, mu)]
        planes = _planes(_window(k, mu))
        assert set(planes) == {(1, 2), (2, 3), (3, 4)}
        for (a, b), (target, other, value, flip) in planes.items():
            assert sorted((target, other)) == window
            la, lb = gray(2 * k - 3 + a, mu), gray(2 * k - 3 + b, mu)
            assert [p for p in range(mu) if la[p] != lb[p]] == [target - 2]
            assert int(la[other - 2]) == value
            assert flip == (la[target - 2] == "1")


def test_a_factor_in_a_non_adjacent_plane_raises(rng):
    # Three _window_plane calls per window built, and a factor outside
    # the three adjacent planes is refused before any gate is built for it.
    c = randgen.random_matchgate_circuit(4, 3, rng, "0000", 1)
    with mock.patch.object(compress, "_window_plane", wraps=compress._window_plane) as plane:
        with mock.patch.object(compress, "_window", wraps=compress._window) as built:
            compress_circuit(c)
    assert plane.call_count == 3 * built.call_count > 0
    skew = [[algebra.PlaneRotation(1, 3, 0.3)]] * _ROTATION_RUN
    with mock.patch.object(compress.algebra, "givens_factor", lambda rots: skew[: len(rots)]):
        with mock.patch.object(compress, "_rotation_core", wraps=compress._rotation_core) as core:
            with pytest.raises(KeyError):
                compress_circuit(c)
    assert core.call_count == 0


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
    u = dense_unitary(_toffoli(1, 2, 3), 3)
    expected = np.eye(8, dtype=complex)
    expected[6:, 6:] = [[0, 1], [1, 0]]
    assert np.abs(u - expected).max() <= 1e-12


def test_multi_controlled_x_with_one_dirty_scratch_line():
    for r in (3, 4, 5):
        controls = tuple(range(1, r + 1))
        target = r + 1
        scratch = r + 2
        gates = _mcx(controls, target, (scratch,))
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
    gates = _mcx(controls, target, pool)
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


def test_rotation_core_fires_on_either_value_of_its_second_control(rng):
    for value in (0, 1):
        theta = float(rng.uniform(-np.pi, np.pi))
        cx = GateApp("cu1", (3, 1), _X_PARAMS)
        gates = _rotation_core(cx, 2, theta, value)
        assert len(gates) == 5 and gates[1] is gates[3] is cx
        expected = _expected_controlled(2, [(1, value), (3, 1)], rot2(theta), 3)
        assert np.abs(dense_unitary(gates, 3) - expected).max() <= 1e-12


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


def test_gate_stream_factors_one_run_of_rotations_at_a_time(rng):
    c = randgen.random_matchgate_circuit(8, 2000, rng, input_bits="0" * 8, measure_line=1)
    stacks = []
    with mock.patch.object(
        algebra, "givens_factor", side_effect=lambda r: stacks.append(len(r)) or givens_factor(r)
    ):
        stream = compress_gate_stream(c)
        first = list(itertools.islice(stream, 200))
        assert len(first) == 200 and len(stacks) <= 1
        rest = list(stream)
    # Each pass factors the rotations _ROTATION_RUN matchgates at a time; the
    # inverse pass reads the short last run first.
    runs, left = divmod(2000, _ROTATION_RUN)
    assert stacks == [left] + [_ROTATION_RUN] * (2 * runs) + [left]
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


def test_one_and_pair_per_matchgate_with_factors_and_two_control_cores(rng):
    n, mu = 8, 4
    ancilla = mu + 2
    gates = list(randgen.random_matchgate_circuit(n, 10, rng, "0" * n, 1).gates)
    gates[3:3] = [GateApp("rot", (1,), (2.0, 0.0)), GateApp("mg", (n - 1,), _IDENTITY_MG)]
    c = MatchgateCircuit(n, tuple(gates), "0" * n, measure_line=1)
    planes = [givens_factor(r) for _, rots in rotation_runs(c.gates) for r in rots]
    assert sum(not f for f in planes) >= 2  # the identity gates have no factors

    ands, cores = [], []
    window_and = compress._window_and

    def and_spy(k, m):
        ands.append(window_and(k, m))
        return ands[-1]

    def core_spy(cx, t, theta, value=1):
        cores.append((*cx.lines, t))
        return _rotation_core(cx, t, theta, value)

    # With no window kept for reuse, every matchgate pass looks up its AND.
    with mock.patch.multiple(
        compress, _window_and=and_spy, _rotation_core=core_spy, WINDOW_CACHE_SIZE=0
    ):
        out = list(compress_gate_stream(c))
    # One AND per matchgate with factors, per pass; every factor one core.
    assert len(ands) == 2 * sum(1 for f in planes if f)
    assert len(cores) == 2 * sum(len(f) for f in planes)
    # Each AND is emitted twice (compute, uncompute), and nothing else
    # targets the work ancilla.
    to_ancilla = sum(1 for g in out if g.lines[-1] == ancilla)
    assert to_ancilla == sum(2 * sum(g.lines[-1] == ancilla for g in a) for a, _ in ands)
    # Every core has two controls: the ancilla and one window line.
    for c1, c2, t in cores:
        assert c1 == ancilla and c2 not in (1, ancilla, t) and 2 <= t <= mu + 1


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
    # are built a second time.
    n = 128
    rng = np.random.default_rng(11)
    lines = list(range(1, 66)) + [1]
    gates = tuple(GateApp("mg", (k,), randgen.random_matchgate_params(rng)) for k in lines)
    c = MatchgateCircuit(n, gates, "0" * n, measure_line=1, allow_idle=True)
    assert len(set(lines)) > compress.WINDOW_CACHE_SIZE
    with mock.patch.object(compress, "_window", wraps=compress._window) as built:
        out = compress_circuit(c)
    assert built.call_count > len(set(lines))
    with mock.patch.object(compress, "WINDOW_CACHE_SIZE", 0):
        assert compress_circuit(c).gates == out.gates
    got = expectation_z(run_statevector(out), 1)
    assert abs(got - simulate_expectation(c)) <= 1e-9


def test_compressing_a_parsed_circuit_reads_its_table(rng, monkeypatch):
    from matchgates import circuits

    built = pad_to_power_of_two(standardize(randgen.random_matchgate_circuit(6, 40, rng, "010110", 4)))
    parsed = circuits.parse_circuit(circuits.serialize_circuit(built))

    def refuse(cols):
        raise AssertionError("the parsed gates were turned into GateApps")

    monkeypatch.setattr(circuits, "_gate_apps", refuse)
    assert compress_circuit(parsed).gates == compress_circuit(built).gates
