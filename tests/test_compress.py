"""Compilation of matchgate circuits into exponentially narrower general circuits."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgates import compress, randgen
from matchgates.algebra import givens_factor, rot2
from matchgates.circuits import GateApp, MatchgateCircuit, gate_matrix, reals_from_complex
from matchgates.compress import (
    MAX_LABEL_DISTANCE,
    ControlPattern,
    _mcx,
    _rotation_core,
    _toffoli,
    align_conjugation,
    compress_circuit,
    compress_gate_stream,
    gray,
    gray_converter_circuit,
    pad_to_power_of_two,
)
from matchgates.oracle import apply_dense_gate, expectation_z, run_statevector
from matchgates.simulate import gate_rotations, simulate_expectation
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
    # Two-level rotations produced from 4x4 factors touch dimension pairs
    # (base+a, base+b) with a < b <= 4 over an even base; their Gray labels
    # must stay within the bounded-distance alignment budget.  The four
    # labels of a window vary only in the last bit and one other, which is
    # what lets one AND of the other bits serve every factor of a matchgate.
    for mu in range(2, 11):
        for base in range(0, (1 << mu) - 4 + 1, 2):
            labels = [gray(base + i, mu) for i in range(4)]
            for a in range(4):
                for b in range(a + 1, 4):
                    la, lb = labels[a], labels[b]
                    assert sum(x != y for x, y in zip(la, lb)) <= MAX_LABEL_DISTANCE
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


# ----- Alignment conjugation --------------------------------------------------


def test_alignment_of_distance_one_labels_needs_no_gates():
    gates, pattern = align_conjugation("0100", "0110")
    assert gates == []
    assert pattern.target == 3
    assert pattern.controls == ((1, 0), (2, 1), (4, 0))


def test_alignment_four_bit_example():
    gates, pattern = align_conjugation("0101", "1000")
    assert gates == [
        GateApp("x", (2,)),
        GateApp("x", (4,)),
        GateApp("cu1", (1, 2), gates[2].params),
        GateApp("cu1", (1, 4), gates[3].params),
    ]
    assert pattern == ControlPattern(1, ((2, 0), (3, 0), (4, 0)))


def test_alignment_conjugation_behaves_on_basis_states(rng):
    mu = 4
    for _ in range(40):
        ia, ib = rng.choice(1 << mu, size=2, replace=False)
        la, lb = format(ia, f"0{mu}b"), format(ib, f"0{mu}b")
        gates, pattern = align_conjugation(la, lb)
        u = dense_unitary(gates, mu)
        for label in (la, lb):
            col = u[:, int(label, 2)]
            hit = int(np.argmax(np.abs(col)))
            assert col[hit] == pytest.approx(1.0)  # permutation, no signs
            out = format(hit, f"0{mu}b")
            # Target bit keeps the label's own value; every control is met.
            assert out[pattern.target - 1] == label[pattern.target - 1]
            for line, val in pattern.controls:
                assert out[line - 1] == str(val)


def test_alignment_rejects_degenerate_labels():
    with pytest.raises(ValueError):
        align_conjugation("0101", "0101")
    with pytest.raises(ValueError):
        align_conjugation("01", "011")


# ----- Multi-controlled rotations ---------------------------------------------


def _expected_controlled(pattern: ControlPattern, rot: np.ndarray, width: int):
    """Dense controlled-rotation on `width` lines, ancilla untouched."""
    dim = 1 << width
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = format(i, f"0{width}b")
        if all(bits[l - 1] == str(v) for l, v in pattern.controls):
            t = pattern.target - 1
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
        pattern = ControlPattern(target, tuple((c, 1) for c in controls))
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = _expected_controlled(pattern, x, r + 2)
        # Exact on every scratch state, i.e. the scratch line is restored.
        assert np.abs(u - expected).max() <= 1e-12


@pytest.mark.parametrize("r", range(2, 8))
def test_multi_controlled_x_with_two_dirty_scratch_lines(r, rng):
    # Compress borrows the two window lines of a matchgate for its AND.
    width = r + 3
    perm = tuple(int(p) for p in rng.permutation(width) + 1)
    controls, target, pool = perm[:r], perm[r], perm[r + 1 :]
    gates = _mcx(controls, target, pool)
    pattern = ControlPattern(target, tuple(sorted((c, 1) for c in controls)))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = _expected_controlled(pattern, x, width)
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
        gates = _rotation_core(3, 1, 2, theta, value)
        assert len(gates) == 5
        pattern = ControlPattern(2, ((1, value), (3, 1)))
        expected = _expected_controlled(pattern, rot2(theta), 3)
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
    planes = [givens_factor(r) for _, r in gate_rotations(c.gates)]
    assert sum(not f for f in planes) >= 2  # the identity gates have no factors

    ands, cores = [], []
    window_and = compress._window_and

    def and_spy(k, m):
        ands.append(window_and(k, m))
        return ands[-1]

    def core_spy(c1, c2, t, theta, value=1):
        cores.append((c1, c2, t))
        return _rotation_core(c1, c2, t, theta, value)

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
