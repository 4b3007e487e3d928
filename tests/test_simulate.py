"""Polynomial-time matchgate simulation against the dense statevector oracle."""

import math

import numpy as np
import pytest

from matchgates import randgen
from matchgates.circuits import GateApp, GuardError, MatchgateCircuit
from matchgates.oracle import basis_state, expectation_z, run_statevector
from matchgates.simulate import (
    circuit_rotation,
    output_distribution,
    s_matrix,
    simulate_expectation,
    simulate_expectation_reference,
)


def _oracle_expectation(circuit: MatchgateCircuit, k: int) -> float:
    return expectation_z(run_statevector(circuit), k)


def test_input_correlation_matrix_single_bits():
    assert np.allclose(s_matrix("0"), [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(s_matrix("1"), [[0.0, 1.0], [-1.0, 0.0]])


def test_input_correlation_matrix_is_block_diagonal():
    s = s_matrix("01")
    expected = np.zeros((4, 4))
    expected[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    expected[2:, 2:] = [[0.0, 1.0], [-1.0, 0.0]]
    assert np.allclose(s, expected)
    assert np.allclose(s.T, -s)


def test_empty_circuit_reads_back_the_input_bit():
    for bits, k, want in (("00", 1, 1.0), ("01", 2, -1.0), ("10", 1, -1.0)):
        c = MatchgateCircuit(2, (), bits, measure_line=k, allow_idle=True)
        assert simulate_expectation(c) == pytest.approx(want, abs=1e-12)
        assert simulate_expectation_reference(c) == pytest.approx(want, abs=1e-12)


def test_double_flip_gate_flips_both_measured_lines():
    c = MatchgateCircuit(2, (GateApp("gxx", (1,), ()),), "00")
    assert simulate_expectation(c, 1) == pytest.approx(-1.0, abs=1e-12)
    assert simulate_expectation(c, 2) == pytest.approx(-1.0, abs=1e-12)


def test_swap_gate_moves_occupation_between_lines():
    c = MatchgateCircuit(2, (GateApp("w", (1,), ()),), "01")
    assert simulate_expectation(c, 1) == pytest.approx(-1.0, abs=1e-12)
    assert simulate_expectation(c, 2) == pytest.approx(1.0, abs=1e-12)


def test_half_angle_rotation_gives_unbiased_outcome():
    c = MatchgateCircuit(2, (GateApp("rot", (1,), (2.0, np.pi / 2)),), "00")
    p0, p1 = output_distribution(c, 1)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)


def test_fast_and_reference_paths_agree(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        size = int(rng.integers(n, 40))
        c = randgen.random_matchgate_circuit(n, size, rng)
        for k in range(1, n + 1):
            fast = simulate_expectation(c, k)
            ref = simulate_expectation_reference(c, k)
            assert abs(fast - ref) <= 1e-10


def test_simulation_matches_dense_oracle_on_every_line(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        size = int(rng.integers(n, 50))
        bits = "".join(str(b) for b in rng.integers(0, 2, n))
        c = randgen.random_matchgate_circuit(n, size, rng, input_bits=bits)
        for k in range(1, n + 1):
            assert abs(simulate_expectation(c, k) - _oracle_expectation(c, k)) <= 1e-9


def test_complex_phase_gates_still_yield_real_predictions(rng):
    # Diagonal blocks with unequal phases exercise the cross terms that must
    # cancel when the rotation picture is assembled.
    from matchgates.circuits import reals_from_complex

    gates = []
    for t in range(6):
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        a = np.diag([np.exp(1j * alpha), np.exp(1j * beta)])
        b = np.diag([1.0, np.exp(1j * (alpha + beta))])
        gates.append(
            GateApp("mg", (t % 3 + 1,), reals_from_complex(a) + reals_from_complex(b))
        )
        gates.append(GateApp("w", (t % 3 + 1,), ()))
    c = MatchgateCircuit(4, tuple(gates), "0110")
    r = circuit_rotation(c)
    assert np.abs(r.imag).max() == 0.0  # rotation is real by construction
    for k in range(1, 5):
        fast = simulate_expectation(c, k)
        ref = simulate_expectation_reference(c, k)
        orc = _oracle_expectation(c, k)
        assert abs(fast - ref) <= 1e-12
        assert abs(fast - orc) <= 1e-10


def test_circuit_rotation_is_special_orthogonal(rng):
    c = randgen.random_matchgate_circuit(5, 60, rng)
    r = circuit_rotation(c)
    assert r.shape == (10, 10)
    assert np.abs(r.T @ r - np.eye(10)).max() <= 1e-9
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_swap_only_circuit_rotation_is_a_signed_permutation(rng):
    gates = tuple(GateApp("w", (int(rng.integers(1, 4)),), ()) for _ in range(25))
    c = MatchgateCircuit(4, gates, "0000", allow_idle=True)
    r = circuit_rotation(c)
    assert np.all(np.isin(np.round(r, 12), (-1.0, 0.0, 1.0)))
    assert np.count_nonzero(np.abs(r) > 0.5) == 8
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_output_distribution_sums_to_one(rng):
    c = randgen.random_matchgate_circuit(4, 30, rng)
    for k in range(1, 5):
        p0, p1 = output_distribution(c, k)
        assert 0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_reference_path_width_guard():
    gates = tuple(GateApp("w", (k,), ()) for k in range(1, 65))
    c = MatchgateCircuit(65, gates, "0" * 65)
    with pytest.raises(GuardError):
        simulate_expectation_reference(c)
    # The streaming path has no such limit.
    assert abs(simulate_expectation(c, 65)) <= 1.0 + 1e-12


def test_measure_line_defaults_to_the_header_value(rng):
    c = randgen.random_matchgate_circuit(3, 12, rng, measure_line=2)
    assert simulate_expectation(c) == pytest.approx(simulate_expectation(c, 2))


def test_simulation_validates_its_input():
    from matchgates.circuits import ValidationError

    bad = MatchgateCircuit(2, (GateApp("w", (2,), ()),), "00")
    with pytest.raises(ValidationError):
        simulate_expectation(bad)


def test_oracle_statevector_norm_for_random_inputs(rng):
    c = randgen.random_matchgate_circuit(5, 40, rng, input_bits="10101")
    state = run_statevector(c)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    assert basis_state("10101").shape == state.shape


def test_closed_form_rotations_match_the_trace_formula(rng, monkeypatch):
    from matchgates import algebra, simulate
    from matchgates.circuits import gate_matrix, reals_from_complex

    gates = [GateApp("w", (1,)), GateApp("gxx", (1,))]
    for plane in range(1, 7):
        for theta in (0.0, np.pi, -np.pi, rng.uniform(-np.pi, np.pi)):
            gates.append(GateApp("rot", (1,), (float(plane), theta)))
    for _ in range(50):
        a, b = randgen.haar_unitaries_2x2(2, rng) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        b = b * np.sqrt(np.linalg.det(a) / np.linalg.det(b))
        gates.append(GateApp("mg", (1,), reals_from_complex(a) + reals_from_complex(b)))
    gates = tuple(
        GateApp(g.kind, (int(rng.integers(1, 6)),), g.params)
        for g in (gates[i] for i in rng.permutation(len(gates)))
    )
    circuit = MatchgateCircuit(6, gates, "0" * 6)
    monkeypatch.setattr(simulate, "_ROTATION_RUN", 7)  # 76 gates: runs end mid-circuit
    for last_first in (False, True):
        runs = list(simulate.rotation_runs(circuit.gates, last_first))
        assert all(len(lines) == len(rots) <= 7 for lines, rots in runs)
        rotations = [(k, r) for lines, rots in runs for k, r in zip(lines, rots)]
        assert len(rotations) == len(gates)
        for g, (k, r) in zip(gates[::-1] if last_first else gates, rotations):
            assert k == g.lines[0]
            assert np.abs(r - algebra.rotation_of_matchgate(gate_matrix(g))).max() <= 1e-14


def test_sliced_mg_rotations_are_bit_identical_to_one_product(rng, monkeypatch):
    # An all-mg circuit fills the 4096-gate chunks, past the 2048 rows where a
    # threaded BLAS slows down; mapping its products 1024 rows at a time must
    # give the very bits of one whole product, and so the same readout.
    from matchgates import simulate

    c = randgen.random_matchgate_circuit(64, 5000, rng, kinds="haar")
    params = c.gates.table.rows("mg")
    assert len(params) > 2 * simulate._ROT_MAP_ROWS
    sliced, z = simulate._mg_transposed_rotations(params), simulate_expectation(c)
    monkeypatch.setattr(simulate, "_ROT_MAP_ROWS", len(params))
    assert np.array_equal(sliced, simulate._mg_transposed_rotations(params))
    assert simulate_expectation(c) == z


def _walk_circuit(n: int, size: int, rng) -> MatchgateCircuit:
    """All four mg kinds on windows that repeat or step to a neighbour."""
    gates = []
    k = int(rng.integers(1, n))
    for _ in range(size):
        k = int(np.clip(k + rng.integers(-1, 2), 1, n - 1))
        kind = ("w", "gxx", "rot", "mg")[int(rng.integers(0, 4))]
        if kind == "rot":
            params = (float(rng.integers(1, 7)), float(rng.uniform(-np.pi, np.pi)))
        elif kind == "mg":
            params = randgen.random_matchgate_params(rng)
        else:
            params = ()
        gates.append(GateApp(kind, (k,), params))
    bits = "".join(str(b) for b in rng.integers(0, 2, n))
    return MatchgateCircuit(n, tuple(gates), bits, allow_idle=True)


@pytest.mark.parametrize("min_batch", [1, 10**9])  # every layer batched / gate by gate
def test_layered_propagation_matches_reference_on_every_line(rng, monkeypatch, min_batch):
    from matchgates import simulate

    monkeypatch.setattr(simulate, "_MG_CHUNK", 7)  # many runs per circuit
    monkeypatch.setattr(simulate, "_MIN_BATCH", min_batch)
    for n in range(2, 11):
        for c in (_walk_circuit(n, 60, rng), randgen.random_matchgate_circuit(n, 60, rng)):
            for k in range(1, n + 1):
                fast = simulate_expectation(c, k)
                assert abs(fast - simulate_expectation_reference(c, k)) <= 1e-12


def test_corrupt_gate_in_second_run_gets_the_per_gate_message(rng):
    from matchgates.circuits import ValidationError, validate
    from matchgates.simulate import _MG_CHUNK

    gates = [GateApp("w", (1 + t % 3,), ()) for t in range(_MG_CHUNK + 50)]
    at = _MG_CHUNK + 20
    a = (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)  # diag(2, 1)
    b = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)  # identity
    gates[at] = GateApp("mg", (2,), a + b)
    c = MatchgateCircuit(4, tuple(gates), "0101")
    with pytest.raises(ValidationError) as err:
        simulate_expectation(c)
    assert err.value.violations == validate(c)
    assert err.value.violations == [
        f"gate {at + 1} (mg): block a not unitary (deviation 3)",
        f"gate {at + 1} (mg): determinant mismatch 1",
    ]


def test_nan_expectation_raises_instead_of_a_distribution(monkeypatch):
    # A non-finite readout is refused as a value; a finite one beyond the
    # clamping tolerance is an internal error.
    from matchgates import simulate

    c = MatchgateCircuit(2, (GateApp("w", (1,), ()),), "00")
    for z, error in ((math.nan, ValueError), (-math.inf, ValueError), (1.0 + 1e-5, RuntimeError)):
        monkeypatch.setattr(simulate, "simulate_expectation", lambda c, k=None: z)
        with pytest.raises(error):
            output_distribution(c)
    assert simulate.distribution_from_expectation(1.0 + 1e-7) == (1.0, 0.0)


def test_reference_path_checks_the_line_before_the_rotation(monkeypatch):
    from matchgates import simulate
    from matchgates.circuits import UsageError, ValidationError

    def refuse(circuit):
        raise AssertionError("the rotation was built")

    monkeypatch.setattr(simulate, "circuit_rotation", refuse)
    good = MatchgateCircuit(2, (GateApp("w", (1,), ()),), "00")
    for k in (0, 3):
        with pytest.raises(UsageError, match=f"^line {k} out of range 1..2$"):
            simulate_expectation_reference(good, k)
    bad = MatchgateCircuit(2, (GateApp("w", (2,), ()),), "00")  # an invalid circuit is reported first
    with pytest.raises(ValidationError):
        simulate_expectation_reference(bad, 3)


def test_rotations_of_a_parsed_circuit_read_its_table(rng, monkeypatch):
    from matchgates import circuits

    built = randgen.random_matchgate_circuit(9, 300, rng)
    parsed = circuits.parse_circuit(circuits.serialize_circuit(built))

    def refuse(cols):
        raise AssertionError("the parsed gates were turned into GateApps")

    monkeypatch.setattr(circuits, "_gate_apps", refuse)
    assert np.array_equal(circuit_rotation(parsed), circuit_rotation(built))
