"""Circuit containers, the text format, validation, and gate matrices."""

import numpy as np
import pytest

from matchgates import circuits, randgen
from matchgates.algebra import FERMIONIC_SWAP, GXX, rotation_generator_exponential
from matchgates.circuits import (
    GateApp,
    GeneralCircuit,
    MatchgateCircuit,
    ParseError,
    ValidationError,
    complex_from_reals,
    gate_matrix,
    parse_circuit,
    reals_from_complex,
    serialize_circuit,
    validate,
    validate_or_raise,
)
from matchgates.simulate import simulate_expectation


def _mg_params_identity() -> tuple[float, ...]:
    return reals_from_complex(np.eye(2, dtype=complex)) * 2


def test_serialize_parse_round_trip_matchgate_flavor(rng):
    circuit = randgen.random_matchgate_circuit(5, 30, rng, measure_line=3)
    text = serialize_circuit(circuit)
    again = parse_circuit(text)
    assert again == circuit
    assert serialize_circuit(again) == text


def test_serialize_parse_round_trip_general_flavor(rng):
    circuit = randgen.random_general_circuit(4, 25, rng)
    text = serialize_circuit(circuit)
    again = parse_circuit(text)
    assert again == circuit
    assert serialize_circuit(again) == text


def test_floats_survive_the_text_format_exactly():
    theta = 0.6435011087932844  # needs all 16 significant digits
    circuit = MatchgateCircuit(2, (GateApp("rot", (1,), (3.0, theta)),), "10")
    again = parse_circuit(serialize_circuit(circuit))
    assert again.gates[0].params[1] == theta


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# leading comment\n"
        "\n"
        "circuit mg width=2 input=01 measure=2  # trailing comment\n"
        "   w 1   # a gate\n"
        "\n"
    )
    circuit = parse_circuit(text)
    assert circuit.flavor == "mg"
    assert circuit.width == 2
    assert circuit.input == "01"
    assert circuit.measure_line == 2
    assert circuit.gates == (GateApp("w", (1,), ()),)


def test_matchgate_header_requires_measure():
    with pytest.raises(ParseError):
        parse_circuit("circuit mg width=2 input=00\nw 1\n")


def test_general_header_forbids_measure_and_idle():
    with pytest.raises(ParseError):
        parse_circuit("circuit qc width=1 input=0 measure=1\nh 1\n")
    with pytest.raises(ParseError):
        parse_circuit("circuit qc width=1 input=0 idle=1\nh 1\n")


def test_unknown_and_duplicate_header_fields_are_rejected():
    with pytest.raises(ParseError):
        parse_circuit("circuit mg width=2 input=00 measure=1 shots=5\nw 1\n")
    with pytest.raises(ParseError):
        parse_circuit("circuit mg width=2 width=2 input=00 measure=1\nw 1\n")


def test_header_must_come_first_and_name_a_flavor():
    with pytest.raises(ParseError):
        parse_circuit("w 1\ncircuit mg width=2 input=00 measure=1\n")
    with pytest.raises(ParseError):
        parse_circuit("circuit xx width=2 input=00 measure=1\nw 1\n")
    with pytest.raises(ParseError):
        parse_circuit("")


def test_gate_parameter_count_is_enforced():
    with pytest.raises(ParseError):
        parse_circuit(
            "circuit qc width=1 input=0\nu1 1 m=1,0,0,0,0,0,1\n"  # 7 reals, not 8
        )
    with pytest.raises(ParseError):
        parse_circuit("circuit mg width=2 input=00 measure=1\nrot 1 plane=2\n")
    with pytest.raises(ParseError):
        parse_circuit("circuit mg width=2 input=00 measure=1\nw 1 theta=1.0\n")


def test_unknown_gate_kind_is_rejected():
    with pytest.raises(ParseError):
        parse_circuit("circuit mg width=2 input=00 measure=1\ncnot 1\n")


def test_gate_off_the_register_edge_fails_validation():
    with pytest.raises(ValidationError):
        parse_circuit("circuit mg width=2 input=00 measure=1\nw 2\n")


def test_idle_lines_need_the_idle_flag():
    text = "circuit mg width=3 input=000 measure=1\nw 1\n"
    with pytest.raises(ValidationError):
        parse_circuit(text)
    relaxed = parse_circuit(
        "circuit mg width=3 input=000 measure=1 idle=1\nw 1\n"
    )
    assert relaxed.allow_idle
    assert "idle=1" in serialize_circuit(relaxed)


def test_validate_flags_determinant_mismatch():
    # A = identity (det +1) with B = X (det -1) is not a valid matchgate.
    params = reals_from_complex(np.eye(2, dtype=complex)) + reals_from_complex(
        np.array([[0, 1], [1, 0]], dtype=complex)
    )
    bad = MatchgateCircuit(2, (GateApp("mg", (1,), params),), "00")
    messages = validate(bad)
    assert any("determinant" in m for m in messages)
    with pytest.raises(ValidationError):
        validate_or_raise(bad)

    # Z with X has matching determinants and passes.
    good_params = reals_from_complex(
        np.array([[1, 0], [0, -1]], dtype=complex)
    ) + reals_from_complex(np.array([[0, 1], [1, 0]], dtype=complex))
    good = MatchgateCircuit(2, (GateApp("mg", (1,), good_params),), "00")
    assert validate(good) == []


def test_validation_passes_are_remembered_and_failures_are_not(monkeypatch):
    calls = []
    real = circuits.validate
    monkeypatch.setattr(circuits, "validate", lambda c: calls.append(c) or real(c))
    good = MatchgateCircuit(2, (GateApp("w", (1,)),), "01")
    validate_or_raise(good)
    validate_or_raise(good)
    assert calls == [good]
    assert validate(good) == []  # the validator itself stays pure

    bad = MatchgateCircuit(3, (GateApp("w", (1,)),), "000")  # line 3 idle
    for _ in range(3):
        with pytest.raises(ValidationError):
            validate_or_raise(bad)
    assert calls[1:] == [bad] * 3
    # The memo is no dataclass field: equality and the text are unchanged.
    fresh = MatchgateCircuit(2, (GateApp("w", (1,)),), "01")
    assert fresh == good and serialize_circuit(fresh) == serialize_circuit(good)


def test_validate_flags_non_unitary_blocks():
    params = (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0) * 2
    bad = MatchgateCircuit(2, (GateApp("mg", (1,), params),), "00")
    assert any("unitary" in m for m in validate(bad))


def test_validate_flags_bad_width_input_and_measure():
    assert validate(MatchgateCircuit(1, (), "0")) != []
    assert any(
        "input length" in m
        for m in validate(MatchgateCircuit(2, (GateApp("w", (1,), ()),), "000"))
    )
    assert any(
        "measure" in m
        for m in validate(
            MatchgateCircuit(2, (GateApp("w", (1,), ()),), "00", measure_line=5)
        )
    )
    assert any(
        "bit string" in m
        for m in validate(MatchgateCircuit(2, (GateApp("w", (1,), ()),), "0x"))
    )


def test_validate_flags_repeated_lines_on_two_qubit_gates():
    bad = GeneralCircuit(2, (GateApp("cu1", (1, 1), _mg_params_identity()[:8]),), "00")
    assert any("repeated" in m for m in validate(bad))


def test_gate_matrix_known_gates():
    assert np.allclose(gate_matrix(GateApp("w", (1,), ())), FERMIONIC_SWAP)
    assert np.allclose(gate_matrix(GateApp("gxx", (1,), ())), GXX)
    rot = gate_matrix(GateApp("rot", (1,), (4.0, 0.7)))
    assert np.allclose(rot, rotation_generator_exponential(4, 0.7))
    h = gate_matrix(GateApp("h", (1,), ()))
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_gate_matrix_controlled_gate_blocks():
    u = np.array([[0, 1j], [1j, 0]], dtype=complex)
    m = gate_matrix(GateApp("cu1", (2, 1), reals_from_complex(u)))
    expected = np.eye(4, dtype=complex)
    expected[2:, 2:] = u
    assert np.allclose(m, expected)


def test_batch_screen_matches_per_gate_validation(rng):
    # Clean large circuit: the vectorized screen must certify it.
    big = randgen.random_matchgate_circuit(6, 700, rng)
    assert validate(big) == []

    # One corrupted gate deep inside: the screen must fall back and report.
    gates = list(big.gates)
    for i, g in enumerate(gates):
        if g.kind == "mg":
            bad_params = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0) + g.params[8:]
            gates[i] = GateApp("mg", g.lines, bad_params)
            break
    corrupted = MatchgateCircuit(6, tuple(gates), big.input, big.measure_line)
    messages = validate(corrupted)
    assert messages and any("mg" in m for m in messages)

    # Idle line at batch size is still caught.
    idle = MatchgateCircuit(6, tuple(GateApp("w", (1,), ()) for _ in range(600)), "0" * 6)
    assert any("idle" in m for m in validate(idle))

    # A line number beyond int64 is reported, not raised as OverflowError.
    far_gates = (GateApp("w", (1,), ()),) * 600 + (GateApp("w", (2**70,), ()),)
    far = MatchgateCircuit(2, far_gates, "00")
    assert validate(far) == [f"gate 601 (w): line {2**70} out of range 1..1"]


def test_overflowing_gate_is_rejected_at_every_circuit_size(rng):
    # Products of 1e200 entries overflow to inf and inf - inf to NaN, which
    # a `dev > tol` comparison lets through.
    h = 1e200
    bad = GateApp("mg", (1,), (h, 0.0, h, 0.0, h, 0.0, -h, 0.0) * 2)
    reasons = []
    for size in (9, 599):  # below and at the batch-screen threshold
        good = randgen.random_matchgate_circuit(2, size, rng, kinds="haar")
        c = MatchgateCircuit(2, good.gates + (bad,), "00")
        with np.errstate(over="ignore", invalid="ignore"):
            messages = validate(c)
            with pytest.raises(ValidationError) as err:
                simulate_expectation(c)
        assert messages and all(m.startswith(f"gate {size + 1} (mg): ") for m in messages)
        assert err.value.violations == messages
        reasons.append([m.split(": ", 1)[1] for m in messages])
    assert reasons[0] == reasons[1]
    assert "block a not unitary (deviation inf)" in reasons[0]


def test_complex_real_packing_round_trip(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(complex_from_reals(reals_from_complex(m)), m)
    with pytest.raises(ValueError):
        complex_from_reals((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        complex_from_reals((1.0, 0.0, 2.0, 0.0, 3.0, 0.0))
