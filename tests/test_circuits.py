"""Circuit containers, the text format, validation, and gate matrices."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from matchgates import algebra, circuits, randgen, textformat
from matchgates.algebra import FERMIONIC_SWAP, GXX, rotation_generator_exponential
from matchgates.circuits import (
    GATE_KINDS,
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
from matchgates.compress import compress_circuit, compress_gate_stream, pad_to_power_of_two
from matchgates.expand import expand_circuit
from matchgates.simulate import (
    circuit_rotation,
    output_distribution,
    simulate_expectation,
    simulate_expectation_reference,
)
from matchgates.standardize import standardize


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


def test_gate_matrix_refuses_an_unknown_kind():
    # And a gate of a known kind with another count of lines or parameters.
    m = reals_from_complex(np.eye(2))
    for gate, problem in [
        (GateApp("cz", (1, 2), ()), "unknown gate kind 'cz'"),
        (GateApp("u1", (1, 2), m), r"u1 gate: expected 1 line\(s\), got 2"),
        (GateApp("gxx", (1, 2)), r"gxx gate: expected 1 line\(s\), got 2"),
        (GateApp("u1", (1,), m[:7]), r"u1 gate: expected 8 parameter\(s\), got 7"),
    ]:
        with pytest.raises(ValueError, match=problem):
            gate_matrix(gate)


def test_gate_matrix_checks_the_blocks_of_an_mg_gate():
    a = np.eye(2, dtype=complex)
    flip = reals_from_complex(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(gate_matrix(GateApp("mg", (1,), _mg_params_identity())), np.eye(4))
    with pytest.raises(ValueError, match="determinant mismatch"):
        gate_matrix(GateApp("mg", (1,), reals_from_complex(a) + flip))
    with pytest.raises(ValueError, match="block b is not unitary"):
        gate_matrix(GateApp("mg", (1,), reals_from_complex(a) + reals_from_complex(2 * a)))


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


def reference_validate(circuit) -> list[str]:
    """The per-gate validation loop that the array validator replaced, kept
    as its oracle: `validate` must return exactly these messages."""
    out = circuits._header_violations(circuit)
    flavor = circuit.flavor
    width = circuit.width
    if width < 1:
        return out

    touched: set[int] = set()
    for idx, g in enumerate(circuit.gates, start=1):
        label = f"gate {idx} ({g.kind})"
        sig = GATE_KINDS.get(g.kind)
        if sig is None:
            out.append(f"{label}: unknown kind")
            continue
        kind_flavor, nlines, nparams = sig
        if kind_flavor != flavor:
            out.append(f"{label}: not a {flavor} gate")
            continue
        if len(g.lines) != nlines:
            out.append(f"{label}: expected {nlines} line(s), got {len(g.lines)}")
            continue
        if len(g.params) != nparams:
            out.append(f"{label}: expected {nparams} parameter(s), got {len(g.params)}")
            continue
        if not all(math.isfinite(p) for p in g.params):
            out.append(f"{label}: non-finite parameter")
            continue
        if flavor == "mg":
            k = g.lines[0]
            if not 1 <= k <= width - 1:
                out.append(f"{label}: line {k} out of range 1..{width - 1}")
                continue
            touched.update((k, k + 1))
        else:
            if any(not 1 <= q <= width for q in g.lines):
                out.append(f"{label}: line out of range 1..{width}")
                continue
            if len(set(g.lines)) != len(g.lines):
                out.append(f"{label}: repeated line")
                continue
            touched.update(g.lines)

        if g.kind == "rot":
            plane = g.params[0]
            if plane != int(plane) or not 1 <= int(plane) <= 6:
                out.append(f"{label}: plane must be an integer in 1..6, got {plane}")
        elif g.kind == "mg":
            a = complex_from_reals(g.params[:8])
            b = complex_from_reals(g.params[8:])
            for name, m in (("a", a), ("b", b)):
                dev = algebra.unitary_deviation(m)
                if not dev <= algebra.TOL_UNITARY:
                    out.append(f"{label}: block {name} not unitary (deviation {dev:.3g})")
            gap = abs(np.linalg.det(a) - np.linalg.det(b))
            if not gap <= algebra.TOL_DET_MATCH:
                out.append(f"{label}: determinant mismatch {gap:.3g}")
        elif g.kind in ("u1", "u2", "cu1"):
            m = complex_from_reals(g.params)
            dev = algebra.unitary_deviation(m)
            if not dev <= algebra.TOL_UNITARY:
                out.append(f"{label}: matrix not unitary (deviation {dev:.3g})")

    if flavor == "mg" and not circuit.allow_idle:
        idle = sorted(set(range(1, width + 1)) - touched)
        if idle:
            out.append(f"idle line(s) {idle} (set idle=1 to permit)")
    return out


def _replace_at(values: tuple, j: int, value) -> tuple:
    if not values:
        return values
    j %= len(values)
    return values[:j] + (value,) + values[j + 1 :]


MUTATIONS = (
    "kind",
    "unknown kind",
    "extra line",
    "missing line",
    "dropped parameter",
    "entry",
    "line",
    "repeated line",
    "perturbation",
)


@st.composite
def _mutated_gate(draw, gate: GateApp, width: int) -> GateApp:
    kind, lines, params = gate.kind, gate.lines, gate.params
    how = draw(st.sampled_from(MUTATIONS))
    j = draw(st.integers(0, 31))  # which line or parameter, modulo their count
    if how == "kind":
        kind = draw(st.sampled_from(list(GATE_KINDS)))
    elif how == "unknown kind":
        kind = "cz"
    elif how == "extra line":
        lines += (draw(st.integers(1, width)),)
    elif how == "missing line":
        lines = lines[:-1]
    elif how == "dropped parameter" and params:
        j %= len(params)
        params = params[:j] + params[j + 1 :]
    elif how == "entry":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200]))
        params = _replace_at(params, j, value)
    elif how == "line":
        lines = _replace_at(lines, j, draw(st.sampled_from([0, width, width + 1, 2**70])))
    elif how == "repeated line":
        lines = lines[:1] * 2
    elif how == "perturbation" and params:
        params = _replace_at(params, j, params[j % len(params)] + 1e-6)
    return GateApp(kind, lines, params)


@st.composite
def _mutated_circuits(draw):
    flavor = draw(st.sampled_from(["mg", "qc"]))
    width = draw(st.integers(2, 6) if flavor == "mg" else st.integers(1, 4))
    size = draw(st.sampled_from([1, 3, 40, 511, 512, 513, 700, 1025]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if flavor == "mg":
        base = randgen.random_matchgate_circuit(width, size, rng)
    else:
        base = randgen.random_general_circuit(width, size, rng)
    gates = list(base.gates)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, size - 1))
        gates[at] = draw(_mutated_gate(gates[at], width))
    if flavor == "qc":
        return GeneralCircuit(width, tuple(gates), base.input)
    idle = draw(st.booleans())
    return MatchgateCircuit(width, tuple(gates), base.input, allow_idle=idle)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_mutated_circuits())
def test_array_validator_matches_the_per_gate_loop(circuit):
    with np.errstate(all="ignore"):
        expected = reference_validate(circuit)
        assert validate(circuit) == expected
        if circuit.flavor == "mg" and expected:
            # The simulation's run reader reports the same violations.
            with pytest.raises(ValidationError) as err:
                simulate_expectation(circuit)
            assert err.value.violations == expected


def reference_serialize(circuit) -> str:
    """The serializer that formatted every float of every gate, kept as the
    oracle of `serialize_circuit`, which must write exactly this text."""

    def _fmt(x: float) -> str:
        return repr(float(x))

    head = [f"circuit {circuit.flavor}", f"width={circuit.width}", f"input={circuit.input}"]
    if circuit.flavor == "mg":
        head.append(f"measure={circuit.measure_line}")
        if circuit.allow_idle:
            head.append("idle=1")
    lines = [" ".join(head)]
    for g in circuit.gates:
        toks = [g.kind] + [str(l) for l in g.lines]
        if g.kind == "rot":
            toks.append(f"plane={int(g.params[0])}")
            toks.append(f"theta={_fmt(g.params[1])}")
        elif g.kind == "mg":
            toks.append("a=" + ",".join(_fmt(p) for p in g.params[:8]))
            toks.append("b=" + ",".join(_fmt(p) for p in g.params[8:]))
        elif g.kind in ("u1", "u2", "cu1"):
            toks.append("m=" + ",".join(_fmt(p) for p in g.params))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def test_serialize_keeps_the_sign_of_zero_in_repeated_blocks():
    m = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    flipped = m[:3] + (-0.0,) + m[4:]
    gates = tuple(GateApp("u1", (1,), p) for p in (m, flipped, m, flipped))
    circuit = GeneralCircuit(1, gates, "0")
    text = serialize_circuit(circuit)
    assert text.splitlines()[1:3] == [
        "u1 1 m=1.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0",
        "u1 1 m=1.0,0.0,0.0,-0.0,0.0,0.0,1.0,0.0",
    ]
    assert text == reference_serialize(circuit)


def test_serialize_by_gate_object_writes_what_each_gate_alone_would():
    # One object many times, distinct objects of equal value, objects that
    # differ only in the sign of a zero, and many shared objects, each met
    # again a thousand gates later.
    m = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    shared = GateApp("u1", (1,), m)
    signed = GateApp("u1", (1,), m[:3] + (-0.0,) + m[4:])
    angles = np.linspace(0.0, 1.0, 2051).tolist()
    many = [GateApp("cu1", (1, 2), reals_from_complex(algebra.rot2(t))) for t in angles]
    gates = []
    for i, g in enumerate(many):
        gates += [shared, g, GateApp("u1", (1,), m), signed, many[i // 2]]
    circuit = GeneralCircuit(2, tuple(gates), "00")
    text = serialize_circuit(circuit)
    assert text == reference_serialize(circuit)
    # A bad gate is reported under its first index, also after many good ones.
    bad = GateApp("u1", (1,), m[:7])
    at = len(gates) + 1
    message = f"gate {at} (u1): expected 8 parameter(s), got 7"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize_circuit(GeneralCircuit(2, tuple(gates) + (bad, shared, bad), "00"))


def _as_table(gates) -> "circuits._ParsedGates":
    """The same gates held as one GateColumns table, as a parsed circuit's are."""
    return circuits._ParsedGates(circuits.read_gates(gates))


@pytest.mark.parametrize("plane", [2.5, 1.5, -0.0, math.nan, math.inf])
def test_serialize_refuses_a_non_integral_rot_plane(plane):
    # Truncating 2.5 to 2 would turn an invalid circuit into a valid one, and
    # -0.0 would read back as 0.0; gates and their table are refused alike.
    gates = (GateApp("w", (1,)), GateApp("rot", (1,), (plane, 0.1)))
    message = f"gate 2 (rot): plane must be an integer, got {plane!r}"
    for form in (gates, _as_table(gates)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_circuit(MatchgateCircuit(2, form, "00"))


@pytest.mark.parametrize(
    "gate, problem",
    [
        (GateApp("w", (1,), (1.0,)), "expected 0 parameter(s), got 1"),
        (GateApp("rot", (1,), (2.0, 0.1, 0.3)), "expected 2 parameter(s), got 3"),
        (GateApp("mg", (1,), _mg_params_identity()[:15]), "expected 16 parameter(s), got 15"),
        (GateApp("gxx", (1, 2)), "expected 1 line(s), got 2"),
        (GateApp("cz", (1,)), "unknown kind"),
        (GateApp("rot", (1,), (-0.0, 0.1)), "plane must be an integer, got -0.0"),
        (GateApp("w", (2**70,)), f"line out of range +-{2**62}"),
    ],
)
def test_serialize_refuses_a_gate_the_text_would_change(gate, problem):
    # `w 1` with a parameter would be written as `w 1`, a different, valid gate.
    # The table of the same gates is refused with the same text, except that
    # a table holds an unknown kind, or a gate without its kind's counts, as
    # a -1 row that keeps no name, lines or parameters.
    gates = (GateApp("w", (1,)), gate)
    tuple_message = f"gate 2 ({gate.kind}): {problem}"
    as_row = problem.startswith(("expected", "unknown"))
    table_message = "gate 2 (?): unknown kind" if as_row else tuple_message
    for form, message in ((gates, tuple_message), (_as_table(gates), table_message)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_circuit(MatchgateCircuit(2, form, "00"))


def test_a_table_reads_an_unknown_kind_as_unknown():
    # A table codes an unknown kind as -1; read back as gates, or named by
    # validate, it is "?" and never the last known kind.
    table = _as_table((GateApp("w", (1,)), GateApp("cz", (1,))))
    assert [g.kind for g in table] == ["w", "?"]
    assert table[1].lines == ()
    assert validate(MatchgateCircuit(2, table, "00")) == ["gate 2 (?): unknown kind"]


# Reals the text format must keep bit for bit: signed zeros, subnormals and
# the ends of the double range.
EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308]
_reals = st.sampled_from(EDGE_REALS) | st.floats()


@st.composite
def _gate_with_params(draw, kind: str, width: int, params: tuple) -> GateApp:
    nlines = GATE_KINDS[kind][1]
    lines = tuple(draw(st.integers(1, width)) for _ in range(nlines))
    if kind == "rot":
        params = (float(draw(st.integers(1, 6))), params[1])
    return GateApp(kind, lines, params)


@st.composite
def _circuits_with_repeated_blocks(draw):
    flavor = draw(st.sampled_from(["mg", "qc"]))
    width = draw(st.integers(2, 5))
    kinds = [k for k, sig in GATE_KINDS.items() if sig[0] == flavor]
    # A few blocks per parameter count, each also with the signs of its zeros
    # flipped, so that blocks equal as floats but not as bits share a slot.
    pools = {}
    for n in {GATE_KINDS[k][2] for k in kinds}:
        blocks = draw(st.lists(st.tuples(*[_reals] * n), min_size=1, max_size=3))
        pools[n] = blocks + [tuple(-x if x == 0 else x for x in b) for b in blocks]
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        params = draw(st.sampled_from(pools[GATE_KINDS[kind][2]]))
        gates.append(draw(_gate_with_params(kind, width, params)))
    if flavor == "qc":
        return GeneralCircuit(width, tuple(gates), "0" * width)
    return MatchgateCircuit(width, tuple(gates), "0" * width, 1, draw(st.booleans()))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_circuits_with_repeated_blocks(), st.sampled_from([1, 2, 1024]))
def test_serialize_matches_the_reference_byte_for_byte(circuit, chunk):
    # The gates, and the same gates as a table, are written kind by kind to
    # the same text, also when a small chunk cuts the table into many.
    as_table = _with_gates(circuit, _as_table(circuit.gates))
    with mock.patch.object(textformat, "_TABLE_CHUNK", chunk):
        assert serialize_circuit(circuit) == reference_serialize(circuit)
        assert serialize_circuit(as_table) == reference_serialize(circuit)


def _with_gates(circuit, gates):
    """`circuit` with other gates, everything else kept."""
    if circuit.flavor == "qc":
        return GeneralCircuit(circuit.width, gates, circuit.input)
    return MatchgateCircuit(circuit.width, gates, circuit.input, 1, circuit.allow_idle)


@st.composite
def _circuits_of_runs(draw):
    # The gates of a circuit cut into runs, among them empty and one-gate
    # runs, each read as a block, then written as a sequence of row ranges
    # (pieces) of those blocks: each block possibly many times, in whole or
    # in part, and equal copies of them that are other objects.
    circuit = draw(_circuits_with_repeated_blocks())
    gates = circuit.gates
    cuts = sorted(draw(st.lists(st.integers(0, len(gates)), max_size=12)))
    runs = [gates[a:b] for a, b in zip([0, *cuts], [*cuts, len(gates)])] + [(), gates[:1]]
    pool = list(map(circuits.read_gates, runs))
    pieces = []
    for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=40)):
        copy = draw(st.booleans())  # an equal block that is another object
        block = circuits.read_gates(runs[i]) if copy else pool[i]
        lo = draw(st.integers(0, len(runs[i])))
        hi = draw(st.sampled_from([len(runs[i]), draw(st.integers(lo, len(runs[i])))]))
        pieces.append(circuits._Piece(block, lo, hi))
    return _with_gates(circuit, circuits._ParsedGates(*pieces))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_circuits_of_runs(), st.sampled_from([1, 2, 1024]))
@example(
    GeneralCircuit(
        1,
        circuits._ParsedGates(
            (), (GateApp("u1", (1,), (1.0, 0.0, -0.0, 0.0, 0.0, -0.0, 1.0, 0.0)),), ()
        ),
        "0",
    ),
    1,
)
def test_serialize_of_runs_matches_the_reference_of_their_gates(circuit, chunk):
    # A small chunk cuts the distinct blocks into many.
    flat = _with_gates(circuit, tuple(circuit.gates))
    assert len(circuit.gates) == len(flat.gates)
    with mock.patch.object(textformat, "_TABLE_CHUNK", chunk):
        assert serialize_circuit(circuit) == reference_serialize(flat)


def test_serialize_of_runs_names_a_bad_gate_by_its_index_in_the_circuit(monkeypatch):
    w, bad = GateApp("w", (1,)), GateApp("rot", (1,), (2.5, 0.1))
    pair, tail = circuits.read_gates((w, w)), circuits.read_gates((w, bad))
    gates = circuits._ParsedGates(pair, (), (w,), pair, tail)
    asked = _count_flat_tuples(monkeypatch)
    with pytest.raises(ValueError, match=r"^gate 7 \(rot\): plane must be an integer, got 2.5$"):
        serialize_circuit(MatchgateCircuit(2, gates, "00"))
    assert asked == []  # the refused gate is worded from its row
    # A row no piece holds is no gate of the circuit: neither refused nor written.
    held = MatchgateCircuit(2, circuits._ParsedGates(pair, circuits._Piece(tail, 0, 1)), "00")
    assert serialize_circuit(held) == reference_serialize(_with_gates(held, (w, w, w)))


def _count_flat_tuples(monkeypatch) -> list:
    """Record each time a `_ParsedGates` is asked for its flat GateApp tuple."""
    asked, flat = [], circuits._ParsedGates._gates
    spy = property(lambda gates: asked.append(1) or flat.fget(gates))
    monkeypatch.setattr(circuits._ParsedGates, "_gates", spy)
    return asked


def test_compressed_gates_act_as_the_streamed_tuple(rng, monkeypatch):
    c = pad_to_power_of_two(standardize(randgen.random_matchgate_circuit(6, 30, rng, "010110", 4)))
    streamed = tuple(compress_gate_stream(c))
    out = compress_circuit(c)
    gates = out.gates
    asked = _count_flat_tuples(monkeypatch)
    assert len(gates) == len(streamed) == sum(hi - lo for _, lo, hi in gates.pieces)
    assert asked == []
    assert gates == streamed and streamed == gates and hash(gates) == hash(streamed)
    assert list(gates) == list(streamed) and tuple(reversed(gates)) == streamed[::-1]
    assert gates[0] == streamed[0] and gates[-5:] == streamed[-5:] and gates[7] is gates[7]
    assert repr(gates) == repr(streamed)
    assert all(map(np.array_equal, gates.table, circuits.read_gates(streamed)))
    assert validate(out) == []


def test_cli_compress_writes_the_runs_without_the_flat_tuple(tmp_path, rng, monkeypatch, capsys):
    from matchgates import cli

    src, out = tmp_path / "c.mg", tmp_path / "c.qc"
    circuit = randgen.random_matchgate_circuit(10, 40, rng, "0110100101", 3)
    src.write_text(serialize_circuit(circuit))
    asked = _count_flat_tuples(monkeypatch)
    # Standardize and compress build their gates from ints and floats as they
    # are, never through GateApp's converting constructor.
    converted, post_init = [], GateApp.__post_init__
    monkeypatch.setattr(GateApp, "__post_init__", lambda g: converted.append(g) or post_init(g))
    assert cli.main(["compress", str(src), str(out)]) == 0
    assert asked == [] and converted == []
    monkeypatch.undo()
    standard = pad_to_power_of_two(standardize(circuit))
    expected = GeneralCircuit(7, tuple(compress_gate_stream(standard)), "0" * 7)
    assert out.read_text() == reference_serialize(expected)
    assert f" out_gates={len(expected.gates)} " in capsys.readouterr().out


def test_cli_expand_writes_the_table_without_the_flat_tuple(tmp_path, rng, monkeypatch, capsys):
    from matchgates import cli

    src, out = tmp_path / "c.qc", tmp_path / "c.mg"
    circuit = randgen.random_general_circuit(3, 8, rng, "101")
    src.write_text(serialize_circuit(circuit))
    asked = _count_flat_tuples(monkeypatch)
    assert cli.main(["expand", str(src), str(out)]) == 0
    assert asked == []
    monkeypatch.undo()
    expected = expand_circuit(circuit)
    assert out.read_text() == reference_serialize(expected)
    assert f" out_gates={len(expected.gates)} " in capsys.readouterr().out


def test_validate_words_each_bad_gate_from_its_row(monkeypatch):
    # An mg circuit built in code over three validation chunks, with every
    # kind of failure the table holds in the last: validate words each from
    # the table's rows, never from the flat GateApp tuple.
    rng = np.random.default_rng(11)
    size = 2 * circuits._VALIDATE_CHUNK + 100
    gates = list(randgen.random_matchgate_circuit(6, size, rng, kinds="haar").gates)
    a, b = gates[-1].params[:8], gates[-1].params[8:]
    phase = reals_from_complex(np.exp(0.3j) * complex_from_reals(b))
    gates[-60:] = [
        GateApp("mg", (3,), (2 * a[0], *a[1:]) + b),  # block a not unitary
        GateApp("mg", (2,), a + phase),  # determinant mismatch
        GateApp("rot", (1,), (7.0, 0.2)),
        GateApp("w", (6,)),  # line out of range
        GateApp("x", (1,)),  # not an mg gate
        *gates[-55:],
    ]
    circuit = MatchgateCircuit(6, tuple(gates), "0" * 6)
    asked = _count_flat_tuples(monkeypatch)
    got = validate(circuit)
    assert asked == []
    monkeypatch.undo()
    assert got == reference_validate(circuit) and len(got) == 6


def reference_parse(text: str):
    """The parser that converted every value twice, kept as the oracle of
    `parse_circuit`: same circuit, or the same error on the same line."""

    def _parse_kv(tok: str, lineno: int) -> tuple[str, str]:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", lineno)
        key, _, val = tok.partition("=")
        if not key or not val:
            raise ParseError(f"malformed key=value token {tok!r}", lineno)
        return key, val

    def _parse_int(val: str, what: str, lineno: int) -> int:
        try:
            return int(val)
        except ValueError:
            raise ParseError(f"{what} must be an integer, got {val!r}", lineno) from None

    def _parse_floats(val: str, what: str, lineno: int) -> tuple[float, ...]:
        try:
            return tuple(float(t) for t in val.split(","))
        except ValueError:
            raise ParseError(f"bad {what} value {val!r}", lineno) from None

    def _parse_gate(toks: list[str], lineno: int) -> GateApp:
        kind = toks[0]
        sig = GATE_KINDS.get(kind)
        if sig is None:
            raise ParseError(f"unknown gate kind {kind!r}", lineno)
        _, nlines, nparams = sig
        if len(toks) < 1 + nlines:
            raise ParseError(f"{kind} needs {nlines} line argument(s)", lineno)
        lines = tuple(_parse_int(t, "line", lineno) for t in toks[1 : 1 + nlines])
        rest = toks[1 + nlines :]
        kv = {}
        for tok in rest:
            key, val = _parse_kv(tok, lineno)
            if key in kv:
                raise ParseError(f"duplicate field {key!r}", lineno)
            kv[key] = val

        params: tuple[float, ...] = ()
        if kind == "rot":
            if set(kv) != {"plane", "theta"}:
                raise ParseError("rot needs plane= and theta=", lineno)
            plane = _parse_int(kv["plane"], "plane", lineno)
            theta = _parse_floats(kv["theta"], "theta", lineno)
            if len(theta) != 1:
                raise ParseError("theta must be a single real", lineno)
            try:
                params = (float(plane), theta[0])
            except OverflowError:  # more digits than a float holds
                raise ParseError("plane out of float range", lineno) from None
        elif kind == "mg":
            if set(kv) != {"a", "b"}:
                raise ParseError("mg needs a= and b=", lineno)
            a = _parse_floats(kv["a"], "a", lineno)
            b = _parse_floats(kv["b"], "b", lineno)
            if len(a) != 8 or len(b) != 8:
                raise ParseError("mg blocks take 8 reals each", lineno)
            params = a + b
        elif kind in ("u1", "u2", "cu1"):
            if set(kv) != {"m"}:
                raise ParseError(f"{kind} needs m=", lineno)
            params = _parse_floats(kv["m"], "m", lineno)
            if len(params) != nparams:
                raise ParseError(f"{kind} takes {nparams} reals, got {len(params)}", lineno)
        else:
            if kv:
                raise ParseError(f"{kind} takes no parameters", lineno)
        return GateApp(kind, lines, params)

    header: list[str] | None = None
    header_line = 0
    gates: list[GateApp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if header is None:
            if toks[0] != "circuit":
                raise ParseError(f"expected 'circuit' header, got {toks[0]!r}", lineno)
            header = toks
            header_line = lineno
            continue
        gates.append(_parse_gate(toks, lineno))
    if header is None:
        raise ParseError("empty input: no circuit header")

    if len(header) < 2 or header[1] not in ("mg", "qc"):
        raise ParseError("header must name a flavor, 'mg' or 'qc'", header_line)
    flavor = header[1]
    fields: dict[str, str] = {}
    for tok in header[2:]:
        key, val = _parse_kv(tok, header_line)
        if key in fields:
            raise ParseError(f"duplicate header field {key!r}", header_line)
        fields[key] = val
    for key in fields:
        if key not in ("width", "input", "measure", "idle"):
            raise ParseError(f"unknown header field {key!r}", header_line)
    if "width" not in fields or "input" not in fields:
        raise ParseError("header needs width= and input=", header_line)
    width = _parse_int(fields["width"], "width", header_line)
    inp = fields["input"]

    if flavor == "mg":
        if "measure" not in fields:
            raise ParseError("mg header needs measure=", header_line)
        measure = _parse_int(fields["measure"], "measure", header_line)
        idle = _parse_int(fields.get("idle", "0"), "idle", header_line)
        if idle not in (0, 1):
            raise ParseError("idle must be 0 or 1", header_line)
        circuit = MatchgateCircuit(width, tuple(gates), inp, measure, bool(idle))
    else:
        if "measure" in fields or "idle" in fields:
            raise ParseError("measure=/idle= apply only to mg circuits", header_line)
        circuit = GeneralCircuit(width, tuple(gates), inp)
    validate_or_raise(circuit)
    return circuit


# Replacements for a line number, a plane or one real of a parameter list.
ODD_NUMBERS = ["1.0", "0x1", "1_0", "-0", "+1", "01", "1e0", "", "nan", "-inf", "1e999", "٣"]


def _mutate_token(draw, tok: str) -> list[str]:
    """A drawn edit of one token of a gate line, as the tokens replacing it."""
    key, eq, val = tok.partition("=")
    how = draw(
        st.sampled_from(
            ["number", "empty value", "double =", "duplicate", "drop", "extra", "trailing comma", "two values"]
        )
    )
    if how == "number":
        if not eq:
            return [draw(st.sampled_from(ODD_NUMBERS)) or "="]
        vals = val.split(",")
        vals[draw(st.integers(0, len(vals) - 1))] = draw(st.sampled_from(ODD_NUMBERS))
        return [f"{key}={','.join(vals)}"]
    if how == "empty value":
        return [f"{key}=" if eq else "="]
    if how == "double =":
        return [f"{key}=={val}" if eq else f"{tok}==1"]
    if how == "duplicate":
        return [tok, tok]
    if how == "drop":
        return []
    if how == "extra":
        return [tok, draw(st.sampled_from(["theta=1", "m=1", "plane=2", "q=1", "7", "a"]))]
    if how == "trailing comma":
        return [tok + ","]
    return [f"{key}={val},{val}" if eq else f"{tok},{tok}"]


@st.composite
def _mutated_texts(draw):
    flavor = draw(st.sampled_from(["mg", "qc"]))
    width = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    if flavor == "mg":
        base = randgen.random_matchgate_circuit(width, size, rng)
    else:
        base = randgen.random_general_circuit(width, size, rng)
    lines = serialize_circuit(base).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(1, len(lines) - 1) | st.just(0))  # mostly a gate line
        toks = lines[at].split()
        hows = ["token", "swap", "shift", "bare", "plane", "comment", "comment line"]
        how = draw(st.sampled_from(hows if toks else ["comment line"]))
        if how == "token":
            j = draw(st.integers(1, len(toks) - 1) if len(toks) > 1 else st.just(0))
            toks[j : j + 1] = _mutate_token(draw, toks[j])
            lines[at] = " ".join(toks)
        elif how == "swap":  # b=... a=..., theta=... plane=..., m=... before a line
            toks[-2:] = toks[-2:][::-1]
            lines[at] = " ".join(toks)
        elif how == "shift":  # the last real of one field becomes the first of the next
            lines[at] = re.sub(r",([^,\s]*) (\w+=)", r" \2\1,", lines[at], count=1)
        elif how == "bare":  # a field without its key
            lines[at] = re.sub(r" \w+=", " ", lines[at], count=1)
        elif how == "plane":
            plane = draw(st.sampled_from(["1.0", "٣", *ODD_NUMBERS]))
            lines[at] = " ".join(f"plane={plane}" if t.startswith("plane=") else t for t in toks)
        elif how == "comment":
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + " # " + lines[at][cut:]
        else:
            lines.insert(at, draw(st.sampled_from(["# note", "", "   ", "#"])))
    if draw(st.booleans()):
        lines = [line.replace(" ", "\t") for line in lines]
    return draw(st.sampled_from(["\n", "\r\n", "\x0c", "\u2028"])).join(lines) + "\n"


def _parse_outcome(parse, text: str):
    try:
        circuit = parse(text)
    except (ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return circuit, reference_serialize(circuit)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutated_texts())
def test_parser_matches_the_reference_on_mutated_text(text):
    # Any other exception fails the test: malformed text raises only
    # ParseError or ValidationError.
    with np.errstate(all="ignore"):
        assert _parse_outcome(parse_circuit, text) == _parse_outcome(reference_parse, text)


# (kind of the edited line, pattern, replacement): each edit is a doubt of the
# table reader; some make text the line parser accepts, others an error.
_LARGE_EDITS = [
    ("mg", r"a=[^,]*", "a=nan"),  # a validation error
    ("mg", r"a=", "a=1.5,"),  # nine reals
    ("mg", r"(a=\S*) (b=\S*)", r"\2 \1"),  # swapped keys, accepted
    ("mg", r",(\S*) b=", r" b=\1,"),  # seven reals and nine
    ("mg", r"a=", ""),  # a bare value
    ("rot", r"plane=\d", "plane=1.0"),
    ("rot", r"plane=\d", "plane=٣"),  # accepted: int() reads it as 3
    ("rot", r"(plane=\S*) (theta=\S*)", r"\2 \1"),
    ("rot", r"theta=\S*", "theta=x"),
    ("w", r"\d+", "9"),  # out of range
    ("gxx", r"gxx", "cz"),
    ("gxx", r" ", "\t"),  # accepted
]
# The swap on the first mg line instead: a doubted block, then table-read ones.
_FIRST_BLOCK_EDIT = ("mg", r"(a=\S*) (b=\S*)", r"\2 \1", "first")


def _edited_lines(circuit, edit) -> list[str]:
    """The circuit's text as lines, with `edit` made on the last line of its
    kind, or on the first line of it when the edit says "first"."""
    lines = serialize_circuit(circuit).splitlines()
    if edit is not None:
        kind, pattern, replacement, *first = edit
        of_kind = [i for i, line in enumerate(lines) if line.split()[0] == kind]
        at = of_kind[0] if first else of_kind[-1]
        assert at < 40 if first else at > len(lines) - 40
        lines[at] = re.sub(pattern, replacement, lines[at], count=1)
    return lines


@pytest.mark.parametrize("size", [513, 4097])  # past a 512-gate and a 4096-line boundary
@pytest.mark.parametrize(
    "edit", [None, *_LARGE_EDITS, pytest.param(_FIRST_BLOCK_EDIT, id="first-block")]
)
def test_parser_matches_the_reference_on_large_text(rng, size, edit):
    # One edit on the last line of a kind, near the end of a text that is
    # valid otherwise, or on the first: the same circuit bit for bit, or the
    # same error and line.
    base = randgen.random_matchgate_circuit(4, size, rng)
    lines = _edited_lines(base, edit)
    text = "\n".join(lines) + "\n"
    with np.errstate(all="ignore"):
        outcome = _parse_outcome(parse_circuit, text)
        assert outcome == _parse_outcome(reference_parse, text)
    if edit is None:
        assert outcome[0] == base


def test_only_a_doubted_block_goes_through_the_line_parser(rng, monkeypatch):
    # One odd line in the first of two blocks: the line parser reads that
    # block alone, as rows, and no gate object is built.
    base = randgen.random_matchgate_circuit(4, 4097, rng)
    text = "\n".join(_edited_lines(base, _FIRST_BLOCK_EDIT)) + "\n"
    parsed_lines, apps = [], []
    parse_gate = textformat._parse_gate
    monkeypatch.setattr(textformat, "_parse_gate", lambda *a: parsed_lines.append(1) or parse_gate(*a))
    monkeypatch.setattr(circuits, "_gate_apps", lambda table: apps.append(1))
    parsed = parse_circuit(text)
    assert 0 < len(parsed_lines) <= textformat._READ_BLOCK and apps == []
    monkeypatch.undo()
    canonical = parse_circuit(serialize_circuit(base))
    assert parsed == canonical and repr(parsed) == repr(canonical)


# A line number int64 cannot hold, in the serializer's form and in another.
_BEYOND_INT64 = ["w 9223372036854775808", "rot -9223372036854775809 theta=0.5 plane=2"]


@pytest.mark.parametrize("at", [3, 5000])  # in the first block and in the second
@pytest.mark.parametrize("line", _BEYOND_INT64, ids=["serializer-form", "other-form"])
def test_a_line_beyond_int64_is_a_parse_error_on_its_line(rng, at, line):
    rows = serialize_circuit(randgen.random_matchgate_circuit(4, 6000, rng)).splitlines()
    rows[at - 1] = line
    with pytest.raises(ParseError) as err:
        parse_circuit("\n".join(rows) + "\n")
    assert err.value.line == at
    assert str(err.value) == f"line {at}: line out of range +-{2**62}"


@pytest.mark.parametrize("digits", [20, 400])  # past int64; past a float too
def test_a_huge_rot_plane_is_refused_alike_by_the_reference(digits):
    # A plane past int64 that a float holds is a validation error; one with
    # more digits than a float holds is a parse error on its line, in both.
    text = f"circuit mg width=2 input=00 measure=1\nw 1\nrot 1 plane=1{'0' * digits} theta=0\n"
    outcome = _parse_outcome(parse_circuit, text)
    assert outcome == _parse_outcome(reference_parse, text)
    assert outcome[0] is (ValidationError if digits == 20 else ParseError)
    if digits == 400:
        assert outcome[1:] == ("line 3: plane out of float range", 3)


def test_a_line_inside_int64_stays_a_validation_error_with_its_value():
    text = "circuit mg width=3 input=000 measure=1\nw 1\nw 4611686018427387905\nw 2\n"
    with pytest.raises(ValidationError) as err:
        parse_circuit(text)
    assert err.value.violations == ["gate 2 (w): line 4611686018427387905 out of range 1..2"]


# Parameter values for gates of any shape: signed zeros, non-integral and
# non-finite values and any float; and rot planes in and out of 1..6.
_ANY_PARAM = st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e300, math.nan, math.inf]) | st.floats()
_ANY_PLANE = st.sampled_from([1.0, 6.0, 0.0, -0.0, 7.0, -3.0, 2.5, 1e300, math.nan])
_SHAPES = ("kind's", "kind's", "extra line", "missing line", "extra parameter", "missing parameter")


@st.composite
def _any_gate(draw, width: int) -> GateApp:
    """A GateApp of any kind, known to either flavor or unknown, with the
    kind's counts of lines and parameters or with one too few or too many."""
    kind = draw(st.sampled_from([*GATE_KINDS, "cz", "", "W", "w 1"]))
    _, nlines, nparams = GATE_KINDS.get(kind, ("", 1, 0))
    shape = draw(st.sampled_from(_SHAPES))
    nlines += (shape == "extra line") - (shape == "missing line")
    nparams += (shape == "extra parameter") - (shape == "missing parameter" and nparams > 0)
    lines = tuple(draw(st.sampled_from([*range(-1, width + 2), 2**70])) for _ in range(nlines))
    params = [draw(_ANY_PARAM) for _ in range(nparams)]
    if kind == "rot" and params:
        params[0] = draw(_ANY_PLANE)
    return GateApp(kind, lines, tuple(params))


@st.composite
def _circuits_of_any_gates(draw):
    flavor = draw(st.sampled_from(["mg", "qc"]))
    width = draw(st.integers(2, 4) if flavor == "mg" else st.integers(1, 3))
    # At most one odd gate, so that no other one masks its fault.
    odd = draw(st.none() | _any_gate(width))
    size = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if flavor == "mg":
        gates = list(randgen.random_matchgate_circuit(width, size, rng).gates)
    else:
        gates = list(randgen.random_general_circuit(width, size, rng).gates)
    if odd is not None:
        gates.insert(draw(st.integers(0, len(gates))), odd)
    if flavor == "qc":
        return GeneralCircuit(width, tuple(gates), "0" * width)
    return MatchgateCircuit(width, tuple(gates), "0" * width, 1, draw(st.booleans()))


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_circuits_of_any_gates())
@example(MatchgateCircuit(2, (GateApp("w", (1,), (1.0,)),), "00"))
@example(MatchgateCircuit(2, (GateApp("rot", (1,), (-0.0, 0.5)),), "00"))
@example(GeneralCircuit(1, (GateApp("u1", (1,), _mg_params_identity()[:7]),), "0"))
def test_serialize_raises_or_round_trips_any_gates(circuit):
    # The text either carries the circuit itself, which parses back equal or
    # with validate's own verdict, or serialize refuses an invalid circuit.
    with np.errstate(all="ignore"):
        violations = validate(circuit)
        try:
            text = serialize_circuit(circuit)
        except ValueError as err:
            assert violations and re.match(r"gate \d+ \(", str(err))
            return
        try:
            again = parse_circuit(text)
        except ValidationError as err:
            assert err.violations == violations
        else:
            assert not violations and again == circuit


def _invalid_text(rng, n: int) -> str:
    """A 60-gate text that parses and then fails validation in several places."""
    lines = serialize_circuit(randgen.random_matchgate_circuit(n, 60, rng)).splitlines()
    lines[9] = f"w {n}"  # out of range
    lines[20] = "mg 1 a=2,0,0,0,0,0,1,0 b=1,0,0,0,0,0,1,0"  # not unitary, determinants differ
    lines[33] = "rot 1 plane=9 theta=0.5"
    lines[47] = "gxx 0"
    return "\n".join(lines) + "\n"


def test_parsed_table_reads_as_the_gates_built_in_code(rng, monkeypatch):
    # Small runs make validation and simulation slice the parsed table many
    # times: the readout must be the in-memory circuit's bit for bit, and a
    # parsed invalid circuit must fail with the per-gate loop's messages.
    from matchgates import simulate

    monkeypatch.setattr(circuits, "_VALIDATE_CHUNK", 7)
    monkeypatch.setattr(simulate, "_MG_CHUNK", 7)
    for n in range(2, 11):
        bits = "".join(str(b) for b in rng.integers(0, 2, n))
        built = randgen.random_matchgate_circuit(n, 60, rng, input_bits=bits)
        text = serialize_circuit(built)
        parsed = parse_circuit(text)
        for k in range(1, n + 1):
            assert simulate_expectation(parsed, k) == simulate_expectation(built, k)
        assert parsed == built and repr(parsed) == repr(reference_parse(text))

        text = _invalid_text(rng, n)
        with pytest.raises(ValidationError) as err:
            parse_circuit(text)
        expected = reference_validate(reference_parse_gates(text))
        assert len(expected) >= 4 and err.value.violations == expected


def reference_parse_gates(text: str) -> MatchgateCircuit:
    """The circuit of a text, read by the reference line parser without validating it."""
    with mock.patch.dict(globals(), validate_or_raise=lambda circuit: None):
        return reference_parse(text)


def test_gates_of_a_parsed_circuit_act_as_the_tuple_built_once(rng, monkeypatch):
    built = randgen.random_matchgate_circuit(5, 40, rng)
    text = serialize_circuit(built)
    parsed, reference = parse_circuit(text), reference_parse(text)
    calls, ref_gates = [], tuple(reference.gates)
    monkeypatch.setattr(circuits, "_gate_apps", lambda table: calls.append(1) or ref_gates)
    assert len(parsed.gates) == 40 and calls == []
    assert parsed.gates == reference.gates and reference.gates == parsed.gates
    assert parsed.gates[3] is parsed.gates[3] and calls == [1]
    assert parsed == reference and hash(parsed) == hash(reference)
    assert repr(parsed) == repr(reference)
    assert parsed.gates + (parsed.gates[0],) == reference.gates + (reference.gates[0],)
    assert (parsed.gates[0],) + parsed.gates == (reference.gates[0],) + reference.gates
    assert list(reversed(parsed.gates)) == list(reversed(reference.gates))
    assert parsed.gates[-2:] == reference.gates[-2:] and parsed.gates[5] in parsed.gates
    assert calls == [1]
    gates = tuple(parse_circuit(text).gates)  # through the unpatched _gate_apps
    assert gates == reference.gates
    assert all(type(v) is int for g in gates for v in g.lines)
    assert all(type(v) is float for g in gates for v in g.params)


def test_gates_built_in_code_are_read_once_when_the_circuit_is_built(rng, monkeypatch):
    from matchgates.oracle import run_statevector

    mg = randgen.random_matchgate_circuit(6, 300, rng, input_bits="101100", measure_line=4)
    qc = randgen.random_general_circuit(4, 200, rng, input_bits="0110", kinds="mixed")
    pairs = [(c, parse_circuit(serialize_circuit(c))) for c in (mg, qc)]

    def refuse(gates):
        raise AssertionError("gates read again after the circuit was built")

    monkeypatch.setattr(circuits, "read_gates", refuse)
    for c, parsed in pairs:
        assert validate(c) == validate(parsed) == []
        assert np.array_equal(run_statevector(c), run_statevector(parsed))
        assert serialize_circuit(c) == serialize_circuit(parsed)
    parsed = pairs[0][1]
    for k in range(1, mg.width + 1):
        assert simulate_expectation(mg, k) == simulate_expectation(parsed, k)
    assert simulate_expectation_reference(mg) == simulate_expectation_reference(parsed)
    monkeypatch.undo()

    # A generator is read once into the same circuit as a list or a tuple;
    # the gates stay the objects they were built from, a misshapen one too.
    bad = GateApp("w", (1, 2))
    gates = (*mg.gates[:5], bad, *mg.gates[5:])
    forms = [(g for g in gates), list(gates), gates]
    built = [MatchgateCircuit(6, form, "101100", 4) for form in forms]
    assert built[0] == built[1] == built[2] and hash(built[0]) == hash(built[2])
    assert all(c.gates[5] is bad and c.gates[0] is gates[0] for c in built)
    assert validate(built[0]) == ["gate 6 (w): expected 1 line(s), got 2"]


def test_a_valid_circuit_built_in_code_holds_only_its_table(rng):
    # Its GateApps read back equal from the table, so once they are dropped
    # the circuit retains its table and a few small objects, not a tuple.
    tracemalloc.start()
    try:
        circuit = randgen.random_matchgate_circuit(64, 20_000, rng, kinds="haar")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 * sum(column.nbytes for column in circuit.gates.table)


def test_circuits_built_from_one_tuple_holding_a_nan_are_equal():
    # A NaN would read back from the table as another NaN, unequal to the
    # first, so gates holding one keep the tuple they were built from.
    gates = (GateApp("w", (1,)), GateApp("rot", (1,), (2.0, math.nan)))
    a, b = MatchgateCircuit(2, gates, "00"), MatchgateCircuit(2, list(gates), "00")
    assert a == b and hash(a) == hash(b) and a.gates[1] is gates[1]
    assert validate(a) == ["gate 2 (rot): non-finite parameter"]


def test_serialized_text_of_either_flavor_parses_without_gate_objects(rng, monkeypatch):
    texts = [
        serialize_circuit(randgen.random_matchgate_circuit(6, 300, rng)),
        serialize_circuit(randgen.random_general_circuit(3, 300, rng, kinds="mixed")),
        "\n  \r\ncircuit qc width=2 input=01\r\n\r\nx\t1\r\nu2 1 2 m=%s\r\n"
        % ",".join(map(repr, reals_from_complex(np.eye(4)))),
    ]
    for text in texts:
        built = []
        monkeypatch.setattr(GateApp, "__post_init__", lambda g: built.append(g))
        monkeypatch.setattr(circuits, "_gate", lambda *a: built.append(a))
        parsed = parse_circuit(text)
        assert len(parsed.gates) > 0 and built == []
        monkeypatch.undo()
        assert parsed == reference_parse(text)


def test_gate_columns_slice_and_rows_by_offset():
    gates = (
        GateApp("w", (1,)),
        GateApp("rot", (2,), (3.0, 0.5)),
        GateApp("mg", (1,), _mg_params_identity()),
        GateApp("rot", (1,), (1.0, -0.25)),
    )
    cols = circuits.read_gates(gates)
    assert cols.param_at.tolist() == [0, 0, 2, 18]
    assert cols.rows("rot").tolist() == [[3.0, 0.5], [1.0, -0.25]]
    assert cols.rows("mg").tolist() == [list(_mg_params_identity())]
    assert cols.rows("gxx").shape == (0, 0)
    tail = cols.part(1, 9)
    assert tail.kinds.tolist() == cols.kinds[1:].tolist()
    assert tail.param_at.tolist() == [0, 2, 18] and tail.line_at.tolist() == [0, 1, 2]
    assert tail.rows("rot").tolist() == cols.rows("rot").tolist()
    for lo in range(4):
        for hi in range(lo + 1, 6):
            part, read = cols.part(lo, hi), circuits.read_gates(gates[lo:hi])
            assert all(map(np.array_equal, part, read))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(_any_gate(4), max_size=6))
def test_read_gates_holds_each_row_by_its_kind(gates):
    # Each row holds exactly its kind's lines and parameters; a gate of an
    # unknown kind or with other counts is a -1 row that holds none.
    table = circuits.read_gates(gates)
    kinds = table.kinds.tolist()
    for at, flat, i in ((table.line_at, table.lines, 1), (table.param_at, table.params, 2)):
        assert at.tolist()[:1] in ([], [0])
        held = np.diff(np.append(at, len(flat))).tolist()  # each row's count, by its offsets
        assert held == [GATE_KINDS[circuits._KIND_NAMES[k]][i] if k >= 0 else 0 for k in kinds]
    for g, k, back in zip(gates, kinds, circuits._gate_apps(table)):
        shaped = g.kind in GATE_KINDS and (len(g.lines), len(g.params)) == GATE_KINDS[g.kind][1:]
        assert k == (circuits.KIND_CODES[g.kind] if shaped else -1)
        if shaped:  # a line beyond int64 is held clipped
            lines = tuple(max(-(2**62), min(2**62, x)) for x in g.lines)
            assert repr(back) == repr(GateApp(g.kind, lines, g.params))
        else:
            assert back == GateApp("?", (), ())


def _commented(text: str) -> str:
    """The text with a comment line first and a comment after every third row."""
    rows = text.splitlines()
    rows = [row + ("  # note, a=1 #" if i % 3 == 0 else "") for i, row in enumerate(rows)]
    return "# hand-edited\n" + "\n".join(rows) + "\n"


def test_comments_keep_text_on_the_table_reader(rng, monkeypatch):
    texts = [
        serialize_circuit(randgen.random_matchgate_circuit(6, 300, rng)),
        serialize_circuit(randgen.random_general_circuit(3, 300, rng, kinds="mixed")),
    ]
    for text in texts:
        built = []
        monkeypatch.setattr(GateApp, "__post_init__", lambda g: built.append(g))
        monkeypatch.setattr(circuits, "_gate", lambda *a: built.append(a))
        parsed = parse_circuit(_commented(text))
        assert len(parsed.gates) == 300 and built == []
        monkeypatch.undo()
        assert parsed == parse_circuit(text) and repr(parsed) == repr(parse_circuit(text))


def test_errors_in_commented_text_keep_the_line_parsers_line():
    text = "# first\ncircuit mg width=2 input=00 measure=1 # header\n\nw 1\n"
    text += "rot 1 plane=2 # theta=1\n"
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert str(err.value) == "line 5: rot needs plane= and theta="


def test_generated_circuit_prints_as_its_text_reads_back(rng):
    circuit = randgen.random_matchgate_circuit(5, 40, rng)
    assert repr(circuit) == repr(reference_parse(serialize_circuit(circuit)))


# ----- Compiler outputs and circuit flavors -----------------------------------


_QC2 = GeneralCircuit(2, (GateApp("h", (1,)),), "01")
_QC3 = GeneralCircuit(3, (GateApp("h", (1,)),), "001")
_MG = MatchgateCircuit(2, (GateApp("w", (1,)),), "10")


@pytest.mark.parametrize(
    "call, circuit",
    [
        (standardize, _QC3),
        (compress_circuit, _QC2),
        (lambda c: list(compress_gate_stream(c)), _QC2),
        (simulate_expectation, _QC3),
        (output_distribution, _QC3),
        (circuit_rotation, _QC3),
        (simulate_expectation_reference, _QC3),
        (pad_to_power_of_two, _QC2),
        (pad_to_power_of_two, _QC3),
        (expand_circuit, _MG),
    ],
    ids=[
        "standardize",
        "compress_circuit",
        "compress_gate_stream",
        "simulate_expectation",
        "output_distribution",
        "circuit_rotation",
        "simulate_expectation_reference",
        "pad_to_power_of_two-width2",
        "pad_to_power_of_two-width3",
        "expand_circuit",
    ],
)
def test_single_flavor_functions_name_the_flavor_they_expect(call, circuit):
    expected = "a qc circuit, got an mg" if circuit.flavor == "mg" else "an mg circuit, got a qc"
    with pytest.raises(ValueError, match=f"^expected {expected} circuit$"):
        call(circuit)


_W12 = (GateApp("w", (1,)), GateApp("w", (2,)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: standardize(_QC3), "expected an mg circuit, got a qc circuit"),
        (lambda: expand_circuit(_MG), "expected a qc circuit, got an mg circuit"),
        (lambda: simulate_expectation(_MG, 3), "line 3 out of range 1..2"),
        (lambda: simulate_expectation_reference(_MG, 0), "line 0 out of range 1..2"),
        (lambda: compress_circuit(_MG), r"compress needs an all-zero input \(standardize first\)"),
        (
            lambda: compress_circuit(MatchgateCircuit(2, _MG.gates, "00", 2)),
            r"compress needs measure line 1 \(standardize first\)",
        ),
        (
            lambda: compress_circuit(MatchgateCircuit(3, _W12, "000")),
            r"compress needs a power-of-two width \(pad first\)",
        ),
        (
            lambda: randgen.random_matchgate_circuit(1, 3, np.random.default_rng(0)),
            "matchgate circuits need width >= 2, got 1",
        ),
        (
            lambda: randgen.random_general_circuit(0, 3, np.random.default_rng(0)),
            "circuits need width >= 1, got 0",
        ),
    ],
)
def test_caller_errors_raise_one_class(call, message):
    # A valid circuit or argument that the call does not take: a
    # CircuitError, which the CLI maps to exit 2, and a ValueError.
    with pytest.raises(circuits.UsageError, match=f"^{message}$") as err:
        call()
    assert isinstance(err.value, circuits.CircuitError)
    assert isinstance(err.value, ValueError)


@st.composite
def _mg_instances(draw, odd: bool, allow_idle: bool):
    # Any width, input of the given weight parity and gate mix; without
    # allow_idle the gates cover every line.
    n = draw(st.integers(2, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if sum(bits) % 2 != odd:
        bits[draw(st.integers(0, n - 1))] ^= 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = draw(st.lists(st.integers(1, n - 1), max_size=6))
    if not allow_idle:
        lines += range(1, n)
    gates = []
    for k in lines:
        kind = draw(st.sampled_from(["mg", "rot", "w", "gxx"]))
        if kind == "mg":
            gates.append(GateApp("mg", (k,), randgen.random_matchgate_params(rng)))
        elif kind == "rot":
            theta = draw(st.floats(-np.pi, np.pi))
            gates.append(GateApp("rot", (k,), (float(draw(st.integers(1, 6))), theta)))
        else:
            gates.append(GateApp(kind, (k,)))
    text = "".join(map(str, bits))
    return MatchgateCircuit(n, tuple(gates), text, allow_idle=allow_idle)


def test_compilers_validate_only_their_input(rng):
    # standardize, pad_to_power_of_two and expand_circuit mark what they
    # build from a validated input as validated: one validate per pipeline.
    mg = randgen.random_matchgate_circuit(6, 20, rng, "011010", 3)
    qc = randgen.random_general_circuit(3, 6, rng, "101")
    with mock.patch.object(circuits, "validate", wraps=circuits.validate) as checked:
        compress_circuit(pad_to_power_of_two(standardize(mg)))
        assert checked.call_count == 1
        expand_circuit(qc)
        assert checked.call_count == 2


@pytest.mark.parametrize("allow_idle", [False, True])
@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_standardize_pad_and_compress_build_valid_circuits(odd, allow_idle, data):
    circuit = data.draw(_mg_instances(odd, allow_idle))
    for k in range(1, circuit.width + 1):
        standard = standardize(
            MatchgateCircuit(circuit.width, circuit.gates, circuit.input, k, allow_idle)
        )
        assert validate(standard) == []
        padded = pad_to_power_of_two(standard)
        assert validate(padded) == []
        assert validate(compress_circuit(padded)) == []


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3), data=st.data())
def test_expand_builds_valid_circuits(m, seed, size, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m).filter(any))
    rng = np.random.default_rng(seed)
    circuit = randgen.random_general_circuit(m, size, rng, "".join(map(str, bits)))
    out = expand_circuit(circuit)
    # The expanded gates are one table: counting and writing them builds no GateApp.
    asked, flat = [], circuits._ParsedGates._gates
    spy = property(lambda gates: asked.append(1) or flat.fget(gates))
    with mock.patch.object(circuits._ParsedGates, "_gates", spy):
        count, text = len(out.gates), serialize_circuit(out)
        assert validate(out) == []
    assert asked == []
    assert count == len(tuple(out.gates)) and text == reference_serialize(out)
