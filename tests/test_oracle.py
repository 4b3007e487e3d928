"""Dense statevector oracle: the independent reference everything is checked against."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgates import algebra, oracle, randgen
from matchgates.circuits import (
    GATE_KINDS,
    GateApp,
    GeneralCircuit,
    GuardError,
    MatchgateCircuit,
    complex_from_reals,
    parse_circuit,
    reals_from_complex,
    serialize_circuit,
    validate_or_raise,
)
from matchgates.oracle import (
    ORACLE_MAX_WIDTH,
    adjoint_action_check,
    apply_dense_gate,
    basis_state,
    expectation_z,
    run_statevector,
    verify_equivalent,
)

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def reference_gate_matrix(gate: GateApp) -> np.ndarray:
    """One gate's dense unitary, kind by kind: the per-gate map the batched
    `circuits.gate_matrices` replaced."""
    kind = gate.kind
    if kind == "w":
        return algebra.FERMIONIC_SWAP.copy()
    if kind == "gxx":
        return algebra.GXX.copy()
    if kind == "rot":
        plane = int(gate.params[0])
        return algebra.rotation_generator_exponential(plane, gate.params[1])
    if kind == "mg":
        a = complex_from_reals(gate.params[:8])
        b = complex_from_reals(gate.params[8:])
        return algebra.make_matchgate(a, b)
    if kind == "x":
        return algebra.PAULI_X.copy()
    if kind == "h":
        return _HADAMARD.copy()
    if kind in ("u1", "u2"):
        return complex_from_reals(gate.params)
    if kind == "cu1":
        u = complex_from_reals(gate.params)
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = u
        return out
    raise ValueError(f"unknown gate kind {kind!r}")


def reference_apply_dense_gate(state, u, lines, width):
    """One gate applied by moving its lines' axes to the front and back."""
    j = len(lines)
    t = state.reshape((2,) * width)
    src = [l - 1 for l in lines]
    t = np.moveaxis(t, src, range(j))
    shape = t.shape
    t = (u @ t.reshape(2**j, -1)).reshape(shape)
    t = np.moveaxis(t, range(j), src)
    return t.reshape(-1)


def reference_run_statevector(circuit):
    """The oracle as a loop over GateApps, one moveaxis pair per gate."""
    if circuit.width > ORACLE_MAX_WIDTH:
        raise GuardError(
            f"width {circuit.width} exceeds the dense-oracle guard of {ORACLE_MAX_WIDTH}"
        )
    validate_or_raise(circuit)
    state = basis_state(circuit.input)
    for g in circuit.gates:
        u = reference_gate_matrix(g)
        lines = g.lines if circuit.flavor == "qc" else (g.lines[0], g.lines[0] + 1)
        state = reference_apply_dense_gate(state, u, lines, circuit.width)
    return state


def test_basis_state_places_single_amplitude():
    s = basis_state("010")
    assert s[int("010", 2)] == 1.0
    assert np.abs(s).sum() == 1.0


def test_apply_dense_gate_first_line_is_most_significant():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s = apply_dense_gate(basis_state("00"), x, (1,), 2)
    assert np.allclose(s, basis_state("10"))
    s = apply_dense_gate(basis_state("00"), x, (2,), 2)
    assert np.allclose(s, basis_state("01"))


@pytest.mark.parametrize(
    "u, lines",
    [
        (np.kron(algebra.PAULI_X, np.eye(2)), (3,)),
        (np.eye(2), (1, 2)),
        (np.eye(4)[:, :2], (1, 2)),
        (np.eye(4), (2, 2)),
        (np.eye(2), (0,)),
        (np.eye(2), (4,)),
    ],
)
def test_apply_dense_gate_refuses_a_matrix_or_lines_that_do_not_fit(u, lines):
    # A 4x4 on one line, a 2x2 or a 4x2 on two, a repeated line, lines off
    # the register.
    with pytest.raises(ValueError):
        apply_dense_gate(basis_state("000"), u, lines, 3)


def test_norm_preserved_over_long_random_circuit(rng):
    c = randgen.random_general_circuit(10, 1000, rng)
    state = run_statevector(c)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-9


def test_swap_gate_negates_doubly_occupied_pair():
    c = MatchgateCircuit(2, (GateApp("w", (1,)),), "11", 1)
    state = run_statevector(c)
    expected = -basis_state("11")
    assert np.allclose(state, expected, atol=1e-12)


def test_swap_gate_exchanges_single_occupation():
    c = MatchgateCircuit(2, (GateApp("w", (1,)),), "01", 1)
    assert np.allclose(run_statevector(c), basis_state("10"), atol=1e-12)


def test_expectation_z_reads_the_requested_line():
    state = basis_state("01")
    assert expectation_z(state, 1) == pytest.approx(1.0)
    assert expectation_z(state, 2) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        expectation_z(state, 3)


def test_width_guard_refuses_large_registers():
    width = ORACLE_MAX_WIDTH + 1
    c = GeneralCircuit(width, (GateApp("x", (1,)),), "0" * width)
    with pytest.raises(GuardError):
        run_statevector(c)


def test_adjoint_action_is_exact_for_random_matchgates(rng):
    from matchgates.circuits import complex_from_reals

    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        params = randgen.random_matchgate_params(rng)
        from matchgates.algebra import make_matchgate

        g = make_matchgate(
            complex_from_reals(params[:8]), complex_from_reals(params[8:])
        )
        worst = max(worst, adjoint_action_check(g, k, n))
    assert worst <= 1e-10


def test_verify_equivalent_reports_match_and_mismatch(rng):
    c = randgen.random_matchgate_circuit(4, 12, rng)
    report = verify_equivalent(c, c, tol=1e-12, engine_a="mgsim", engine_b="oracle")
    assert report.passed
    assert "pass=true" in report.line()

    flipped = MatchgateCircuit(
        c.width, c.gates + (GateApp("gxx", (c.measure_line,)),), c.input, c.measure_line
    )
    report = verify_equivalent(c, flipped, tol=1e-3)
    assert not report.passed
    assert "pass=false" in report.line()


@pytest.mark.parametrize("engine_a", ["oracle", "mgsim"])
@pytest.mark.parametrize("line_a, line_b", [(0, 1), (5, 1), (1, 0), (1, 4)])
def test_verify_equivalent_checks_both_lines_before_either_engine(
    rng, monkeypatch, engine_a, line_a, line_b
):
    from matchgates import simulate
    from matchgates.circuits import UsageError

    def refuse(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(oracle, "run_statevector", refuse)
    monkeypatch.setattr(simulate, "simulate_expectation", refuse)
    a = randgen.random_matchgate_circuit(4, 12, rng)
    b = randgen.random_general_circuit(3, 12, rng)
    bad, width = (line_a, 4) if line_a != 1 else (line_b, 3)
    with pytest.raises(UsageError, match=f"^line {bad} out of range 1..{width}$"):
        verify_equivalent(a, b, line_a=line_a, line_b=line_b, engine_a=engine_a)


@pytest.mark.parametrize("engines", [("oracle", "bogus"), ("bogus", "mgsim"), ("Oracle", "oracle")])
def test_verify_equivalent_checks_both_engines_before_either_runs(rng, engines):
    from matchgates.circuits import UsageError

    c = randgen.random_general_circuit(3, 12, rng)
    with mock.patch.object(oracle, "run_statevector", wraps=oracle.run_statevector) as run:
        with pytest.raises(UsageError, match="unknown engine"):
            verify_equivalent(c, c, engine_a=engines[0], engine_b=engines[1])
    assert run.call_count == 0


def test_apply_dense_gate_leaves_its_input_alone(rng):
    state = randgen.haar_unitary(8, rng)[:, 0]
    before = state.copy()
    u = randgen.haar_unitary(4, rng)
    out = apply_dense_gate(state, u, (3, 1), 3)
    assert np.array_equal(state, before) and out is not state
    assert np.abs(out - reference_apply_dense_gate(before, u, (3, 1), 3)).max() <= 1e-15


def _random_gate(draw, kind: str, width: int, rng) -> GateApp:
    flavor, nlines, _ = GATE_KINDS[kind]
    top = width - 1 if flavor == "mg" else width
    lines = tuple(draw(st.permutations(range(1, top + 1)))[:nlines])
    if kind == "rot":
        return GateApp(kind, lines, (float(draw(st.integers(1, 6))), draw(st.floats(-7, 7))))
    if kind == "mg":
        return GateApp(kind, lines, randgen.random_matchgate_params(rng))
    if kind in ("u1", "cu1"):
        return GateApp(kind, lines, reals_from_complex(randgen.haar_unitary(2, rng)))
    if kind == "u2":
        return GateApp(kind, lines, reals_from_complex(randgen.haar_unitary(4, rng)))
    return GateApp(kind, lines)


@st.composite
def _oracle_circuits(draw):
    """A valid circuit of either flavor, width 1..10, built in code or parsed."""
    flavor = draw(st.sampled_from(["mg", "qc"]))
    width = draw(st.integers(2 if flavor == "mg" else 1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [k for k, (f, nlines, _) in GATE_KINDS.items() if f == flavor and nlines <= width]
    gates = tuple(
        _random_gate(draw, draw(st.sampled_from(kinds)), width, rng)
        for _ in range(draw(st.integers(0, 24)))
    )
    bits = "".join(draw(st.sampled_from("01")) for _ in range(width))
    if flavor == "mg":
        circuit = MatchgateCircuit(width, gates, bits, 1, allow_idle=True)
    else:
        circuit = GeneralCircuit(width, gates, bits)
    return parse_circuit(serialize_circuit(circuit)) if draw(st.booleans()) else circuit


def _both_orders(rng) -> GeneralCircuit:
    u2 = reals_from_complex(randgen.haar_unitary(4, rng))
    u1 = reals_from_complex(randgen.haar_unitary(2, rng))
    gates = [GateApp("h", (1,)), GateApp("h", (3,))]
    for kind, params in (("cu1", u1), ("u2", u2)):
        gates += [GateApp(kind, lines, params) for lines in ((3, 1), (1, 3), (2, 1))]
    return GeneralCircuit(3, tuple(gates), "010")


def _cu1_heavy(width: int, rng) -> GeneralCircuit:
    """A Hadamard on every line, then 600 gates, nine in ten of them cu1 on a
    random ordered pair: both control orders, longer than a run of gates."""
    gates = [GateApp("h", (k,)) for k in range(1, width + 1)]
    for i in range(600):
        a, b = (int(k) + 1 for k in rng.permutation(width)[:2])
        if i % 10:
            gates.append(GateApp("cu1", (a, b), reals_from_complex(randgen.haar_unitary(2, rng))))
        else:
            gates.append(GateApp("u1", (a,), reals_from_complex(randgen.haar_unitary(2, rng))))
    return GeneralCircuit(width, tuple(gates), "0" * width)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    _oracle_circuits(),
    st.sampled_from([7, oracle._ORACLE_CHUNK]),
    st.sampled_from([1, oracle._SLOT_ENTRIES]),
)
@example(_both_orders(np.random.default_rng(1)), 7, oracle._SLOT_ENTRIES)
@example(parse_circuit(serialize_circuit(_both_orders(np.random.default_rng(2)))), 7, 1)
@example(_cu1_heavy(8, np.random.default_rng(3)), oracle._ORACLE_CHUNK, oracle._SLOT_ENTRIES)
@example(_cu1_heavy(10, np.random.default_rng(4)), oracle._ORACLE_CHUNK, oracle._SLOT_ENTRIES)
def test_oracle_matches_the_moveaxis_loop(circuit, chunk, entries):
    # Runs of 7 gates end mid-circuit; a one-position bound applies every gate
    # through a slot view, the default bound through slot indices up to 9 lines.
    with mock.patch.multiple(oracle, _ORACLE_CHUNK=chunk, _SLOT_ENTRIES=entries):
        state = run_statevector(circuit)
    assert np.abs(state - reference_run_statevector(circuit)).max() <= 1e-15


def test_slot_indices_stay_within_their_bound(rng):
    # Every ordered line pair at the width guard: 182 distinct line tuples,
    # 23 MiB if a slot index of 2^14 positions were kept for each.  A moveaxis
    # pair per gate peaks at about 0.8 MiB here.
    n = ORACLE_MAX_WIDTH
    u = reals_from_complex(randgen.haar_unitary(4, rng))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    circuit = GeneralCircuit(n, tuple(GateApp("u2", p, u) for p in pairs), "0" * n)
    validate_or_raise(circuit)
    tracemalloc.start()
    try:
        run_statevector(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("width, entries", [(8, oracle._SLOT_ENTRIES), (10, oracle._SLOT_ENTRIES), (8, 1)])
@pytest.mark.parametrize("control, target", [(2, 5), (5, 2)])
def test_cu1_leaves_every_control_zero_amplitude_bit_for_bit(rng, width, entries, control, target):
    # 8 lines with the default bound go through a slot index; 10 lines, or a
    # one-position bound, through a slot view.
    prefix = tuple(
        GateApp("u1", (k,), reals_from_complex(randgen.haar_unitary(2, rng)))
        for k in range(1, width + 1)
    )
    cu1 = GateApp("cu1", (control, target), reals_from_complex(randgen.haar_unitary(2, rng)))
    circuit = GeneralCircuit(width, prefix + (cu1,), "0" * width)
    with mock.patch.object(oracle, "_SLOT_ENTRIES", entries):
        before = run_statevector(GeneralCircuit(width, prefix, "0" * width))
        after = run_statevector(circuit)
    zero = (np.arange(2**width) >> (width - control) & 1) == 0
    assert np.array_equal(after[zero], before[zero])
    assert not np.allclose(after[~zero], before[~zero])
    assert np.abs(after - reference_run_statevector(circuit)).max() <= 1e-15


def test_sliced_products_are_bit_identical_to_one_product(rng):
    # At the width guard the default bound cuts a u2 or u1 product into 4
    # slices and a cu1 product into 2.
    n = ORACLE_MAX_WIDTH
    gates = []
    for kind in ("u2", "u1", "cu1") * 4:
        lines = tuple(int(k) + 1 for k in rng.permutation(n)[: GATE_KINDS[kind][1]])
        d = 4 if kind == "u2" else 2
        gates.append(GateApp(kind, lines, reals_from_complex(randgen.haar_unitary(d, rng))))
    circuit = GeneralCircuit(n, tuple(gates), "0" * n)
    sliced = run_statevector(circuit)
    with mock.patch.object(oracle, "_PRODUCT_AMPLITUDES", 2**n):
        whole = run_statevector(circuit)
    assert np.array_equal(sliced, whole)
