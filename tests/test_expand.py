"""Compilation of general circuits into exponentially wider matchgate circuits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import randgen
from matchgates.algebra import plane_rotation
from matchgates.circuits import (
    GateApp,
    GeneralCircuit,
    GuardError,
    MatchgateCircuit,
    reals_from_complex,
)
from matchgates.compress import compress_circuit, pad_to_power_of_two
from matchgates.expand import (
    EXPAND_MAX_WIDTH,
    W_GADGET,
    YTILDE,
    RealGate,
    append_w_gadget,
    expand_circuit,
    inversion_count,
    pair_permutation,
    realify_gate,
    swap_network,
    two_level_to_matchgates,
)
from matchgates.oracle import expectation_z, run_statevector, verify_equivalent
from matchgates.simulate import circuit_rotation, simulate_expectation
from matchgates.standardize import standardize


def _encode_real(psi: np.ndarray) -> np.ndarray:
    """Real embedding: |psi~> = Re(psi) (x) |0> + Im(psi) (x) |1>."""
    out = np.zeros(2 * psi.size)
    out[0::2] = psi.real
    out[1::2] = psi.imag
    return out


# ----- Realification ----------------------------------------------------------


def test_real_gates_realify_trivially():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    rg = realify_gate(x, (1, 2))
    assert np.allclose(rg.matrix, np.kron(x, np.eye(2)))
    assert rg.lines == (1, 2)


def test_imaginary_phase_realifies_to_a_rebit_rotation():
    rg = realify_gate(1j * np.eye(2), (1, 2))
    assert np.allclose(rg.matrix, np.kron(np.eye(2), -YTILDE))


def test_realified_gates_are_special_orthogonal(rng):
    for k in (1, 2):
        u = randgen.haar_unitary(2**k, rng)
        rg = realify_gate(u, tuple(range(1, k + 2)))
        m = rg.matrix
        assert np.abs(m.T @ m - np.eye(2 ** (k + 1))).max() <= 1e-12
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)


def test_realified_gate_tracks_the_encoded_state(rng):
    for k in (1, 2):
        u = randgen.haar_unitary(2**k, rng)
        psi = rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k)
        psi /= np.linalg.norm(psi)
        rg = realify_gate(u, tuple(range(1, k + 2)))
        assert np.abs(rg.matrix @ _encode_real(psi) - _encode_real(u @ psi)).max() <= 1e-12


def test_realification_is_functorial(rng):
    for k in (1, 2):
        u1 = randgen.haar_unitary(2**k, rng)
        u2 = randgen.haar_unitary(2**k, rng)
        lines = tuple(range(1, k + 2))
        lhs = realify_gate(u2 @ u1, lines).matrix
        rhs = realify_gate(u2, lines).matrix @ realify_gate(u1, lines).matrix
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_realify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        realify_gate(np.eye(2) * 2.0, (1, 2))  # not unitary
    with pytest.raises(ValueError):
        realify_gate(np.eye(4), (1, 2))  # shape mismatch with one qubit + B


def test_real_gate_container_validates():
    with pytest.raises(ValueError):
        RealGate(np.eye(16), (1, 2, 3, 4))  # arity 4
    with pytest.raises(ValueError):
        RealGate(np.eye(2) * 2.0, (1,))  # not orthogonal
    with pytest.raises(ValueError):
        RealGate(np.eye(4), (1,))  # shape mismatch


# ----- Readout gadget ---------------------------------------------------------


def test_readout_gadget_is_real_orthogonal():
    assert np.abs(W_GADGET.imag).max() == 0.0 if np.iscomplexobj(W_GADGET) else True
    m = np.asarray(W_GADGET, dtype=float)
    assert np.abs(m.T @ m - np.eye(4)).max() <= 1e-12
    rg = realify_gate(m, (1, 2, 3))
    assert np.allclose(rg.matrix, np.kron(m, np.eye(2)))


def test_append_w_gadget_widens_and_appends():
    c = GeneralCircuit(2, (GateApp("h", (1,)), GateApp("h", (2,))), "00")
    widened = append_w_gadget(c)
    assert widened.width == 3
    assert widened.gates[:-1] == c.gates
    last = widened.gates[-1]
    assert last.kind == "u2"
    assert last.lines == (1, 3)
    assert last.params == reals_from_complex(W_GADGET)


def test_append_w_gadget_requires_zero_input():
    c = GeneralCircuit(2, (GateApp("h", (1,)), GateApp("h", (2,))), "01")
    with pytest.raises(ValueError):
        append_w_gadget(c)


# ----- Plane rotations as local matchgates ------------------------------------


def _ladder_rotation(gates, n: int) -> np.ndarray:
    c = MatchgateCircuit(n, tuple(gates), "0" * n, 1, allow_idle=True)
    return circuit_rotation(c)


def test_adjacent_dimensions_need_one_gate():
    gates = two_level_to_matchgates(1, 2, np.pi / 2, 4)
    assert len(gates) == 1
    assert gates[0].kind == "rot" and gates[0].lines == (1,)


def test_same_window_dimensions_need_one_gate():
    theta = 0.6
    gates = two_level_to_matchgates(1, 4, theta, 2)
    assert len(gates) == 1
    assert np.abs(_ladder_rotation(gates, 2) - plane_rotation(4, 1, 4, theta)).max() <= 1e-12


def test_every_dimension_pair_reproduces_its_plane_rotation(rng):
    n = 4
    for a in range(1, 2 * n):
        for b in range(a + 1, 2 * n + 1):
            theta = float(rng.uniform(-np.pi, np.pi))
            if not any(2 * k - 1 <= a and b <= 2 * k + 2 for k in range(1, n)):
                with pytest.raises(ValueError, match="no one line window"):
                    two_level_to_matchgates(a, b, theta, n)
                continue
            gates = two_level_to_matchgates(a, b, theta, n)
            assert [g.kind for g in gates] == ["rot"]
            got = _ladder_rotation(gates, n)
            assert np.abs(got - plane_rotation(2 * n, a, b, theta)).max() <= 1e-12


def test_two_level_validates_dimensions():
    with pytest.raises(ValueError):
        two_level_to_matchgates(2, 2, 0.5, 4)
    with pytest.raises(ValueError):
        two_level_to_matchgates(1, 9, 0.5, 4)
    for theta in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            two_level_to_matchgates(1, 2, theta, 4)


# ----- Fermionic swap networks ------------------------------------------------


def _pair_permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """The unsigned SO(2n) permutation moving pair x (dims 2x+1, 2x+2) to perm[x]."""
    n = len(perm)
    out = np.zeros((2 * n, 2 * n))
    for x, y in enumerate(perm.tolist()):
        out[2 * y, 2 * x] = out[2 * y + 1, 2 * x + 1] = 1.0
    return out


def test_swap_network_reproduces_a_random_pair_permutation(rng):
    for n in (2, 3, 8, 13):
        for _ in range(5):
            perm = rng.permutation(n)
            lines = swap_network(perm)
            brute = sum(int(perm[x] > perm[y]) for x in range(n) for y in range(x + 1, n))
            assert len(lines) == inversion_count(perm) == brute
            got = _ladder_rotation([GateApp("w", (k,)) for k in lines], n)
            assert np.array_equal(got, _pair_permutation_matrix(perm))


def test_pair_permutation_moves_the_pair_index_bits(rng):
    for width in (2, 3, 5):
        before = tuple(rng.permutation(width) + 1)
        after = tuple(rng.permutation(width) + 1)
        perm = pair_permutation(before, after)
        for x in range(2**width):
            bits = {q: x >> (width - 1 - i) & 1 for i, q in enumerate(before)}
            want = sum(bits[q] << (width - 1 - i) for i, q in enumerate(after))
            assert perm[x] == want
        assert perm[0] == 0  # pair 1 stays put


# ----- Full expansion ----------------------------------------------------------


def test_single_hadamard_expands_to_width_four():
    c = GeneralCircuit(1, (GateApp("h", (1,)),), "0")
    out = expand_circuit(c)
    assert out.width == 4
    assert out.input == "0000"
    assert out.measure_line == 1
    assert simulate_expectation(out) == pytest.approx(0.0, abs=1e-10)


def test_expanded_width_is_exponential(rng):
    for m in (1, 2, 3):
        c = randgen.random_general_circuit(m, 4, rng)
        out = expand_circuit(c)
        assert out.width == 2 ** (m + 1)


def test_expansion_reproduces_the_readout(rng):
    for m in (1, 2, 3, 4, 5):
        for _ in range(3):
            bits = "".join(str(b) for b in rng.integers(0, 2, m))
            bits = bits if "1" in bits else "1" + bits[1:]  # a non-zero input
            c = randgen.random_general_circuit(m, 6, rng, input_bits=bits)
            want = expectation_z(run_statevector(c), 1)
            out = expand_circuit(c, width_guard=5)
            assert out.width == 2 ** (m + 1)
            got = simulate_expectation(out)
            assert abs(want - got) <= 1e-12
            report = verify_equivalent(c, out, tol=1e-8, engine_b="mgsim")
            assert report.passed, report.line()


@pytest.mark.parametrize("m, bits", [(1, "1"), (2, "10"), (3, "011")])
def test_expand_then_compress_keeps_the_readout(m, bits):
    # The paper's equivalence end to end: a general circuit on m qubits,
    # expanded to a matchgate circuit on 2^(m+1) lines and compressed back to
    # m + 4 qubits, keeps its <Z_1>.
    for seed in range(3):
        c = randgen.random_general_circuit(m, 3, np.random.default_rng(seed), bits)
        want = expectation_z(run_statevector(c), 1)
        wide = expand_circuit(c)
        assert abs(simulate_expectation(wide) - want) <= 1e-9
        narrow = compress_circuit(pad_to_power_of_two(standardize(wide)))
        assert narrow.width == m + 4
        assert abs(expectation_z(run_statevector(narrow), 1) - want) <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 8),
    kinds=st.sampled_from(["mixed", "haar"]),
    data=st.data(),
)
def test_expanded_readout_matches_the_oracle(m, seed, size, kinds, data):
    bits = data.draw(st.text("01", min_size=m, max_size=m))
    rng = np.random.default_rng(seed)
    c = randgen.random_general_circuit(m, size, rng, bits, kinds)
    want = expectation_z(run_statevector(c), 1)
    assert abs(simulate_expectation(expand_circuit(c)) - want) <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8))
def test_expansion_emits_no_swap_but_its_networks(m, seed, size):
    # Walk the layout here: before each realified gate, last gate first, the
    # gate's rebits other than A move to the lowest pair-index bits.  Every
    # `w` gate must be one adjacent swap of the insertion sort of one such
    # pair permutation.
    c = randgen.random_general_circuit(m, size, np.random.default_rng(seed), "0" * m, "haar")
    out = expand_circuit(c)
    layout, swaps = tuple(range(1, m + 2)), 0
    for g in reversed(append_w_gadget(c).gates):
        rebits = {q for q in g.lines if q <= m} | {m + 1}
        after = tuple(q for q in layout if q not in rebits) + tuple(q for q in layout if q in rebits)
        swaps += inversion_count(pair_permutation(layout, after))
        layout = after
    assert sum(g.kind == "w" for g in out.gates) == swaps


def _insertion_sort_swaps(perm) -> list[int]:
    """The line k (1-based, swapping pairs k and k+1) of each adjacent swap
    an insertion sort of perm makes."""
    order, lines = list(perm), []
    for i in range(1, len(order)):
        j = i
        while j and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            lines.append(j)
            j -= 1
    return lines


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    perm=st.one_of(
        st.integers(1, 512).flatmap(lambda n: st.permutations(range(n))),
        st.integers(1, 9).flatmap(
            lambda w: st.tuples(st.permutations(range(w)), st.permutations(range(w)))
        ).map(lambda pair: pair_permutation(*pair).tolist()),
    )
)
def test_swap_network_is_the_insertion_sort(perm):
    perm = np.array(perm)
    want = _insertion_sort_swaps(perm.tolist())
    assert swap_network(perm) == want
    assert inversion_count(perm) == len(want)


def test_guard_refuses_before_allocating_the_expansion():
    # 150 Haar gates at 8 qubits would emit about 2.6M gates; the refusal,
    # counted exactly, must come before anything near that size (or the
    # gates x pairs^2 comparisons, about 39 MiB) is allocated.
    c = randgen.random_general_circuit(8, 150, np.random.default_rng(1), kinds="haar")
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="would emit"):
            expand_circuit(c, width_guard=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


def _balanced_circuit(m: int, rng) -> GeneralCircuit:
    """20 gates (6 u2, 6 cu1, 4 u1, 2 h, 2 x) touching every line equally often."""
    mix = (("u2", 6), ("cu1", 6), ("u1", 4), ("h", 2), ("x", 2))
    kinds = [kind for kind, count in mix for _ in range(count)]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    arity = [2 if kind in ("u2", "cu1") else 1 for kind in kinds]
    while True:
        slots = iter(rng.permutation(np.resize(np.arange(1, m + 1), sum(arity))).tolist())
        lines = [tuple(next(slots) for _ in range(a)) for a in arity]
        if all(len(set(where)) == len(where) for where in lines):
            break
    gates = []
    for kind, where in zip(kinds, lines):
        if kind in ("h", "x"):
            gates.append(GateApp(kind, where))
        else:
            u = randgen.haar_unitary(4 if kind == "u2" else 2, rng)
            gates.append(GateApp(kind, where, reals_from_complex(u)))
    return GeneralCircuit(m, tuple(gates), "0" * m)


def test_expansion_size_per_input_gate_at_four_qubits():
    c = _balanced_circuit(4, np.random.default_rng(410))
    out = expand_circuit(c)
    assert len(out.gates) <= 500 * len(c.gates), len(out.gates) / len(c.gates)


def test_expansion_guard_and_override(rng):
    c = randgen.random_general_circuit(5, 2, rng)
    with pytest.raises(GuardError):
        expand_circuit(c)
    assert EXPAND_MAX_WIDTH == 4
    out = expand_circuit(GeneralCircuit(5, (GateApp("h", (1,)),), "00000"), width_guard=5)
    assert out.width == 64
    assert simulate_expectation(out) == pytest.approx(0.0, abs=1e-8)


def test_gate_count_guard_is_the_exact_emitted_count(rng, monkeypatch):
    from matchgates import expand

    for m in (1, 2, 3):
        c = randgen.random_general_circuit(m, 5, rng)
        emitted = len(expand_circuit(c).gates)
        monkeypatch.setattr(expand, "EXPAND_MAX_GATES", emitted)
        assert len(expand_circuit(c).gates) == emitted
        monkeypatch.setattr(expand, "EXPAND_MAX_GATES", emitted - 1)
        with pytest.raises(GuardError, match=f"would emit {emitted} gates"):
            expand_circuit(c)
        monkeypatch.undo()
