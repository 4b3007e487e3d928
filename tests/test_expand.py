"""Compilation of general circuits into exponentially wider matchgate circuits."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import randgen
from matchgates.algebra import plane_rotation
from matchgates.circuits import (
    KIND_CODES,
    GateApp,
    GeneralCircuit,
    GuardError,
    MatchgateCircuit,
    gate_matrix,
    light_cone,
    reals_from_complex,
)
from matchgates.compress import compress_circuit, pad_to_power_of_two
from matchgates.expand import (
    EXPAND_MAX_WIDTH,
    W_GADGET,
    YTILDE,
    RealGate,
    _bit_permutations,
    _blocks,
    _fused,
    _left_moves,
    _networks,
    expand_circuit,
    realify_gate,
    two_level_to_matchgates,
)
from matchgates.oracle import expectation_z, run_statevector, verify_equivalent
from matchgates.simulate import circuit_rotation, simulate_expectation
from matchgates.standardize import standardize

from conftest import dense_unitary


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


def pair_permutation(before: tuple[int, ...], after: tuple[int, ...]) -> np.ndarray:
    """Where each line pair goes when the rebit lines, listed from the most
    significant pair-index bit down, are reordered from `before` to `after`:
    entry x is the new 0-based index of the pair now at index x.  The
    one-gate case of the permutations expand builds."""
    return _bit_permutations(np.array([[after.index(q) for q in before]], dtype=np.int64))[0]


def inversion_count(perm: np.ndarray) -> int:
    """The pairs x < y with perm[x] > perm[y]: how many adjacent swaps sort
    perm, as expand counts them for its guard."""
    return int(_left_moves(np.asarray(perm)[None]).sum())


def swap_network(perm: np.ndarray) -> list[int]:
    """The lines k of the `w` gates that move the pair at index x to perm[x],
    as expand emits them: `w` on line k exchanges pairs k and k+1 (1-based)
    without signs, once per inversion, in insertion-sort order."""
    return _networks(_left_moves(np.asarray(perm)[None])).tolist()


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


# ----- Fusion ------------------------------------------------------------------


def _haar_gate(lines: tuple[int, ...], rng) -> GateApp:
    kind = "u1" if len(lines) == 1 else "u2"
    return GateApp(kind, lines, reals_from_complex(randgen.haar_unitary(2 ** len(lines), rng)))


def test_an_x_prefix_folds_into_the_first_gate_on_its_line(rng):
    # Input 1 on line 1 is an x gate before the circuit; it fuses with the
    # u1 gate after it, so the expansion is the one of u1 . X on input 0.
    u = randgen.haar_unitary(2, rng)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    flipped = GeneralCircuit(2, (GateApp("u1", (1,), reals_from_complex(u)), GateApp("h", (2,))), "10")
    folded = GeneralCircuit(2, (GateApp("u1", (1,), reals_from_complex(u @ x)), GateApp("h", (2,))), "00")
    got, want = expand_circuit(flipped).gates.table, expand_circuit(folded).gates.table
    assert np.array_equal(got.kinds, want.kinds) and np.array_equal(got.lines, want.lines)
    assert np.abs(got.params - want.params).max() <= 1e-12
    assert _blocks([(1,), (1,), (2,)]) == [((1,), [0, 1]), ((2,), [2])]


def test_a_run_of_one_line_gates_is_one_block(rng):
    us = [randgen.haar_unitary(2, rng) for _ in range(5)]
    lines, mats = _fused([(2,)] * 5, us)
    assert lines == [(2,)]
    want = us[4] @ us[3] @ us[2] @ us[1] @ us[0]
    assert np.abs(mats[0] - want).max() <= 1e-12


def test_a_gate_on_a_third_line_stops_fusion():
    # (2, 3) is not within (1, 2), so the second (1, 2) gate cannot join the
    # first: three blocks, each in place.
    assert _blocks([(1, 2), (2, 3), (1, 2)]) == [((1, 2), [0]), ((2, 3), [1]), ((1, 2), [2])]
    # One-line blocks that are last on their lines join the two-line gate.
    assert _blocks([(1,), (3,), (2,), (3, 1), (1,)]) == [((2,), [2]), ((3, 1), [1, 0, 3, 4])]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(width=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), size=st.integers(0, 24))
def test_fused_blocks_span_at_most_two_lines_and_keep_the_product(width, seed, size):
    rng = np.random.default_rng(seed)
    gates = [
        _haar_gate(tuple(int(q) + 1 for q in rng.choice(width, int(rng.integers(1, 3)), replace=False)), rng)
        for _ in range(size)
    ]
    gate_lines = [g.lines for g in gates]
    blocks = _blocks(gate_lines)
    assert sorted(i for _, members in blocks for i in members) == list(range(size))
    for lines, members in blocks:
        assert 1 <= len(lines) <= 2
        assert all(set(gate_lines[i]) <= set(lines) for i in members)
    lines, mats = _fused(gate_lines, [gate_matrix(g) for g in gates])
    fused = [GateApp("u1" if len(l) == 1 else "u2", l, reals_from_complex(u)) for l, u in zip(lines, mats)]
    assert np.abs(dense_unitary(fused, width) - dense_unitary(gates, width)).max() <= 1e-12


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


def _ladder(m: int, rng) -> tuple[GateApp, ...]:
    """Haar u2 gates on lines (m, m - 1) down to (2, 1).  Closing a circuit,
    they put every gate in line 1's backward light cone: scanned last first,
    each meets a line the later ones reach, so after them the support holds
    every line and expand drops no gate."""
    return tuple(
        GateApp("u2", (q + 1, q), reals_from_complex(randgen.haar_unitary(4, rng)))
        for q in range(m - 1, 0, -1)
    )


def _unpruned(c: GeneralCircuit, width_guard: int = EXPAND_MAX_WIDTH) -> MatchgateCircuit:
    """The expansion of `c` with every gate kept: its cone scan made to keep
    all walk gates whole, so nothing is pruned."""
    from matchgates import expand

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expand, "_emitted_cone", lambda moves, *_: (len(moves), []))
        return expand_circuit(c, width_guard=width_guard)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    kinds=st.sampled_from(["mixed", "haar"]),
    data=st.data(),
)
def test_expansion_is_the_unpruned_one_in_its_light_cone(m, seed, size, kinds, data):
    # Pruning before emission keeps exactly the rows light_cone keeps of the
    # unpruned emission, in order, and the readout bit for bit.
    bits = data.draw(st.text("01", min_size=m, max_size=m))
    c = randgen.random_general_circuit(m, size, np.random.default_rng(seed), bits, kinds)
    out, full = expand_circuit(c, width_guard=5), _unpruned(c, 5)
    assert out.width == full.width == 2 ** (m + 1) and out.allow_idle
    want = full.gates.table.take(np.flatnonzero(light_cone(full.gates, full.width, 1)))
    got = out.gates.table
    for column in range(3):  # kinds, lines, params
        assert np.array_equal(got[column], want[column])
    assert simulate_expectation(out) == simulate_expectation(full)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8))
def test_expansion_emits_no_swap_but_its_networks(m, seed, size):
    # Walk the layout here: the gates fuse into blocks and the gadget follows.
    # The walk goes last block first, from the qubits in order of first use
    # (the first used lowest, just above B).  Before each block its rebits
    # other than A move to the lowest pair-index bits.  The unpruned
    # emission's `w` gates must be the adjacent swaps of the insertion sorts
    # of these pair permutations, in order, and the emitted ones exactly
    # those of them that lie in line 1's light cone.
    # The ladder puts every gate in line 1's light cone, so none is dropped.
    rng = np.random.default_rng(seed)
    c = randgen.random_general_circuit(m, size, rng, "0" * m, "haar")
    c = GeneralCircuit(m, (*c.gates, *_ladder(m, rng)), "0" * m)
    walk = [lines for lines, _ in _blocks([g.lines for g in c.gates])] + [(1, m + 1)]
    used: list[int] = []
    for lines in reversed(walk):
        used += [q for q in lines if q <= m and q not in used]
    layout = tuple([q for q in range(1, m + 1) if q not in used] + used[::-1] + [m + 1])
    swaps = []
    for lines in reversed(walk):
        rebits = {q for q in lines if q <= m} | {m + 1}
        after = tuple(q for q in layout if q not in rebits) + tuple(q for q in layout if q in rebits)
        swaps += _insertion_sort_swaps(pair_permutation(layout, after).tolist())
        layout = after
    full = _unpruned(c)
    table = full.gates.table
    is_w = table.kinds == KIND_CODES["w"]
    assert table.lines[table.line_at[is_w]].tolist() == swaps
    in_cone = light_cone(full.gates, full.width, 1)[is_w]
    out = expand_circuit(c)
    kept = [k for k, keep in zip(swaps, in_cone) if keep]
    assert [g.lines[0] for g in out.gates if g.kind == "w"] == kept


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_start_layout_reads_the_oracle(m, monkeypatch):
    # The route may start from any layout: a pair permutation on the input
    # side keeps pair 1 and the all-zero input's pairing matrix.  So every
    # order of the m + 1 rebits, B included, must give the same <Z_1>.
    from matchgates import expand

    walk = expand._walk
    rng = np.random.default_rng(m)
    for bits in ("0" * m, "1" + "0" * (m - 1)):
        c = randgen.random_general_circuit(m, 6, rng, bits, "haar")
        want = expectation_z(run_statevector(c), 1)
        for start in itertools.permutations(range(1, m + 2)):
            monkeypatch.setattr(expand, "_walk", lambda lines, width, _: walk(lines, width, start))
            assert abs(simulate_expectation(expand_circuit(c)) - want) <= 1e-12, start


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
    # 200 Haar gates at 8 qubits would emit about 2.61M gates; the refusal,
    # counted exactly, must come before anything near that size (or the
    # gates x pairs^2 comparisons, about 39 MiB) is allocated.
    c = randgen.random_general_circuit(8, 200, np.random.default_rng(1), kinds="haar")
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


def test_the_guard_counts_the_pruned_gates(monkeypatch):
    # `gen-random qc 6 10 --seed 1` emits 1120 gates unpruned and 29 pruned:
    # a guard between the two accepts it.
    from matchgates import expand

    c = randgen.random_general_circuit(6, 10, np.random.default_rng(1), kinds="haar")
    assert len(_unpruned(c, 6).gates) == 1120
    monkeypatch.setattr(expand, "EXPAND_MAX_GATES", 500)
    out = expand_circuit(c, width_guard=6)
    assert len(out.gates) == 29 and out.width == 128
