"""Matchgate blocks, Majorana operators, rotations, and Givens factorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgates import randgen
from matchgates.algebra import (
    FERMIONIC_SWAP,
    GXX,
    LOCAL_OPS,
    MG_COLS,
    MG_ROWS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    OMIT_ANGLE,
    PLANES,
    REPRODUCE_TOL,
    PlaneRotation,
    TOL_DET_MATCH,
    TOL_UNITARY,
    givens_factor,
    jordan_wigner,
    make_matchgate,
    matchgate_of_rotation,
    plane_rotation,
    rot2,
    rotation_generator_exponential,
    rotation_of_matchgate,
    unitary_deviation,
)
from matchgates.circuits import GateApp, gate_matrix
from matchgates.expand import RealGate, realify_gate, two_level_to_matchgates
from matchgates.oracle import expectation_z
from matchgates.simulate import distribution_from_expectation, s_matrix


def split_matchgate(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) blocks of a 4x4 matrix laid out as a matchgate (the
    inverse of `make_matchgate`); ValueError for any other shape."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"a matchgate is 4x4, got shape {g.shape}")
    z = g[MG_ROWS, MG_COLS]
    return z[:4].reshape(2, 2), z[4:].reshape(2, 2)


def is_matchgate(g: np.ndarray) -> bool:
    """True if g is unitary, supported on the two parity blocks, det A = det B."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (4, 4):
        return False
    if not unitary_deviation(g) <= TOL_UNITARY:
        return False
    mask = np.ones((4, 4), dtype=bool)
    mask[MG_ROWS, MG_COLS] = False
    if not np.abs(g[mask]).max() <= TOL_DET_MATCH:
        return False
    a, b = split_matchgate(g)
    return bool(abs(np.linalg.det(a) - np.linalg.det(b)) <= TOL_DET_MATCH)


def test_make_matchgate_places_blocks_on_parity_subspaces():
    g = make_matchgate(PAULI_Z, PAULI_X)
    assert np.allclose(g, FERMIONIC_SWAP)
    a, b = split_matchgate(g)
    assert np.allclose(a, PAULI_Z)
    assert np.allclose(b, PAULI_X)


def test_make_matchgate_rejects_determinant_mismatch():
    with pytest.raises(ValueError):
        make_matchgate(np.eye(2), PAULI_X)  # det +1 vs det -1


def test_make_matchgate_accepts_matched_determinants():
    g = make_matchgate(PAULI_Z, PAULI_X)  # both det -1
    assert is_matchgate(g)


def test_double_flip_gate_is_a_matchgate():
    assert is_matchgate(GXX)
    assert np.allclose(GXX, np.kron(PAULI_X, PAULI_X))


def test_fermionic_swap_is_an_involution():
    w = FERMIONIC_SWAP
    assert np.allclose(w @ w, np.eye(4))
    assert np.allclose(w, make_matchgate(PAULI_Z, PAULI_X))


def test_fermionic_swap_action_on_basis_states():
    w = FERMIONIC_SWAP
    assert np.allclose(w @ np.eye(4)[3], -np.eye(4)[3])  # |11> -> -|11>
    assert np.allclose(w @ np.eye(4)[1], np.eye(4)[2])  # |01> -> |10>


def test_majorana_operators_anticommute(rng):
    n = 3
    cs = [jordan_wigner(n, j) for j in range(1, 2 * n + 1)]
    for j, cj in enumerate(cs):
        for l, cl in enumerate(cs):
            anti = cj @ cl + cl @ cj
            expected = 2.0 * np.eye(2**n) if j == l else np.zeros((2**n, 2**n))
            assert np.abs(anti - expected).max() <= 1e-12


def test_majorana_operators_are_hermitian_and_square_to_identity():
    for j in range(1, 7):
        c = jordan_wigner(3, j)
        assert np.abs(c - c.conj().T).max() <= 1e-12
        assert np.abs(c @ c - np.eye(8)).max() <= 1e-12


def test_rotation_of_swap_gate_is_the_pair_exchange_permutation():
    r = rotation_of_matchgate(FERMIONIC_SWAP)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.abs(r - expected).max() <= 1e-12


def test_rotation_of_double_flip_gate_is_diagonal_signs():
    r = rotation_of_matchgate(GXX)
    assert np.abs(r - np.diag([1.0, -1.0, -1.0, 1.0])).max() <= 1e-12


def test_rotation_is_special_orthogonal(rng):
    from matchgates.circuits import complex_from_reals

    for _ in range(20):
        p = randgen.random_matchgate_params(rng)
        g = make_matchgate(complex_from_reals(p[:8]), complex_from_reals(p[8:]))
        r = rotation_of_matchgate(g)
        assert np.abs(r.T @ r - np.eye(4)).max() <= 1e-10
        assert abs(np.linalg.det(r) - 1.0) <= 1e-10


def test_rotation_map_is_a_homomorphism(rng):
    from matchgates.circuits import complex_from_reals

    for _ in range(10):
        p1 = randgen.random_matchgate_params(rng)
        p2 = randgen.random_matchgate_params(rng)
        g1 = make_matchgate(complex_from_reals(p1[:8]), complex_from_reals(p1[8:]))
        g2 = make_matchgate(complex_from_reals(p2[:8]), complex_from_reals(p2[8:]))
        lhs = rotation_of_matchgate(g2 @ g1)
        rhs = rotation_of_matchgate(g2) @ rotation_of_matchgate(g1)
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_rotation_round_trip_up_to_global_phase(rng):
    from matchgates.circuits import complex_from_reals

    for _ in range(10):
        p = randgen.random_matchgate_params(rng)
        g = make_matchgate(complex_from_reals(p[:8]), complex_from_reals(p[8:]))
        v = matchgate_of_rotation(rotation_of_matchgate(g))
        assert abs(abs(np.trace(g.conj().T @ v)) - 4.0) <= 1e-7


def test_rotation_surjectivity_round_trip(rng):
    for _ in range(25):
        r = randgen.random_so(4, rng)
        back = rotation_of_matchgate(matchgate_of_rotation(r))
        assert np.abs(back - r).max() <= 1e-8


def test_matchgate_of_rotation_output_is_a_matchgate(rng):
    for _ in range(10):
        r = randgen.random_so(4, rng)
        assert is_matchgate(matchgate_of_rotation(r))


def test_local_op_basis_and_plane_table():
    assert np.allclose(LOCAL_OPS[0], np.kron(PAULI_X, np.eye(2)))
    assert np.allclose(LOCAL_OPS[1], np.kron(PAULI_Y, np.eye(2)))
    assert np.allclose(LOCAL_OPS[2], np.kron(PAULI_Z, PAULI_X))
    assert np.allclose(LOCAL_OPS[3], np.kron(PAULI_Z, PAULI_Y))
    assert PLANES == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _block_diagonal_so(d: int, rng) -> np.ndarray:
    """A -1 block on dimensions 1, 2, then -1 blocks and random rotations:
    columns whose only non-zero entry is a negative pivot."""
    r, at = np.eye(d), 2
    r[:2, :2] = -np.eye(2)
    while at < d - 1:  # a last single dimension stays 1
        size = min(int(rng.integers(2, 4)), d - at)
        block = -np.eye(2) if size == 2 and rng.integers(2) else randgen.random_so(size, rng)
        r[at : at + size, at : at + size] = block
        at += size
    return r


def _signed_permutation(d: int, rng) -> np.ndarray:
    r = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
    if np.linalg.det(r) < 0:
        r[:, 0] *= -1.0
    return r


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    d=st.integers(2, 8),
    kind=st.sampled_from(["random", "identity", "signed permutation", "block diagonal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_givens_factor_gives_adjacent_planes_that_reproduce_the_input(d, kind, seed):
    rng = np.random.default_rng(seed)
    r = {
        "random": lambda: randgen.random_so(d, rng),
        "identity": lambda: np.eye(d),
        "signed permutation": lambda: _signed_permutation(d, rng),
        "block diagonal": lambda: _block_diagonal_so(d, rng),
    }[kind]()
    factors = givens_factor(r)
    assert all(f.b == f.a + 1 for f in factors)
    assert len(factors) <= d * (d - 1) // 2
    assert all(-math.pi <= f.theta <= math.pi for f in factors)
    if kind == "block diagonal":  # the negative pivot of dimension 1 is flipped by pi
        assert any(f.a == 1 and abs(f.theta) == math.pi for f in factors)
    check = np.eye(d)
    for f in factors:
        check = f.matrix(d) @ check
    assert np.abs(check - r).max() <= REPRODUCE_TOL


_SO_KINDS = ["random", "identity", "signed permutation", "block diagonal"]


def reference_givens_factor(r: np.ndarray) -> list[tuple[int, int, float]]:
    """The one-matrix Python-float loop that `givens_factor` replaced, kept as
    its oracle: the same elimination order, pi flip and omitted angles."""
    d = len(r)
    m = r.tolist()
    applied = []

    def rotate(a, phi):
        c, s = math.cos(phi), math.sin(phi)
        ra, rb = m[a - 1], m[a]
        for k in range(d):
            ra[k], rb[k] = c * ra[k] - s * rb[k], s * ra[k] + c * rb[k]

    for j in range(1, d):
        for i in range(d, j, -1):
            if abs(m[i - 1][j - 1]) > OMIT_ANGLE:
                phi = math.atan2(-m[i - 1][j - 1], m[i - 2][j - 1])
                rotate(i - 1, phi)
                applied.append((i - 1, phi))
                m[i - 1][j - 1] = 0.0
        if m[j - 1][j - 1] < 0.0:
            rotate(j, math.pi)
            applied.append((j, math.pi))
    return [(a, a + 1, -phi) for a, phi in reversed(applied) if abs(phi) > OMIT_ANGLE]


def _so_of_kind(kind: str, d: int, rng) -> np.ndarray:
    return {
        "random": lambda: randgen.random_so(d, rng),
        "identity": lambda: np.eye(d),
        "signed permutation": lambda: _signed_permutation(d, rng),
        "block diagonal": lambda: _block_diagonal_so(d, rng),
    }[kind]()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    d=st.integers(2, 8),
    kinds=st.lists(st.sampled_from(_SO_KINDS), max_size=70),
    seed=st.integers(0, 2**32 - 1),
)
def test_givens_factor_of_a_stack_factors_each_matrix_alone(d, kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_so_of_kind(kind, d, rng) for kind in kinds]).reshape(-1, d, d)
    got = givens_factor(stack)
    assert len(got) == len(kinds)
    for r, factors in zip(stack, got):
        for alone in (givens_factor(r), [PlaneRotation(*f) for f in reference_givens_factor(r)]):
            assert [(f.a, f.b) for f in factors] == [(f.a, f.b) for f in alone]
            assert all(abs(f.theta - g.theta) <= 1e-12 for f, g in zip(factors, alone))


def test_givens_factor_reproduces_random_rotations(rng):
    for d in (2, 3, 4, 6, 8):
        r = randgen.random_so(d, rng)
        factors = givens_factor(r)
        assert len(factors) <= d * (d - 1) // 2
        check = np.eye(d)
        for f in factors:
            check = f.matrix(d) @ check
        assert np.abs(check - r).max() <= 1e-10


def test_givens_factor_angles_are_bounded():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = randgen.random_so(5, rng)
        for f in givens_factor(r):
            assert np.isfinite(f.theta)
            assert abs(f.theta) <= np.pi + 1e-12


def test_givens_factor_handles_sign_pairs():
    # Diagonal sign patterns with det +1 need the pi-rotation fallback.
    r = np.diag([-1.0, -1.0, 1.0, 1.0])
    factors = givens_factor(r)
    check = np.eye(4)
    for f in factors:
        check = f.matrix(4) @ check
    assert np.abs(check - r).max() <= 1e-10


def test_givens_factor_rejects_reflections():
    with pytest.raises(ValueError):
        givens_factor(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_plane_rotation_convention():
    r = plane_rotation(4, 1, 3, 0.3)
    assert r[2, 0] == pytest.approx(np.sin(0.3))
    assert r[0, 2] == pytest.approx(-np.sin(0.3))
    assert PlaneRotation(1, 3, 0.3).matrix(4) == pytest.approx(r)
    # The (a, b) block is the shared 2x2 helper, [[c, -s], [s, c]].
    assert (r[np.ix_([0, 2], [0, 2])] == rot2(0.3)).all()
    assert rot2(0.3) == pytest.approx(np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]))


NAN2 = np.full((2, 2), np.nan)
NAN4 = np.full((4, 4), np.nan)


@pytest.mark.parametrize(
    "call",
    [
        lambda: givens_factor(NAN4),
        lambda: matchgate_of_rotation(NAN4),
        lambda: make_matchgate(NAN2, NAN2),
        lambda: RealGate(NAN4, (1, 2)),
        lambda: realify_gate(NAN2, (1, 2)),
        lambda: two_level_to_matchgates(1, 4, math.nan, 2),
        lambda: plane_rotation(4, 1, 2, math.nan),
        lambda: plane_rotation(4, 1, 2, math.inf),
        lambda: rotation_of_matchgate(NAN4),
        lambda: rotation_generator_exponential(1, math.nan),
        lambda: rotation_generator_exponential(1.5, 0.3),
        lambda: gate_matrix(GateApp("rot", (1,), (1.5, 0.3))),
        lambda: gate_matrix(GateApp("rot", (1,), (1.0, math.nan))),
        lambda: expectation_z(np.full(4, np.nan), 1),
        lambda: expectation_z(np.ones(6) / np.sqrt(6), 1),
        lambda: expectation_z(np.zeros(0), 1),
        lambda: s_matrix(np.array([np.nan, 0.0])),
        lambda: s_matrix(np.array([0.5, 0.0])),
        lambda: split_matchgate(np.eye(2)),
        lambda: split_matchgate(np.eye(4)[:3]),
        lambda: distribution_from_expectation(math.nan),
        lambda: distribution_from_expectation(math.inf),
    ],
    ids=[
        "givens_factor",
        "matchgate_of_rotation",
        "make_matchgate",
        "RealGate",
        "realify_gate",
        "two_level_to_matchgates",
        "plane_rotation",
        "plane_rotation_inf",
        "rotation_of_matchgate",
        "rotation_generator_exponential",
        "rotation_generator_exponential_plane",
        "gate_matrix_rot_plane",
        "gate_matrix_rot_nan",
        "expectation_z",
        "expectation_z_size_6",
        "expectation_z_empty",
        "s_matrix",
        "s_matrix_half",
        "split_matchgate_2x2",
        "split_matchgate_3x4",
        "distribution_from_expectation_nan",
        "distribution_from_expectation_inf",
    ],
)
def test_tolerance_checks_reject_nan(call):
    with pytest.raises(ValueError):
        call()


def test_givens_factor_of_a_stack_checks_every_matrix():
    rng = np.random.default_rng(8)
    assert givens_factor(np.zeros((0, 4, 4))) == []
    r = randgen.random_so(4, rng)
    assert all(isinstance(f, PlaneRotation) for f in givens_factor(r))  # 2-D: one list
    stack = np.stack([randgen.random_so(4, rng) for _ in range(5)])
    for bad in (NAN4, np.diag([1.0, 1.0, 1.0, -1.0])):
        planted = stack.copy()
        planted[3] = bad
        with pytest.raises(ValueError, match="^matrix 3 of the stack "):
            givens_factor(planted)
    with pytest.raises(ValueError, match="square"):
        givens_factor(np.zeros((2, 4, 3)))


def test_nan_gate_is_not_a_matchgate():
    assert not is_matchgate(NAN4)
