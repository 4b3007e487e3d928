"""Matchgate algebra and the rotation picture of two-qubit matchgates.

A matchgate G(A, B) is a two-qubit unitary that acts as A on the even-parity
subspace span{|00>, |11>} and as B on the odd-parity subspace span{|01>, |10>},
with det A = det B.  Conjugation by such a gate rotates the four local
quadratic operators

    c'_1 = X(x)1,  c'_2 = Y(x)1,  c'_3 = Z(x)X,  c'_4 = Z(x)Y

among themselves:  G^dag c'_j G = sum_l R[j, l] c'_l  with R in SO(4).  This
module provides both directions of that correspondence plus the Givens
factorization used to split a rotation into plane rotations.

Conventions (used consistently across the package):
  * lines, dimension indices and operator indices are 1-based,
  * a plane rotation in plane (a, b), a < b, by angle theta has entries
    [a, a] = [b, b] = cos(theta), [b, a] = +sin(theta), [a, b] = -sin(theta),
  * a gate sequence is listed in application order: [g1, g2, ...] means g1
    acts first, so the composite matrix is ... @ g2 @ g1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL_UNITARY = 1e-9
TOL_DET_MATCH = 1e-9
TOL_ORTHOGONAL = 1e-9
OMIT_ANGLE = 1e-12
REPRODUCE_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# c'_1 .. c'_4 in the fixed order above; mutually anticommuting, squaring to 1.
LOCAL_OPS = (
    np.kron(PAULI_X, np.eye(2)),
    np.kron(PAULI_Y, np.eye(2)),
    np.kron(PAULI_Z, PAULI_X),
    np.kron(PAULI_Z, PAULI_Y),
)

# The six planes of SO(4), in the order used by the text format's `rot` gate.
PLANES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Products c'_a c'_b for each plane, stacked (6, 4, 4); each squares to -1.
PLANE_PRODUCTS = np.stack([LOCAL_OPS[a - 1] @ LOCAL_OPS[b - 1] for a, b in PLANES])

# Row and column in G(A, B) of its 8 block entries a00, a01, a10, a11, b00,
# b01, b10, b11: A on |00>, |11> (indices 0, 3), B on |01>, |10> (1, 2).
MG_ROWS = (0, 0, 3, 3, 1, 1, 2, 2)
MG_COLS = (0, 3, 0, 3, 1, 2, 1, 2)

# Fermionic swap W = G(Z, X): real, symmetric, W^2 = 1.  Its rotation is the
# unsigned permutation exchanging (1, 2) with (3, 4).
FERMIONIC_SWAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ],
    dtype=complex,
)

# G(X, X) = X(x)X: flips both qubits; rotation diag(1, -1, -1, 1).
GXX = np.kron(PAULI_X, PAULI_X)


def unitary_deviation(m: np.ndarray) -> float | np.ndarray:
    """max |M^dag M - 1| of one (d, d) matrix, or of each matrix in a (k, d, d)
    stack: 0 for a unitary (or real orthogonal) matrix, NaN for a matrix
    holding NaN or whose product overflows, so a check must read
    `not dev <= tol`.  A stack of 2x2 matrices takes the closed form, several
    times faster than matmul."""
    if m.ndim == 2:
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if m.shape[1] != 2:
        return np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(m.shape[1])).max(axis=(1, 2))
    p, q, r, s = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    # The entries of M^dag M - 1: two diagonal, one off-diagonal pair.
    dev = np.maximum(
        np.abs((p.conj() * p + r.conj() * r).real - 1.0),
        np.abs((q.conj() * q + s.conj() * s).real - 1.0),
    )
    return np.maximum(dev, np.abs(p.conj() * q + r.conj() * s))


def rot2(theta: float) -> np.ndarray:
    """The 2x2 rotation block [[c, -s], [s, c]] by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def make_matchgate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Assemble G(A, B) from the even-subspace block A and odd block B.

    Raises ValueError if either block is not unitary or the determinants
    disagree beyond TOL_DET_MATCH.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("matchgate blocks must be 2x2")
    for name, m in (("a", a), ("b", b)):
        dev = unitary_deviation(m)
        if not dev <= TOL_UNITARY:
            raise ValueError(f"block {name} is not unitary (deviation {dev:.3g})")
    gap = abs(np.linalg.det(a) - np.linalg.det(b))
    if not gap <= TOL_DET_MATCH:
        raise ValueError(f"determinant mismatch between blocks ({gap:.3g})")
    g = np.zeros((4, 4), dtype=complex)
    g[MG_ROWS, MG_COLS] = np.concatenate([a.ravel(), b.ravel()])
    return g


def jordan_wigner(n: int, j: int) -> np.ndarray:
    """The j-th of the 2n Majorana operators on n qubits, as a dense matrix.

    c_{2k-1} = Z^(k-1) (x) X (x) 1...,  c_{2k} = Z^(k-1) (x) Y (x) 1...
    Line 1 is the leftmost tensor factor.
    """
    if not 1 <= j <= 2 * n:
        raise ValueError(f"operator index {j} out of range for {n} lines")
    k = (j + 1) // 2
    head = PAULI_X if j % 2 == 1 else PAULI_Y
    op = np.eye(1, dtype=complex)
    for _ in range(k - 1):
        op = np.kron(op, PAULI_Z)
    op = np.kron(op, head)
    for _ in range(n - k):
        op = np.kron(op, np.eye(2))
    return op


def rotation_of_matchgate(g: np.ndarray) -> np.ndarray:
    """The SO(4) rotation induced by conjugation with the matchgate g.

    R[j, l] = (1/4) Re tr( (g^dag c'_j g) c'_l ).
    """
    g = np.asarray(g, dtype=complex)
    if not np.isfinite(g).all():
        raise ValueError("matchgate has a non-finite entry")
    r = np.zeros((4, 4))
    for j in range(4):
        m = g.conj().T @ LOCAL_OPS[j] @ g
        for l in range(4):
            r[j, l] = np.trace(m @ LOCAL_OPS[l]).real / 4.0
    return r


def plane_rotation(d: int, a: int, b: int, theta: float) -> np.ndarray:
    """Dense d x d rotation by theta in the (a, b) plane (1-based, a < b)."""
    if not 1 <= a < b <= d:
        raise ValueError(f"bad plane ({a}, {b}) for dimension {d}")
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    r = np.eye(d)
    plane = slice(a - 1, b, b - a)  # indices a - 1 and b - 1
    r[plane, plane] = rot2(theta)
    return r


@dataclass(frozen=True)
class PlaneRotation:
    """A rotation by `theta` in the coordinate plane (a, b), a < b."""

    a: int
    b: int
    theta: float

    def matrix(self, d: int) -> np.ndarray:
        return plane_rotation(d, self.a, self.b, self.theta)


def rotation_generator_exponential(
    plane: int | np.ndarray, theta: float | np.ndarray
) -> np.ndarray:
    """exp(+(theta/2) c'_a c'_b) for the given plane index (1..6), or one such
    4x4 matrix per entry of same-shaped arrays of planes and angles.

    Closed form: cos(theta/2) 1 + sin(theta/2) c'_a c'_b, since the product
    squares to -1.  Its induced rotation moves e_a toward +e_b by theta under
    the transpose-side convention, i.e. R[a, b] = +sin(theta).  ValueError
    unless every plane is an integer in 1..6 and every angle is finite.
    """
    plane, theta = np.asarray(plane), np.asarray(theta, dtype=float)
    bad = ~((plane == np.trunc(plane)) & (plane >= 1) & (plane <= 6))
    if bad.any():
        raise ValueError(f"plane index must be an integer in 1..6, got {plane[bad].flat[0]}")
    bad = ~np.isfinite(theta)
    if bad.any():
        raise ValueError(f"rotation angle must be finite, got {theta[bad].flat[0]}")
    half = (theta / 2.0)[..., None, None]
    return np.cos(half) * np.eye(4) + np.sin(half) * PLANE_PRODUCTS[plane.astype(np.intp) - 1]


def _check_special_orthogonal(r: np.ndarray) -> None:
    """ValueError unless r, one (d, d) matrix or a (B, d, d) stack of them,
    is special orthogonal; a stack names its first bad matrix."""
    dev = np.asarray(unitary_deviation(r))
    name = "matrix" if r.ndim == 2 else "matrix {} of the stack"
    bad = np.flatnonzero(~(dev <= TOL_ORTHOGONAL))  # NaN fails
    if bad.size:
        i = bad[0]
        raise ValueError(f"{name.format(i)} is not orthogonal (deviation {dev.flat[i]:.3g})")
    bad = np.flatnonzero(np.linalg.det(r) < 0.0)
    if bad.size:
        raise ValueError(f"{name.format(bad[0])} has determinant -1, not a rotation")


def givens_factor(r: np.ndarray) -> list[PlaneRotation] | list[list[PlaneRotation]]:
    """Factor a d x d special-orthogonal matrix into rotations in adjacent
    planes (a, a+1): each column is cleared bottom-up, every entry against
    the row just above it (the triangle of Reck et al. 1994, PRL 73, 58).

    Returns at most d(d-1)/2 factors in application order, i.e.
    r = F_K @ ... @ F_1 for the returned list [F_1, ..., F_K].  Angles lie in
    [-pi, pi]; factors with |theta| <= OMIT_ANGLE are dropped.  The
    factorization is checked to reproduce r to within REPRODUCE_TOL (max
    entry), else RuntimeError.

    A (B, d, d) stack gives one such list per matrix, and every matrix is
    checked.  The stack is factored at once, one numpy step per plane of the
    elimination order, so a stack costs far less per matrix than one call
    per matrix: callers with many matrices pass them together.
    """
    r = np.asarray(r, dtype=float)
    stack = r[None] if r.ndim == 2 else r
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError("expected a square matrix or a stack of them")
    _check_special_orthogonal(r)
    count, d = stack.shape[:2]

    def rotate(rows: np.ndarray, a: int, phi: np.ndarray) -> None:
        """rows[t] <- plane_rotation(d, a, a + 1, phi[t]) @ rows[t], for every t."""
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        x, y = rows[:, a - 1], rows[:, a]
        rows[:, a - 1], rows[:, a] = c * x - s * y, s * x + c * y

    # Each step rotates every matrix in one plane (a, a+1), by 0 where the
    # step does not fire for that matrix.
    m = stack.copy()
    planes: list[int] = []
    phis: list[np.ndarray] = []
    for j in range(1, d):
        for i in range(d, j, -1):
            x = m[:, i - 1, j - 1]
            fire = np.abs(x) > OMIT_ANGLE
            if fire.any():
                phi = np.where(fire, np.arctan2(-x, m[:, i - 2, j - 1]), 0.0)
                rotate(m, i - 1, phi)
                m[fire, i - 1, j - 1] = 0.0
                planes.append(i - 1)
                phis.append(phi)
        flip = m[:, j - 1, j - 1] < 0.0
        if flip.any():
            # Column already triangular but with a negative pivot: flip the
            # (j, j+1) plane by pi.  Only reachable when no elimination fired,
            # so the factor count stays within d(d-1)/2.
            phi = np.where(flip, math.pi, 0.0)
            rotate(m, j, phi)
            planes.append(j)
            phis.append(phi)

    # m is now upper triangular and orthogonal with positive diagonal, hence 1:
    # the inverse steps, last first, are the factors.
    planes.reverse()
    thetas = -np.stack(phis[::-1], axis=1) if phis else np.zeros((count, 0))
    kept = np.abs(thetas) > OMIT_ANGLE
    thetas[~kept] = 0.0
    check = np.broadcast_to(np.eye(d), stack.shape).copy()
    for step, a in enumerate(planes):
        if kept[:, step].any():
            rotate(check, a, thetas[:, step])
    dev = np.abs(check - stack).max(axis=(1, 2))
    bad = np.flatnonzero(~(dev <= REPRODUCE_TOL))
    if bad.size:
        raise RuntimeError(f"givens factorization failed to reproduce input ({dev[bad[0]]:.3g})")

    factors: list[list[PlaneRotation]] = [[] for _ in range(count)]
    rows, steps = np.nonzero(kept)
    for row, step, theta in zip(rows.tolist(), steps.tolist(), thetas[rows, steps].tolist()):
        a = planes[step]
        factors[row].append(PlaneRotation(a, a + 1, theta))
    return factors if r.ndim == 3 else factors[0]


# The magic basis (Vatan & Williams 2004, arXiv:quant-ph/0308006): MAGIC R
# MAGIC^dag is local for every R in SO(4).  As gates on (q, p), q the more
# significant line: S on q, H S on p, then controlled-X from p onto q.
MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / math.sqrt(2.0)


def local_pair(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B), (B, 2, 2) stacks in SU(2), fixed up to one common sign, with
    MAGIC R MAGIC^dag = A (x) B for each R of a (B, 4, 4) stack.  Checked as
    `givens_factor` is: ValueError names the first matrix that is not
    special orthogonal, RuntimeError if A (x) B misses by more than
    REPRODUCE_TOL."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (4, 4):
        raise ValueError("expected a (B, 4, 4) stack")
    _check_special_orthogonal(r)
    k = MAGIC @ r @ MAGIC.conj().T
    # Rearranged with rows (a, c) and columns (b, d), A (x) B is the rank-one
    # vec(A) vec(B)^T.  Its largest column, that of B's largest entry b_j
    # (|b_j| >= 1/sqrt 2 as B is unitary), is b_j vec(A), of determinant
    # b_j^2 as det A = 1; B is then vec(A)^dag times the matrix over |A|^2 = 2.
    m = k.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    j = (m.real**2 + m.imag**2).sum(axis=1).argmax(axis=1)
    col = m[np.arange(len(m)), :, j]
    a = col / np.sqrt(col[:, 0] * col[:, 3] - col[:, 1] * col[:, 2])[:, None]
    b = np.einsum("ti,tij->tj", a.conj(), m) / 2.0
    dev = np.abs(a[:, :, None] * b[:, None, :] - m).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(~(dev <= REPRODUCE_TOL))
    if bad.size:
        raise RuntimeError(f"local pair failed to reproduce input ({dev[bad[0]]:.3g})")
    return a.reshape(-1, 2, 2), b.reshape(-1, 2, 2)


def matchgate_of_rotation(r: np.ndarray) -> np.ndarray:
    """A matchgate whose induced rotation equals the given SO(4) matrix.

    The inverse direction of rotation_of_matchgate, fixed up to global phase;
    this construction returns the product of plane-rotation exponentials
    exp(-(theta/2) c'_a c'_b), which lands in the real phase branch.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (4, 4):
        raise ValueError("expected a 4x4 rotation")
    g = np.eye(4, dtype=complex)
    for f in givens_factor(r):
        plane = PLANES.index((f.a, f.b)) + 1
        g = rotation_generator_exponential(plane, -f.theta) @ g
    return g
