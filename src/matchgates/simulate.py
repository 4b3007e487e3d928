"""Polynomial-time simulation of matchgate circuits.

A width-n matchgate circuit with gates U_N ... U_1 induces the SO(2n)
rotation R = R_N ... R_1, each R_t acting on the four Majorana dimensions
(2k-1 .. 2k+2) of its line pair.  For basis input x the readout is

    <Z_k(x)> = (R S(x) R^T)[2k, 2k-1]        (1-based dimensions)

where S(x) is the antisymmetric pairing matrix of the input.  The fast path
never forms R: it pulls the two basis vectors e_{2k-1}, e_{2k} backwards
through the gate list in O(N + n) time and applies S(x) sparsely.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import algebra
from .circuits import (
    KIND_CODES,
    GateApp,
    GateColumns,
    GuardError,
    MatchgateCircuit,
    _gate_chunks,
    _require_flavor,
    _require_line,
    mg_runs_last_first,
    validate_or_raise,
)

REFERENCE_MAX_WIDTH = 64

# Rotation of the fermionic swap W: exchange dimensions (1, 2) <-> (3, 4).
_ROT_W = np.eye(4)[[2, 3, 0, 1]]
# Rotation of G(X, X).
_ROT_GXX = np.diag([1.0, -1.0, -1.0, 1.0])


def s_matrix(x: str) -> np.ndarray:
    """The 2n x 2n input pairing matrix S(x) for a bit string x.

    Per line k with sign s_k = (-1)^{x_k}:  S[2k, 2k-1] = s_k and
    S[2k-1, 2k] = -s_k (1-based).  S is antisymmetric, orthogonal, and
    S^{-1} = S^T = -S.
    """
    bits = _parse_bits(x)
    n = bits.size
    s = np.zeros((2 * n, 2 * n))
    signs = 1.0 - 2.0 * bits
    s[2 * np.arange(n) + 1, 2 * np.arange(n)] = signs
    s[2 * np.arange(n), 2 * np.arange(n) + 1] = -signs
    return s


def _parse_bits(x) -> np.ndarray:
    if isinstance(x, str):
        if set(x) - {"0", "1"}:
            raise ValueError(f"input must be a bit string, got {x!r}")
        return np.array([int(c) for c in x], dtype=float)
    return np.asarray(x, dtype=float)


_MG_CHUNK = 4096
# Gates per run that gate_rotations reads, so that a streaming consumer's
# scratch memory stays small and flat in the gate count.
_ROTATION_RUN = 64
# Fewest gates in a layer that _propagate applies as one batch.
_MIN_BATCH = 4

# Row and column in G(A, B) of the 8 block entries
# z = (a00, a01, a10, a11, b00, b01, b10, b11).
_ZROWS = [0, 0, 3, 3, 1, 1, 2, 2]
_ZCOLS = [0, 3, 0, 3, 1, 2, 1, 2]


def _rotation_map() -> np.ndarray:
    """The real (32, 16) map from the products conj(a_i) b_j to the flattened R^T.

    R[j, l] = (1/4) Re sum_pq conj(z_p) z_q c'_j[row_p, row_q] c'_l[col_q, col_p]
    is the trace formula of rotation_of_matchgate with U's zeros dropped.
    Each c' flips parity, so only pairs with one entry in each block count,
    and the (b, a) pairs are the conjugates of the (a, b) ones.  Row
    2(4i + j) takes Re(conj(a_i) b_j) and the next row its imaginary part,
    so the map applies to the complex products viewed as interleaved reals.
    """
    c = np.stack(algebra.LOCAL_OPS)
    left = c[:, _ZROWS][:, :, _ZROWS]  # [j, p, q]
    right = c[:, _ZCOLS][:, :, _ZCOLS]  # [l, q, p]
    k = 0.25 * np.einsum("jpq,lqp->pqlj", left, right).reshape(8, 8, 16)
    ab, ba = k[:4, 4:], k[4:, :4].transpose(1, 0, 2)  # coefficients of w, conj(w)
    return np.stack([(ab + ba).real, (ba - ab).imag], axis=2).reshape(32, 16)


_ROT_MAP = _rotation_map()
# 0-based (a, b) of each rot plane.
_PLANE_A = np.array([a - 1 for a, _ in algebra.PLANES])
_PLANE_B = np.array([b - 1 for _, b in algebra.PLANES])


def _mg_transposed_rotations(params: np.ndarray) -> np.ndarray:
    """Transposed rotations (M, 4, 4) of `mg` gates from their (M, 16) reals."""
    z = params.view(complex)  # (M, 8): a row-major, then b
    prods = (z[:, :4].conj()[:, :, None] * z[:, None, 4:]).reshape(len(z), 16)
    return (prods.view(float) @ _ROT_MAP).reshape(-1, 4, 4)


def _rot_transposed_rotations(params: np.ndarray) -> np.ndarray:
    """Transposed rotations (R, 4, 4) of `rot` gates from (plane, theta) rows."""
    plane = params[:, 0].astype(np.intp) - 1
    a, b = _PLANE_A[plane], _PLANE_B[plane]
    c, s = np.cos(params[:, 1]), np.sin(params[:, 1])
    out = np.broadcast_to(np.eye(4), (len(params), 4, 4)).copy()
    i = np.arange(len(params))
    # rot stores exp(+(theta/2) c'_a c'_b): R[a, b] = +sin, so R^T[a, b] = -sin.
    out[i, a, a] = out[i, b, b] = c
    out[i, a, b], out[i, b, a] = -s, s
    return out


def _transposed_rotations(cols: GateColumns) -> np.ndarray:
    """Per-gate transposed rotations (C, 4, 4) of one run of gates."""
    kinds = cols.kinds
    rots = np.empty((len(kinds), 4, 4))
    rots[kinds == KIND_CODES["w"]] = _ROT_W  # symmetric: equals its transpose
    rots[kinds == KIND_CODES["gxx"]] = _ROT_GXX
    rots[kinds == KIND_CODES["rot"]] = _rot_transposed_rotations(cols.rows("rot"))
    rots[kinds == KIND_CODES["mg"]] = _mg_transposed_rotations(cols.rows("mg"))
    return rots


def gate_rotations(
    gates: tuple[GateApp, ...], last_first: bool = False
) -> Iterator[tuple[int, np.ndarray]]:
    """(lower line k, 4x4 rotation R) of each gate, acting on dimensions
    2k-1 .. 2k+2, in circuit order or, with `last_first`, in reverse.

    The gates must be valid mg-flavor gates.  They are read _ROTATION_RUN at
    a time through the batched closed form of the fast path.
    """
    for _, cols in _gate_chunks(gates, _ROTATION_RUN, last_first):
        run = zip(cols.lines.tolist(), _transposed_rotations(cols).transpose(0, 2, 1))
        yield from reversed(list(run)) if last_first else run


def _propagate(
    x: np.ndarray, rots: np.ndarray, lines: np.ndarray, depth: list[int], base: int
) -> int:
    """Apply R^T of one run of gates to the columns x, last gate first.

    The gates are scheduled, last first, into layers: a gate's layer is one
    past the deepest layer already holding a gate on either of its lines
    (`depth`, per line), and at least `base`, the first layer after the
    previously applied runs.  So overlapping gates run in reverse circuit
    order and the gates of one layer act on disjoint windows.  A layer is
    applied as one gather, one batched 4x4 product and one scatter; layers
    of fewer than _MIN_BATCH gates, as in the ladders of narrow circuits,
    cost less gate by gate.  Returns the base for the next run.
    """
    level = []
    for k in reversed(lines.tolist()):
        d = depth[k] if depth[k] > depth[k + 1] else depth[k + 1]
        if d < base:
            d = base
        level.append(d)
        depth[k] = depth[k + 1] = d + 1
    levels = np.array(level[::-1])
    order = np.argsort(levels, kind="stable")
    starts = np.flatnonzero(np.diff(levels[order])) + 1
    bounds = [0, *starts.tolist(), len(order)]
    offlist, orderlist = (2 * lines - 2).tolist(), order.tolist()
    x_lines = x.reshape(-1, 4)  # row k - 1 holds dimensions 2k - 1, 2k of line k
    pair = lines[:, None] + np.array([-1, 0])  # rows of each gate's two lines
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < _MIN_BATCH:
            for t in orderlist[lo:hi]:
                w = offlist[t]
                x[w : w + 4] = rots[t] @ x[w : w + 4]
        else:
            gates = order[lo:hi]
            rows = pair.take(gates, axis=0)
            window = x_lines.take(rows, axis=0).reshape(-1, 4, 2)
            x_lines[rows] = (rots.take(gates, axis=0) @ window).reshape(-1, 2, 4)
    return int(levels.max()) + 1


def _pair_columns(circuit: MatchgateCircuit, k: int) -> np.ndarray:
    """Columns (R^T e_{2k-1}, R^T e_{2k}) via reverse propagation, O(N + n).

    Validates the circuit while it reads it, one run of _MG_CHUNK gates at
    a time, so scratch memory does not grow with the gate count.
    """
    n = circuit.width
    runs = mg_runs_last_first(circuit, _MG_CHUNK)
    x = np.zeros((2 * n, 2))
    x[2 * k - 2, 0] = 1.0
    x[2 * k - 1, 1] = 1.0
    depth = [0] * (n + 2)
    base = 0
    for cols in runs:
        base = _propagate(x, _transposed_rotations(cols), cols.lines, depth, base)
    return x


def _apply_s_sparse(v: np.ndarray, bits: np.ndarray) -> np.ndarray:
    signs = 1.0 - 2.0 * bits
    out = np.empty_like(v)
    out[0::2] = -signs * v[1::2]
    out[1::2] = signs * v[0::2]
    return out


def simulate_expectation(circuit: MatchgateCircuit, k: int | None = None) -> float:
    """<Z_k> on the circuit's basis input, in O(N + n).

    The circuit is validated as it is read; an invalid one raises
    ValidationError with the messages of `validate`.
    """
    _require_flavor(circuit, "mg")
    k = circuit.measure_line if k is None else k
    _require_line(circuit, k)
    x = _pair_columns(circuit, k)
    bits = _parse_bits(circuit.input)
    sv = _apply_s_sparse(x[:, 0], bits)
    return float(x[:, 1] @ sv)


def simulate_expectation_reference(circuit: MatchgateCircuit, k: int | None = None) -> float:
    """Reference path: accumulate the dense 2n x 2n rotation, then read one entry."""
    _require_flavor(circuit, "mg")
    k = circuit.measure_line if k is None else k
    _require_line(circuit, k)
    r = circuit_rotation(circuit)
    s = s_matrix(circuit.input)
    return float(r[2 * k - 1] @ s @ r[2 * k - 2])


def circuit_rotation(circuit: MatchgateCircuit) -> np.ndarray:
    """The full SO(2n) rotation R = R_N ... R_1 of the circuit."""
    _require_flavor(circuit, "mg")
    validate_or_raise(circuit)
    if circuit.width > REFERENCE_MAX_WIDTH:
        raise GuardError(
            f"width {circuit.width} exceeds the reference-path guard of {REFERENCE_MAX_WIDTH}"
        )
    r = np.eye(2 * circuit.width)
    for k, rot in gate_rotations(circuit.gates):
        w = 2 * k - 2
        r[w : w + 4, :] = rot @ r[w : w + 4, :]
    return r


def distribution_from_expectation(z: float) -> tuple[float, float]:
    """(p0, p1) of a line whose <Z> is z.

    Overshoots of |z| beyond 1 by at most 1e-6 are clamped; anything larger,
    or NaN, signals an internal error and raises.
    """
    if not abs(z) <= 1.0 + 1e-6:
        raise RuntimeError(f"expectation {z} out of [-1, 1] beyond tolerance")
    z = min(1.0, max(-1.0, z))
    p1 = (1.0 - z) / 2.0
    return 1.0 - p1, p1


def output_distribution(
    circuit: MatchgateCircuit, k: int | None = None, method: str = "fast"
) -> tuple[float, float]:
    """(p0, p1) of measuring the chosen line in the computational basis,
    from `distribution_from_expectation`."""
    if method == "fast":
        z = simulate_expectation(circuit, k)
    elif method == "reference":
        z = simulate_expectation_reference(circuit, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return distribution_from_expectation(z)
