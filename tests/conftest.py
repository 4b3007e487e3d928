"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from matchgates import oracle
from matchgates.circuits import gate_matrix


def embed(u: np.ndarray, lines: tuple[int, ...], width: int) -> np.ndarray:
    """Dense embedding of one unitary at the given lines on `width` qubits."""
    dim = 2**width
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        state = np.zeros(dim, dtype=complex)
        state[col] = 1.0
        out[:, col] = oracle.apply_dense_gate(state, u, lines, width)
    return out


def dense_unitary(gates, width: int, flavor: str = "qc") -> np.ndarray:
    """Compose a gate list into one dense 2^width unitary (tests only).

    The columns are carried as one tensor with an axis per line, line 1
    first, and each gate contracts only the axes of its own lines.
    """
    out = np.eye(2**width, dtype=complex).reshape((2,) * width + (2**width,))
    for g in gates:
        lines = g.lines if flavor == "qc" else (g.lines[0], g.lines[0] + 1)
        k = len(lines)
        u = gate_matrix(g).reshape((2,) * (2 * k))
        axes = [l - 1 for l in lines]
        out = np.moveaxis(np.tensordot(u, out, (list(range(k, 2 * k)), axes)), range(k), axes)
    return out.reshape(2**width, 2**width)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
