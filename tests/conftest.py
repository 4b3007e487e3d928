"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import matchgates
from matchgates import circuits, oracle
from matchgates.circuits import GateApp, gate_matrix


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


def record_gate_objects(monkeypatch) -> list:
    """Count the GateApps made both ways: the dataclass constructor, and
    `circuits._gate` under every name any matchgates module binds it to."""
    built, post_init, make = [], GateApp.__post_init__, circuits._gate
    monkeypatch.setattr(GateApp, "__post_init__", lambda g: built.append(1) or post_init(g))
    counted = lambda *args: built.append(1) or make(*args)
    for info in pkgutil.iter_modules(matchgates.__path__):
        module = importlib.import_module(f"matchgates.{info.name}")
        for name in [name for name, value in vars(module).items() if value is make]:
            monkeypatch.setattr(module, name, counted)
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
