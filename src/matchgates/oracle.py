"""Dense statevector oracle.

Brute-force reference semantics for both circuit flavors: build the full
2^width statevector, apply every gate as a dense matrix on its tensor slot,
and read out Z expectations.  Exponential in width, guarded at
ORACLE_MAX_WIDTH lines; exists purely to cross-check the polynomial
simulator and the two compilers on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .circuits import (
    Circuit,
    GuardError,
    MatchgateCircuit,
    gate_matrix,
    validate_or_raise,
)

ORACLE_MAX_WIDTH = 14
ADJOINT_MAX_WIDTH = 7


def apply_dense_gate(state: np.ndarray, u: np.ndarray, lines: tuple[int, ...], width: int) -> np.ndarray:
    """Apply an explicit unitary to the listed lines of a 2^width statevector.

    `lines` are 1-based and ordered: the first listed line is the most
    significant tensor factor of `u`.
    """
    j = len(lines)
    t = state.reshape((2,) * width)
    src = [l - 1 for l in lines]
    t = np.moveaxis(t, src, range(j))
    shape = t.shape
    t = (u @ t.reshape(2**j, -1)).reshape(shape)
    t = np.moveaxis(t, range(j), src)
    return t.reshape(-1)


def basis_state(bits: str) -> np.ndarray:
    state = np.zeros(2 ** len(bits), dtype=complex)
    state[int(bits, 2) if bits else 0] = 1.0
    return state


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Simulate a circuit exactly; returns the final 2^width statevector."""
    if circuit.width > ORACLE_MAX_WIDTH:
        raise GuardError(
            f"width {circuit.width} exceeds the dense-oracle guard of {ORACLE_MAX_WIDTH}"
        )
    validate_or_raise(circuit)
    state = basis_state(circuit.input)
    for g in circuit.gates:
        u = gate_matrix(g)
        lines = g.lines if circuit.flavor == "qc" else (g.lines[0], g.lines[0] + 1)
        state = apply_dense_gate(state, u, lines, circuit.width)
    return state


def expectation_z(state: np.ndarray, k: int) -> float:
    """<Z_k> of a statevector (line 1 = most significant index bit)."""
    width = int(np.log2(state.size))
    if not 1 <= k <= width:
        raise ValueError(f"line {k} out of range 1..{width}")
    probs = np.abs(state) ** 2
    blocks = probs.reshape(2 ** (k - 1), 2, -1)
    return float(blocks[:, 0, :].sum() - blocks[:, 1, :].sum())


def adjoint_action_check(g: np.ndarray, k: int, n: int) -> float:
    """Max deviation of U^dag c_j U = sum_l R[j, l] c_l over all j in 1..2n.

    The matchgate g sits on lines (k, k+1) of an n-line register; R is its
    4x4 rotation embedded in the (2k-1 .. 2k+2) block of a 2n x 2n identity.
    Exponential in n, guarded at ADJOINT_MAX_WIDTH.
    """
    if n > ADJOINT_MAX_WIDTH:
        raise GuardError(f"width {n} exceeds the adjoint-check guard of {ADJOINT_MAX_WIDTH}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"line {k} out of range 1..{n - 1}")
    u = np.eye(1, dtype=complex)
    for _ in range(k - 1):
        u = np.kron(u, np.eye(2))
    u = np.kron(u, np.asarray(g, dtype=complex))
    for _ in range(n - k - 1):
        u = np.kron(u, np.eye(2))

    r = np.eye(2 * n)
    w = 2 * k - 2
    r[w : w + 4, w : w + 4] = algebra.rotation_of_matchgate(g)

    cs = [algebra.jordan_wigner(n, j) for j in range(1, 2 * n + 1)]
    worst = 0.0
    for j in range(2 * n):
        lhs = u.conj().T @ cs[j] @ u
        rhs = sum(r[j, l] * cs[l] for l in range(2 * n))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of comparing one scalar readout between two circuits."""

    lhs: float
    rhs: float
    diff: float
    tol: float
    passed: bool

    def line(self) -> str:
        flag = "true" if self.passed else "false"
        return (
            f"lhs={self.lhs:.15g} rhs={self.rhs:.15g} "
            f"diff={self.diff:.3g} tol={self.tol:.3g} pass={flag}"
        )


def _readout(circuit: Circuit, line: int, engine: str) -> float:
    if engine == "mgsim":
        from . import simulate

        return simulate.simulate_expectation(circuit, line)
    if engine == "oracle":
        return expectation_z(run_statevector(circuit), line)
    raise ValueError(f"unknown engine {engine!r}")


def verify_equivalent(
    circuit_a: Circuit,
    circuit_b: Circuit,
    tol: float = 1e-9,
    line_a: int | None = None,
    line_b: int | None = None,
    engine_a: str = "oracle",
    engine_b: str = "oracle",
) -> VerifyReport:
    """Compare <Z> readouts of two circuits on their chosen lines.

    Lines default to the measure line for mg circuits and line 1 otherwise.
    """

    def default_line(c: Circuit) -> int:
        return c.measure_line if isinstance(c, MatchgateCircuit) else 1

    la = line_a if line_a is not None else default_line(circuit_a)
    lb = line_b if line_b is not None else default_line(circuit_b)
    lhs = _readout(circuit_a, la, engine_a)
    rhs = _readout(circuit_b, lb, engine_b)
    diff = abs(lhs - rhs)
    return VerifyReport(lhs, rhs, diff, tol, diff <= tol)
