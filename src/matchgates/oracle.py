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
    UsageError,
    _gate_chunks,
    _require_line,
    gate_matrices,
    validate_or_raise,
)

ORACLE_MAX_WIDTH = 14
ADJOINT_MAX_WIDTH = 7


def _slot_index(lines: tuple[int, ...], width: int) -> np.ndarray:
    """The flat positions of a 2^width statevector as a (2^j, 2^(width - j))
    array for j listed lines: row r holds the amplitudes whose listed lines
    read r, the first listed line being the most significant bit of r."""
    j = len(lines)
    positions = np.arange(2**width).reshape((2,) * width)
    return np.moveaxis(positions, [l - 1 for l in lines], range(j)).reshape(2**j, -1)


def _slot_view(state: np.ndarray, lines: tuple[int, ...], width: int) -> np.ndarray:
    """A view of a 2^width statevector with the listed lines' axes first, in
    the order listed: the same amplitudes, row by row, as its slot index."""
    return np.moveaxis(state.reshape((2,) * width), [l - 1 for l in lines], range(len(lines)))


def _apply_indexed(state: np.ndarray, u: np.ndarray, index: np.ndarray) -> None:
    """Apply a unitary in place through the slot index of its lines."""
    state[index] = u @ state[index]


def _apply_viewed(u: np.ndarray, view: np.ndarray, scratch: np.ndarray) -> None:
    """Apply a unitary in place through a slot view of a state's lines.

    The amplitudes go through `scratch`, two buffers of the state's size:
    at 14 lines, fresh arrays per gate cost more in page faults than the
    product itself.
    """
    a, b = scratch.reshape(2, len(u), -1)
    np.copyto(a.reshape(view.shape), view)
    np.matmul(u, a, out=b)
    np.copyto(view, b.reshape(view.shape))


def apply_dense_gate(state: np.ndarray, u: np.ndarray, lines: tuple[int, ...], width: int) -> np.ndarray:
    """Apply an explicit unitary to the listed lines of a 2^width statevector.

    `lines` are 1-based and ordered: the first listed line is the most
    significant tensor factor of `u`.  Returns a new array.
    """
    out = np.array(state, dtype=complex)
    _apply_viewed(u, _slot_view(out, tuple(lines), width), np.empty(2 * out.size, dtype=complex))
    return out


def basis_state(bits: str) -> np.ndarray:
    state = np.zeros(2 ** len(bits), dtype=complex)
    state[int(bits, 2) if bits else 0] = 1.0
    return state


# run_statevector builds the matrices of this many gates at a time.
_ORACLE_CHUNK = 512
# A call keeps a slot index per line tuple while every tuple the circuit's
# flavor can use fits in this many positions (512 KiB): qc circuits up to 9
# lines, mg up to 12.  Wider circuits keep a slot view per tuple instead: it
# holds no positions, and from about 12 lines on its strided copy costs what
# an index's gather does (at 8 lines the gather is about 1.5 times as fast).
_SLOT_ENTRIES = 2**16


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Simulate a circuit exactly; returns the final 2^width statevector.

    The gates are read in runs from the circuit's table, each run's matrices
    built by kind at once; each gate is applied in place through the slot
    index or slot view of its line tuple, built once per call.
    """
    width = circuit.width
    if width > ORACLE_MAX_WIDTH:
        raise GuardError(f"width {width} exceeds the dense-oracle guard of {ORACLE_MAX_WIDTH}")
    validate_or_raise(circuit)
    state = basis_state(circuit.input)
    tuples = width * width if circuit.flavor == "qc" else width - 1
    if tuples << width <= _SLOT_ENTRIES:
        slot = lambda key: _slot_index(key, width)
        apply = lambda u, index: _apply_indexed(state, u, index)
    else:
        scratch = np.empty(2 * state.size, dtype=complex)
        slot = lambda key: _slot_view(state, key, width)
        apply = lambda u, view: _apply_viewed(u, view, scratch)
    slots: dict[tuple[int, ...], np.ndarray] = {}
    for _, cols in _gate_chunks(circuit.gates, _ORACLE_CHUNK):
        if circuit.flavor == "qc":
            keys = cols.line_tuples()
        else:
            keys = [(k, k + 1) for k in cols.lines.tolist()]
        for u, key in zip(gate_matrices(cols), keys):
            at = slots.get(key)
            if at is None:
                at = slots[key] = slot(key)
            apply(u, at)
    return state


def expectation_z(state: np.ndarray, k: int) -> float:
    """<Z_k> of a statevector (line 1 = most significant index bit).  ValueError
    unless its size is a power of two >= 2."""
    width = state.size.bit_length() - 1
    if width < 1 or state.size != 1 << width:
        raise ValueError(f"state size {state.size} is not a power of two >= 2")
    if not 1 <= k <= width:
        raise ValueError(f"line {k} out of range 1..{width}")
    probs = np.abs(state) ** 2
    blocks = probs.reshape(2 ** (k - 1), 2, -1)
    z = float(blocks[:, 0, :].sum() - blocks[:, 1, :].sum())
    if not np.isfinite(z):
        raise ValueError("state has a non-finite amplitude")
    return z


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


ENGINES = ("oracle", "mgsim")


def _readout(circuit: Circuit, line: int, engine: str) -> float:
    if engine == "mgsim":
        from . import simulate

        return simulate.simulate_expectation(circuit, line)
    return expectation_z(run_statevector(circuit), line)


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
    Both engines and both lines are checked before either engine runs:
    UsageError for an engine not in ENGINES or a line off its circuit.
    """
    for engine in (engine_a, engine_b):
        if engine not in ENGINES:
            raise UsageError(f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}")

    def default_line(c: Circuit) -> int:
        return c.measure_line if isinstance(c, MatchgateCircuit) else 1

    la = line_a if line_a is not None else default_line(circuit_a)
    lb = line_b if line_b is not None else default_line(circuit_b)
    _require_line(circuit_a, la)
    _require_line(circuit_b, lb)
    lhs = _readout(circuit_a, la, engine_a)
    rhs = _readout(circuit_b, lb, engine_b)
    diff = abs(lhs - rhs)
    return VerifyReport(lhs, rhs, diff, tol, diff <= tol)
