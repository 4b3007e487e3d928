"""Dense statevector oracle.

Brute-force reference semantics for both circuit flavors: build the full
2^width statevector, apply every gate as a dense matrix on its tensor slot,
and read out Z expectations.  Exponential in width, guarded at
ORACLE_MAX_WIDTH lines; exists purely to cross-check the polynomial
simulator and the two compilers on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra
from .circuits import (
    KIND_CODES,
    Circuit,
    GuardError,
    MatchgateCircuit,
    UsageError,
    _gate_blocks,
    _gate_chunks,
    _require_line,
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


class _ViewSlot(NamedTuple):
    """A gate's amplitudes as a slot view, with the scratch buffers they go
    through: `a` and `b` in the view's shape, `x` and `y` the same buffers as
    a stack of (2^j, c) operand and result slices of at most
    _PRODUCT_AMPLITUDES amplitudes each."""

    view: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _view_slot(view: np.ndarray, j: int, scratch: np.ndarray) -> _ViewSlot:
    """The slot of a view whose first j axes a 2^j x 2^j unitary acts on;
    `scratch` holds at least twice the view's amplitudes.

    A fresh array per gate costs more in page faults than the product at
    14 lines, so the amplitudes go through `scratch` instead.
    """
    n, d = view.size, 1 << j
    c = min(n, _PRODUCT_AMPLITUDES) // d
    a, b = scratch[:n], scratch[n : 2 * n]
    x, y = (buf.reshape(d, -1, c).swapaxes(0, 1) for buf in (a, b))
    return _ViewSlot(view, a.reshape(view.shape), b.reshape(view.shape), x, y)


def _apply_viewed(u: np.ndarray, slot: _ViewSlot) -> None:
    """Apply a unitary in place through a slot view: gather, product, scatter."""
    np.copyto(slot.a, slot.view)
    np.matmul(u, slot.x, out=slot.y)
    np.copyto(slot.view, slot.b)


def apply_dense_gate(state: np.ndarray, u: np.ndarray, lines: tuple[int, ...], width: int) -> np.ndarray:
    """Apply an explicit unitary to the listed lines of a 2^width statevector.

    `lines` are 1-based and ordered: the first listed line is the most
    significant tensor factor of `u`.  Returns a new array.  ValueError for
    a line that repeats or falls outside 1..width, or a `u` that is not
    2^j x 2^j for the j listed lines.
    """
    lines = tuple(lines)
    if len(set(lines)) != len(lines) or not all(1 <= l <= width for l in lines):
        raise ValueError(f"lines {lines} are not distinct lines in 1..{width}")
    d = 1 << len(lines)
    if np.shape(u) != (d, d):
        raise ValueError(f"matrix of shape {np.shape(u)} on {len(lines)} line(s); expected ({d}, {d})")
    out = np.array(state, dtype=complex)
    scratch = np.empty(2 * out.size, dtype=complex)
    _apply_viewed(u, _view_slot(_slot_view(out, lines, width), len(lines), scratch))
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
# holds no positions.  A gate applied through a slot view takes 1.4-2.0
# times as long as through a slot index at 8 lines, 1.4 times at 9 and about
# 0.9 times at 12 (mg).
_SLOT_ENTRIES = 2**16
# Most amplitudes one product takes.  OpenBLAS spreads a product of a 4x4
# with 2^13 amplitudes, or of a 2x2 with 2^14, over its threads, and on two
# cores it ran no faster for it: a u2 gate at 14 lines took 85-115 us on
# both cores and 80-87 us sliced on one.  A product through a slot index
# holds at most 2^12 amplitudes (an mg gate at 12 lines), so only slot views
# are sliced.
_PRODUCT_AMPLITUDES = 2**12
_CU1 = KIND_CODES["cu1"]


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Simulate a circuit exactly; returns the final 2^width statevector.

    The gates are read in runs from the circuit's table, each run's matrices
    built by kind at once.  Each gate is applied in place as one gather of
    its amplitudes, one product with its matrix and one scatter back, through
    the slot index or slot view of its line tuple, built once per call.  A
    `cu1` gate applies its 2x2 target block to the half of its slot where
    its control reads 1, and leaves the other half untouched.
    """
    width = circuit.width
    if width > ORACLE_MAX_WIDTH:
        raise GuardError(f"width {width} exceeds the dense-oracle guard of {ORACLE_MAX_WIDTH}")
    validate_or_raise(circuit)
    state = basis_state(circuit.input)
    tuples = width * width if circuit.flavor == "qc" else width - 1
    indexed = tuples << width <= _SLOT_ENTRIES
    scratch = None if indexed else np.empty(2 * state.size, dtype=complex)
    whole: dict[tuple[int, ...], np.ndarray] = {}

    def slot(lines: tuple[int, ...], controlled: bool):
        at = whole.get(lines)
        if at is None:
            at = whole[lines] = _slot_index(lines, width) if indexed else _slot_view(state, lines, width)
        if indexed:
            return at[2:] if controlled else at
        return _view_slot(at[1] if controlled else at, len(lines) - controlled, scratch)

    slots: dict[tuple[tuple[int, ...], bool], np.ndarray | _ViewSlot] = {}
    for _, cols in _gate_chunks(circuit.gates, _ORACLE_CHUNK):
        if circuit.flavor == "qc":
            keys = list(zip(cols.line_tuples(), (cols.kinds == _CU1).tolist()))
        else:
            keys = [((k, k + 1), False) for k in cols.lines.tolist()]
        for key in set(keys).difference(slots):
            slots[key] = slot(*key)
        gates = zip(_gate_blocks(cols), [slots[key] for key in keys])
        if indexed:
            for u, at in gates:
                state[at] = u.dot(state[at])
        else:
            for u, at in gates:
                _apply_viewed(u, at)
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
