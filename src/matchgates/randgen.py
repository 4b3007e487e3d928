"""Seeded random circuit generation for tests, benchmarks and the CLI."""

from __future__ import annotations

import numpy as np

from . import algebra
from .circuits import (
    KIND_CODES,
    GateColumns,
    GeneralCircuit,
    GuardError,
    MatchgateCircuit,
    UsageError,
    _ParsedGates,
    _table,
    reals_from_complex,
)

# The random circuits refuse, before drawing anything, a width or a gate count
# above this: `gen-random mg 1024 100000` takes 8 s and 231 MiB peak RSS
# (2-core VM) and writes 33 MB, and both grow linearly.
RANDGEN_MAX_SIZE = 200_000

MG_KIND_WEIGHTS = (("w", 0.2), ("gxx", 0.1), ("rot", 0.3), ("mg", 0.4))
QC_KIND_WEIGHTS = (("x", 0.15), ("h", 0.15), ("u1", 0.25), ("u2", 0.2), ("cu1", 0.25))


def _guard(width: int, size: int) -> None:
    if max(width, size) > RANDGEN_MAX_SIZE:
        raise GuardError(
            f"random circuit of width {width} with {size} gates; "
            f"guard is {RANDGEN_MAX_SIZE} lines and {RANDGEN_MAX_SIZE} gates"
        )


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phase-fixed)."""
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_unitaries_2x2(count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2, 2) batch of Haar 2x2 unitaries, vectorized."""
    m = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def random_so(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed special-orthogonal d x d matrix."""
    m = rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_matchgate_params(rng: np.random.Generator) -> tuple[float, ...]:
    """Parameters of a random G(A, B) with Haar blocks and matched determinant."""
    a, b = haar_unitaries_2x2(2, rng)
    b = b * np.sqrt(np.linalg.det(a) / np.linalg.det(b))
    return reals_from_complex(a) + reals_from_complex(b)


# Gates per block that _drawn_table fills before trimming it.
_DRAW_BLOCK = 1024


def _drawn_table(size: int, most_lines: int, most_reals: int, draw) -> GateColumns:
    """Gates 0 .. size - 1, each drawn by `draw(i)` as (kind, lines, reals).

    Each block of _DRAW_BLOCK gates is written into columns preallocated
    for `most_lines` lines and `most_reals` reals a gate, trimmed to what
    was drawn when full, and the blocks are joined once: the peak stays near
    twice the drawn table, whatever the kind with the most reals.
    """
    kinds = np.empty(size, np.intp)
    line_blocks, param_blocks = [np.empty(0, np.int64)], [np.empty(0)]
    for lo in range(0, size, _DRAW_BLOCK):
        count = min(_DRAW_BLOCK, size - lo)
        lines, params = np.empty(count * most_lines, np.int64), np.empty(count * most_reals)
        at_line = at_param = 0
        for i in range(lo, lo + count):
            kind, gate_lines, reals = draw(i)
            kinds[i] = KIND_CODES[kind]
            lines[at_line : at_line + len(gate_lines)] = gate_lines
            params[at_param : at_param + len(reals)] = reals
            at_line, at_param = at_line + len(gate_lines), at_param + len(reals)
        line_blocks.append(lines[:at_line].copy())
        param_blocks.append(params[:at_param].copy())
    return _table(kinds, np.concatenate(line_blocks), np.concatenate(param_blocks))


def _random_mg_gate(k: int, rng: np.random.Generator, kinds: str) -> tuple:
    names, weights = zip(*MG_KIND_WEIGHTS)
    kind = "mg" if kinds == "haar" else str(rng.choice(names, p=weights))
    if kind == "rot":
        plane = float(rng.integers(1, 7))
        return "rot", (k,), (plane, float(rng.uniform(-np.pi, np.pi)))
    return kind, (k,), random_matchgate_params(rng) if kind == "mg" else ()


def random_matchgate_circuit(
    width: int,
    size: int,
    rng: np.random.Generator,
    input_bits: str | None = None,
    measure_line: int | None = None,
    kinds: str = "mixed",
    cover: bool = True,
) -> MatchgateCircuit:
    """Random width-`width` matchgate circuit with `size` gates.

    `kinds` picks the gate mix: "mixed" draws from every matchgate form,
    "haar" draws only general matchgates with Haar-random blocks.  Gate
    positions are uniform over adjacent pairs; with `cover` (and enough
    gates) the first gates sweep every pair once so no line stays idle.
    GuardError, before anything is drawn, past RANDGEN_MAX_SIZE.
    """
    if width < 2:
        raise UsageError(f"matchgate circuits need width >= 2, got {width}")
    _guard(width, size)
    positions = list(rng.permutation(width - 1) + 1) if cover else []
    while len(positions) < size:
        positions.append(int(rng.integers(1, width)))
    positions = positions[:size]
    gates = _ParsedGates(_drawn_table(size, 1, 16, lambda i: _random_mg_gate(positions[i], rng, kinds)))
    idle = len(set(positions)) < width - 1
    inp = input_bits if input_bits is not None else "0" * width
    k = measure_line if measure_line is not None else 1
    return MatchgateCircuit(width, gates, inp, k, allow_idle=idle)


def _random_qc_gate(width: int, rng: np.random.Generator, kinds: str) -> tuple:
    if kinds == "haar":
        table = tuple(kw for kw in QC_KIND_WEIGHTS if kw[0] not in ("x", "h"))
        names, weights = zip(*table)
        weights = tuple(w / sum(weights) for w in weights)
    else:
        names, weights = zip(*QC_KIND_WEIGHTS)
    kind = str(rng.choice(names, p=weights))
    if width < 2 and kind in ("u2", "cu1"):
        kind = "u1"
    if kind in ("x", "h"):
        return kind, (int(rng.integers(1, width + 1)),), ()
    if kind == "u1":
        u = haar_unitary(2, rng)
        return "u1", (int(rng.integers(1, width + 1)),), reals_from_complex(u)
    lines = rng.choice(width, size=2, replace=False) + 1
    u = haar_unitary(4 if kind == "u2" else 2, rng)
    return kind, tuple(lines.tolist()), reals_from_complex(u)


def random_general_circuit(
    width: int,
    size: int,
    rng: np.random.Generator,
    input_bits: str | None = None,
    kinds: str = "mixed",
) -> GeneralCircuit:
    """Random width-`width` general circuit with `size` gates.

    `kinds` picks the gate mix: "mixed" includes the fixed x and h gates,
    "haar" draws only Haar-random one/two-qubit unitaries (u1, u2, cu1).
    GuardError, before anything is drawn, past RANDGEN_MAX_SIZE.
    """
    if width < 1:
        raise UsageError(f"circuits need width >= 1, got {width}")
    _guard(width, size)
    gates = _ParsedGates(_drawn_table(size, 2, 32, lambda _: _random_qc_gate(width, rng, kinds)))
    inp = input_bits if input_bits is not None else "0" * width
    return GeneralCircuit(width, gates, inp)
