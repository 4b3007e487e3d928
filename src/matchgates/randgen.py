"""Seeded random circuit generation for tests, benchmarks and the CLI."""

from __future__ import annotations

import numpy as np

from . import algebra
from .circuits import (
    GateApp,
    GeneralCircuit,
    MatchgateCircuit,
    UsageError,
    reals_from_complex,
)

MG_KIND_WEIGHTS = (("w", 0.2), ("gxx", 0.1), ("rot", 0.3), ("mg", 0.4))
QC_KIND_WEIGHTS = (("x", 0.15), ("h", 0.15), ("u1", 0.25), ("u2", 0.2), ("cu1", 0.25))


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


def _random_mg_gate(k: int, rng: np.random.Generator, kinds: str) -> GateApp:
    if kinds == "haar":
        return GateApp("mg", (k,), random_matchgate_params(rng))
    names, weights = zip(*MG_KIND_WEIGHTS)
    kind = str(rng.choice(names, p=weights))
    if kind == "w" or kind == "gxx":
        return GateApp(kind, (k,))
    if kind == "rot":
        plane = float(rng.integers(1, 7))
        theta = float(rng.uniform(-np.pi, np.pi))
        return GateApp("rot", (k,), (plane, theta))
    return GateApp("mg", (k,), random_matchgate_params(rng))


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
    """
    if width < 2:
        raise UsageError(f"matchgate circuits need width >= 2, got {width}")
    positions = list(rng.permutation(width - 1) + 1) if cover else []
    while len(positions) < size:
        positions.append(int(rng.integers(1, width)))
    positions = positions[:size]
    gates = tuple(_random_mg_gate(int(k), rng, kinds) for k in positions)
    idle = len(set(positions)) < width - 1
    inp = input_bits if input_bits is not None else "0" * width
    k = measure_line if measure_line is not None else 1
    return MatchgateCircuit(width, gates, inp, k, allow_idle=idle)


def _random_qc_gate(width: int, rng: np.random.Generator, kinds: str) -> GateApp:
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
        return GateApp(kind, (int(rng.integers(1, width + 1)),))
    if kind == "u1":
        u = haar_unitary(2, rng)
        return GateApp("u1", (int(rng.integers(1, width + 1)),), reals_from_complex(u))
    lines = rng.choice(width, size=2, replace=False) + 1
    d = 4 if kind == "u2" else 2
    u = haar_unitary(d, rng)
    return GateApp(kind, (int(lines[0]), int(lines[1])), reals_from_complex(u))


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
    """
    if width < 1:
        raise UsageError(f"circuits need width >= 1, got {width}")
    gates = tuple(_random_qc_gate(width, rng, kinds) for _ in range(size))
    inp = input_bits if input_bits is not None else "0" * width
    return GeneralCircuit(width, gates, inp)
