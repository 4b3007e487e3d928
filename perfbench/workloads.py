"""Seeded inputs, requests and independent checks for the benchmark workloads.

The inputs are drawn here from the run's seed with numpy's PCG64, never
through `matchgates.randgen`, so a change to the program cannot change what
it is fed.  Each workload writes a small pool of input files; one request
runs the CLI call (or call pair) of the workload on one pool item.

The checks read the files back with the small parser below and derive the
expected readout without the program: for qc circuits a dense statevector
loop, for mg circuits (up to 1024 lines, which no statevector fits) the two
rows of the SO(2n) rotation R = R_N ... R_1 that the readout needs.  The
circuit compress emits is read out with the statevector loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CHECK_TOL = 1e-9

# Gate mixes, as fixed counts per circuit (shuffled), so that every pool item
# of a size costs about the same.
MG_MIX = (("w", 0.2), ("gxx", 0.1), ("rot", 0.3), ("mg", 0.4))
EXPAND_MIX = (("u2", 0.3), ("cu1", 0.3), ("u1", 0.2), ("h", 0.1), ("x", 0.1))
ORACLE_MIX = (("cu1", 0.96), ("x", 0.03), ("u1", 0.01))

# Sizes per workload: `full` is the benchmark, `smoke` a seconds-long run of
# the harness itself.  Pools are larger where the cost of one item varies
# more from item to item, so that a run's median moves little with the seed.
SIZES = {
    "full": {
        "simulate-wide": {"pool": 2, "width": 1024, "gates": 50_000},
        "compress-std": {"pool": 2, "width": 16, "gates": 50},
        "expand-verify": {"pool": 16, "width": 4, "gates": 20},
        "oracle-verify": {"pool": 2, "width": 8, "gates": 10_000, "segment": 200},
    },
    "smoke": {
        "simulate-wide": {"pool": 2, "width": 16, "gates": 200},
        "compress-std": {"pool": 2, "width": 4, "gates": 6},
        "expand-verify": {"pool": 2, "width": 2, "gates": 4},
        "oracle-verify": {"pool": 2, "width": 4, "gates": 100, "segment": 10},
    },
}
WORKLOADS = tuple(SIZES["full"])

# --- matrices, built here rather than taken from the program ----------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
# c'_1 .. c'_4 of a line pair, and the products c'_a c'_b of the six planes
# in the order of the text format's `rot plane=`.
_MAJORANA = np.stack([np.kron(_X, _I2), np.kron(_Y, _I2), np.kron(_Z, _X), np.kron(_Z, _Y)])
_PLANE_PRODUCTS = np.stack(
    [_MAJORANA[a] @ _MAJORANA[b] for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
)
_FIXED = {
    "w": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex),
    "gxx": np.kron(_X, _X),
    "x": _X,
    "h": _H,
}
# Reals each parametrized gate kind carries in the text format.
_NUMBERS = {"rot": 2, "mg": 16, "u1": 8, "cu1": 8, "u2": 32}
# Matchgate layout: a-block on |00>,|11>, b-block on |01>,|10>, row-major.
_MG_SLOTS = tuple(zip((0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)))


def _haar(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Haar-random d x d unitaries."""
    shape = (count, d, d)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _kind_sequence(mix, count: int, rng: np.random.Generator) -> list[str]:
    kinds: list[str] = []
    for kind, share in mix[1:]:
        kinds += [kind] * round(share * count)
    kinds = [mix[0][0]] * (count - len(kinds)) + kinds
    return [kinds[i] for i in rng.permutation(count)]


def _bits(width: int, rng: np.random.Generator) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, width))


def _reals(m: np.ndarray) -> str:
    return ",".join(f"{v!r}" for z in np.ravel(m).tolist() for v in (z.real, z.imag))


def _det(m: np.ndarray) -> np.ndarray:
    return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]


# --- generators -------------------------------------------------------------


def random_mg(width: int, count: int, rng: np.random.Generator, header=None) -> str:
    """mg circuit text with the MG_MIX gate counts, every line pair touched.

    `header` is (input bits, measure line); random when not given.
    """
    if count < width - 1:
        raise ValueError("an mg circuit needs a gate on every line pair")
    lines = np.concatenate([np.arange(1, width), rng.integers(1, width, count - width + 1)])
    lines = rng.permutation(lines).tolist()
    kinds = _kind_sequence(MG_MIX, count, rng)
    blocks = _haar(2, 2 * kinds.count("mg"), rng)
    a, b = blocks[0::2], blocks[1::2]
    b = b * np.sqrt(_det(a) / _det(b))[:, None, None]  # det b = det a
    mgs = iter(zip(a, b))
    planes = rng.integers(1, 7, count).tolist()
    thetas = rng.uniform(-math.pi, math.pi, count).tolist()
    inp, measure = header or (_bits(width, rng), int(rng.integers(1, width + 1)))
    out = [f"circuit mg width={width} input={inp} measure={measure}"]
    for kind, k, plane, theta in zip(kinds, lines, planes, thetas):
        if kind == "rot":
            out.append(f"rot {k} plane={plane} theta={theta!r}")
        elif kind == "mg":
            ga, gb = next(mgs)
            out.append(f"mg {k} a={_reals(ga)} b={_reals(gb)}")
        else:
            out.append(f"{kind} {k}")
    return "\n".join(out) + "\n"


def standardize_header(width: int, rng: np.random.Generator) -> tuple[str, int]:
    """A random input of odd weight and a random measure line, drawn so that
    standardize adds the same number of gates to every circuit.

    The odd weight makes standardize borrow a line, so pad has to widen the
    circuit.  Standardize adds a fixed count, minus the sum of the lines that
    hold a one, plus the measure line; that difference is held at its mean,
    so the cost of compressing one pool item does not depend on the draw.
    """
    ones = width // 2 - 1 + width // 2 % 2
    target = (ones - 1) * (width + 1) // 2
    while True:
        lines = rng.choice(width, ones, replace=False) + 1
        measure = int(rng.integers(1, width + 1))
        if lines.sum() - measure == target:
            return "".join("1" if q in lines else "0" for q in range(1, width + 1)), measure


def random_qc_ops(width: int, count: int, mix, rng: np.random.Generator, balanced=False) -> list:
    """(kind, lines, matrix or None) per gate, with the mix's gate counts.

    With `balanced`, every line is acted on equally often (rejection
    sampling, for short circuits): expand's output size depends mostly on
    how often the gates touch each line.
    """
    kinds = _kind_sequence(mix, count, rng)
    arity = [2 if kind in ("u2", "cu1") else 1 for kind in kinds]
    while True:
        if balanced:
            slots = rng.permutation(np.resize(np.arange(1, width + 1), sum(arity))).tolist()
            ends = np.cumsum(arity).tolist()
            lines = [tuple(slots[e - a : e]) for a, e in zip(arity, ends)]
        else:
            first = rng.integers(0, width, count)
            second = (first + rng.integers(1, width, count)) % width
            pairs = (np.stack([first, second], axis=1) + 1).tolist()
            lines = [tuple(pair[:a]) for pair, a in zip(pairs, arity)]
        if all(len(set(where)) == len(where) for where in lines):
            break
    one = _haar(2, count, rng)
    two = iter(_haar(4, kinds.count("u2"), rng))
    ops = []
    for kind, where, u in zip(kinds, lines, one):
        if kind == "u2":
            u = next(two)
        ops.append((kind, where, u if kind in ("u1", "u2", "cu1") else None))
    return ops


def inverse_ops(ops: list) -> list:
    return [(k, lines, None if u is None else u.conj().T) for k, lines, u in reversed(ops)]


def qc_text(width: int, inp: str, ops: list) -> str:
    out = [f"circuit qc width={width} input={inp}"]
    for kind, lines, u in ops:
        out.append(" ".join([kind, *map(str, lines)] + ([] if u is None else ["m=" + _reals(u)])))
    return "\n".join(out) + "\n"


# --- parser and readouts for the checks -------------------------------------


@dataclass
class Circuit:
    """Header fields plus, per gate, (lines, dense unitary).

    `lines` are 1-based and the first listed line is the most significant
    tensor factor; an mg gate on pair k acts on (k, k+1).  `measure` is None
    for qc circuits, which are read on line 1.
    """

    width: int
    input: str
    measure: int | None
    gates: list[tuple[tuple[int, ...], np.ndarray]]


def parse(text: str) -> Circuit:
    """Read comment-free circuit text, as the generators and the CLI write it."""
    rows = text.splitlines()
    head = dict(tok.split("=", 1) for tok in rows[0].split()[2:])
    kinds, lines, reals = [], [], []
    for row in rows[1:]:
        kind, *rest = row.split()
        kinds.append(kind)
        lines.append(tuple(int(t) for t in rest if "=" not in t))
        reals.extend(t.partition("=")[2] for t in rest if "=" in t)
    # One conversion for every number in the file; each gate then takes its
    # share in order (rot: plane, theta; the rest: re, im per matrix entry).
    flat = np.array(",".join(reals).split(","), dtype=float) if reals else np.empty(0)
    sizes = np.array([_NUMBERS.get(k, 0) for k in kinds], dtype=int)
    if sizes.sum() != flat.size:
        raise ValueError("circuit text does not match its gate kinds")
    starts = np.cumsum(sizes) - sizes
    us: list = [None] * len(kinds)
    kind_of = np.array(kinds)
    for kind in set(kinds):
        pick = np.flatnonzero(kind_of == kind)
        if kind in _FIXED:
            batch = [_FIXED[kind]] * len(pick)
        else:
            batch = _unitaries(kind, flat[starts[pick][:, None] + np.arange(_NUMBERS[kind])])
        for i, u in zip(pick.tolist(), batch):
            us[i] = u
    if "measure" in head:
        lines = [(k[0], k[0] + 1) for k in lines]
    measure = int(head["measure"]) if "measure" in head else None
    return Circuit(int(head["width"]), head["input"], measure, list(zip(lines, us)))


def _unitaries(kind: str, vals: np.ndarray) -> np.ndarray:
    """Dense unitaries of one parametrized gate kind, one row of reals each."""
    if kind == "rot":
        half = vals[:, 1, None, None] / 2
        return np.cos(half) * np.eye(4) + np.sin(half) * _PLANE_PRODUCTS[vals[:, 0].astype(int) - 1]
    z = vals[:, 0::2] + 1j * vals[:, 1::2]
    if kind == "mg":
        u = np.zeros((len(z), 4, 4), dtype=complex)
        u[:, _MG_SLOTS[0], _MG_SLOTS[1]] = z
    elif kind == "cu1":
        u = np.tile(np.eye(4, dtype=complex), (len(z), 1, 1))
        u[:, 2:, 2:] = z.reshape(-1, 2, 2)
    else:
        d = math.isqrt(z.shape[1])
        u = z.reshape(-1, d, d)
    return u


def statevector_z(c: Circuit, line: int) -> float:
    """<Z_line> after applying every gate to the basis input, densely."""
    w = c.width
    psi = np.zeros(2**w, dtype=complex)
    psi[int(c.input, 2)] = 1.0
    index: dict[tuple[int, ...], np.ndarray] = {}
    for lines, u in c.gates:
        idx = index.get(lines)
        if idx is None:
            idx = index[lines] = _gate_index(lines, w)
        psi[idx] = u @ psi[idx]
    probs = (np.abs(psi) ** 2).reshape(2 ** (line - 1), 2, -1)
    return float(probs[:, 0].sum() - probs[:, 1].sum())


def _gate_index(lines: tuple[int, ...], width: int) -> np.ndarray:
    """Amplitude indices (2^j, 2^(w-j)): row r sets the gate lines to r's bits."""
    masks = [1 << (width - q) for q in lines]
    free = np.arange(2**width)
    free = free[(free & sum(masks)) == 0]
    j = len(lines)
    rows = [free | sum(m for pos, m in enumerate(masks) if r >> (j - 1 - pos) & 1) for r in range(2**j)]
    return np.stack(rows)


def rotation_z(c: Circuit) -> float:
    """<Z_measure> of an mg circuit from its SO(2n) rotation R = R_N ... R_1.

    <Z_k> = (R S R^T)[2k, 2k-1] (1-based) with S the input's pairing matrix.
    Each R_t[j, l] = (1/4) Re tr(U^dag c'_j U c'_l); only the two rows of R
    that the readout needs are accumulated, right to left.
    """
    us = np.stack([u for _, u in c.gates])
    m = us.conj().transpose(0, 2, 1)[:, None] @ (_MAJORANA[None] @ us[:, None])
    rots = 0.25 * np.einsum("tjpq,lqp->tjl", m, _MAJORANA).real
    k = c.measure
    v = np.zeros((2 * c.width, 2))
    v[2 * k - 2, 0] = v[2 * k - 1, 1] = 1.0
    for t in range(len(c.gates) - 1, -1, -1):
        w = 2 * c.gates[t][0][0] - 2
        v[w : w + 4] = rots[t].T @ v[w : w + 4]
    signs = 1.0 - 2.0 * np.array([int(b) for b in c.input])
    # (S a)[2m] = s_m a[2m-1] and (S a)[2m-1] = -s_m a[2m] (1-based).
    sa = np.empty(2 * c.width)
    sa[1::2] = signs * v[0::2, 0]
    sa[0::2] = -signs * v[1::2, 0]
    return float(v[:, 1] @ sa)


def reference_z(c: Circuit) -> float:
    """The readout a request on input `c` must reproduce, computed here."""
    return rotation_z(c) if c.measure is not None else statevector_z(c, 1)


# --- requests and their checks ----------------------------------------------


@dataclass
class Verdict:
    ok: bool
    err: float
    out_gates: int


@dataclass
class Item:
    """One pool entry: the CLI calls of one request and how to check them."""

    calls: list[list[str]]
    inputs: list[Path]
    outputs: list[Path]
    in_gates: int
    # (stdouts of the checked run, its saved outputs) -> Verdict
    check: Callable[[list[str], list[Path]], Verdict]


def read_fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split())


def _verdict(pairs: list[tuple[float, float]], out_gates: int, sane: bool = True) -> Verdict:
    err = max(abs(a - b) for a, b in pairs)
    return Verdict(sane and err <= CHECK_TOL, err, out_gates)


def _check_simulate(src: Path, stdouts: list[str], _outs: list[Path]) -> Verdict:
    c = parse(src.read_text())
    f = {k: float(v) for k, v in read_fields(stdouts[0]).items()}
    z = reference_z(c)
    return _verdict([(f["z"], z), (f["p0"], (1 + z) / 2), (f["p1"], (1 - z) / 2)], len(c.gates))


def _check_compress(src: Path, stdouts: list[str], outs: list[Path]) -> Verdict:
    c, q = parse(src.read_text()), parse(outs[0].read_text())
    sane = int(read_fields(stdouts[0])["out_gates"]) == len(q.gates) and q.input == "0" * q.width
    return _verdict([(statevector_z(q, 1), reference_z(c))], len(q.gates), sane)


def _check_expand(src: Path, stdouts: list[str], _outs: list[Path]) -> Verdict:
    out_gates = int(read_fields(stdouts[0])["out_gates"])
    f = read_fields(stdouts[1])
    z = reference_z(parse(src.read_text()))
    return _verdict([(float(f["lhs"]), z), (float(f["rhs"]), z)], out_gates, f["pass"] == "true")


def _check_oracle(a: Path, b: Path, stdouts: list[str], _outs: list[Path]) -> Verdict:
    f = read_fields(stdouts[0])
    ca, cb = parse(a.read_text()), parse(b.read_text())
    za, zb = reference_z(ca), reference_z(cb)
    pairs = [(float(f["lhs"]), za), (float(f["rhs"]), zb), (za, zb)]
    # A verify request emits no circuit: its output is the input's readout.
    return _verdict(pairs, len(ca.gates) + len(cb.gates), f["pass"] == "true")


def make_items(workload: str, size: str, seed: int, workdir: Path) -> list[Item]:
    """Write the workload's input pool under `workdir` and return its items."""
    spec = SIZES[size][workload]
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    width, count = spec["width"], spec["gates"]
    items = []
    for i in range(spec["pool"]):
        if workload == "simulate-wide":
            src = workdir / f"wide-{i}.mg"
            src.write_text(random_mg(width, count, rng))
            check = lambda so, outs, src=src: _check_simulate(src, so, outs)
            items.append(Item([["simulate", str(src)]], [src], [], count, check))
        elif workload == "compress-std":
            src, out = workdir / f"std-{i}.mg", workdir / f"std-{i}.qc"
            src.write_text(random_mg(width, count, rng, standardize_header(width, rng)))
            check = lambda so, outs, src=src: _check_compress(src, so, outs)
            items.append(Item([["compress", str(src), str(out)]], [src], [out], count, check))
        elif workload == "expand-verify":
            src, wide = workdir / f"small-{i}.qc", workdir / f"wide-{i}.mg"
            ops = random_qc_ops(width, count, EXPAND_MIX, rng, balanced=True)
            src.write_text(qc_text(width, _bits(width, rng), ops))
            calls = [["expand", str(src), str(wide)], ["verify", str(wide), str(src), "--lhs", "mgsim"]]
            check = lambda so, outs, src=src: _check_expand(src, so, outs)
            items.append(Item(calls, [src], [wide], count, check))
        else:
            ops = random_qc_ops(width, count, ORACLE_MIX, rng)
            seg = random_qc_ops(width, spec["segment"], ORACLE_MIX, rng)
            inp = _bits(width, rng)
            a, b = workdir / f"a-{i}.qc", workdir / f"b-{i}.qc"
            a.write_text(qc_text(width, inp, ops))
            b.write_text(qc_text(width, inp, ops + seg + inverse_ops(seg)))
            check = lambda so, outs, a=a, b=b: _check_oracle(a, b, so, outs)
            in_gates = 2 * count + 2 * spec["segment"]
            items.append(Item([["verify", str(a), str(b)]], [a, b], [], in_gates, check))
    return items
