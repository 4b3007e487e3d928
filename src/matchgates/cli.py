"""Command-line interface.

Subcommands: simulate, standardize, compress, expand, verify, gen-random.
Exit codes: 0 success, 1 internal error, 2 parse, validation or argument error,
3 resource guard refusal, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import compress as compress_mod
from . import expand as expand_mod
from . import oracle, randgen, simulate
from .standardize import standardize
from .circuits import (
    CircuitError,
    GuardError,
    ParseError,
    ValidationError,
    parse_circuit,
    serialize_circuit,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4


def _load(path: str):
    return parse_circuit(Path(path).read_text())


def _store(path: str, circuit) -> None:
    Path(path).write_text(serialize_circuit(circuit))


def _nonnegative(kind):
    """An argparse type: a finite `kind` (int or float) >= 0."""

    def number(text: str):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
        return value

    return number


def cmd_simulate(args) -> int:
    circuit = _load(args.circuit)
    if args.method == "fast":
        z = simulate.simulate_expectation(circuit)
    else:
        z = simulate.simulate_expectation_reference(circuit)
    p0, p1 = simulate.distribution_from_expectation(z)
    print(f"z={z:.15g} p0={p0:.15g} p1={p1:.15g}")
    return EXIT_OK


def _summary(before, after) -> str:
    ratio = len(after.gates) / max(len(before.gates), 1)
    return (
        f"in_width={before.width} out_width={after.width} "
        f"in_gates={len(before.gates)} out_gates={len(after.gates)} "
        f"ratio={ratio:.6g}"
    )


def cmd_standardize(args) -> int:
    circuit = _load(args.circuit)
    out = standardize(circuit)
    _store(args.output, out)
    added = len(out.gates) - len(circuit.gates)
    print(f"{_summary(circuit, out)} added={added}")
    return EXIT_OK


def cmd_compress(args) -> int:
    circuit = _load(args.circuit)
    prepped = circuit if args.strict else compress_mod.pad_to_power_of_two(standardize(circuit))
    out = compress_mod.compress_circuit(prepped)
    _store(args.output, out)
    print(_summary(circuit, out))
    return EXIT_OK


def cmd_expand(args) -> int:
    circuit = _load(args.circuit)
    guard = expand_mod.EXPAND_FORCED_MAX_WIDTH if args.force else expand_mod.EXPAND_MAX_WIDTH
    out = expand_mod.expand_circuit(circuit, width_guard=guard)
    _store(args.output, out)
    print(_summary(circuit, out))
    return EXIT_OK


def cmd_verify(args) -> int:
    ca = _load(args.circuit_a)
    cb = _load(args.circuit_b)
    line_a, line_b = args.lines if args.lines else (None, None)
    report = oracle.verify_equivalent(
        ca,
        cb,
        tol=args.tol,
        line_a=line_a,
        line_b=line_b,
        engine_a=args.lhs,
        engine_b="oracle",
    )
    print(report.line())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_gen_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.flavor == "mg":
        circuit = randgen.random_matchgate_circuit(
            args.width, args.size, rng, kinds="haar", cover=False
        )
    else:
        circuit = randgen.random_general_circuit(args.width, args.size, rng, kinds="haar")
    _store(args.output, circuit)
    print(f"flavor={args.flavor} width={args.width} gates={args.size} seed={args.seed}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgates",
        description="Simulate, standardize and cross-compile matchgate circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="matchgate readout in polynomial time")
    p.add_argument("circuit", help="mg circuit file")
    p.add_argument("--method", choices=("fast", "reference"), default="fast")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("standardize", help="rewrite to all-zero input, line-1 readout")
    p.add_argument("circuit", help="mg circuit file")
    p.add_argument("output", help="where to write the standardized circuit")
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("compress", help="compile mg circuit onto log-many qubits")
    p.add_argument("circuit", help="mg circuit file")
    p.add_argument("output", help="where to write the compiled qc circuit")
    p.add_argument(
        "--strict",
        action="store_true",
        help="refuse inputs that are not already standardized and power-of-two wide",
    )
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("expand", help="compile qc circuit into a wide mg circuit")
    p.add_argument("circuit", help="qc circuit file")
    p.add_argument("output", help="where to write the compiled mg circuit")
    p.add_argument(
        "--force",
        action="store_true",
        help=f"raise the width guard to {expand_mod.EXPAND_FORCED_MAX_WIDTH} qubits",
    )
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="compare <Z> readouts of two circuit files")
    p.add_argument("circuit_a")
    p.add_argument("circuit_b")
    p.add_argument("--tol", type=_nonnegative(float), default=1e-9)
    p.add_argument(
        "--lines",
        type=int,
        nargs=2,
        metavar=("KA", "KB"),
        default=None,
        help="measured lines for the two circuits (default: each file's header)",
    )
    p.add_argument(
        "--lhs",
        choices=("oracle", "mgsim"),
        default="oracle",
        help="engine for the first circuit (the second always uses the oracle)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-random", help="write a seeded random circuit")
    p.add_argument("flavor", choices=("mg", "qc"))
    p.add_argument("width", type=_nonnegative(int))
    p.add_argument("size", type=_nonnegative(int))
    p.add_argument("output")
    p.add_argument("--seed", type=_nonnegative(int), default=0)
    p.set_defaults(func=cmd_gen_random)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, ValidationError) as exc:
        print(f"invalid circuit: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
