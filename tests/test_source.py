"""Properties of the library source itself."""

import ast
import tokenize
from pathlib import Path

import matchgates

SOURCES = sorted(Path(matchgates.__file__).parent.glob("*.py"))


def test_library_code_has_no_assert_statements():
    # `python -O` strips assert, so a library check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_every_module_stays_below_the_compile_peak_token_count():
    # Every process compiles each module it imports (no bytecode is written
    # where PYTHONDONTWRITEBYTECODE is set), and compiling one of 8,192
    # tokens or more peaks higher: compile() of circuits.py traced 2.71 ->
    # 3.35 MiB when it crossed that count.
    counts = {}
    for path in SOURCES:
        with path.open("rb") as f:
            counts[path.name] = sum(1 for _ in tokenize.tokenize(f.readline))
    assert SOURCES and max(counts.values()) < 8192, counts


def test_only_the_oracle_calls_the_trace_formula():
    # simulate's batched closed form is the one matchgate -> SO(4) map; the
    # trace formula in algebra.py stays as the oracle that checks it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in ("algebra.py", "oracle.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "rotation_of_matchgate"
    ]
    assert SOURCES and not found, found


def test_only_givens_factor_recovers_angles():
    # Compilers carry each plane rotation as (a, b, theta) from the one
    # factorization that computes theta; none rebuilds it from a 2x2 block.
    found = {
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in SOURCES
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("atan2", "arctan2")
    }
    assert found == {"algebra.givens_factor"}, found


def test_gate_objects_are_built_only_at_the_edge():
    # Inside the library a gate is a row of a GateColumns table.  A GateApp is
    # built only for a caller: one who reads a circuit's gates, calls a public
    # function that returns gates, or hands the line parser text that the
    # table reader doubts.
    builders = ("GateApp", "_gate", "_gate_apps")
    found = {
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in SOURCES
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in builders
    }
    edge = {
        "circuits._ParsedGates",
        "compress.compress_gate_stream",
        "compress.gray_converter_circuit",
        "expand.two_level_to_matchgates",
        "textformat._parse_gate",
    }
    assert "circuits._ParsedGates" in found and found <= edge, found - edge
