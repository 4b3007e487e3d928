"""End-to-end command-line behavior: outputs, files, and exit codes."""

import argparse
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import matchgates
from matchgates import circuits, cli, simulate
from matchgates.cli import main
from matchgates.circuits import parse_circuit

from conftest import record_gate_objects


GXX_CIRCUIT = "circuit mg width=2 input=00 measure=1\ngxx 1\n"
ROT_CIRCUIT = "circuit mg width=2 input=00 measure=2\nrot 1 plane=2 theta=0.9\n"
SMALL_QC = "circuit qc width=2 input=10\nh 1\ncu1 1 2 m=1,0,0,0,0,0,0,1\n"
# The directory that holds the matchgates package, for fresh interpreters.
SRC = os.path.dirname(os.path.dirname(matchgates.__file__))


def run_cli(*argv):
    return main(list(argv))


def test_simulate_prints_expectation_and_distribution(tmp_path, capsys):
    f = tmp_path / "c.mg"
    f.write_text(GXX_CIRCUIT)
    assert run_cli("simulate", str(f)) == 0
    out = capsys.readouterr().out.strip()
    assert out == "z=-1 p0=0 p1=1"


def test_simulate_methods_agree(tmp_path, capsys):
    f = tmp_path / "c.mg"
    f.write_text(ROT_CIRCUIT)
    assert run_cli("simulate", str(f)) == 0
    fast = capsys.readouterr().out
    assert run_cli("simulate", str(f), "--method", "reference") == 0
    ref = capsys.readouterr().out
    for a, b in zip(fast.split(), ref.split()):
        key_a, val_a = a.split("=")
        key_b, val_b = b.split("=")
        assert key_a == key_b
        assert float(val_a) == pytest.approx(float(val_b), abs=1e-12)


@pytest.mark.parametrize(
    "method, engine",
    [("fast", "simulate_expectation"), ("reference", "simulate_expectation_reference")],
)
def test_simulate_runs_the_simulation_once(tmp_path, capsys, monkeypatch, method, engine):
    f = tmp_path / "c.mg"
    f.write_text(ROT_CIRCUIT)
    calls = []
    real = getattr(simulate, engine)
    monkeypatch.setattr(simulate, engine, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert run_cli("simulate", str(f), "--method", method) == 0
    assert len(calls) == 1
    z, p0, p1 = (float(kv.split("=")[1]) for kv in capsys.readouterr().out.split())
    assert (p0, p1) == pytest.approx(simulate.distribution_from_expectation(z), abs=1e-14)


def _record_validations(monkeypatch) -> list:
    """Wrap circuits.validate; the returned list collects every circuit it
    sees (kept alive, so no two of them can share an id)."""
    seen = []
    real = circuits.validate
    monkeypatch.setattr(circuits, "validate", lambda c: seen.append(c) or real(c))
    return seen


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "{mg}", "{out}.qc"],
        ["compress", "{std}", "{out}.qc", "--strict"],
        ["expand", "{qc}", "{out}.mg"],
        ["verify", "{mg}", "{qc}"],
        ["verify", "{qc}", "{qc}"],
        ["verify", "{std}", "{std}", "--lhs", "mgsim"],
    ],
)
def test_no_circuit_object_is_validated_twice(tmp_path, capsys, monkeypatch, argv):
    files = {"mg": ROT_CIRCUIT, "std": GXX_CIRCUIT, "qc": SMALL_QC}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: str(tmp_path / name) for name in files}
    argv = [a.format(out=tmp_path / "out", **paths) for a in argv]
    seen = _record_validations(monkeypatch)
    assert run_cli(*argv) in (0, 4)
    assert seen
    assert len({id(c) for c in seen}) == len(seen)


def test_simulate_rejects_general_circuits(tmp_path, capsys):
    f = tmp_path / "c.qc"
    f.write_text(SMALL_QC)
    assert run_cli("simulate", str(f)) == 2


def test_missing_file_is_an_io_error(tmp_path):
    assert run_cli("simulate", str(tmp_path / "nope.mg")) == 2


def test_malformed_file_is_rejected(tmp_path):
    f = tmp_path / "bad.mg"
    f.write_text("circuit mg width=2 input=00\nw 1\n")  # missing measure=
    assert run_cli("simulate", str(f)) == 2


def test_standardize_writes_an_equivalent_standard_circuit(tmp_path, capsys):
    f = tmp_path / "c.mg"
    out = tmp_path / "std.mg"
    f.write_text("circuit mg width=2 input=11 measure=2\nw 1\n")
    assert run_cli("standardize", str(f), str(out)) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["in_width"] == "2"
    assert fields["out_width"] == "2"
    assert fields["in_gates"] == "1"
    assert fields["out_gates"] == "3"
    assert fields["added"] == "2"
    std = parse_circuit(out.read_text())
    assert std.input == "00" and std.measure_line == 1


def test_compress_reaches_the_logarithmic_width(tmp_path, capsys):
    f = tmp_path / "c.mg"
    out = tmp_path / "c.qc"
    assert run_cli("gen-random", "mg", "8", "10", str(f), "--seed", "7") == 0
    capsys.readouterr()
    assert run_cli("compress", str(f), str(out)) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["in_width"] == "8"
    assert fields["out_width"] == "6"  # log2(8) + 3
    compiled = parse_circuit(out.read_text())
    assert compiled.flavor == "qc" and compiled.width == 6
    # The compiled file verifies against the original via the streaming engine.
    assert run_cli("verify", str(f), str(out), "--lhs", "mgsim", "--tol", "1e-8") == 0


def test_compress_strict_refuses_non_standard_inputs(tmp_path):
    f = tmp_path / "c.mg"
    out = tmp_path / "c.qc"
    f.write_text("circuit mg width=2 input=01 measure=1\nw 1\n")
    assert run_cli("compress", str(f), str(out), "--strict") == 2
    assert run_cli("compress", str(f), str(out)) == 0


def test_expand_reaches_the_exponential_width(tmp_path, capsys):
    f = tmp_path / "c.qc"
    out = tmp_path / "c.mg"
    f.write_text(SMALL_QC)
    assert run_cli("expand", str(f), str(out)) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["in_width"] == "2"
    assert fields["out_width"] == "8"  # 2^(2+1)
    expanded = parse_circuit(out.read_text())
    assert expanded.flavor == "mg" and expanded.width == 8
    assert run_cli("verify", str(f), str(out), "--tol", "1e-8") == 0


def test_readme_expand_demo_emits_53_gates(tmp_path, capsys):
    f, out = tmp_path / "demo_small.qc", tmp_path / "demo_wide.mg"
    assert run_cli("gen-random", "qc", "2", "4", str(f), "--seed", "7") == 0
    capsys.readouterr()
    assert run_cli("expand", str(f), str(out)) == 0
    assert "out_gates=53 ratio=13.25" in capsys.readouterr().out
    assert run_cli("verify", str(out), str(f), "--lhs", "mgsim") == 0


@pytest.mark.parametrize(
    "width, size, seed, flags, out_gates, digest",
    [
        (2, 4, 7, [], 53, "7670ffc1166c0871845337f2916eaef6232b0b02c19a103417aeb7971a77cfed"),
        (4, 20, 1, [], 2035, "0a99ef0991fd1c021cf4360483d3121f4d340a44b784e630c567b91a81640c24"),
        (6, 10, 1, ["--force"], 26, "1650c9216aa84017e081b21e147414e5c5539de281b7ea421ffd6338122bbb76"),
    ],
    ids=["demo_wide", "e", "f"],
)
def test_expand_writes_the_pinned_bytes(tmp_path, capsys, width, size, seed, flags, out_gates, digest):
    # The same commands and sha256 digests as the CI workflow's expand step.
    src, out = tmp_path / "in.qc", tmp_path / "out.mg"
    assert run_cli("gen-random", "qc", str(width), str(size), str(src), "--seed", str(seed)) == 0
    capsys.readouterr()
    assert run_cli("expand", str(src), str(out), *flags) == 0
    assert f"out_gates={out_gates} " in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_expand_guard_and_force(tmp_path, capsys):
    f = tmp_path / "wide.qc"
    out = tmp_path / "wide.mg"
    f.write_text("circuit qc width=5 input=00000\nh 1\n")
    assert run_cli("expand", str(f), str(out)) == 3
    assert run_cli("expand", str(f), str(out), "--force") == 0
    # --force has its own ceiling, checked before anything is built.
    f.write_text(f"circuit qc width=20 input={'0' * 20}\nh 1\n")
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run_cli("expand", str(f), str(out), "--force") == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("guard: ")


def test_expand_force_refuses_a_gate_count_over_the_guard(tmp_path, capsys, rng):
    # 160 two-qubit gates at 8 qubits would emit about 2.5M gates: refused
    # from the count, before any is emitted.
    gates = []
    for _ in range(160):
        q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lines = tuple(int(x) + 1 for x in rng.choice(8, 2, replace=False))
        gates.append(circuits.GateApp("u2", lines, circuits.reals_from_complex(np.linalg.qr(q)[0])))
    f, out = tmp_path / "u2.qc", tmp_path / "u2.mg"
    f.write_text(circuits.serialize_circuit(circuits.GeneralCircuit(8, tuple(gates), "0" * 8)))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run_cli("expand", str(f), str(out), "--force") == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("guard: ")
    assert not out.exists()


def test_simulate_of_a_parsed_file_builds_no_gate_objects(tmp_path, capsys, monkeypatch, rng):
    from matchgates import randgen

    f = tmp_path / "c.mg"
    f.write_text(circuits.serialize_circuit(randgen.random_matchgate_circuit(9, 600, rng)))
    built = record_gate_objects(monkeypatch)
    assert run_cli("simulate", str(f)) == 0
    assert run_cli("simulate", str(f), "--method", "reference") == 0
    assert built == []  # both paths read the parser's table
    fast, reference = (float(line.split()[0][2:]) for line in capsys.readouterr().out.splitlines())
    assert abs(fast - reference) <= 1e-9


def test_simulate_of_a_commented_file_builds_no_gate_objects(tmp_path, capsys, monkeypatch, rng):
    from matchgates import randgen

    text = circuits.serialize_circuit(randgen.random_matchgate_circuit(9, 600, rng))
    f, bare = tmp_path / "c.mg", tmp_path / "bare.mg"
    f.write_text("# hand-edited\n" + text.replace("\n", "  # gate\n", 300))
    bare.write_text(text)
    built = record_gate_objects(monkeypatch)
    assert run_cli("simulate", str(f)) == 0
    assert run_cli("simulate", str(bare)) == 0
    assert built == []
    commented, plain = capsys.readouterr().out.splitlines()
    assert commented == plain


def test_verify_of_parsed_qc_files_builds_no_gate_objects(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.qc", tmp_path / "b.qc"
    assert run_cli("gen-random", "qc", "5", "700", str(a), "--seed", "3") == 0
    b.write_text(a.read_text() + "x 2\nx 2\n")
    built = record_gate_objects(monkeypatch)
    assert run_cli("verify", str(a), str(b), "--tol", "1e-12") == 0
    assert built == []
    assert capsys.readouterr().out.rstrip().endswith("pass=true")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{mg}"],
        ["standardize", "{mg}", "{out}"],
        ["compress", "{mg}", "{out}"],
        ["expand", "{qc}", "{out}"],
        ["verify", "{qc}", "{qc}"],
        ["gen-random", "mg", "9", "300", "{out}", "--seed", "2"],
        ["gen-random", "qc", "3", "300", "{out}", "--seed", "2"],
    ],
    ids=["simulate", "standardize", "compress", "expand", "verify", "gen-random-mg", "gen-random-qc"],
)
def test_no_subcommand_builds_a_gate_object_for_a_serializer_form_file(tmp_path, monkeypatch, argv):
    from matchgates import randgen

    rng = np.random.default_rng(5)
    mg, qc, out = tmp_path / "c.mg", tmp_path / "c.qc", tmp_path / "out"
    # An odd count of ones and a measure line past 1, so standardize (and
    # compress, which standardizes first) adds gates; ones in the qc input,
    # which expand folds into x gates.
    odd = randgen.random_matchgate_circuit(9, 300, rng, "011010101", 4)
    mg.write_text(circuits.serialize_circuit(odd))
    qc.write_text(circuits.serialize_circuit(randgen.random_general_circuit(3, 12, rng, "101")))
    built = record_gate_objects(monkeypatch)
    assert run_cli(*(arg.format(mg=mg, qc=qc, out=out) for arg in argv)) == 0
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{qc}", "{qc}", "--lhs", "mgsim"],
        ["verify", "{qc}", "{qc}", "--lines", "1", "9"],
        ["verify", "{qc}", "{qc}", "--lines", "0", "1"],
        ["verify", "{qc}", "{qc}", "--tol", "nan"],
        ["verify", "{qc}", "{qc}", "--tol", "-1"],
        ["verify", "{qc}", "{qc}", "--tol", "inf"],
        ["gen-random", "mg", "1", "10", "{out}"],
        ["gen-random", "qc", "0", "10", "{out}"],
        ["gen-random", "mg", "3", "-2", "{out}"],
        ["gen-random", "qc", "-1", "3", "{out}"],
        ["gen-random", "mg", "3", "5", "{out}", "--seed", "-1"],
    ],
)
def test_bad_arguments_exit_2(tmp_path, capsys, argv):
    qc = tmp_path / "c.qc"
    qc.write_text(SMALL_QC)
    argv = [a.format(qc=qc, out=tmp_path / "out") for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 2
    assert "internal error" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{qc}"],
        ["simulate", "{qc}", "--method", "reference"],
        ["standardize", "{qc}", "{out}"],
        ["compress", "{qc}", "{out}"],
        ["compress", "{qc}", "{out}", "--strict"],
        ["expand", "{mg}", "{out}"],
        ["compress", "{odd}", "{out}", "--strict"],
        ["verify", "{mg}", "{mg}", "--lines", "0", "1"],
        ["verify", "{mg}", "{mg}", "--lines", "3", "1"],
        ["verify", "{mg}", "{mg}", "--lines", "0", "1", "--lhs", "mgsim"],
        ["verify", "{mg}", "{mg}", "--lines", "3", "1", "--lhs", "mgsim"],
        ["verify", "{mg}", "{mg}", "--lines", "1", "3", "--lhs", "mgsim"],
        ["verify", "{qc}", "{mg}", "--lhs", "mgsim"],
        ["gen-random", "mg", "1", "10", "{out}"],
        ["gen-random", "qc", "0", "10", "{out}"],
    ],
)
def test_caller_errors_exit_2_without_output(tmp_path, capsys, argv):
    # A valid circuit or argument that the command does not take: the wrong
    # flavor, a non-standard circuit under --strict, a line off the circuit,
    # a width too small to generate.
    files = {"qc": SMALL_QC, "mg": GXX_CIRCUIT, "odd": "circuit mg width=2 input=01 measure=1\nw 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: tmp_path / name for name in files}
    argv = [a.format(out=tmp_path / "out", **paths) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err and "internal error" not in err
    assert not (tmp_path / "out").exists()


def test_verify_detects_a_perturbed_angle(tmp_path, capsys):
    a = tmp_path / "a.mg"
    b = tmp_path / "b.mg"
    a.write_text(ROT_CIRCUIT)
    b.write_text(ROT_CIRCUIT.replace("theta=0.9", "theta=1.0"))
    assert run_cli("verify", str(a), str(b)) == 4
    assert "pass=false" in capsys.readouterr().out
    assert run_cli("verify", str(a), str(a)) == 0
    assert "pass=true" in capsys.readouterr().out


def test_verify_lines_override(tmp_path, capsys):
    a = tmp_path / "a.mg"
    b = tmp_path / "b.mg"
    # Same swap circuit, but headers measure different lines; pointing both
    # readouts at the same line restores agreement.
    a.write_text("circuit mg width=2 input=01 measure=1\nw 1\n")
    b.write_text("circuit mg width=2 input=01 measure=2\nw 1\n")
    assert run_cli("verify", str(a), str(b)) == 4
    capsys.readouterr()
    assert run_cli("verify", str(a), str(b), "--lines", "1", "1") == 0


def test_gen_random_is_deterministic(tmp_path, capsys):
    f1 = tmp_path / "one.mg"
    f2 = tmp_path / "two.mg"
    assert run_cli("gen-random", "mg", "4", "12", str(f1), "--seed", "5") == 0
    assert run_cli("gen-random", "mg", "4", "12", str(f2), "--seed", "5") == 0
    assert f1.read_bytes() == f2.read_bytes()
    circuit = parse_circuit(f1.read_text())
    assert circuit.width == 4 and len(circuit.gates) == 12
    assert all(g.kind == "mg" for g in circuit.gates)
    f3 = tmp_path / "three.mg"
    assert run_cli("gen-random", "mg", "4", "12", str(f3), "--seed", "6") == 0
    assert f1.read_bytes() != f3.read_bytes()


def test_gen_random_general_flavor(tmp_path, capsys):
    f = tmp_path / "g.qc"
    assert run_cli("gen-random", "qc", "3", "15", str(f), "--seed", "2") == 0
    circuit = parse_circuit(f.read_text())
    assert circuit.flavor == "qc"
    assert set(g.kind for g in circuit.gates) <= {"u1", "u2", "cu1"}


@pytest.mark.parametrize(
    "flavor, width, size",
    [("mg", 100_000_000_000, 1), ("mg", 4, 100_000_000_000), ("qc", 100_000_000, 1)],
)
def test_gen_random_refuses_a_huge_request_before_drawing(tmp_path, capsys, flavor, width, size):
    # Each would need gigabytes (or run until killed): refused from the
    # arguments, with nothing large allocated and no file written.
    out = tmp_path / "huge"
    tracemalloc.start()
    try:
        code = run_cli("gen-random", flavor, str(width), str(size), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak <= 2**20, peak
    assert capsys.readouterr().err.startswith("guard: ")
    assert not out.exists()


def test_installed_entry_point_runs(tmp_path):
    f = tmp_path / "c.mg"
    f.write_text(GXX_CIRCUIT)
    proc = subprocess.run(
        [sys.executable, "-m", "matchgates.cli", "simulate", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "z=-1 p0=0 p1=1"


def test_debug_prints_the_traceback_of_an_internal_error(tmp_path, capsys, monkeypatch):
    f = tmp_path / "c.mg"
    f.write_text(GXX_CIRCUIT)

    def broken(args):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    assert run_cli("simulate", str(f)) == 1
    assert capsys.readouterr().err == "internal error: planted fault\n"
    assert run_cli("--debug", "simulate", str(f)) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken" in err and err.endswith("RuntimeError: planted fault\n")
    assert "internal error" not in err
    # Other failures keep their exit code and message under --debug.
    argv = ("standardize", str(tmp_path / "missing.mg"), str(tmp_path / "out.mg"))
    assert run_cli(*argv) == 2
    plain = capsys.readouterr().err
    assert plain.startswith("io error:")
    assert run_cli("--debug", *argv) == 2
    assert capsys.readouterr().err == plain


@pytest.mark.parametrize("command", ["simulate", "standardize", "compress", "expand"])
def test_a_huge_width_with_a_short_input_exits_2(tmp_path, capsys, command):
    # The header fails before anything is allocated by its width.
    src, out = tmp_path / "huge.mg", tmp_path / "out"
    src.write_text("circuit mg width=100000000000 input=0 measure=1\n")
    assert main([command, str(src)] + ([] if command == "simulate" else [str(out)])) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "input length 1 != width 100000000000" in err
    assert "internal error" not in err and not out.exists()


def test_a_line_beyond_int64_exits_2_naming_its_line(tmp_path, capsys):
    src, out = tmp_path / "far.mg", tmp_path / "out.qc"
    src.write_text("circuit mg width=2 input=00 measure=1\nw 1\n\nw 99999999999999999999999\n")
    assert main(["compress", str(src), str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"invalid circuit: line 4: line out of range +-{2**62}\n"
    assert not out.exists()


def test_a_rot_plane_beyond_float_range_exits_2_naming_its_line(tmp_path, capsys):
    src = tmp_path / "big.mg"
    src.write_text(f"circuit mg width=2 input=00 measure=1\nrot 1 plane=1{'0' * 400} theta=0\n")
    assert main(["simulate", str(src)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == "invalid circuit: line 2: plane out of float range\n"


def test_repeated_calls_in_one_process_carry_no_state(tmp_path, capsys, monkeypatch):
    # One process runs main again and again, with flags set and then left
    # out and an argparse refusal in between; every call gives the exit
    # code, stdout, stderr and files of the same command in a fresh
    # interpreter.  Paths are relative, so the two runs print alike.
    calls = [
        ["verify", "r.mg", "r.mg", "--lines", "2", "1"],
        ["verify", "r.mg", "r.mg"],
        ["compress", "r.mg", "strict.qc", "--strict"],
        ["verify", "r.mg", "r.mg", "--tol", "-1"],
        ["compress", "r.mg", "plain.qc"],
        ["expand", "w5.qc", "forced.mg", "--force"],
        ["expand", "w5.qc", "guarded.mg"],
        ["simulate", "r.mg"],
    ]
    # Lines 1 and 2 of r.mg read opposite values; its input is not all-zero.
    r_mg = "circuit mg width=2 input=10 measure=1\nrot 1 plane=2 theta=0.9\n"
    w5_qc = "circuit qc width=5 input=00000\nh 1\ncu1 1 2 m=0,0,1,0,1,0,0,0\n"
    inputs = {"r.mg": r_mg, "w5.qc": w5_qc}
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for folder in (here, fresh):
        folder.mkdir()
        for name, text in inputs.items():
            (folder / name).write_text(text)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    want = []
    for argv in calls:
        command = [sys.executable, "-m", "matchgates.cli", *argv]
        proc = subprocess.run(command, cwd=fresh, env=env, capture_output=True, text=True)
        want.append((proc.returncode, proc.stdout, proc.stderr))

    inits, init = [], argparse.ArgumentParser.__init__
    spy = lambda *a, **kw: inits.append(len(got)) or init(*a, **kw)  # the call it came in
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.chdir(here)
    cli.build_parser.cache_clear()  # as in a new process: no parser yet
    got = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got.append((code, *capsys.readouterr()))
    assert got == want
    assert [code for code, _, _ in got] == [4, 0, 2, 2, 0, 0, 3, 0]
    # The parser and its six subparsers are built by the first call only.
    assert inits == [0] * 7
    assert sorted(p.name for p in here.iterdir()) == sorted(p.name for p in fresh.iterdir())
    assert not (here / "strict.qc").exists() and not (here / "guarded.mg").exists()
    for name in ("plain.qc", "forced.mg"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()
