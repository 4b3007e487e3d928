"""Tests of the benchmark harness itself (kept apart from the program's suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_generated_ones():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_exactly_the_declared_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = last_json_line(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", NAMES)
def test_a_wrong_reference_fails_the_requests(workload, monkeypatch, capsys):
    reference_z = workloads.reference_z
    monkeypatch.setattr(workloads, "reference_z", lambda c: reference_z(c) + 0.5)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"]
    assert run.main(argv) == 0
    result = last_json_line(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_inputs_are_the_recorded_ones(tmp_path):
    recorded = json.loads((HERE / "inputs.sha256.json").read_text())
    for workload, files in recorded["files"].items():
        items = workloads.make_items(workload, recorded["size"], recorded["seed"], tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for i in items for p in i.inputs}
        assert digests == files, workload


def test_tracer_refuses_a_function_that_is_gone(monkeypatch):
    gone = ("matchgates.circuits", "no_such_function", "circuits.gone", None)
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (gone,))
    with pytest.raises(RuntimeError, match="no_such_function"):
        spans.Tracer()


def test_self_time_excludes_direct_children():
    recorded = [
        ["cli", 0.0, 10.0, -1, 7, None],
        ["circuits.parse", 1.0, 5.0, 0, 7, {"gates": 3}],
        ["circuits.validate", 2.0, 3.0, 1, 7, {"gates": 3}],
        ["circuits.validate", 6.0, 8.0, 0, 7, {"gates": 3}],
    ]
    rows = spans.per_request(recorded)[7]
    assert rows["cli"]["self"] == pytest.approx(4.0)
    assert rows["circuits.parse"]["self"] == pytest.approx(3.0)
    assert rows["circuits.validate"] == {"self": pytest.approx(3.0), "calls": 2, "gates": 6}
