"""Benchmark of the matchgates CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

One client drives `matchgates.cli.main(argv)` in this process, closed loop:
the next request starts when the previous one has returned.  Inputs come
from the seed (see workloads.py) and are written under perfbench/work/.  One
untimed request runs first.  The first request on each pool item is that
item's reference: it is checked once, after the timed loop, against readouts
computed without the program, and every other request must reproduce its
exit codes, stdout and output files byte for byte.  Times are scaled to a
reference machine speed (see Speed).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced requests and reports the per-layer metrics of
spans.py.  The last stdout line is the JSON result; the lines before it are
the same numbers for people, and perfbench/work/<run>/result.json keeps the
samples, input sha256 digests and machine facts.
"""

from __future__ import annotations

import os

# One client, one thread: BLAS pools would compete for the two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15
# The calibration loop's median time on the machine the benchmark was written
# on (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4).
REFERENCE_CALIBRATION_S = 0.025
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import matchgates.cli; "
    "print(time.perf_counter() - t)"
)


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "gates/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("ratio", "per_in_gate")):
        return "ratio"
    if name.endswith("err_max"):
        return "dimensionless"
    return "count"


def load_cli():
    """Import matchgates.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from matchgates import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import matchgates from {SRC}: {exc}") from None
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"matchgates was imported from {cli.__file__}, not from {SRC}")
    return cli


class Speed:
    """Scales measured times to a reference machine speed.

    On a shared 2-core box the same request takes up to 1.6 times longer from
    one minute to the next, which would swamp most changes to the program.  A
    fixed calibration loop (the checks' statevector loop on a fixed 6-qubit,
    6000-gate circuit; no matchgates code) runs between timed sections, and
    each section's time is scaled by REFERENCE_CALIBRATION_S over the mean of
    the calibrations just before and just after it.
    """

    def __init__(self):
        ops = workloads.random_qc_ops(6, 6000, workloads.ORACLE_MIX, np.random.default_rng(0))
        self._circuit = workloads.parse(workloads.qc_text(6, "0" * 6, ops))
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        start = perf_counter()
        workloads.statevector_z(self._circuit, 1)
        return perf_counter() - start

    def scale(self) -> float:
        """The factor for the section timed since the previous call."""
        before, self._last = self._last, self._calibrate()
        return 2 * REFERENCE_CALIBRATION_S / (before + self._last)


def setup_seconds(reps: int, speed: Speed) -> float:
    """Median time for a fresh interpreter to import matchgates.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps + 1):  # the first import may compile bytecode
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout) * speed.scale())
    return statistics.median(times[1:])


def machine_facts() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rev = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        rev = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "loadavg": os.getloadavg(),
    }


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_request(cli, item: workloads.Item) -> tuple[float, tuple]:
    """Latency of one request, and what it produced: exit codes, stdouts and
    output digests."""
    codes, stdouts = [], []
    start = perf_counter()
    for argv in item.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code if isinstance(exc.code, int) else 1
        codes.append(code)
        stdouts.append(buf.getvalue())
    latency = perf_counter() - start
    return latency, (tuple(codes), tuple(stdouts), tuple(sha256(p) for p in item.outputs))


def check(item: workloads.Item, produced: tuple) -> workloads.Verdict:
    codes, stdouts, _ = produced
    saved = [p.with_name(p.name + ".checked") for p in item.outputs]
    try:
        verdict = item.check([s.strip() for s in stdouts], saved)
    except (KeyError, ValueError, IndexError, OSError):  # unparsable output
        return workloads.Verdict(False, float("inf"), 0)
    verdict.ok = verdict.ok and all(c == 0 for c in codes)
    return verdict


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, to test the harness")
    args = ap.parse_args(argv)

    cli = load_cli()
    work = ROOT / "perfbench" / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    files = work / "files"
    shutil.rmtree(work, ignore_errors=True)
    files.mkdir(parents=True)
    try:
        return measure(cli, args, work, files)
    finally:
        shutil.rmtree(files, ignore_errors=True)


def measure(cli, args, work: Path, files: Path) -> int:
    facts = machine_facts()
    items = workloads.make_items(args.workload, "smoke" if args.smoke else "full", args.seed, files)
    inputs = {p.name: sha256(p) for item in items for p in item.inputs}
    speed = Speed()
    setup_s = setup_seconds(SETUP_REPS, speed) if not args.trace else None
    tracer = spans.Tracer() if args.trace else None

    # One untimed request lets lazy set-up finish.  The first request on each
    # item is its reference: checked after the loop, reproduced by the rest.
    references: dict[int, tuple] = {}

    def keep(index: int, produced: tuple) -> bool:
        if index not in references:
            references[index] = produced
            for p in items[index].outputs:
                shutil.copyfile(p, p.with_name(p.name + ".checked"))
        return produced == references[index]

    keep(0, run_request(cli, items[0])[1])
    speed.scale()
    samples = []  # (item index, scaled latency, reproduced the reference, traced, wall latency)
    deadline = perf_counter() + args.seconds
    # Every item runs at least once (twice when traced), however slow.
    least = max(2, len(items) * (1 + args.trace))
    while len(samples) < least or perf_counter() < deadline:
        n = len(samples)
        traced = bool(args.trace) and n % 2 == 1
        index = (n // 2 if args.trace else n) % len(items)
        gc.collect()
        with tracer.request(n) if traced else contextlib.nullcontext():
            latency, produced = run_request(cli, items[index])
        samples.append((index, latency * speed.scale(), keep(index, produced), traced, latency))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = {i: check(items[i], ref) for i, ref in sorted(references.items())}
    failed = sum(1 for i, _, same, *_ in samples if not (same and verdicts[i].ok))

    plain = [lat for _, lat, _, traced, _ in samples if not traced]
    if args.trace:
        scales = {n: s[1] / s[4] for n, s in enumerate(samples) if s[3]}
        traced_gates = {n: items[samples[n][0]].in_gates for n in scales}
        metrics = spans.layer_metrics(tracer.spans, traced_gates, scales)
        metrics["trace.overhead_ratio"] = statistics.median(
            lat for _, lat, _, traced, _ in samples if traced
        ) / statistics.median(plain)
        metrics["check.readout_abs_err_max"] = max(v.err for v in verdicts.values())
        (work / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        metrics = {
            "latency_p50_s": statistics.median(plain),
            "in_gates_per_s": sum(items[i].in_gates for i, *_ in samples) / sum(plain),
            "out_gates_per_in_gate": sum(v.out_gates for v in verdicts.values())
            / sum(items[i].in_gates for i in verdicts),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }

    result = {
        "correct": failed == 0 and all(v.ok for v in verdicts.values()),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "facts": facts,
        "inputs_sha256": inputs, "samples": samples,
        "verdicts": {i: vars(v) for i, v in verdicts.items()}, "result": result,
    }, indent=1))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={len(samples)} failed={failed} fail_ratio={failed / len(samples):.6g} ratio")
    print("machine " + json.dumps(facts))
    print("inputs_sha256 " + json.dumps(inputs))
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {unit_of(name)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
