"""Benchmark of the paper's three pipeline stages: collect, evaluate, schedule.

Run one workload at one seed from the repository root::

    python3 perfbench/run.py --workload collect --seed 1 --seconds 20 --trace 0

Each run starts ``PROCESSES`` fresh worker processes one after another
(``worker.py``); each sets the workload up, then runs its share of
``--seconds`` of timed ops.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics:

* ``norm_ops_per_s`` — median over the run's timed ops of units per
  second at the reference host speed, where the unit is a Table V
  scenario (``collect``), a grid-cell fit (``evaluate``) or a stream job
  placed and run to completion (``schedule``): each op's rate times its
  host slowdown, the time of a fixed piece of work next to the op over
  that work's time on the reference host (``worker.host_seconds``);
* ``setup_s`` — median over the processes of the time from process
  start to the first timed op;
* ``peak_rss_mb`` — median over the processes of peak resident memory.

With ``--trace 1`` the run alternates untraced and traced processes and
reports the per-layer metrics of the traced ones (see ``README.md``),
plus ``obs.overhead_pct``: how much slower the traced processes' median
op was than the untraced ones', at the reference host speed.

BLAS is pinned to one thread and every worker to one CPU.  Exit status
0 means a result was printed (its ``correct`` field says whether every
output check passed); anything else means no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for worker processes (model registries), removed after each run.
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("collect", "evaluate", "schedule")

#: Fresh processes per run; ``setup_s`` and ``peak_rss_mb`` are their medians.
PROCESSES = 3
#: Whole-run deadline, inside the 180 s a run may take.
BUDGET_S = 170.0
BLAS_THREADS = "1"

END_TO_END_UNITS = {"norm_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "harness.collect.calls": "count",
    "harness.collect.busy_s": "s",
    "harness.collect.self_s": "s",
    "harness.collect.e5649.p50_ms": "ms",
    "harness.collect.e5-2697v2.p50_ms": "ms",
    "sim.run_batch.calls": "count",
    "sim.run_batch.scenarios": "count",
    "sim.run_batch.busy_s": "s",
    "sim.run_batch.iterations": "count",
    "sim.run_batch.us_per_iteration": "us",
    "core.fit.neural.fits": "count",
    "core.fit.neural.busy_s": "s",
    "core.fit.neural.p50_ms": "ms",
    "core.fit.linear.fits": "count",
    "core.fit.linear.busy_s": "s",
    "core.scg.iterations": "count",
    "core.scg.us_per_iteration": "us",
    "sim.solve.calls": "count",
    "sim.solve.misses": "count",
    "sim.solve.cache_hit_ratio": "ratio",
    "sim.solve.busy_s": "s",
    "sim.solve.iterations": "count",
    "serve.predict_rows.calls": "count",
    "serve.predict_rows.rows": "count",
    "serve.predict_rows.busy_s": "s",
    "serve.predict_rows.p50_ms": "ms",
    "serve.predict_rows.p90_ms": "ms",
    "sched.self_s": "s",
    "sched.placements": "count",
    "sched.migrations": "count",
    "sched.rows_per_placement": "count",
    "registry.push.busy_s": "s",
    "obs.overhead_pct": "%",
    "bench.setup_s": "s",
    "bench.timed_s": "s",
    "bench.ops_per_s": "1/s",
    "bench.host_slowdown": "ratio",
}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _worker(args, traced: bool, index: int, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    # A traced run splits --seconds over twice as many processes, so it
    # takes about as long as an untraced one.
    share = args.seconds / (PROCESSES * (1 + args.trace))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(share),
        "--trace", str(int(traced)),
        "--workdir", str(workdir / str(index)),
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {index} did not finish within the run budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {index} exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {index} printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = report["first_op"] - spawned
    report["traced"] = traced
    return report


def _rates(reports: list[dict], normalized: bool = True) -> list[float]:
    """Units per second of every timed op, at the reference host speed or raw."""
    return [
        units / seconds * (slowdown if normalized else 1.0)
        for r in reports
        for units, seconds, slowdown in r["ops"]
    ]


def _host_slowdown(reports: list[dict]) -> float:
    return statistics.median(slowdown for r in reports for _u, _s, slowdown in r["ops"])


def end_to_end(reports: list[dict]) -> dict:
    return {
        "norm_ops_per_s": statistics.median(_rates(reports)),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def _percentile_ms(durations: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of durations, in ms."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return 1e3 * (ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(workload: str, untraced: list[dict], traced: list[dict]):
    """Per-layer metrics from the traced processes of one run.

    Span totals cover the whole traced process (set-up, warm-up and timed
    phase alike); ``bench.setup_s`` and ``bench.timed_s`` are the matching
    denominators.  ``sched.self_s`` is the timed phase minus the solve
    and predict time inside it: the scheduler's own work.  Returns the
    metrics and summary lines with each layer's self-time share per phase.
    """
    spans: dict[str, list] = {}
    for report in traced:
        for name, phase, seconds, self_s, attrs in report["spans"]:
            spans.setdefault(name, []).append((phase, seconds, self_s, attrs))

    def calls(name):
        return len(spans.get(name, ()))

    def busy(name):
        return sum(seconds for _p, seconds, _s, _a in spans.get(name, ()))

    def total(name, attr):
        return sum(attrs.get(attr, 0) for _p, _s, _s2, attrs in spans.get(name, ()))

    def p_ms(name, q, machine=None):
        return _percentile_ms(
            [
                seconds for _p, seconds, _s, attrs in spans.get(name, ())
                if machine is None or attrs.get("machine") == machine
            ],
            q,
        )

    timed_s = sum(seconds for r in traced for _units, seconds, _h in r["ops"])
    outputs = [o for r in traced for o in r["outputs"]]
    placements = sum(o.get("placements", 0) for o in outputs)
    sched_self_s = 0.0
    if workload == "schedule":
        sched_self_s = timed_s - busy("sim.solve") - busy("serve.predict_rows")
    untraced_rate = statistics.median(_rates(untraced))
    traced_rate = statistics.median(_rates(traced))
    metrics = {
        "harness.collect.calls": calls("harness.collect"),
        "harness.collect.busy_s": busy("harness.collect"),
        "harness.collect.self_s": sum(
            self_s for _p, _s, self_s, _a in spans.get("harness.collect", ())
        ),
        # Per machine: an e5-2697v2 sweep takes about twice an e5649 one,
        # so a median over both would fall between the two groups.
        "harness.collect.e5649.p50_ms": p_ms("harness.collect", 50, machine="e5649"),
        "harness.collect.e5-2697v2.p50_ms": p_ms(
            "harness.collect", 50, machine="e5-2697v2"
        ),
        "sim.run_batch.calls": calls("sim.run_batch"),
        "sim.run_batch.scenarios": total("sim.run_batch", "scenarios"),
        "sim.run_batch.busy_s": busy("sim.run_batch"),
        "sim.run_batch.iterations": total("sim.run_batch", "iterations"),
        "sim.run_batch.us_per_iteration": _ratio(
            busy("sim.run_batch"), total("sim.run_batch", "iterations"), 1e6
        ),
        "core.fit.neural.fits": total("core.fit.neural", "fits"),
        "core.fit.neural.busy_s": busy("core.fit.neural"),
        "core.fit.neural.p50_ms": p_ms("core.fit.neural", 50),
        "core.fit.linear.fits": total("core.fit.linear", "fits"),
        "core.fit.linear.busy_s": busy("core.fit.linear"),
        "core.scg.iterations": total("core.fit.neural", "scg_iterations"),
        "core.scg.us_per_iteration": _ratio(
            busy("core.fit.neural"), total("core.fit.neural", "scg_iterations"), 1e6
        ),
        "sim.solve.calls": calls("sim.solve"),
        "sim.solve.misses": total("sim.solve", "misses"),
        "sim.solve.cache_hit_ratio": _ratio(
            calls("sim.solve") - total("sim.solve", "misses"), calls("sim.solve")
        ),
        "sim.solve.busy_s": busy("sim.solve"),
        "sim.solve.iterations": total("sim.solve", "iterations"),
        "serve.predict_rows.calls": calls("serve.predict_rows"),
        "serve.predict_rows.rows": total("serve.predict_rows", "rows"),
        "serve.predict_rows.busy_s": busy("serve.predict_rows"),
        "serve.predict_rows.p50_ms": p_ms("serve.predict_rows", 50),
        "serve.predict_rows.p90_ms": p_ms("serve.predict_rows", 90),
        "sched.self_s": sched_self_s,
        "sched.placements": placements,
        "sched.migrations": sum(o.get("migrations", 0) for o in outputs),
        "sched.rows_per_placement": _ratio(
            total("serve.predict_rows", "rows"), placements
        ),
        "registry.push.busy_s": busy("registry.push"),
        "obs.overhead_pct": _ratio(untraced_rate - traced_rate, untraced_rate, 100.0),
        "bench.setup_s": sum(r["setup_s"] for r in traced),
        "bench.timed_s": timed_s,
        "bench.ops_per_s": statistics.median(_rates(traced, normalized=False)),
        "bench.host_slowdown": _host_slowdown(traced),
    }
    totals = {"setup": metrics["bench.setup_s"], "timed": timed_s}
    lines = []
    for phase, phase_total in totals.items():
        shares = {
            name: sum(self_s for p, _s, self_s, _a in entries if p == phase)
            for name, entries in spans.items()
        }
        if phase == "timed" and workload == "schedule":
            shares["sched"] = sched_self_s
        lines.append(
            f"# {phase} phase of traced processes ({phase_total:.2f} s), "
            "self-time shares: "
            + ", ".join(
                f"{name} {_ratio(seconds, phase_total, 100.0):.1f}%"
                for name, seconds in sorted(shares.items())
                if seconds > 0.0
            )
        )
    return metrics, lines


def run(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    deadline = time.monotonic() + BUDGET_S
    # Workers inherit this: every thread of a worker shares one CPU.  With
    # threads spread over two vCPUs, schedule ran 10-35% slower and swung
    # with the host's load (cross-CPU wake-ups); pinned, it held steady.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    plan = [False] * PROCESSES if not args.trace else [False, True] * PROCESSES
    workdir = WORK_ROOT / str(os.getpid())
    try:
        reports = [
            _worker(args, traced, i, workdir, deadline)
            for i, traced in enumerate(plan)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r["errors"]]
    ops = sum(len(r["ops"]) for r in reports)
    if ops == 0:
        raise BenchError("no timed op completed")
    compared = sum(r["reference_checked"] for r in reports)
    if not all(r["reference_applicable"] for r in reports):
        compared = "no ops compared (reference recorded in another numeric environment)"
    else:
        compared = f"{compared} ops compared with the recorded reference"
    print(
        f"# {args.workload} seed={args.seed}: {len(reports)} processes, "
        f"{ops} timed ops, blas_threads={reports[0]['blas_threads']}, {compared}"
    )
    print(
        f"# raw median {statistics.median(_rates(reports, normalized=False)):.6g} "
        f"units/s at a median host slowdown of {_host_slowdown(reports):.4f}"
    )
    for error in errors[:10]:
        print(f"# check failed: {error}")
    if args.trace:
        values, lines = per_layer(args.workload, untraced, traced)
        units = PER_LAYER_UNITS
        for line in lines:
            print(line)
    else:
        values, units = end_to_end(untraced), END_TO_END_UNITS
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
