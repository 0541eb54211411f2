"""One measured benchmark process, started by ``run.py``.

Sets up one workload, runs its untimed warm-up op (``collect`` and
``evaluate``), then runs timed ops back to back — a closed loop driven by
this one thread — until their timed regions add up to ``--seconds``.
Between ops it times :func:`host_seconds`.  Every op's output is checked.
The last stdout line is a JSON report: the monotonic clock reading when
the first timed op started (the parent subtracts its spawn time to get
``setup_s``), each op's units, seconds and host slowdown, the checks,
peak RSS and, when traced, every recorded span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: What :func:`host_seconds` takes on the reference host (a 2-vCPU Intel
#: Xeon VM, pinned to one CPU, at its usual speed); an op's host slowdown
#: is its measured time over this.
HOST_REFERENCE_S = 0.027


def host_seconds() -> float:
    """Time a fixed mix of interpreter and small-array numpy work.

    On a shared VM the host's speed swings by up to 1.7x within seconds:
    the same ``collect`` op took 0.43 s at one moment and 0.85 s at
    another.  This work is of the kinds the workloads do (an integer
    loop, 64x64 matrix products, a 64-element elementwise loop), takes
    about 27 ms, and runs on the op's thread and CPU while the program is
    idle, so it slows and speeds up with the host but not with the
    program.
    """
    matrix = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    vector = np.linspace(0.0, 1.0, 64)
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(300):
        matrix @ matrix
    for _ in range(2_000):
        vector = np.tanh(vector * 0.5 + 0.1)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    reference = workloads.load_reference(REFERENCE)
    recorder = layers.Recorder() if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    report = {
        "ops": [],
        "outputs": [],
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "reference_checked": 0,
        "reference_applicable": reference is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }

    def record(index: int, result, host_slowdown: float | None = None) -> None:
        expected = workloads.reference_output(
            reference, args.workload, args.seed, index
        )
        failed, errors = workloads.check(args.workload, result.output, expected)
        report["reference_checked"] += expected is not None
        report["errors"] += [f"op {index}: {e}" for e in errors]
        report["attempted"] += result.units
        report["failed"] += failed
        if host_slowdown is not None:
            report["ops"].append([result.units, result.seconds, host_slowdown])
            report["outputs"].append(result.output)

    try:
        workload = workloads.make_workload(
            args.workload, args.seed, recorder, args.workdir
        )
        try:
            index = 0
            if workload.warmup:
                record(index, workload.op(index))
            index += 1
            if recorder is not None:
                recorder.phase = "timed"
            report["first_op"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            before = host_seconds()
            timed = 0.0
            while timed < args.seconds:
                try:
                    result = workload.op(index)
                except Exception:  # the program failed this op: report it
                    report["errors"].append(traceback.format_exc(limit=4))
                    report["attempted"] += 1
                    report["failed"] += 1
                    break
                after = host_seconds()
                record(index, result, (before + after) / 2 / HOST_REFERENCE_S)
                before = after
                timed += result.seconds
                index += 1
        finally:
            workload.close()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        report["spans"] = [
            [span.name, span.phase, span.seconds, span.self_s, span.attrs]
            for span in recorder.spans()
        ]
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
