"""Record the outputs the benchmark compares every op against.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

For each seed it runs, untimed and untraced, the ops a worker process
runs: ``collect`` and ``evaluate`` op indices ``0..N`` (the warm-up plus
at least as many timed ops as a process reaches), and one ``schedule``
stream (every ``schedule`` op of a seed places and completes the same
jobs).  The file records the numeric environment it was made in; workers
elsewhere fall back to the seed-independent invariants.  Re-record only
for a change meant to change outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import shutil
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
#: Op indices recorded per seed (index 0 is the warm-up).
OPS = {"collect": 14, "evaluate": 8, "schedule": 1}
#: Seeds 0..SEEDS-1 are recorded.
SEEDS = 32


def record_seed(seed: int) -> dict:
    """Every recorded output of one seed, per workload."""
    outputs = {}
    work_root = HERE.parent / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=work_root))
    try:
        for name, count in OPS.items():
            workload = workloads.make_workload(name, seed, None, workdir)
            try:
                fields = workloads.REFERENCE_FIELDS[name]
                ops = []
                for index in range(count):
                    output = workload.op(index).output
                    ops.append({key: output[key] for key in fields})
            finally:
                workload.close()
            outputs[name] = ops[0] if name == "schedule" else ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outputs


def main() -> None:
    seeds = list(range(SEEDS))
    with multiprocessing.get_context("spawn").Pool() as pool:
        per_seed = pool.map(record_seed, seeds)
    reference = {"fingerprint": workloads.fingerprint()}
    for name in OPS:
        reference[name] = {
            str(seed): outputs[name] for seed, outputs in zip(seeds, per_seed)
        }
    with contextlib.suppress(OSError):
        (HERE.parent / ".perfbench-work").rmdir()
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(seeds)} seeds)")


if __name__ == "__main__":
    main()
