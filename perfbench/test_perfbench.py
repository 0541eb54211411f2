"""Self-test of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root; it takes about two minutes::

    python3 -m pytest perfbench/test_perfbench.py -q

It runs every workload for one second per process, traced and untraced,
and checks the printed result against ``BENCHMARK.json``; feeds corrupted
outputs to the output checks; and runs the benchmark where the program
is missing, which must fail without a result.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_op_rates_are_taken_at_the_reference_host_speed():
    # Two ops of 100 units in 1 s: one on a host 20% slower than the
    # reference (so 120/s there), one 20% faster (80/s there).
    reports = [
        {"ops": [[100, 1.0, 1.2]], "setup_s": 1.0, "peak_rss_mb": 50.0},
        {"ops": [[100, 1.0, 0.8], [100, 1.0, 0.8]], "setup_s": 3.0, "peak_rss_mb": 70.0},
    ]
    assert run.end_to_end(reports) == {
        "norm_ops_per_s": 80.0, "setup_s": 2.0, "peak_rss_mb": 60.0,
    }
    assert run._rates(reports, normalized=False) == [100.0, 100.0, 100.0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0.0
    if workloads.load_reference(HERE / "reference.json") is not None:
        # Seed 0 is recorded, so every op was compared bit for bit.
        assert " 0 ops compared" not in lines[0], lines[0]


def _op_output(workload: str, tmp_path: Path) -> dict:
    bench = workloads.make_workload(workload, 0, None, tmp_path)
    try:
        return bench.op(1).output
    finally:
        bench.close()


def _corruptions(workload: str, output: dict):
    """(description, corrupted output, reference) triples that must fail."""
    def changed(**fields):
        bad = copy.deepcopy(output)
        bad.update(fields)
        return bad

    if workload == "collect":
        digests = list(output["digests"])
        digests[1] = digests[1][::-1]
        return [
            ("dataset content", changed(digests=digests), output),
            ("row count", changed(rows=[1319, 1584]), None),
            ("non-finite time", changed(bad_times=[0, 1]), None),
        ]
    if workload == "evaluate":
        mpe = output["mpe"]
        return [
            ("one MPE off by an ulp",
             changed(mpe=dict(mpe, **{"neural/C": math.nextafter(mpe["neural/C"], 0.0)})),
             output),
            ("neural/F not below linear/F",
             changed(mpe=dict(mpe, **{"neural/F": mpe["linear/F"]})), None),
            ("missing grid cell",
             changed(mpe={k: v for k, v in mpe.items() if k != "linear/A"}), None),
        ]
    return [
        ("placements", changed(digest=output["digest"][::-1]), output),
        ("one job never completed", changed(completed=output["jobs"] - 1), None),
        ("a job completed twice", changed(completions=output["jobs"] + 1), None),
        ("non-2xx response", changed(non_2xx=1), None),
        ("request counts unavailable", changed(non_2xx=None), None),
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_output_checks_fail_on_corrupted_output(workload, tmp_path):
    output = _op_output(workload, tmp_path)
    assert workloads.check(workload, output, None) == (0, [])
    assert workloads.check(workload, output, output) == (0, [])
    for description, bad, reference in _corruptions(workload, output):
        failed, errors = workloads.check(workload, bad, reference)
        assert failed > 0 and errors, description


def test_non_2xx_reads_a_servers_request_counts(tmp_path):
    from repro.serve import ClientError, ModelRegistry, PredictionClient, ServerThread

    with ServerThread(ModelRegistry(tmp_path / "registry")) as handle:
        assert workloads._non_2xx(handle.server) == 0
        client = PredictionClient("127.0.0.1", handle.port)
        try:
            with pytest.raises(ClientError):
                client.predict({}, model="missing")
        finally:
            client.close()
        assert workloads._non_2xx(handle.server) == 1
    assert workloads._non_2xx(object()) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "collect", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
