"""Microbenchmark — incremental suite runs against the artifact store.

Not a paper artifact; guards the property the suite subsystem exists
for: **a re-run with unchanged specs executes zero nodes** and resolves
everything from the content-addressed store.  Asserted directly on the
runner's report, plus a wall-clock floor: the warm run must be at least
5x faster than the cold run (in practice it is orders of magnitude —
the warm path is pure key hashing and manifest reads).

Also asserts the two other acceptance properties end to end:

* editing one case's spec re-runs only that case's chain, everything
  else stays cached;
* a second cold run into a fresh store produces bit-identical artifact
  bytes (the determinism discipline the store's content addressing
  depends on).

Each run appends cold/warm latencies and the speedup to
``results/BENCH_suite.json`` so the numbers form a trajectory across
sessions (uploaded as a CI artifact).

Set ``REPRO_SMOKE=1`` for the reduced configuration used by
``make bench-smoke`` (fewer targets/counts; the asserted properties are
identical).
"""

import copy
import os
import tempfile
import time
from pathlib import Path

from repro.suite import ArtifactStore, SuiteRunner, parse_suite

_SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

SPEC_DOC = {
    "suite": "bench",
    "defaults": {
        "machine": "e5649",
        "repetitions": 2 if _SMOKE else 10,
        "model_kinds": ["linear"] if _SMOKE else ["linear", "neural"],
        "feature_sets": ["F"],
    },
    "cases": [
        {
            "name": "base",
            "targets": ["cg", "sp"] if _SMOKE else ["cg", "sp", "lu", "mg"],
            "co_apps": ["ep", "lu"],
            "counts": [1, 2, 3],
            "frequencies_ghz": [2.53, 1.6],
        },
        {
            "name": "alt-seed",
            "targets": ["cg", "sp"] if _SMOKE else ["cg", "sp", "lu", "mg"],
            "co_apps": ["ep", "lu"],
            "counts": [1, 2, 3],
            "frequencies_ghz": [2.53, 1.6],
            "seed": 7,
        },
    ],
}

MIN_WARM_SPEEDUP = 5.0


def _blob_map(store: ArtifactStore) -> dict[str, bytes]:
    out = {}
    for key in store.node_keys():
        payload, manifest = store.read_node_payload(key)
        out[manifest.node_id] = payload
    return out


def test_suite_incremental(record):
    suite = parse_suite(SPEC_DOC)
    n_nodes = 2 * (1 + len(SPEC_DOC["defaults"]["model_kinds"]) + 1)

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp) / "store")

        # --- cold run: every node executes
        cold_started = time.perf_counter()
        cold = SuiteRunner(suite, store).run()
        cold_s = time.perf_counter() - cold_started
        assert cold.ok
        assert cold.executed == n_nodes and cold.skipped == 0

        # --- warm run: the acceptance property — ZERO nodes execute
        warm_started = time.perf_counter()
        warm = SuiteRunner(suite, store).run()
        warm_s = time.perf_counter() - warm_started
        assert warm.ok
        assert warm.executed == 0, (
            f"warm re-run executed {warm.executed} node(s); "
            f"expected 0:\n{warm.summary()}"
        )
        assert warm.skipped == n_nodes
        speedup = cold_s / warm_s
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm run only {speedup:.1f}x faster than cold "
            f"({warm_s * 1e3:.1f} ms vs {cold_s * 1e3:.1f} ms); "
            f"need >= {MIN_WARM_SPEEDUP}x"
        )

        # Snapshot before the edit run adds re-keyed alt-seed artifacts.
        first_blobs = _blob_map(store)

        # --- edit one case: only its chain re-runs
        edited_doc = copy.deepcopy(SPEC_DOC)
        edited_doc["cases"][1]["counts"] = [1, 2]
        edited = SuiteRunner(parse_suite(edited_doc), store).run()
        assert edited.ok
        assert edited.executed == n_nodes // 2
        assert edited.skipped == n_nodes // 2
        untouched = {r.node_id for r in edited.by_status("cached")}
        assert all(node_id.endswith(":base") or ":base:" in node_id
                   for node_id in untouched)

        # --- determinism: a fresh cold run is bit-identical
        other = ArtifactStore(Path(tmp) / "other")
        SuiteRunner(suite, other).run()
        for node_id, payload in _blob_map(other).items():
            assert first_blobs[node_id] == payload, (
                f"{node_id} differs between two cold runs"
            )

    record(
        "BENCH_suite.json",
        suite_nodes=n_nodes,
        cold_run_s=round(cold_s, 4),
        warm_run_s=round(warm_s, 6),
        warm_speedup=round(speedup, 1),
        warm_nodes_executed=warm.executed,
        smoke=_SMOKE,
    )
    print(
        f"\nsuite incremental: cold {cold_s * 1e3:.1f} ms, "
        f"warm {warm_s * 1e3:.2f} ms ({speedup:.0f}x), "
        f"{n_nodes} nodes, warm executed 0"
    )
