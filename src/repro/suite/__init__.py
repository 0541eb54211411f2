"""Declarative experiment suites with incremental, content-addressed runs.

``repro.suite`` turns the harness's one-shot drivers into a build
system for experiments:

* :mod:`~repro.suite.spec` — the declarative suite file (JSON/TOML):
  named cases with parameter-matrix expansion, validated into frozen
  :class:`CaseSpec` records;
* :mod:`~repro.suite.store` — a content-addressed
  :class:`ArtifactStore` where every artifact is keyed by the sha256 of
  its *inputs*, with a DAG of provenance manifests;
* :mod:`~repro.suite.dag` — the collect → train → eval node graph per
  case and the input-key computation;
* :mod:`~repro.suite.runner` — the incremental :class:`SuiteRunner`:
  skip nodes the store resolves, execute the rest, commit atomically
  after every node (killed runs resume for free), share the simulator's
  solve cache across runs and processes;
* :mod:`~repro.suite.stats` — ``repro_suite_*`` counters.

CLI: ``repro suite run | status | explain | gc``; see ``docs/suites.md``.
"""

from .dag import SuiteNode, build_nodes, key_material, node_input_key
from .runner import NodeResult, SuiteReport, SuiteRunner
from .spec import CaseSpec, SuiteSpec, SuiteSpecError, load_suite, parse_suite
from .stats import GLOBAL_SUITE_STATS, SuiteStats
from .store import ArtifactStore, GCReport, NodeManifest, StoreError

__all__ = [
    "ArtifactStore",
    "CaseSpec",
    "GCReport",
    "GLOBAL_SUITE_STATS",
    "NodeManifest",
    "NodeResult",
    "StoreError",
    "SuiteNode",
    "SuiteReport",
    "SuiteRunner",
    "SuiteSpec",
    "SuiteSpecError",
    "SuiteStats",
    "build_nodes",
    "key_material",
    "load_suite",
    "node_input_key",
    "parse_suite",
]
