"""Microbenchmark — span streaming must never tax the hot path.

Not a paper artifact; guards the contract the trace collector lives by:

* the **streaming-path** per-span cost — serializing a finished span and
  the non-blocking queue hand-off to the sender thread — scaled by the
  spans a traced collection sweep actually records, must stay under 2%
  of the untraced sweep's wall time (the same budget the disabled-path
  guard in ``bench_validation_throughput`` holds);
* at bench scale nothing is shed: every span the sweep streams arrives
  at the collector — sender queue drops, collector ring evictions, and
  fleet-reported drops are all zero.

Each run appends to ``results/BENCH_obs_streaming.json`` and leaves the
streamed multi-process fleet trace as both export formats —
``results/TRACE_collector.json`` (Chrome, Perfetto-loadable) and
``results/OTLP_collector.json`` (OTLP/JSON) — uploaded as CI artifacts.
"""

import os
import time

from repro.harness.parallel import map_scenario_batches
from repro.machine import XEON_E5649
from repro.obs.collector import CollectorThread
from repro.obs.stream import SpanSender, StreamingTracer
from repro.obs.trace import disable, set_tracer
from repro.sim import SimulationEngine, SolveCache
from repro.workloads.suite import get_application

_SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

APPS = ("cg", "ep") if _SMOKE else ("canneal", "cg", "ep", "sp")
# Floor at 2: the whole point is the cross-process streaming path, and
# map_scenario_batches falls back to its serial (in-process) path at
# workers=1, which single-core CI runners would otherwise silently trigger.
WORKERS = max(2, min(os.cpu_count() or 1, 4))


def _solve_payloads(engine, payloads):
    # One solve (and one engine.solve span) per payload.
    return [
        engine.run(app, (), pstate=pstate).target.execution_time_s
        for app, pstate in payloads
    ]


def _payloads(engine):
    apps = [get_application(name) for name in APPS]
    pstates = engine.processor.pstates
    if _SMOKE:
        pstates = pstates[:3]
    return [(app, pstate) for app in apps for pstate in pstates]


def _sweep(engine):
    start = time.perf_counter()
    results = map_scenario_batches(
        engine, _solve_payloads, _payloads(engine), workers=WORKERS
    )
    return results, time.perf_counter() - start


def test_streaming_overhead_guard(results_dir, record):
    """Streaming spans to a collector must cost <2% of sweep wall time."""
    engine = SimulationEngine(XEON_E5649, cache=SolveCache())
    disable()
    baseline, disabled_s = _sweep(engine)

    collector = CollectorThread().start()
    tracer = StreamingTracer(
        SpanSender(collector.endpoint, resource={"service": "bench-collect"})
    )
    set_tracer(tracer)
    try:
        streamed, _streamed_s = _sweep(SimulationEngine(XEON_E5649, cache=SolveCache()))
        tracer.flush()
        span_count = collector.server.received
        # Streaming must observe the sweep, never perturb it.
        assert streamed == baseline, "streaming changed the sweep results"
        assert span_count > 0, "streamed sweep recorded no spans"
        # Nothing shed anywhere on the path at bench scale.
        assert tracer.sender.dropped == 0, "sender queue shed spans"
        assert tracer.sender.send_errors == 0, "span batches failed to send"
        assert collector.server.dropped == 0, "collector ring evicted spans"
        assert collector.server.client_dropped == 0, (
            "workers reported shedding spans"
        )
        # The fleet trace includes the worker processes' spans.
        services = {
            (record.get("resource") or {}).get("service")
            for record in collector.records()
        }
        assert "bench-collect-worker" in services, (
            f"worker spans missing from the collector (saw {services})"
        )
        chrome = collector.export_chrome(results_dir / "TRACE_collector.json")
        otlp = collector.export_otlp(results_dir / "OTLP_collector.json")
        assert chrome == otlp == len(collector.records())
    finally:
        disable()
        tracer.close()
        collector.stop()

    # A direct A/B wall-time diff drowns in noise at the 2% level, so
    # measure the streaming hot-path cost per span directly — serialize
    # plus the non-blocking enqueue, with a live sender draining to a
    # live collector — and scale it by the spans the sweep records.
    probe_collector = CollectorThread().start()
    probe = StreamingTracer(
        SpanSender(
            probe_collector.endpoint,
            resource={"service": "bench-probe"},
            max_queue=200_000,
        )
    )
    calls = 20_000 if _SMOKE else 50_000
    try:
        start = time.perf_counter()
        for _ in range(calls):
            with probe.span("bench.noop"):
                pass
        per_call_s = (time.perf_counter() - start) / calls
    finally:
        probe.close()
        probe_collector.stop()
    overhead_fraction = per_call_s * span_count / disabled_s

    print(
        f"\nuntraced sweep {disabled_s:6.2f} s   {span_count} spans when "
        f"streamed   streaming span {per_call_s * 1e6:.1f} us/call   "
        f"streaming-path overhead {100.0 * overhead_fraction:.4f}%"
    )
    record(
        "BENCH_obs_streaming.json",
        workers=WORKERS,
        sweep_s=disabled_s,
        streamed_spans=span_count,
        streaming_span_us=per_call_s * 1e6,
        streaming_overhead_fraction=overhead_fraction,
    )
    assert overhead_fraction < 0.02, (
        f"streaming-path instrumentation overhead "
        f"{100.0 * overhead_fraction:.2f}% exceeds the 2% budget"
    )
