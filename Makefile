# Developer convenience targets.

.PHONY: install test bench bench-quick bench-smoke examples clean

install:
	pip install -e '.[test]'

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest tests/

# Full fidelity: 100 random sub-sampling partitions (the paper's protocol).
bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ --benchmark-only

# Quick pass: same shapes, ~10x faster.
bench-quick:
	REPRO_REPETITIONS=10 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/ --benchmark-only

# Throughput smoke: reduced sweeps, single rounds.  Surfaces solve/
# cache-speedup, serving micro-batch, registry round-trip, and
# scheduler placement regressions in routine checks without the full
# bench cost, checks the cluster simulator's claim that model-driven
# placement beats first-fit on a job stream, checks that the
# event-driven running set reproduces the steady state under restarting
# co-runners and drifts from it, monotonically, under departing ones, and
# checks the steady-state engine's shared-cache miss ratios against the
# trace-driven simulator.
bench-smoke:
	REPRO_SMOKE=1 PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} pytest benchmarks/bench_engine_throughput.py benchmarks/bench_serve_throughput.py benchmarks/bench_validation_throughput.py benchmarks/bench_registry_roundtrip.py benchmarks/bench_sched_service.py benchmarks/bench_trace_streaming.py benchmarks/bench_suite_incremental.py benchmarks/bench_extension_online_scheduling.py benchmarks/bench_ablation_timesliced.py benchmarks/bench_ablation_engine.py -q --benchmark-disable

examples:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/quickstart.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/phase_analysis.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/interference_scheduler.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/energy_modeling.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/portability.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/uncertainty_and_governor.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
