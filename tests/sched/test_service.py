"""SchedulerService unit coverage (in-process scorer, no serving tier).

The HTTP surface, the scheduling loop semantics (placement, completion,
migration, governor), and the drain guarantee, all against a
:class:`LocalScorer` so no prediction server is needed — the remote
path is exercised by ``tests/integration/test_sched_service.py``.
"""

import asyncio
import http.client
import json
import socket
import time

import pytest

from repro.core.features import FEATURE_NAMES, Feature, feature_row
from repro.machine import XEON_E5649
from repro.registry import ModelRegistry
from repro.sched.fleet import FleetState, MachineConfig
from repro.sched.governor import GovernorObjective
from repro.sched.queue import JobStatus
from repro.sched.service import (
    MAX_SUBMIT_JOBS,
    LocalScorer,
    RemoteScorer,
    SchedulerClient,
    SchedulerService,
    SchedulerThread,
)
from repro.serve.client import ClientError, PredictionClient
from repro.serve.server import ServerThread
from repro.workloads import get_application


def _wait_until(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _fleet(count=4):
    return FleetState([MachineConfig(XEON_E5649, count=count, name_prefix="node")])


@pytest.fixture
def scorer(sched_predictor):
    return LocalScorer(sched_predictor)


@pytest.fixture
def service(scorer, baselines_6core):
    with SchedulerThread(
        _fleet(), baselines_6core, scorer=scorer, policy="model"
    ) as handle:
        with SchedulerClient("127.0.0.1", handle.port) as client:
            yield handle, client


class TestValidation:
    def test_model_policy_needs_scorer(self, baselines_6core):
        with pytest.raises(ValueError, match="needs a scorer"):
            SchedulerService(_fleet(), baselines_6core, policy="model")

    def test_unknown_policy(self, baselines_6core, scorer):
        with pytest.raises(ValueError, match="unknown policy"):
            SchedulerService(
                _fleet(), baselines_6core, scorer=scorer, policy="random"
            )

    def test_governor_needs_scorer(self, baselines_6core):
        with pytest.raises(ValueError, match="governor needs"):
            SchedulerService(
                _fleet(),
                baselines_6core,
                policy="first-fit",
                governor_objective=GovernorObjective.ENERGY,
            )

    def test_governor_deadline_must_be_positive(self, baselines_6core, scorer):
        with pytest.raises(ValueError, match="deadline must be positive"):
            SchedulerService(
                _fleet(),
                baselines_6core,
                scorer=scorer,
                governor_objective=GovernorObjective.TIME,
                governor_deadline_s=0.0,
            )

    def test_missing_baseline_processor(self, baselines_6core):
        with pytest.raises(ValueError, match="baselines missing"):
            SchedulerService(
                _fleet(), {"other": baselines_6core}, policy="first-fit"
            )


class TestApi:
    def test_submit_runs_to_completion(self, service):
        _, client = service
        payload = client.submit(["cg", "ep", "sp"])
        assert payload["ids"] == [0, 1, 2]
        assert _wait_until(
            lambda: client.jobs()["counts"]["completed"] == 3
        )
        detail = client.job(0)
        assert detail["status"] == "completed"
        assert detail["node"].startswith("node-")
        assert detail["predicted_slowdown"] is not None
        assert detail["realized_slowdown"] > 0.0
        assert detail["regret"] == pytest.approx(
            detail["realized_slowdown"] - detail["predicted_slowdown"]
        )

    def test_submit_count_form(self, service):
        _, client = service
        assert len(client.submit("ep", count=3)["ids"]) == 3

    def test_unknown_app_is_400(self, service):
        _, client = service
        with pytest.raises(ClientError) as err:
            client.submit("not-a-benchmark")
        assert err.value.status == 400

    def test_bad_body_is_400(self, service):
        _, client = service
        with pytest.raises(ClientError) as err:
            client._json("POST", "/v1/jobs", {"count": 3})
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "body",
        [
            {"app": "ep", "count": MAX_SUBMIT_JOBS + 1},
            {"apps": ["ep"] * (MAX_SUBMIT_JOBS + 1)},
        ],
        ids=["count", "apps"],
    )
    def test_oversized_submission_is_400(self, service, body):
        _, client = service
        depth = client.cluster()["queue_depth"]
        with pytest.raises(ClientError) as err:
            client._json("POST", "/v1/jobs", body)
        assert err.value.status == 400
        assert str(MAX_SUBMIT_JOBS) in err.value.message
        assert client.cluster()["queue_depth"] == depth

    def test_boolean_count_is_400(self, service):
        _, client = service
        depth = client.cluster()["queue_depth"]
        with pytest.raises(ClientError) as err:
            client._json("POST", "/v1/jobs", {"app": "ep", "count": True})
        assert err.value.status == 400
        assert client.cluster()["queue_depth"] == depth

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ClientError) as err:
            client.job(9999)
        assert err.value.status == 404

    def test_non_integer_job_id_is_400(self, service):
        _, client = service
        with pytest.raises(ClientError) as err:
            client._json("GET", "/v1/jobs/abc")
        assert err.value.status == 400

    @pytest.mark.parametrize("raw_id", ["0_0", "+0"])
    def test_job_id_beyond_ascii_digits_is_400(self, service, raw_id):
        _, client = service
        with pytest.raises(ClientError) as err:
            client._json("GET", f"/v1/jobs/{raw_id}")
        assert err.value.status == 400

    def test_status_filter(self, service):
        _, client = service
        ids = client.submit(["cg"])["ids"]
        assert _wait_until(
            lambda: client.jobs()["counts"]["completed"] == 1
        )
        assert client.jobs(status="completed")["ids"] == ids
        with pytest.raises(ClientError) as err:
            client.jobs(status="bogus")
        assert err.value.status == 400

    def test_cluster_state(self, service):
        _, client = service
        client.submit(["cg", "ep"])
        assert _wait_until(
            lambda: client.cluster()["counts"]["completed"] == 2
        )
        body = client.cluster()
        assert body["nodes"] == 4
        assert body["policy"] == "model"
        assert body["placements"] == 2
        assert body["virtual_time_s"] > 0.0
        assert body["draining"] is False

    def test_healthz(self, service):
        _, client = service
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["nodes"] == 4

    def test_metrics_exposition(self, service):
        _, client = service
        client.submit(["cg", "ep", "canneal"])
        assert _wait_until(
            lambda: client.jobs()["counts"]["completed"] == 3
        )
        metrics = client.metrics()
        assert metrics["repro_sched_placements_total"] == 3.0
        assert metrics["repro_sched_completions_total"] == 3.0
        assert metrics["repro_sched_predict_batches_total"] >= 1.0
        assert metrics["repro_sched_decision_latency_seconds_count"] >= 1.0
        assert metrics["repro_sched_predicted_degradation_count"] == 3.0
        assert "repro_sched_regret" in metrics
        assert metrics["repro_sched_queue_depth"] == 0.0


@pytest.fixture(scope="module")
def raw_server(baselines_6core):
    """One scheduler for the raw-socket tests, which must not hurt it."""
    with SchedulerThread(_fleet(), baselines_6core, policy="first-fit") as handle:
        yield handle


def _raw_exchange(port: int, request: bytes) -> tuple[bytes, bytes]:
    """Send raw request bytes; read until the server closes; (head, body)."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(4096):  # the server closes after answering
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closing on unread request bytes resets after the answer
    head, _sep, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, body


class TestMalformedContentLength:
    """A request whose body length cannot be parsed gets a 400 and a close."""

    @pytest.mark.parametrize("value", ["abc", "-1", "1_0"])
    def test_answers_400_and_closes(self, raw_server, value):
        head, body = _raw_exchange(
            raw_server.port,
            (
                f"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {value}\r\n\r\n"
            ).encode(),
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        with SchedulerClient("127.0.0.1", raw_server.port) as client:
            assert client.healthz()["status"] == "ok"


class TestUnframeableRequest:
    """An oversized or malformed request is answered, not dropped."""

    @pytest.mark.parametrize(
        ("request_bytes", "status"),
        [
            (
                b"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: 9000000\r\n\r\n",
                413,
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * 70_000
                + b"\r\n\r\n",
                431,
            ),
            (b"GARBAGE\r\n\r\n", 400),
        ],
        ids=["body", "header", "request-line"],
    )
    def test_answers_and_closes(self, raw_server, request_bytes, status):
        head, body = _raw_exchange(raw_server.port, request_bytes)
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert json.loads(body)["error"]
        with SchedulerClient("127.0.0.1", raw_server.port) as client:
            assert client.healthz()["status"] == "ok"

    def test_client_that_sends_the_whole_body_reads_413(self, raw_server):
        # http.client sends the whole body before it reads the answer.
        conn = http.client.HTTPConnection("127.0.0.1", raw_server.port, timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"x" * 9_000_000)
            response = conn.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"]
        finally:
            conn.close()
        with SchedulerClient("127.0.0.1", raw_server.port) as client:
            assert client.healthz()["status"] == "ok"


class TestBaselinePolicies:
    @pytest.mark.parametrize("policy", ["first-fit", "least-loaded"])
    def test_policies_run_without_scorer(self, policy, baselines_6core):
        with SchedulerThread(
            _fleet(2), baselines_6core, policy=policy
        ) as handle:
            with SchedulerClient("127.0.0.1", handle.port) as client:
                client.submit(["cg", "ep", "sp", "lu"])
                assert _wait_until(
                    lambda: client.jobs()["counts"]["completed"] == 4
                )
                details = [client.job(i) for i in range(4)]
                # No model in the loop: no predictions recorded.
                assert all(d["predicted_slowdown"] is None for d in details)

    def test_first_fit_packs_least_loaded_spreads(self, baselines_6core):
        placements = {}
        for policy in ("first-fit", "least-loaded"):
            with SchedulerThread(
                _fleet(4), baselines_6core, policy=policy
            ) as handle:
                with SchedulerClient("127.0.0.1", handle.port) as client:
                    client.submit(["cg", "ep", "sp", "lu"])
                    assert _wait_until(
                        lambda: client.jobs()["counts"]["completed"] == 4
                    )
                    placements[policy] = {
                        client.job(i)["node"] for i in range(4)
                    }
        assert placements["first-fit"] == {"node-0000"}
        assert len(placements["least-loaded"]) == 4


class TestGovernor:
    def test_energy_governor_slows_the_clock(
        self, scorer, baselines_6core
    ):
        """Under the energy objective a solo placement drops frequency."""
        with SchedulerThread(
            _fleet(2),
            baselines_6core,
            scorer=scorer,
            governor_objective=GovernorObjective.ENERGY,
        ) as handle:
            with SchedulerClient("127.0.0.1", handle.port) as client:
                client.submit(["ep"])
                assert _wait_until(
                    lambda: client.jobs()["counts"]["completed"] == 1
                )
                detail = client.job(0)
                fastest = XEON_E5649.pstates.fastest.frequency_ghz
                assert detail["pstate_ghz"] < fastest
                # The baseline basis follows the chosen P-state, so the
                # realized slowdown stays interference-only (~1.0 solo).
                assert detail["realized_slowdown"] == pytest.approx(
                    1.0, abs=0.15
                )


class _OptimistScorer:
    """Predicts zero interference always — every placement regrets."""

    def predict_rows(self, rows):
        return [float(r["baseExTime"]) for r in rows]

    def predict_time(self, target_baseline, co_baselines):
        return float(target_baseline.wall_time_s)


class TestMigration:
    def test_worst_regret_job_migrates(self, baselines_6core):
        """Underprediction + a lighter node => threshold-triggered move.

        Two nodes for four jobs, so the empty-node fan-out runs out and
        the optimist stacks the tail of the burst — the regret then
        triggers a move to the less-contended node.
        """
        with SchedulerThread(
            _fleet(2),
            baselines_6core,
            scorer=_OptimistScorer(),
            migrate_threshold=0.05,
            migrate_margin=0.0,
            migrate_every=1,
        ) as handle:
            with SchedulerClient("127.0.0.1", handle.port) as client:
                # Memory-heavy apps packed together regret immediately.
                client.submit(["canneal", "sp", "cg", "mg"])
                assert _wait_until(
                    lambda: client.jobs()["counts"]["completed"] == 4
                )
                body = client.cluster()
                assert body["migrations"] >= 1
                moved = [
                    client.job(i)["migrations"] for i in range(4)
                ]
                assert sum(moved) == body["migrations"]


class TestDrain:
    def test_drain_completes_or_requeues_everything(
        self, scorer, baselines_6core
    ):
        handle = SchedulerThread(
            _fleet(1),
            baselines_6core,
            scorer=scorer,
            policy="model",
            pace_s=0.05,  # slow the loop so a backlog survives to drain
        )
        handle.start()
        client = SchedulerClient("127.0.0.1", handle.port)
        accepted = client.submit(["cg"] * 40)["ids"]
        client.close()
        handle.stop()  # graceful drain
        service = handle.server
        states = {jid: service.queue.get(jid).status for jid in accepted}
        assert set(states.values()) <= {
            JobStatus.COMPLETED, JobStatus.REQUEUED
        }
        assert service.queue.pending == 0
        counts = service.queue.counts()
        assert counts["requeued"] == service.sched_metrics.requeued
        assert counts["completed"] + counts["requeued"] == len(accepted)


class _FlakyScorer:
    """Wraps a scorer; ``predict_rows`` raises until ``failures`` calls."""

    def __init__(self, inner, failures: int) -> None:
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def predict_rows(self, rows):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("prediction tier down")
        return self.inner.predict_rows(rows)


class _NoGovernorScorer(_OptimistScorer):
    def predict_time(self, target_baseline, co_baselines):
        raise ConnectionError("prediction tier down")


class _NoRescoreScorer(_OptimistScorer):
    """Scores the first round, then fails every re-score."""

    def __init__(self) -> None:
        self.calls = 0

    def predict_rows(self, rows):
        self.calls += 1
        if self.calls > 1:
            raise ConnectionError("prediction tier down")
        return super().predict_rows(rows)


class TestScorerFailure:
    def test_failed_rounds_requeue_and_retry(self, scorer, baselines_6core):
        flaky = _FlakyScorer(scorer, failures=3)
        handle = SchedulerThread(_fleet(2), baselines_6core, scorer=flaky).start()
        try:
            with SchedulerClient("127.0.0.1", handle.port) as client:
                ids = client.submit(["cg", "ep", "sp"] * 6)["ids"]  # 18 > 12 cores
                assert _wait_until(
                    lambda: client.cluster()["completions"] == len(ids)
                )
                body = client.cluster()
                metrics = client.metrics()
        finally:
            handle.stop()  # returns: the loop survived the failures
        assert metrics["repro_sched_predict_errors_total"] == 3.0
        assert body["queue_depth"] == body["counts"]["queued"] == 0
        assert body["placements"] == body["completions"] == len(ids)
        jobs = [handle.server.queue.get(i) for i in ids]
        assert all(job.status is JobStatus.COMPLETED for job in jobs)
        placed = [job.placed_s for job in jobs]
        assert placed == sorted(placed)  # FIFO placement order

    def test_failed_round_requeues_in_order_and_time_advances(
        self, scorer, baselines_6core
    ):
        flaky = _FlakyScorer(scorer, failures=0)
        service = SchedulerService(_fleet(1), baselines_6core, scorer=flaky)

        async def run():
            for name in ("cg", "ep", "sp", "lu", "mg", "canneal", "cg", "ep"):
                service.queue.submit(get_application(name), 0.0)
            await service._step()  # fills the node's six cores
            await service._step()  # no free core: a completion frees one
            flaky.failures = flaky.calls + 1
            before = service.now_s
            await service._step()  # scoring fails
            return before

        before = asyncio.run(run())
        assert service.sched_metrics.predict_errors == 1
        assert [job.id for job in service.queue.pending_jobs()] == [6, 7]
        assert service.now_s > before  # the running jobs kept going

    def test_failed_governor_call_keeps_the_pstate(self, baselines_6core):
        with SchedulerThread(
            _fleet(2),
            baselines_6core,
            scorer=_NoGovernorScorer(),
            policy="first-fit",
            governor_objective=GovernorObjective.ENERGY,
        ) as handle:
            with SchedulerClient("127.0.0.1", handle.port) as client:
                client.submit(["ep"])
                assert _wait_until(
                    lambda: client.jobs()["counts"]["completed"] == 1
                )
                detail = client.job(0)
                metrics = client.metrics()
        fastest = XEON_E5649.pstates.fastest.frequency_ghz
        assert detail["pstate_ghz"] == fastest
        assert detail["realized_slowdown"] == pytest.approx(1.0, abs=0.15)
        assert metrics["repro_sched_predict_errors_total"] == 1.0

    def test_failed_migration_rescore_skips_the_move(self, baselines_6core):
        with SchedulerThread(
            _fleet(2),
            baselines_6core,
            scorer=_NoRescoreScorer(),
            migrate_threshold=0.05,
            migrate_margin=0.0,
            migrate_every=1,
        ) as handle:
            with SchedulerClient("127.0.0.1", handle.port) as client:
                client.submit(["canneal", "sp", "cg", "mg"])
                assert _wait_until(
                    lambda: client.jobs()["counts"]["completed"] == 4
                )
                body = client.cluster()
                metrics = client.metrics()
        assert body["migrations"] == 0
        assert metrics["repro_sched_predict_errors_total"] >= 1.0


class TestRemoteScorer:
    def test_governor_call_skips_the_batch_deadline(
        self, tmp_path, sched_predictor, baselines_6core
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.push("colo", sched_predictor)
        freq = XEON_E5649.pstates.fastest.frequency_ghz
        target = baselines_6core.get("cg", freq)
        co = [baselines_6core.get(name, freq) for name in ("ep", "sp")]
        row = feature_row(target, co, tuple(Feature))
        with ServerThread(registry) as handle:
            with PredictionClient("127.0.0.1", handle.port) as client:
                expected = client.predict(
                    dict(zip(FEATURE_NAMES, row.tolist())), model="colo"
                )["prediction"]
        with ServerThread(registry, max_wait_ms=60_000.0) as handle:
            scorer = RemoteScorer(
                "127.0.0.1", handle.port, model="colo", timeout=10.0
            )
            started = time.monotonic()
            value = scorer.predict_time(target, co)
            elapsed = time.monotonic() - started
            scorer.close()
        assert elapsed < 5.0
        assert value == expected
