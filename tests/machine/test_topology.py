"""Tests for multi-socket server topology."""

import pytest

from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.machine.topology import Server, dual_socket


class TestServer:
    def test_dual_socket(self):
        server = dual_socket("node01", XEON_E5649)
        assert server.total_cores == 12
        assert len(server.sockets) == 2
        assert server.homogeneous()

    def test_socket_names_unique(self):
        server = dual_socket("node01", XEON_E5649)
        names = server.socket_names
        assert names == ("node01/socket0", "node01/socket1")

    def test_heterogeneous_server(self):
        server = Server("mixed", (XEON_E5649, XEON_E5_2697V2))
        assert server.total_cores == 18
        assert not server.homogeneous()

    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            Server("", (XEON_E5649,))
        with pytest.raises(ValueError, match="socket"):
            Server("empty", ())

    def test_domains_schedulable(self, baselines_6core, engine_6core):
        """Sockets plug straight into the cluster simulator."""
        from repro.sched import ClusterSimulator, JobRequest, least_loaded_policy
        from repro.workloads import get_application

        server = dual_socket("node01", XEON_E5649)
        # Identical sockets share one engine and one baseline table,
        # keyed by each socket's qualified name.
        sim = ClusterSimulator(
            {name: engine_6core for name in server.socket_names},
            {name: baselines_6core for name in server.socket_names},
            least_loaded_policy,
        )
        batch = [
            JobRequest(app=get_application(n), arrival_s=0.0, job_id=i)
            for i, n in enumerate(("cg", "canneal", "ep", "sp"))
        ]
        trace = sim.run(batch)
        assert len(trace.records) == 4
        assert trace.mean_slowdown >= 1.0
        assert trace.by_machine() == {name: 2 for name in server.socket_names}
