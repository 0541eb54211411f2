"""Every server answers a hostile JSON body with a 400 and keeps serving.

A body of 100,000 ``[`` is well under the 8 MiB cap but nests deeper
than the JSON decoder's recursion limit.  It must read as a malformed
body (400 ``bad_request``), never as a 500, and the server must still
answer ``/healthz`` afterwards.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.machine import XEON_E5649
from repro.obs.collector import CollectorServer
from repro.registry.server import RegistryServer
from repro.sched.fleet import FleetState, MachineConfig
from repro.sched.service import SchedulerService
from repro.serve.http import ServerThreadBase
from repro.serve.router import RouterServer
from repro.serve.server import PredictionServer, ServerThread

NESTED = b"[" * 100_000


def _request(port: int, method: str, path: str, body: bytes | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body, headers={"Authorization": "Bearer t"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def _scheduler(request, _registry, _worker_port):
    fleet = FleetState([MachineConfig(XEON_E5649, count=1, name_prefix="node")])
    return SchedulerService(
        fleet, request.getfixturevalue("baselines_6core"), policy="first-fit"
    )


#: Server -> (factory, the endpoint that parses a JSON body).  A factory
#: gets the test's request, an empty registry and a prediction worker's port.
SERVERS = {
    "prediction": (lambda _r, reg, _p: PredictionServer(reg), "/v1/predict"),
    "router": (lambda _r, reg, port: RouterServer([port], reg), "/v1/predict"),
    "registry": (lambda _r, reg, _p: RegistryServer(reg, token="t"), "/v1/push"),
    "scheduler": (_scheduler, "/v1/jobs"),
    "collector": (lambda _r, _reg, _p: CollectorServer(), "/v1/spans"),
}


@pytest.mark.parametrize("name", list(SERVERS))
def test_nested_json_is_a_400_and_the_server_keeps_serving(request, registry, name):
    factory, path = SERVERS[name]
    with ServerThread(registry) as worker:
        server = factory(request, registry, worker.port)
        with ServerThreadBase(server) as handle:
            status, body = _request(handle.port, "POST", path, NESTED)
            assert status == 400, body
            assert "JSON" in body["error"]
            assert server.metrics.errors_total == {"bad_request": 1}
            status, _body = _request(handle.port, "GET", "/healthz")
            assert status == 200
