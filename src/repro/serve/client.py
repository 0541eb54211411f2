"""Blocking HTTP client for the prediction service.

Used by the test suite and the closed-loop load generator
(``benchmarks/bench_serve_throughput.py``); a resource manager embedding
the models in-process should call
:meth:`~repro.core.methodology.PerformancePredictor.predict_time`
directly instead.  Built on :mod:`http.client` with a persistent
keep-alive connection per client instance, so each worker thread owns one
client and one TCP connection — the standard closed-loop load-generator
shape.

:meth:`PredictionClient.metrics` parses the Prometheus text exposition
with a real label-aware parser (:func:`parse_prometheus`): label values
may contain commas, ``=``, and escaped quotes, so the historical
"split on last space" shortcut mis-keyed such samples.  Keys are
canonical — labels sorted by name, values re-escaped — which matches the
order the server renders, so existing lookups keep working.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any

from ..obs.trace import current_span

__all__ = ["ClientError", "PredictionClient", "parse_prometheus"]

_ESCAPES = {"n": "\n", "\\": "\\", '"': '"'}


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _parse_sample(line: str) -> tuple[str, dict[str, str], float] | None:
    """One exposition sample line -> (name, labels, value), or ``None``."""
    brace = line.find("{")
    if brace == -1:
        name, _sep, rest = line.partition(" ")
        fields = rest.split()
        if not name or not fields:
            return None
        try:
            return name, {}, float(fields[0])
        except ValueError:
            return None
    name = line[:brace]
    labels: dict[str, str] = {}
    i = brace + 1
    try:
        while line[i] != "}":
            eq = line.index("=", i)
            key = line[i:eq].strip().lstrip(",").strip()
            i = eq + 1
            while line[i] == " ":
                i += 1
            if line[i] != '"':
                return None
            i += 1
            value_chars: list[str] = []
            while line[i] != '"':
                if line[i] == "\\":
                    i += 1
                    value_chars.append(_ESCAPES.get(line[i], line[i]))
                else:
                    value_chars.append(line[i])
                i += 1
            i += 1  # past the closing quote
            labels[key] = "".join(value_chars)
            while line[i] == " ":
                i += 1
            if line[i] == ",":
                i += 1
        fields = line[i + 1 :].split()
        if not name or not fields:
            return None
        return name, labels, float(fields[0])
    except (IndexError, ValueError):
        return None


def parse_prometheus(text: str) -> dict[str, float]:
    """Exposition text -> ``{'name{labels}': value}`` with canonical keys.

    Labels are sorted by name and values re-escaped, so a sample's key is
    identical however the server happened to order or escape it.  Comment
    and malformed lines are skipped.  Lines end at ``"\\n"`` only, as the
    text format defines: a label value may hold any other line separator
    (U+2028, U+0085, ...) unescaped.
    """
    samples: dict[str, float] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parsed = _parse_sample(line)
        if parsed is None:
            continue
        name, labels, value = parsed
        if labels:
            body = ",".join(
                f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
            )
            samples[name + "{" + body + "}"] = value
        else:
            samples[name] = value
    return samples


class ClientError(RuntimeError):
    """Raised when the server answers with a non-2xx status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class PredictionClient:
    """One keep-alive connection to a :class:`~repro.serve.server.PredictionServer`.

    Not thread-safe: give each worker thread its own instance.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: ``X-Request-Id`` echoed by the server on the last call (the
        #: client-sent id when one was passed, a server-minted one else).
        self.last_request_id: str | None = None
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------ plumbing
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.connect()
            # Small keep-alive POSTs must not sit in Nagle's buffer.
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        payload = json.dumps(body).encode() if body is not None else None
        send_headers = {"Content-Type": "application/json"} if payload else {}
        if headers:
            send_headers.update(headers)
        # When the caller is inside a span (the scheduler's sched.predict,
        # a traced harness), propagate its context so the server-side
        # request span joins the caller's trace across the process hop.
        span = current_span()
        if span is not None and span.trace_id:
            send_headers.setdefault(
                "X-Trace-Context", f"{span.trace_id}/{span.span_id}"
            )
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=send_headers)
                response = conn.getresponse()
                response_headers = {
                    k.lower(): v for k, v in response.getheaders()
                }
                return response.status, response.read(), response_headers
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
            ):
                # Stale keep-alive connection; reconnect once.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> Any:
        status, raw, response_headers = self._request(
            method, path, body, headers
        )
        self.last_request_id = response_headers.get("x-request-id")
        try:
            data = json.loads(raw.decode() or "null")
        except json.JSONDecodeError:
            data = None
        if status >= 400:
            message = (
                data.get("error", raw.decode(errors="replace"))
                if isinstance(data, dict)
                else raw.decode(errors="replace")
            )
            raise ClientError(status, message)
        return data

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> dict:
        """Liveness check: the parsed ``/healthz`` body."""
        return self._json("GET", "/healthz")

    def models(self) -> list[dict]:
        """Every registered manifest, as dicts."""
        return self._json("GET", "/v1/models")["models"]

    def predict(
        self,
        features: dict,
        *,
        model: str,
        interval: bool = False,
        request_id: str | None = None,
    ) -> dict:
        """Predict one placement; returns the full response payload.

        ``features`` maps Table I feature names (the model's feature set)
        to values.  With ``interval=True`` (ensemble models only) the
        payload also carries ``std`` and ``interval``.  ``request_id`` is
        sent as ``X-Request-Id`` and echoed back by the server (also
        stamped on its ``serve.request`` trace span); the echoed value is
        kept in :attr:`last_request_id`.
        """
        path = "/v1/predict" + ("?interval=1" if interval else "")
        headers = {"X-Request-Id": request_id} if request_id else None
        return self._json(
            "POST", path, {"model": model, "features": features}, headers
        )

    def predict_batch(
        self,
        instances: list[dict],
        *,
        model: str,
        interval: bool = False,
        request_id: str | None = None,
    ) -> dict:
        """Predict many placements in one request body."""
        path = "/v1/predict" + ("?interval=1" if interval else "")
        headers = {"X-Request-Id": request_id} if request_id else None
        return self._json(
            "POST", path, {"model": model, "instances": instances}, headers
        )

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/metrics``."""
        status, raw, _headers = self._request("GET", "/metrics")
        if status >= 400:
            raise ClientError(status, raw.decode(errors="replace"))
        return raw.decode()

    def metrics(self) -> dict[str, float]:
        """Parsed ``/metrics`` samples: ``{'name{labels}': value}``.

        Keys are canonical (labels sorted, values escaped); see
        :func:`parse_prometheus`.
        """
        return parse_prometheus(self.metrics_text())
