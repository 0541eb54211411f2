"""OTLP/JSON export: traces that leave the box without the Chrome hop.

Serialized span records (see :meth:`repro.obs.trace.Tracer.serialize`)
become the OpenTelemetry Protocol's JSON encoding of
``ExportTraceServiceRequest``: ``resourceSpans`` grouped by origin
process, each carrying resource attributes (``service.name``,
``process.pid``, ``repro.worker_id``) and ``scopeSpans`` of spans with
hex trace/span ids and unix-nano timestamps.  Any OTLP-speaking backend
(an OpenTelemetry collector, Jaeger, Tempo, ...) ingests the file
directly.

The repo's internal ids are free-form strings ("<prefix><counter>"); the
OTLP wire format requires fixed-width hex (16-byte trace ids, 8-byte
span ids).  :func:`hex_id` maps ids through sha1, which is deterministic
and collision-resistant at fleet scale, so parent/child linkage survives
the translation — and :func:`load_otlp` reads the files back into the
same event dicts :mod:`repro.obs.summary` renders, so ``repro obs
summary trace.otlp.json`` shows the stitched tree.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

__all__ = [
    "hex_id",
    "load_otlp",
    "otlp_to_events",
    "records_to_otlp",
    "write_otlp",
]

#: OTLP SpanKind: internal (we do not model client/server kinds).
_SPAN_KIND_INTERNAL = 1

_SCOPE = {"name": "repro.obs", "version": "1"}


def hex_id(identifier: str, nbytes: int) -> str:
    """A deterministic ``nbytes``-wide hex id for a free-form string id."""
    if not identifier:
        return ""
    digest = hashlib.sha1(identifier.encode("utf-8")).hexdigest()
    return digest[: 2 * nbytes]


def _attr_value(value) -> dict:
    """One attribute value as an OTLP ``AnyValue``."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    if value is None:
        return {"stringValue": ""}
    return {"stringValue": str(value)}


def _attributes(mapping: dict) -> list[dict]:
    return [
        {"key": str(key), "value": _attr_value(value)}
        for key, value in mapping.items()
    ]


def _decode_value(value: dict):
    """An OTLP ``AnyValue`` back to a plain Python value."""
    if "boolValue" in value:
        return bool(value["boolValue"])
    if "intValue" in value:
        return int(value["intValue"])
    if "doubleValue" in value:
        return float(value["doubleValue"])
    return value.get("stringValue", "")


def _decode_attributes(items) -> dict:
    out: dict = {}
    for item in items or []:
        key = item.get("key")
        if key is not None:
            out[str(key)] = _decode_value(item.get("value") or {})
    return out


def _otlp_span(record: dict) -> dict:
    start_ns = int(float(record.get("start_unix_s", 0.0)) * 1e9)
    end_ns = int(float(record.get("end_unix_s", 0.0)) * 1e9)
    span = {
        "traceId": hex_id(str(record.get("trace_id", "")), 16),
        "spanId": hex_id(str(record.get("span_id", "")), 8),
        "name": str(record.get("name", "")),
        "kind": _SPAN_KIND_INTERNAL,
        "startTimeUnixNano": str(start_ns),
        "endTimeUnixNano": str(end_ns),
        "attributes": _attributes(dict(record.get("attributes") or {})),
    }
    parent = record.get("parent_id")
    if parent:
        span["parentSpanId"] = hex_id(str(parent), 8)
    return span


def _resource_key(resource: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in resource.items()))


def records_to_otlp(
    records: Iterable[dict], *, default_resource: dict | None = None
) -> dict:
    """Span records grouped by origin resource as an OTLP/JSON payload.

    ``default_resource`` describes spans that carry no ``resource`` of
    their own (locally recorded spans); records streamed through a
    collector keep the resource their sender reported.
    """
    base = dict(default_resource or {"service": "repro"})
    groups: dict[tuple, tuple[dict, list[dict]]] = {}
    for record in records:
        resource = dict(record.get("resource") or base)
        key = _resource_key(resource)
        if key not in groups:
            groups[key] = (resource, [])
        groups[key][1].append(_otlp_span(record))
    resource_spans = []
    for resource, spans in groups.values():
        attrs = {"service.name": resource.get("service", "repro")}
        if "pid" in resource:
            attrs["process.pid"] = int(resource["pid"])
        if "worker" in resource:
            attrs["repro.worker_id"] = resource["worker"]
        for key, value in resource.items():
            if key not in ("service", "pid", "worker"):
                attrs[f"repro.{key}"] = value
        resource_spans.append(
            {
                "resource": {"attributes": _attributes(attrs)},
                "scopeSpans": [{"scope": dict(_SCOPE), "spans": spans}],
            }
        )
    return {"resourceSpans": resource_spans}


def write_otlp(
    path,
    records: Iterable[dict],
    *,
    default_resource: dict | None = None,
) -> int:
    """Write records to ``path`` as OTLP/JSON; returns the span count."""
    payload = records_to_otlp(records, default_resource=default_resource)
    count = sum(
        len(scope.get("spans", []))
        for group in payload["resourceSpans"]
        for scope in group.get("scopeSpans", [])
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return count


def otlp_to_events(payload: dict) -> list[dict]:
    """An OTLP/JSON payload as summary-compatible Chrome-style events.

    Timestamps are rebased to the earliest span so ``ts`` stays in the
    microsecond range the summary renderer expects.
    """
    raw: list[tuple[dict, dict]] = []
    for group in payload.get("resourceSpans", []):
        resource = _decode_attributes(
            (group.get("resource") or {}).get("attributes")
        )
        for scope in group.get("scopeSpans", []):
            for span in scope.get("spans", []):
                raw.append((resource, span))
    if not raw:
        return []
    starts = [int(span.get("startTimeUnixNano", "0")) for _res, span in raw]
    origin = min(starts)
    events = []
    for (resource, span), start_ns in zip(raw, starts):
        end_ns = int(span.get("endTimeUnixNano", "0"))
        args = {
            "trace_id": span.get("traceId", ""),
            "span_id": span.get("spanId", ""),
        }
        if span.get("parentSpanId"):
            args["parent_id"] = span["parentSpanId"]
        args.update(_decode_attributes(span.get("attributes")))
        service = resource.get("service.name")
        if service:
            args.setdefault("service", service)
        events.append(
            {
                "name": str(span.get("name", "")),
                "cat": str(span.get("name", "")).partition(".")[0] or "span",
                "ph": "X",
                "ts": round((start_ns - origin) / 1e3, 3),
                "dur": round(max(0, end_ns - start_ns) / 1e3, 3),
                "pid": int(resource.get("process.pid", 0)),
                "tid": 0,
                "args": args,
            }
        )
    return events


def load_otlp(path) -> list[dict]:
    """Read an OTLP/JSON file into summary-compatible events."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "resourceSpans" not in payload:
        raise ValueError(f"{path} is not an OTLP/JSON trace file")
    return otlp_to_events(payload)
