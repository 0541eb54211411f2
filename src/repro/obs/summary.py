"""Offline trace analysis: load a captured trace and render its shape.

``repro obs summary out.json`` answers the two questions a captured trace
exists for without leaving the terminal:

* **where did the time go** — spans aggregated by name (count, total,
  self, mean, max), sorted by total duration, where a span's *self* time
  is what its children do not cover (:func:`self_time_us`); and
* **what called what** — the span tree per trace, reconstructed from the
  ``span_id``/``parent_id`` args the exporter stamps on every event, with
  durations and attributes (a serving request's ``request_id`` shows up
  right on its ``serve.request`` span).

The loader accepts both the ``{"traceEvents": [...]}`` envelope the
exporter writes and a bare event array, so traces post-processed by other
tools still load.  For the full timeline UI, open the same file in
Perfetto (https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "SpanNode",
    "load_trace",
    "render_summary",
    "self_time_us",
    "span_forest",
]

#: Attributes that are exporter plumbing, not user-level span attributes.
_INTERNAL_ARGS = ("trace_id", "span_id", "parent_id")


def load_trace(path) -> list[dict]:
    """Complete-span events (``ph == "X"``) from a trace file.

    Accepts the Chrome ``{"traceEvents": [...]}`` envelope, a bare event
    array, or an OTLP/JSON file (``{"resourceSpans": [...]}``, as written
    by :mod:`repro.obs.otlp`) — all three render through the same
    summary, so multi-process collector exports and in-process captures
    read identically.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and "resourceSpans" in payload:
        from .otlp import otlp_to_events

        events = otlp_to_events(payload)
    elif isinstance(payload, dict):
        events = payload.get("traceEvents", [])
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError(
            f"{path} is not a trace file: expected an object with "
            f"'traceEvents' or 'resourceSpans', or a bare event array"
        )
    spans = [
        e for e in events
        if isinstance(e, dict) and e.get("ph") == "X" and "name" in e
    ]
    if not spans:
        raise ValueError(f"{path} contains no complete-span ('X') events")
    return spans


@dataclass
class SpanNode:
    """One span in the reconstructed tree."""

    name: str
    start_us: float
    duration_us: float
    trace_id: str
    span_id: str
    parent_id: str | None
    attributes: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds."""
        return self.duration_us / 1e3


def _node(event: dict) -> SpanNode:
    args = event.get("args") or {}
    return SpanNode(
        name=str(event["name"]),
        start_us=float(event.get("ts", 0.0)),
        duration_us=float(event.get("dur", 0.0)),
        trace_id=str(args.get("trace_id", "")),
        span_id=str(args.get("span_id", "")),
        parent_id=(
            str(args["parent_id"]) if args.get("parent_id") is not None else None
        ),
        attributes={
            k: v for k, v in args.items() if k not in _INTERNAL_ARGS
        },
    )


def span_forest(events: list[dict]) -> list[SpanNode]:
    """Reconstruct the span trees (roots in start order).

    Spans whose parent is missing from the capture (ring-buffer eviction,
    partial export) become roots, so a truncated trace still renders.
    """
    return _link([_node(e) for e in events])


def _link(nodes: list[SpanNode]) -> list[SpanNode]:
    """Attach each node to its parent; returns the roots."""
    by_id = {n.span_id: n for n in nodes if n.span_id}
    roots: list[SpanNode] = []
    for node in nodes:
        parent = by_id.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes:
        node.children.sort(key=lambda c: c.start_us)
    roots.sort(key=lambda n: n.start_us)
    return roots


def self_time_us(node: SpanNode) -> float:
    """``node``'s duration minus the union of its children's intervals.

    Children are clipped to the span first, so a child that outruns its
    parent (an async task still running after the caller returned) only
    counts while the parent was open, and children that overlap each
    other (concurrent threads or tasks) count their shared time once.
    """
    start = node.start_us
    end = start + node.duration_us
    covered = 0.0
    cursor = start  # end of the union so far
    for child in sorted(node.children, key=lambda c: c.start_us):
        lo = max(child.start_us, cursor)
        hi = min(child.start_us + child.duration_us, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return node.duration_us - covered


def _format_attrs(attributes: dict) -> str:
    if not attributes:
        return ""
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def _render_node(node: SpanNode, depth: int, lines: list[str], budget: list[int]) -> None:
    if budget[0] <= 0:
        return
    budget[0] -= 1
    lines.append(
        f"{'  ' * depth}{node.name}  {node.duration_ms:.3f} ms"
        f"{_format_attrs(node.attributes)}"
    )
    for child in node.children:
        _render_node(child, depth + 1, lines, budget)


def render_summary(
    events: list[dict], *, top: int = 15, tree_spans: int = 120
) -> str:
    """Aggregate table plus span trees, as printable text.

    ``top`` caps the by-name aggregate rows; ``tree_spans`` caps the total
    spans printed across all trees (deep captures stay readable).
    """
    if top < 1 or tree_spans < 1:
        raise ValueError("top and tree_spans must be >= 1")
    nodes = [_node(e) for e in events]
    roots = _link(nodes)
    traces = {r.trace_id for r in roots if r.trace_id}
    totals: dict[str, list[float]] = {}
    for node in nodes:
        entry = totals.setdefault(node.name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += node.duration_ms
        entry[2] += self_time_us(node) / 1e3
        entry[3] = max(entry[3], node.duration_ms)

    lines = [
        f"trace summary: {len(events)} spans across "
        f"{max(len(traces), 1)} trace(s)",
        "",
        f"{'span':<38} {'count':>7} {'total ms':>11} {'self ms':>11} "
        f"{'mean ms':>10} {'max ms':>10}",
    ]
    ranked = sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)
    for name, (count, total, own, peak) in ranked[:top]:
        lines.append(
            f"{name:<38} {count:>7} {total:>11.3f} {own:>11.3f} "
            f"{total / count:>10.3f} {peak:>10.3f}"
        )
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more span name(s)")

    lines.append("")
    lines.append("span tree:")
    budget = [tree_spans]
    for root in roots:
        _render_node(root, 1, lines, budget)
        if budget[0] <= 0:
            break
    shown = tree_spans - budget[0]
    if shown < len(events):
        lines.append(f"  ... {len(events) - shown} more span(s) not shown")
    return "\n".join(lines)
