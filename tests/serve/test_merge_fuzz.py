"""Property test of the router's tier-scrape merge.

``merge_prometheus_texts`` folds every worker's scrape into one.  Here
its inputs are one to four expositions written through
:class:`~repro.obs.registry.Exposition` from a shared pool of families
with fixed types — counters, labelled gauges, histograms and ``_p50``-
style percentile gauges (``NaN`` included) — with junk lines mixed in.
Whatever the input, the merge must not raise, its output must hold to
the text-format contract, and its samples must be the inputs' samples
combined per series key: summed, except percentile gauges, which take
the maximum with ``NaN`` ignored.
"""

from __future__ import annotations

import math
import re

from hypothesis import given, settings, strategies as st

from repro.obs.registry import Exposition
from repro.serve.client import parse_prometheus
from repro.serve.metrics import merge_prometheus_texts
from tests.obs.test_prometheus_conformance import assert_conformant

#: Label values, with every character the writer escapes.
LABEL_VALUES = ("a", "b b", 'q"uote', "back\\slash", "new\nline", "x,y=z")

COUNTS = st.integers(min_value=0)
GAUGES = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
)
PERCENTILES = st.one_of(
    st.just(math.nan), st.floats(min_value=0.0, max_value=1e6)
)


def _labelled(label: str, values):
    """A series map: a subset of the label values, each with a value."""
    return st.dictionaries(st.sampled_from(LABEL_VALUES), values).map(
        lambda series: [({label: key}, value) for key, value in series.items()]
    )


def _histogram(bounds: tuple[float, ...], label: str | None):
    series = st.tuples(
        st.lists(COUNTS, min_size=len(bounds) + 1, max_size=len(bounds) + 1),
        st.floats(min_value=0.0, max_value=1e6),
    )
    if label is None:
        return series.map(lambda s: [({}, bounds, s[0], s[1])])
    return st.dictionaries(st.sampled_from(LABEL_VALUES), series).map(
        lambda by_value: [
            ({label: key}, bounds, counts, total)
            for key, (counts, total) in by_value.items()
        ]
    )


#: The pool: family name -> (writer call, strategy for its samples).
POOL = {
    "repro_fz_requests_total": ("counter", _labelled("endpoint", COUNTS)),
    "repro_fz_hits_total": ("counter", COUNTS.map(lambda n: [({}, n)])),
    "repro_fz_backlog": ("gauge", _labelled("model", GAUGES)),
    "repro_fz_latency_seconds": ("histogram", _histogram((0.1, 1.0), None)),
    "repro_fz_phase_seconds": ("histogram", _histogram((0.01, 0.1, 1.0), "phase")),
    "repro_fz_latency_seconds_p50": (
        "gauge", PERCENTILES.map(lambda v: [({}, v)])
    ),
    "repro_fz_phase_seconds_p95": ("gauge", _labelled("phase", PERCENTILES)),
}

#: Lines a scrape can carry that belong to no family of the pool.
MALFORMED = (
    "#",
    "# HELP",
    "# TYPE",
    "#  TYPE  orphan_total counter",
    "# TYPE orphan_total counter",
    "# HELP orphan_help_only help without a type",
    "orphan_total 3",
    'orphan{a="1"} 2',
    "orphan_count 1",
    "{} 1",
    " 7",
    "x 1 2",
    "NaN NaN",
    "9" * 400 + " " + "9" * 400,
)
JUNK = st.one_of(st.text(max_size=40), st.sampled_from(MALFORMED))


@st.composite
def exposition(draw) -> str:
    names = draw(st.lists(st.sampled_from(sorted(POOL)), unique=True))
    out = Exposition()
    for name in names:
        kind, samples = POOL[name]
        if kind == "histogram":
            out.histogram(name, f"Pool histogram {name}.", draw(samples))
        else:
            out.family(name, kind, f"Pool {kind} {name}.", draw(samples))
    return out.text()


@st.composite
def with_junk(draw, text: str) -> str:
    lines = text.splitlines()
    for line in draw(st.lists(JUNK, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


_PERCENTILE = re.compile(r"_p\d+$")


def _combined(texts: list[str]) -> dict[str, float]:
    """Per series key: the sum, or for percentile gauges the NaN-ignoring max."""
    out: dict[str, float] = {}
    for text in texts:
        for key, value in parse_prometheus(text).items():
            if key not in out:
                out[key] = value
            elif _PERCENTILE.search(key.partition("{")[0]):
                if math.isnan(out[key]) or value > out[key]:
                    out[key] = value
            else:
                out[key] = out[key] + value
    return out


def _same(left: float, right: float) -> bool:
    return left == right or (math.isnan(left) and math.isnan(right))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_sums_series_and_stays_conformant(data):
    clean = data.draw(st.lists(exposition(), min_size=1, max_size=4))
    merged = merge_prometheus_texts([data.draw(with_junk(t)) for t in clean])
    assert_conformant(merged)
    samples = parse_prometheus(merged)
    expected = _combined(clean)
    assert samples.keys() == expected.keys()
    for key, value in expected.items():
        assert _same(samples[key], value), (key, samples[key], value)
