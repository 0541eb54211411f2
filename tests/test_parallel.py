"""Tests for the package's one process pool (``repro.parallel``)."""

from collections import Counter
from functools import partial

import numpy as np
import pytest

from repro.core.ensemble import EnsemblePredictor
from repro.core.feature_sets import FeatureSet
from repro.core.methodology import ModelKind, evaluate_models, make_model
from repro.core.validation import (
    leave_one_group_out,
    repeated_random_subsampling,
)
from repro.obs.collector import CollectorThread
from repro.obs.stream import SpanSender, StreamingTracer
from repro.obs.trace import disable, enable, set_tracer
from repro.parallel import CHUNKS_PER_WORKER, split_chunks

_NEURAL = partial(make_model, ModelKind.NEURAL, FeatureSet.C)
_FIT_SPANS = ("fit.neural", "fit.scg_restart")


class TestSplitChunks:
    def test_one_worker_gets_one_chunk(self):
        assert split_chunks(range(10), 1) == [list(range(10))]

    def test_chunks_keep_order_and_bound(self):
        chunks = split_chunks(range(23), 2)
        assert [item for chunk in chunks for item in chunk] == list(range(23))
        assert 1 < len(chunks) <= 2 * CHUNKS_PER_WORKER

    def test_empty_and_validation(self):
        assert split_chunks([], 3) == []
        with pytest.raises(ValueError, match="workers"):
            split_chunks([1], 0)


def _traced_spans(run, workers):
    tracer = enable(service="fit")
    try:
        run(workers)
        return tracer.spans()
    finally:
        disable()


def _counts(spans, names):
    counted = Counter(span.name for span in spans)
    return [counted[name] for name in names]


@pytest.fixture(scope="module")
def grouped_data():
    rng = np.random.default_rng(1234)
    X = rng.normal(size=(36, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + 30.0 + rng.normal(scale=0.3, size=36)
    groups = [f"g{i % 3}" for i in range(36)]
    return X, y, groups


class TestPooledFitsKeepTheirSpans:
    @pytest.mark.parametrize(
        "root", ["validation.subsampling", "validation.leave_one_group_out"]
    )
    def test_validation_protocols(self, grouped_data, root):
        X, y, groups = grouped_data

        def run(workers):
            if root == "validation.subsampling":
                repeated_random_subsampling(
                    _NEURAL, X, y, repetitions=3,
                    rng=np.random.default_rng(3), workers=workers,
                )
            else:
                leave_one_group_out(_NEURAL, X, y, groups, workers=workers)

        names = _FIT_SPANS + ("validation.repetition",)
        serial = _traced_spans(run, 1)
        pooled = _traced_spans(run, 2)
        assert _counts(pooled, names) == _counts(serial, names)
        assert min(_counts(serial, names)) == 3
        (protocol,) = [span for span in pooled if span.name == root]
        chunks = [span for span in pooled if span.name == "pool.chunk"]
        assert len(chunks) == 3
        assert all(
            span.trace_id == protocol.trace_id
            and span.parent_id == protocol.span_id
            for span in chunks
        )

    def test_ensemble_members(self, small_dataset):
        def run(workers):
            EnsemblePredictor(
                ModelKind.NEURAL, FeatureSet.C, n_members=3, seed=4,
                workers=workers,
            ).fit(list(small_dataset))

        serial = _traced_spans(run, 1)
        pooled = _traced_spans(run, 2)
        assert _counts(pooled, _FIT_SPANS) == _counts(serial, _FIT_SPANS)
        assert _counts(serial, _FIT_SPANS)[0] == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ensemble_span_is_the_members_parent(self, small_dataset, workers):
        def run(workers):
            EnsemblePredictor(
                ModelKind.NEURAL, FeatureSet.C, n_members=3, seed=4,
                workers=workers,
            ).fit(list(small_dataset))

        spans = _traced_spans(run, workers)
        (ensemble,) = [span for span in spans if span.name == "fit.ensemble"]
        assert ensemble.parent_id is None
        assert ensemble.attributes == {
            "members": 3, "samples": len(small_dataset), "workers": workers,
        }
        by_id = {span.span_id: span for span in spans}
        chunks = [span for span in spans if span.name == "pool.chunk"]
        fits = [span for span in spans if span.name in _FIT_SPANS]
        assert len(chunks) == (3 if workers == 2 else 0)
        assert len(fits) >= 3
        assert all(
            span.trace_id == ensemble.trace_id
            and span.parent_id == ensemble.span_id
            for span in chunks
        )
        for span in fits:
            assert span.trace_id == ensemble.trace_id
            while span.parent_id != ensemble.span_id:
                span = by_id[span.parent_id]
                assert span.name in _FIT_SPANS + ("pool.chunk",)
        members = [span for span in fits if span.name == "fit.neural"]
        parents = {by_id[span.parent_id].name for span in members}
        assert parents == {"pool.chunk" if workers == 2 else "fit.ensemble"}

    def test_streaming_workers_send_fits_to_collector(self, small_dataset):
        collector = CollectorThread().start()
        tracer = StreamingTracer(
            SpanSender(collector.endpoint, resource={"service": "evaluate"})
        )
        set_tracer(tracer)
        try:
            evaluate_models(
                list(small_dataset),
                kinds=(ModelKind.NEURAL,),
                feature_sets=(FeatureSet.C,),
                repetitions=2,
                workers=2,
            )
            tracer.flush()
            fits = [r for r in collector.records() if r["name"] == "fit.neural"]
            assert len(fits) == 2
            assert all(
                r["resource"]["service"] == "evaluate-worker" for r in fits
            )
        finally:
            disable()
            tracer.close()
            collector.stop()
