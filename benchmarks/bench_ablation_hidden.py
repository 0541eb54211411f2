"""Ablation — neural network hidden-layer width (Section III-D's 10–20).

Sweeps the hidden width for the feature-set-F network on the 6-core
dataset, checking the paper's sizing rule sits on the accuracy plateau:
going below ~10 nodes costs accuracy, going above ~20 buys little.
Repetitions run in parallel, which is bit-identical to the serial loop.
"""

from functools import partial

import numpy as np

from repro.core.feature_sets import FeatureSet
from repro.core.features import feature_matrix
from repro.core.neural import NeuralNetworkModel
from repro.core.validation import repeated_random_subsampling
from repro.reporting.tables import render_table

WIDTHS = (2, 5, 10, 20, 40)


def test_ablation_hidden_width(benchmark, ctx, emit):
    observations = list(ctx.dataset("e5649"))
    X, y = feature_matrix(observations, FeatureSet.F.features)

    def sweep():
        rows = []
        for width in WIDTHS:
            result = repeated_random_subsampling(
                partial(NeuralNetworkModel, hidden_units=width, n_restarts=1),
                X,
                y,
                repetitions=5,
                rng=np.random.default_rng(width),
                workers=ctx.workers,
            )
            rows.append([width, result.mean_test_mpe, result.mean_test_nrmse])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_hidden_width",
        render_table(
            ["hidden units", "test MPE (%)", "test NRMSE (%)"],
            rows,
            title="Ablation: hidden-layer width, neural/F, E5649",
        ),
    )
    by_width = {r[0]: r[1] for r in rows}
    # Tiny networks underfit relative to the paper's 10-20 band...
    assert by_width[2] > by_width[20]
    # ...and doubling beyond 20 does not change the regime.
    assert by_width[40] > by_width[20] * 0.5
