"""The benchmark's tracer wraps public intentcf names (``RatingMatrix.dense``,
``decompose_ratings_batch``, ``augmentation_mask``, ``Scorer.blended_scores``,
``rank_items``, ``metrics_at_k`` and more). Installing it here fails fast when
a refactor removes or renames one of them, instead of a traced benchmark run
stopping halfway; and a small evaluate() or train() under it must record the
spans the benchmark's per-layer metrics are read from."""

import sys
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def benchmark_modules():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCHMARKS))
    return workloads, Tracer


def test_tracer_installs_and_uninstalls():
    workloads, Tracer = benchmark_modules()
    from intentcf import data, evaluation

    originals = (data.RatingMatrix.dense, evaluation.Scorer.blended_scores, evaluation.rank_items)
    tracer = Tracer()
    try:
        workloads.install(tracer)
        assert tracer.installed
        assert data.RatingMatrix.dense is not originals[0]
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert (data.RatingMatrix.dense, evaluation.Scorer.blended_scores, evaluation.rank_items) == originals


def test_evaluate_records_the_ranking_spans():
    workloads, Tracer = benchmark_modules()
    from intentcf import data as dt
    from intentcf import evaluation as ev
    from intentcf import synthetic
    from intentcf import training as tr

    sd = synthetic.planted_channel_data(n_users=30, n_items=25, n_channels=2, seed=5)
    split = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=1)
    cfg = tr.TrainConfig(k=2, d=2, l=1, intent_hidden=4, item_hidden=4, pref_hidden=4)
    scorer = tr.scorer_from_state(tr.build_state(cfg, split.train.n_users, split.train.n_items))
    tracer = Tracer()
    try:
        workloads.install(tracer)
        ev.evaluate(scorer, split, cutoffs=(5, 10), chunk=8)
    finally:
        tracer.uninstall()
    _, calls, _ = tracer.summary()
    chunks = int(np.ceil(split.train.n_users / 8))
    assert 1 <= calls["evaluation.rank_items"] <= chunks
    assert calls["evaluation.rank_items"] <= calls["evaluation.metrics_at_k"] <= 2 * chunks
    assert calls["evaluation.blended_scores"] == chunks


def test_train_records_the_epoch_and_tanh_spans(tmp_path):
    workloads, Tracer = benchmark_modules()
    from intentcf import data as dt
    from intentcf import synthetic
    from intentcf import training as tr

    sd = synthetic.planted_channel_data(n_users=30, n_items=25, n_channels=2, seed=5)
    split = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=1)
    cfg = tr.TrainConfig(k=2, d=2, l=1, intent_hidden=4, item_hidden=4, pref_hidden=4,
                         pretrain_epochs=1, unified_epochs=1)
    tracer = Tracer()
    try:
        workloads.install(tracer)
        tr.train(split, cfg, str(tmp_path / "run"))
    finally:
        tracer.uninstall()
    _, calls, _ = tracer.summary()
    assert calls["training.epoch.pretrain"] == calls["training.epoch.unified"] == 1
    assert calls["autodiff.tanh"] > 0
