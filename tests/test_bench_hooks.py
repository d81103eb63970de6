"""The benchmark's tracer wraps public intentcf names (``RatingMatrix.dense``,
``decompose_ratings_batch``, ``augmentation_mask``, ``Scorer.blended_scores``
and more). Installing it here fails fast when a refactor removes or renames
one of them, instead of a traced benchmark run stopping halfway."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCHMARKS))
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
