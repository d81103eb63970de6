"""Top-n selection shared by every ranked list: recommendations, the
evaluation rankings, similar items and per-channel item lists."""

from __future__ import annotations

import numpy as np


def top_n(scores: np.ndarray, n: int, exclude=None) -> np.ndarray:
    """Indices of the n best scores, best first, ties broken by index
    ascending; indices in ``exclude`` never appear. Returns fewer than n
    indices when fewer candidates remain.

    A partition cut at the n-th best score keeps every candidate tied with
    it, so only those are sorted.
    """
    scores = np.asarray(scores)
    if exclude is None:
        cand = np.arange(scores.size)
    else:
        keep = np.ones(scores.size, dtype=bool)
        keep[np.asarray(exclude, dtype=np.intp)] = False
        cand = np.flatnonzero(keep)
    neg = -scores[cand]
    if 0 < n < cand.size:
        cut = np.partition(neg, n - 1)[n - 1]
        # a NaN cut (fewer than n non-NaN scores) keeps everything; NaN scores
        # kept beside a finite cut sort last and fall off below
        near = ~(neg > cut)
        cand, neg = cand[near], neg[near]
    order = np.lexsort((cand, neg))[: max(n, 0)]
    return cand[order]
