"""Top-n selection shared by every ranked list: recommendations, the
evaluation rankings, similar items and per-channel item lists."""

from __future__ import annotations

import numpy as np


def top_n(scores: np.ndarray, n: int, exclude=None) -> np.ndarray:
    """Indices of the n best scores of each row, best first, ties broken by
    index ascending; NaN scores rank last and excluded indices never appear.

    ``scores`` (B, M) ranks each row, with ``exclude`` one index list per row,
    and returns (B, min(n, M)) indices where -1 pads a row left with fewer
    candidates than that.

    A partition cut at each row's n-th best score keeps every candidate tied
    with it, so only those are sorted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    b, m = scores.shape
    n = min(max(n, 0), m)
    neg = -scores  # row r, column c sits at r * m + c of neg.ravel()
    flat_neg = neg.ravel()
    if exclude is not None:
        excluded = np.repeat(np.arange(b) * m, [len(e) for e in exclude]) + np.concatenate(exclude).astype(np.intp)
        flat_neg[excluded] = np.nan  # sorts after every candidate in the partition
    if 0 < n < m:
        # a NaN cut (fewer than n candidates with a score) keeps every
        # candidate; NaN scores kept beside a finite cut sort last below
        near = ~(neg > np.partition(neg, n - 1, axis=1)[:, n - 1 : n])
    else:
        near = np.ones((b, m), dtype=bool)
    near = near.ravel()
    if exclude is not None:
        near[excluded] = False
    flat = np.flatnonzero(near)  # index order within a row
    order = np.lexsort((flat_neg[flat], flat // m))  # stable: ties keep index order
    flat = flat[order]
    rows = flat // m
    rank = np.arange(flat.size) - np.searchsorted(rows, rows)  # place within the row
    first = rank < n
    out = np.full(b * n, -1, dtype=np.intp)
    out[(rows * n + rank)[first]] = (flat - rows * m)[first]
    return out.reshape(b, n)
