"""Recommendation strategies over a frozen checkpoint: blended ranking,
single-channel ranking, caller-supplied intent distributions and
intent-based item similarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .errors import ParameterError
from .evaluation import IntentOverride, Scorer, rank_items
from .intent import IntentModel


@dataclass
class RankedList:
    """Candidate items for one user, best first; training items excluded,
    ties broken by item index."""

    user: int
    items: np.ndarray
    scores: np.ndarray


def _check_user(split: SplitDataset, user: int) -> None:
    if not 0 <= user < split.train.n_users:
        raise ParameterError(f"unknown user index {user} (N={split.train.n_users})")


def _ranked(split: SplitDataset, user: int, scores: np.ndarray, n: int) -> RankedList:
    """The user's scores over all items ranked as one row of rank_items (n
    beyond the item count lists every candidate)."""
    items = rank_items(scores[None], [split.train.rows[user][0]], n)[0]
    items = items[items >= 0]
    return RankedList(user, items, scores[items])


def recommend_blended(scorer: Scorer, split: SplitDataset, user: int, n: int) -> RankedList:
    """Same scoring path as evaluation, truncated to n items."""
    _check_user(split, user)
    return _ranked(split, user, scorer.blended_scores(split.train, np.array([user]))[0], n)


def recommend_in_channel(scorer: Scorer, split: SplitDataset, user: int, channel: int, n: int) -> RankedList:
    """Rank under one intent channel only: scores are the channel embedding's
    inner products, no cross-channel blending. This is the intent override
    that puts all weight on the channel."""
    _check_user(split, user)
    override = IntentOverride({channel: 1.0})
    return _ranked(split, user, scorer.override_scores(split.train, np.array([user]), override)[0], n)


def recommend_with_intent(
    scorer: Scorer, split: SplitDataset, user: int, override: IntentOverride, n: int
) -> RankedList:
    """Weighted-average prediction with the override in place of the
    predicted top-L weights."""
    _check_user(split, user)
    return _ranked(split, user, scorer.override_scores(split.train, np.array([user]), override)[0], n)


def similar_items(
    intent_model: IntentModel, phi: np.ndarray, item: int, n: int, measure: str = "cosine"
) -> list[tuple[int, float]]:
    """Items ranked by similarity between channel distributions (phi
    columns); the query item itself is excluded, ties break by index.

    measure: "cosine" (default) or "symkl" (negated symmetric KL, mapped to
    a descending-is-better score).
    """
    m = phi.shape[1]
    if not 0 <= item < m:
        raise ParameterError(f"unknown item index {item} (M={m})")
    if measure not in ("cosine", "symkl"):
        raise ParameterError(f"measure must be cosine or symkl, got {measure!r}")
    col = phi[:, item]
    if measure == "cosine":
        norms = np.linalg.norm(phi, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        sims = (phi.T @ col) / (norms * max(np.linalg.norm(col), 1e-300))
    else:
        eps = 1e-12
        p = np.clip(col, eps, None)[:, None]
        q = np.clip(phi, eps, None)
        kl_pq = (p * (np.log(p) - np.log(q))).sum(axis=0)
        kl_qp = (q * (np.log(q) - np.log(p))).sum(axis=0)
        sims = -(kl_pq + kl_qp)
    top = rank_items(sims[None], [[item]], n)[0]
    return [(int(j), float(sims[j])) for j in top if j >= 0]
