"""Ranking evaluation: the zero-noise scoring path, top-k metrics and the
genre co-occurrence validation of learned channels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checks import is_finite, is_int
from .data import ItemBatch, RatingMatrix, SplitDataset, item_batch
from .errors import ParameterError
from .intent import IntentModel, item_intents
from .nn import encode_gaussian, softmax_temp
from .preference import (
    PreferenceModel,
    decompose_ratings_batch,
    dense_input,
    predict_ratings_batch,
    select_top_channels_batch,
)
from .ranking import top_n

METRICS = ("precision", "recall", "map", "ndcg")
# a shuffle of the default 20 items per channel takes about 0.5 ms, so the
# largest baseline costs about 5 s
MAX_SHUFFLES = 10_000
# the largest top_t: one channel's (T, T) pair product then holds 8 MB
MAX_TOP = 1_000
# the bytes of the pair products counted at once; the default top_t of 20
# fits 10,000 channels in one product
_PAIR_BYTES = 32 << 20


@dataclass
class IntentOverride:
    """Sparse channel -> weight map replacing the predicted distribution.
    Weights are finite and nonnegative with a finite positive sum; they are
    renormalized over the provided channels. {c: 1.0} ranks inside channel
    c alone."""

    weights: dict[int, float]

    def __post_init__(self):
        if not self.weights:
            raise ParameterError("intent override must name at least one channel")
        if not all(is_int(c) for c in self.weights):
            raise ParameterError(f"override channels must be integers, got {list(self.weights)}")
        # normalized() divides by this sum
        if not (all(is_finite(w) for w in self.weights.values()) and is_finite(sum(self.weights.values()))):
            raise ParameterError(f"override weights must be finite numbers with a finite sum, got {self.weights}")
        vals = np.array(list(self.weights.values()), dtype=np.float64)
        if np.any(vals < 0) or vals.sum() <= 0:
            raise ParameterError("override weights must be nonnegative with a positive sum")

    def normalized(self) -> dict[int, float]:
        total = sum(self.weights.values())
        return {int(c): w / total for c, w in self.weights.items()}


class Scorer:
    """Deterministic scoring over frozen models: gamma from the encoder mean,
    channel selection, tailored inputs, encoder-mean embeddings, weighted
    inner products. Shared by evaluation and all recommendation modes.

    A batch of users is encoded over its item union through the same
    builder and model views as training; only the final scores cover all M
    items.
    """

    def __init__(
        self,
        intent_model: IntentModel,
        pref_model: PreferenceModel,
        top_l: int,
        tau: float,
        intent_min_rating: float | None = None,
    ):
        self.intent = intent_model
        self.pref = pref_model
        self.top_l = top_l
        self.tau = tau
        self.intent_min_rating = intent_min_rating
        self._phi: np.ndarray | None = None

    @property
    def phi(self) -> np.ndarray:
        """(K, M) item intent matrix under the frozen parameters."""
        if self._phi is None:
            with ad.no_grad():
                self._phi = item_intents(self.intent, self.tau).data
        return self._phi

    def _batch(self, train: RatingMatrix, users: np.ndarray) -> ItemBatch:
        for u in users:
            if train.row(u)[0].size == 0:
                raise ParameterError(f"user {u} has no training items (cold user)")
        return item_batch(train, users, self.intent_min_rating)

    def _gamma(self, batch: ItemBatch) -> np.ndarray:
        with ad.no_grad():
            mu, _ = encode_gaussian(self.intent.encoder_psi.over(batch.items), batch.binary.dense())
            return softmax_temp(mu, self.tau).data

    def _scores(self, batch: ItemBatch, channel_idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(B, M) predictions: the encoder means of the tailored inputs for
        the channels channel_idx (B, L), weighted by weights (B, L)."""
        with ad.no_grad():
            cells, tails = decompose_ratings_batch(batch.ratings, ad.Tensor(self.phi[:, batch.items]), channel_idx)
            mu, _ = encode_gaussian(self.pref.encoder_theta.over(batch.items), dense_input(cells, tails))
        b, top_l = channel_idx.shape
        return predict_ratings_batch(mu.data.reshape(b, top_l, self.pref.d), weights, self.pref.item_matrix.data)

    def gamma(self, train: RatingMatrix, users: np.ndarray) -> np.ndarray:
        """(B, K) zero-noise channel distributions."""
        return self._gamma(self._batch(train, users))

    def blended_scores(self, train: RatingMatrix, users: np.ndarray) -> np.ndarray:
        """(B, M) weighted-average predictions over each user's top-L
        channels."""
        batch = self._batch(train, users)
        return self._scores(batch, *select_top_channels_batch(self._gamma(batch), self.top_l))

    def override_scores(self, train: RatingMatrix, users: np.ndarray, override: IntentOverride) -> np.ndarray:
        """(B, M) predictions under a caller-supplied intent distribution."""
        weights = override.normalized()
        channels = sorted(weights)
        for c in channels:
            if not 0 <= c < self.intent.k:
                raise ParameterError(f"channel {c} out of range for K={self.intent.k}")
        idx = np.tile(np.array(channels, dtype=np.intp), (len(users), 1))
        return self._scores(self._batch(train, users), idx, np.tile([weights[c] for c in channels], (len(users), 1)))


def rank_items(scores: np.ndarray, exclude, k_cut: int) -> np.ndarray:
    """The k_cut best-scored items of each row of scores (B, M), the row's
    ``exclude`` items (its training items) left out, ties broken by item
    index: (B, min(k_cut, M)), -1 padding a row with fewer candidates."""
    if not (is_int(k_cut) and k_cut >= 1):
        raise ParameterError(f"cutoff must be >= 1 and an integer, got {k_cut}")
    return top_n(scores, k_cut, exclude)


def _index_array(items) -> np.ndarray:
    return np.fromiter(items, dtype=np.intp) if isinstance(items, (set, frozenset)) else np.asarray(items, np.intp)


def metrics_at_k(ranked_items: np.ndarray, positives, k: int):
    """(P@k, R@k, AP@k, NDCG@k) with binary relevance, each a (B,) array,
    for B ranked lists: ranked_items is (B, n) (-1 pads a short list; a list
    shorter than k has no hits past its end) and positives holds one
    collection of item indices per row.

    AP normalizes by min(|positives|, k); NDCG uses 1/log2(rank+1) gains with
    the ideal ranking placing min(|positives|, k) hits first.
    """
    if not (is_int(k) and k >= 1):
        raise ParameterError(f"k must be >= 1 and an integer, got {k}")
    ranked = np.asarray(ranked_items, dtype=np.intp)
    b = ranked.shape[0]
    # an empty list is one column of padding
    top = ranked[:, :k] if ranked.shape[1] else np.full((b, 1), -1, dtype=np.intp)
    pos = [_index_array(p) for p in positives]
    pos_rows = np.repeat(np.arange(b), [p.size for p in pos])
    pos_items = np.concatenate(pos)
    # one key per (row, item); -1 padding maps to key row * width, which no
    # positive takes
    width = max(int(top.max(initial=0)), int(pos_items.max(initial=0))) + 2
    keys = np.unique(pos_rows * width + pos_items + 1)
    n_pos = np.bincount(keys // width, minlength=b)
    if np.any(n_pos == 0):
        raise ParameterError("metrics need at least one positive item")
    top_keys = np.arange(b)[:, None] * width + top + 1
    hit = keys[np.minimum(np.searchsorted(keys, top_keys), keys.size - 1)] == top_keys
    ranks = np.arange(1, top.shape[1] + 1)
    hits = hit.sum(axis=1)
    n_ideal = np.minimum(n_pos, min(k, int(n_pos.max())))  # k may exceed any int64
    gains = 1.0 / np.log2(ranks + 1)
    # running sums add in rank order, as a per-user loop would
    ap = np.cumsum(hit * np.cumsum(hit, axis=1) / ranks, axis=1)[:, -1] / n_ideal
    dcg = np.cumsum(hit * gains, axis=1)[:, -1]
    idcg = np.cumsum(1.0 / np.log2(np.arange(2, n_ideal.max() + 2)))[n_ideal - 1]
    return hits / k, hits / n_pos, ap, dcg / idcg


@dataclass
class MetricReport:
    """Per-metric, per-cutoff means over users with at least one positive
    test item."""

    cutoffs: tuple[int, ...]
    values: dict[str, dict[int, float]]
    n_users: int

    def as_rows(self) -> list[list[str]]:
        header = ["metric"] + [f"@{k}" for k in self.cutoffs]
        rows = [header]
        for m in METRICS:
            rows.append([m] + [f"{self.values[m][k]:.4f}" for k in self.cutoffs])
        return rows

    def text_table(self) -> str:
        rows = self.as_rows()
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.append(f"users: {self.n_users}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "cutoffs": list(self.cutoffs),
            "n_users": self.n_users,
            "metrics": {m: {str(k): v for k, v in self.values[m].items()} for m in METRICS},
        }


def positives_for_user(split: SplitDataset, user: int) -> np.ndarray:
    idx, vals = split.test.row(user)
    return idx[vals >= split.rating_threshold]


def scored_users(split: SplitDataset, users) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Of ``users``, in order: the ones evaluate scores (those with training
    items), a mask of the ones it measures (those also holding a positive
    held-out item), and the positives of each one measured."""
    scored = np.array([u for u in users if split.train.row(u)[0].size], dtype=np.intp)
    positives = [positives_for_user(split, u) for u in scored]
    return scored, np.array([p.size > 0 for p in positives], dtype=bool), [p for p in positives if p.size]


def evaluate(
    scorer: Scorer,
    split: SplitDataset,
    cutoffs: tuple[int, ...] = (5, 10),
    chunk: int = 64,
) -> MetricReport:
    """Mean ranking metrics over users holding >= 1 positive held-out item
    (one in ``split.test`` at or above the rating threshold). The
    cutoffs are distinct integers from 1 to the number of items, ``chunk``
    an integer >= 1.

    Users are scored, ranked and measured in groups of ``chunk``. A group is
    encoded over its own item union and ranks a (chunk, M) score array, so
    the group size sets the working set: 64 users (the training batch size)
    rate about a third of the wide benchmark world's items, 512 users about
    four fifths. The report depends on the group size only through
    rounding: a user's scores differ in their last bits with its group's
    item union, so a near-tie can rank differently here and in a
    single-user recommend."""
    train = split.train
    bad = [k for k in cutoffs if not (is_int(k) and 1 <= k <= train.n_items)]
    if bad or not cutoffs or len(set(cutoffs)) < len(cutoffs):
        raise ParameterError(f"cutoffs must be distinct integers from 1 to the {train.n_items} items, "
                             f"got {tuple(cutoffs)}")
    if not (is_int(chunk) and chunk >= 1):
        raise ParameterError(f"chunk must be >= 1 and an integer, got {chunk}")
    kmax = max(cutoffs)
    per_user = {m: {k: [] for k in cutoffs} for m in METRICS}
    for lo in range(0, train.n_users, chunk):
        scored, measured, positives = scored_users(split, range(lo, min(lo + chunk, train.n_users)))
        if not measured.any():
            continue
        # users without a positive are scored too, so a group's item union,
        # and with it every score, does not depend on the held-out split
        scores = scorer.blended_scores(train, scored)[measured]
        ranked = rank_items(scores, [train.row(u)[0] for u in scored[measured]], kmax)
        for k in cutoffs:
            for m, values in zip(METRICS, metrics_at_k(ranked, positives, k)):
                per_user[m][k].append(values)
    counted = sum(v.size for v in per_user[METRICS[0]][kmax])
    if counted == 0:
        raise ParameterError("no users with positive held-out items to evaluate")
    # users are summed in order, as a per-user loop would
    values = {m: {k: float(np.cumsum(np.concatenate(per_user[m][k]))[-1]) / counted for k in cutoffs}
              for m in METRICS}
    return MetricReport(tuple(cutoffs), values, counted)


@dataclass
class CooccurrenceReport:
    rate: float
    per_channel: list[float]
    baseline_rate: float
    top_t: int
    shuffles: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "baseline_rate": self.baseline_rate,
            "per_channel": self.per_channel,
            "top_t": self.top_t,
            "shuffles": self.shuffles,
            "seed": self.seed,
        }


def _genre_incidence(genre_sets: list[frozenset]) -> np.ndarray:
    """(items, genres) 0/1 matrix: entry (j, g) is 1 when item j has genre g."""
    labels = {g: c for c, g in enumerate(sorted(set().union(*genre_sets)))}
    incidence = np.zeros((len(genre_sets), len(labels)))
    rows = np.repeat(np.arange(len(genre_sets)), [len(genres) for genres in genre_sets])
    incidence[rows, [labels[g] for genres in genre_sets for g in genres]] = 1.0
    return incidence


def _pair_success_rate(groups: np.ndarray, incidence: np.ndarray) -> tuple[float, list[float]]:
    """Pooled and per-group fractions of item pairs within a group that share
    a genre, for the rows of groups (n_groups, T): a pair shares one when the
    product of its incidence rows is nonzero. The groups are counted in
    blocks by batched (block, T, T) products of at most _PAIR_BYTES."""
    n, t = groups.shape
    block = max(1, _PAIR_BYTES // (8 * max(t, 1) ** 2))
    hits = np.empty(n, dtype=np.intp)
    for lo in range(0, n, block):
        rows = incidence[groups[lo:lo + block]]
        hits[lo:lo + block] = np.count_nonzero(np.triu(rows @ rows.transpose(0, 2, 1), 1), axis=(1, 2))
    pairs = t * (t - 1) // 2
    per_group = [h / pairs for h in hits.tolist()] if pairs else [0.0] * n
    return (int(hits.sum()) / (n * pairs) if n * pairs else 0.0), per_group


def cooccurrence_rate(
    channel_item: np.ndarray,
    genre_sets: list[frozenset],
    top_t: int = 20,
    shuffles: int = 100,
    seed: int = 0,
) -> CooccurrenceReport:
    """Fraction of within-channel top-T item pairs sharing >= 1 genre,
    pooled over channels, against a size-matched random-grouping baseline
    (uniform item shuffles, averaged).

    channel_item is (M, K): column k scores the items of channel k.

    The draws are what ``seed`` names: each shuffle makes one
    ``choice(M, min(T, M), replace=False)`` per channel, channels inner and
    shuffles outer, and the baseline sums the shuffles' pooled rates in
    shuffle order. The observed groups and each shuffle's K groups are
    counted by one batched pair count, in blocks for a large top_t (at most
    MAX_TOP).
    """
    if not (is_int(top_t) and top_t >= 2):
        raise ParameterError(f"top_t must be >= 2 to form pairs and an integer, got {top_t}")
    if top_t > MAX_TOP:
        raise ParameterError(f"top_t must be at most {MAX_TOP}, got {top_t}")
    if not (is_int(shuffles) and 1 <= shuffles <= MAX_SHUFFLES):
        raise ParameterError(f"shuffles must be >= 1, at most {MAX_SHUFFLES} and an integer, got {shuffles}")
    if not (is_int(seed) and seed >= 0):
        raise ParameterError(f"seed must be >= 0 and an integer, got {seed}")
    m, k = channel_item.shape
    if len(genre_sets) != m:
        raise ParameterError(f"genre table covers {len(genre_sets)} items, expected {m}")
    groups = top_n(channel_item.T, top_t)  # (K, min(T, M)), as top_items_per_channel
    incidence = _genre_incidence(genre_sets)
    rate, per_channel = _pair_success_rate(groups, incidence)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 9090])))
    size = groups.shape[1]
    baseline_sum = 0.0
    for _ in range(shuffles):
        # one draw per channel, in channel order: the draws a seed names
        rand_groups = np.array([rng.choice(m, size=size, replace=False) for _ in range(k)], np.intp).reshape(k, size)
        b_rate, _ = _pair_success_rate(rand_groups, incidence)
        baseline_sum += b_rate
    return CooccurrenceReport(rate, per_channel, baseline_sum / shuffles, top_t, shuffles, int(seed))
