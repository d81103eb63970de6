"""Independent numpy reference for checking intentcf outputs.

Everything here reads the files the program writes (checkpoints, prepared
split directories, ratings and genre files) straight from their formats and
recomputes scores, rankings and metrics with plain numpy. It imports nothing
from intentcf, so a fault in the program cannot hide in a shared helper.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

_MAGIC = b"ICF1"
_FOOTER = b"ICFE"


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and named float64 arrays of a checkpoint file."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC or raw[-4:] != _FOOTER:
        raise ValueError(f"{path}: not a framed intentcf checkpoint")
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    base = 16 + hlen
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        flat = np.frombuffer(raw, dtype="<f8", count=math.prod(shape), offset=base + entry["offset"])
        arrays[entry["name"]] = flat.astype(np.float64).reshape(shape)
    return header, arrays


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def mlp(arrays: dict[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """Affine layers ``{prefix}.w{l}``/``{prefix}.b{l}`` with tanh between
    them and none after the last."""
    n_layers = 0
    while f"{prefix}.w{n_layers}" in arrays:
        n_layers += 1
    h = x
    for layer in range(n_layers):
        h = h @ arrays[f"{prefix}.w{layer}"] + arrays[f"{prefix}.b{layer}"]
        if layer < n_layers - 1:
            h = np.tanh(h)
    return h


def top_channels(gamma: np.ndarray, top_l: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the top_l channels by probability (ties toward the lower
    channel index) and their weights renormalized to sum to 1."""
    k = gamma.shape[1]
    idx = np.array([sorted(range(k), key=lambda c: (-row[c], c))[:top_l] for row in gamma], dtype=np.intp)
    picked = np.take_along_axis(gamma, idx, axis=1)
    return idx, picked / picked.sum(axis=1, keepdims=True)


def top_n(scores: np.ndarray, exclude, n: int) -> np.ndarray:
    """The n best items outside ``exclude``, score descending, ties by item
    index ascending."""
    keep = np.ones(scores.size, dtype=bool)
    keep[np.asarray(exclude, dtype=np.intp)] = False
    candidates = np.flatnonzero(keep)
    values = scores[candidates]
    if n < values.size:
        # every candidate scoring at least the n-th best, ties included
        cut = np.partition(values, values.size - n)[values.size - n]
        candidates, values = candidates[values >= cut], values[values >= cut]
    order = np.argsort(-values, kind="stable")
    return candidates[order][:n]


def ranking_metrics(ranked, positives, k: int) -> tuple[float, float, float, float]:
    """(P@k, R@k, AP@k, NDCG@k) with binary relevance; AP and the ideal DCG
    count min(|positives|, k) hits."""
    pos = {int(p) for p in positives}
    hit_ranks = [r for r, item in enumerate(list(ranked)[:k], start=1) if int(item) in pos]
    n_ideal = min(len(pos), k)
    ap = sum(h / r for h, r in enumerate(hit_ranks, start=1)) / n_ideal
    dcg = sum(1.0 / math.log2(r + 1) for r in hit_ranks)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, n_ideal + 1))
    return len(hit_ranks) / k, len(hit_ranks) / len(pos), ap, dcg / idcg


def cosine_similarities(phi: np.ndarray, item: int) -> np.ndarray:
    """Cosine between column ``item`` of phi (K, M) and every column."""
    norms = np.sqrt((phi * phi).sum(axis=0))
    unit = phi / np.where(norms > 0, norms, 1.0)
    return unit.T @ unit[:, item]


def cooccurrence(channel_item: np.ndarray, genre_sets: list[set], top_t: int) -> tuple[int, int]:
    """(pairs sharing a genre, all pairs) over the top_t items of every
    column of channel_item (M, K), pooled over columns."""
    hits = pairs = 0
    for c in range(channel_item.shape[1]):
        group = top_n(channel_item[:, c], [], top_t)
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                pairs += 1
                hits += bool(genre_sets[group[a]] & genre_sets[group[b]])
    return hits, pairs


def split_sizes(n: int, fractions=("0.6", "0.1", "0.3")) -> tuple[int, int, int]:
    """(train, valid, test) sizes of one user's n items under the floor rule:
    floor(f_valid n) validation items, floor(f_test n) test items, the rest
    train. Fractions are exact decimals."""
    n_va = math.floor(Fraction(fractions[1]) * n)
    n_te = math.floor(Fraction(fractions[2]) * n)
    return n - n_va - n_te, n_va, n_te


class Model:
    """Zero-noise scoring rebuilt from a checkpoint's arrays."""

    def __init__(self, path):
        header, arrays = read_checkpoint(path)
        self.arrays = arrays
        self.k, self.d, self.top_l = header["k"], header["d"], header["l"]
        self.tau = header["counters"]["tau"]
        self.min_rating = header["config"]["intent_min_rating"]
        logits = mlp(arrays, "nu", arrays["psi.w0"])  # (M, K): item net over embedding rows
        self.phi = softmax(logits / self.tau, axis=1).T  # (K, M)
        self.beta = softmax(arrays["beta.logits"], axis=0)  # (M, K)
        self.item_matrix = arrays["item.V"]  # (d, M)

    def gamma(self, ratings: np.ndarray) -> np.ndarray:
        """(B, K) channel distributions from dense rating rows (B, M)."""
        observed = ratings > 0 if self.min_rating is None else ratings >= self.min_rating
        mu = mlp(self.arrays, "psi", observed.astype(np.float64))[:, : self.k]
        return softmax(mu / self.tau, axis=1)

    def tailored_rows(self, ratings: np.ndarray, channels: np.ndarray) -> np.ndarray:
        """(B, C, M): l2-normalized phi[channel] * R rows; zero rows stay zero."""
        rows = self.phi[channels] * ratings[:, None, :]
        norms = np.sqrt((rows * rows).sum(axis=2, keepdims=True))
        return rows / np.where(norms > 0, norms, 1.0)

    def theta_means(self, ratings: np.ndarray, channels: np.ndarray) -> np.ndarray:
        """(B, C, d) encoder means of the tailored rows."""
        rows = self.tailored_rows(ratings, channels)
        b, c, m = rows.shape
        return mlp(self.arrays, "theta", rows.reshape(b * c, m))[:, : self.d].reshape(b, c, self.d)

    def weighted_scores(self, ratings: np.ndarray, channels: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(B, M): sum over c of weights[b, c] * (mean_bc . V)."""
        emb = (weights[:, :, None] * self.theta_means(ratings, channels)).sum(axis=1)
        return emb @ self.item_matrix

    def blended_scores(self, ratings: np.ndarray) -> np.ndarray:
        channels, weights = top_channels(self.gamma(ratings), self.top_l)
        return self.weighted_scores(ratings, channels, weights)

    def channel_scores(self, ratings: np.ndarray, channel: int) -> np.ndarray:
        b = ratings.shape[0]
        return self.weighted_scores(ratings, np.full((b, 1), channel, dtype=np.intp), np.ones((b, 1)))

    def override_scores(self, ratings: np.ndarray, override: dict[int, float]) -> np.ndarray:
        channels = sorted(override)
        w = np.array([override[c] for c in channels], dtype=np.float64)
        b = ratings.shape[0]
        return self.weighted_scores(ratings, np.tile(np.array(channels, dtype=np.intp), (b, 1)),
                                    np.tile(w / w.sum(), (b, 1)))


def read_ratings(path) -> dict[str, dict[str, float]]:
    """user -> item -> rating from a tab-separated ratings file (last
    duplicate wins)."""
    out: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                user, item, rating = line.rstrip("\n").split("\t")[:3]
                out.setdefault(user, {})[item] = float(rating)
    return out


def read_genres(path) -> dict[str, set[str]]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                item, labels = line.rstrip("\n").split("|", 1)
                out[item] = {g for g in labels.split(",") if g}
    return out


class Prepared:
    """A prepared split directory, read without the program."""

    def __init__(self, directory):
        directory = Path(directory)
        self.users = directory.joinpath("users.txt").read_text(encoding="utf-8").split()
        self.items = directory.joinpath("items.txt").read_text(encoding="utf-8").split()
        self.threshold = 4.0
        for line in directory.joinpath("manifest.txt").read_text(encoding="utf-8").splitlines():
            if line.startswith("rating_threshold:"):
                self.threshold = float(line.split(":", 1)[1])
        uidx = {u: i for i, u in enumerate(self.users)}
        iidx = {it: j for j, it in enumerate(self.items)}
        self.parts: dict[str, list[dict[int, float]]] = {}
        for part in ("train", "valid", "test"):
            rows: list[dict[int, float]] = [{} for _ in self.users]
            with open(directory / f"{part}.tsv", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        user, item, rating = line.rstrip("\n").split("\t")
                        rows[uidx[user]][iidx[item]] = float(rating)
            self.parts[part] = rows

    def dense(self, part: str, users) -> np.ndarray:
        out = np.zeros((len(users), len(self.items)))
        for r, u in enumerate(users):
            row = self.parts[part][u]
            out[r, list(row)] = list(row.values())
        return out

    def positives(self, part: str, user: int) -> list[int]:
        return [j for j, r in self.parts[part][user].items() if r >= self.threshold]


def evaluate(model: Model, prepared: Prepared, part: str, cutoffs, chunk: int = 256) -> dict[str, dict[int, float]]:
    """Mean P/R/MAP/NDCG at each cutoff over users with at least one
    positive in ``part``, ranking all items except the user's train items."""
    names = ("precision", "recall", "map", "ndcg")
    sums = {m: {k: 0.0 for k in cutoffs} for m in names}
    counted = 0
    users = [u for u in range(len(prepared.users)) if prepared.parts["train"][u]]
    for lo in range(0, len(users), chunk):
        batch = users[lo : lo + chunk]
        scores = model.blended_scores(prepared.dense("train", batch))
        for r, u in enumerate(batch):
            pos = prepared.positives(part, u)
            if not pos:
                continue
            ranked = top_n(scores[r], list(prepared.parts["train"][u]), max(cutoffs))
            for k in cutoffs:
                for name, value in zip(names, ranking_metrics(ranked, pos, k)):
                    sums[name][k] += value
            counted += 1
    return {m: {k: sums[m][k] / counted for k in cutoffs} for m in names}
