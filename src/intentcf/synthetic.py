"""Deterministic synthetic rating worlds for desk-scale experiments.

Two generators: disjoint planted channels (channel-recovery studies) and a
genre-driven world at MovieLens-100k scale for directional ablations when
the real dataset is not on disk. In both, item choice is driven by latent
interests while the rating value is driven by quality, so low ratings still
carry intent information.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

from .data import GenreTable, RatingMatrix, matrix_from_triples
from .errors import ParameterError

# the largest --users or --items of main; a genre world's cost grows with
# users x items, and 2,000 x 6,000 takes about 1 s on one 2-core machine
MAX_SIZE = 100_000


@dataclass
class SyntheticData:
    triples: list[tuple[str, str, float]]
    genres: dict[str, frozenset[str]]

    def rating_matrix(self) -> RatingMatrix:
        return matrix_from_triples(self.triples)

    def genre_table(self) -> GenreTable:
        return GenreTable(dict(self.genres))

    def write(self, out_dir: str) -> tuple[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        ratings_path = os.path.join(out_dir, "ratings.tsv")
        genres_path = os.path.join(out_dir, "genres.txt")
        with open(ratings_path, "w", encoding="utf-8") as fh:
            for u, i, r in self.triples:
                fh.write(f"{u}\t{i}\t{r:g}\n")
        with open(genres_path, "w", encoding="utf-8") as fh:
            for item in sorted(self.genres, key=lambda s: (len(s), s)):
                fh.write(f"{item}|{','.join(sorted(self.genres[item]))}\n")
        return ratings_path, genres_path


def planted_channel_data(
    n_users: int = 500,
    n_items: int = 200,
    n_channels: int = 5,
    seed: int = 0,
) -> SyntheticData:
    """Disjoint item groups; every user mixes two groups with Dirichlet
    weights and draws 12 to 40 items multinomially from the mixture."""
    if n_channels < 2:
        raise ParameterError(f"every user mixes two channels, so n_channels must be at least 2, got {n_channels}")
    if n_items < n_channels:
        raise ParameterError(f"need at least one item per channel ({n_channels}), got {n_items} items")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 11])))
    group_of = np.arange(n_items) * n_channels // n_items  # equal contiguous groups
    group_items = [np.flatnonzero(group_of == g) for g in range(n_channels)]
    triples = []
    for u in range(n_users):
        chans = rng.choice(n_channels, size=2, replace=False)
        mix = rng.dirichlet(np.full(2, 2.0))
        n_i = int(rng.integers(12, 41))
        counts = rng.multinomial(n_i, mix)
        items: list[int] = []
        for c, cnt in zip(chans, counts):
            pool = group_items[c]
            take = min(cnt, pool.size)
            if take > 0:
                items.extend(rng.choice(pool, size=take, replace=False).tolist())
        for j in sorted(set(items)):
            rating = float(rng.integers(1, 6))
            triples.append((f"u{u}", f"i{j}", rating))
    genres = {f"i{j}": frozenset({f"group{group_of[j]}"}) for j in range(n_items)}
    return SyntheticData(triples, genres)


_GENRE_NAMES = [
    "action", "adventure", "animation", "children", "comedy", "crime",
    "documentary", "drama", "fantasy", "noir", "horror", "musical",
    "mystery", "romance", "scifi", "thriller", "war", "western",
]


def genre_world_data(
    n_users: int = 943,
    n_items: int = 1200,
    n_genres: int = 18,
    seed: int = 0,
    mean_items: float = 70.0,
) -> SyntheticData:
    """MovieLens-100k-scale world: items carry 1-3 genres, users carry sparse
    genre affinities that drive which items they touch, and ratings reflect
    item quality plus personal taste.

    Each user's ratings come from a few array operations. A seed names one
    world through the order and sizes of the random draws: a vector normal
    draw consumes the stream as that many scalar draws do, and the bounded
    integer draws stay scalar because a vector of them would not."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 12])))
    names = (_GENRE_NAMES * ((n_genres // len(_GENRE_NAMES)) + 1))[:n_genres]
    names = [f"{nm}{idx // len(_GENRE_NAMES) or ''}" for idx, nm in enumerate(names)]

    genre_popularity = rng.dirichlet(np.full(n_genres, 1.5))
    cdf = genre_popularity.cumsum()  # what rng.choice(n_genres, p=genre_popularity) searches
    cdf /= cdf[-1]
    item_genres = np.zeros((n_items, n_genres))
    for j in range(n_items):
        primary = cdf.searchsorted(rng.random(), side="right")
        item_genres[j, primary] = 1.0
        if rng.random() < 0.4:
            item_genres[j, rng.integers(n_genres)] = 1.0
        if rng.random() < 0.15:
            item_genres[j, rng.integers(n_genres)] = 1.0
    quality = rng.normal(0.0, 0.7, size=n_items)
    popularity = rng.lognormal(0.0, 1.0, size=n_items)

    triples = []
    genre_share = item_genres / item_genres.sum(axis=1, keepdims=True)
    log_popularity = np.log(popularity)
    for u in range(n_users):
        affinity = rng.dirichlet(np.full(n_genres, 0.3))
        match = genre_share @ affinity  # (M,) how well each item fits this user
        weights = log_popularity + 6.0 * np.log(match + 1e-9)
        n_u = int(np.clip(rng.lognormal(np.log(mean_items), 0.55), 20, 360))
        n_u = min(n_u, n_items)
        gumbel = rng.gumbel(size=n_items)
        chosen = np.sort(np.argpartition(-(weights + gumbel), n_u - 1)[:n_u])
        base = rng.normal(3.4, 0.3)
        taste = rng.normal(0.0, 0.4, size=n_genres)
        fit = genre_share[chosen] @ taste
        value = base + quality[chosen] + 1.2 * fit + rng.normal(0.0, 0.7, size=n_u)
        ratings = np.clip(np.round(value), 1, 5)  # np.round, like round, rounds half to even
        user = f"u{u}"
        triples.extend([(user, f"i{j}", r) for j, r in zip(chosen.tolist(), ratings.tolist())])
    genres = {
        f"i{j}": frozenset(names[g] for g in np.flatnonzero(item_genres[j]))
        for j in range(n_items)
    }
    return SyntheticData(triples, genres)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="generate a synthetic rating dataset")
    parser.add_argument("--kind", choices=["planted", "genre-world"], default="genre-world")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--items", type=int, default=None)
    args = parser.parse_args(argv)
    for flag, size in (("--users", args.users), ("--items", args.items)):
        if size is not None and not 1 <= size <= MAX_SIZE:
            parser.error(f"{flag} must be from 1 to {MAX_SIZE}, got {size}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    kwargs = {"seed": args.seed}
    if args.users is not None:
        kwargs["n_users"] = args.users
    if args.items is not None:
        kwargs["n_items"] = args.items
    try:
        data = planted_channel_data(**kwargs) if args.kind == "planted" else genre_world_data(**kwargs)
    except ParameterError as exc:
        parser.error(f"--items: {exc}")
    ratings, genres = data.write(args.out)
    print(f"wrote {ratings} ({len(data.triples)} ratings) and {genres}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
