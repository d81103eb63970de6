"""The genre world, built one user at a time, against the plain per-rating
loop it must reproduce value for value; the planted world's size check; the
bytes each world writes."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import synthetic
from intentcf.errors import ParameterError


def per_rating_genre_world(n_users=943, n_items=1200, n_genres=18, seed=0, mean_items=70.0):
    """genre_world_data written as one random draw and one clip per rating."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 12])))
    names = (synthetic._GENRE_NAMES * ((n_genres // len(synthetic._GENRE_NAMES)) + 1))[:n_genres]
    names = [f"{nm}{idx // len(synthetic._GENRE_NAMES) or ''}" for idx, nm in enumerate(names)]
    genre_popularity = rng.dirichlet(np.full(n_genres, 1.5))
    item_genres = np.zeros((n_items, n_genres))
    for j in range(n_items):
        primary = rng.choice(n_genres, p=genre_popularity)
        item_genres[j, primary] = 1.0
        if rng.random() < 0.4:
            item_genres[j, rng.integers(n_genres)] = 1.0
        if rng.random() < 0.15:
            item_genres[j, rng.integers(n_genres)] = 1.0
    quality = rng.normal(0.0, 0.7, size=n_items)
    popularity = rng.lognormal(0.0, 1.0, size=n_items)
    triples = []
    genre_share = item_genres / item_genres.sum(axis=1, keepdims=True)
    for u in range(n_users):
        affinity = rng.dirichlet(np.full(n_genres, 0.3))
        match = genre_share @ affinity
        weights = np.log(popularity) + 6.0 * np.log(match + 1e-9)
        n_u = int(np.clip(rng.lognormal(np.log(mean_items), 0.55), 20, 360))
        n_u = min(n_u, n_items)
        gumbel = rng.gumbel(size=n_items)
        chosen = np.argpartition(-(weights + gumbel), n_u - 1)[:n_u]
        base = rng.normal(3.4, 0.3)
        taste = rng.normal(0.0, 0.4, size=n_genres)
        for j in sorted(chosen.tolist()):
            fit = genre_share[j] @ taste
            value = base + quality[j] + 1.2 * fit + rng.normal(0.0, 0.7)
            rating = float(np.clip(round(value), 1, 5))
            triples.append((f"u{u}", f"i{j}", rating))
    genres = {f"i{j}": frozenset(names[g] for g in np.flatnonzero(item_genres[j])) for j in range(n_items)}
    return synthetic.SyntheticData(triples, genres)


def assert_same_world(got, want):
    assert got.triples == want.triples
    assert all(type(r) is float for _, _, r in got.triples)
    assert got.genres == want.genres


class TestGenreWorld:
    @given(
        n_users=st.integers(1, 12),
        n_items=st.integers(1, 90),  # below 20 items every user's count is capped
        n_genres=st.sampled_from([1, 2, 5, 17, 18, 19, 40]),  # past 18 the names get suffixes
        seed=st.integers(0, 2**32),
        mean_items=st.floats(2.0, 400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_rating_loop(self, n_users, n_items, n_genres, seed, mean_items):
        kwargs = dict(n_users=n_users, n_items=n_items, n_genres=n_genres, seed=seed, mean_items=mean_items)
        assert_same_world(synthetic.genre_world_data(**kwargs), per_rating_genre_world(**kwargs))

    def test_equals_the_per_rating_loop_at_acceptance_density(self):
        kwargs = dict(n_users=60, n_items=1200, seed=42)
        assert_same_world(synthetic.genre_world_data(**kwargs), per_rating_genre_world(**kwargs))


class TestPlantedWorld:
    def test_fewer_items_than_channels_is_rejected(self):
        with pytest.raises(ParameterError, match="one item per channel"):
            synthetic.planted_channel_data(n_users=1, n_items=4, n_channels=5)
        assert synthetic.planted_channel_data(n_users=3, n_items=5, n_channels=5).triples

    @pytest.mark.parametrize("n_channels", [-1, 0, 1])
    def test_fewer_than_two_channels_is_rejected(self, n_channels):
        with pytest.raises(ParameterError, match="mixes two channels"):
            synthetic.planted_channel_data(n_users=3, n_items=5, n_channels=n_channels)
        assert synthetic.planted_channel_data(n_users=3, n_items=5, n_channels=2).triples

    def test_cli_names_items(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            synthetic.main(["--kind", "planted", "--users", "1", "--items", "2", "--out", str(tmp_path / "w")])
        assert exc.value.code == 2
        assert "error: --items: need at least one item per channel (5), got 2 items" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()


# sha256 of the files SyntheticData.write makes for two small worlds, taken
# when write still formatted and wrote each rating line on its own
WRITTEN_SHA256 = {
    "genre world": (synthetic.genre_world_data, dict(n_users=60, n_items=90, seed=4), {
        "ratings.tsv": "8f4657c6f4a2939fb095be1fb5b536c86bb82c2d02117b021bd1ad15d8df9213",
        "genres.txt": "c14359ea53ffa1237f280767679f9ba5f32e15ad25ab09569803f87749103a4f",
    }),
    "planted world": (synthetic.planted_channel_data, dict(n_users=50, n_items=40, n_channels=4, seed=2), {
        "ratings.tsv": "4244ef001fc22dd9649c4416704763f7ccf45ba0ba316d5f56b4d4bce2dbafa1",
        "genres.txt": "42cfa2b065381d0b5195f4fb5cbc0eed1a78033a3f780158f47c95430e1b56a9",
    }),
}


@pytest.mark.parametrize("world", WRITTEN_SHA256)
def test_written_bytes_are_pinned(tmp_path, world):
    make, kwargs, digests = WRITTEN_SHA256[world]
    paths = make(**kwargs).write(str(tmp_path))
    assert {os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths} == digests
