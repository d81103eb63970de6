"""The item-union path against a plain dense reference.

Training batches and scoring batches are computed over U, the sorted union
of the batch's rated items, on views of both models. ``dense_batch_losses``
below is the all-M formulation over dense (B, M) rows, kept here only as the
oracle: every loss term and every parameter gradient of the union path must
match it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import autodiff as ad
from intentcf import data as dt
from intentcf import evaluation as ev
from intentcf import training as tr
from intentcf.autodiff import Tensor
from intentcf.contrast import AugmentationConfig, ContrastiveBatch, augmentation_mask, contrastive_loss, embed_original
from intentcf.intent import encode_users, intent_elbo_loss, item_intent_kl_loss, item_intents
from intentcf.nn import softmax_temp
from intentcf.preference import (
    decompose_ratings_batch,
    encode_preference,
    preference_elbo_loss,
    select_top_channels_batch,
)
from intentcf.ranking import top_n


def dense_zero_negative_mask(obs, step, seed):
    rng = tr._stream_rng(seed, tr._ZERO_NEG, step)
    out = obs.copy()
    for r in range(obs.shape[0]):
        unobs = np.flatnonzero(obs[r] == 0)
        n = int(obs[r].sum())
        if n == 0 or unobs.size == 0:
            continue
        pick = rng.choice(unobs, size=min(n, unobs.size), replace=False)
        out[r, pick] = 1.0
    return out


def dense_batch_losses(state, xb, rb, eta, tau, step, stage):
    """All loss terms over dense (B, M) rows and the full models."""
    cfg = state.cfg
    b = xb.shape[0]
    noise_i = tr._stream_rng(cfg.seed, tr._NOISE_INTENT, step).standard_normal((cfg.mc_samples, b, cfg.k))
    l1 = intent_elbo_loss(state.intent, state.prior, xb, noise_i, eta, tau, cfg.mc_samples, cfg.prob_floor)
    phi = item_intents(state.intent, tau)
    l2 = item_intent_kl_loss(phi, l1.gamma, xb, cfg.prob_floor)
    total = ad.add(l1.total, ad.mul(l2, cfg.lambda2))
    l3 = l4 = kl_pref = None
    if stage == "unified" and (cfg.lambda3 > 0 or cfg.lambda4 > 0):
        idx, _ = select_top_channels_batch(l1.gamma.data, cfg.l)
        phi_src = Tensor(phi.values) if cfg.detach_tailored else phi.phi
        tails = decompose_ratings_batch(rb, phi_src, idx)
        if cfg.lambda3 > 0:
            obs = np.repeat((rb > 0).astype(np.float64), cfg.l, axis=0)
            if cfg.pref_zero_negatives:
                obs = dense_zero_negative_mask(obs, step, cfg.seed)
            targets = Tensor(np.repeat(rb, cfg.l, axis=0)) if cfg.pref_target_raw else tails
            noise_p = tr._stream_rng(cfg.seed, tr._NOISE_PREF, step).standard_normal((b * cfg.l, cfg.d))
            parts3 = preference_elbo_loss(state.pref, tails, targets, obs, noise_p, eta)
            l3, kl_pref = parts3.total, parts3.kl
            total = ad.add(total, ad.mul(l3, cfg.lambda3))
        if cfg.lambda4 > 0 and b >= 2:
            aug_cfg = AugmentationConfig(cfg.node_dropout, cfg.edge_dropout, cfg.seed)
            mask = augmentation_mask((b * cfg.l, rb.shape[1]), aug_cfg, step)
            augmented = ad.l2norm_rows(ad.mul(tails, Tensor(mask)))
            u_aug, _ = encode_preference(state.pref, augmented)
            u_ori = embed_original(state.pref, rb)
            l4 = contrastive_loss(ContrastiveBatch(u_ori, u_aug, cfg.l, cfg.tau_c), cfg.include_positive_pair)
            total = ad.add(total, ad.mul(l4, cfg.lambda4))
    return tr.BatchLosses(total, l1.total, l2, l3, l4, l1.kl, kl_pref)


@st.composite
def worlds(draw):
    """A small random rating matrix: every user rates at least one item, and
    the last one to three items are rated by nobody, so the union of any
    batch leaves items out."""
    n_users = draw(st.integers(2, 7))
    n_items = draw(st.integers(4, 18))
    n_rated = n_items - draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_users):
        size = int(rng.integers(1, n_rated + 1))
        idx = np.sort(rng.choice(n_rated, size=size, replace=False)).astype(np.intp)
        rows.append((idx, rng.integers(1, 6, size=size).astype(np.float64)))
    # a user with no rating >= 4, so the positives-only intent row is empty
    rows[0] = (rows[0][0], np.minimum(rows[0][1], 3.0))
    return dt.RatingMatrix([f"u{u}" for u in range(n_users)], [f"i{j}" for j in range(n_items)], rows), seed


CONFIGS = st.fixed_dictionaries({
    "variant": st.sampled_from(tr.VARIANTS),
    "detach_tailored": st.booleans(),
    "pref_zero_negatives": st.booleans(),
    "pref_target_raw": st.booleans(),
    "mc_samples": st.integers(1, 2),
})


def jittered_state(cfg, n_users, n_items, seed):
    cfg = tr.resolve_variant(cfg)
    state = tr.build_state(cfg, n_users, n_items)
    rng = np.random.default_rng(seed)
    for p in state.all_parameters():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    return state


def assert_close_grads(got, want, rel):
    for name, g_ref in want.items():
        scale = max(float(np.abs(g_ref).max()), 1e-300)
        err = float(np.abs(got[name] - g_ref).max())
        assert err <= rel * scale, f"{name}: {err:.3g} vs largest entry {scale:.3g}"


class TestUnionLossesMatchDense:
    @given(worlds(), CONFIGS, st.sampled_from(["pretrain", "unified"]), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_every_term_and_gradient(self, world, options, stage, step):
        ratings, seed = world
        cfg = tr.TrainConfig(k=3, d=2, l=2, intent_hidden=5, item_hidden=4, pref_hidden=5, seed=seed % 1000,
                             **options)
        state = jittered_state(cfg, ratings.n_users, ratings.n_items, seed)
        x_bin = dt.binarize(ratings, state.cfg.intent_min_rating)
        users = np.random.default_rng(seed + 1).permutation(ratings.n_users)
        batch = dt.item_batch(ratings, x_bin, users)
        eta, tau = 0.7, 0.6

        union = tr.compute_batch_losses(state, batch.binary, batch.ratings, eta, tau, step, stage, batch.items)
        dense = dense_batch_losses(state, x_bin.dense(users), ratings.dense(users), eta, tau, step, stage)
        for key, want in dense.scalars().items():
            assert union.scalars()[key] == pytest.approx(want, rel=1e-10, abs=1e-12), key

        params = state.all_parameters()
        assert_close_grads(ad.gradients(union.total, params), ad.gradients(dense.total, params), 1e-10)

    def test_full_width_rows_still_accepted(self):
        rows = [(np.array([0, 2], dtype=np.intp), np.array([5.0, 2.0])),
                (np.array([1, 2, 3], dtype=np.intp), np.array([4.0, 4.0, 1.0]))]
        ratings = dt.RatingMatrix(["a", "b"], ["w", "x", "y", "z", "v"], rows)
        state = jittered_state(tr.TrainConfig(k=3, d=2, l=2, intent_hidden=5, item_hidden=4, pref_hidden=5),
                               2, 5, 3)
        x_bin = dt.binarize(ratings)
        users = np.arange(2)
        full = tr.compute_batch_losses(state, x_bin.dense(users), ratings.dense(users), 0.5, 0.8, 4, "unified")
        batch = dt.item_batch(ratings, x_bin, users)
        np.testing.assert_array_equal(batch.items, [0, 1, 2, 3])
        union = tr.compute_batch_losses(state, batch.binary, batch.ratings, 0.5, 0.8, 4, "unified", batch.items)
        for key, want in full.scalars().items():
            assert union.scalars()[key] == pytest.approx(want, rel=1e-12, abs=1e-14), key


class TestItemBatch:
    def test_rows_are_the_dense_rows_at_the_union(self):
        rows = [(np.array([1, 4], dtype=np.intp), np.array([2.0, 5.0])),
                (np.array([0, 4], dtype=np.intp), np.array([4.0, 1.0]))]
        ratings = dt.RatingMatrix(["a", "b"], [f"i{j}" for j in range(6)], rows)
        x_bin = dt.binarize(ratings, 4.0)
        users = np.array([1, 0])
        batch = dt.item_batch(ratings, x_bin, users)
        np.testing.assert_array_equal(batch.items, [0, 1, 4])
        np.testing.assert_array_equal(batch.ratings, ratings.dense(users)[:, batch.items])
        np.testing.assert_array_equal(batch.binary, x_bin.dense(users)[:, batch.items])


class TestScorerMatchesDense:
    @given(worlds(), st.booleans(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_scores(self, world, positives_only, channel):
        ratings, seed = world
        cfg = tr.TrainConfig(k=3, d=2, l=2, intent_hidden=5, item_hidden=4, pref_hidden=5)
        state = jittered_state(cfg, ratings.n_users, ratings.n_items, seed)
        min_rating = 4.0 if positives_only else None
        scorer = ev.Scorer(state.intent, state.pref, 2, 0.6, min_rating)
        users = np.arange(ratings.n_users)

        with ad.no_grad():
            mu, _ = encode_users(state.intent, dt.binarize(ratings, min_rating).dense(users))
            gamma = softmax_temp(mu, 0.6).data

        def dense_embeddings(idx):
            with ad.no_grad():
                tails = decompose_ratings_batch(ratings.dense(users), Tensor(scorer.phi), idx)
                mu, _ = encode_preference(state.pref, tails)
            return mu.data.reshape(idx.shape[0], idx.shape[1], -1)

        v = state.pref.item_matrix.data
        idx, weights = select_top_channels_batch(gamma, 2)
        blended = np.einsum("bl,bld,dm->bm", weights, dense_embeddings(idx), v)
        single = dense_embeddings(np.full((len(users), 1), channel))[:, 0] @ v
        pair = np.tile([0, 2], (len(users), 1))
        override = np.einsum("l,bld,dm->bm", [0.25, 0.75], dense_embeddings(pair), v)

        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(scorer.gamma(ratings, users), gamma, **close)
        np.testing.assert_allclose(scorer.blended_scores(ratings, users), blended, **close)
        np.testing.assert_allclose(scorer.channel_scores(ratings, users, channel), single, **close)
        np.testing.assert_allclose(scorer.override_scores(ratings, users, {0: 1.0, 2: 3.0}), override, **close)


def lexsort_top(scores, n, exclude):
    order = np.lexsort((np.arange(scores.size), -scores))
    order = order[~np.isin(order, exclude)]
    return order[:n]


class TestTopN:
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(1, 50), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_with_planted_ties(self, levels, n, data):
        scores = np.array(levels, dtype=np.float64) / 4.0  # few levels, so many ties
        exclude = data.draw(st.lists(st.integers(0, len(levels) - 1), unique=True, max_size=len(levels)))
        np.testing.assert_array_equal(top_n(scores, n, exclude), lexsort_top(scores, n, exclude))

    def test_n_beyond_candidates_returns_all_in_order(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        np.testing.assert_array_equal(top_n(scores, 10, [1]), [0, 2, 3])

    def test_infinite_and_nan_scores_rank_last(self):
        scores = np.array([np.nan, 1.0, -np.inf, 2.0, np.nan])
        np.testing.assert_array_equal(top_n(scores, 4), lexsort_top(scores, 4, []))
        np.testing.assert_array_equal(top_n(scores, 2), [3, 1])
