"""The item-union, rated-cell path against a plain dense reference.

Training batches and scoring batches are computed over U, the sorted union
of the batch's rated items, on views of both models, and every tailored
row, dropout view and reconstruction is computed only at the rated cells.
The functions below are the all-M formulation over dense (B, M) rows, kept
here only as the oracle: every loss term and every parameter gradient of
the cell path must match it.
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
from intentcf.contrast import augmentation_mask, contrastive_loss
from intentcf.intent import PROB_FLOOR, item_intents, sample_gamma
from intentcf.nn import diag_gaussian_kl, encode_gaussian, softmax_temp
from intentcf.preference import select_top_channels_batch
from intentcf.ranking import top_n

from cell_fixtures import full_batch
from gradcheck import full_gradients


def dense_intent_elbo(model, prior, x, noise, eta, tau):
    mu, logvar = encode_gaussian(model.encoder_psi, x)
    gamma = sample_gamma(mu, logvar, noise, tau)
    probs = ad.matmul(gamma, ad.transpose(model.beta()))
    recon = ad.mul(ad.tsum(ad.mul(Tensor(x), ad.log(ad.clip_min(probs, PROB_FLOOR)))), -1.0)
    kl = diag_gaussian_kl(mu, logvar, prior.mu, prior.sigma_diag)
    return ad.add(recon, ad.mul(kl, eta)), kl, gamma


def dense_item_intent_kl(phi, gamma, x):
    phi_rows = ad.transpose(phi)
    log_gamma = ad.log(ad.clip_min(Tensor(gamma.data), PROB_FLOOR))  # a constant: no gradient to the user side
    neg_entropy = ad.tsum(ad.mul(phi_rows, ad.log(ad.clip_min(phi_rows, PROB_FLOOR))), axis=1)
    term1 = ad.tsum(ad.mul(Tensor(x.sum(axis=0)), neg_entropy))
    cross = ad.tsum(ad.mul(ad.matmul(Tensor(x), phi_rows), log_gamma))
    return ad.sub(term1, cross)


def dense_decompose(r, phi, idx):
    """(B*L, M) rows l2norm(phi[idx[b, l]] * R_b), user-major."""
    phi_sel = ad.gather_rows(phi, idx.reshape(-1))
    return ad.l2norm_rows(ad.mul(phi_sel, Tensor(np.repeat(r, idx.shape[1], axis=0))))


def dense_preference_elbo(model, tailored, obs, noise, eta):
    mu, logvar = encode_gaussian(model.encoder_theta, tailored)
    u = ad.add(mu, ad.mul(Tensor(noise), ad.exp(ad.mul(logvar, 0.5))))
    diff = ad.mul(ad.sub(ad.matmul(u, model.item_matrix), tailored), Tensor(obs))
    kl = diag_gaussian_kl(mu, logvar, 0.0, 1.0)
    return ad.add(ad.tsum(ad.mul(diff, diff)), ad.mul(kl, eta)), kl


def dense_batch_losses(state, xb, rb, eta, tau, step, stage):
    """All loss terms over dense (B, M) rows and the full models."""
    cfg = state.cfg
    b = xb.shape[0]
    noise_i = tr._stream_rng(cfg.seed, tr._NOISE_INTENT, step).standard_normal((b, cfg.k))
    l1, kl_intent, gamma = dense_intent_elbo(state.intent, state.prior, xb, noise_i, eta, tau)
    phi = item_intents(state.intent, tau)
    l2 = dense_item_intent_kl(phi, gamma, xb)
    total = ad.add(l1, ad.mul(l2, cfg.lambda2))
    l3 = l4 = kl_pref = None
    if stage == "unified" and (cfg.lambda3 > 0 or cfg.lambda4 > 0):
        idx, _ = select_top_channels_batch(gamma.data, cfg.l)
        tails = dense_decompose(rb, phi, idx)
        if cfg.lambda3 > 0:
            obs = np.repeat((rb > 0).astype(np.float64), cfg.l, axis=0)
            noise_p = tr._stream_rng(cfg.seed, tr._NOISE_PREF, step).standard_normal((b * cfg.l, cfg.d))
            l3, kl_pref = dense_preference_elbo(state.pref, tails, obs, noise_p, eta)
            total = ad.add(total, ad.mul(l3, cfg.lambda3))
        if cfg.lambda4 > 0 and b >= 2:
            # the draws of the tailored cells, user by user, item by item, channel slot by slot
            rated_rows, rated_cols = np.nonzero(rb)
            cell_rows = (rated_rows[:, None] * cfg.l + np.arange(cfg.l)).ravel()
            mask = np.zeros(tails.shape)
            mask[cell_rows, np.repeat(rated_cols, cfg.l)] = augmentation_mask(
                cell_rows, b * cfg.l, cfg.node_dropout, cfg.edge_dropout, cfg.seed, step)
            augmented = ad.l2norm_rows(ad.mul(tails, Tensor(mask)))
            u_aug, _ = encode_gaussian(state.pref.encoder_theta, augmented)
            u_ori, _ = encode_gaussian(state.pref.encoder_theta, ad.l2norm_rows(Tensor(rb)))
            l4 = contrastive_loss(u_ori, u_aug, cfg.l, cfg.tau_c)
            total = ad.add(total, ad.mul(l4, cfg.lambda4))
    return tr.BatchLosses(total, l1, l2, l3, l4, kl_intent, kl_pref)


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
    # node dropout 1 zeroes every augmented row, so each dropout view is a
    # tailored row of norm zero
    "node_dropout": st.sampled_from([0.1, 1.0]),
    "edge_dropout": st.sampled_from([0.1, 0.8]),
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

        union = tr.compute_batch_losses(state, batch, eta, tau, step, stage)
        dense = dense_batch_losses(state, x_bin.dense(users), ratings.dense(users), eta, tau, step, stage)
        for key, want in dense.scalars().items():
            assert union.scalars()[key] == pytest.approx(want, rel=1e-10, abs=1e-12), key

        params = state.all_parameters()
        assert_close_grads(full_gradients(union.total, params), ad.gradients(dense.total, params), 1e-10)

    def test_batch_over_all_items_equals_union_batch(self):
        # U may hold items nobody in the batch rated: a batch over all M
        # items gives the union batch's losses
        rows = [(np.array([0, 2], dtype=np.intp), np.array([5.0, 2.0])),
                (np.array([1, 2, 3], dtype=np.intp), np.array([4.0, 4.0, 1.0]))]
        ratings = dt.RatingMatrix(["a", "b"], ["w", "x", "y", "z", "v"], rows)
        state = jittered_state(tr.TrainConfig(k=3, d=2, l=2, intent_hidden=5, item_hidden=4, pref_hidden=5),
                               2, 5, 3)
        x_bin = dt.binarize(ratings)
        users = np.arange(2)
        full = tr.compute_batch_losses(state, full_batch(x_bin.dense(users), ratings.dense(users)), 0.5, 0.8, 4,
                                       "unified")
        batch = dt.item_batch(ratings, x_bin, users)
        np.testing.assert_array_equal(batch.items, [0, 1, 2, 3])
        union = tr.compute_batch_losses(state, batch, 0.5, 0.8, 4, "unified")
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
        np.testing.assert_array_equal(batch.ratings.dense(), ratings.dense(users)[:, batch.items])
        np.testing.assert_array_equal(batch.binary.dense(), x_bin.dense(users)[:, batch.items])


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
            mu, _ = encode_gaussian(state.intent.encoder_psi, dt.binarize(ratings, min_rating).dense(users))
            gamma = softmax_temp(mu, 0.6).data

        def dense_embeddings(idx):
            with ad.no_grad():
                tails = dense_decompose(ratings.dense(users), Tensor(scorer.phi), idx)
                mu, _ = encode_gaussian(state.pref.encoder_theta, tails)
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
        np.testing.assert_allclose(scorer.override_scores(ratings, users, ev.IntentOverride({channel: 1.0})), single,
                                   **close)
        np.testing.assert_allclose(scorer.override_scores(ratings, users, ev.IntentOverride({0: 1.0, 2: 3.0})),
                                   override, **close)


class TestCellOps:
    """Each cell op against its dense counterpart, values and gradients,
    with a row whose values are all zero."""

    @given(st.integers(2, 6), st.integers(1, 7), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_match_dense(self, n_rows, n_cols, width, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        present = rng.random((n_rows, n_cols)) < 0.5
        present[-1, 0] = True
        present[0] = False  # a row with no cell
        rows, cols = np.nonzero(present)
        vals = rng.standard_normal(rows.size)
        if data.draw(st.booleans()):
            vals[rows == rows[0]] = 0.0  # a row whose cells all hold zero
        dense_vals = np.zeros((n_rows, n_cols))
        dense_vals[rows, cols] = vals
        a = rng.standard_normal((n_rows, width))
        b = rng.standard_normal((width, n_cols))
        weights = rng.standard_normal((n_rows, n_cols))

        def run(build):
            params = [ad.parameter(vals, "v"), ad.parameter(a, "a"), ad.parameter(b, "b")]
            out = build(*params)
            return out.data, ad.gradients(out, params)

        def cell_loss(v, a_, b_):
            unit = ad.l2norm_cells(v, rows, n_rows)
            spread = ad.scatter_cells(unit, rows, cols, (n_rows, n_cols))
            back = ad.gather_cells(ad.mul(spread, Tensor(weights)), rows, cols)
            return ad.tsum(ad.mul(ad.add(back, ad.matmul_cells(a_, b_, rows, cols)), unit))

        # the dense path spreads the cell values into the matrix by a
        # constant selection matrix, so gradients reach the same values
        spread = np.zeros((n_rows * n_cols, rows.size))
        spread[rows * n_cols + cols, np.arange(rows.size)] = 1.0

        def dense_loss(v, a_, b_):
            unit = ad.l2norm_rows(ad.reshape(ad.matmul(Tensor(spread), ad.reshape(v, (-1, 1))), (n_rows, n_cols)))
            term = ad.add(ad.mul(unit, Tensor(weights)), ad.matmul(a_, b_))
            return ad.tsum(ad.mul(term, unit))

        got, got_grads = run(cell_loss)
        want, want_grads = run(dense_loss)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert_close_grads(got_grads, want_grads, 1e-12)


def lexsort_top(scores, n, exclude):
    order = np.lexsort((np.arange(scores.size), -scores))
    order = order[~np.isin(order, exclude)]
    return order[:n]


def top_one(scores, n, exclude=None):
    """top_n of one score row, padding dropped."""
    items = top_n(scores[None], n, None if exclude is None else [exclude])[0]
    return items[items >= 0]


def reference_metrics(ranked, positives, k):
    """One user's (P, R, AP, NDCG)@k, rank by rank."""
    pos = set(int(p) for p in positives)
    hits, ap, dcg = 0, 0.0, 0.0
    for rank, item in enumerate([int(i) for i in ranked[:k] if i >= 0], start=1):
        if item in pos:
            hits += 1
            ap += hits / rank
            dcg += 1.0 / np.log2(rank + 1)
    n_ideal = min(len(pos), k)
    idcg = sum(1.0 / np.log2(r + 1) for r in range(1, n_ideal + 1))
    return hits / k, hits / len(pos), ap / n_ideal, dcg / idcg


@st.composite
def score_rows(draw):
    """Rows of few score levels (so many ties), some NaN, each with its own
    exclusions, and a cutoff that may exceed a row's candidates."""
    b = draw(st.integers(1, 5))
    m = draw(st.integers(1, 25))
    levels = draw(st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m), min_size=b, max_size=b))
    scores = np.array(levels, dtype=np.float64) / 4.0
    nan = draw(st.lists(st.tuples(st.integers(0, b - 1), st.integers(0, m - 1)), max_size=4))
    for r, c in nan:
        scores[r, c] = np.nan
    exclude = [np.array(draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m)), dtype=np.intp)
               for _ in range(b)]
    return scores, exclude, draw(st.integers(1, 30))


class TestTopN:
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(1, 50), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_with_planted_ties(self, levels, n, data):
        scores = np.array(levels, dtype=np.float64) / 4.0  # few levels, so many ties
        exclude = data.draw(st.lists(st.integers(0, len(levels) - 1), unique=True, max_size=len(levels)))
        np.testing.assert_array_equal(top_one(scores, n, exclude), lexsort_top(scores, n, exclude))

    @given(score_rows())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_per_row_lexsort(self, case):
        scores, exclude, n = case
        want = np.full((scores.shape[0], min(n, scores.shape[1])), -1)
        for r in range(scores.shape[0]):
            row = lexsort_top(scores[r], n, exclude[r])
            want[r, : row.size] = row
        np.testing.assert_array_equal(top_n(scores, n, exclude), want)
        np.testing.assert_array_equal(ev.rank_items(scores, exclude, n), want)

    def test_n_beyond_candidates_returns_all_in_order(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        np.testing.assert_array_equal(top_one(scores, 10, [1]), [0, 2, 3])

    def test_infinite_and_nan_scores_rank_last(self):
        scores = np.array([np.nan, 1.0, -np.inf, 2.0, np.nan])
        np.testing.assert_array_equal(top_one(scores, 4), lexsort_top(scores, 4, []))
        np.testing.assert_array_equal(top_one(scores, 2), [3, 1])


class TestMetricRows:
    @given(st.integers(1, 6), st.integers(1, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_user_reference(self, b, k, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        m = data.draw(st.integers(2, 15))
        n = data.draw(st.integers(1, 12))
        ranked = np.full((b, n), -1)
        positives = []
        for r in range(b):
            length = data.draw(st.integers(0, min(n, m)))  # short lists are padded with -1
            ranked[r, :length] = rng.permutation(m)[:length]
            size = 1 if r == 0 else data.draw(st.integers(1, m))  # the first user has a single positive
            positives.append(rng.choice(m, size=size, replace=False))
        got = ev.metrics_at_k(ranked, positives, k)
        for r in range(b):
            want = reference_metrics(ranked[r], positives[r], k)
            for metric, value in zip(got, want):
                assert metric[r] == pytest.approx(value, rel=1e-12, abs=1e-15)
            single = tuple(v[0] for v in ev.metrics_at_k(ranked[r : r + 1], [set(positives[r].tolist())], k))
            assert single == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_row_without_positives_rejected(self):
        with pytest.raises(ev.ParameterError, match="positive"):
            ev.metrics_at_k(np.array([[0, 1], [1, 0]]), [np.array([1]), np.array([], dtype=int)], 2)
