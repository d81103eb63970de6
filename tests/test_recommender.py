import numpy as np
import pytest

from intentcf import data as dt
from intentcf import evaluation as ev
from intentcf import nn
from intentcf import preference as pr
from intentcf import recommend as rc
from intentcf import synthetic
from intentcf import training as tr
from intentcf.autodiff import parameter
from intentcf.errors import ParameterError

from cell_fixtures import rating_matrix


@pytest.fixture(scope="module")
def trained():
    sd = synthetic.planted_channel_data(n_users=60, n_items=40, n_channels=3, seed=6)
    split = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=2)
    cfg = tr.TrainConfig(k=3, d=4, l=2, intent_hidden=8, item_hidden=8, pref_hidden=8,
                         batch_size=30, pretrain_epochs=2, unified_epochs=2, seed=9, patience=20)
    res = tr.train(split, cfg, "/tmp/test_recommender_run")
    state = tr.load_checkpoint(res.last_checkpoint)
    return tr.scorer_from_state(state), split, state


class TestBlended:
    def test_matches_evaluator_ranking(self, trained):
        scorer, split, _ = trained
        ours = rc.recommend_blended(scorer, split, 3, 10)
        scores = scorer.blended_scores(split.train, np.array([3]))
        ev_items = ev.rank_items(scores, [split.train.row(3)[0]], 10)[0]
        np.testing.assert_array_equal(ours.items, ev_items)
        np.testing.assert_allclose(ours.scores, scores[0, ev_items])

    def test_n_larger_than_candidates_gives_full_list(self, trained):
        scorer, split, _ = trained
        n_train = split.train.row(0)[0].size
        full = rc.recommend_blended(scorer, split, 0, 10_000)
        assert len(full.items) == split.train.n_items - n_train

    def test_deterministic(self, trained):
        scorer, split, _ = trained
        a = rc.recommend_blended(scorer, split, 1, 7)
        b = rc.recommend_blended(scorer, split, 1, 7)
        np.testing.assert_array_equal(a.items, b.items)

    def test_unknown_user(self, trained):
        scorer, split, _ = trained
        with pytest.raises(ParameterError, match="unknown user"):
            rc.recommend_blended(scorer, split, 10_000, 5)


class TestChannelAndOverride:
    def test_one_hot_override_equals_channel(self, trained):
        scorer, split, _ = trained
        for channel in range(3):
            a = rc.recommend_in_channel(scorer, split, 2, channel, 8)
            b = rc.recommend_with_intent(scorer, split, 2, rc.IntentOverride({channel: 1.0}), 8)
            np.testing.assert_array_equal(a.items, b.items)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_channel_is_the_one_channel_override_bit_for_bit(self, trained):
        scorer, split, state = trained
        for user in (0, 2, 7):
            for channel in range(state.cfg.k):
                a = rc.recommend_in_channel(scorer, split, user, channel, 12)
                b = rc.recommend_with_intent(scorer, split, user, rc.IntentOverride({channel: 1.0}), 12)
                np.testing.assert_array_equal(a.items, b.items)
                np.testing.assert_array_equal(a.scores, b.scores)

    def test_override_scaling_invariance(self, trained):
        scorer, split, _ = trained
        a = rc.recommend_with_intent(scorer, split, 4, rc.IntentOverride({0: 0.5, 2: 0.5}), 8)
        b = rc.recommend_with_intent(scorer, split, 4, rc.IntentOverride({0: 5.0, 2: 5.0}), 8)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_override_matching_top_l_weights_equals_blended(self, trained):
        scorer, split, _ = trained
        user = 5
        gamma = scorer.gamma(split.train, np.array([user]))
        idx, weights = pr.select_top_channels_batch(gamma, scorer.top_l)
        override = {int(c): float(w) for c, w in zip(idx[0], weights[0])}
        a = rc.recommend_blended(scorer, split, user, 10)
        b = rc.recommend_with_intent(scorer, split, user, rc.IntentOverride(override), 10)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-10)

    def test_invalid_channel(self, trained):
        scorer, split, _ = trained
        with pytest.raises(ParameterError, match="channel"):
            rc.recommend_in_channel(scorer, split, 0, 99, 5)

    def test_all_zero_override_rejected(self):
        with pytest.raises(ParameterError):
            rc.IntentOverride({1: 0.0, 2: 0.0})
        with pytest.raises(ParameterError):
            rc.IntentOverride({})

    @pytest.mark.parametrize("weights", [{0: np.nan}, {0: np.inf, 1: 1.0}, {0: 1.0, 1: -np.inf},
                                         {0: 1e308, 1: 1e308}, pytest.param({0: 10**400}, id="10**400"),
                                         {0: 1.0, 1: "2"}])
    def test_non_finite_override_rejected(self, weights):
        with pytest.raises(ParameterError, match="finite"):
            rc.IntentOverride(weights)

    @pytest.mark.parametrize("weights", [{0.5: 1.0, 0: 1.0}, {True: 1.0}, {"1": 1.0}])
    def test_non_integer_override_channel_rejected(self, weights):
        # int(0.5) would fold channel 0.5 into channel 0 and drop half the weight
        with pytest.raises(ParameterError, match="channels must be integers"):
            rc.IntentOverride(weights)

    def test_k1_model_channel_equals_blended(self, tmp_path):
        sd = synthetic.planted_channel_data(n_users=50, n_items=30, n_channels=2, seed=3)
        split = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=2)
        cfg = tr.TrainConfig(k=1, d=4, l=1, intent_hidden=8, item_hidden=8, pref_hidden=8,
                             batch_size=25, pretrain_epochs=1, unified_epochs=1, seed=9,
                             variant="k1-baseline", patience=20)
        res = tr.train(split, cfg, str(tmp_path / "k1"))
        scorer = tr.scorer_from_state(tr.load_checkpoint(res.last_checkpoint))
        a = rc.recommend_blended(scorer, split, 0, 8)
        b = rc.recommend_in_channel(scorer, split, 0, 0, 8)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)


class TestOrthogonalChannels:
    def test_channel_lists_disjoint_on_constructed_model(self):
        # hand-built linear model: channel 0 concentrates on items 0-2,
        # channel 1 on items 3-5; embeddings pick out per-group rating mass
        m, k, d = 6, 2, 2
        intent = __import__("intentcf.intent", fromlist=["init_intent_model"]).init_intent_model(
            m, k, 4, 4, np.random.default_rng(0)
        )
        # phi columns: items 0-2 -> channel 0, items 3-5 -> channel 1
        intent.item_net_nu.weights[0].data[...] = 0.0
        intent.item_net_nu.biases[0].data[...] = 0.0
        intent.item_net_nu.weights[1].data[...] = 0.0
        intent.item_net_nu.biases[1].data[...] = 0.0
        w0 = np.zeros((m, 4))
        w0[:3, 0] = 8.0
        w0[3:, 1] = 8.0
        intent.encoder_psi.weights[0].data[...] = w0
        nu_w = np.zeros((4, k))
        nu_w[0, 0] = 2.0
        nu_w[1, 1] = 2.0
        intent.item_net_nu.weights[0].data[...] = np.eye(4) * 2
        intent.item_net_nu.weights[1].data[...] = np.vstack([nu_w[:2], np.zeros((2, k))])

        pref = pr.PreferenceModel(
            nn.MlpParams(
                [parameter(np.hstack([np.ones((m, 1)) * (np.arange(m) < 3)[:, None],
                                      np.ones((m, 1)) * (np.arange(m) >= 3)[:, None]]), "theta.w0"),
                 parameter(np.eye(2, 4), "theta.w1")],
                [parameter(np.zeros(2), "theta.b0"), parameter(np.zeros(4), "theta.b1")],
            ),
            parameter(np.vstack([(np.arange(m) < 3) * 1.0, (np.arange(m) >= 3) * 1.0]), "item.V"),
            d,
        )
        scorer = ev.Scorer(intent, pref, top_l=2, tau=0.4)
        rows = [(np.array([0, 3]), np.array([5.0, 4.0]))]
        ids_i = [f"i{j}" for j in range(m)]
        mk = lambda r: rating_matrix(["u0"], ids_i, r)
        split = dt.SplitDataset(mk(rows), mk([(np.array([], dtype=np.intp), np.array([]))]),
                                mk([(np.array([], dtype=np.intp), np.array([]))]), 0, (0.6, 0.1, 0.3))
        top0 = rc.recommend_in_channel(scorer, split, 0, 0, 2)
        top1 = rc.recommend_in_channel(scorer, split, 0, 1, 2)
        assert set(top0.items.tolist()).isdisjoint(top1.items.tolist())
        assert set(top0.items.tolist()) <= {1, 2}   # channel-0 group minus the train item
        assert set(top1.items.tolist()) <= {4, 5}


class TestSimilarItems:
    def test_identical_columns_rank_first(self):
        phi = np.array([
            [0.7, 0.7, 0.1, 0.2],
            [0.2, 0.2, 0.8, 0.3],
            [0.1, 0.1, 0.1, 0.5],
        ])
        out = rc.similar_items(None, phi, 0, 3)
        assert out[0][0] == 1
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_self_excluded(self):
        phi = np.random.default_rng(0).dirichlet(np.ones(3), size=5).T
        out = rc.similar_items(None, phi, 2, 10)
        assert all(j != 2 for j, _ in out)
        assert len(out) == 4

    def test_orthogonal_columns_bottom(self):
        phi = np.array([
            [1.0, 0.0, 0.5],
            [0.0, 1.0, 0.5],
        ])
        out = rc.similar_items(None, phi, 0, 2)
        assert out[-1][0] == 1
        assert out[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_similarities_bounded(self):
        phi = np.random.default_rng(1).dirichlet(np.ones(4), size=12).T
        out = rc.similar_items(None, phi, 3, 11)
        for _, s in out:
            assert -1e-12 <= s <= 1.0 + 1e-12

    def test_symkl_option(self):
        phi = np.array([
            [0.7, 0.7, 0.1],
            [0.3, 0.3, 0.9],
        ])
        out = rc.similar_items(None, phi, 0, 2, measure="symkl")
        assert out[0][0] == 1  # identical distribution most similar

    @pytest.mark.parametrize("n", [0, -2])
    def test_non_positive_n_rejected(self, n):
        phi = np.random.default_rng(2).dirichlet(np.ones(3), size=6).T
        with pytest.raises(ParameterError, match="cutoff must be >= 1"):
            rc.similar_items(None, phi, 1, n)

    def test_unknown_item(self):
        with pytest.raises(ParameterError, match="unknown item"):
            rc.similar_items(None, np.ones((2, 3)) / 2, 7, 2)
