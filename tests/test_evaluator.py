import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import data as dt
from intentcf import evaluation as ev
from intentcf import intent as it
from intentcf import recommend as rc
from intentcf import training as tr
from intentcf.errors import ParameterError


class TestMetricsAtK:
    def test_counting_fixture(self):
        # hits at ranks 1 and 3 among 4 positives, k=5
        ranked = np.array([10, 11, 12, 13, 14])
        positives = {10, 12, 20, 21}
        (p,), (r,), _, _ = ev.metrics_at_k(ranked[None], [positives], 5)
        assert p == pytest.approx(0.4, abs=1e-12)
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_average_precision_fixture(self):
        ranked = np.array([10, 11, 12, 13, 14])
        positives = {10, 12}
        _, _, (ap,), _ = ev.metrics_at_k(ranked[None], [positives], 5)
        assert ap == pytest.approx(0.5 * (1.0 + 2.0 / 3.0), abs=1e-12)
        assert ap == pytest.approx(0.83333, abs=5e-6)

    def test_ndcg_fixture(self):
        ranked = np.array([10, 11, 12])
        positives = {10, 12}
        _, _, _, (ndcg,) = ev.metrics_at_k(ranked[None], [positives], 3)
        expected = (1.0 + 1.0 / np.log2(4)) / (1.0 + 1.0 / np.log2(3))
        assert ndcg == pytest.approx(expected, abs=1e-12)
        assert ndcg == pytest.approx(0.91972, abs=5e-6)

    def test_hit_count_consistency(self):
        # P@k * k == R@k * |positives| (both count hits)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = 50
            ranked = rng.permutation(m)[:10]
            pos = set(rng.choice(m, size=rng.integers(1, 8), replace=False).tolist())
            (p,), (r,), _, _ = ev.metrics_at_k(ranked[None], [pos], 10)
            assert p * 10 == pytest.approx(r * len(pos), abs=1e-9)

    def test_perfect_ranking_ndcg_one(self):
        ranked = np.array([1, 2, 3, 4, 5])
        _, _, (ap,), (ndcg,) = ev.metrics_at_k(ranked[None], [{1, 2, 3}], 5)
        assert ndcg == pytest.approx(1.0, abs=1e-12)
        assert ap == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        # metrics depend only on the ordering, so any strictly monotone
        # score transform leaves the ranked list (hence metrics) unchanged
        scores = np.array([0.9, 0.1, 0.5, 0.3])
        a = rank_one(scores, np.array([], dtype=int), 4)
        b = rank_one(np.exp(3 * scores), np.array([], dtype=int), 4)
        np.testing.assert_array_equal(a, b)

    def test_empty_positives_rejected(self):
        with pytest.raises(ParameterError):
            ev.metrics_at_k(np.array([[1, 2]]), [set()], 2)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ParameterError, match="k must be >= 1 and an integer"):
            ev.metrics_at_k(np.array([[1, 2]]), [{1}], 2.5)

    def test_k_beyond_any_list_counts_the_listed_hits(self):
        ranked = np.array([[10, 11, 12]])
        (p,), (r,), (ap,), (ndcg,) = ev.metrics_at_k(ranked, [{10, 12}], 10**30)
        assert (p, r, ap) == pytest.approx((2e-30, 1.0, 0.5 * (1.0 + 2.0 / 3.0)), rel=1e-12)
        assert ndcg == ev.metrics_at_k(ranked, [{10, 12}], 3)[3][0]


def rank_one(scores, exclude, k):
    """rank_items for one row of scores, padding dropped."""
    items = ev.rank_items(np.asarray(scores)[None], [exclude], k)[0]
    return items[items >= 0]


class TestRankItems:
    def test_order_and_tie_break(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0])
        np.testing.assert_array_equal(rank_one(scores, np.array([], dtype=int), 4), [1, 2, 3, 0])

    def test_exclusion(self):
        scores = np.array([5.0, 4.0, 3.0])
        ranked = ev.rank_items(scores[None], [np.array([0])], 3)[0]
        assert 0 not in ranked
        np.testing.assert_array_equal(ranked, [1, 2, -1])

    def test_truncation(self):
        np.testing.assert_array_equal(rank_one(np.arange(10.0), np.array([], dtype=int), 3), [9, 8, 7])

    def test_cutoff_beyond_the_items_lists_every_item(self):
        scores = np.array([[5.0, 4.0, 3.0], [1.0, 2.0, 3.0]])
        ranked = ev.rank_items(scores, [np.array([0]), np.array([], dtype=np.intp)], 10**30)
        np.testing.assert_array_equal(ranked, [[1, 2, -1], [2, 1, 0]])


def perfect_split(n_users=3, n_items=9):
    """Users rate disjoint high items; a hand-built oracle scorer ranks each
    user's test positives first."""
    rng = np.random.default_rng(0)
    rows_tr, rows_te, rows_va = [], [], []
    positives = []
    for u in range(n_users):
        train_items = np.array([u, n_users + u], dtype=np.intp)
        test_items = np.array([2 * n_users + u], dtype=np.intp)
        rows_tr.append((train_items, np.array([5.0, 4.0])))
        rows_te.append((test_items, np.array([5.0])))
        rows_va.append((np.array([], dtype=np.intp), np.array([])))
        positives.append(test_items)
    ids_u = [f"u{k}" for k in range(n_users)]
    ids_i = [f"i{k}" for k in range(n_items)]
    mk = lambda rows: dt.RatingMatrix(ids_u, ids_i, rows)
    return dt.SplitDataset(mk(rows_tr), mk(rows_va), mk(rows_te), 0, (0.6, 0.1, 0.3), 4.0), positives


class OracleScorer:
    """Duck-typed scorer whose blended_scores rank each user's test item
    first among candidates."""

    def __init__(self, positives, n_items):
        self.positives = positives
        self.n_items = n_items

    def blended_scores(self, train, users):
        out = np.zeros((len(users), self.n_items))
        for r, u in enumerate(users):
            out[r, self.positives[u]] = 10.0
        return out


class TestEvaluate:
    def test_perfect_oracle_all_ones(self):
        split, positives = perfect_split()
        report = ev.evaluate(OracleScorer(positives, 9), split, cutoffs=(1,))
        for metric in ev.METRICS:
            assert report.values[metric][1] == pytest.approx(1.0, abs=1e-12)

    def test_random_scores_match_expectation(self):
        # 1000 candidates, 10 positives: E[R@10] = 0.01; check the mean over
        # 50 seeds against a 3-sigma band of the estimator
        m, n_pos, k, seeds = 1000, 10, 10, 50
        rng = np.random.default_rng(7)
        recalls = []
        for _ in range(seeds):
            scores = rng.standard_normal(m)
            pos = rng.choice(m, size=n_pos, replace=False)
            ranked = rank_one(scores, np.array([], dtype=int), k)
            _, (r,), _, _ = ev.metrics_at_k(ranked[None], [set(pos.tolist())], k)
            recalls.append(r)
        mean = np.mean(recalls)
        per_seed_var = n_pos * (n_pos / m) * (1 - n_pos / m) / (n_pos**2)  # ~binomial hits / n_pos
        sigma = np.sqrt(per_seed_var / seeds)
        assert abs(mean - 0.01) < 3 * sigma + 1e-9

    def test_hand_built_report(self):
        split, positives = perfect_split()

        class HalfScorer(OracleScorer):
            def blended_scores(self, train, users):
                out = super().blended_scores(train, users)
                out[0] = 0.0
                out[0, 5] = 10.0  # user 0 ranks a non-positive first
                return out

        report = ev.evaluate(HalfScorer(positives, 9), split, cutoffs=(1,))
        assert report.n_users == 3
        assert report.values["recall"][1] == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("chunk", [0, -1, 2.5])
    def test_group_size_must_be_a_positive_integer(self, chunk):
        split, positives = perfect_split()
        with pytest.raises(ParameterError, match="chunk must be >= 1 and an integer"):
            ev.evaluate(OracleScorer(positives, 9), split, cutoffs=(1,), chunk=chunk)

    def test_training_items_never_ranked(self):
        split, positives = perfect_split()
        scorer = OracleScorer(positives, 9)
        scores = scorer.blended_scores(split.train, np.array([0]))[0]
        scores[split.train.rows[0][0]] = 100.0  # make train items most attractive
        ranked = rank_one(scores, split.train.rows[0][0], 9)
        assert not set(split.train.rows[0][0].tolist()) & set(ranked.tolist())


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small trained model over more users than one default group holds."""
    from intentcf import synthetic

    sd = synthetic.planted_channel_data(n_users=150, n_items=60, n_channels=3, seed=4)
    ds = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=1)
    cfg = tr.TrainConfig(k=3, d=4, l=2, intent_hidden=8, item_hidden=8, pref_hidden=8,
                         batch_size=32, pretrain_epochs=1, unified_epochs=2, seed=3)
    res = tr.train(ds, cfg, str(tmp_path_factory.mktemp("groups_run")))
    return tr.scorer_from_state(tr.load_checkpoint(res.last_checkpoint)), ds


class TestEvaluateGroups:
    def test_report_does_not_depend_on_group_size(self, trained):
        scorer, ds = trained
        cutoffs = (1, 5, 10)
        reports = {chunk: ev.evaluate(scorer, ds, cutoffs=cutoffs, chunk=chunk) for chunk in (1, 7, 64, 512)}
        base = reports[512]
        assert base.n_users > 64 and base.values["recall"][10] > 0
        for chunk, report in reports.items():
            assert report.n_users == base.n_users, chunk
            for m in ev.METRICS:
                for k in cutoffs:
                    assert report.values[m][k] == pytest.approx(base.values[m][k], abs=1e-12), (chunk, m, k)

    def test_default_groups_hold_at_most_64_users(self, trained, monkeypatch):
        scorer, ds = trained
        blended, rank = ev.Scorer.blended_scores, ev.rank_items
        sizes = {"blended_scores": [], "rank_items": []}

        def counted_blended(self, train, users):
            sizes["blended_scores"].append(len(users))
            return blended(self, train, users)

        def counted_rank(scores, exclude, k_cut):
            sizes["rank_items"].append(scores.shape[0])
            return rank(scores, exclude, k_cut)

        monkeypatch.setattr(ev.Scorer, "blended_scores", counted_blended)
        monkeypatch.setattr(ev, "rank_items", counted_rank)
        report = ev.evaluate(scorer, ds)
        assert max(sizes["blended_scores"]) == 64 and max(sizes["rank_items"]) <= 64
        assert sum(sizes["blended_scores"]) == ds.train.n_users
        assert sum(sizes["rank_items"]) == report.n_users


def reference_pair_success_rate(groups, genre_sets):
    """The pooled and per-group shared-genre pair rates, pair by pair."""
    total_pairs = 0
    total_hits = 0
    per_channel = []
    for group in groups:
        pairs = 0
        hits = 0
        for a in range(len(group)):
            ga = genre_sets[group[a]]
            for b in range(a + 1, len(group)):
                pairs += 1
                if ga & genre_sets[group[b]]:
                    hits += 1
        per_channel.append(hits / pairs if pairs else 0.0)
        total_pairs += pairs
        total_hits += hits
    return (total_hits / total_pairs if total_pairs else 0.0), per_channel


class TestCooccurrence:
    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_incidence_product_matches_pair_loop(self, m, seed):
        rng = np.random.default_rng(seed)
        labels = [f"g{c}" for c in range(int(rng.integers(1, 6)))]
        # items with no genre, and groups of size 0 and 1, included
        sizes = rng.integers(0, min(2, len(labels)) + 1, size=m)
        genre_sets = [frozenset(rng.choice(labels, size=s, replace=False).tolist()) for s in sizes]
        groups = [rng.choice(m, size=rng.integers(0, m + 1), replace=False) for _ in range(4)]
        groups += [np.array([], dtype=np.intp), rng.choice(m, size=1)]
        got = ev._pair_success_rate(groups, ev._genre_incidence(genre_sets))
        assert got == reference_pair_success_rate(groups, genre_sets)

        channel_item = rng.random((m, 3))
        top_t = int(rng.integers(2, 8))
        report = ev.cooccurrence_rate(channel_item, genre_sets, top_t=top_t, shuffles=7, seed=seed % 100)
        top = [np.array([j for j, _ in c], dtype=np.intp) for c in it.top_items_per_channel(channel_item, top_t)]
        rate, per_channel = reference_pair_success_rate(top, genre_sets)
        draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed % 100, 9090])))
        baseline = sum(reference_pair_success_rate([draws.choice(m, size=len(g), replace=False) for g in top],
                                                   genre_sets)[0] for _ in range(7)) / 7
        assert (report.rate, report.per_channel, report.baseline_rate) == (rate, per_channel, baseline)

    def test_all_same_genre_rate_one(self):
        channel_item = np.random.default_rng(0).random((10, 2))
        genres = [frozenset({"g"})] * 10
        report = ev.cooccurrence_rate(channel_item, genres, top_t=4, shuffles=10, seed=0)
        assert report.rate == pytest.approx(1.0)
        assert report.baseline_rate == pytest.approx(1.0)

    def test_hand_counted_fixture(self):
        # 2 channels x top-3: channel 0 = items 0,1,2; channel 1 = items 3,4,5
        channel_item = np.zeros((6, 2))
        channel_item[[0, 1, 2], 0] = [0.9, 0.8, 0.7]
        channel_item[[3, 4, 5], 1] = [0.9, 0.8, 0.7]
        genres = [
            frozenset({"a"}), frozenset({"a"}), frozenset({"b"}),   # pairs: (0,1) hit, (0,2), (1,2) miss
            frozenset({"c"}), frozenset({"c"}), frozenset({"c"}),   # all 3 pairs hit
        ]
        report = ev.cooccurrence_rate(channel_item, genres, top_t=3, shuffles=5, seed=1)
        assert report.rate == pytest.approx(4 / 6, abs=1e-12)
        assert report.per_channel[0] == pytest.approx(1 / 3, abs=1e-12)
        assert report.per_channel[1] == pytest.approx(1.0, abs=1e-12)

    def test_baseline_reproducible_and_bounded(self):
        rng = np.random.default_rng(3)
        channel_item = rng.random((30, 4))
        genres = [frozenset({f"g{rng.integers(3)}"}) for _ in range(30)]
        a = ev.cooccurrence_rate(channel_item, genres, top_t=5, shuffles=20, seed=9)
        b = ev.cooccurrence_rate(channel_item, genres, top_t=5, shuffles=20, seed=9)
        assert a.baseline_rate == b.baseline_rate
        assert 0.0 <= a.baseline_rate <= 1.0
        assert 0.0 <= a.rate <= 1.0

    def test_top_t_must_pair(self):
        with pytest.raises(ParameterError):
            ev.cooccurrence_rate(np.ones((5, 2)), [frozenset({"g"})] * 5, top_t=1)

    def test_non_integer_top_t_rejected(self):
        with pytest.raises(ParameterError, match="top_t must be >= 2 to form pairs and an integer"):
            ev.cooccurrence_rate(np.ones((5, 2)), [frozenset({"g"})] * 5, top_t=2.5)

    @pytest.mark.parametrize("shuffles", [0, -1])
    def test_shuffles_must_be_positive(self, shuffles):
        with pytest.raises(ParameterError, match="shuffles must be >= 1"):
            ev.cooccurrence_rate(np.ones((5, 2)), [frozenset({"g"})] * 5, top_t=2, shuffles=shuffles)

    def test_shuffles_are_bounded(self):
        genres = [frozenset({"g"})] * 5
        report = ev.cooccurrence_rate(np.ones((5, 2)), genres, top_t=2, shuffles=ev.MAX_SHUFFLES)
        assert report.shuffles == 10_000
        with pytest.raises(ParameterError, match="at most 10000"):
            ev.cooccurrence_rate(np.ones((5, 2)), genres, top_t=2, shuffles=10_001)


class TestScorerPaths:
    def test_rank_user_deterministic_and_masked(self):
        from intentcf import synthetic

        sd = synthetic.planted_channel_data(n_users=40, n_items=30, n_channels=3, seed=2)
        ds = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=1)
        cfg = tr.TrainConfig(k=3, d=4, l=2, intent_hidden=8, item_hidden=8, pref_hidden=8,
                             batch_size=16, pretrain_epochs=1, unified_epochs=1, seed=3)
        res = tr.train(ds, cfg, "/tmp/test_scorer_run")
        state = tr.load_checkpoint(res.last_checkpoint)
        scorer = tr.scorer_from_state(state)
        a, b = (scorer.blended_scores(ds.train, np.array([0])) for _ in range(2))
        np.testing.assert_array_equal(a, b)
        ranked = ev.rank_items(a, [ds.train.rows[0][0]], 10)
        np.testing.assert_array_equal(ranked, ev.rank_items(b, [ds.train.rows[0][0]], 10))
        assert not set(ds.train.rows[0][0].tolist()) & set(ranked[0].tolist())

    def test_unknown_user_rejected(self):
        split, positives = perfect_split()
        with pytest.raises(ParameterError, match="unknown user"):
            rc.recommend_blended(OracleScorer(positives, 9), split, 99, 5)
