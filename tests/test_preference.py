import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import data as dt
from intentcf import nn
from intentcf import preference as pr
from intentcf.autodiff import Tensor
from intentcf.errors import ParameterError, ShapeError

from cell_fixtures import cells


def select(gamma, top_l):
    """select_top_channels_batch for one gamma: (L,) indices and weights."""
    idx, w = pr.select_top_channels_batch(np.asarray(gamma)[None], top_l)
    return idx[0], w[0]


def tailored_rows(r, phi, idx):
    """decompose_ratings_batch as dense (B*L, M) rows."""
    tailored, values = pr.decompose_ratings_batch(cells(np.atleast_2d(r)), phi, np.atleast_2d(idx))
    return dt.Cells(tailored.rows, tailored.cols, values.data, tailored.shape).dense()


class TestSelectTopChannels:
    def test_example_weights(self):
        idx, w = select(np.array([0.5, 0.3, 0.1, 0.1]), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(w, [0.625, 0.375], atol=1e-12)

    def test_tie_breaks_to_lower_index(self):
        idx, w = select(np.array([0.4, 0.4, 0.2]), 1)
        assert idx.tolist() == [0]
        np.testing.assert_allclose(w, [1.0])

    def test_l_equals_k_identity(self):
        gamma = np.array([0.2, 0.5, 0.3])
        idx, w = select(gamma, 3)
        np.testing.assert_allclose(np.sort(w), np.sort(gamma), atol=1e-12)
        assert set(idx.tolist()) == {0, 1, 2}

    def test_bounds(self):
        with pytest.raises(ParameterError):
            select(np.ones(3) / 3, 0)
        with pytest.raises(ParameterError):
            select(np.ones(3) / 3, 4)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        gamma = rng.dirichlet(np.ones(6), size=9)
        idx, w = pr.select_top_channels_batch(gamma, 3)
        for i in range(9):
            one_idx, one_w = select(gamma[i], 3)
            np.testing.assert_array_equal(idx[i], one_idx)
            np.testing.assert_allclose(w[i], one_w, atol=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_weights_scale_invariant(self, seed, c):
        gamma = np.random.default_rng(seed).dirichlet(np.ones(5))
        a_idx, a_w = select(gamma, 2)
        b_idx, b_w = select(c * gamma, 2)
        np.testing.assert_array_equal(a_idx, b_idx)
        np.testing.assert_allclose(a_w, b_w, atol=1e-9)
        assert a_w.sum() == pytest.approx(1.0, abs=1e-12)


class TestDecompose:
    def test_one_hot_mask(self):
        phi = Tensor(np.array([[1.0, 0.0, 0.0]]))
        out = tailored_rows(np.array([5.0, 3.0, 0.0]), phi, [0])
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_mask_345(self):
        phi = Tensor(np.array([[1 / 3, 1 / 3, 1 / 3]]))
        out = tailored_rows(np.array([3.0, 4.0, 0.0]), phi, [0])
        np.testing.assert_allclose(out[0], [0.6, 0.8, 0.0], atol=1e-12)

    def test_zero_mask_passes_zero_row(self):
        phi = Tensor(np.array([[0.0, 0.0, 1.0]]))
        out = tailored_rows(np.array([3.0, 4.0, 0.0]), phi, [0])
        np.testing.assert_array_equal(out[0], np.zeros(3))

    def test_support_subset_property(self):
        rng = np.random.default_rng(1)
        phi = Tensor(rng.dirichlet(np.ones(8), size=4))  # (K=4 channels, M=8 items)
        r = np.zeros(8)
        r[[1, 3, 6]] = [5.0, 2.0, 4.0]
        out = tailored_rows(r, phi, [0, 2])
        support = set(np.flatnonzero(r).tolist())
        for row in out:
            assert set(np.flatnonzero(row).tolist()) <= support

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        phi = Tensor(rng.dirichlet(np.ones(5), size=3))  # (K=3, M=5)
        r = rng.integers(0, 5, size=(4, 5)).astype(float)
        idx = np.array([[0, 2], [1, 0], [2, 1], [0, 1]])
        batch = tailored_rows(r, phi, idx)
        for u in range(4):
            single = tailored_rows(r[u], phi, idx[u])
            np.testing.assert_allclose(batch[2 * u : 2 * u + 2], single, atol=1e-12)


class TestEncodePreference:
    def test_zero_input_zero_biases(self):
        model = pr.init_preference_model(5, 2, 3, np.random.default_rng(0))
        for b in model.encoder_theta.biases:
            b.data[...] = 0.0
        mu, logvar = nn.encode_gaussian(model.encoder_theta, np.zeros((1, 5)))
        np.testing.assert_array_equal(mu.data, np.zeros((1, 2)))
        np.testing.assert_array_equal(logvar.data, np.zeros((1, 2)))

    def test_zero_weights_output_biases(self):
        model = pr.init_preference_model(5, 2, 3, np.random.default_rng(0))
        for w in model.encoder_theta.weights:
            w.data[...] = 0.0
        model.encoder_theta.biases[1].data[...] = np.array([1.0, -1.0, 0.5, 0.25])
        mu, logvar = nn.encode_gaussian(model.encoder_theta, np.ones((2, 5)))
        np.testing.assert_allclose(mu.data, np.tile([1.0, -1.0], (2, 1)))
        np.testing.assert_allclose(logvar.data, np.tile([0.5, 0.25], (2, 1)))

    def test_matches_hand_forward(self):
        model = pr.init_preference_model(4, 2, 3, np.random.default_rng(9))
        x = np.array([[0.0, 0.6, 0.8, 0.0]])
        mu, logvar = nn.encode_gaussian(model.encoder_theta, x)
        t = model.encoder_theta
        h = np.tanh(x @ t.weights[0].data + t.biases[0].data)
        out = h @ t.weights[1].data + t.biases[1].data
        np.testing.assert_allclose(mu.data, out[:, :2], atol=1e-12)
        np.testing.assert_allclose(logvar.data, out[:, 2:], atol=1e-12)


def predict(u, item_matrix, weights):
    """predict_ratings_batch for one user's channel embeddings u (L, d)."""
    return pr.predict_ratings_batch(np.asarray(u)[None], np.asarray(weights)[None], item_matrix)[0]


class TestPredict:
    def test_weighted_average(self):
        # per-channel scores for one item: 4 and 2, weights 0.75/0.25 -> 3.5
        v = np.array([[1.0], [1.0]])  # d=2, M=1
        u = np.array([[3.0, 1.0], [1.0, 1.0]])  # u0.v = 4, u1.v = 2
        out = predict(u, v, [0.75, 0.25])
        assert out[0] == pytest.approx(3.5, abs=1e-12)

    def test_single_channel_identity(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3, 6))
        u = rng.standard_normal((1, 3))
        np.testing.assert_allclose(predict(u, v, [1.0]), (u @ v)[0], atol=1e-12)

    def test_equal_weights(self):
        v = np.array([[1.0], [0.0]])
        u = np.array([[1.0, 0.0], [3.0, 0.0]])
        assert predict(u, v, [0.5, 0.5])[0] == pytest.approx(2.0)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            predict(np.ones((1, 3)), np.ones((3, 4)), [0.5, 0.5])

    def test_per_channel_scores_independent_of_companions(self):
        # a channel's contribution does not depend on which other channels
        # were selected alongside it
        rng = np.random.default_rng(8)
        v = rng.standard_normal((3, 5))
        u_pair = rng.standard_normal((2, 3))
        alone = predict(u_pair[0:1], v, [1.0])
        paired = predict(u_pair, v, [1.0, 0.0])
        np.testing.assert_allclose(alone, paired, atol=1e-12)


class TestPreferenceElbo:
    def test_kl_zero_at_standard_normal(self):
        model = pr.init_preference_model(4, 2, 3, np.random.default_rng(0))
        for w in model.encoder_theta.weights:
            w.data[...] = 0.0
        for b in model.encoder_theta.biases:
            b.data[...] = 0.0
        parts = pr.preference_elbo_loss(model, cells(np.zeros((2, 4))), np.zeros(0), np.zeros((2, 2)), eta=1.0)
        assert parts.kl.item() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_kl_half(self):
        model = pr.init_preference_model(3, 1, 2, np.random.default_rng(0))
        for w in model.encoder_theta.weights:
            w.data[...] = 0.0
        model.encoder_theta.biases[0].data[...] = 0.0
        model.encoder_theta.biases[1].data[...] = np.array([1.0, 0.0])  # mu=1, logvar=0
        parts = pr.preference_elbo_loss(model, cells(np.zeros((1, 3))), np.zeros(0), np.zeros((1, 1)), eta=1.0)
        assert parts.kl.item() == pytest.approx(0.5, abs=1e-12)

    def test_perfect_reconstruction_zero(self):
        model = pr.init_preference_model(2, 1, 2, np.random.default_rng(0))
        for p in model.encoder_theta.parameters():
            p.data[...] = 0.0
        model.item_matrix.data[...] = 0.0
        tailored = Tensor(np.zeros(2))  # zero tailored values at both cells
        parts = pr.preference_elbo_loss(model, cells(np.ones((1, 2))), tailored, np.zeros((1, 1)), eta=0.0)
        assert parts.recon.item() == pytest.approx(0.0, abs=1e-15)
