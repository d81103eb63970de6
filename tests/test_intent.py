import numpy as np
import pytest

from intentcf import autodiff as ad
from intentcf import intent as it
from intentcf import nn
from intentcf.autodiff import Tensor
from intentcf.errors import ParameterError

from cell_fixtures import cells


class TestLaplacePrior:
    def test_symmetric_alpha_k4(self):
        p = it.laplace_prior(np.ones(4))
        np.testing.assert_array_equal(p.mu, np.zeros(4))
        np.testing.assert_allclose(p.sigma_diag, 0.75 * np.ones(4), rtol=0, atol=0)

    def test_symmetric_alpha_k2(self):
        p = it.laplace_prior(np.ones(2))
        np.testing.assert_allclose(p.sigma_diag, 0.5 * np.ones(2), rtol=0, atol=0)

    def test_asymmetric_k2(self):
        p = it.laplace_prior(np.array([2.0, 1.0]))
        np.testing.assert_allclose(p.mu, [0.34657, -0.34657], atol=5e-6)
        np.testing.assert_allclose(p.sigma_diag, [0.375, 0.375], atol=1e-12)

    def test_exact_formula(self):
        alpha = np.array([0.5, 1.5, 3.0])
        p = it.laplace_prior(alpha)
        k = 3
        exp_mu = np.log(alpha) - np.log(alpha).mean()
        exp_sig = (1 / alpha) * (1 - 2 / k) + (1 / k**2) * np.sum(1 / alpha)
        np.testing.assert_array_equal(p.mu, exp_mu)
        np.testing.assert_array_equal(p.sigma_diag, exp_sig)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            it.laplace_prior(np.array([1.0, 0.0]))

    def test_rejects_k1(self):
        with pytest.raises(ParameterError):
            it.laplace_prior(np.array([1.0]))


def tiny_model(m=6, k=3, hidden=4, seed=0):
    return it.init_intent_model(m, k, hidden, hidden, np.random.default_rng(seed))


def one_row(m, idx):
    x = np.zeros((1, m))
    x[0, idx] = 1.0
    return x


class TestEncodeUser:
    def test_all_zero_weights_give_zero_heads(self):
        model = tiny_model()
        for p in model.encoder_psi.parameters():
            p.data[...] = 0.0
        mu, logvar = nn.encode_gaussian(model.encoder_psi, one_row(6, [0, 2]))
        np.testing.assert_array_equal(mu.data[0], np.zeros(3))
        np.testing.assert_array_equal(logvar.data[0], np.zeros(3))

    def test_one_hot_row_is_embedding_lookup(self):
        model = tiny_model(seed=5)
        j = 4
        w0, b0 = model.encoder_psi.weights[0].data, model.encoder_psi.biases[0].data
        mu, _ = nn.encode_gaussian(model.encoder_psi, one_row(6, [j]))
        h = np.tanh(w0[j] + b0)
        expected = (h @ model.encoder_psi.weights[1].data + model.encoder_psi.biases[1].data)[:3]
        np.testing.assert_allclose(mu.data[0], expected, atol=1e-12)

    def test_matches_dense_batch_path(self):
        # a one-row batch over the item union equals the row over all items
        model = tiny_model(seed=7)
        idx = np.array([1, 3])
        mu_s, lv_s = nn.encode_gaussian(model.over(idx).encoder_psi, np.ones((1, 2)))
        mu_b, lv_b = nn.encode_gaussian(model.encoder_psi, one_row(6, idx))
        np.testing.assert_allclose(mu_s.data, mu_b.data, atol=1e-12)
        np.testing.assert_allclose(lv_s.data, lv_b.data, atol=1e-12)

    def test_empty_row_rejected(self):
        from intentcf import data as dt
        from intentcf import evaluation as ev
        from intentcf import preference as pr

        rows = [(np.array([0, 2], dtype=np.intp), np.array([4.0, 5.0])), (np.array([], dtype=np.intp), np.array([]))]
        train = dt.RatingMatrix(["a", "b"], [f"i{j}" for j in range(6)], rows)
        scorer = ev.Scorer(tiny_model(), pr.init_preference_model(6, 2, 4, np.random.default_rng(0)), 2, 0.5)
        with pytest.raises(ParameterError, match="cold"):
            scorer.gamma(train, np.array([1]))


class TestSampleGamma:
    def test_zero_mu_gives_uniform(self):
        out = it.sample_gamma(Tensor(np.zeros(3)), Tensor(np.zeros(3)), np.zeros(3), tau=0.7)
        np.testing.assert_allclose(out.data, np.ones(3) / 3, atol=1e-12)

    def test_closed_form(self):
        out = it.sample_gamma(Tensor(np.array([1.0, 0.0])), Tensor(np.zeros(2)), np.zeros(2), tau=0.4)
        np.testing.assert_allclose(out.data, [0.92414, 0.07586], atol=5e-6)

    def test_smaller_tau_concentrates(self):
        mu = Tensor(np.array([0.5, 0.1, -0.2]))
        hot = it.sample_gamma(mu, Tensor(np.zeros(3)), np.zeros(3), tau=0.2).data
        mild = it.sample_gamma(mu, Tensor(np.zeros(3)), np.zeros(3), tau=1.0).data
        assert hot.max() > mild.max()


class TestItemIntents:
    def test_zero_network_uniform_columns(self):
        model = tiny_model()
        for p in model.item_net_nu.parameters():
            p.data[...] = 0.0
        phi = it.item_intents(model, tau=0.4)
        np.testing.assert_allclose(phi.data, np.full((3, 6), 1 / 3), atol=1e-12)

    def test_columns_sum_to_one(self):
        phi = it.item_intents(tiny_model(seed=3), tau=0.4)
        np.testing.assert_allclose(phi.data.sum(axis=0), np.ones(6), atol=1e-10)

    def test_single_item_closed_form(self):
        # craft nu so f_nu(W_0) = [1, 0]; tau=0.5 -> softmax([2, 0])
        model = it.init_intent_model(1, 2, 2, 2, np.random.default_rng(0))
        model.encoder_psi.weights[0].data[...] = np.array([[1.0, 0.0]])
        model.item_net_nu.weights[0].data[...] = 0.0
        model.item_net_nu.biases[0].data[...] = 0.0
        model.item_net_nu.weights[1].data[...] = 0.0
        model.item_net_nu.biases[1].data[...] = np.array([1.0, 0.0])
        phi = it.item_intents(model, tau=0.5)
        np.testing.assert_allclose(phi.data[:, 0], [0.88080, 0.11920], atol=5e-6)


class TestIntentElbo:
    def test_kl_zero_when_posterior_equals_prior(self):
        prior = it.laplace_prior(np.ones(3))
        mu = Tensor(np.tile(prior.mu, (2, 1)))
        logvar = Tensor(np.tile(np.log(prior.sigma_diag), (2, 1)))
        kl = nn.diag_gaussian_kl(mu, logvar, prior.mu, prior.sigma_diag)
        assert kl.item() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_kl_half(self):
        prior = it.LaplacePrior(np.ones(1), np.zeros(1), np.ones(1))
        kl = nn.diag_gaussian_kl(Tensor(np.array([[1.0]])), Tensor(np.array([[0.0]])), prior.mu, prior.sigma_diag)
        assert kl.item() == pytest.approx(0.5, abs=1e-12)

    def test_single_observation_reconstruction(self):
        # beta gamma = [0.8, 0.2], X = [1, 0] -> recon = -log 0.8
        gamma = Tensor(np.array([[1.0]]))
        beta = Tensor(np.array([[0.8], [0.2]]))
        x = cells([[1.0, 0.0]])
        loss = it.multinomial_recon_loss(x, gamma, beta)
        assert loss.item() == pytest.approx(-np.log(0.8), abs=1e-12)
        assert loss.item() == pytest.approx(0.22314, abs=5e-6)

    def test_full_loss_parts_combine(self):
        model = tiny_model(seed=11)
        prior = it.laplace_prior(np.ones(3))
        x = np.zeros((2, 6))
        x[0, [0, 1]] = 1.0
        x[1, [3, 5]] = 1.0
        noise = np.random.default_rng(0).standard_normal((2, 3))
        parts = it.intent_elbo_loss(model, prior, cells(x), noise, eta=0.7, tau=0.5)
        assert parts.total.item() == pytest.approx(parts.recon.item() + 0.7 * parts.kl.item(), rel=1e-12)

    def test_monte_carlo_matches_analytic_kl(self):
        # acceptance-style oracle at small scale: 5 random diagonal pairs
        rng = np.random.default_rng(42)
        for _ in range(5):
            k = rng.integers(2, 8)
            mu_q = rng.normal(0, 1, k)
            logvar_q = rng.uniform(-1, 1, k)
            mu_p = rng.normal(0, 1, k)
            var_p = np.exp(rng.uniform(-1, 1, k))
            analytic = nn.diag_gaussian_kl(Tensor(mu_q), Tensor(logvar_q), mu_p, var_p).item()
            z = mu_q + rng.standard_normal((100_000, k)) * np.exp(0.5 * logvar_q)
            logq = -0.5 * (((z - mu_q) ** 2) / np.exp(logvar_q) + logvar_q + np.log(2 * np.pi)).sum(axis=1)
            logp = -0.5 * (((z - mu_p) ** 2) / var_p + np.log(var_p) + np.log(2 * np.pi)).sum(axis=1)
            mc = (logq - logp).mean()
            assert analytic == pytest.approx(mc, rel=0.02, abs=0.01)


class TestItemIntentKl:
    def test_zero_when_phi_matches_gamma(self):
        phi = Tensor(np.array([[0.6, 0.25], [0.4, 0.75]]))  # (K=2, M=2)
        gamma = Tensor(np.array([[0.6, 0.4]]))
        x = cells([[1.0, 0.0]])  # only item 0 observed, phi_0 == gamma_0
        loss = it.item_intent_kl_loss(phi, gamma, x)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_near_one_hot_against_uniform(self):
        eps = 1e-6
        phi = Tensor(np.array([[1 - eps], [eps]]))
        gamma = Tensor(np.array([[0.5, 0.5]]))
        x = cells([[1.0]])
        loss = it.item_intent_kl_loss(phi, gamma, x)
        expected = (1 - eps) * np.log((1 - eps) / 0.5) + eps * np.log(eps / 0.5)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(np.log(2), abs=1e-4)

    def test_stop_gradient_blocks_user_encoder(self):
        model = tiny_model(seed=13)
        x = np.zeros((2, 6))
        x[0, [0, 4]] = 1.0
        x[1, [2]] = 1.0
        mu, logvar = nn.encode_gaussian(model.encoder_psi, x)
        gamma = it.sample_gamma(mu, logvar, np.zeros((2, 3)), tau=0.4)
        phi = it.item_intents(model, tau=0.4)
        loss = it.item_intent_kl_loss(phi, gamma, cells(x))
        grads = ad.gradients(loss, model.parameters())
        # every psi parameter except the shared embedding gets exactly zero
        assert np.array_equal(grads["psi.b0"], np.zeros_like(grads["psi.b0"]))
        assert np.array_equal(grads["psi.w1"], np.zeros_like(grads["psi.w1"]))
        assert np.array_equal(grads["psi.b1"], np.zeros_like(grads["psi.b1"]))
        assert np.array_equal(grads["beta.logits"], np.zeros_like(grads["beta.logits"]))
        # the shared embedding and the item net do receive gradient
        assert np.abs(grads["psi.w0"]).max() > 0
        assert np.abs(grads["nu.w0"]).max() > 0

    def test_counts_weight_repeated_items(self):
        phi = Tensor(np.array([[0.9, 0.3], [0.1, 0.7]]))
        gamma = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]))
        both = cells([[1.0, 0.0], [1.0, 0.0]])
        single = cells([[1.0, 0.0]])
        l_both = it.item_intent_kl_loss(phi, gamma, both).item()
        l_single = it.item_intent_kl_loss(phi, Tensor(gamma.data[0:1]), single).item()
        assert l_both == pytest.approx(2 * l_single, rel=1e-12)


class TestTopItems:
    def test_ranking_and_ties(self):
        beta = np.array([[0.5, 0.2], [0.3, 0.2], [0.2, 0.6]])
        top = it.top_items_per_channel(beta, 2)
        assert [j for j, _ in top[0]] == [0, 1]
        assert [j for j, _ in top[1]] == [2, 0]  # tie 0.2/0.2 -> lower index

    def test_rejects_bad_top(self):
        with pytest.raises(ParameterError):
            it.top_items_per_channel(np.ones((3, 2)), 0)

    def test_rejects_non_integer_top(self):
        with pytest.raises(ParameterError, match="top_t must be >= 1 and an integer"):
            it.top_items_per_channel(np.ones((3, 2)), 2.5)

    def test_top_beyond_the_items_lists_every_item(self):
        beta = np.array([[0.5, 0.2], [0.3, 0.2], [0.2, 0.6]])
        top = it.top_items_per_channel(beta, 10**30)
        assert [[j for j, _ in channel] for channel in top] == [[0, 1, 2], [2, 0, 1]]
