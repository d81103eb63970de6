"""Intent recognition: Dirichlet-style prior in softmax basis, user intent
distributions, the shared-embedding item intent network and both intent
losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checks import is_int
from .data import BinaryMatrix
from .errors import ParameterError
from .nn import (
    MlpParams,
    diag_gaussian_kl,
    encode_gaussian,
    gaussian_reparameterize,
    init_mlp,
    init_parameter,
    mlp_forward,
    softmax_temp,
)
from .ranking import top_n

PROB_FLOOR = 1e-10


@dataclass
class LaplacePrior:
    """Diagonal Gaussian approximating a Dirichlet(alpha) in softmax basis.

    mu_k = log a_k - mean(log a); var_k = (1/a_k)(1 - 2/K) + (1/K^2) sum 1/a.
    """

    alpha: np.ndarray
    mu: np.ndarray
    sigma_diag: np.ndarray


def laplace_prior(alpha) -> LaplacePrior:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size < 2:
        raise ParameterError(f"alpha must be a vector with K >= 2, got shape {alpha.shape}")
    if np.any(alpha <= 0):
        raise ParameterError("all Dirichlet concentrations must be positive")
    k = alpha.size
    log_a = np.log(alpha)
    mu = log_a - log_a.mean()
    sigma = (1.0 / alpha) * (1.0 - 2.0 / k) + (1.0 / k**2) * (1.0 / alpha).sum()
    return LaplacePrior(alpha, mu, sigma)


def standard_prior(k: int) -> LaplacePrior:
    """N(0, I) fallback for the degenerate single-channel model, where the
    softmax-basis Dirichlet approximation has zero variance."""
    return LaplacePrior(np.ones(k), np.zeros(k), np.ones(k))


@dataclass
class IntentModel:
    """Encoder psi (input M, two K-dim heads), free channel logits (softmaxed
    per column over items) and the item intent network nu fed by the shared
    first-layer embedding rows.

    ``items`` is None for the model itself; a view made by ``over`` holds
    the item list it is restricted to.
    """

    encoder_psi: MlpParams
    beta_logits: Tensor
    item_net_nu: MlpParams
    k: int
    items: np.ndarray | None = None

    @property
    def embedding(self) -> Tensor:
        # first-layer weight matrix of psi; row j is the item-j embedding
        return self.encoder_psi.weights[0]

    def beta(self) -> Tensor:
        """Channel matrix, one row per item; each column of the full M x K
        matrix sums to 1 over items (a view takes its rows after the
        softmax)."""
        beta = ad.softmax(self.beta_logits, axis=0)
        return beta if self.items is None else ad.gather_rows(beta, self.items)

    def over(self, items: np.ndarray) -> "IntentModel":
        """View of the model on an increasing item list: psi's first-layer
        rows (a RowView, which also feeds nu) and beta's rows at those
        items."""
        return IntentModel(self.encoder_psi.over(items), self.beta_logits, self.item_net_nu, self.k,
                           np.asarray(items, dtype=np.intp))

    def parameters(self) -> list[Tensor]:
        return self.encoder_psi.parameters() + [self.beta_logits] + self.item_net_nu.parameters()


def init_intent_model(
    n_items: int, k: int, hidden: int, item_hidden: int, rng: np.random.Generator | None,
    arrays: dict[str, np.ndarray] | None = None,
) -> IntentModel:
    """A freshly drawn intent model, or the one held by a checkpoint's
    ``arrays`` (see nn.init_parameter)."""
    psi = init_mlp([n_items, hidden, 2 * k], rng, "psi", arrays=arrays)
    beta_logits = init_parameter("beta.logits", (n_items, k), lambda: 0.1 * rng.standard_normal((n_items, k)),
                                 arrays)
    nu = init_mlp([hidden, item_hidden, k], rng, "nu", arrays=arrays)
    return IntentModel(psi, beta_logits, nu, k)


def sample_gamma(mu: Tensor, logvar: Tensor, noise, tau: float) -> Tensor:
    """Channel distribution gamma of a reparameterized softmax-basis sample.
    Zero noise gives softmax_temp(mu, tau), the deterministic gamma; the
    evaluation path (Scorer._gamma) takes that directly and does not call
    this function."""
    sigma = ad.exp(ad.mul(logvar, 0.5))
    return softmax_temp(gaussian_reparameterize(mu, sigma, noise), tau)


def item_intents(model: IntentModel, tau: float) -> Tensor:
    """phi, K x M: column j is item j's soft channel distribution
    softmax(f_nu(W_j) / tau). The relaxed distribution is used everywhere;
    no one-hot sampling."""
    logits = mlp_forward(model.item_net_nu, model.embedding)  # (M, K)
    return ad.transpose(softmax_temp(logits, tau))


def multinomial_recon_loss(x: BinaryMatrix, gamma: Tensor, beta: Tensor) -> Tensor:
    """-sum_i sum_{j observed} log (beta gamma_i)_j over the batch, taken at
    the observed cells of x only."""
    probs = ad.matmul_cells(gamma, ad.transpose(beta), x.rows, x.cols)
    logp = ad.log(ad.clip_min(probs, PROB_FLOOR))
    return ad.mul(ad.tsum(logp), -1.0)


@dataclass
class IntentLossParts:
    total: Tensor
    recon: Tensor
    kl: Tensor
    gamma: Tensor  # sampled channel distributions, (B, K)


def intent_elbo_loss(
    model: IntentModel,
    prior: LaplacePrior,
    x: BinaryMatrix,
    noise: np.ndarray,
    eta: float,
    tau: float,
) -> IntentLossParts:
    """Negative ELBO of the intent network over a batch of binary cells x:
    the encoder reads them as dense rows, the reconstruction only at the
    cells.

    noise (B, K) draws one reparameterized sample per user; the KL is
    analytic.
    """
    if eta < 0:
        raise ParameterError(f"eta must be nonnegative, got {eta}")
    mu, logvar = encode_gaussian(model.encoder_psi, x.dense())
    beta = model.beta()
    gamma = sample_gamma(mu, logvar, noise, tau)
    recon = multinomial_recon_loss(x, gamma, beta)
    kl = diag_gaussian_kl(mu, logvar, prior.mu, prior.sigma_diag)
    total = ad.add(recon, ad.mul(kl, eta))
    return IntentLossParts(total, recon, kl, gamma)


def item_intent_kl_loss(phi: Tensor, gamma: Tensor, x: BinaryMatrix) -> Tensor:
    """sum over observed (i, j) of KL(phi_j || gamma_i), over the cells of x,
    with phi (K, M) and the user side treated as constant: gradients reach
    only the item network and the shared embedding, never the user encoder
    heads."""
    phi_rows = ad.transpose(phi)  # (M, K)
    log_gamma = np.log(np.maximum(gamma.data, PROB_FLOOR))  # a constant: no gradient to the user side
    # sum_j c_j * sum_k phi_jk log phi_jk, with c_j the batch count of item j
    counts = Tensor(np.bincount(x.cols, minlength=x.shape[1]))  # (M,)
    neg_entropy = ad.tsum(ad.mul(phi_rows, ad.log(ad.clip_min(phi_rows, PROB_FLOOR))), axis=1)  # (M,)
    term1 = ad.tsum(ad.mul(counts, neg_entropy))
    # sum_i sum_k (X phi)_ik log gamma_ik = sum_j sum_k phi_jk (X^T log gamma)_jk
    x_log_gamma = ad.sum_rows_by(log_gamma[x.rows], x.cols, x.shape[1])  # (M, K)
    cross = ad.tsum(ad.mul(phi_rows, Tensor(x_log_gamma)))
    return ad.sub(term1, cross)


def top_items_per_channel(beta_values: np.ndarray, top_t: int) -> list[list[tuple[int, float]]]:
    """For each channel (column), the top_t items by probability, ties broken
    by item index."""
    if not (is_int(top_t) and top_t >= 1):
        raise ParameterError(f"top_t must be >= 1 and an integer, got {top_t}")
    top = top_n(beta_values.T, top_t)
    return [[(int(j), float(beta_values[j, c])) for j in row] for c, row in enumerate(top)]
