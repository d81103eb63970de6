"""Preference decomposition: channel-tailored rating rows, the shared
encoder over channels, per-channel embeddings and the weighted rating
prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError
from .nn import MlpParams, diag_gaussian_kl, init_mlp, mlp_forward


@dataclass
class PreferenceModel:
    """One encoder theta (input M, two d-dim heads) shared by every intent
    channel, plus the d x M item property matrix."""

    encoder_theta: MlpParams
    item_matrix: Tensor  # V, (d, M)
    d: int

    def over(self, items: np.ndarray) -> "PreferenceModel":
        """View of the model on an item list: theta's first-layer rows and
        V's columns at those items. Gradients scatter back into the full
        parameters."""
        theta = self.encoder_theta
        w0 = ad.gather_rows(theta.weights[0], items)
        return PreferenceModel(MlpParams([w0, *theta.weights[1:]], theta.biases, theta.activation),
                               ad.gather_cols(self.item_matrix, items), self.d)

    def parameters(self) -> list[Tensor]:
        return self.encoder_theta.parameters() + [self.item_matrix]


def init_preference_model(n_items: int, d: int, hidden: int, rng: np.random.Generator) -> PreferenceModel:
    theta = init_mlp([n_items, hidden, 2 * d], rng, "theta")
    v = ad.parameter(rng.standard_normal((d, n_items)) / np.sqrt(d), "item.V")
    return PreferenceModel(theta, v, d)


@dataclass
class ChannelSelection:
    """The L highest-probability channels of one gamma and their renormalized
    weights. Ties break toward the lower channel index."""

    channel_indices: np.ndarray  # (L,) ints, descending gamma
    weights: np.ndarray  # (L,), sums to 1


def select_top_channels(gamma: np.ndarray, top_l: int) -> ChannelSelection:
    gamma = np.asarray(gamma, dtype=np.float64)
    k = gamma.size
    if not 1 <= top_l <= k:
        raise ParameterError(f"need 1 <= L <= K, got L={top_l}, K={k}")
    order = np.lexsort((np.arange(k), -gamma))[:top_l]
    picked = gamma[order]
    return ChannelSelection(order.astype(np.intp), picked / picked.sum())


def select_top_channels_batch(gamma: np.ndarray, top_l: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized top-L per row: (B, L) indices and (B, L) weights."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if not 1 <= top_l <= gamma.shape[1]:
        raise ParameterError(f"need 1 <= L <= K, got L={top_l}, K={gamma.shape[1]}")
    order = np.argsort(-gamma, axis=1, kind="stable")[:, :top_l]
    picked = np.take_along_axis(gamma, order, axis=1)
    return order.astype(np.intp), picked / picked.sum(axis=1, keepdims=True)


def decompose_ratings(r_row: np.ndarray, phi: Tensor, sel: ChannelSelection) -> Tensor:
    """Channel-tailored inputs for one user: row l is
    l2norm(phi[channel_l] * R_i) (elementwise mask, then rescale)."""
    phi_sel = ad.gather_rows(phi, sel.channel_indices)  # (L, M)
    masked = ad.mul(phi_sel, Tensor(np.asarray(r_row, dtype=np.float64)))
    return ad.l2norm_rows(masked)


def decompose_ratings_batch(r_dense: np.ndarray, phi: Tensor, channel_idx: np.ndarray) -> Tensor:
    """Tailored inputs for a batch: rows ordered user-major, (B*L, M)."""
    b, top_l = channel_idx.shape
    phi_sel = ad.gather_rows(phi, channel_idx.reshape(-1))  # (B*L, M)
    r_rep = np.repeat(np.asarray(r_dense, dtype=np.float64), top_l, axis=0)
    return ad.l2norm_rows(ad.mul(phi_sel, Tensor(r_rep)))


def encode_preference(model: PreferenceModel, r_il) -> tuple[Tensor, Tensor]:
    """Posterior mean and log-variance heads for tailored inputs (rows)."""
    out = mlp_forward(model.encoder_theta, r_il)
    return ad.slice_cols(out, 0, model.d), ad.slice_cols(out, model.d, 2 * model.d)


def predict_ratings(u: np.ndarray, item_matrix: np.ndarray, sel: ChannelSelection) -> np.ndarray:
    """Weighted average of per-channel inner products: for item j,
    sum_l w_l (u_l . v_j). Evaluation path, plain arrays."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if u.shape[0] != len(sel.channel_indices):
        raise ShapeError(
            f"u has {u.shape[0]} channel rows but selection holds {len(sel.channel_indices)} channels"
        )
    if u.shape[1] != item_matrix.shape[0]:
        raise ShapeError(f"embedding dim {u.shape} does not match item matrix {item_matrix.shape}")
    return sel.weights @ (u @ item_matrix)


@dataclass
class PreferenceLossParts:
    total: Tensor
    recon: Tensor
    kl: Tensor


def preference_elbo_loss(
    model: PreferenceModel,
    tailored: Tensor,
    targets: Tensor,
    obs_mask: np.ndarray,
    noise: np.ndarray,
    eta: float,
) -> PreferenceLossParts:
    """Negative ELBO of the preference network over tailored rows.

    Squared-error reconstruction over the masked (observed) entries plus
    eta * KL of the posterior against the standard normal prior.
    """
    if eta < 0:
        raise ParameterError(f"eta must be nonnegative, got {eta}")
    mu, logvar = encode_preference(model, tailored)
    sigma = ad.exp(ad.mul(logvar, 0.5))
    u = ad.add(mu, ad.mul(Tensor(np.asarray(noise, dtype=np.float64)), sigma))
    pred = ad.matmul(u, model.item_matrix)  # (rows, M)
    diff = ad.mul(ad.sub(pred, targets), Tensor(np.asarray(obs_mask, dtype=np.float64)))
    recon = ad.tsum(ad.mul(diff, diff))
    kl = diag_gaussian_kl(mu, logvar, 0.0, 1.0)
    return PreferenceLossParts(ad.add(recon, ad.mul(kl, eta)), recon, kl)
