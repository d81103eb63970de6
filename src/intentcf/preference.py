"""Preference decomposition: channel-tailored rating rows, the shared
encoder over channels, per-channel embeddings and the weighted rating
prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Cells
from .errors import ParameterError, ShapeError
from .nn import MlpParams, diag_gaussian_kl, encode_gaussian, gaussian_reparameterize, init_mlp, init_parameter


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
        return PreferenceModel(self.encoder_theta.over(items), ad.gather_cols(self.item_matrix, items), self.d)

    def parameters(self) -> list[Tensor]:
        return self.encoder_theta.parameters() + [self.item_matrix]


def init_preference_model(n_items: int, d: int, hidden: int, rng: np.random.Generator | None,
                          arrays: dict[str, np.ndarray] | None = None) -> PreferenceModel:
    """A freshly drawn preference model, or the one held by a checkpoint's
    ``arrays`` (see nn.init_parameter)."""
    theta = init_mlp([n_items, hidden, 2 * d], rng, "theta", arrays=arrays)
    v = init_parameter("item.V", (d, n_items), lambda: rng.standard_normal((d, n_items)) / np.sqrt(d), arrays)
    return PreferenceModel(theta, v, d)


def select_top_channels_batch(gamma: np.ndarray, top_l: int) -> tuple[np.ndarray, np.ndarray]:
    """The top_l highest-probability channels of each row of gamma (B, K),
    ties toward the lower channel index: (B, L) indices and (B, L) weights
    renormalized to sum to 1."""
    gamma = np.asarray(gamma, dtype=np.float64)
    if not 1 <= top_l <= gamma.shape[1]:
        raise ParameterError(f"need 1 <= L <= K, got L={top_l}, K={gamma.shape[1]}")
    order = np.argsort(-gamma, axis=1, kind="stable")[:, :top_l]
    picked = np.take_along_axis(gamma, order, axis=1)
    return order.astype(np.intp), picked / picked.sum(axis=1, keepdims=True)


def decompose_ratings_batch(ratings: Cells, phi: Tensor, channel_idx: np.ndarray) -> tuple[Cells, Tensor]:
    """Channel-tailored inputs of a batch, at their cells: row b*L + l is
    l2norm(phi[channel_idx[b, l]] * R_b), nonzero only at user b's rated
    items. ``ratings`` are the (B, C) rating cells and phi is (K, C).

    Returns the tailored cells over (B*L, C), whose values are the raw
    ratings, and the tailored values at those cells.
    """
    b, top_l = channel_idx.shape
    rows = (ratings.rows[:, None] * top_l + np.arange(top_l)).ravel()
    cols = np.repeat(ratings.cols, top_l)
    raw = np.repeat(ratings.values, top_l)
    picked = ad.gather_cells(phi, channel_idx[ratings.rows].ravel(), cols)
    tailored = ad.l2norm_cells(ad.mul(picked, Tensor(raw)), rows, b * top_l)
    return Cells(rows, cols, raw, (b * top_l, ratings.shape[1])), tailored


def dense_input(cells: Cells, values) -> Tensor:
    """The (rows, C) encoder input holding ``values`` at ``cells``."""
    return ad.scatter_cells(values, cells.rows, cells.cols, cells.shape)


def predict_ratings_batch(u: np.ndarray, weights: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
    """Weighted average of per-channel inner products for B users: for user
    b and item j, sum_l weights[b, l] (u[b, l] . v_j), with u (B, L, d) and
    weights (B, L). Evaluation path, plain arrays."""
    u = np.asarray(u, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if u.ndim != 3 or u.shape[:2] != weights.shape:
        raise ShapeError(f"u {u.shape} must be (B, L, d) with weights (B, L), got weights {weights.shape}")
    if u.shape[2] != item_matrix.shape[0]:
        raise ShapeError(f"embedding dim {u.shape} does not match item matrix {item_matrix.shape}")
    # sum_l w_l (u_l . v_j) = (sum_l w_l u_l) . v_j
    return np.einsum("bl,bld->bd", weights, u) @ item_matrix


@dataclass
class PreferenceLossParts:
    total: Tensor
    recon: Tensor
    kl: Tensor


def preference_elbo_loss(
    model: PreferenceModel,
    cells: Cells,
    tailored,
    noise: np.ndarray,
    eta: float,
) -> PreferenceLossParts:
    """Negative ELBO of the preference network over tailored rows given at
    their cells, as decompose_ratings_batch returns them.

    The encoder reads the rows as dense (rows, C) inputs; the squared-error
    reconstruction of u @ V is taken at the same cells, against the tailored
    values. eta weighs the KL of the posterior against the standard normal
    prior.
    """
    if eta < 0:
        raise ParameterError(f"eta must be nonnegative, got {eta}")
    mu, logvar = encode_gaussian(model.encoder_theta, dense_input(cells, tailored))
    u = gaussian_reparameterize(mu, ad.exp(ad.mul(logvar, 0.5)), noise)
    pred = ad.matmul_cells(u, model.item_matrix, cells.rows, cells.cols)
    diff = ad.sub(pred, tailored)
    recon = ad.tsum(ad.mul(diff, diff))
    kl = diag_gaussian_kl(mu, logvar, 0.0, 1.0)
    return PreferenceLossParts(ad.add(recon, ad.mul(kl, eta)), recon, kl)
