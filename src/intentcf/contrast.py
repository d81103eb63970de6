"""Disentangled contrastive learning: dropout-augmented channel views
against the original-feedback embedding."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Cells
from .errors import ParameterError
from .nn import encode_gaussian
from .preference import PreferenceModel, dense_input

_AUG_STREAM = 4242  # seed-sequence tag separating augmentation draws


def augmentation_mask(rows: np.ndarray, n_rows: int, node_dropout_rate: float, edge_dropout_rate: float,
                      seed: int, step: int) -> np.ndarray:
    """0/1 dropout mask of a batch of tailored inputs given at their cells,
    where cell c lies in row rows[c] of n_rows: one edge draw per cell, then
    one node draw per row, from the (seed, step) stream."""
    for name, rate in (("node_dropout_rate", node_dropout_rate), ("edge_dropout_rate", edge_dropout_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {rate}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), _AUG_STREAM, int(step), 0])))
    edge = rng.random(len(rows)) >= edge_dropout_rate
    node = rng.random(n_rows) >= node_dropout_rate
    return (edge & node[rows]).astype(np.float64)


def augmented_view(tailored: Tensor, cells: Cells, node_dropout_rate: float, edge_dropout_rate: float, seed: int,
                   step: int) -> Tensor:
    """Dropout view of tailored inputs given at their cells: the values
    times augmentation_mask's draws at the cells, then re-L2-normalized per
    row. Deterministic given (seed, step) and the cells."""
    mask = augmentation_mask(cells.rows, cells.shape[0], node_dropout_rate, edge_dropout_rate, seed, step)
    return ad.l2norm_cells(ad.mul(tailored, Tensor(mask)), cells.rows, cells.shape[0])


def embed_original(model: PreferenceModel, ratings: Cells) -> Tensor:
    """Encoder mean of the L2-normalized raw rating rows, given as their
    cells (no sampling)."""
    unit = ad.l2norm_cells(Tensor(ratings.values), ratings.rows, ratings.shape[0])
    mu, _ = encode_gaussian(model.encoder_theta, dense_input(ratings, unit))
    return mu


def contrastive_loss(originals: Tensor, augmented: Tensor, n_channels: int, tau_c: float) -> Tensor:
    """sum over users and channel slots of
    -log exp(cos(ori_i, aug_il)/tau_c) / sum_{i' != i} exp(cos(ori_i, aug_i'l)/tau_c),
    for original embeddings (B, d) against the per-channel augmented
    embeddings, stored user-major as (B*L, d).

    Negatives are the other in-batch users' augmented views at the same
    channel slot; the positive pair is excluded from the denominator.
    Cosine of a zero vector is 0.
    """
    b = originals.shape[0]
    if b < 2:
        raise ParameterError(f"contrastive batch needs at least 2 users, got {b}")
    if tau_c <= 0:
        raise ParameterError(f"tau_c must be positive, got {tau_c}")
    if augmented.shape[0] != b * n_channels:
        raise ParameterError(f"augmented rows {augmented.shape[0]} != batch {b} * channels {n_channels}")
    ori_n = ad.l2norm_rows(originals)
    inv_tau = 1.0 / tau_c
    denom_mask = 1.0 - np.eye(b)
    diag_idx = np.arange(b)[:, None]
    total = None
    for l in range(n_channels):
        rows = np.arange(b) * n_channels + l
        aug_n = ad.l2norm_rows(ad.gather_rows(augmented, rows))
        sim = ad.matmul(ori_n, ad.transpose(aug_n))  # (B, B) cosines
        scaled = ad.mul(sim, inv_tau)
        pos = ad.reshape(ad.take_along_last(scaled, diag_idx), (b,))
        denom = ad.tsum(ad.mul(ad.exp(scaled), Tensor(denom_mask)), axis=1)
        term = ad.tsum(ad.sub(ad.log(denom), pos))
        total = term if total is None else ad.add(total, term)
    return total
