"""Two-stage optimization: intent pretraining, unified training with all
four losses, warm-up schedules, checkpointing and run manifests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import mmap
import os
import shutil
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checks import is_finite, is_int, is_real
from .contrast import augmented_view, contrastive_loss, embed_original
from .data import ItemBatch, SplitDataset, item_batch
from .errors import CheckpointError, ParameterError, ShapeError, TrainingError, UsageError
from .evaluation import Scorer, evaluate, scored_users
from .intent import (
    IntentModel,
    LaplacePrior,
    init_intent_model,
    intent_elbo_loss,
    item_intent_kl_loss,
    item_intents,
    laplace_prior,
    standard_prior,
)
from .nn import Adam, RowGrad, RowView, encode_gaussian, stored_array
from .preference import (
    PreferenceModel,
    decompose_ratings_batch,
    dense_input,
    init_preference_model,
    preference_elbo_loss,
    select_top_channels_batch,
)

VARIANTS = ("ddcf", "ddcf-n", "ddcf-s", "k1-baseline")

# seed-sequence stream tags
_INIT, _SHUFFLE, _NOISE_INTENT, _NOISE_PREF = 0, 1, 2, 3


def _stream_rng(seed: int, tag: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), tag, int(step)])))


# the value test and description of each TrainConfig annotation (a string)
_FIELD_TYPES = {
    "int": (is_int, "an integer"),
    "float": (is_finite, "a finite number"),
    "float | None": (lambda v: v is None or is_finite(v), "a finite number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
}

# Former options, each with the one value every run used. Checkpoint headers
# and config files written while they existed carry them.
_RETIRED = {"prob_floor": 1e-10, "include_positive_pair": False, "detach_tailored": False,
            "pref_zero_negatives": False, "pref_target_raw": False, "skip_pretrain": False, "mc_samples": 1}


@dataclass
class TrainConfig:
    """All hyperparameters of a run. Field names double as config-file keys."""

    k: int = 50
    d: int = 32
    l: int = 2
    intent_hidden: int = 100
    item_hidden: int = 100
    pref_hidden: int = 100
    tau_start: float = 1.0
    tau_end: float = 0.4
    tau_c: float = 0.2
    eta_max: float = 1.0
    kappa: int = 1000
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda4: float = 0.001
    alpha_k: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 256
    pretrain_epochs: int = 50
    unified_epochs: int = 100
    patience: int = 10
    seed: int = 0
    node_dropout: float = 0.1
    edge_dropout: float = 0.1
    intent_min_rating: float | None = None
    variant: str = "ddcf"

    def validate(self) -> None:
        if not (self.k >= self.l >= 1):
            raise UsageError(f"need K >= L >= 1, got K={self.k}, L={self.l}")
        for name in ("tau_start", "tau_end", "tau_c", "learning_rate", "alpha_k"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("lambda2", "lambda3", "lambda4", "eta_max"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("seed", "patience"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.kappa < 1:
            raise UsageError(f"kappa must be >= 1, got {self.kappa}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.d < 1 or self.intent_hidden < 1 or self.pref_hidden < 1 or self.item_hidden < 1:
            raise UsageError("all layer widths must be >= 1")
        if self.pretrain_epochs < 0 or self.unified_epochs < 0:
            raise UsageError("epoch counts must be >= 0")
        if self.pretrain_epochs + self.unified_epochs < 1:
            raise UsageError("a run needs at least one epoch: pretrain_epochs plus unified_epochs is 0")
        for name in ("node_dropout", "edge_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise UsageError(f"{name} must lie in [0, 1], got {rate}")
        if self.variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config a JSON object describes. Every value must have its
        field's type; a retired key loads only at the value it always held,
        and is dropped."""
        for key, value in _RETIRED.items():
            if key in d and not (type(d[key]) is type(value) and d[key] == value):
                raise UsageError(f"config key {key!r} is retired; only {value!r} is accepted, got {d[key]!r}")
        d = {key: value for key, value in d.items() if key not in _RETIRED}
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(fields)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            accepts, kind = _FIELD_TYPES[fields[key]]
            if not accepts(value):
                raise UsageError(f"config key {key!r} needs {kind}, got {value!r}")
        return cls(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def resolve_variant(cfg: TrainConfig) -> TrainConfig:
    """Apply the variant's semantics: positives-only intent input (ddcf-n),
    no contrastive loss (ddcf-s), or the single-channel baseline."""
    out = dataclasses.replace(cfg)
    if cfg.variant == "ddcf-n":
        if out.intent_min_rating is None:
            out.intent_min_rating = 4.0
    elif cfg.variant == "ddcf-s":
        out.lambda4 = 0.0
    elif cfg.variant == "k1-baseline":
        out.k = 1
        out.l = 1
    return out


def kl_weight(cfg: TrainConfig, step: int) -> float:
    """eta at global batch ``step``: a linear ramp from 0 to eta_max over
    kappa batches, then flat."""
    return cfg.eta_max * min(step / cfg.kappa, 1.0)


def temperature(cfg: TrainConfig, epoch: int) -> float:
    """tau at ``epoch``: a linear anneal from tau_start to tau_end over the
    run's epochs, reached at the last one."""
    frac = min(epoch / max(cfg.pretrain_epochs + cfg.unified_epochs - 1, 1), 1.0)
    return cfg.tau_start + (cfg.tau_end - cfg.tau_start) * frac


@dataclass
class TrainerState:
    cfg: TrainConfig
    n_users: int
    n_items: int
    intent: IntentModel
    pref: PreferenceModel
    prior: LaplacePrior
    opt: Adam
    epoch: int = 0
    global_batch: int = 0
    best_val: float = -np.inf
    best_epoch: int = -1
    bad_epochs: int = 0
    tau: float = 1.0
    eta: float = 0.0
    history: list = field(default_factory=list)

    def all_parameters(self):
        return self.intent.parameters() + self.pref.parameters()


def build_state(cfg: TrainConfig, n_users: int, n_items: int, arrays: dict[str, np.ndarray] | None = None
                ) -> TrainerState:
    """A run's initial state, drawn from cfg.seed; or, given a checkpoint's
    ``arrays``, the model and prior they hold. Either way the shapes come
    from the init functions, and a missing or mis-shaped array raises
    ShapeError naming it. A model too large to allocate, or wider than
    numpy's largest array, raises ParameterError."""
    rng = None
    if arrays is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(cfg.seed), _INIT])))
    try:
        intent = init_intent_model(n_items, cfg.k, cfg.intent_hidden, cfg.item_hidden, rng, arrays)
        pref = init_preference_model(n_items, cfg.d, cfg.pref_hidden, rng, arrays)
    except (MemoryError, ValueError):
        raise ParameterError(f"the model over {n_items} items does not fit in memory: k={cfg.k}, d={cfg.d}, "
                             f"intent_hidden={cfg.intent_hidden}, item_hidden={cfg.item_hidden}, "
                             f"pref_hidden={cfg.pref_hidden}") from None
    if arrays is not None:
        prior = LaplacePrior(*(stored_array(arrays, f"prior.{name}", (cfg.k,)) for name in ("alpha", "mu", "var")))
    elif cfg.k >= 2:
        prior = laplace_prior(np.full(cfg.k, cfg.alpha_k))
    else:
        # softmax-basis Dirichlet approximation needs K >= 2; the single-channel
        # baseline falls back to a unit Gaussian (gamma is identically 1 anyway)
        prior = standard_prior(1)
    return TrainerState(cfg, n_users, n_items, intent, pref, prior, Adam(cfg.learning_rate), tau=cfg.tau_start)


@dataclass
class BatchLosses:
    total: Tensor
    l1: Tensor
    l2: Tensor
    l3: Tensor | None
    l4: Tensor | None
    kl_intent: Tensor
    kl_pref: Tensor | None

    def scalars(self) -> dict:
        """Each term's value, 0.0 for a term the batch did not evaluate."""
        terms = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {name: 0.0 if term is None else term.item() for name, term in terms.items()}


def compute_batch_losses(state: TrainerState, batch: ItemBatch, eta: float, tau: float, step: int,
                         stage: str) -> BatchLosses:
    """All loss terms for one batch of users: its binary cells and rating
    cells over the increasing item list ``batch.items``, zero at every item
    outside it. Pretraining evaluates only the two intent terms.

    Every loss reads only the batch's rated items, so the losses run on
    views of both models over the batch's items, at the rated cells; only
    the encoders' first-layer inputs are dense rows. They equal the losses
    over all M. psi's and theta's first-layer rows and V's columns enter
    as RowView leaves (see batch_gradients).
    """
    cfg = state.cfg
    xb, rb, items = batch.binary, batch.ratings, batch.items
    b = rb.shape[0]
    intent = state.intent.over(items)
    noise_i = _stream_rng(cfg.seed, _NOISE_INTENT, step).standard_normal((b, cfg.k))
    l1 = intent_elbo_loss(intent, state.prior, xb, noise_i, eta, tau)
    phi = item_intents(intent, tau)
    l2 = item_intent_kl_loss(phi, l1.gamma, xb)
    total = ad.add(l1.total, ad.mul(l2, cfg.lambda2))
    l3 = l4 = kl_pref = None

    if stage == "unified" and (cfg.lambda3 > 0 or cfg.lambda4 > 0):
        pref = state.pref.over(items)
        idx, _ = select_top_channels_batch(l1.gamma.data, cfg.l)
        cells, tails = decompose_ratings_batch(rb, phi, idx)
        if cfg.lambda3 > 0:
            noise_p = _stream_rng(cfg.seed, _NOISE_PREF, step).standard_normal((b * cfg.l, cfg.d))
            parts3 = preference_elbo_loss(pref, cells, tails, noise_p, eta)
            l3, kl_pref = parts3.total, parts3.kl
            total = ad.add(total, ad.mul(l3, cfg.lambda3))
        if cfg.lambda4 > 0 and b >= 2:
            augmented = augmented_view(tails, cells, cfg.node_dropout, cfg.edge_dropout, cfg.seed, step)
            u_aug, _ = encode_gaussian(pref.encoder_theta, dense_input(cells, augmented))
            u_ori = embed_original(pref, rb)
            l4 = contrastive_loss(u_ori, u_aug, cfg.l, cfg.tau_c)
            total = ad.add(total, ad.mul(l4, cfg.lambda4))
    return BatchLosses(total, l1.total, l2, l3, l4, l1.kl, kl_pref)


def batch_gradients(loss: Tensor, params: list[Tensor]) -> dict[str, np.ndarray | RowGrad]:
    """Gradients of a batch loss for the ``params`` it reaches, keyed by
    name, from one walk of its tape. A parameter the loss reads through a
    RowView gets a RowGrad at the view's rows, and no full-size gradient;
    every other one a dense array. Each parameter must reach the loss
    through one leaf: itself or one view of it."""
    names = {p.name for p in params}
    leaves: dict[str, Tensor] = {}
    out: dict[str, np.ndarray | RowGrad] = {}
    for leaf, g in ad.backward(loss).items():
        if leaf.name not in names:
            continue
        first = leaves.setdefault(leaf.name, leaf)
        if first is not leaf:
            how = "two row views" if isinstance(first, RowView) and isinstance(leaf, RowView) \
                else "a row view and directly"
            raise ParameterError(f"the loss reads parameter {leaf.name!r} through {how}")
        out[leaf.name] = RowGrad(leaf.rows, g, leaf.axis) if isinstance(leaf, RowView) else g
    return out


@dataclass
class TrainResult:
    out_dir: str
    best_checkpoint: str
    last_checkpoint: str
    manifest_path: str
    history: list
    best_val: float
    best_epoch: int


def run_epoch(state: TrainerState, data: SplitDataset, epoch: int, stage: str) -> dict:
    """One pass over the training users; returns the epoch record."""
    cfg = state.cfg
    n = state.n_users
    state.tau = temperature(cfg, epoch)
    params = state.intent.parameters() if stage == "pretrain" else state.all_parameters()
    perm = _stream_rng(cfg.seed, _SHUFFLE, epoch).permutation(n)
    sums: dict[str, float] = {}
    t0 = time.time()
    for lo in range(0, n, cfg.batch_size):
        batch = item_batch(data.train, perm[lo : lo + cfg.batch_size], cfg.intent_min_rating)
        state.eta = kl_weight(cfg, state.global_batch)
        losses = compute_batch_losses(state, batch, state.eta, state.tau, state.global_batch, stage)
        scalars = losses.scalars()
        if not np.isfinite(scalars["total"]):
            raise TrainingError(
                f"non-finite loss at batch {state.global_batch} (epoch {epoch}, stage {stage}): "
                + ", ".join(f"{k}={v:.6g}" for k, v in scalars.items())
            )
        state.opt.step(params, batch_gradients(losses.total, params))
        # the batch's tape goes before the next batch builds its own
        del losses
        state.global_batch += 1
        for key, value in scalars.items():
            sums[key] = sums.get(key, 0.0) + value
    record = {
        "epoch": epoch,
        "stage": stage,
        "eta": state.eta,
        "tau": state.tau,
        "seconds": round(time.time() - t0, 3),
        "kl_intent_per_user": sums["kl_intent"] / n,
        "kl_pref_per_user": sums["kl_pref"] / n,
    }
    for key in ("l1", "l2", "l3", "l4", "total"):
        record[key] = sums[key]
    return record


def validation_recall_at_10(state: TrainerState, data: SplitDataset) -> float:
    report = evaluate(scorer_from_state(state), dataclasses.replace(data, test=data.valid), cutoffs=(10,))
    return report.values["recall"][10]


def _stopped(state: TrainerState) -> bool:
    """Whether the run has stopped early: its last epoch was a unified one
    and patience has run out."""
    return state.epoch > state.cfg.pretrain_epochs and state.bad_epochs >= state.cfg.patience


def _check_validation_positives(data: SplitDataset) -> None:
    """Raise ParameterError unless unified epochs can be validated: recall
    at 10 needs at least 10 items, and some user with training items must
    have a validation positive, as the validation split is ranked for those
    users alone."""
    if data.train.n_items < 10:
        raise ParameterError(f"the data holds {data.train.n_items} items, fewer than the 10 that validation "
                             "recall at 10 ranks, so no unified epoch can be validated")
    if not scored_users(dataclasses.replace(data, test=data.valid), range(data.train.n_users))[1].any():
        raise ParameterError(f"the validation split holds no rating at or above the rating threshold "
                             f"{data.rating_threshold} for a user with training items, so no unified epoch "
                             "can be validated")


def train(
    data: SplitDataset,
    cfg: TrainConfig,
    out_dir: str,
    resume_from: str | None = None,
    log=None,
) -> TrainResult:
    """Full two-stage run: pretrain the intent networks, then optimize the
    unified loss with per-epoch validation, best-checkpoint retention and
    early stopping, whose patience counts only epochs that end with the KL
    weight at eta_max. Deterministic given (config, seed).

    Every epoch ends with one commit: last.ckpt, then history.json and
    run_manifest.txt, then ``log`` with the epoch record. A run with unified
    epochs left needs at least 10 items and a validation positive, or raises
    ParameterError before ``out_dir`` is created. Resuming from a last.ckpt
    continues the identical trajectory under the checkpoint's config (cfg is
    then not read); a state that ``_stopped`` says patience ended, or whose
    epochs are all done, trains no epoch and saves itself as last.ckpt, the
    resumed file's bytes.
    If ``out_dir`` has no best.ckpt, the one beside the resumed checkpoint is
    copied in first; a run that validated no epoch saves its final state as
    best.ckpt.
    """
    best_path = os.path.join(out_dir, "best.ckpt")
    last_path = os.path.join(out_dir, "last.ckpt")
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        cfg = state.cfg
        if state.n_items != data.train.n_items or state.n_users != data.train.n_users:
            raise CheckpointError(
                f"checkpoint was trained on N={state.n_users}, M={state.n_items}; "
                f"dataset has N={data.train.n_users}, M={data.train.n_items}"
            )
    else:
        cfg = resolve_variant(cfg)
        cfg.validate()
        state = build_state(cfg, data.train.n_users, data.train.n_items)
    total_epochs = cfg.pretrain_epochs + cfg.unified_epochs
    if max(state.epoch, cfg.pretrain_epochs) < total_epochs:
        _check_validation_positives(data)
    # the run starts here: an error above leaves no output directory
    os.makedirs(out_dir, exist_ok=True)
    if resume_from is not None and state.best_epoch >= 0 and not os.path.exists(best_path):
        _carry_best(resume_from, state.best_epoch, best_path)
    t_start = time.time()
    first = state.epoch
    for epoch in range(first, total_epochs):
        if _stopped(state):
            break
        stage = "pretrain" if epoch < cfg.pretrain_epochs else "unified"
        record = run_epoch(state, data, epoch, stage=stage)
        improved = False
        if stage == "unified":
            val = validation_recall_at_10(state, data)
            record["val_recall_at_10"] = val
            improved = val > state.best_val
            if improved:
                state.best_val = val
                state.best_epoch = epoch
                state.bad_epochs = 0
            elif state.eta >= cfg.eta_max:
                # epochs of the KL warm-up do not count toward patience
                state.bad_epochs += 1
        state.epoch = epoch + 1
        state.history.append(record)
        if improved:
            save_checkpoint(best_path, state)
        save_checkpoint(last_path, state)
        _write_manifest(state, out_dir, time.time() - t_start, resume_from)
        if log is not None:
            log(record)
    if state.epoch == first:
        # a resumed run that trains no epoch still leaves its state as last.ckpt
        save_checkpoint(last_path, state)
    if state.best_epoch < 0:
        # a run that validated no epoch still exposes a usable checkpoint
        save_checkpoint(best_path, state)
    manifest = _write_manifest(state, out_dir, time.time() - t_start, resume_from)
    return TrainResult(out_dir, best_path, last_path, manifest, state.history, state.best_val, state.best_epoch)


def _carry_best(resume_from: str, best_epoch: int, best_path: str) -> None:
    """Copy the best.ckpt beside a resumed checkpoint to ``best_path``. It
    must hold the resumed state's best epoch; CheckpointError otherwise."""
    source = os.path.join(os.path.dirname(resume_from), "best.ckpt")
    if not os.path.exists(source):
        raise CheckpointError(f"the resumed run's best epoch {best_epoch} was saved to {source}, "
                              "which is missing")
    saved = read_header(source)[0]["counters"]["best_epoch"]
    if saved != best_epoch:
        raise CheckpointError(f"{source} holds best epoch {saved}; the resumed checkpoint's is {best_epoch}")
    shutil.copyfile(source, best_path + ".tmp")
    os.replace(best_path + ".tmp", best_path)


def _write_manifest(state: TrainerState, out_dir: str, wall: float, resume_from: str | None) -> str:
    cfg = state.cfg
    lines = [
        "run manifest",
        f"config_hash: {cfg.config_hash()}",
        f"seed: {cfg.seed}",
        f"variant: {cfg.variant}",
        f"users: {state.n_users}",
        f"items: {state.n_items}",
        f"config: {json.dumps(cfg.to_dict(), sort_keys=True)}",
    ]
    if cfg.pretrain_epochs == 0:
        lines.append("warning: pretraining skipped; joint training may converge to a poor local optimum")
    if resume_from:
        lines.append(f"resumed_from: {resume_from}")
    lines.append("epochs:")
    header = ["epoch", "stage", "l1", "l2", "l3", "l4", "kl_intent/u", "kl_pref/u", "val_r@10", "eta", "tau", "secs"]
    lines.append("  " + "  ".join(header))
    for r in state.history:
        row = [
            str(r["epoch"]), r["stage"],
            f"{r['l1']:.2f}", f"{r['l2']:.2f}", f"{r['l3']:.2f}", f"{r['l4']:.4f}",
            f"{r['kl_intent_per_user']:.4f}", f"{r['kl_pref_per_user']:.4f}",
            f"{r.get('val_recall_at_10', float('nan')):.4f}",
            # a resumed run's earlier epochs come from the checkpoint, which
            # keeps no wall-clock time
            f"{r['eta']:.3f}", f"{r['tau']:.3f}", f"{r['seconds']:.1f}" if "seconds" in r else "-",
        ]
        lines.append("  " + "  ".join(row))
    if _stopped(state):
        lines.append(f"early_stop: no val improvement for {cfg.patience} epochs")
    lines.append(f"best_epoch: {state.best_epoch}")
    lines.append(f"best_val_recall_at_10: {state.best_val if np.isfinite(state.best_val) else 'n/a'}")
    lines.append(f"wall_clock_seconds: {wall:.1f}")
    path = os.path.join(out_dir, "run_manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "history.json"), "w", encoding="utf-8") as fh:
        json.dump(state.history, fh, indent=1, sort_keys=True)
    return path


# checkpoint format: magic, version, u64 header length, JSON header (padded
# with spaces so the payload starts on a multiple of _ALIGN), concatenated
# little-endian float64 arrays, footer magic
_MAGIC = b"ICF1"
_FOOTER = b"ICFE"
_VERSION = 1
_ALIGN = 64

# the checkpoint counters that are TrainerState attributes, with their value
# tests; adam_t (opt.t) and best_val (null for -inf) are stored beside them
_COUNTERS = (("epoch", is_int), ("global_batch", is_int), ("best_epoch", is_int), ("bad_epochs", is_int),
             ("tau", is_real), ("eta", is_real))


def model_arrays(state: TrainerState) -> dict[str, np.ndarray]:
    """The model's parameters and prior, under their checkpoint names."""
    arrays = {p.name: p.data for p in state.all_parameters()}
    arrays["prior.mu"] = state.prior.mu
    arrays["prior.var"] = state.prior.sigma_diag
    arrays["prior.alpha"] = state.prior.alpha
    return arrays


def _collect_arrays(state: TrainerState) -> dict[str, np.ndarray]:
    """Every array of the state's checkpoint: the model, the prior, and
    Adam's two moments of each parameter it has stepped."""
    arrays = model_arrays(state)
    for name in state.opt.m:
        arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"] = state.opt.m[name], state.opt.v[name]
    return arrays


def save_checkpoint(path: str, state: TrainerState) -> None:
    """Atomic versioned binary checkpoint; byte-deterministic for a given
    state (no timestamps). The file is written beside ``path`` and renamed
    over it, so a state loaded from the old file keeps reading the old one."""
    arrays = _collect_arrays(state)
    spec = []
    offset = 0
    for name in sorted(arrays):
        a = arrays[name]
        spec.append({"name": name, "shape": list(a.shape), "offset": offset})
        offset += a.size * 8
    header = {
        "format": "intentcf.checkpoint",
        "version": _VERSION,
        "k": state.cfg.k,
        "d": state.cfg.d,
        "l": state.cfg.l,
        "m": state.n_items,
        "n": state.n_users,
        "config": state.cfg.to_dict(),
        "counters": {
            **{name: getattr(state, name) for name, _ in _COUNTERS},
            "adam_t": state.opt.t,
            "best_val": None if not np.isfinite(state.best_val) else state.best_val,
        },
        "rng": {"seed": state.cfg.seed, "scheme": "counter-based (seed, stream, step)"},
        # wall-clock seconds are left out, so the bytes depend only on (config, seed)
        "history": [{k: v for k, v in r.items() if k != "seconds"} for r in state.history],
        "arrays": spec,
        "payload_bytes": offset,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    blob += b" " * (-(16 + len(blob)) % _ALIGN)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for entry in spec:
            fh.write(np.ascontiguousarray(arrays[entry["name"]], dtype="<f8"))
        fh.write(_FOOTER)
    os.replace(tmp, path)


def _check_header(header) -> None:
    """Raise CheckpointError naming the first header section that is missing
    or mistyped, so a malformed header never surfaces as a raw exception."""

    def need(ok: bool, section: str, what: str) -> None:
        if not ok:
            raise CheckpointError(f"{section} section invalid: {what}")

    need(isinstance(header, dict), "header", "not a JSON object")
    payload = header.get("payload_bytes")
    need(is_int(payload) and payload >= 0, "payload_bytes", f"expected a non-negative integer, got {payload!r}")
    for key in ("n", "m"):
        need(is_int(header.get(key)) and header[key] >= 1, key,
             f"expected a positive integer, got {header.get(key)!r}")
    need(isinstance(header.get("config"), dict), "config", "expected an object")
    counters = header.get("counters")
    need(isinstance(counters, dict), "counters", f"expected an object, got {counters!r}")
    for name, ok in (*_COUNTERS, ("adam_t", is_int), ("best_val", lambda v: v is None or is_real(v))):
        need(name in counters, "counters", f"{name} missing")
        need(ok(counters[name]), "counters", f"{name} is {counters[name]!r}")
    history = header.get("history", [])
    need(isinstance(history, list) and all(isinstance(r, dict) for r in history), "history",
         "expected a list of epoch records")
    arrays = header.get("arrays")
    need(isinstance(arrays, list), "arrays", f"expected a list, got {arrays!r}")
    spans = []
    for entry in arrays:
        need(isinstance(entry, dict) and isinstance(entry.get("name"), str), "arrays", f"entry {entry!r} has no name")
        name, shape, offset = entry["name"], entry.get("shape"), entry.get("offset")
        need(isinstance(shape, list) and all(is_int(n) and n >= 0 for n in shape), "arrays",
             f"array {name!r} has shape {shape!r}")
        need(is_int(offset) and offset >= 0, "arrays", f"array {name!r} has offset {offset!r}")
        spans.append((offset, offset + math.prod(shape) * 8, name))
        need(spans[-1][1] <= payload, "arrays", f"array {name!r} extends past the payload")
    names = [name for _, _, name in spans]
    need(len(set(names)) == len(names), "arrays", "an array name repeats")
    spans.sort()
    for (_, end, name), (start, _, after) in zip(spans, spans[1:]):
        need(end <= start, "arrays", f"array {name!r} overlaps array {after!r}")
    total = sum(end - start for start, end, _ in spans)
    need(total == payload, "arrays", f"array sizes sum to {total} bytes, payload_bytes is {payload}")


def _open(path: str):
    """A checkpoint file opened for reading; a missing or unreadable file
    (a directory, say) raises CheckpointError."""
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None


def _read_header(fh) -> tuple[dict, TrainConfig, int]:
    """The checked header of an open checkpoint file, its config and the
    offset where its array payload starts. The framing (magic, version,
    lengths, footer) is checked, but no array is read; every failure names
    the section."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(16)
    if len(head) < 16 or head[:4] != _MAGIC:
        raise CheckpointError("bad magic: not an intentcf checkpoint")
    version = struct.unpack("<I", head[4:8])[0]
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {_VERSION})")
    hlen = struct.unpack("<Q", head[8:16])[0]
    if size < 16 + hlen:
        raise CheckpointError("header truncated")
    blob = fh.read(hlen)
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"header corrupt: {exc}") from None
    _check_header(header)
    payload_start = 16 + hlen
    payload_bytes = header["payload_bytes"]
    expected = payload_start + payload_bytes + len(_FOOTER)
    if size < expected:
        raise CheckpointError(f"payload truncated: file has {size} bytes, expected {expected}")
    fh.seek(payload_start + payload_bytes)
    if fh.read(len(_FOOTER)) != _FOOTER:
        raise CheckpointError("footer missing or corrupt")
    try:
        cfg = TrainConfig.from_dict(header["config"])
        cfg.validate()
    except UsageError as exc:
        raise CheckpointError(f"config section invalid: {exc}") from None
    return header, cfg, payload_start


def read_header(path: str) -> tuple[dict, TrainConfig]:
    """The checked header and config of a checkpoint file, read without its
    arrays."""
    with _open(path) as fh:
        header, cfg, _ = _read_header(fh)
    return header, cfg


def load_checkpoint(path: str) -> TrainerState:
    """Strict inverse of save_checkpoint; every failure names the section.
    The file's arrays must be the ones save_checkpoint writes for the loaded
    state (_collect_arrays), each at its parameter's shape.

    The file is mapped copy-on-write and each array is a view of its bytes,
    read from disk when first used; writes to the arrays stay private to this
    process. The file must be replaced by rename, never rewritten in place,
    while a loaded state is in use."""
    with _open(path) as fh:
        header, cfg, payload_start = _read_header(fh)
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        except OSError as exc:
            raise CheckpointError(f"cannot map checkpoint {path}: {exc.strerror or exc}") from None
    arrays = {}
    for entry in header["arrays"]:
        a = np.frombuffer(mm, "<f8", math.prod(entry["shape"]), payload_start + entry["offset"])
        # a file written before the header was padded can put an array off
        # 8-byte alignment, which BLAS does not take; such arrays are copied
        arrays[entry["name"]] = np.require(a.reshape(entry["shape"]), np.float64, "A")

    try:
        state = build_state(cfg, header["n"], header["m"], arrays)
        for p in state.all_parameters():
            if f"adam.m.{p.name}" in arrays:
                state.opt.m[p.name] = stored_array(arrays, f"adam.m.{p.name}", p.shape)
                state.opt.v[p.name] = stored_array(arrays, f"adam.v.{p.name}", p.shape)
    except ShapeError as exc:
        raise CheckpointError(f"arrays section invalid: {exc}") from None
    saved = _collect_arrays(state)
    unsaved = next((name for name in arrays if name not in saved), None)
    if unsaved is not None:
        raise CheckpointError(f"arrays section invalid: array {unsaved!r} is not one the loaded state saves")
    counters = header["counters"]
    # every batch steps the intent parameters and a unified batch all of
    # them, so the counters say whose moments the file must hold
    stepped = (state.all_parameters() if counters["epoch"] > cfg.pretrain_epochs
               else state.intent.parameters() if counters["adam_t"] > 0 else [])
    unstepped = next((p.name for p in stepped if p.name not in state.opt.m), None)
    if unstepped is not None:
        raise CheckpointError(f"arrays section invalid: array 'adam.m.{unstepped}' missing")
    state.opt.t = counters["adam_t"]
    for name, _ in _COUNTERS:
        setattr(state, name, counters[name])
    state.best_val = -np.inf if counters["best_val"] is None else counters["best_val"]
    state.history = header.get("history", [])
    return state


def scorer_from_state(state: TrainerState) -> Scorer:
    return Scorer(state.intent, state.pref, state.cfg.l, state.tau, state.cfg.intent_min_rating)
