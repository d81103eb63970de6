"""The benchmark's workloads, their measurements and their output checks.

Every workload makes a synthetic world from its seed, prepares it with
``intentcf prepare``, trains and serves, so every workload reports every
end-to-end metric. A round is one train() call, then a serve round on the
first call's checkpoint; rounds repeat for about the run's ``--seconds``
(at least two). The workloads differ in the world's size:

  desk-train  943 x 1,200, the acceptance scale
  wide-train  2,000 x 6,000, where dense (B, M) batches dominate

A serve round runs, one at a time: ``intentcf prepare`` calls on the ratings
file, evaluate() calls, a closed loop of single-user recommend calls in all four
modes, cold ``python -m intentcf.cli recommend`` processes, co-occurrence
and checkpoint save/load round trips. Interleaving the steps spreads each
metric's samples over the whole run, so a slow minute of a shared machine
moves every metric a little rather than one metric a lot.

Timed calls go through public intentcf functions only. Outputs are checked
against ``reference.py`` after peak memory is read, outside every timed
region.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from intentcf import (
    autodiff,
    cli,
    contrast,
    data,
    evaluation,
    intent,
    nn,
    preference,
    recommend,
    synthetic,
    training,
)

import reference as ref
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The acceptance suite's desk config with a fixed short schedule. Patience
# exceeds the unified epochs, so early stopping cannot fire and every run
# trains the same epochs.
MODEL_CONFIG = dict(k=24, d=32, l=2, intent_hidden=100, item_hidden=64, pref_hidden=100,
                    batch_size=64, learning_rate=0.002, kappa=1000, eta_max=1.0)
SCHEDULE = dict(pretrain_epochs=1, unified_epochs=1, patience=2)


# genre_world_data sizes of each workload's world
WORLDS = {
    "desk-train": dict(n_users=943, n_items=1200),
    "wide-train": dict(n_users=2000, n_items=6000),
}

MIN_INTERACTIONS = 10
SETUPS = 3  # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 2  # rounds per run at least (trace mode: exactly, one untraced and one traced)
USERS_PER_ROUND = 40  # four recommend calls each
SLICES = 4  # per serve round; each slice has a prepare and a co-occurrence call
COLD_PER_ROUND = 3  # one in each of the first slices
CKPT_PER_SLICE = 2  # save/load round trips
TOP_N = 10
TOP_T = 20
SHUFFLES = 100
CUTOFFS = (5, 10)
TOL = 1e-9

AUTODIFF_OPS = ("add", "sub", "mul", "matmul", "transpose", "reshape", "tanh", "exp", "log", "clip_min",
                "tsum", "softmax", "gather_rows", "take_along_last", "slice_cols", "l2norm_rows")


def train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(seed=seed, **MODEL_CONFIG, **SCHEDULE)


class Ops:
    """Attempted and failed operation counts plus timing samples per kind."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def timed(self, kind: str, fn, *args, **kwargs):
        """Run and time one operation; a failure is counted, reported on
        stderr and returns None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"operation {kind} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.samples[kind].append(time.perf_counter() - start)
        return out


@dataclass
class Inputs:
    ratings: Path
    genres: Path
    prepared: Path
    split: data.SplitDataset


@dataclass
class Serving:
    inputs: Inputs
    checkpoint: Path
    state: training.TrainerState
    scorer: evaluation.Scorer
    beta: np.ndarray
    genre_sets: list
    seed: int
    work: Path


@dataclass
class Outputs:
    """Everything the timed operations returned, kept for the checks."""

    trainings: list = field(default_factory=list)  # (history, best digest, last digest)
    prepare_digests: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    warm: list = field(default_factory=list)  # (mode, user, argument, result)
    cold: list = field(default_factory=list)  # (user, parsed JSON)
    cooccur: list = field(default_factory=list)
    ckpt_saves: list = field(default_factory=list)
    ckpt_loaded: object = None
    rounds: list = field(default_factory=list)  # (traced, seconds)
    cli_spans: dict = field(default_factory=lambda: defaultdict(list))


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_tree(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# --------------------------------------------------------------------------
# tracing


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose spans make up the per-layer metrics."""
    dense_bytes = lambda out: tracer.count("data.dense_bytes", out.nbytes)  # noqa: E731
    tracer.wrap(data.RatingMatrix, "dense", "data.dense", dense_bytes)
    tracer.wrap(data.BinaryMatrix, "dense", "data.dense", dense_bytes)
    for fn in ("binarize", "load_split", "load_ratings", "split_per_user", "save_split"):
        tracer.wrap(data, fn, f"data.{fn}")
    tracer.wrap(synthetic, "genre_world_data", "synthetic.genre_world_data")
    for op in AUTODIFF_OPS:
        tracer.wrap(autodiff, op, f"autodiff.{op}")
    tracer.wrap(autodiff, "backward", "autodiff.backward")
    tracer.wrap(nn.Adam, "step", "nn.adam_step")
    tracer.wrap(nn, "mlp_forward", "nn.mlp_forward")
    for module, fn in ((intent, "intent_elbo_loss"), (intent, "item_intent_kl_loss"), (intent, "item_intents"),
                       (preference, "decompose_ratings_batch"), (preference, "preference_elbo_loss"),
                       (contrast, "augmentation_mask"), (contrast, "contrastive_loss")):
        tracer.wrap(module, fn, f"{module.__name__.split('.')[-1]}.{fn}")
    stage = lambda args, kwargs: f"training.epoch.{kwargs.get('stage', args[4] if len(args) > 4 else '')}"  # noqa: E731
    tracer.wrap(training, "run_epoch", stage)
    tracer.wrap(training, "compute_batch_losses", "training.compute_batch_losses")
    tracer.wrap(training, "validation_recall_at_10", "training.validation")
    tracer.wrap(training, "save_checkpoint", "training.save_checkpoint")
    tracer.wrap(training, "load_checkpoint", "training.load_checkpoint")
    tracer.wrap(evaluation.Scorer, "blended_scores", "evaluation.blended_scores")
    for fn in ("evaluate", "rank_items", "metrics_at_k", "cooccurrence_rate"):
        tracer.wrap(evaluation, fn, f"evaluation.{fn}")
    for fn, mode in (("recommend_blended", "blended"), ("recommend_in_channel", "channel"),
                     ("recommend_with_intent", "intent"), ("similar_items", "similar")):
        tracer.wrap(recommend, fn, f"recommend.{mode}")


@contextlib.contextmanager
def untraced(tracer: Tracer | None):
    """Run a block with every wrapper removed."""
    if tracer is not None:
        tracer.uninstall()
    try:
        yield
    finally:
        if tracer is not None:
            install(tracer)


def tail(durations: list[float]) -> float:
    """The highest order statistic with at least ten samples beyond it; the
    median when there are fewer than forty samples."""
    ordered = sorted(durations)
    return ordered[len(ordered) - 11] if len(ordered) >= 40 else statistics.median(ordered)


def layer_metrics(tracer: Tracer, out: Outputs, import_seconds: list[float]) -> dict:
    self_time, calls, durations = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("data.dense_s", self_time["data.dense"], "s")
    put("data.dense_calls", calls["data.dense"], "count")
    put("data.dense_bytes", tracer.counts["data.dense_bytes"], "bytes")
    for fn in ("binarize", "load_split", "load_ratings", "split_per_user", "save_split"):
        put(f"data.{fn}_s", self_time[f"data.{fn}"], "s")
    put("synthetic.genre_world_data_s", self_time["synthetic.genre_world_data"], "s")
    for op in AUTODIFF_OPS:
        put(f"autodiff.{op}.calls", calls[f"autodiff.{op}"], "count")
        put(f"autodiff.{op}.fwd_s", self_time[f"autodiff.{op}"], "s")
    for name in ("autodiff.backward", "nn.adam_step", "nn.mlp_forward", "intent.intent_elbo_loss",
                 "intent.item_intent_kl_loss", "intent.item_intents", "preference.decompose_ratings_batch",
                 "preference.preference_elbo_loss", "contrast.augmentation_mask", "contrast.contrastive_loss",
                 "training.epoch.pretrain", "training.epoch.unified", "training.compute_batch_losses",
                 "training.validation", "training.save_checkpoint", "training.load_checkpoint",
                 "evaluation.evaluate", "evaluation.blended_scores", "evaluation.rank_items",
                 "evaluation.metrics_at_k", "evaluation.cooccurrence_rate"):
        put(f"{name}_s", self_time[name], "s")
    # inclusive time of the spans that enclose other traced spans
    for name in ("nn.mlp_forward", "intent.intent_elbo_loss", "intent.item_intent_kl_loss",
                 "preference.preference_elbo_loss", "contrast.contrastive_loss", "training.epoch.pretrain",
                 "training.epoch.unified", "training.compute_batch_losses", "training.validation",
                 "evaluation.evaluate", "evaluation.blended_scores"):
        put(f"{name}.total_s", sum(durations[name]), "s")
    put("training.batches", calls["training.compute_batch_losses"], "count")
    put("evaluation.rank_items_calls", calls["evaluation.rank_items"], "count")
    for mode in ("blended", "channel", "intent", "similar"):
        put(f"recommend.{mode}_ms", 1e3 * statistics.median(durations[f"recommend.{mode}"]), "ms")
    put("recommend.blended_tail_ms", 1e3 * tail(durations["recommend.blended"]), "ms")
    put("cli.import_s", statistics.median(import_seconds), "s")
    for step in ("load_split", "load_checkpoint"):
        put(f"cli.recommend.{step}_s", statistics.median(out.cli_spans[f"cli.recommend.{step}"]), "s")
    untraced_s = [s for traced, s in out.rounds if not traced]
    traced_s = [s for traced, s in out.rounds if traced]
    put("trace.overhead_pct", 100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0), "%")
    put("trace.spans", len(tracer.spans), "count")
    return metrics


# --------------------------------------------------------------------------
# set-up and the timed steps


def prepare(ratings: Path, genres: Path, out: Path, seed: int) -> Path:
    """``intentcf prepare`` in this process; its report goes to a buffer."""
    argv = ["prepare", "--ratings", str(ratings), "--genres", str(genres), "--out", str(out),
            "--min-interactions", str(MIN_INTERACTIONS), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"prepare exited with code {code}")
    return out


def set_up(world_sizes: dict, seed: int, work: Path, ops: Ops) -> Inputs:
    """World -> ratings file -> prepared split."""
    world = synthetic.genre_world_data(seed=seed, **world_sizes)
    ratings, genres = world.write(str(work / "raw"))
    del world
    prepared = work / "prepared"
    ops.timed("prepare", prepare, Path(ratings), Path(genres), prepared, seed)
    split = data.load_split(str(prepared))
    return Inputs(Path(ratings), Path(genres), prepared, split)


def open_serving(inputs: Inputs, checkpoint: Path, seed: int, work: Path) -> Serving:
    state = training.load_checkpoint(str(checkpoint))
    scorer = training.scorer_from_state(state)
    scorer.phi  # fill the scorer's cache before anything is timed
    genre_sets = data.GenreTable.load(str(inputs.genres)).for_matrix(inputs.split.train)
    return Serving(inputs, checkpoint, state, scorer, state.intent.beta().data, genre_sets, seed, work)


@dataclass
class Request:
    user: int
    channel: int
    override: dict
    item: int


def requests(sv: Serving, round_no: int) -> list[Request]:
    """The seeded user list of one round and each user's call arguments."""
    rng = np.random.default_rng([sv.seed, 17, round_no])
    n_users, n_items, k = sv.inputs.split.train.n_users, sv.inputs.split.train.n_items, sv.state.cfg.k
    out = []
    for user in rng.choice(n_users, size=min(USERS_PER_ROUND, n_users), replace=False):
        channels = rng.choice(k, size=2, replace=False)
        weights = rng.random(2) + 0.1
        out.append(Request(int(user), int(rng.integers(k)),
                           {int(c): float(w) for c, w in zip(channels, weights)}, int(rng.integers(n_items))))
    return out


def cold_recommend(sv: Serving, user: int, trace_file: Path | None) -> dict:
    """One cold ``intentcf recommend --json`` process (traced by
    cli_traced.py when trace_file is given)."""
    argv = ["recommend", "--checkpoint", str(sv.checkpoint), "--data", str(sv.inputs.prepared),
            "--user", sv.inputs.split.train.user_ids[user], "--n", str(TOP_N), "--json"]
    if trace_file is None:
        cmd = [sys.executable, "-m", "intentcf.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(trace_file), *argv]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"cold recommend exited with code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def serve_round(sv: Serving, round_no: int, ops: Ops, out: Outputs, tracer: Tracer | None) -> None:
    """SLICES slices, each with a prepare and a share of the other steps
    (an evaluate() in every other slice), so each kind of step samples the
    whole round rather than one burst."""
    reqs = requests(sv, round_no)
    target = sv.work / "round_prepared"
    for i in range(SLICES):
        if ops.timed("prepare", prepare, sv.inputs.ratings, sv.inputs.genres, target, sv.seed) is not None:
            out.prepare_digests.append(digest_tree(target))
        if i % 2 == 1:
            out.evals.append(ops.timed("eval", evaluation.evaluate, sv.scorer, sv.inputs.split, cutoffs=CUTOFFS))
        for req in reqs[i::SLICES]:
            warm_calls(sv, req, ops, out)
        if i < COLD_PER_ROUND:
            cold_call(sv, reqs[i].user, ops, out, tracer)
        out.cooccur.append(ops.timed("cooccur", evaluation.cooccurrence_rate, sv.beta, sv.genre_sets,
                                     top_t=TOP_T, shuffles=SHUFFLES, seed=sv.seed))
        path = sv.work / "roundtrip.ckpt"
        for _ in range(CKPT_PER_SLICE):
            # save_checkpoint returns None, so the lambda hands back the path to tell success from failure
            if ops.timed("ckpt_save", lambda: training.save_checkpoint(str(path), sv.state) or path) is not None:
                out.ckpt_saves.append(digest(path))
            loaded = ops.timed("ckpt_load", training.load_checkpoint, str(path))
            out.ckpt_loaded = loaded if loaded is not None else out.ckpt_loaded


def warm_calls(sv: Serving, req: Request, ops: Ops, out: Outputs) -> None:
    """The four in-process recommend calls for one user."""
    split, u = sv.inputs.split, req.user
    out.warm.append(("blended", u, None, ops.timed(
        "recommend_blended", recommend.recommend_blended, sv.scorer, split, u, TOP_N)))
    out.warm.append(("channel", u, req.channel, ops.timed(
        "recommend_channel", recommend.recommend_in_channel, sv.scorer, split, u, req.channel, TOP_N)))
    out.warm.append(("intent", u, req.override, ops.timed(
        "recommend_intent", lambda: recommend.recommend_with_intent(
            sv.scorer, split, u, recommend.IntentOverride(req.override), TOP_N))))
    out.warm.append(("similar", req.item, None, ops.timed(
        "recommend_similar", recommend.similar_items, sv.state.intent, sv.scorer.phi, req.item, TOP_N)))


def cold_call(sv: Serving, user: int, ops: Ops, out: Outputs, tracer: Tracer | None) -> None:
    """One cold CLI process; under tracing it runs through cli_traced.py and
    its load spans are collected."""
    trace_file = None
    if tracer is not None and tracer.installed:
        trace_file = sv.work / f"cold-{len(out.cold)}.json"
    out.cold.append((user, ops.timed("recommend_cold", cold_recommend, sv, user, trace_file)))
    if trace_file is not None and trace_file.exists():
        for name, start, end, _ in json.loads(trace_file.read_text())["spans"]:
            out.cli_spans[name].append(end - start)


def timed_round(out: Outputs, traced: bool, fn, *args) -> None:
    start = time.perf_counter()
    fn(*args)
    out.rounds.append((traced, time.perf_counter() - start))


def keep_going(rounds_done: int, started: float, seconds: float, tracer: Tracer | None) -> bool:
    """At least MIN_ROUNDS; untraced, another round only while it would end
    nearer to ``seconds`` than stopping now, so long rounds do not overshoot
    the run by a whole round."""
    if rounds_done < MIN_ROUNDS:
        return True
    elapsed = time.perf_counter() - started
    return tracer is None and elapsed + 0.5 * elapsed / rounds_done < seconds


def train_once(inputs: Inputs, seed: int, run_dir: Path, ops: Ops, out: Outputs) -> None:
    result = ops.timed("train", training.train, inputs.split, train_config(seed), str(run_dir))
    if result is not None:
        out.trainings.append((result.history, digest(result.best_checkpoint), digest(result.last_checkpoint)))


# --------------------------------------------------------------------------
# checks


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def check_prepared(ratings: Path, prepared: Path, checks: Checks) -> None:
    """The split partitions each kept user's ratings exactly, with
    floor(0.1 n) validation and floor(0.3 n) test items."""
    kept = {u: row for u, row in ref.read_ratings(ratings).items() if len(row) >= MIN_INTERACTIONS}
    p = ref.Prepared(prepared)
    checks.require(sorted(p.users) == sorted(kept), "prepare: users differ from the filtered ratings")
    checks.require(sorted(p.items) == sorted(set().union(*kept.values())),
                   "prepare: items differ from the filtered ratings")
    bad = 0
    for u, name in enumerate(p.users):
        parts = [{p.items[j]: r for j, r in p.parts[part][u].items()} for part in ("train", "valid", "test")]
        merged = {k: v for part in parts for k, v in part.items()}
        sizes = tuple(len(part) for part in parts)
        if merged != kept.get(name) or sum(sizes) != len(merged) or sizes != ref.split_sizes(len(merged)):
            bad += 1
    checks.require(bad == 0, f"prepare: {bad} users' splits break the partition or the floor rule")


def check_ranked(checks: Checks, what: str, items, scores, ref_scores: np.ndarray, exclude, n: int) -> None:
    items = np.asarray(items, dtype=np.intp)
    scores = np.asarray(scores, dtype=np.float64)
    expected = ref.top_n(ref_scores, exclude, n)
    ok = (len(items) == n and len(set(items.tolist())) == n and not set(items.tolist()) & set(exclude)
          and bool(np.all(np.diff(scores) <= 0))
          and bool(np.all(np.abs(scores - ref_scores[items]) <= TOL * np.maximum(1.0, np.abs(scores))))
          # positions may differ only between items the reference scores as tied
          and bool(np.all((items == expected) | (np.abs(ref_scores[items] - ref_scores[expected]) <= TOL))))
    checks.require(ok, f"{what}: not the reference top-{n}")


def check_serving(sv: Serving, out: Outputs, checks: Checks) -> None:
    model = ref.Model(sv.checkpoint)
    prepared = ref.Prepared(sv.inputs.prepared)
    expected = ref.evaluate(model, prepared, "test", CUTOFFS)
    for report in filter(None, out.evals):
        worst = max(abs(report.values[m][k] - expected[m][k]) for m in expected for k in CUTOFFS)
        checks.require(worst <= TOL, f"evaluate: metrics differ from the reference by {worst:.3g}")
    warm_blended = {}
    ratings_of = {}
    for mode, key, arg, result in out.warm:
        if result is None:
            continue
        if mode == "similar":
            sims = ref.cosine_similarities(model.phi, key)
            check_ranked(checks, f"similar_items({key})", [j for j, _ in result], [s for _, s in result],
                         sims, [key], TOP_N)
            continue
        if key not in ratings_of:
            ratings_of[key] = prepared.dense("train", [key])
        r = ratings_of[key]
        if mode == "blended":
            ref_scores = model.blended_scores(r)[0]
            warm_blended[key] = result
        elif mode == "channel":
            ref_scores = model.channel_scores(r, arg)[0]
        else:
            ref_scores = model.override_scores(r, arg)[0]
        check_ranked(checks, f"recommend {mode} for user {key}", result.items, result.scores, ref_scores,
                     list(prepared.parts["train"][key]), TOP_N)
    for user, payload in out.cold:
        if payload is None:
            continue
        warm = warm_blended.get(user)
        if warm is None:
            continue
        names = [row["item"] for row in payload["items"]]
        cold_scores = np.array([row["score"] for row in payload["items"]])
        same = (names == [prepared.items[j] for j in warm.items]
                and bool(np.all(np.abs(cold_scores - warm.scores) <= 1e-12 * np.maximum(1.0, np.abs(warm.scores)))))
        checks.require(same, f"cold CLI recommend for user {user} differs from the warm result")
    genres = ref.read_genres(sv.inputs.genres)
    hits, pairs = ref.cooccurrence(model.beta, [genres.get(item, set()) for item in prepared.items], TOP_T)
    for report in filter(None, out.cooccur):
        checks.require(abs(report.rate - hits / pairs) <= 1e-12 and 0.0 <= report.baseline_rate <= 1.0,
                       f"cooccurrence_rate {report.rate} != reference {hits}/{pairs}")
    original = digest(sv.checkpoint)
    checks.require(all(d == original for d in out.ckpt_saves), "save_checkpoint: bytes differ from the loaded file")
    if out.ckpt_loaded is not None:
        resaved = sv.work / "resaved.ckpt"
        training.save_checkpoint(str(resaved), out.ckpt_loaded)
        checks.require(digest(resaved) == original, "load_checkpoint then save: bytes differ")


def check_trainings(inputs: Inputs, out: Outputs, run_dir: Path, checks: Checks) -> None:
    stages = ["pretrain"] * SCHEDULE["pretrain_epochs"] + ["unified"] * SCHEDULE["unified_epochs"]
    losses = ("l1", "l2", "l3", "l4", "total", "kl_intent_per_user", "kl_pref_per_user")
    for history, _, _ in out.trainings:
        checks.require([r["epoch"] for r in history] == list(range(len(stages)))
                       and [r["stage"] for r in history] == stages, "train: history is not the scheduled epochs")
        finite = all(np.isfinite(r[key]) for r in history for key in losses)
        finite = finite and all(np.isfinite(r["val_recall_at_10"]) for r in history if r["stage"] == "unified")
        checks.require(finite, "train: a loss term is not finite")
    checks.require(len({(b, l) for _, b, l in out.trainings}) == 1,
                   "train: repeated trainings of one seed wrote different checkpoints")
    for name in ("best.ckpt", "last.ckpt"):
        state = training.load_checkpoint(str(run_dir / name))
        training.save_checkpoint(str(run_dir / "resaved.ckpt"), state)
        checks.require(digest(run_dir / "resaved.ckpt") == digest(run_dir / name),
                       f"train: {name} does not round-trip byte for byte")
    state = training.load_checkpoint(str(run_dir / "best.ckpt"))
    beta = state.intent.beta().data
    phi = training.scorer_from_state(state).phi
    checks.require(float(np.abs(beta.sum(axis=0) - 1).max()) <= TOL, "train: beta columns do not sum to 1")
    checks.require(float(np.abs(phi.sum(axis=0) - 1).max()) <= TOL, "train: phi columns do not sum to 1")
    recall = ref.evaluate(ref.Model(run_dir / "last.ckpt"), ref.Prepared(inputs.prepared), "valid", (10,))
    recorded = out.trainings[0][0][-1]["val_recall_at_10"]
    checks.require(abs(recall["recall"][10] - recorded) <= TOL,
                   f"train: validation R@10 {recorded} differs from the reference {recall['recall'][10]}")


# --------------------------------------------------------------------------
# the run


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


_START = time.perf_counter()


def log(message: str) -> None:
    print(f"[{time.perf_counter() - _START:7.1f}s] {message}", file=sys.stderr, flush=True)


def summary_of(ops: Ops, kind: str, stat, scale: float = 1.0) -> float:
    if not ops.samples[kind]:
        raise RuntimeError(f"no successful {kind} operation to report")
    return scale * stat(ops.samples[kind])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return machine_info(), _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ops, out = Ops(), Outputs()
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)

    for _ in range(1 if trace else SETUPS):
        inputs = None  # drop the previous set-up's split before building the next
        shutil.rmtree(work / "setup", ignore_errors=True)
        inputs = ops.timed("setup", set_up, WORLDS[workload], seed, work / "setup", ops)
        if inputs is None:
            raise RuntimeError("set-up failed")
        out.prepare_digests.append(digest_tree(inputs.prepared))

    log(f"set-up done ({len(ops.samples['setup'])}x)")
    started = time.perf_counter()
    sv = None
    n = 0
    while keep_going(n, started, seconds, tracer):
        traced = tracer is not None and n % 2 == 1
        with untraced(tracer) if tracer is not None and not traced else contextlib.nullcontext():
            timed_round(out, traced, train_once, inputs, seed, work / f"train{n}", ops, out)
            if sv is None:
                sv = open_serving(inputs, work / "train0" / "best.ckpt", seed, work)
            else:
                shutil.rmtree(work / f"train{n}", ignore_errors=True)
            serve_round(sv, n, ops, out, tracer)
        n += 1
        if n == MIN_ROUNDS:
            # read after a fixed amount of work, so the number of rounds a
            # run fits in does not move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{n} rounds done")
    if tracer is not None:
        tracer.uninstall()

    checks = Checks()
    check_prepared(inputs.ratings, work / "round_prepared", checks)
    checks.require(len(set(out.prepare_digests)) == 1, "prepare: repeated runs wrote different files")
    check_trainings(inputs, out, work / "train0", checks)
    check_serving(sv, out, checks)
    log("checks done")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    if trace:
        import_seconds = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import intentcf.cli"], env=child_env(), check=True, timeout=60)
            import_seconds.append(time.perf_counter() - start)
        metrics = layer_metrics(tracer, out, import_seconds)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload}-seed{seed}.json", workload=workload, seed=seed)
    else:
        # Per-call latency and set-up time are medians. The other timings are
        # means of their samples: this machine's speed shifts by 10-15 % on a
        # scale of seconds, and the mean of a few long operations weights each
        # state by its share of the run where their median jumps between states.
        metrics = {
            "setup_s": (summary_of(ops, "setup", statistics.median), "s"),
            "train_s": (summary_of(ops, "train", statistics.mean), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "eval_s": (summary_of(ops, "eval", statistics.mean), "s"),
            "recommend_warm_ms": (summary_of(ops, "recommend_blended", statistics.median, 1e3), "ms"),
            "recommend_cold_s": (summary_of(ops, "recommend_cold", statistics.mean), "s"),
            "prepare_s": (summary_of(ops, "prepare", statistics.mean), "s"),
            "ckpt_save_ms": (summary_of(ops, "ckpt_save", statistics.mean, 1e3), "ms"),
            "ckpt_load_ms": (summary_of(ops, "ckpt_load", statistics.mean, 1e3), "ms"),
            "cooccur_s": (summary_of(ops, "cooccur", statistics.mean), "s"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print("samples: " + ", ".join(f"{kind} {len(v)}" for kind, v in sorted(ops.samples.items())), file=sys.stderr)
    return {"correct": not checks.failures, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
