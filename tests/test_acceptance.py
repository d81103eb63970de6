"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with -s or -v to see
them live; pytest reports the same outcome). The data-dependent criteria
run on deterministic synthetic datasets; point INTENTCF_ML100K at a real
u.data file (and INTENTCF_ML100K_GENRES at an item_id|genre1,genre2 file)
to run them on MovieLens-100k instead.
"""

import os
import sys
import time

import numpy as np
import pytest

from intentcf import autodiff as ad
from intentcf import data as dt
from intentcf import evaluation as ev
from intentcf import intent as it
from intentcf import nn
from intentcf import synthetic
from intentcf import training as tr
from intentcf.autodiff import Tensor

from cell_fixtures import cells, full_batch
from gradcheck import finite_difference_gradients, full_gradients, max_relative_error

pytestmark = pytest.mark.acceptance

METRICS_AT_10 = ("precision", "recall", "map", "ndcg")
SEEDS = (0, 1, 2)

# desk-scale configuration for the directional experiments (criteria 7-9);
# ablation variants differ from it only in the ablated element. lr sits at
# the regime where the KL warm-up is decisive (criterion 8's comparison is
# meaningful rather than a tie between two healthy runs)
DESK = dict(
    k=24, d=32, l=2, intent_hidden=100, item_hidden=64, pref_hidden=100,
    batch_size=64, learning_rate=0.002, kappa=1000, eta_max=1.0,
    pretrain_epochs=25, unified_epochs=45, patience=12,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    # bypass pytest capture so the per-criterion line lands in the console
    # transcript even on plain `pytest -v`
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}: {detail}",
          file=sys.__stdout__, flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------
# shared fixtures


def grad_fixture():
    """4 users / 6 items / K=3 / L=2 / d=2 at a generic parameter point; the
    batch spans all 6 items."""
    cfg = tr.TrainConfig(k=3, d=2, l=2, intent_hidden=4, item_hidden=4, pref_hidden=4,
                         batch_size=4, seed=11)
    state = tr.build_state(cfg, 4, 6)
    jitter = np.random.default_rng(99)
    for p in state.all_parameters():
        p.data = p.data + 0.05 * jitter.standard_normal(p.data.shape)
    rng = np.random.default_rng(2)
    rb = np.zeros((4, 6))
    for u in range(4):
        items = rng.choice(6, size=rng.integers(2, 5), replace=False)
        rb[u, items] = rng.integers(1, 6, size=items.size)
    return state, full_batch((rb > 0).astype(float), rb)


@pytest.fixture(scope="session")
def desk_split_and_genres():
    """ML-100k if present on disk, otherwise the same-scale synthetic world."""
    real = os.environ.get("INTENTCF_ML100K")
    if real:
        matrix = dt.load_ratings(real)
        genres_path = os.environ.get("INTENTCF_ML100K_GENRES")
        table = dt.GenreTable.load(genres_path) if genres_path else None
        source = f"ml-100k ({real})"
    else:
        world = synthetic.genre_world_data(n_users=943, n_items=1200, seed=42)
        matrix = world.rating_matrix()
        table = world.genre_table()
        source = "synthetic genre world (943 users, 18 genres)"
    matrix = dt.filter_min_interactions(matrix, 10)
    return matrix, table, source


@pytest.fixture(scope="session")
def ablation_grid(desk_split_and_genres, tmp_path_factory):
    """3 seeds x {ddcf, ddcf-n, ddcf-s, k1-baseline} + kappa=1 runs.

    Shared by criteria 7, 8 and 9: the ddcf runs double as the kappa=1000
    side of criterion 8 and supply the channel matrices for criterion 9.
    """
    matrix, table, source = desk_split_and_genres
    root = tmp_path_factory.mktemp("grid")
    results: dict = {"source": source, "runs": {}, "wall": {}}
    for seed in SEEDS:
        split = dt.split_per_user(matrix, seed=seed)
        genre_sets = table.for_matrix(split.train) if table else None
        for variant in ("ddcf", "ddcf-n", "ddcf-s", "k1-baseline"):
            t0 = time.time()
            cfg = tr.TrainConfig(variant=variant, seed=seed, **DESK)
            res = tr.train(split, cfg, str(root / f"{variant}_{seed}"))
            state = tr.load_checkpoint(res.best_checkpoint)
            rep = ev.evaluate(tr.scorer_from_state(state), split, cutoffs=(10,))
            row = {m: rep.values[m][10] for m in METRICS_AT_10}
            row["val"] = res.best_val
            row["kl_intent"] = res.history[-1]["kl_intent_per_user"]
            if variant == "ddcf" and genre_sets is not None:
                co = ev.cooccurrence_rate(state.intent.beta().data, genre_sets,
                                          top_t=20, shuffles=100, seed=seed)
                row["cooccur"] = co.rate
                row["cooccur_baseline"] = co.baseline_rate
            results["runs"][(variant, seed)] = row
            results["wall"][(variant, seed)] = time.time() - t0
        t0 = time.time()
        cfg = tr.TrainConfig(variant="ddcf", seed=seed, **{**DESK, "kappa": 1})
        res = tr.train(split, cfg, str(root / f"kappa1_{seed}"))
        results["runs"][("kappa1", seed)] = {
            "val": res.best_val,
            "kl_intent": res.history[-1]["kl_intent_per_user"],
        }
        results["wall"][("kappa1", seed)] = time.time() - t0
    return results


def grid_mean(grid, variant, key):
    return float(np.mean([grid["runs"][(variant, s)][key] for s in SEEDS]))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_checks():
    state, batch = grad_fixture()
    params = state.all_parameters()
    eta, tau, step = 0.7, 0.5, 3
    t0 = time.time()

    def losses():
        return tr.compute_batch_losses(state, batch, eta, tau, step, "unified")

    # the item-intent KL applies a stop-gradient to gamma, so its oracle
    # evaluates the loss with gamma frozen at the base point; the analytic
    # gradients of the frozen and live paths must agree exactly
    noise = tr._stream_rng(state.cfg.seed, 2, step).standard_normal((4, 3))
    gamma_frozen = Tensor(
        it.intent_elbo_loss(state.intent, state.prior, batch.binary, noise, eta, tau).gamma.data
    )

    def l2_frozen():
        return it.item_intent_kl_loss(it.item_intents(state.intent, tau), gamma_frozen, batch.binary)

    live = full_gradients(losses().l2, params)
    frozen = ad.gradients(l2_frozen(), params)
    agree = all(np.allclose(live[p.name], frozen[p.name], atol=1e-12) for p in params)
    assert agree, "stop-gradient path must equal frozen-gamma path analytically"

    fns = {
        "L1": lambda: losses().l1,
        "L2": l2_frozen,
        "L3": lambda: losses().l3,
        "L4": lambda: losses().l4,
    }
    errs = {}
    for name, fn in fns.items():
        analytic = full_gradients(fn(), params)
        numeric = finite_difference_gradients(lambda: fn().item(), params, h=1e-5)
        errs[name] = max_relative_error(analytic, numeric)
    elapsed = time.time() - t0
    ok = all(e < 1e-4 for e in errs.values()) and elapsed < 60
    report(1, ok, "gradient checks vs central differences (h=1e-5): "
           + ", ".join(f"{k} err={v:.2e}" for k, v in errs.items())
           + f" (tol 1e-4, {elapsed:.1f}s < 60s)")


def test_criterion_2_analytic_kl_oracle():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([99])))
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(4, 17))
        mu_q = rng.uniform(-1.5, 1.5, k)
        logvar_q = rng.uniform(-1.0, 1.0, k)
        mu_p = rng.uniform(-1.5, 1.5, k)
        var_p = np.exp(rng.uniform(-1.0, 1.0, k))
        analytic = nn.diag_gaussian_kl(Tensor(mu_q), Tensor(logvar_q), mu_p, var_p).item()
        z = mu_q + rng.standard_normal((100_000, k)) * np.exp(0.5 * logvar_q)
        logq = -0.5 * (((z - mu_q) ** 2) / np.exp(logvar_q) + logvar_q + np.log(2 * np.pi)).sum(axis=1)
        logp = -0.5 * (((z - mu_p) ** 2) / var_p + np.log(var_p) + np.log(2 * np.pi)).sum(axis=1)
        mc = float((logq - logp).mean())
        worst = max(worst, abs(analytic - mc) / abs(analytic))
    elapsed = time.time() - t0
    ok = worst < 0.01 and elapsed < 60
    report(2, ok, f"analytic KL vs 1e5-sample Monte Carlo on 20 diagonal-Gaussian pairs: "
           f"max rel err={worst:.4%} (tol 1%, {elapsed:.1f}s < 60s)")


def test_criterion_3_laplace_prior():
    ok = True
    details = []
    for k in (2, 4, 10):
        prior = it.laplace_prior(np.ones(k))
        mu_exact = np.array_equal(prior.mu, np.zeros(k))
        sigma_exact = np.array_equal(prior.sigma_diag, np.full(k, 1.0 - 1.0 / k))
        ok = ok and mu_exact and sigma_exact
        details.append(f"K={k}: mu==0 {mu_exact}, var=={1 - 1/k:.2f} {sigma_exact}")
    alpha = np.array([0.3, 1.0, 2.5, 4.0])
    prior = it.laplace_prior(alpha)
    expect_mu = np.log(alpha) - np.log(alpha).mean()
    expect_sig = (1 / alpha) * (1 - 2 / 4) + (1 / 16) * np.sum(1 / alpha)
    exact = np.array_equal(prior.mu, expect_mu) and np.array_equal(prior.sigma_diag, expect_sig)
    ok = ok and exact
    report(3, ok, "softmax-basis Dirichlet approximation exact at machine precision: "
           + "; ".join(details) + f"; asymmetric closed form exact {exact}")


def test_criterion_4_metric_oracle():
    (p,), (r,), _, _ = ev.metrics_at_k(np.array([[10, 11, 12, 13, 14]]), [{10, 12, 20, 21}], 5)
    _, _, (ap,), _ = ev.metrics_at_k(np.array([[10, 11, 12, 13, 14]]), [{10, 12}], 5)
    _, _, _, (ndcg,) = ev.metrics_at_k(np.array([[10, 11, 12]]), [{10, 12}], 3)
    expected = {
        "P@5": (p, 0.4),
        "R@5": (r, 0.5),
        "AP@5": (ap, 0.5 * (1 + 2 / 3)),
        "NDCG@3": (ndcg, (1 + 1 / np.log2(4)) / (1 + 1 / np.log2(3))),
    }
    ok = all(abs(got - want) < 1e-9 for got, want in expected.values())
    ok = ok and abs(expected["AP@5"][0] - 0.8333333333) < 1e-9
    ok = ok and abs(expected["NDCG@3"][0] - 0.9197207891) < 1e-9
    report(4, ok, "metric oracle exact to 1e-9: "
           + ", ".join(f"{k}={got:.6f}" for k, (got, _) in expected.items()))


def test_criterion_5_stop_gradient():
    ok = True
    for seed in range(5):
        cfg = tr.TrainConfig(k=4, d=3, l=2, intent_hidden=6, item_hidden=5, pref_hidden=6,
                             batch_size=5, seed=seed)
        state = tr.build_state(cfg, 5, 8)
        jitter = np.random.default_rng(seed + 1)
        for p in state.all_parameters():
            p.data = p.data + 0.1 * jitter.standard_normal(p.data.shape)
        rng = np.random.default_rng(seed + 50)
        xb = np.zeros((5, 8))
        for u in range(5):
            xb[u, rng.choice(8, size=rng.integers(2, 6), replace=False)] = 1.0
        mu, logvar = nn.encode_gaussian(state.intent.encoder_psi, xb)
        gamma = it.sample_gamma(mu, logvar, rng.standard_normal((5, 4)), tau=0.4)
        loss = it.item_intent_kl_loss(it.item_intents(state.intent, 0.4), gamma, cells(xb))
        grads = ad.gradients(loss, state.intent.parameters())
        # every psi parameter downstream of the embedding is exactly zero;
        # the shared first-layer matrix W feeds the item net and is exempt
        for name in ("psi.b0", "psi.w1", "psi.b1", "beta.logits"):
            ok = ok and np.array_equal(grads[name], np.zeros_like(grads[name]))
        ok = ok and np.abs(grads["psi.w0"]).max() > 0 and np.abs(grads["nu.w0"]).max() > 0
    report(5, ok, "item-intent KL gradients w.r.t. user-encoder heads/hidden layers are "
           "identically zero on 5 random fixtures (shared embedding and item net receive gradient)")


def test_criterion_6_planted_channel_recovery(tmp_path):
    t0 = time.time()
    ratios = []
    for seed in SEEDS:
        world = synthetic.planted_channel_data(n_users=500, n_items=200, n_channels=5,
                                               seed=100 + seed)
        split = dt.split_per_user(dt.filter_min_interactions(world.rating_matrix(), 10), seed=seed)
        genre_sets = world.genre_table().for_matrix(split.train)
        cfg = tr.TrainConfig(k=5, d=8, l=2, intent_hidden=24, item_hidden=24, pref_hidden=24,
                             batch_size=25, learning_rate=0.01, kappa=1000, seed=seed,
                             pretrain_epochs=25, unified_epochs=15, patience=50)
        res = tr.train(split, cfg, str(tmp_path / f"planted_{seed}"))
        state = tr.load_checkpoint(res.best_checkpoint)
        co = ev.cooccurrence_rate(state.intent.beta().data, genre_sets,
                                  top_t=20, shuffles=100, seed=seed)
        ratios.append(co.rate / max(co.baseline_rate, 1e-9))
    elapsed = time.time() - t0
    ok = all(r >= 2.0 for r in ratios) and elapsed < 600
    report(6, ok, "planted-channel recovery (N=500, M=200, K*=5; trained K=5, L=2): "
           f"rate/baseline per seed = {[round(r, 2) for r in ratios]} (need >= 2.0 each, "
           f"{elapsed:.0f}s < 600s)")


def test_criterion_7_directional_ablations(ablation_grid):
    grid = ablation_grid
    wall = sum(v for k, v in grid["wall"].items() if k[0] != "kappa1")
    wins_n = sum(grid_mean(grid, "ddcf", m) >= grid_mean(grid, "ddcf-n", m) for m in METRICS_AT_10)
    wins_s = sum(grid_mean(grid, "ddcf", m) >= grid_mean(grid, "ddcf-s", m) for m in METRICS_AT_10)
    r10_full = grid_mean(grid, "ddcf", "recall")
    r10_k1 = grid_mean(grid, "k1-baseline", "recall")
    ok = wins_n >= 3 and wins_s >= 3 and r10_full >= r10_k1 and wall < 1800
    report(7, ok, f"ablations on {grid['source']}, means over 3 seeds at k=10: "
           f"full model beats positives-only input on {wins_n}/4 metrics, "
           f"beats no-contrastive on {wins_s}/4 (need >= 3); "
           f"R@10 {r10_full:.4f} >= single-channel {r10_k1:.4f}; {wall:.0f}s < 1800s")


def test_criterion_8_warmup_behavior(ablation_grid):
    grid = ablation_grid
    val_warm = grid_mean(grid, "ddcf", "val")
    val_none = grid_mean(grid, "kappa1", "val")
    kl_warm = min(grid["runs"][("ddcf", s)]["kl_intent"] for s in SEEDS)
    ok = val_warm > val_none and kl_warm > 0.01
    report(8, ok, f"warm-up on {grid['source']}: mean val R@10 kappa=1000 {val_warm:.4f} > "
           f"kappa=1 {val_none:.4f}; post-warm-up intent KL per user "
           f"min over seeds {kl_warm:.2f} > 0.01 nats")


def test_criterion_9_genre_cooccurrence(ablation_grid):
    grid = ablation_grid
    rate = grid_mean(grid, "ddcf", "cooccur")
    base = grid_mean(grid, "ddcf", "cooccur_baseline")
    ok = rate - base >= 0.05
    report(9, ok, f"genre co-occurrence on {grid['source']}, mean over 3 seeds: "
           f"learned channels {rate:.4f} vs shuffled baseline {base:.4f} "
           f"(lift {100 * (rate - base):.1f}pp, need >= 5pp)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    world = synthetic.planted_channel_data(n_users=80, n_items=60, n_channels=4, seed=17)
    split = dt.split_per_user(dt.filter_min_interactions(world.rating_matrix(), 10), seed=5)
    cfg = tr.TrainConfig(k=4, d=6, l=2, intent_hidden=12, item_hidden=12, pref_hidden=12,
                         batch_size=32, learning_rate=0.005, kappa=50, seed=21,
                         pretrain_epochs=3, unified_epochs=5, patience=50)
    a = tr.train(split, cfg, str(tmp_path / "a"))
    b = tr.train(split, cfg, str(tmp_path / "b"))
    bit_identical = open(a.last_checkpoint, "rb").read() == open(b.last_checkpoint, "rb").read()

    part = tr.train(split, cfg, str(tmp_path / "part"), stop_after_epoch=4)
    resumed = tr.train(split, cfg, str(tmp_path / "resumed"), resume_from=part.last_checkpoint)
    resume_identical = open(resumed.last_checkpoint, "rb").read() == open(a.last_checkpoint, "rb").read()

    state = tr.load_checkpoint(a.last_checkpoint)
    resave = str(tmp_path / "resave.ckpt")
    tr.save_checkpoint(resave, state)
    roundtrip = open(resave, "rb").read() == open(a.last_checkpoint, "rb").read()

    ok = bit_identical and resume_identical and roundtrip
    report(10, ok, f"fixed-seed runs bit-identical: {bit_identical}; interrupted+resumed run "
           f"reproduces the uninterrupted checkpoint: {resume_identical}; save/load/save "
           f"round-trip byte-exact: {roundtrip}")
