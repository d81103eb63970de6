
import json
import os
import re
from pathlib import Path

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import autodiff as ad
from intentcf import data as dt
from intentcf import nn
from intentcf import synthetic
from intentcf import training as tr
from intentcf.errors import CheckpointError, ParameterError, TrainingError, UsageError

from cell_fixtures import full_batch, train_until
from gradcheck import named_gradients

def small_split(n_users=60, n_items=40, n_channels=3, seed=4):
    sd = synthetic.planted_channel_data(n_users=n_users, n_items=n_items, n_channels=n_channels, seed=seed)
    m = dt.filter_min_interactions(sd.rating_matrix(), 10)
    return dt.split_per_user(m, seed=1)

def small_cfg(**kw):
    base = dict(k=3, d=4, l=2, intent_hidden=8, item_hidden=8, pref_hidden=8,
                batch_size=32, pretrain_epochs=2, unified_epochs=3, kappa=10, seed=7,
                patience=50)
    base.update(kw)
    return tr.TrainConfig(**base)

def schedule(kappa=1000, eta_max=1.0, epochs=101):
    """A config whose KL weight ramps over kappa batches and whose
    temperature anneals from 1.0 to 0.4 over epochs - 1 epochs."""
    return tr.TrainConfig(kappa=kappa, eta_max=eta_max, tau_start=1.0, tau_end=0.4, pretrain_epochs=1,
                          unified_epochs=epochs - 1)

class TestWarmup:
    def test_origin(self):
        assert tr.kl_weight(schedule(), 0) == 0.0
        assert tr.temperature(schedule(), 0) == 1.0

    def test_reaches_max_at_kappa(self):
        assert tr.kl_weight(schedule(), 1000) == 1.0
        assert tr.kl_weight(schedule(), 5000) == 1.0

    def test_linear_midpoint(self):
        assert tr.kl_weight(schedule(), 500) == pytest.approx(0.5)
        assert tr.kl_weight(schedule(eta_max=0.8), 250) == pytest.approx(0.2)

    def test_tau_anneal_and_floor(self):
        cfg = schedule(kappa=10, epochs=51)
        assert tr.temperature(cfg, 0) == 1.0
        assert tr.temperature(cfg, 25) == pytest.approx(0.7)
        assert tr.temperature(cfg, 50) == pytest.approx(0.4)
        assert tr.temperature(cfg, 80) == pytest.approx(0.4)

    def test_monotone_schedules(self):
        cfg = schedule(kappa=37, eta_max=1.3, epochs=91)
        etas = [tr.kl_weight(cfg, step) for step in range(0, 120, 7)]
        taus = [tr.temperature(cfg, step) for step in range(0, 120, 7)]
        assert all(a <= b + 1e-12 for a, b in zip(etas, etas[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(taus, taus[1:]))

    def test_kappa_validated(self):
        # the KL ramp divides by kappa; a config of kappa 0 never reaches it
        with pytest.raises(UsageError, match="kappa must be >= 1, got 0"):
            schedule(kappa=0).validate()

class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError, match="typo_key"):
            tr.TrainConfig.from_dict({"typo_key": 1})

    @pytest.mark.parametrize("key,value", [
        ("k", "abc"), ("k", True), ("k", 3.0), ("batch_size", 1.5), ("tau_c", "0.2"), ("lambda2", None),
        ("learning_rate", math.nan), ("eta_max", math.inf), ("lambda2", 10**400), ("variant", 3),
        ("intent_min_rating", "4"), ("intent_min_rating", False),
    ])
    def test_mistyped_values_rejected(self, key, value):
        with pytest.raises(UsageError, match=f"config key '{key}' needs"):
            tr.TrainConfig.from_dict({key: value})

    def test_zero_epochs_rejected(self):
        with pytest.raises(UsageError, match="at least one epoch"):
            small_cfg(pretrain_epochs=0, unified_epochs=0).validate()
        small_cfg(pretrain_epochs=0, unified_epochs=1).validate()

    def test_negative_patience_rejected(self):
        # patience -1 would stop after the first unified epoch, improved or not
        with pytest.raises(UsageError, match="patience must be >= 0, got -1"):
            small_cfg(patience=-1).validate()
        small_cfg(patience=0).validate()

    def test_values_of_the_field_type_accepted(self):
        cfg = tr.TrainConfig.from_dict({"k": 4, "tau_c": 1, "lambda2": 0.5, "intent_min_rating": None,
                                        "variant": "ddcf-s"})
        assert (cfg.k, cfg.tau_c, cfg.intent_min_rating, cfg.variant) == (4, 1, None, "ddcf-s")
        assert tr.TrainConfig.from_dict({"intent_min_rating": 3}).intent_min_rating == 3
        assert tr.TrainConfig.from_dict(small_cfg().to_dict()) == small_cfg()

    def test_retired_keys_load_only_at_their_former_value(self):
        former = {"prob_floor": 1e-10, "include_positive_pair": False, "detach_tailored": False,
                  "pref_zero_negatives": False, "pref_target_raw": False, "skip_pretrain": False, "mc_samples": 1}
        assert tr.TrainConfig.from_dict({**former, "k": 4}) == tr.TrainConfig(k=4)
        for key, value in [("prob_floor", 1e-8), ("include_positive_pair", True), ("detach_tailored", 0),
                           ("pref_zero_negatives", True), ("pref_target_raw", None), ("skip_pretrain", True),
                           ("skip_pretrain", 1), ("mc_samples", 2), ("mc_samples", 1.0)]:
            with pytest.raises(UsageError, match=f"config key '{key}' is retired"):
                tr.TrainConfig.from_dict({**former, key: value})

    @given(st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(tr.TrainConfig)]
                        + ["prob_floor", "detach_tailored", "skip_pretrain", "mc_samples"]),
        st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                     lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                                  max_size=3),
                     max_leaves=6),
        max_size=6,
    ))
    @settings(max_examples=300, deadline=None)
    def test_random_json_values_raise_only_usage_errors(self, values):
        try:
            tr.TrainConfig.from_dict(values).validate()
        except UsageError:
            pass

    def test_readme_table_names_every_field_and_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.MULTILINE)
        assert rows == [(f.name, json.dumps(f.default)) for f in dataclasses.fields(tr.TrainConfig)]

    def test_invariants(self):
        with pytest.raises(UsageError):
            small_cfg(k=2, l=3).validate()
        with pytest.raises(UsageError):
            small_cfg(tau_c=0.0).validate()
        with pytest.raises(UsageError):
            small_cfg(lambda3=-1.0).validate()
        with pytest.raises(UsageError):
            small_cfg(variant="bogus").validate()

    def test_variants(self):
        n = tr.resolve_variant(small_cfg(variant="ddcf-n"))
        assert n.intent_min_rating == 4.0
        s = tr.resolve_variant(small_cfg(variant="ddcf-s"))
        assert s.lambda4 == 0.0
        k1 = tr.resolve_variant(small_cfg(variant="k1-baseline"))
        assert (k1.k, k1.l) == (1, 1)
        plain = tr.resolve_variant(small_cfg())
        assert plain.lambda4 == small_cfg().lambda4

    def test_hash_stable(self):
        assert small_cfg().config_hash() == small_cfg().config_hash()
        assert small_cfg().config_hash() != small_cfg(seed=8).config_hash()

class TestPretrainStructure:
    def test_lambda2_zero_leaves_item_net_untouched(self):
        split = small_split()
        cfg = small_cfg(lambda2=0.0)
        state = tr.build_state(cfg, split.train.n_users, split.train.n_items)
        rb = split.train.dense(np.arange(8))
        batch = full_batch(rb > 0, rb)
        losses = tr.compute_batch_losses(state, batch, 0.5, 0.8, 0, "pretrain")
        total = ad.add(losses.l1, ad.mul(losses.l2, cfg.lambda2))
        grads = named_gradients(total, state.intent.parameters())
        for name in ("nu.w0", "nu.b0", "nu.w1", "nu.b1"):
            assert np.array_equal(grads[name], np.zeros_like(grads[name])), name
        assert np.abs(grads["beta.logits"]).max() > 0

    def test_pretrain_leaves_preference_parameters(self):
        split = small_split()
        cfg = small_cfg(pretrain_epochs=2, unified_epochs=0)
        state = tr.build_state(cfg, split.train.n_users, split.train.n_items)
        before = {p.name: p.data.copy() for p in state.pref.parameters()}
        for epoch in range(2):
            tr.run_epoch(state, split, epoch, "pretrain")
        for p in state.pref.parameters():
            assert np.array_equal(p.data, before[p.name]), p.name

    def test_pretrain_loss_decreases_on_planted_fixture(self, tmp_path):
        split = small_split(n_users=500, n_items=200, n_channels=5, seed=4)
        cfg = tr.TrainConfig(k=5, d=8, l=2, intent_hidden=24, item_hidden=24, pref_hidden=24,
                             batch_size=25, learning_rate=0.01, kappa=1000, seed=7,
                             pretrain_epochs=20, unified_epochs=35, patience=50)
        last = train_until(split, cfg, str(tmp_path / "run"), 20)
        totals = [r["total"] for r in tr.load_checkpoint(last).history]
        assert len(totals) == 20
        smoothed = np.convolve(totals, np.ones(3) / 3, mode="valid")
        assert smoothed[-1] < smoothed[0]
        assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_breakdown(self):
        split = small_split()
        cfg = small_cfg()
        state = tr.build_state(cfg, split.train.n_users, split.train.n_items)
        state.intent.beta_logits.data[...] = np.inf
        with pytest.raises(TrainingError, match="l1="):
            tr.run_epoch(state, split, 0, "pretrain")

class TestRowSparseStep:
    def test_unified_step_hands_adam_row_gradients(self, monkeypatch):
        split = small_split(n_items=200)
        cfg = small_cfg(batch_size=8)
        state = tr.build_state(cfg, split.train.n_users, split.train.n_items)
        seen, step = [], nn.Adam.step

        def spy(opt, params, grads):
            seen.append(grads)
            return step(opt, params, grads)

        monkeypatch.setattr(nn.Adam, "step", spy)
        tr.run_epoch(state, split, 0, "unified")
        n = split.train.n_users
        perm = tr._stream_rng(cfg.seed, tr._SHUFFLE, 0).permutation(n)
        starts = range(0, n, cfg.batch_size)
        assert len(seen) == len(starts) >= 2
        shapes = {p.name: p.data.shape for p in state.all_parameters()}
        for lo, grads in zip(starts, seen):
            items = dt.item_batch(split.train, perm[lo : lo + cfg.batch_size], None).items
            assert items.size < split.train.n_items
            assert set(grads) == set(shapes)
            for name, g in grads.items():
                if name in ("psi.w0", "theta.w0", "item.V"):
                    assert isinstance(g, nn.RowGrad) and g.axis == (name == "item.V"), name
                    np.testing.assert_array_equal(g.rows, items)
                else:
                    assert isinstance(g, np.ndarray) and g.shape == shapes[name], name


    def test_two_views_of_one_parameter_rejected(self):
        w = ad.parameter(np.ones((4, 2)), "w")
        loss = ad.tsum(ad.add(nn.RowView(w, [0, 1]), nn.RowView(w, [2, 3])))
        with pytest.raises(ParameterError, match="two row views"):
            tr.batch_gradients(loss, [w])
        grads = tr.batch_gradients(ad.tsum(ad.mul(nn.RowView(w, [1, 3]), 2.0)), [w])
        np.testing.assert_array_equal(grads["w"].rows, [1, 3])
        np.testing.assert_array_equal(grads["w"].values, np.full((2, 2), 2.0))

    def test_a_view_and_the_parameter_itself_rejected(self):
        # the direct read's gradient must not be dropped in favour of the view's
        w = ad.parameter(np.ones((4, 2)), "w")
        loss = ad.add(ad.tsum(ad.mul(nn.RowView(w, [1, 3]), 2.0)), ad.tsum(ad.mul(w, 3.0)))
        with pytest.raises(ParameterError, match="a row view and directly"):
            tr.batch_gradients(loss, [w])

    def test_a_parameter_the_loss_does_not_reach_gets_no_entry(self):
        w, unused = ad.parameter(np.ones(3), "w"), ad.parameter(np.ones(2), "unused")
        grads = tr.batch_gradients(ad.tsum(ad.mul(w, 2.0)), [w, unused])
        assert set(grads) == {"w"}
        np.testing.assert_array_equal(grads["w"], np.full(3, 2.0))

    def test_train_walks_each_batch_tape_once(self, tmp_path, monkeypatch):
        walks, batches = [], []
        tape, losses = ad._tape, tr.compute_batch_losses
        monkeypatch.setattr(ad, "_tape", lambda loss: walks.append(1) or tape(loss))
        monkeypatch.setattr(tr, "compute_batch_losses", lambda *a: batches.append(1) or losses(*a))
        tr.train(small_split(), small_cfg(pretrain_epochs=1, unified_epochs=1), str(tmp_path))
        assert len(batches) >= 4
        assert len(walks) == len(batches)


class TestDeterminismAndPersistence:
    def test_two_runs_bit_identical(self, tmp_path):
        split = small_split()
        cfg = small_cfg()
        a = tr.train(split, cfg, str(tmp_path / "a"))
        b = tr.train(split, cfg, str(tmp_path / "b"))
        blob_a = open(a.last_checkpoint, "rb").read()
        blob_b = open(b.last_checkpoint, "rb").read()
        assert blob_a == blob_b

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        state = tr.load_checkpoint(res.last_checkpoint)
        path2 = str(tmp_path / "resaved.ckpt")
        tr.save_checkpoint(path2, state)
        assert open(res.last_checkpoint, "rb").read() == open(path2, "rb").read()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        split = small_split()
        cfg = small_cfg(pretrain_epochs=2, unified_epochs=4)
        full = tr.train(split, cfg, str(tmp_path / "full"))

        part = train_until(split, cfg, str(tmp_path / "part"), 3)
        assert tr.load_checkpoint(part).epoch == 3
        resumed = tr.train(split, cfg, str(tmp_path / "resumed"), resume_from=part)

        sa = tr.load_checkpoint(full.last_checkpoint)
        sb = tr.load_checkpoint(resumed.last_checkpoint)
        assert sa.epoch == sb.epoch
        for pa, pb in zip(sa.all_parameters(), sb.all_parameters()):
            assert np.array_equal(pa.data, pb.data), pa.name
        # optimizer moments resume bitwise as well
        for name in sa.opt.m:
            assert np.array_equal(sa.opt.m[name], sb.opt.m[name]), name

    def test_resume_keeps_the_history(self, tmp_path):
        # a 2+3-epoch run stopped at epoch 3 and resumed writes the same
        # history.json and manifest epoch table as the uninterrupted run,
        # wall-clock seconds aside
        split = small_split()
        cfg = small_cfg(pretrain_epochs=2, unified_epochs=3)
        full = tr.train(split, cfg, str(tmp_path / "full"))
        part = train_until(split, cfg, str(tmp_path / "cut"), 3)
        tr.train(split, cfg, str(tmp_path / "cut"), resume_from=part)

        def history(run):
            records = json.loads((tmp_path / run / "history.json").read_text())
            return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

        def epoch_table(run):
            lines = (tmp_path / run / "run_manifest.txt").read_text().splitlines()
            start = lines.index("epochs:") + 1
            rows = [line.split() for line in lines[start:] if line.startswith("  ")]
            return [row[:-1] for row in rows]  # the last column is seconds

        assert [r["epoch"] for r in history("cut")] == [0, 1, 2, 3, 4]
        assert history("cut") == history("full")
        assert epoch_table("cut") == epoch_table("full")
        assert len(epoch_table("cut")) == 6  # header and five epochs

    def test_resume_into_a_new_directory_carries_the_best_checkpoint(self, tmp_path):
        # the best epoch, 2, lies before the cut after epoch 4, and no later
        # epoch beats it, so the resumed run itself never writes best.ckpt
        split = small_split(n_users=120, n_items=60, seed=1)
        cfg = small_cfg(pretrain_epochs=1, unified_epochs=6, learning_rate=0.01, kappa=5, seed=1)
        full = tr.train(split, cfg, str(tmp_path / "full"))
        assert full.best_epoch == 2
        part = train_until(split, cfg, str(tmp_path / "part"), 4)
        resumed = tr.train(split, cfg, str(tmp_path / "resumed"), resume_from=part)
        assert open(resumed.best_checkpoint, "rb").read() == open(full.best_checkpoint, "rb").read()

        # the best.ckpt beside the resumed checkpoint must hold its best epoch
        beside = tmp_path / "part" / "best.ckpt"
        tr.save_checkpoint(str(beside), tr.build_state(cfg, split.train.n_users, split.train.n_items))
        with pytest.raises(CheckpointError, match="holds best epoch -1"):
            tr.train(split, cfg, str(tmp_path / "other"), resume_from=part)
        beside.unlink()
        with pytest.raises(CheckpointError, match="best.ckpt, which is missing"):
            tr.train(split, cfg, str(tmp_path / "other"), resume_from=part)
        assert not (tmp_path / "other" / "last.ckpt").exists()

    def test_truncated_file_rejected(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        blob = open(res.last_checkpoint, "rb").read()
        bad = str(tmp_path / "trunc.ckpt")
        with open(bad, "wb") as fh:
            fh.write(blob[: len(blob) - 37])
        with pytest.raises(CheckpointError, match="truncated|footer"):
            tr.load_checkpoint(bad)

    def test_bad_magic_rejected(self, tmp_path):
        bad = str(tmp_path / "junk.ckpt")
        with open(bad, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            tr.load_checkpoint(bad)

    def test_version_mismatch_rejected(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        blob = bytearray(open(res.last_checkpoint, "rb").read())
        blob[4:8] = (99).to_bytes(4, "little")
        bad = str(tmp_path / "ver.ckpt")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            tr.load_checkpoint(bad)

    def test_header_corruption_names_section(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        blob = bytearray(open(res.last_checkpoint, "rb").read())
        blob[20] ^= 0xFF  # inside the JSON header
        bad = str(tmp_path / "hdr.ckpt")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError):
            tr.load_checkpoint(bad)

    def test_dataset_mismatch_rejected(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        other = small_split(n_users=80, n_items=50, seed=9)
        with pytest.raises(CheckpointError, match="N="):
            tr.train(other, small_cfg(), str(tmp_path / "bad"), resume_from=res.last_checkpoint)

class TestSchedulesInTraining:
    def test_eta_nondecreasing_tau_nonincreasing(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(kappa=5), str(tmp_path / "run"))
        etas = [r["eta"] for r in res.history]
        taus = [r["tau"] for r in res.history]
        assert all(a <= b + 1e-12 for a, b in zip(etas, etas[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(taus, taus[1:]))

    def test_patience_waits_for_the_kl_warm_up(self, tmp_path, monkeypatch):
        # validation R@10 never improves after the first unified epoch, so
        # patience 1 alone would stop the run at epoch 2, with eta still ramping
        monkeypatch.setattr(tr, "validation_recall_at_10", lambda state, data: 0.5)
        split = small_split()
        cfg = small_cfg(pretrain_epochs=1, unified_epochs=20, patience=1, kappa=7)
        res = tr.train(split, cfg, str(tmp_path / "run"))
        etas = [r["eta"] for r in res.history]
        assert len(res.history) > 3 and res.best_epoch == 1
        # the first epoch that ends at eta_max is the last one
        assert etas[-1] == cfg.eta_max and all(eta < cfg.eta_max for eta in etas[:-1])
        assert "early_stop: no val improvement for 1 epochs" in Path(res.manifest_path).read_text()

    def test_each_record_holds_the_schedule_at_its_last_batch(self, tmp_path):
        # 60 users in batches of 32: two batches an epoch
        split = small_split()
        cfg = small_cfg(kappa=5)
        res = tr.train(split, cfg, str(tmp_path / "run"))
        assert len(res.history) == 5
        for r in res.history:
            assert r["eta"] == tr.kl_weight(cfg, 2 * r["epoch"] + 1)
            assert r["tau"] == tr.temperature(cfg, r["epoch"])

    def test_all_losses_finite(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        for r in res.history:
            for key in ("l1", "l2", "l3", "l4", "total"):
                assert np.isfinite(r[key]), (r["epoch"], key)

    def test_skip_pretrain_flagged_in_manifest(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(pretrain_epochs=0, unified_epochs=2), str(tmp_path / "run"))
        manifest = open(res.manifest_path, encoding="utf-8").read()
        assert "pretraining skipped" in manifest
        assert all(r["stage"] == "unified" for r in res.history)

    def test_ddcf_s_runs_end_to_end(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(variant="ddcf-s"), str(tmp_path / "run"))
        assert all(r["l4"] == 0.0 for r in res.history)
        assert np.isfinite(res.best_val)

    def test_k1_baseline_runs(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(variant="k1-baseline"), str(tmp_path / "run"))
        state = tr.load_checkpoint(res.last_checkpoint)
        assert state.cfg.k == 1 and state.cfg.l == 1
        assert np.isfinite(res.best_val)

    def test_ddcf_n_uses_positives_only(self, tmp_path):
        split = small_split()
        res = tr.train(split, small_cfg(variant="ddcf-n"), str(tmp_path / "run"))
        state = tr.load_checkpoint(res.last_checkpoint)
        assert state.cfg.intent_min_rating == 4.0

    def test_simplex_invariants_after_training(self, tmp_path):
        from intentcf.intent import item_intents
        from intentcf.intent import sample_gamma
        from intentcf.nn import encode_gaussian
        from intentcf import autodiff as ad

        split = small_split()
        res = tr.train(split, small_cfg(), str(tmp_path / "run"))
        state = tr.load_checkpoint(res.last_checkpoint)
        beta = state.intent.beta().data
        np.testing.assert_allclose(beta.sum(axis=0), np.ones(state.cfg.k), atol=1e-10)
        with ad.no_grad():
            phi = item_intents(state.intent, state.tau).data
            np.testing.assert_allclose(phi.sum(axis=0), np.ones(split.train.n_items), atol=1e-10)
            x = (split.train.dense() > 0).astype(np.float64)
            mu, logvar = encode_gaussian(state.intent.encoder_psi, x)
            gamma = sample_gamma(mu, logvar, np.zeros(mu.data.shape), state.tau).data
        np.testing.assert_allclose(gamma.sum(axis=1), np.ones(split.train.n_users), atol=1e-10)
        assert np.all(gamma > 0)

# validation R@10 per unified epoch in the shape of the desk plateau: flat
# near 0.01, falling during the KL warm-up, and rising only after it
PLATEAU = [0.0098, 0.0061, 0.0061, 0.0085, 0.0090, 0.0123, 0.0110, 0.0117, 0.0426]


def manifest_epochs(run: Path) -> list[int]:
    """The epochs listed in a run directory's run_manifest.txt table."""
    lines = (run / "run_manifest.txt").read_text().splitlines()
    start = lines.index("epochs:") + 2  # past the column header
    return [int(line.split()[0]) for line in lines[start:] if line.startswith("  ")]


class TestStopAndCommit:
    def test_stopped_reads_the_saved_state_through_the_warm_up(self, tmp_path, monkeypatch):
        # 60 users in 2 batches with kappa 10: unified epochs 1-4 end below
        # eta_max, so their falls do not count; epoch 5 counts one, epoch 6
        # improves, and epochs 7 and 8 exhaust patience 2 before epoch 9's rise
        values = iter(PLATEAU)
        monkeypatch.setattr(tr, "validation_recall_at_10", lambda state, data: next(values))
        split = small_split()
        cfg = small_cfg(pretrain_epochs=1, unified_epochs=len(PLATEAU), kappa=10, patience=2)
        run = tmp_path / "run"
        seen = []

        def log(record):
            state = tr.load_checkpoint(str(run / "last.ckpt"))
            seen.append((state.eta < cfg.eta_max, state.bad_epochs, tr._stopped(state)))

        res = tr.train(split, cfg, str(run), log=log)
        assert [below for below, _, _ in seen] == [True] * 5 + [False] * 4
        assert [bad for _, bad, _ in seen] == [0, 0, 0, 0, 0, 1, 0, 1, 2]
        assert [stopped for _, _, stopped in seen] == [False] * 8 + [True]
        assert res.best_epoch == 6 and len(res.history) == 9
        assert "early_stop: no val improvement for 2 epochs" in (run / "run_manifest.txt").read_text()

        # patience counts only after the last pretrain epoch
        state = tr.build_state(small_cfg(pretrain_epochs=2, patience=0), 60, 40)
        assert [tr._stopped(dataclasses.replace(state, epoch=e)) for e in range(4)] == [False] * 3 + [True]

    def test_a_run_patience_stopped_resumes_to_no_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tr, "validation_recall_at_10", lambda state, data: 0.5)
        split = small_split()
        cfg = small_cfg(pretrain_epochs=1, unified_epochs=20, patience=1, kappa=7)
        run = tmp_path / "run"
        first = tr.train(split, cfg, str(run))
        assert len(first.history) < 21
        blob = (run / "last.ckpt").read_bytes()
        for out in (run, tmp_path / "elsewhere"):
            logged = []
            again = tr.train(split, cfg, str(out), resume_from=str(run / "last.ckpt"), log=logged.append)
            assert logged == [] and (run / "last.ckpt").read_bytes() == blob
            assert again.last_checkpoint == str(out / "last.ckpt") and (out / "last.ckpt").read_bytes() == blob
            assert [r["epoch"] for r in again.history] == [r["epoch"] for r in first.history]
            assert manifest_epochs(out) == [r["epoch"] for r in first.history]
            assert "early_stop:" in (out / "run_manifest.txt").read_text()

    def test_a_cut_run_leaves_the_run_files_of_its_epochs(self, tmp_path):
        split = small_split()
        cut = tmp_path / "cut"
        last = train_until(split, small_cfg(pretrain_epochs=2, unified_epochs=3), str(cut), 3)
        records = json.loads((cut / "history.json").read_text())
        assert [r["epoch"] for r in records] == manifest_epochs(cut) == [0, 1, 2]
        assert [{k: v for k, v in r.items() if k != "seconds"} for r in records] == tr.load_checkpoint(last).history

    def test_no_validation_positive_fails_before_any_epoch(self, tmp_path):
        split = small_split()
        # ratings run from 1 to 5, so no rating reaches the threshold 6
        bare = dataclasses.replace(split, rating_threshold=6.0)
        with pytest.raises(ParameterError, match="validation split holds no rating at or above .* 6.0"):
            tr.train(bare, small_cfg(), str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()
        # a resumed run with unified epochs left checks it too; a pretrain-only
        # run needs no positive
        last = train_until(split, small_cfg(), str(tmp_path / "cut"), 1)
        with pytest.raises(ParameterError, match="validation split"):
            tr.train(bare, small_cfg(), str(tmp_path / "resumed"), resume_from=last)
        assert not (tmp_path / "resumed").exists()
        tr.train(bare, small_cfg(unified_epochs=0), str(tmp_path / "pretrain"))


    def test_fewer_than_10_items_fail_before_any_epoch(self, tmp_path):
        sd = synthetic.planted_channel_data(n_users=80, n_items=8, n_channels=3, seed=3)
        split = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 5), seed=1,
                                  fractions=(0.5, 0.25, 0.25), rating_threshold=1.0)
        assert split.train.n_items == 8
        with pytest.raises(ParameterError, match="holds 8 items, fewer than the 10 that validation recall at 10"):
            tr.train(split, small_cfg(), str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()
        # a pretrain-only run ranks nothing
        tr.train(split, small_cfg(unified_epochs=0), str(tmp_path / "pretrain"))

    def test_a_model_beyond_memory_raises_parameter_error(self):
        # psi's first weight, drawn first, would take 40 * 2**42 * 8 bytes,
        # more than 2**47, which no x86-64 process can map: nothing is allocated
        with pytest.raises(ParameterError, match=r"over 40 items does not fit in memory: k=3, d=4, "
                                                 r"intent_hidden=4398046511104, item_hidden=8, pref_hidden=8"):
            tr.build_state(small_cfg(intent_hidden=2**42), 60, 40)


class TestUnifiedReducesToPretraining:
    def test_zero_weights_continue_the_pretraining_trajectory(self, tmp_path):
        # with lambda3 = lambda4 = 0 the unified stage updates exactly what
        # continued pretraining would
        split = small_split()
        pre_only = small_cfg(pretrain_epochs=4, unified_epochs=0)
        mixed = small_cfg(pretrain_epochs=2, unified_epochs=2, lambda3=0.0, lambda4=0.0)
        a = tr.train(split, pre_only, str(tmp_path / "a"))
        b = tr.train(split, mixed, str(tmp_path / "b"))
        sa = tr.load_checkpoint(a.last_checkpoint)
        sb = tr.load_checkpoint(b.last_checkpoint)
        for pa, pb in zip(sa.intent.parameters(), sb.intent.parameters()):
            assert np.array_equal(pa.data, pb.data), pa.name
        for p0, p1 in zip(tr.build_state(mixed, split.train.n_users, split.train.n_items).pref.parameters(),
                          sb.pref.parameters()):
            assert np.array_equal(p0.data, p1.data), p1.name  # preference net untouched


class TestPipelineDeterminism:
    def test_filter_split_save_pipeline_byte_identical(self, tmp_path):
        sd = synthetic.planted_channel_data(n_users=50, n_items=40, n_channels=2, seed=8)
        for d in ("x", "y"):
            m = dt.filter_min_interactions(sd.rating_matrix(), 10)
            dt.save_split(dt.split_per_user(m, seed=11), str(tmp_path / d))
        for name in ["users.txt", "items.txt", "train.tsv", "valid.tsv", "test.tsv", "manifest.txt"]:
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
