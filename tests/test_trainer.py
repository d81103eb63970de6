
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

from cell_fixtures import full_batch

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

class TestWarmup:
    def test_origin(self):
        eta, tau = tr.warmup(0, 1000, 1.0, 1.0, 0.4, 100)
        assert eta == 0.0
        assert tau == 1.0

    def test_reaches_max_at_kappa(self):
        eta, _ = tr.warmup(1000, 1000, 1.0, 1.0, 0.4, 100)
        assert eta == 1.0
        eta, _ = tr.warmup(5000, 1000, 1.0, 1.0, 0.4, 100)
        assert eta == 1.0

    def test_linear_midpoint(self):
        eta, _ = tr.warmup(500, 1000, 1.0, 1.0, 0.4, 100)
        assert eta == pytest.approx(0.5)
        eta, _ = tr.warmup(250, 1000, 0.8, 1.0, 0.4, 100)
        assert eta == pytest.approx(0.2)

    def test_tau_anneal_and_floor(self):
        _, tau0 = tr.warmup(0, 10, 1.0, 1.0, 0.4, 50)
        _, tau_mid = tr.warmup(25, 10, 1.0, 1.0, 0.4, 50)
        _, tau_end = tr.warmup(50, 10, 1.0, 1.0, 0.4, 50)
        _, tau_past = tr.warmup(80, 10, 1.0, 1.0, 0.4, 50)
        assert tau0 == 1.0
        assert tau_mid == pytest.approx(0.7)
        assert tau_end == pytest.approx(0.4)
        assert tau_past == pytest.approx(0.4)

    def test_monotone_schedules(self):
        etas, taus = [], []
        for step in range(0, 120, 7):
            eta, tau = tr.warmup(step, 37, 1.3, 1.0, 0.4, 90)
            etas.append(eta)
            taus.append(tau)
        assert all(a <= b + 1e-12 for a, b in zip(etas, etas[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(taus, taus[1:]))

    def test_kappa_validated(self):
        with pytest.raises(ParameterError):
            tr.warmup(0, 0, 1.0, 1.0, 0.4, 10)

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
        x_bin = dt.binarize(split.train)
        batch = full_batch(x_bin.dense(np.arange(8)), split.train.dense(np.arange(8)))
        losses = tr.compute_batch_losses(state, batch, 0.5, 0.8, 0, "pretrain")
        total = ad.add(losses.l1, ad.mul(losses.l2, cfg.lambda2))
        grads = ad.gradients(total, state.intent.parameters())
        for name in ("nu.w0", "nu.b0", "nu.w1", "nu.b1"):
            assert np.array_equal(grads[name], np.zeros_like(grads[name])), name
        assert np.abs(grads["beta.logits"]).max() > 0

    def test_pretrain_leaves_preference_parameters(self):
        split = small_split()
        cfg = small_cfg(pretrain_epochs=2, unified_epochs=0)
        state = tr.build_state(cfg, split.train.n_users, split.train.n_items)
        before = {p.name: p.data.copy() for p in state.pref.parameters()}
        x_bin = dt.binarize(split.train)
        for epoch in range(2):
            tr.run_epoch(state, split, x_bin, epoch, "pretrain")
        for p in state.pref.parameters():
            assert np.array_equal(p.data, before[p.name]), p.name

    def test_pretrain_loss_decreases_on_planted_fixture(self, tmp_path):
        split = small_split(n_users=500, n_items=200, n_channels=5, seed=4)
        cfg = tr.TrainConfig(k=5, d=8, l=2, intent_hidden=24, item_hidden=24, pref_hidden=24,
                             batch_size=25, learning_rate=0.01, kappa=1000, seed=7,
                             pretrain_epochs=20, unified_epochs=35, patience=50)
        res = tr.train(split, cfg, str(tmp_path / "run"), stop_after_epoch=20)
        totals = [r["total"] for r in res.history]
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
        x_bin = dt.binarize(split.train)
        with pytest.raises(TrainingError, match="l1="):
            tr.run_epoch(state, split, x_bin, 0, "pretrain")

class TestRowSparseStep:
    def test_unified_step_hands_adam_row_gradients(self, monkeypatch):
        split = small_split(n_items=200)
        cfg = small_cfg(batch_size=8)
        state = tr.build_state(cfg, split.train.n_users, split.train.n_items)
        x_bin = dt.binarize(split.train)
        seen, step = [], nn.Adam.step

        def spy(opt, params, grads):
            seen.append(grads)
            return step(opt, params, grads)

        monkeypatch.setattr(nn.Adam, "step", spy)
        tr.run_epoch(state, split, x_bin, 0, "unified")
        n = split.train.n_users
        perm = tr._stream_rng(cfg.seed, tr._SHUFFLE, 0).permutation(n)
        starts = range(0, n, cfg.batch_size)
        assert len(seen) == len(starts) >= 2
        shapes = {p.name: p.data.shape for p in state.all_parameters()}
        for lo, grads in zip(starts, seen):
            items = dt.item_batch(split.train, x_bin, perm[lo : lo + cfg.batch_size]).items
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

        part = tr.train(split, cfg, str(tmp_path / "part"), stop_after_epoch=3)
        assert tr.load_checkpoint(part.last_checkpoint).epoch == 3
        resumed = tr.train(split, cfg, str(tmp_path / "resumed"), resume_from=part.last_checkpoint)

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
        part = tr.train(split, cfg, str(tmp_path / "cut"), stop_after_epoch=3)
        tr.train(split, cfg, str(tmp_path / "cut"), resume_from=part.last_checkpoint)

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
            x = dt.binarize(split.train).dense(np.arange(split.train.n_users))
            mu, logvar = encode_gaussian(state.intent.encoder_psi, x)
            gamma = sample_gamma(mu, logvar, np.zeros(mu.data.shape), state.tau).data
        np.testing.assert_allclose(gamma.sum(axis=1), np.ones(split.train.n_users), atol=1e-10)
        assert np.all(gamma > 0)

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
