import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import cli, data, synthetic, training
from intentcf.errors import IntentcfError, ParameterError
from cell_fixtures import train_until
from test_checkpoint_header import drop, put, rewrite_header


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_world")
    raw = str(root / "raw")
    data = synthetic.planted_channel_data(n_users=80, n_items=50, n_channels=3, seed=5)
    ratings, genres = data.write(raw)
    prep = str(root / "prep")
    code = cli.main(["prepare", "--ratings", ratings, "--genres", genres, "--out", prep, "--seed", "3"])
    assert code == 0
    run = str(root / "run")
    code = cli.main([
        "train", "--data", prep, "--out", run, "--quiet", "--seed", "4",
        "--set", "k=3", "--set", "d=4", "--set", "l=2",
        "--set", "intent_hidden=8", "--set", "item_hidden=8", "--set", "pref_hidden=8",
        "--set", "batch_size=40", "--set", "pretrain_epochs=2", "--set", "unified_epochs=2",
        "--set", "kappa=10", "--set", "patience=20",
    ])
    assert code == 0
    return {"raw": raw, "prep": prep, "run": run, "ckpt": os.path.join(run, "best.ckpt")}


# sha256 of every file prepare writes for the planted world of
# test_prepared_bytes_are_pinned; the split holds no float arithmetic that
# BLAS does, so these hold on any machine
PREPARED_SHA256 = {
    "genres.txt": "78c127deb50f25ee908d522a9de40977145b9545bd3f98a87a3e0141d4de4b8e",
    "items.txt": "03e513797b3916ee8ce9e27404eb11c03adc6ce7374e1f5d14d812fbec962a70",
    "manifest.txt": "4422884be55747b62fa42a8419b2ed805545dfb7ea2245cd7de25437eac91643",
    "test.tsv": "5add0329f921e955c01978c6177f86ed3b902befc9b54a9d945e5edde5de03b5",
    "train.tsv": "3527faafa1db8f16ee8ef7efc6d52ce17bccae1daacd5772135add223f106581",
    "users.txt": "a54a5bea136b6e2ebf59775f6b540e2b52b39097b9451043311a0cdaf1b71530",
    "valid.tsv": "222d0567781a2c58ae37cde174263b97ac2f488bf5436eef534ef1ddfe4e06cc",
}


class TestPrepare:
    def test_prepared_bytes_are_pinned(self, tmp_path, capsys):
        # a seed names one split: the filter, the per-user draws and the
        # written bytes must not drift (the filter drops 23 of the 80 users)
        world = synthetic.planted_channel_data(n_users=80, n_items=50, n_channels=3, seed=5)
        ratings, genres = world.write(str(tmp_path / "raw"))
        out = tmp_path / "prep"
        assert cli.main(["prepare", "--ratings", ratings, "--genres", genres, "--out", str(out),
                         "--min-interactions", "20", "--seed", "3"]) == 0
        capsys.readouterr()
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()} == PREPARED_SHA256

    def test_id_with_a_tab_exits_1_before_any_output(self, tmp_path, capsys):
        # the prepared files separate ids by tabs, so train would not read
        # the split back
        ratings = tmp_path / "r.csv"
        ratings.write_text("u1,i1,5\nu\t3,i2,4\n")
        out = tmp_path / "prep"
        code = cli.main(["prepare", "--ratings", str(ratings), "--delimiter", ",", "--out", str(out),
                         "--min-interactions", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: id 'u\\t3' has a tab, a line break or surrounding whitespace\n"
        assert not out.exists()

    def test_non_finite_rating_threshold_exits_2(self, world, tmp_path, capsys):
        out = tmp_path / "prep"
        code = cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"), "--out", str(out),
                         "--rating-threshold", "nan"])
        assert code == 2
        assert "rating_threshold" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_negative_split_seed_exit_2(self, world, tmp_path, capsys):
        out = tmp_path / "prep"
        code = cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"), "--out", str(out),
                         "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_manifest_contents(self, world):
        manifest = open(os.path.join(world["prep"], "manifest.txt")).read()
        assert "min_interactions: 10" in manifest
        assert "fractions: 0.6/0.1/0.3" in manifest
        assert "seed: 3" in manifest

    def test_same_seed_identical_manifests(self, world, tmp_path):
        out2 = str(tmp_path / "prep2")
        code = cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"),
                         "--genres", os.path.join(world["raw"], "genres.txt"),
                         "--out", out2, "--seed", "3"])
        assert code == 0
        a = open(os.path.join(world["prep"], "manifest.txt")).read()
        b = open(os.path.join(out2, "manifest.txt")).read()
        assert a == b

    def test_missing_file_exit_2(self, capsys):
        code = cli.main(["prepare", "--ratings", "/nonexistent/r.csv", "--out", "/tmp/x"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_fractions_exit_2(self, world):
        code = cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"),
                         "--out", "/tmp/xx", "--fractions", "0.5,0.5"])
        assert code == 2

    @pytest.mark.parametrize("fractions", ["a,b,c", "0.6,,0.4", "nan,nan,nan"])
    def test_unreadable_fractions_exit_2(self, world, tmp_path, capsys, fractions):
        code = cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"),
                         "--out", str(tmp_path / "prep"), "--fractions", fractions])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_delimiter_exit_2(self, world, tmp_path, capsys):
        code = cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"),
                         "--out", str(tmp_path / "prep"), "--delimiter", ""])
        assert code == 2
        assert "delimiter" in capsys.readouterr().err

    def test_directory_as_ratings_file_exit_1(self, tmp_path, capsys):
        code = cli.main(["prepare", "--ratings", str(tmp_path), "--out", str(tmp_path / "prep")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}")

    def test_non_utf8_ratings_exit_1(self, tmp_path, capsys):
        ratings = tmp_path / "r.tsv"
        ratings.write_bytes(b"u1\ti1\t5\nu1\ti\xff\t4\n")
        code = cli.main(["prepare", "--ratings", str(ratings), "--out", str(tmp_path / "prep")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestTrainCli:
    def test_unknown_config_key_exit_2(self, world, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"k": 3, "bogus_key": 1}))
        code = cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"),
                         "--config", str(cfg)])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["k=abc", "batch_size=1.5", "skip_pretrain=1", "pref_zero_negatives=true",
                                         "mc_samples=2"])
    def test_mistyped_or_retired_value_exit_2(self, world, tmp_path, capsys, setting):
        code = cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"), "--set", setting])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting.split("=")[0] in err

    def test_directory_as_config_exit_2(self, world, tmp_path, capsys):
        code = cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"), "--config", str(tmp_path)])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, world, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"k": "\xff"}')
        code = cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_flags_override_config(self, world, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k": 3, "d": 4, "l": 2, "intent_hidden": 8, "item_hidden": 8, "pref_hidden": 8,
            "batch_size": 40, "pretrain_epochs": 1, "unified_epochs": 1, "kappa": 10,
            "seed": 1, "patience": 20,
        }))
        out = str(tmp_path / "run")
        code = cli.main(["train", "--data", world["prep"], "--out", out, "--config", str(cfg),
                         "--seed", "42", "--variant", "ddcf-s", "--quiet"])
        assert code == 0
        manifest = open(os.path.join(out, "run_manifest.txt")).read()
        assert "seed: 42" in manifest
        assert "variant: ddcf-s" in manifest

    def test_skip_pretrain_warning(self, world, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["train", "--data", world["prep"], "--out", out, "--quiet",
                         "--set", "k=3", "--set", "d=4", "--set", "intent_hidden=8",
                         "--set", "item_hidden=8", "--set", "pref_hidden=8",
                         "--set", "batch_size=40", "--set", "unified_epochs=1",
                         "--set", "pretrain_epochs=0", "--set", "patience=20"])
        assert code == 0
        assert "pretraining skipped" in open(os.path.join(out, "run_manifest.txt")).read()

    def test_zero_epoch_run_exits_2(self, world, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["train", "--data", world["prep"], "--out", str(out), "--quiet",
                         "--set", "pretrain_epochs=0", "--set", "unified_epochs=0"])
        assert code == 2
        assert "at least one epoch" in capsys.readouterr().err
        assert not (out / "best.ckpt").exists()

    def test_skip_pretrain_flag_is_gone(self, world, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"), "--skip-pretrain"])
        assert exc.value.code == 2
        assert "--skip-pretrain" in capsys.readouterr().err

    def test_resume_from_missing_checkpoint_exit_2(self, world, tmp_path, capsys):
        missing = str(tmp_path / "nope.ckpt")
        code = cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"), "--quiet",
                         "--resume", missing])
        assert code == 2
        assert capsys.readouterr().err == f"error: checkpoint not found: {missing}\n"

    def test_resume_with_changed_overrides_exit_2(self, world, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["train", "--data", world["prep"], "--out", str(out), "--quiet",
                         "--resume", os.path.join(world["run"], "last.ckpt"),
                         "--set", "unified_epochs=4", "--seed", "99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unified_epochs (4, checkpoint 2)" in err and "seed (99, checkpoint 4)" in err
        assert not out.exists()

    @pytest.mark.parametrize("restated", [[], ["--seed", "4", "--set", "k=3", "--variant", "ddcf"]])
    def test_resume_continues_exactly(self, world, tmp_path, restated):
        # flags equal to the checkpoint's config are accepted
        split = data.load_split(world["prep"])
        _, cfg = training.read_header(world["ckpt"])
        part = train_until(split, cfg, str(tmp_path / "part"), 3)
        out = tmp_path / "resumed"
        code = cli.main(["train", "--data", world["prep"], "--out", str(out), "--quiet",
                         "--resume", part, *restated])
        assert code == 0
        assert (out / "last.ckpt").read_bytes() == open(os.path.join(world["run"], "last.ckpt"), "rb").read()

    @pytest.mark.parametrize("key", ["data_dir", "out_dir"])
    def test_directory_keys_in_config_file_exit_2(self, world, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: world["prep"], "pretrain_epochs": 1, "unified_epochs": 1}))
        out = tmp_path / "o"
        code = cli.main(["train", "--data", world["prep"], "--out", str(out), "--config", str(cfg), "--quiet"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestReports:
    def test_eval_text_and_json(self, world, capsys):
        assert cli.main(["eval", "--checkpoint", world["ckpt"], "--data", world["prep"]]) == 0
        text = capsys.readouterr().out
        assert "config_hash:" in text and "precision" in text
        assert cli.main(["eval", "--checkpoint", world["ckpt"], "--data", world["prep"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["metrics"]) == {"precision", "recall", "map", "ndcg"}
        assert "config_hash" in payload and "seed" in payload

    def test_channels_list_and_user_view(self, world, capsys):
        assert cli.main(["channels", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "channel 0:" in out and "channel 2:" in out
        assert cli.main(["channels", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--user", "u0", "--top", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["user"] == "u0"
        assert len(payload["channels"]) == 3
        weights = [c["weight"] for c in payload["channels"]]
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_recommend_normalization_invariance(self, world, capsys):
        assert cli.main(["recommend", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--user", "u0", "--intent", "0:0.5,2:0.5", "--json"]) == 0
        a = json.loads(capsys.readouterr().out)
        assert cli.main(["recommend", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--user", "u0", "--intent", "0:5,2:5", "--json"]) == 0
        b = json.loads(capsys.readouterr().out)
        assert [r["item"] for r in a["items"]] == [r["item"] for r in b["items"]]

    def test_recommend_similar(self, world, capsys):
        assert cli.main(["recommend", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--similar-to", "i0", "--n", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["items"]) == 3
        assert all(r["item"] != "i0" for r in payload["items"])

    def test_cooccur_report(self, world, capsys):
        assert cli.main(["cooccur", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--top", "5", "--shuffles", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["rate"] <= 1.0
        assert 0.0 <= payload["baseline_rate"] <= 1.0

    @pytest.mark.parametrize("cutoffs", ["x", "5,", "2.5"])
    def test_bad_cutoffs_exit_2(self, world, capsys, cutoffs):
        code = cli.main(["eval", "--checkpoint", world["ckpt"], "--data", world["prep"], "--cutoffs", cutoffs])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --cutoffs")

    def test_unknown_user_exit_2(self, world, capsys):
        code = cli.main(["recommend", "--checkpoint", world["ckpt"], "--data", world["prep"],
                         "--user", "nobody"])
        assert code == 2
        assert "unknown user" in capsys.readouterr().err

    def test_checkpoint_data_mismatch(self, world, tmp_path, capsys):
        other_raw = str(tmp_path / "raw2")
        data = synthetic.planted_channel_data(n_users=40, n_items=30, n_channels=2, seed=9)
        ratings, genres = data.write(other_raw)
        prep2 = str(tmp_path / "prep2")
        assert cli.main(["prepare", "--ratings", ratings, "--out", prep2]) == 0
        code = cli.main(["eval", "--checkpoint", world["ckpt"], "--data", prep2])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cooccur", "--shuffles", "0"],
        ["cooccur", "--shuffles", "-1"],
        ["cooccur", "--shuffles", "10001"],
        ["recommend", "--similar-to", "i0", "--n", "-2"],
        ["recommend", "--user", "u0", "--intent", "0:nan"],
        ["recommend", "--user", "u0", "--intent", "0:inf,1:1"],
        ["cooccur", "--seed", "-1"],
        ["eval", "--cutoffs", "5,100000"],
    ])
    def test_out_of_range_values_exit_2(self, world, capsys, argv):
        code = cli.main([*argv, "--checkpoint", world["ckpt"], "--data", world["prep"]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("head, tail", [
        (["eval"], ["--out", os.devnull]),
        (["channels"], ["--out", os.devnull]),
        (["recommend", "--user", "u0"], ["--out", os.devnull]),
        (["cooccur"], ["--out", os.devnull]),
        (["--threads", "1", "eval"], []),
    ])
    def test_retired_flags_exit_2(self, world, capsys, head, tail):
        # reports go to stdout only; --threads follows the command
        with pytest.raises(SystemExit) as exc:
            cli.main([*head, "--checkpoint", world["ckpt"], "--data", world["prep"], *tail])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        if head[0] == "--threads":
            assert "error: --threads follows the command: intentcf eval --threads N" in err

    def test_determinism_same_command_same_output(self, world, capsys):
        cli.main(["recommend", "--checkpoint", world["ckpt"], "--data", world["prep"],
                  "--user", "u1", "--json"])
        a = capsys.readouterr().out
        cli.main(["recommend", "--checkpoint", world["ckpt"], "--data", world["prep"],
                  "--user", "u1", "--json"])
        b = capsys.readouterr().out
        assert a == b


class TestSplitParts:
    def test_only_eval_reads_the_scored_part(self, world, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(world["prep"], prep)
        with open(prep / "test.tsv", "a", encoding="utf-8") as fh:
            fh.write("u0\tno-such-item\t4.0\n")
        serve = ["--checkpoint", world["ckpt"], "--data"]
        for argv in (["recommend", "--user", "u1", "--json"], ["channels", "--user", "u1"],
                     ["cooccur", "--shuffles", "5"], ["eval", "--valid"]):
            assert cli.main([*argv, *serve, world["prep"]]) == 0
            intact = capsys.readouterr().out
            assert cli.main([*argv, *serve, str(prep)]) == 0, argv
            assert capsys.readouterr().out == intact
        assert cli.main(["eval", *serve, str(prep)]) == 1
        assert "test.tsv line" in capsys.readouterr().err

    def test_id_only_commands_read_no_rating_file(self, world, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(world["prep"], prep)
        with open(prep / "train.tsv", "a", encoding="utf-8") as fh:
            fh.write("u0\tno-such-item\t4.0\n")
        serve = ["--checkpoint", world["ckpt"], "--data"]
        for argv in (["recommend", "--similar-to", "i1", "--json"], ["cooccur", "--shuffles", "5"], ["channels"]):
            assert cli.main([*argv, *serve, world["prep"]]) == 0
            intact = capsys.readouterr().out
            assert cli.main([*argv, *serve, str(prep)]) == 0, argv
            assert capsys.readouterr().out == intact
        for argv in (["recommend", "--user", "u1"], ["channels", "--user", "u1"]):
            assert cli.main([*argv, *serve, str(prep)]) == 1
            assert "train.tsv line" in capsys.readouterr().err

    def test_id_only_commands_check_the_sizes(self, world, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(world["prep"], prep)
        with open(prep / "items.txt", "a", encoding="utf-8") as fh:
            fh.write("extra-item\n")
        for argv in (["recommend", "--similar-to", "i1"], ["cooccur"], ["channels"]):
            assert cli.main([*argv, "--checkpoint", world["ckpt"], "--data", str(prep)]) == 2
            assert "does not match" in capsys.readouterr().err

    def test_parts_must_include_train(self, world):
        with pytest.raises(ParameterError, match="train"):
            data.load_split(world["prep"], ("test",))
        split = data.load_split(world["prep"], ("train", "test"))
        assert split.valid is None and split.test.n_entries > 0


class TestArgumentRanges:
    def test_huge_counts_list_every_candidate(self, world, capsys):
        serve = ["--checkpoint", world["ckpt"], "--data", world["prep"], "--json"]
        for argv in (["recommend", "--user", "u1"], ["recommend", "--similar-to", "i1"], ["channels"]):
            assert cli.main([*argv, *serve, "--top" if argv[0] == "channels" else "--n", "100000"]) == 0
            small = capsys.readouterr().out
            assert cli.main([*argv, *serve, "--top" if argv[0] == "channels" else "--n", str(10**30)]) == 0
            assert capsys.readouterr().out.replace(str(10**30), "100000") == small


class TestInspect:
    def test_text_and_json_report_the_header(self, world, capsys):
        state = training.load_checkpoint(world["ckpt"])
        assert cli.main(["inspect", world["ckpt"]]) == 0
        text = capsys.readouterr().out
        assert f"config_hash: {state.cfg.config_hash()}" in text
        assert f"users: {state.n_users}  items: {state.n_items}  k: 3  d: 4  l: 2" in text
        assert f"epoch: {state.epoch}" in text and "psi.w0  " in text
        assert cli.main(["inspect", world["ckpt"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config_hash"] == state.cfg.config_hash()
        assert payload["counters"]["adam_t"] == state.opt.t
        assert [r["epoch"] for r in payload["history"]] == [r["epoch"] for r in state.history]
        assert {a["name"] for a in payload["arrays"]} >= {p.name for p in state.all_parameters()}

    def test_reads_no_array(self, world, capsys, monkeypatch):
        def no_arrays(*args, **kwargs):
            raise AssertionError("inspect read the arrays")

        monkeypatch.setattr(training, "build_state", no_arrays)
        monkeypatch.setattr(training, "load_checkpoint", no_arrays)
        assert cli.main(["inspect", world["ckpt"]]) == 0
        assert "arrays:" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [drop("counters"), put(-8, "payload_bytes"), put("abc", "config", "k")])
    def test_malformed_header_exits_1(self, world, tmp_path, capsys, edit):
        bad = tmp_path / "bad.ckpt"
        with open(world["ckpt"], "rb") as fh:
            bad.write_bytes(rewrite_header(fh.read(), edit))
        assert cli.main(["inspect", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "section invalid" in captured.err
        assert captured.out == ""

    def test_unreadable_or_missing_checkpoint(self, tmp_path, capsys):
        assert cli.main(["inspect", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read checkpoint")
        assert cli.main(["inspect", str(tmp_path / "none.ckpt")]) == 2
        assert "checkpoint not found" in capsys.readouterr().err


SERVING_COMMANDS = {
    "eval": ["eval"],
    "channels": ["channels"],
    "channels-user": ["channels", "--user", "u0"],
    "recommend": ["recommend", "--user", "u0"],
    "recommend-similar": ["recommend", "--similar-to", "i0"],
    "cooccur": ["cooccur", "--shuffles", "5"],
}


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["item.V", "psi.w0", "beta.logits"])
    def test_every_serving_command_exits_1(self, world, tmp_path, capsys, name, value):
        state = training.load_checkpoint(world["ckpt"])
        training.model_arrays(state)[name][..., 1] = value
        bad = str(tmp_path / "bad.ckpt")
        training.save_checkpoint(bad, state)
        for command, argv in SERVING_COMMANDS.items():
            assert cli.main([*argv, "--checkpoint", bad, "--data", world["prep"]]) == 1, command
            captured = capsys.readouterr()
            assert captured.err == f"error: checkpoint {bad}: array {name!r} holds a non-finite value\n", command
            assert captured.out == "", command


USAGE_ERRORS = {
    "train, missing --data": (["train", "--data", "{tmp}/none", "--out", "{tmp}/o", "--quiet"],
                              "prepared data directory not found: {tmp}/none"),
    **{f"{argv[0]}, missing --data": ([*argv, "--checkpoint", "{ckpt}", "--data", "{tmp}/none"],
                                      "prepared data directory not found: {tmp}/none")
       for argv in (["eval"], ["channels"], ["recommend", "--user", "u0"], ["cooccur"])},
    "missing --config": (["train", "--data", "{prep}", "--out", "{tmp}/o", "--config", "{tmp}/none.json"],
                         "config file not found: {tmp}/none.json"),
    "--config not JSON": (["train", "--data", "{prep}", "--out", "{tmp}/o", "--config", "{tmp}/brace.json"],
                          "config file is not valid JSON: Expecting property name enclosed in double quotes: "
                          "line 1 column 2 (char 1)"),
    "--config not an object": (["train", "--data", "{prep}", "--out", "{tmp}/o", "--config", "{tmp}/list.json"],
                               "config file must hold a JSON object"),
    "--set without =": (["train", "--data", "{prep}", "--out", "{tmp}/o", "--set", "k"],
                        "--set expects KEY=VALUE, got 'k'"),
    "--intent without :": (["recommend", "--checkpoint", "{ckpt}", "--data", "{prep}", "--user", "u0",
                            "--intent", "0"], "--intent expects C:W pairs, got '0'"),
    "--intent repeated channel": (["recommend", "--checkpoint", "{ckpt}", "--data", "{prep}", "--user", "u0",
                                   "--intent", "0:1,2:1,0:2"], "--intent names channel 0 twice"),
    "--intent channel not a number": (["recommend", "--checkpoint", "{ckpt}", "--data", "{prep}", "--user", "u0",
                                       "--intent", "a:1"], "bad intent pair 'a:1'"),
    "recommend without --user": (["recommend", "--checkpoint", "{ckpt}", "--data", "{prep}"],
                                 "recommend needs --user (or --similar-to ITEM)"),
    "prepare, missing genres": (["prepare", "--ratings", "{raw}/ratings.tsv", "--genres", "{tmp}/none.txt",
                                 "--out", "{tmp}/p"], "genre file not found: {tmp}/none.txt"),
    "cooccur, missing genres": (["cooccur", "--checkpoint", "{ckpt}", "--data", "{prep}", "--genres",
                                 "{tmp}/none.txt"], "genre file not found: {tmp}/none.txt (pass --genres)"),
    "eval, repeated cutoff": (["eval", "--checkpoint", "{ckpt}", "--data", "{prep}", "--cutoffs", "5,5"],
                              "cutoffs must be distinct integers from 1 to the 50 items, got (5, 5)"),
    "cooccur --top beyond the bound": (["cooccur", "--checkpoint", "{ckpt}", "--data", "{prep}", "--top", "1001"],
                                       "--top must be at most 1000, got 1001"),
    **{f"train --set {setting}": (["train", "--data", "{prep}", "--out", "{tmp}/o", "--set", setting], message)
       for setting, message in [
           ("kappa=0", "kappa must be >= 1, got 0"),
           ("alpha_k=0", "alpha_k must be positive, got 0"),
           ("patience=-1", "patience must be >= 0, got -1"),
           ("batch_size=0", "batch_size must be >= 1, got 0"),
           ("d=0", "all layer widths must be >= 1"),
           ("item_hidden=0", "all layer widths must be >= 1"),
           ("pretrain_epochs=-1", "epoch counts must be >= 0"),
           ("unified_epochs=-2", "epoch counts must be >= 0"),
           ("node_dropout=1.5", "node_dropout must lie in [0, 1], got 1.5"),
           ("edge_dropout=-0.1", "edge_dropout must lie in [0, 1], got -0.1"),
       ]},
}


class TestUsageErrors:
    @pytest.mark.parametrize("case", USAGE_ERRORS)
    def test_exit_2_with_one_error_line(self, world, tmp_path, capsys, case):
        (tmp_path / "brace.json").write_text("{")
        (tmp_path / "list.json").write_text("[1]")
        paths = {"tmp": str(tmp_path), "prep": world["prep"], "ckpt": world["ckpt"], "raw": world["raw"]}
        argv, message = USAGE_ERRORS[case]
        code = cli.main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message.format(**paths)}\n"
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", ["intent_hidden=1000000000000", "k=1000000000000",
                                         f"intent_hidden={10**30}", f"d={10**30}"])
    def test_a_model_beyond_memory_exits_2(self, world, tmp_path, capsys, setting):
        # the first array of a width of 10**12 needs more than 2**47 bytes,
        # which no x86-64 process can map, so nothing is allocated; a width of
        # 10**30 is beyond the largest dimension numpy takes
        code = cli.main(["train", "--data", world["prep"], "--out", str(tmp_path / "o"), "--quiet", "--set", setting])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the model over ") and f"{setting}, " in captured.err
        assert not (tmp_path / "o").exists()

    def test_train_without_validation_positives_exits_2_before_any_epoch(self, world, tmp_path, capsys):
        # ratings run from 1 to 5, so the threshold 6 leaves no positive
        prep = str(tmp_path / "prep")
        assert cli.main(["prepare", "--ratings", os.path.join(world["raw"], "ratings.tsv"), "--out", prep,
                         "--rating-threshold", "6"]) == 0
        capsys.readouterr()
        small = ["--quiet", "--set", "k=3", "--set", "d=4", "--set", "intent_hidden=8", "--set", "item_hidden=8",
                 "--set", "pref_hidden=8", "--set", "batch_size=40", "--set", "pretrain_epochs=2"]
        out = tmp_path / "run"
        assert cli.main(["train", "--data", prep, "--out", str(out), *small, "--set", "unified_epochs=2"]) == 2
        assert capsys.readouterr().err == ("error: the validation split holds no rating at or above the rating "
                                           "threshold 6.0 for a user with training items, so no unified epoch "
                                           "can be validated\n")
        assert not out.exists()
        # a pretrain-only run trains, and eval then finds no held-out positive
        assert cli.main(["train", "--data", prep, "--out", str(out), *small, "--set", "unified_epochs=0"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(out / "best.ckpt"), "--data", prep]) == 2
        assert capsys.readouterr().err == "error: no users with positive held-out items to evaluate\n"


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["eval", "--json"], ["channels", "--json"]])
    def test_exits_1_without_a_traceback(self, world, argv):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen([sys.executable, "-m", "intentcf.cli", *argv, "--checkpoint", world["ckpt"],
                               "--data", world["prep"]], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            proc.stdout.close()  # before the command has imported numpy, let alone written
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 1, err
        assert "Traceback" not in err and "BrokenPipeError" not in err


PREPARED_FILES = ("train.tsv", "valid.tsv", "test.tsv", "users.txt", "items.txt")
MUTATIONS = ("duplicate", "rating", "unknown_id", "missing_field", "truncate")
BAD_RATINGS = ("abc", "nan", "NaN", "inf", "-inf", "0", "-3", "")


def mutate(lines: list[str], mutation: str, k: int, draw) -> None:
    """Apply one mutation to line k of a prepared file (ids files hold one
    field per line, so a rating mutation there replaces the id)."""
    fields = lines[k].split("\t")
    if mutation == "duplicate":
        lines.insert(draw(st.integers(k + 1, len(lines))), lines[k])
    elif mutation == "rating":
        fields[-1] = draw(st.sampled_from(BAD_RATINGS))
        lines[k] = "\t".join(fields)
    elif mutation == "unknown_id":
        fields[draw(st.integers(0, min(1, len(fields) - 1)))] = "no-such-id"
        lines[k] = "\t".join(fields)
    elif mutation == "missing_field":
        del fields[draw(st.integers(0, len(fields) - 1))]
        lines[k] = "\t".join(fields)
    else:
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k]) - 1))]


class TestPreparedDirectoryFuzz:
    @given(st.sampled_from(PREPARED_FILES), st.sampled_from(MUTATIONS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_only_typed_errors_escape(self, world, fname, mutation, data_draw):
        with tempfile.TemporaryDirectory() as tmp:
            prep = os.path.join(tmp, "prep")
            shutil.copytree(world["prep"], prep)
            path = os.path.join(prep, fname)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            mutate(lines, mutation, data_draw.draw(st.integers(0, len(lines) - 1)), data_draw.draw)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            try:
                data.load_split(prep, ("train", "test"))  # the parts eval reads
                loaded = True
            except IntentcfError:
                loaded = False
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["eval", "--checkpoint", world["ckpt"], "--data", prep])
        if loaded:
            assert code == 0, err.getvalue()
        else:
            assert code in (1, 2)
            assert err.getvalue().startswith("error: ")


RATINGS_MUTATIONS = ("flip", "non_utf8", "truncate", "rating", "missing_field")


class TestRatingsFileFuzz:
    @given(st.sampled_from(RATINGS_MUTATIONS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_only_typed_errors_escape(self, world, mutation, data_draw):
        draw = data_draw.draw
        with open(os.path.join(world["raw"], "ratings.tsv"), "rb") as fh:
            blob = bytearray(fh.read())
        if mutation == "flip":
            for _ in range(draw(st.integers(1, 3))):
                blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        elif mutation == "non_utf8":
            at = draw(st.integers(0, len(blob)))
            blob[at:at] = draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
        elif mutation == "truncate":
            blob = blob[: draw(st.integers(0, len(blob) - 1))]
        else:
            lines = bytes(blob).split(b"\n")
            k = draw(st.integers(0, len(lines) - 2))
            fields = lines[k].split(b"\t")
            if mutation == "rating":
                fields[2] = draw(st.sampled_from([b"nan", b"NaN", b"", b"-3", b"0", b"inf", b"abc"]))
            else:
                del fields[draw(st.integers(0, len(fields) - 1))]
            lines[k] = b"\t".join(fields)
            blob = bytearray(b"\n".join(lines))
        with tempfile.TemporaryDirectory() as tmp:
            ratings = os.path.join(tmp, "ratings.tsv")
            with open(ratings, "wb") as fh:
                fh.write(blob)
            try:
                data.load_ratings(ratings)
                loaded = True
            except IntentcfError:
                loaded = False
            err = io.StringIO()
            prep = os.path.join(tmp, "prep")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["prepare", "--ratings", ratings, "--out", prep])
            assert code in (0, 1, 2)
            if code == 0:
                data.load_split(prep)  # a prepared directory loads back
            else:
                assert err.getvalue().startswith("error: ")
        if not loaded:
            assert code != 0
