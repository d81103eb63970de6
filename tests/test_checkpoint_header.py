"""A well-framed checkpoint whose JSON header lacks a field or holds a field
of the wrong type is rejected with a CheckpointError naming the section,
and the CLI turns it into exit code 1 with an ``error:`` line. A loaded
checkpoint is a copy-on-write mapping of its file."""

import errno
import json
import mmap
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from intentcf import cli
from intentcf import data as dt
from intentcf import synthetic
from intentcf import training as tr
from intentcf.errors import CheckpointError
from intentcf.evaluation import evaluate


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt_header")
    sd = synthetic.planted_channel_data(n_users=40, n_items=30, n_channels=2, seed=4)
    split = dt.split_per_user(dt.filter_min_interactions(sd.rating_matrix(), 10), seed=1)
    dt.save_split(split, str(root / "prep"))
    cfg = tr.TrainConfig(k=2, d=2, l=1, intent_hidden=4, item_hidden=4, pref_hidden=4, batch_size=20,
                         pretrain_epochs=1, unified_epochs=1, seed=3)
    res = tr.train(split, cfg, str(root / "run"))
    return root, open(res.last_checkpoint, "rb").read()


def rewrite_header(blob: bytes, edit) -> bytes:
    """The same checkpoint with edit(header) applied to its JSON header."""
    hlen = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16 : 16 + hlen])
    header = edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen :]


def drop(*path):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return header
    return edit


def put(value, *path):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return edit


def on_array(name, change):
    """An edit applying change(entry) to the header entry of array ``name``."""
    def edit(header):
        change(next(entry for entry in header["arrays"] if entry["name"] == name))
        return header
    return edit


# edits that keep the payload valid but give the file an array index other
# than the one its loaded state saves, each with the array the error names
ARRAY_INDEX_CASES = {
    "moment shape reversed": (on_array("adam.m.psi.w0", lambda entry: entry["shape"].reverse()),
                              "'adam.m.psi.w0' has shape"),
    "half a moment pair": (on_array("adam.v.psi.w0", lambda entry: entry.update(name="adam.v.nowhere")),
                           "'adam.v.psi.w0' missing"),
    "an array renamed to junk": (on_array("adam.m.psi.w0", lambda entry: entry.update(name="junk")),
                                 "'junk' is not one the loaded state saves"),
}

COUNTERS = ("epoch", "global_batch", "adam_t", "best_val", "best_epoch", "bad_epochs", "tau", "eta")

CASES = [
    ("payload_bytes", drop("payload_bytes")),
    ("payload_bytes", put("12", "payload_bytes")),
    ("payload_bytes", put(-8, "payload_bytes")),
    ("counters", drop("counters")),
    ("counters", put([1, 2], "counters")),
    *[("counters", drop("counters", name)) for name in COUNTERS],
    ("counters", put("3", "counters", "epoch")),
    ("counters", put(True, "counters", "adam_t")),
    ("counters", put(None, "counters", "tau")),
    ("counters", put("0.5", "counters", "best_val")),
    ("arrays", drop("arrays")),
    ("arrays", put({"a": 1}, "arrays")),
    ("arrays", drop("arrays", 0, "name")),
    ("arrays", drop("arrays", 0, "shape")),
    ("arrays", put([-1, 2], "arrays", 0, "shape")),
    ("arrays", put("2x2", "arrays", 0, "shape")),
    ("arrays", drop("arrays", 0, "offset")),
    ("arrays", put(-8, "arrays", 0, "offset")),
    ("arrays", put(1.5, "arrays", 0, "offset")),
    ("arrays", put(10**9, "arrays", 0, "offset")),
    ("n", drop("n")),
    ("n", put("40", "n")),
    ("m", drop("m")),
    ("m", put(0, "m")),
    ("config", drop("config")),
    ("config", put(7, "config")),
    ("header", lambda header: [header]),
    ("history", put("x", "history")),
    ("history", put([1, 2], "history")),
    ("arrays", lambda header: put(header["arrays"][0]["name"], "arrays", 1, "name")(header)),
    ("arrays", lambda header: put(header["arrays"][0]["offset"], "arrays", 1, "offset")(header)),
    ("arrays", put([1], "arrays", 0, "shape")),
    *[("arrays", edit) for edit, _ in ARRAY_INDEX_CASES.values()],
]


@pytest.mark.parametrize("section,edit", CASES)
def test_bad_header_names_its_section(run, tmp_path, section, edit):
    _, blob = run
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(blob, edit))
    with pytest.raises(CheckpointError, match=f"^{section} section invalid"):
        tr.load_checkpoint(str(bad))


@pytest.mark.parametrize("case", ARRAY_INDEX_CASES)
def test_cli_resume_from_a_bad_array_index_exits_1_naming_the_array(run, tmp_path, capsys, case):
    root, blob = run
    edit, named = ARRAY_INDEX_CASES[case]

    def one_more_epoch(header):
        header["config"]["unified_epochs"] += 1
        return edit(header)

    # the run resumes with an epoch left, beside its best.ckpt
    bad = tmp_path / "last.ckpt"
    bad.write_bytes(rewrite_header(blob, one_more_epoch))
    (tmp_path / "best.ckpt").write_bytes((root / "run" / "best.ckpt").read_bytes())
    code = cli.main(["train", "--data", str(root / "prep"), "--out", str(tmp_path / "out"), "--resume", str(bad),
                     "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: arrays section invalid: array {named}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_untouched_header_still_loads(run, tmp_path):
    _, blob = run
    same = tmp_path / "same.ckpt"
    same.write_bytes(rewrite_header(blob, lambda header: header))
    state = tr.load_checkpoint(str(same))
    assert np.isfinite(state.tau)


def test_header_without_history_loads_an_empty_history(run, tmp_path):
    _, blob = run
    same = tmp_path / "same.ckpt"
    same.write_bytes(blob)
    assert [r["epoch"] for r in tr.load_checkpoint(str(same)).history] == [0, 1]
    old = tmp_path / "old.ckpt"
    old.write_bytes(rewrite_header(blob, drop("history")))
    assert tr.load_checkpoint(str(old)).history == []


# the seven config keys retired from TrainConfig, at the values every run
# used while they existed
RETIRED = {"prob_floor": 1e-10, "include_positive_pair": False, "detach_tailored": False,
           "pref_zero_negatives": False, "pref_target_raw": False, "skip_pretrain": False, "mc_samples": 1}


def with_config(**extra):
    return lambda header: put({**header["config"], **extra}, "config")(header)


def test_header_with_retired_keys_loads_and_resaves_in_the_new_header(run, tmp_path):
    root, blob = run
    old, current = tmp_path / "old.ckpt", tmp_path / "current.ckpt"
    old.write_bytes(rewrite_header(blob, with_config(**RETIRED)))
    current.write_bytes(blob)
    split = dt.load_split(str(root / "prep"))

    def report(path):
        return evaluate(tr.scorer_from_state(tr.load_checkpoint(str(path))), split).as_dict()

    assert report(old) == report(current)
    resaved = tmp_path / "resaved.ckpt"
    tr.save_checkpoint(str(resaved), tr.load_checkpoint(str(old)))
    assert resaved.read_bytes() == blob


def test_retired_key_at_another_value_names_the_key(run, tmp_path):
    _, blob = run
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(blob, with_config(**{**RETIRED, "pref_zero_negatives": True})))
    with pytest.raises(CheckpointError, match="^config section invalid: config key 'pref_zero_negatives' is retired"):
        tr.load_checkpoint(str(bad))


@given(st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_truncated_or_flipped_checkpoint_raises_only_checkpoint_error(run, tmp_path, data):
    _, blob = run
    damaged = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        damaged = damaged[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            damaged[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(bytes(damaged))
    try:
        tr.load_checkpoint(str(path))
    except CheckpointError:
        pass


@pytest.mark.parametrize("edit", [drop("payload_bytes"), drop("counters")])
def test_cli_eval_exits_1_with_an_error_line(run, tmp_path, capsys, edit):
    root, blob = run
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(blob, edit))
    code = cli.main(["eval", "--checkpoint", str(bad), "--data", str(root / "prep")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "section invalid" in err
    assert "Traceback" not in err


def payload_start(blob: bytes) -> int:
    return 16 + struct.unpack("<Q", blob[8:16])[0]


def unpadded(blob: bytes, misalign: int) -> bytes:
    """The checkpoint with an unpadded header, as written before headers were
    padded, whose payload starts ``misalign`` bytes past an 8-byte boundary."""
    for n in range(8):
        out = rewrite_header(blob, put("x" * n, "rng", "scheme"))
        if payload_start(out) % 8 == misalign:
            return out
    raise AssertionError("unreachable: eight lengths cover every residue")


def test_payload_starts_on_a_64_byte_boundary(run):
    _, blob = run
    start = payload_start(blob)
    assert start % 64 == 0
    assert blob[16:start].rstrip(b" ").endswith(b"}")


@pytest.mark.parametrize("layout", ["padded", "unpadded"])
def test_loaded_arrays_are_the_payload_bits_aligned_and_writable(run, tmp_path, layout):
    _, blob = run
    if layout == "unpadded":
        blob = unpadded(blob, 4)
    path = tmp_path / "c.ckpt"
    path.write_bytes(blob)
    header, _ = tr.read_header(str(path))
    arrays = tr._collect_arrays(tr.load_checkpoint(str(path)))
    assert sorted(arrays) == sorted(entry["name"] for entry in header["arrays"])
    for entry in header["arrays"]:
        a = arrays[entry["name"]]
        count = int(np.prod(entry["shape"]))
        expected = np.frombuffer(blob, "<f8", count, payload_start(blob) + entry["offset"])
        assert a.shape == tuple(entry["shape"]) and a.dtype == np.float64
        assert a.tobytes() == expected.tobytes(), entry["name"]
        assert a.flags.aligned and a.flags.c_contiguous and a.flags.writeable, entry["name"]


def test_writing_into_a_loaded_state_leaves_the_file_unchanged(run, tmp_path):
    _, blob = run
    path = tmp_path / "c.ckpt"
    path.write_bytes(blob)
    arrays = tr._collect_arrays(tr.load_checkpoint(str(path)))
    for a in arrays.values():
        a[...] = 7.0
    assert all(np.all(a == 7.0) for a in arrays.values())
    assert path.read_bytes() == blob


def test_a_state_loaded_before_its_file_is_replaced_keeps_its_values(run, tmp_path):
    _, blob = run
    path = tmp_path / "c.ckpt"
    path.write_bytes(blob)
    old = tr.load_checkpoint(str(path))
    before = {name: a.copy() for name, a in tr._collect_arrays(old).items()}
    new = tr.load_checkpoint(str(path))
    for a in tr._collect_arrays(new).values():
        a += 1.0
    tr.save_checkpoint(str(path), new)
    after = tr._collect_arrays(old)
    assert all(np.array_equal(after[name], a) for name, a in before.items())
    reloaded = tr._collect_arrays(tr.load_checkpoint(str(path)))
    assert all(np.array_equal(reloaded[name], a + 1.0) for name, a in before.items())


def test_a_file_that_cannot_be_mapped_raises_checkpoint_error(run, tmp_path, capsys, monkeypatch):
    root, blob = run
    path = tmp_path / "c.ckpt"
    path.write_bytes(blob)

    def no_mapping(*args, **kwargs):
        raise OSError(errno.ENODEV, "No such device")

    monkeypatch.setattr(mmap, "mmap", no_mapping)
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'cannot map checkpoint {path}: No such device')}$"):
        tr.load_checkpoint(str(path))
    code = cli.main(["eval", "--checkpoint", str(path), "--data", str(root / "prep")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot map checkpoint {path}") and "Traceback" not in err
