"""Hand-computed cases for the benchmark's numpy reference.

Run with ``python3 -m pytest benchmarks/test_reference.py``.
"""

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def write_checkpoint(path, arrays, header_extra):
    """Frame arrays the way the checkpoint format does: magic, version,
    header length, JSON header, little-endian float64 arrays, footer."""
    spec, offset = [], 0
    for name in sorted(arrays):
        spec.append({"name": name, "shape": list(arrays[name].shape), "offset": offset})
        offset += arrays[name].size * 8
    header = {**header_extra, "arrays": spec, "payload_bytes": offset}
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(b"ICF1" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob)
        for entry in spec:
            fh.write(np.asarray(arrays[entry["name"]], dtype="<f8").tobytes())
        fh.write(b"ICFE")


@pytest.fixture
def tiny_checkpoint(tmp_path):
    """M=2 items, K=2 channels, d=1, L=1, hidden width 1.

    psi ignores its input and emits mu = (ln 3, 0), so gamma = (3/4, 1/4) and
    channel 0 is picked with weight 1. nu emits equal logits, so phi = 1/2
    everywhere. theta reads the first coordinate of the tailored row:
    R = (4, 3) gives phi[0] * R = (2, 1.5), normalized (0.8, 0.6), so the
    mean is tanh(0.8). V = [[1, -1]] gives scores (tanh 0.8, -tanh 0.8).
    """
    z = np.zeros
    arrays = {
        "psi.w0": z((2, 1)), "psi.b0": z(1), "psi.w1": z((1, 4)), "psi.b1": np.array([math.log(3), 0, 0, 0]),
        "nu.w0": z((1, 1)), "nu.b0": z(1), "nu.w1": z((1, 2)), "nu.b1": z(2),
        "theta.w0": np.array([[1.0], [0.0]]), "theta.b0": z(1), "theta.w1": np.array([[1.0, 0.0]]), "theta.b1": z(2),
        "item.V": np.array([[1.0, -1.0]]), "beta.logits": np.array([[0.0, math.log(3)], [0.0, 0.0]]),
    }
    path = tmp_path / "tiny.ckpt"
    write_checkpoint(path, arrays, {"k": 2, "d": 1, "l": 1, "counters": {"tau": 1.0},
                                    "config": {"intent_min_rating": None}})
    return path


def test_checkpoint_arrays_round_trip(tiny_checkpoint):
    header, arrays = ref.read_checkpoint(tiny_checkpoint)
    assert header["k"] == 2
    assert arrays["item.V"].tolist() == [[1.0, -1.0]]


def test_model_scores_by_hand(tiny_checkpoint):
    model = ref.Model(tiny_checkpoint)
    ratings = np.array([[4.0, 3.0]])
    assert np.allclose(model.gamma(ratings), [[0.75, 0.25]])
    assert np.allclose(model.phi, 0.5)
    assert np.allclose(model.beta, [[0.5, 0.75], [0.5, 0.25]])
    assert np.allclose(model.tailored_rows(ratings, np.array([[0]])), [[[0.8, 0.6]]])
    t = math.tanh(0.8)
    assert np.allclose(model.theta_means(ratings, np.array([[0]])), [[[t]]])
    assert np.allclose(model.blended_scores(ratings), [[t, -t]])
    assert np.allclose(model.channel_scores(ratings, 1), [[t, -t]])
    assert np.allclose(model.override_scores(ratings, {0: 1.0, 1: 3.0}), [[t, -t]])


def test_top_channels_break_ties_toward_lower_index():
    idx, w = ref.top_channels(np.array([[0.2, 0.4, 0.4], [0.5, 0.1, 0.4]]), 2)
    assert idx.tolist() == [[1, 2], [0, 2]]
    assert np.allclose(w, [[0.5, 0.5], [5 / 9, 4 / 9]])


def test_top_n_excludes_and_breaks_ties_by_index():
    assert ref.top_n(np.array([1.0, 3.0, 3.0, 2.0]), [1], 2).tolist() == [2, 3]
    assert ref.top_n(np.array([1.0, 1.0, 1.0]), [], 5).tolist() == [0, 1, 2]


def test_ranking_metrics_by_hand():
    # one hit at rank 2 out of positives {1, 9}
    p, r, ap, ndcg = ref.ranking_metrics([5, 1, 7], [1, 9], 3)
    assert p == pytest.approx(1 / 3)
    assert r == pytest.approx(1 / 2)
    assert ap == pytest.approx((1 / 2) / 2)
    assert ndcg == pytest.approx((1 / math.log2(3)) / (1 + 1 / math.log2(3)))
    # perfect ranking of a single positive
    assert ref.ranking_metrics([4, 0], [4], 2) == (0.5, 1.0, 1.0, 1.0)


def test_cosine_ranking_by_hand():
    phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    sims = ref.cosine_similarities(phi, 0)
    assert ref.top_n(sims, [0], 2).tolist() == [2, 1]
    assert np.allclose(sims, [1.0, 0.0, 1 / math.sqrt(2)])


def test_cooccurrence_pairs_by_hand():
    channel_item = np.array([[0.5], [0.3], [0.2], [0.0]])
    genres = [{"a"}, {"a", "b"}, {"c"}, {"a"}]
    assert ref.cooccurrence(channel_item, genres, 3) == (1, 3)


def test_split_sizes_follow_the_floor_rule():
    assert ref.split_sizes(10) == (6, 1, 3)
    assert ref.split_sizes(19) == (13, 1, 5)
    assert ref.split_sizes(3) == (3, 0, 0)
