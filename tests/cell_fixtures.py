"""Dense test fixtures as the Cells and batches the loss layer takes, rating
matrices from per-user rows, and a training run cut at an epoch boundary."""

import os

import numpy as np
import pytest

from intentcf import training
from intentcf.data import BinaryMatrix, Cells, ItemBatch, RatingMatrix


def cells(a) -> Cells:
    """The nonzero cells of a dense matrix, ordered by row, then column."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(a)
    return Cells(rows, cols, a[rows, cols], a.shape)


def binary(a) -> BinaryMatrix:
    """The cells of a dense 0/1 matrix that hold 1, ordered by row, then
    column."""
    rows, cols = np.nonzero(np.asarray(a))
    return BinaryMatrix(rows, cols, np.shape(a))


def rating_matrix(user_ids, item_ids, rows) -> RatingMatrix:
    """The RatingMatrix whose user u rates the increasing items rows[u][0]
    with the ratings rows[u][1]."""
    items = [np.asarray(idx, dtype=np.intp) for idx, _ in rows]
    users = np.repeat(np.arange(len(items)), [idx.size for idx in items])
    values = np.concatenate([np.asarray(vals, dtype=np.float64) for _, vals in rows])
    shape = (len(user_ids), len(item_ids))
    return RatingMatrix(list(user_ids), list(item_ids), Cells(users, np.concatenate(items), values, shape))


def full_batch(xb, rb) -> ItemBatch:
    """The batch of dense binary rows xb and rating rows rb over all M items."""
    return ItemBatch(np.arange(np.shape(rb)[1]), cells(rb), binary(xb))


class Interrupted(Exception):
    pass


def train_until(data, cfg, out_dir: str, epochs: int) -> str:
    """training.train cut after ``epochs`` epochs, as an interrupted process
    leaves it: train calls ``log`` right after each epoch's last.ckpt is
    written, and this hook raises there. Returns that last.ckpt's path."""

    def log(record):
        if record["epoch"] + 1 >= epochs:
            raise Interrupted

    with pytest.raises(Interrupted):
        training.train(data, cfg, out_dir, log=log)
    return os.path.join(out_dir, "last.ckpt")
