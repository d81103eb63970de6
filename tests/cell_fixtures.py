"""Dense test fixtures as the Cells and batches the loss layer takes."""

import numpy as np

from intentcf.data import Cells, ItemBatch


def cells(a) -> Cells:
    """The nonzero cells of a dense matrix, ordered by row, then column."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(a)
    return Cells(rows, cols, a[rows, cols], a.shape)


def full_batch(xb, rb) -> ItemBatch:
    """The batch of dense binary rows xb and rating rows rb over all M items."""
    return ItemBatch(np.arange(np.shape(rb)[1]), cells(rb), cells(xb))
