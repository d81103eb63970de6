"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array; every operation records its parents and a
closure computing the vector-Jacobian product, so the recorded graph is the
computation tape. ``backward`` replays the tape in reverse topological
order, visiting each node exactly once, and returns the leaves' gradients.
Only the primitives the model needs are provided; everything is 64-bit.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward."""

    __slots__ = ("data", "name", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
        self.requires_grad = requires_grad and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str) -> Tensor:
    """A named leaf that backward returns a gradient for."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """a @ b with a of rank 1 or 2 and b of rank 2."""
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim != 2 or a.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports (n,)|(n,m) @ (m,p); got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ b.data.T if a.requires_grad else None
        if not b.requires_grad:
            return ga, None
        return ga, (np.outer(a.data, g) if a.data.ndim == 1 else a.data.T @ g)

    return _make(out, (a, b), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    return _make(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    orig = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def clip_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = as_tensor(a)
    mask = a.data > floor
    return _make(np.maximum(a.data, floor), (a,), lambda g: (g * mask,))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _make(s, (a,), vjp)


def _scatter_add(shape: tuple[int, ...], flat_idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` plus g summed at the linear indices flat_idx (one
    per entry of g), repeats accumulating in order."""
    return np.bincount(flat_idx, weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


def sum_rows_by(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """(n, width) array whose row r sums the rows of ``values`` (rows,
    width) whose ``index`` is r, in order."""
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return _scatter_add((n, width), flat, values)


def gather_rows(a, idx) -> Tensor:
    """a[idx] for a 2-d tensor and an integer index vector."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    n_rows = a.data.shape[0]
    return _make(a.data[idx], (a,), lambda g: (sum_rows_by(g, idx, n_rows),))


def gather_cells(a, rows, cols) -> Tensor:
    """a[rows, cols] for a 2-d tensor: the values at a list of cells (a cell
    may repeat; its gradients add up)."""
    a = as_tensor(a)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    return _make(a.data[rows, cols], (a,),
                 lambda g: (_scatter_add(a.data.shape, rows * a.data.shape[1] + cols, g),))


def scatter_cells(values, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Zeros of ``shape`` holding ``values`` at the distinct cells (rows,
    cols): the adjoint of gather_cells at those cells."""
    values = as_tensor(values)
    out = np.zeros(shape)
    out[rows, cols] = values.data
    return _make(out, (values,), lambda g: (g[rows, cols],))


def l2norm_cells(values, rows, n_rows: int) -> Tensor:
    """l2norm_rows for a matrix given by its cells: each value divided by
    the L2 norm of its row's values; a row whose values are all zero stays
    zero."""
    values = as_tensor(values)
    rows = np.asarray(rows, dtype=np.intp)
    v = values.data
    norms = np.sqrt(np.bincount(rows, weights=v * v, minlength=n_rows))
    safe = norms.copy()
    safe[norms == 0.0] = 1.0
    safe = safe[rows]
    out = v / safe

    def vjp(g):
        dot = np.bincount(rows, weights=g * out, minlength=n_rows)[rows]
        return (np.where(norms[rows] > 0.0, (g - out * dot) / safe, 0.0),)

    return _make(out, (values,), vjp)


def matmul_cells(a, b, rows, cols) -> Tensor:
    """(a @ b)[rows, cols] for a (n, k) and b (k, p), without forming the
    product: one k-term dot per cell."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul_cells needs (n,k) and (k,p); got {a.data.shape} and {b.data.shape}")
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    a_rows = a.data[rows]  # (cells, k)
    b_cols = b.data.T[cols]  # (cells, k)
    out = np.einsum("ij,ij->i", a_rows, b_cols)

    def vjp(g):
        g = g[:, None]
        return (sum_rows_by(g * b_cols, rows, a.data.shape[0]) if a.requires_grad else None,
                sum_rows_by(g * a_rows, cols, b.data.shape[1]).T if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def take_along_last(a, idx) -> Tensor:
    """Per-row gather: out[i, j] = a[i, idx[i, j]] for a 2-d tensor."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.data.shape[0])[:, None]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (np.broadcast_to(rows, idx.shape), idx), g)
        return (ga,)

    return _make(a.data[rows, idx], (a,), vjp)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[..., start:stop] = g
        return (ga,)

    return _make(a.data[..., start:stop].copy(), (a,), vjp)


def l2norm_rows(a) -> Tensor:
    """L2-normalize along the last axis; all-zero rows stay zero."""
    a = as_tensor(a)
    norms = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    out = a.data / safe

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        ga = (g - out * dot) / safe
        return (np.where(norms > 0.0, ga, 0.0),)

    return _make(out, (a,), vjp)


def _tape(loss: Tensor) -> list[Tensor]:
    """The recorded nodes ``loss`` depends on that need a gradient, loss
    included, each once, in topological order (a node after its parents)."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return topo


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(leaf) for every leaf on the recorded tape of ``loss``.

    The loss must be scalar. Each recorded node is visited exactly once, in
    reverse topological order; a node's incoming gradient is held only until
    its VJP has run, and nothing is stored on the tape. A VJP returns None
    for a parent that needs no gradient (a constant operand), so that
    product is never formed, and a constant gets no entry.
    """
    if loss.data.ndim != 0:
        raise ParameterError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    pending: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    out: dict[Tensor, np.ndarray] = {}
    for node in reversed(_tape(loss)):
        g = pending.pop(node, None)
        if g is None:
            continue
        if node._vjp is None:
            out[node] = g
            continue
        for p, gp in zip(node._parents, node._vjp(g)):
            if gp is None or not p.requires_grad:
                continue
            acc = pending.get(p)
            # the first gradient is kept uncopied, as no VJP writes into its
            # inputs or outputs; later ones form a new sum, never +=, since
            # add hands one array to both its parents
            pending[p] = np.asarray(gp, dtype=np.float64) if acc is None else acc + gp
    return out
