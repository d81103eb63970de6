"""Central finite differences, the relative error the gradient checks
compare them by, and the gradients of a loss keyed by parameter name."""

from typing import Callable

import numpy as np

from intentcf import autodiff as ad
from intentcf import training as tr
from intentcf.autodiff import Tensor
from intentcf.nn import RowGrad


def finite_difference_gradients(
    loss_fn: Callable[[], float], params: list[Tensor], h: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn w.r.t. every parameter coordinate.

    loss_fn reads the parameters' current ``.data`` in place; it must be
    deterministic (fix any noise beforehand).
    """
    out = {}
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        out[p.name] = g
    return out


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """max over coordinates of |ga - gn| / max(|ga|, |gn|), ignoring pairs
    where both magnitudes are below 1e-8."""
    worst = 0.0
    for name, ga in analytic.items():
        gn = numeric[name]
        scale = np.maximum(np.abs(ga), np.abs(gn))
        diff = np.abs(ga - gn)
        mask = scale > 1e-8
        if np.any(mask):
            worst = max(worst, float((diff[mask] / scale[mask]).max()))
    return worst


def named_gradients(loss: Tensor, params: list[Tensor]) -> dict[str, np.ndarray]:
    """d(loss)/d(p) for each of ``params``, keyed by name; zeros for a
    parameter the loss does not reach."""
    grads = ad.backward(loss)
    return {p.name: grads[p] if p in grads else np.zeros_like(p.data) for p in params}


def full_gradients(loss: Tensor, params: list[Tensor]) -> dict[str, np.ndarray]:
    """training.batch_gradients of ``loss`` with each RowGrad spread into
    the full-size gradient it stands for, and zeros for a parameter the
    loss does not reach."""
    out = tr.batch_gradients(loss, params)
    for p in params:
        g = out.get(p.name)
        if g is None:
            out[p.name] = np.zeros_like(p.data)
        elif isinstance(g, RowGrad):
            out[p.name] = np.zeros_like(p.data)
            np.moveaxis(out[p.name], g.axis, 0)[g.rows] = np.moveaxis(g.values, g.axis, 0)
    return out
