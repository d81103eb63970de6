"""Central finite differences and the relative error the gradient checks
compare them by."""

from typing import Callable

import numpy as np

from intentcf.autodiff import Tensor


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
