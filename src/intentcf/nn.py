"""Standard layers on top of the tape: MLPs, the Gaussian encoder layer of
both VAEs (row view, (mu, logvar) heads, reparameterization and
diagonal-Gaussian KL), softmax with temperature, row-sparse gradients and
Adam."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError, TrainingError


@dataclass
class MlpParams:
    """Per-layer weights and biases of a tanh MLP.

    ``weights[l]`` has shape (in_l, out_l) and adjacent layers chain. tanh
    is applied after every layer except the last.
    """

    weights: list[Tensor]
    biases: list[Tensor]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ParameterError("weights and biases must pair up per layer")
        for l in range(len(self.weights) - 1):
            out_l = self.weights[l].shape[1]
            in_next = self.weights[l + 1].shape[0]
            if out_l != in_next:
                raise ShapeError(
                    f"layer {l} output dim {out_l} does not chain into layer {l + 1} input dim {in_next}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def over(self, items: np.ndarray) -> "MlpParams":
        """View of the MLP on an increasing item list: its first layer's rows
        at those items (a RowView), so it reads inputs over the list."""
        return MlpParams([RowView(self.weights[0], items), *self.weights[1:]], self.biases)


class RowView(Tensor):
    """A leaf holding a parameter's rows (axis 0) or columns (axis 1) at an
    increasing index list, under the parameter's name. Its gradient is the
    parameter's gradient at those rows; it reaches the optimizer as a
    RowGrad, and no full-size gradient is formed."""

    __slots__ = ("rows", "axis")

    def __init__(self, source: Tensor, rows: np.ndarray, axis: int = 0):
        rows = np.asarray(rows, dtype=np.intp)
        super().__init__(source.data[rows] if axis == 0 else source.data[:, rows], source.requires_grad, source.name)
        self.rows = rows
        self.axis = axis


@dataclass(frozen=True)
class RowGrad:
    """A gradient that is zero off ``rows``: ``values`` holds it at those
    rows (axis 0) or columns (axis 1) of the parameter, in order."""

    rows: np.ndarray
    values: np.ndarray
    axis: int = 0


def stored_array(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """arrays[name], which must have ``shape``; ShapeError names the array
    otherwise."""
    a = arrays.get(name)
    if a is None:
        raise ShapeError(f"array {name!r} missing")
    if a.shape != tuple(shape):
        raise ShapeError(f"array {name!r} has shape {a.shape}, model expects {tuple(shape)}")
    return a


def init_parameter(name: str, shape: tuple[int, ...], draw: Callable[[], np.ndarray],
                   arrays: dict[str, np.ndarray] | None = None) -> Tensor:
    """A named parameter holding draw(), or, when ``arrays`` are given
    (a checkpoint's), the stored array of that name and shape, uncopied."""
    if arrays is None:
        return ad.parameter(draw(), name)
    return Tensor(stored_array(arrays, name, shape), requires_grad=True, name=name)


def init_mlp(dims: list[int], rng: np.random.Generator | None, prefix: str,
             arrays: dict[str, np.ndarray] | None = None) -> MlpParams:
    """Glorot-uniform init of an MLP with layer sizes dims[0] -> ... -> dims[-1]
    (or its stored arrays, see init_parameter)."""
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in, fan_out = dims[l], dims[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(init_parameter(f"{prefix}.w{l}", (fan_in, fan_out),
                                      lambda: rng.uniform(-bound, bound, size=(fan_in, fan_out)), arrays))
        biases.append(init_parameter(f"{prefix}.b{l}", (fan_out,), lambda: np.zeros(fan_out), arrays))
    return MlpParams(weights, biases)


def mlp_forward(params: MlpParams, x) -> Tensor:
    """Composition of affine layers with tanh on all but the final layer."""
    h = ad.as_tensor(x)
    expected = params.weights[0].shape[0]
    if h.data.shape[-1] != expected:
        raise ShapeError(
            f"input last dimension {h.data.shape} does not match first layer input ({expected},)"
        )
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ad.add(ad.matmul(h, w), b)
        if l != last:
            h = ad.tanh(h)
    return h


def encode_gaussian(params: MlpParams, x) -> tuple[Tensor, Tensor]:
    """Posterior (mu, logvar) of a diagonal-Gaussian encoder: the MLP's
    output split into two equal heads."""
    out = mlp_forward(params, x)
    half = params.weights[-1].shape[1] // 2
    return ad.slice_cols(out, 0, half), ad.slice_cols(out, half, 2 * half)


def softmax_temp(logits, tau: float) -> Tensor:
    """softmax(logits / tau) over the last axis; smaller tau sharpens the
    distribution."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits = ad.as_tensor(logits)
    return ad.softmax(ad.mul(logits, 1.0 / tau), axis=-1)


def gaussian_reparameterize(mu, sigma, noise) -> Tensor:
    """mu + noise * sigma elementwise (sigma is the standard deviation)."""
    mu, sigma, noise = ad.as_tensor(mu), ad.as_tensor(sigma), ad.as_tensor(noise)
    if not (mu.data.shape == sigma.data.shape == noise.data.shape):
        raise ShapeError(
            f"mu {mu.data.shape}, sigma {sigma.data.shape} and noise {noise.data.shape} must share a shape"
        )
    return ad.add(mu, ad.mul(noise, sigma))


def diag_gaussian_kl(mu_q: Tensor, logvar_q: Tensor, mu_p, var_p) -> Tensor:
    """KL( N(mu_q, diag(exp(logvar_q))) || N(mu_p, diag(var_p)) ), closed form,
    summed over all elements. mu_p/var_p are constants (arrays or scalars)."""
    mu_p = np.asarray(mu_p, dtype=np.float64)
    var_p = np.asarray(var_p, dtype=np.float64)
    if np.any(var_p <= 0):
        raise ParameterError("prior variances must be positive")
    var_q = ad.exp(logvar_q)
    diff = ad.sub(Tensor(mu_p), mu_q)
    quad = ad.mul(ad.mul(diff, diff), 1.0 / var_p)
    trace = ad.mul(var_q, 1.0 / var_p)
    logdet = ad.sub(Tensor(np.log(var_p)), logvar_q)
    total = ad.add(ad.add(quad, trace), ad.sub(logdet, Tensor(1.0)))
    return ad.mul(ad.tsum(total), 0.5)


_BLOCK = 1 << 15  # elements per Adam block; a block's temporaries stay in cache
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


def _as_rows(a: np.ndarray, axis: int) -> np.ndarray:
    """A 2-D view of ``a`` whose rows are its slices along ``axis``."""
    return a.T if axis == 1 else np.atleast_2d(a)


class Adam:
    """Adaptive-moment optimizer over named parameters. Deterministic.

    A parameter's gradient is a dense array or a RowGrad. Both go through
    one blocked update; a RowGrad's rows are read as zeros plus its values,
    so the update equals the dense one on the densified gradient.
    """

    def __init__(self, lr: float = 1e-3):
        if lr <= 0:
            raise ParameterError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: list[Tensor], grads: dict[str, np.ndarray | RowGrad]) -> None:
        """One update of every parameter. A parameter without a gradient,
        one the loss does not reach, gets a zero one here: batch_gradients
        leaves it out. Every gradient is checked before anything moves."""
        checked = [(p, _checked_grad(p, grads.get(p.name))) for p in params]
        self.t += 1
        c1 = 1.0 - _BETA1 ** self.t
        c2 = 1.0 - _BETA2 ** self.t
        for p, g in checked:
            if p.name not in self.m:
                self.m[p.name] = np.zeros_like(p.data)
                self.v[p.name] = np.zeros_like(p.data)
            rows, values, axis = (g.rows, g.values, g.axis) if isinstance(g, RowGrad) else (None, g, 0)
            self._update(*(_as_rows(a, axis) for a in (p.data, self.m[p.name], self.v[p.name], values)), rows, c1, c2)

    def _update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, rows: np.ndarray | None,
                c1: float, c2: float) -> None:
        """Adam on the row views p, m, v, in place, in blocks of about _BLOCK
        elements, for the gradient g at ``rows`` (every row when None)."""
        n, width = p.shape
        per = max(1, _BLOCK // max(width, 1))
        for lo in range(0, n, per):
            hi = min(lo + per, n)
            if rows is None:
                gb = g[lo:hi]
            else:
                a, b = np.searchsorted(rows, (lo, hi))
                gb = np.zeros((hi - lo, width))
                gb[rows[a:b] - lo] += g[a:b]
            pb, mb, vb = p[lo:hi], m[lo:hi], v[lo:hi]
            t1, t2 = np.empty(gb.shape), np.empty(gb.shape)
            mb *= _BETA1
            mb += np.multiply(gb, 1.0 - _BETA1, out=t1)
            vb *= _BETA2
            np.multiply(gb, gb, out=t1)
            t1 *= 1.0 - _BETA2
            vb += t1
            # lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(mb, c1, out=t1)
            t1 *= self.lr
            np.divide(vb, c2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += _EPS
            t1 /= t2
            pb -= t1


def _checked_grad(p: Tensor, g) -> np.ndarray | RowGrad:
    """``g`` for parameter ``p`` (zeros when None) after checking its shape,
    its rows and that it is finite."""
    if g is None:
        return np.zeros_like(p.data)
    if isinstance(g, RowGrad):
        rows = np.asarray(g.rows)
        n = p.data.shape[g.axis] if g.axis in (0, 1) and p.data.ndim == 2 else -1
        if n < 0 or rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ShapeError(f"row gradient for {p.name!r} needs integer rows along axis 0 or 1 of a matrix, "
                             f"got rows {rows.shape} on axis {g.axis} of {p.data.shape}")
        if rows.size and (rows[0] < 0 or rows[-1] >= n or np.any(rows[1:] <= rows[:-1])):
            raise ShapeError(f"row gradient for {p.name!r} needs strictly increasing rows in [0, {n})")
        shape = list(p.data.shape)
        shape[g.axis] = rows.size
        values = g.values
    else:
        shape, values = list(p.data.shape), g
    if list(values.shape) != shape:
        raise ShapeError(f"gradient shape {values.shape} does not match parameter {p.name!r} {tuple(shape)}")
    if not np.all(np.isfinite(values)):
        raise TrainingError(f"non-finite gradient for parameter {p.name!r}")
    return g
