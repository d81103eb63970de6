"""Standard layers on top of the tape: MLPs, the Gaussian encoder layer of
both VAEs (row view, (mu, logvar) heads, reparameterization and
diagonal-Gaussian KL), softmax with temperature and Adam."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError, TrainingError

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "tanh": ad.tanh,
    "linear": lambda t: t,
}


@dataclass
class MlpParams:
    """Per-layer weights/biases plus the hidden activation identifier.

    ``weights[l]`` has shape (in_l, out_l) and adjacent layers chain. The
    activation is applied after every layer except the last.
    """

    weights: list[Tensor]
    biases: list[Tensor]
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
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
        """View of the MLP on an item list: its first layer's rows at those
        items, so it reads inputs over the list. Gradients scatter back into
        the full first layer."""
        return MlpParams([ad.gather_rows(self.weights[0], items), *self.weights[1:]], self.biases, self.activation)


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


def init_mlp(dims: list[int], rng: np.random.Generator | None, prefix: str, activation: str = "tanh",
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
    return MlpParams(weights, biases, activation)


def mlp_forward(params: MlpParams, x) -> Tensor:
    """Composition of affine layers with the hidden activation on all but
    the final layer."""
    h = ad.as_tensor(x)
    expected = params.weights[0].shape[0]
    if h.data.shape[-1] != expected:
        raise ShapeError(
            f"input last dimension {h.data.shape} does not match first layer input ({expected},)"
        )
    act = _ACTIVATIONS[params.activation]
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ad.add(ad.matmul(h, w), b)
        if l != last:
            h = act(h)
    return h


def encode_gaussian(params: MlpParams, x) -> tuple[Tensor, Tensor]:
    """Posterior (mu, logvar) of a diagonal-Gaussian encoder: the MLP's
    output split into two equal heads."""
    out = mlp_forward(params, x)
    half = params.weights[-1].shape[1] // 2
    return ad.slice_cols(out, 0, half), ad.slice_cols(out, half, 2 * half)


def softmax_temp(logits, tau: float, axis: int = -1) -> Tensor:
    """softmax(logits / tau); smaller tau sharpens the distribution."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits = ad.as_tensor(logits)
    return ad.softmax(ad.mul(logits, 1.0 / tau), axis=axis)


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


class Adam:
    """Adaptive-moment optimizer over named parameters. Deterministic."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ParameterError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: list[Tensor], grads: dict[str, np.ndarray]) -> None:
        for p in params:
            g = grads.get(p.name)
            if g is not None and not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {p.name!r}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in params:
            g = grads.get(p.name)
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.name!r} {p.data.shape}")
            m = self.m.setdefault(p.name, np.zeros_like(p.data))
            v = self.v.setdefault(p.name, np.zeros_like(p.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for k, a in self.m.items():
            out[f"adam.m.{k}"] = a
        for k, a in self.v.items():
            out[f"adam.v.{k}"] = a
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        """Moments from a checkpoint's arrays, kept uncopied: the caller hands
        over fresh buffers."""
        self.t = t
        self.m = {k[len("adam.m."):]: v for k, v in arrays.items() if k.startswith("adam.m.")}
        self.v = {k[len("adam.v."):]: v for k, v in arrays.items() if k.startswith("adam.v.")}
