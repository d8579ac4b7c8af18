"""Trainable layers and initialization on top of the tensor tape.

Layers are plain records of parameter tensors; forward functions take the
layer, the input, and (where behaviour differs) the mode string "train" or
"eval". Batchnorm registers a fused op with its derived backward rule so
the whole layer costs one tape record; that record may also carry the
relu that follows it, so a conv unit's batchnorm and relu are one record.
In eval mode the running stats are constants, and `fold_batchnorm` turns
the batchnorm into its conv's kernel and bias instead (the ResNet's eval
forward runs no normalization pass); `batchnorm2d_forward`'s eval branch
stays as the reference the fold is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1

MODES = ("train", "eval")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class Rng:
    """Deterministic random source (PCG64) with dtype-aware draws.

    Draw order is part of every caller's contract: models consume the
    stream in construction order, dropout per forward call.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def normal(self, shape, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        out = self._gen.standard_normal(size=tuple(shape), dtype=dtype)
        if std != 1.0:
            out *= std  # in-place keeps the requested dtype
        return out

    def uniform(self, shape, low: float, high: float, dtype=np.float32) -> np.ndarray:
        # Generator.uniform has no dtype parameter; build from random().
        # In-place scaling keeps peak memory at one array for huge draws.
        u = self._gen.random(size=tuple(shape), dtype=dtype)
        u *= high - low
        u += low
        return u

    def random(self, shape, dtype=np.float32) -> np.ndarray:
        return self._gen.random(size=tuple(shape), dtype=dtype)


def kaiming_init(shape, fan_in: int, rng: Rng, dtype=np.float32) -> T.Tensor:
    """Normal draw with std sqrt(2/fan_in), for layers feeding a relu."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = float(np.sqrt(2.0 / fan_in))
    return T.Tensor(rng.normal(shape, std=std, dtype=dtype), requires_grad=True)


def uniform_init(shape, bound: float, rng: Rng, dtype=np.float32) -> T.Tensor:
    """Uniform draw on [-bound, +bound]."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return T.Tensor(rng.uniform(shape, -bound, bound, dtype=dtype), requires_grad=True)


# ---------------------------------------------------------------------------
# fully connected

@dataclass
class LinearLayer:
    weight: T.Tensor  # (out_features, in_features)
    bias: T.Tensor    # (out_features,)

    @classmethod
    def new(cls, in_features: int, out_features: int, rng: Rng,
            dtype=np.float32) -> "LinearLayer":
        bound = 1.0 / float(np.sqrt(in_features))
        weight = uniform_init((out_features, in_features), bound, rng, dtype)
        bias = T.create([out_features], 0.0, dtype=dtype, requires_grad=True)
        return cls(weight, bias)


# ---------------------------------------------------------------------------
# dropout

def dropout(x: T.Tensor, p: float, mode: str, rng: Rng | None) -> T.Tensor:
    """Inverted dropout: train scales kept entries by 1/(1-p); eval is identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    _check_mode(mode)
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an Rng")
    keep = (rng.random(x.shape, dtype=x.dtype) >= p)
    mask = keep.astype(x.dtype) * x.dtype.type(1.0 / (1.0 - p))
    return T.mul(x, T.Tensor(mask))


# ---------------------------------------------------------------------------
# batch normalization over NCHW channels

class BatchNorm2d:
    """Per-channel normalization with learnable affine and running stats.

    gamma/beta are parameters; running_mean/running_var are buffers
    (saved with checkpoints, never trained, never counted as parameters).
    Batch statistics use the biased variance; the running estimates blend
    in each batch with `momentum`.
    """

    def __init__(self, num_features: int, dtype=np.float32):
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.eps = BATCHNORM_EPS
        self.momentum = BATCHNORM_MOMENTUM
        self.gamma = T.create([num_features], 1.0, dtype=dtype, requires_grad=True)
        self.beta = T.create([num_features], 0.0, dtype=dtype, requires_grad=True)
        self.running_mean = T.create([num_features], 0.0, dtype=dtype)
        self.running_var = T.create([num_features], 1.0, dtype=dtype)


def batchnorm2d_forward(bn: BatchNorm2d, x: T.Tensor, mode: str,
                        relu: bool = False) -> T.Tensor:
    """Batchnorm over NCHW channels; with `relu`, the relu too, in the same
    record, whose rule then first applies the relu's `g * (out > 0)`."""
    _check_mode(mode)
    if x.data.ndim != 4 or x.shape[1] != bn.num_features:
        raise T.ShapeError(
            f"batchnorm2d: need (N,{bn.num_features},H,W), got {x.shape}")
    xd = x.data
    n, c, h, w = xd.shape
    gamma, beta = bn.gamma, bn.beta
    gd = gamma.data[None, :, None, None]
    m = n * h * w

    if mode == "train":
        if m < 2:
            raise T.ShapeError("batchnorm2d train mode needs at least 2 values per channel")
        mu = xd.mean(axis=(0, 2, 3))
        xhat = xd - mu[None, :, None, None]
        # the biased variance in ndarray.var's own arithmetic
        var = np.add.reduce(np.square(xhat), axis=(0, 2, 3))
        np.true_divide(var, np.intp(m), out=var, casting="unsafe")
        mom = xd.dtype.type(bn.momentum)
        bn.running_mean.data[:] = (1 - mom) * bn.running_mean.data + mom * mu
        bn.running_var.data[:] = (1 - mom) * bn.running_var.data + mom * var
    else:  # eval: normalize with the frozen running stats
        mu, var = bn.running_mean.data, bn.running_var.data
        xhat = xd - mu[None, :, None, None]
    inv = 1.0 / np.sqrt(var + xd.dtype.type(bn.eps))
    xhat *= inv[None, :, None, None]
    out = gd * xhat + beta.data[None, :, None, None]
    if relu:
        np.maximum(out, 0, out=out)
    relu_out = out if relu else None
    ga = gamma.data

    def rule(g):
        if relu:
            g = g * (relu_out > 0)  # subgradient at 0 is 0
        dbeta = g.sum(axis=(0, 2, 3))
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        if mode == "train":
            coeff = (ga * inv / g.dtype.type(m))[None, :, None, None]
            dx = coeff * (g.dtype.type(m) * g
                          - dbeta[None, :, None, None]
                          - xhat * dgamma[None, :, None, None])
        else:  # the stats are constants, so the map is affine per channel
            dx = g * (ga * inv)[None, :, None, None]
        return (dx, dgamma, dbeta)

    return T.record("batchnorm2d", (x, gamma, beta), out, rule)


def fold_batchnorm(bn: BatchNorm2d, kernel: T.Tensor,
                   bias: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """Fold eval-mode `bn` into the conv before it: the kernel and bias whose
    conv equals the batchnorm of the conv with `kernel` and `bias`, i.e.
    kernel * scale per output channel and (bias - running_mean) * scale +
    beta, where scale = gamma / sqrt(running_var + eps).

    Three small records (scale from gamma, the kernel from kernel and scale,
    the bias from bias, scale and beta) give every parameter exactly one
    gradient per backward."""
    if kernel.data.ndim != 4 or kernel.shape[0] != bn.num_features:
        raise T.ShapeError(
            f"fold_batchnorm: need a ({bn.num_features},C,kh,kw) kernel, got {kernel.shape}")
    gamma, beta = bn.gamma, bn.beta
    kd, bd = kernel.data, bias.data
    inv = 1.0 / np.sqrt(bn.running_var.data + kd.dtype.type(bn.eps))
    sd = gamma.data * inv
    scale = T.record("bn_fold_scale", (gamma,), sd, lambda g: (g * inv,))
    s4 = sd[:, None, None, None]
    folded_kernel = T.record(
        "bn_fold_kernel", (kernel, scale), kd * s4,
        lambda g: (g * s4, (g * kd).sum(axis=(1, 2, 3))))
    shift = bd - bn.running_mean.data
    folded_bias = T.record(
        "bn_fold_bias", (bias, scale, beta), shift * sd + beta.data,
        lambda g: (g * sd, g * shift, g))
    return folded_kernel, folded_bias
