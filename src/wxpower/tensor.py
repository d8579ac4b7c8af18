"""Dense float tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous numpy array (float32 by default, float64 for
high-precision gradient checking). Operations executed while a Tape is
active append an OpRecord; backward() walks the records in reverse and
accumulates gradients into the leaf tensors that asked for them.

What a record holds: the op's name, its output's shape and dtype, its
backward rule, and one key per input: the index of the record that
produced the input on this tape, the input itself when it is a
grad-requiring leaf, or None for a constant. A record never holds the
op's output or a produced input, so the tape retains only what the rules
capture in their closures, and an intermediate that the caller drops is
freed at once. A produced tensor finds its record through its `origin`
slot (tape key, record index), which stays valid however numpy reuses
memory and Python reuses object ids. A tape runs backward() once: each
rule is dropped, with every array it captured, right after it has run.

Design rules the ops below follow:

* No implicit broadcasting. Elementwise ops demand identical shapes; the
  only sanctioned mixes are scale() (tensor x python float) and add_bias()
  (rows + vector). Shape violations raise ShapeError.
* Outputs are fresh C-contiguous arrays; no op mutates its inputs.
* Gradient arrays stored during backward are never mutated in place;
  fan-out accumulation allocates, so rules may return views safely.
* relu uses subgradient 0 at exactly 0.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "OpRecord",
    "create",
    "from_array",
    "record",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "add_bias",
    "matmul",
    "linear",
    "reshape",
    "conv2d",
    "avgpool2d",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "backward",
    "clear_grads",
]

class ShapeError(ValueError):
    """An operand violated an op's shape/dtype contract."""


class Tensor:
    """N-d float array plus autodiff bookkeeping.

    data          contiguous numpy array, float32 or float64
    requires_grad leaf flag: backward() deposits into .grad
    grad          numpy array of data's shape, or None
    origin        (tape key, record index) of the op that produced it on a
                  tape, or None
    """

    __slots__ = ("data", "requires_grad", "grad", "origin")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if data.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ShapeError(f"tensor dtype must be float32/float64, got {data.dtype}")
        if data.ndim == 0 or 0 in data.shape:
            raise ShapeError(f"tensor shape must be non-empty with positive extents, got {data.shape}")
        self.data = np.ascontiguousarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.origin: tuple[int, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def create(shape: Sequence[int], fill: float = 0.0,
           dtype=np.float32, requires_grad: bool = False) -> Tensor:
    """New tensor of `shape` with every value `fill`."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise ShapeError(f"invalid shape {shape}")
    return Tensor(np.full(shape, float(fill), dtype=dtype), requires_grad)


def from_array(array, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    """Tensor copying an array-like (nested lists or numpy array)."""
    return Tensor(np.array(array, dtype=dtype), requires_grad)


# ---------------------------------------------------------------------------
# Tape

class OpRecord:
    __slots__ = ("name", "inputs", "shape", "dtype", "rule")

    def __init__(self, name, inputs, shape, dtype, rule):
        self.name = name
        # per input: producing record's index (int), grad-requiring leaf
        # (Tensor), or None for a constant
        self.inputs = inputs
        self.shape = shape  # of the output, for backward()'s seed check
        self.dtype = dtype
        # rule(output_grad) -> tuple of input grads (None where not needed)
        self.rule = rule


_TAPE_KEYS = itertools.count()


class Tape:
    """Ordered record of ops for one backward pass. Use as a context manager."""

    def __init__(self):
        self.ops: list[OpRecord] = []
        self.key = next(_TAPE_KEYS)  # names this tape in Tensor.origin
        self.consumed = False        # backward() has run

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape context exited out of order")
        stack.pop()


_LOCAL = threading.local()


def _stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = []
        _LOCAL.tapes = stack
    return stack


def _active_tape() -> Tape | None:
    stack = _stack()
    return stack[-1] if stack else None


def record(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
           rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap out_data as a tensor; record the op if a tape is active.

    An op is recorded when any input is a grad-requiring leaf or was itself
    produced by an op on the active tape, so chains stay connected; a
    tensor produced on another tape counts as a constant. The record keeps
    a key per input (see the module docstring) and the output's shape and
    dtype, never the tensors, so `rule` must capture in its closure every
    array it reads. `rule` maps the output gradient to one gradient (or
    None) per input, in order, and runs at most once: not at all when no
    gradient reaches the op's output. Public so layers can register
    fused ops (batchnorm, losses) without touching tape internals.
    """
    out = Tensor(out_data, requires_grad=False)
    tape = _active_tape()
    if tape is None:
        return out
    keys = tuple(_input_key(tape, t) for t in inputs)
    if any(k is not None for k in keys):
        out.origin = (tape.key, len(tape.ops))
        tape.ops.append(OpRecord(name, keys, out.shape, out.dtype, rule))
    return out


def _input_key(tape: Tape, t: Tensor):
    if t.origin is not None and t.origin[0] == tape.key:
        return t.origin[1]
    return t if t.requires_grad else None


def _check_same(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------------
# Elementwise

def add(a: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """a + b. With `relu`, the relu that follows runs in the same record, as
    in `conv2d`: the forward clamps its own fresh output in place and the
    rule first applies the relu's `g * (out > 0)`. A ResNet block's residual
    add calls it that way."""
    _check_same(a, b, "add")
    out = a.data + b.data
    if relu:
        np.maximum(out, 0, out=out)
    relu_out = out if relu else None

    def rule(g):
        if relu:
            g = g * (relu_out > 0)  # subgradient at 0 is 0
        return (g, g)

    return record("add", (a, b), out, rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "sub")
    out = a.data - b.data

    def rule(g):
        return (g, -g)

    return record("sub", (a, b), out, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same(a, b, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data

    def rule(g):
        return (g * bd, g * ad)

    return record("mul", (a, b), out, rule)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = x.data * x.dtype.type(s)

    def rule(g):
        return (g * s,)

    return record("scale", (x,), out, rule)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def rule(g):
        return (g * (out > 0),)  # subgradient at 0 is 0

    return record("relu", (x,), out, rule)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-K vector to every row of an N-by-K matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: need (N,K)+(K,), got {x.shape}+{b.shape}")
    if x.dtype != b.dtype:
        raise ShapeError(f"add_bias: dtype mismatch {x.dtype} vs {b.dtype}")
    out = x.data + b.data  # row broadcast

    def rule(g):
        return (g, g.sum(axis=0))

    return record("add_bias", (x, b), out, rule)


# ---------------------------------------------------------------------------
# Linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: dtype mismatch {a.dtype} vs {b.dtype}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def rule(g):
        return (g @ bd.T, ad.T @ g)

    return record("matmul", (a, b), out, rule)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully-connected map: x (N,K) times weight (M,K) transposed, plus bias (M,).

    One fused record so the (M,K) weight is never materialized transposed.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(f"linear: need x(N,K) w(M,K) b(M,), got {x.shape} {weight.shape} {bias.shape}")
    if x.shape[1] != weight.shape[1] or weight.shape[0] != bias.shape[0]:
        raise ShapeError(f"linear: size mismatch x{x.shape} w{weight.shape} b{bias.shape}")
    if not (x.dtype == weight.dtype == bias.dtype):
        raise ShapeError("linear: dtype mismatch")
    out = x.data @ weight.data.T + bias.data
    xd, wd = x.data, weight.data

    def rule(g):
        return (g @ wd, g.T @ xd, g.sum(axis=0))

    return record("linear", (x, weight, bias), out, rule)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise ShapeError(f"reshape: invalid shape {shape}")
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: {x.shape} has {x.data.size} elements, target {shape}")
    out = x.data.reshape(shape).copy()
    in_shape = x.shape

    def rule(g):
        return (g.reshape(in_shape),)

    return record("reshape", (x,), out, rule)


# ---------------------------------------------------------------------------
# Convolution / pooling

def conv2d(x: Tensor, kernel: Tensor, bias: Tensor,
           stride: int = 1, pad: int = 0, relu: bool = False) -> Tensor:
    """2-d cross-correlation over NCHW input with zero padding.

    kernel (F, C, kh, kw), bias (F,). Output (N, F, Ho, Wo) with
    Ho = (H + 2*pad - kh)//stride + 1 and likewise Wo. With `relu`, the
    relu that follows runs in the same record: the forward clamps the
    conv's own fresh output in place, and the rule first applies the
    relu's `g * (out > 0)`. Eval-mode ResNet units call it with a kernel
    and bias that have their batchnorm folded in (`layers.fold_batchnorm`).

    One gemm per sample writes its NCHW output; no batch-wide column
    buffer or padded batch is built: each sample is padded in one reused
    buffer, and the backward rule retains only the input, then pads and
    recomputes each sample's columns the same way. The bias gradient is summed
    in NHWC row order: behind a batchnorm it is float32 rounding noise
    whose sign ADAM turns into full lr steps, so another order moves the
    trained weights.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4 or bias.data.ndim != 1:
        raise ShapeError(f"conv2d: need x NCHW, kernel FCkk, bias F; got {x.shape} {kernel.shape} {bias.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"conv2d: channel mismatch input C={c} kernel C={ck}")
    if bias.shape[0] != f:
        raise ShapeError(f"conv2d: bias length {bias.shape[0]} != filters {f}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d: bad stride/pad {stride}/{pad}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    if not (x.dtype == kernel.dtype == bias.dtype):
        raise ShapeError("conv2d: dtype mismatch")

    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xd = x.data
    padded = (c, h + 2 * pad, w + 2 * pad)
    wmat = kernel.data.reshape(f, -1)

    def columns(s, buf):  # sample s as (C*kh*kw, Ho*Wo), padded through buf
        if pad:
            buf[:, pad:pad + h, pad:pad + w] = xd[s]
        src = buf if pad else xd[s]
        sc, sh, sw = src.strides
        taps = np.lib.stride_tricks.as_strided(       # (C, kh, kw, Ho, Wo)
            src, shape=(c, kh, kw, ho, wo),
            strides=(sc, sh, sw, sh * stride, sw * stride), writeable=False)
        return taps.reshape(-1, ho * wo)

    out = np.empty((n, f, ho * wo), dtype=x.dtype)
    buf = np.zeros(padded, dtype=x.dtype) if pad else None
    for s in range(n):
        np.matmul(wmat, columns(s, buf), out=out[s])
        out[s] += bias.data[:, None]
    out = out.reshape(n, f, ho, wo)
    if relu:
        np.maximum(out, 0, out=out)
    relu_out = out if relu else None

    def rule(g):
        if relu:
            g = g * (relu_out > 0)  # subgradient at 0 is 0
        gb = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f).sum(axis=0)
        gm = g.reshape(n, f, ho * wo)
        gk = np.zeros_like(wmat)
        gx = np.zeros((n, c, h, w), dtype=g.dtype)
        buf = np.zeros(padded, dtype=g.dtype) if pad else None
        for s in range(n):
            gk += gm[s] @ columns(s, buf).T
            d = (wmat.T @ gm[s]).reshape(c, kh, kw, ho, wo)
            dxs = np.zeros(padded, dtype=g.dtype) if pad else gx[s]
            for i in range(kh):
                for j in range(kw):
                    dxs[:, i:i + (ho - 1) * stride + 1:stride,
                        j:j + (wo - 1) * stride + 1:stride] += d[:, i, j]
            if pad:
                gx[s] = dxs[:, pad:pad + h, pad:pad + w]
        return (gx, gk.reshape(kernel.shape), gb)

    return record("conv2d", (x, kernel, bias), out, rule)


def avgpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Average pooling with a k-by-k window over NCHW input (no padding)."""
    if x.data.ndim != 4:
        raise ShapeError(f"avgpool2d: need NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if k < 1 or stride < 1:
        raise ShapeError(f"avgpool2d: bad k/stride {k}/{stride}")
    if k > h or k > w:
        raise ShapeError(f"avgpool2d: window {k} exceeds input {h}x{w}")
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    if k == stride == 2 and wo > 1:
        # numpy's mean in its own order (at wo == 1 it sums in sequence)
        t = [x.data[:, :, i:2 * ho:2, j:2 * wo:2] for i in (0, 1) for j in (0, 1)]
        out = t[0] + t[1]
        out += t[2] + t[3]
        np.true_divide(out, np.intp(4), out=out, casting="unsafe")
    else:
        sn, sc, sh, sw = x.data.strides
        windows = np.lib.stride_tricks.as_strided(
            x.data,
            shape=(n, c, ho, wo, k, k),
            strides=(sn, sc, sh * stride, sw * stride, sh, sw),
            writeable=False,
        )
        out = np.ascontiguousarray(windows.mean(axis=(4, 5)))
    inv = 1.0 / (k * k)

    def rule(g):
        gg = g * g.dtype.type(inv)
        dx = np.zeros((n, c, h, w), dtype=g.dtype)
        for i in range(k):
            for j in range(k):
                dx[:, :, i:i + (ho - 1) * stride + 1:stride,
                   j:j + (wo - 1) * stride + 1:stride] += gg
        return (dx,)

    return record("avgpool2d", (x,), out, rule)


# ---------------------------------------------------------------------------
# Reductions

def _norm_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(a) for a in axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    for a in axes:
        if not 0 <= a < ndim:
            raise ShapeError(f"axis {a} out of range for ndim {ndim}")
    return axes


def _reduce(x: Tensor, axes, mean: bool) -> Tensor:
    axes = _norm_axes(axes, x.data.ndim)
    full = len(axes) == x.data.ndim
    red = x.data.mean(axis=axes) if mean else x.data.sum(axis=axes)
    out = red.reshape(1) if full else np.ascontiguousarray(red)
    in_shape = x.shape
    count = 1
    for a in axes:
        count *= in_shape[a]
    kept = tuple(in_shape[i] if i not in axes else 1 for i in range(len(in_shape)))

    def rule(g):
        gfull = np.broadcast_to(g.reshape(kept), in_shape)
        if mean:
            return ((gfull / g.dtype.type(count)),)
        return (gfull.copy(),)

    return record("reduce_mean" if mean else "reduce_sum", (x,), out, rule)


def reduce_sum(x: Tensor, axes=None) -> Tensor:
    """Sum over the given axes (all axes when None; full reduction -> shape (1,))."""
    return _reduce(x, axes, mean=False)


def reduce_mean(x: Tensor, axes=None) -> Tensor:
    """Mean over the given axes (all axes when None; full reduction -> shape (1,))."""
    return _reduce(x, axes, mean=True)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max over one axis. Gradient flows to the first maximal entry on ties."""
    axes = _norm_axes(axis, x.data.ndim)
    if len(axes) != 1:
        raise ShapeError("reduce_max takes exactly one axis")
    ax = axes[0]
    red = x.data.max(axis=ax)
    out = red.reshape(1) if x.data.ndim == 1 else np.ascontiguousarray(red)
    in_shape = x.shape
    kept = tuple(1 if i == ax else n for i, n in enumerate(in_shape))
    arg = x.data.argmax(axis=ax).reshape(kept)

    def rule(g):
        dx = np.zeros(in_shape, dtype=g.dtype)
        np.put_along_axis(dx, arg, g.reshape(kept), ax)
        return (dx,)

    return record("reduce_max", (x,), out, rule)


# ---------------------------------------------------------------------------
# Backward

def backward(tape: Tape, seed: Tensor) -> None:
    """Accumulate d(final)/d(leaf) into .grad of every requiring leaf.

    `seed` must match the final op's output shape and dtype (the usual call
    seeds a 1-element loss with ones). Rules run in reverse order, each at
    most once: an op whose output received no gradient is skipped, and
    leaves that no gradient reaches get zeros deposited. Pending gradients
    are keyed by record index and by leaf; a gradient for a constant input
    is dropped at once. Each record, with its rule and the arrays the rule
    captured, is freed as soon as the walk passes it, so the tape ends
    empty. A tape runs backward() once: a second call raises RuntimeError.
    """
    if tape.consumed:
        raise RuntimeError("backward: this tape's backward() has already run")
    ops = tape.ops
    if ops:
        if seed.shape != ops[-1].shape:
            raise ShapeError(f"backward: seed shape {seed.shape} != final output {ops[-1].shape}")
        if seed.dtype != ops[-1].dtype:
            raise ShapeError(f"backward: seed dtype {seed.dtype} != final output {ops[-1].dtype}")
    tape.consumed = True

    # dict for a first-seen order; Tensor hashes by identity
    leaves = dict.fromkeys(k for op in ops for k in op.inputs if isinstance(k, Tensor))
    grads: dict = {len(ops) - 1: seed.data.copy()}
    while ops:
        op = ops.pop()
        g = grads.pop(len(ops), None)
        if g is None:
            continue
        in_grads = op.rule(g)
        if len(in_grads) != len(op.inputs):
            raise RuntimeError(f"op {op.name}: rule returned {len(in_grads)} grads for {len(op.inputs)} inputs")
        for key, ig in zip(op.inputs, in_grads):
            if ig is None or key is None:
                continue
            prev = grads.get(key)
            # allocate on fan-in; stored arrays are never mutated in place
            grads[key] = ig if prev is None else prev + ig

    for leaf in leaves:
        g = grads.get(leaf)
        if g is None:
            g = np.zeros_like(leaf.data)
        # deposited arrays may alias each other (e.g. add hands the same
        # array to both inputs), so .grad is read-only by convention:
        # consumers must replace, never mutate in place
        g = np.ascontiguousarray(g, dtype=leaf.data.dtype)
        leaf.grad = g if leaf.grad is None else leaf.grad + g


def clear_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
