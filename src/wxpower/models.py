"""Model families, construction, forward pass, and checkpoint files.

Two families over NCHW weather maps, both regressing two nonnegative
outputs (solar MW, wind MW):

* "linear": flatten, then a chain of dropout -> fully-connected -> relu
  blocks (widths 800/400/200/2 by default). The trailing relu clamps
  predictions at zero.
* "resnet": 7x7/stride-2 stem conv + batchnorm + relu, four stages of
  bottleneck blocks (1x1 down, 3x3, 1x1 up, batchnorm + relu on each,
  additive shortcut before the block's final relu), 2x2/stride-2 average
  pooling between stages, global average pooling, then a small
  relu-capped regression head.

Every conv runs in `_conv_bn`. Train mode normalizes the conv's output
with batch statistics in its own record. Eval mode folds the batchnorm,
an affine map per channel once its running stats are frozen, into the
conv's kernel and bias (`layers.fold_batchnorm`) and runs one conv whose
relu clamps its own output: no normalization pass and no batchnorm
temporaries, in eval forwards and saliency maps alike. The fold rounds
differently in float32 from conv-then-batchnorm, so eval predictions and
reports, the score columns of history.csv and saliency maps move by
float32 rounding. Training never reads an eval output under fixed stages,
so checkpoints and the training trajectory keep every byte; adaptive
stages compare val RMSE, where a near-tie could flip.

A Model's `net` is a tree of nested dicts whose leaves are layers:

* linear: {"fc1": LinearLayer, ..., "fcN": LinearLayer}
* resnet: {"stem": {"conv", "bn"},
           "s1": {"b1": {"conv1", "bn1", "conv2", "bn2", "conv3", "bn3",
                         and "proj", "proj_bn" where the width changes},
                  "b2": ...},
           ..., "head": {"fc1", "fc2"}}

A tensor's name is the dict keys down to its layer plus the layer
attribute that holds it, joined by dots ("s1.b1.conv1.kernel",
"stem.bn.running_mean"). One walk of the tree, in insertion order, fills
`params` (tensors that require a gradient) and `buffers` (the rest), and
that order is the order of the records in a checkpoint file. Builders
consume an Rng in that same construction order, so (seed -> initial
weights) is reproducible bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .layers import (BatchNorm2d, LinearLayer, Rng, batchnorm2d_forward, dropout,
                     fold_batchnorm, kaiming_init)

CHECKPOINT_MAGIC = b"WXPM"
CHECKPOINT_VERSION = 1

FAMILIES = ("linear", "resnet")

_SCALARS = {"str": str, "int": int, "float": float}


@dataclass(frozen=True)
class ArchitectureSpec:
    """Everything needed to rebuild a model skeleton (not its weights)."""

    family: str
    input_channels: int
    input_hw: tuple[int, int] = (115, 108)
    outputs: int = 2
    # linear family
    fc_widths: tuple[int, ...] = (800, 400, 200)
    dropout_p: float = 0.2
    # resnet family
    stem_width: int = 32
    stage_blocks: tuple[int, ...] = (3, 3, 2, 2)
    stage_widths: tuple[int, ...] = (64, 128, 256, 512)
    head_hidden: int = 64

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.input_channels <= 0:
            raise ValueError("input_channels must be positive")
        h, w = self.input_hw
        if h <= 0 or w <= 0:
            raise ValueError(f"bad input_hw {self.input_hw}")
        if self.outputs <= 0:
            raise ValueError("outputs must be positive")
        if self.family == "linear":
            if not self.fc_widths or any(v <= 0 for v in self.fc_widths):
                raise ValueError(f"bad fc_widths {self.fc_widths}")
            if not 0.0 <= self.dropout_p < 1.0:
                raise ValueError(f"bad dropout_p {self.dropout_p}")
        else:
            if len(self.stage_blocks) != len(self.stage_widths) or not self.stage_blocks:
                raise ValueError("stage_blocks and stage_widths must be equal-length, non-empty")
            if any(b <= 0 for b in self.stage_blocks):
                raise ValueError(f"bad stage_blocks {self.stage_blocks}")
            if any(wd <= 0 or wd % 4 for wd in self.stage_widths):
                raise ValueError("stage widths must be positive multiples of 4")
            if self.stem_width <= 0 or self.head_hidden <= 0:
                raise ValueError("stem_width and head_hidden must be positive")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ArchitectureSpec":
        kv = {}
        for ln in text.strip().splitlines():
            if not ln.strip():
                continue
            if "=" not in ln:
                raise ValueError(f"bad architecture line {ln!r}")
            k, v = ln.split("=", 1)
            kv[k.strip()] = v.strip()
        known = {f.name: f for f in fields(cls)}
        unknown = set(kv) - set(known)
        if unknown:
            raise ValueError(f"unknown architecture keys {sorted(unknown)}")
        args = {}
        for name, f in known.items():
            if name in kv:  # f.type is the annotation's text
                raw = kv[name]
                args[name] = (tuple(int(x) for x in raw.split(","))
                              if f.type.startswith("tuple") else _SCALARS[f.type](raw))
        if "family" not in args or "input_channels" not in args:
            raise ValueError("architecture text must carry family and input_channels")
        return cls(**args)


@dataclass
class Conv2dLayer:
    kernel: T.Tensor  # (F, C, kh, kw)
    bias: T.Tensor    # (F,)
    stride: int
    pad: int

    @classmethod
    def new(cls, in_ch: int, out_ch: int, k: int, stride: int, pad: int,
            rng: Rng, dtype=np.float32) -> "Conv2dLayer":
        kernel = kaiming_init((out_ch, in_ch, k, k), in_ch * k * k, rng, dtype)
        bias = T.create([out_ch], 0.0, dtype=dtype, requires_grad=True)
        return cls(kernel, bias, stride, pad)


def _named_tensors(tree: dict, prefix: str = ""):
    """(name, tensor) for every tensor of a layer tree, in insertion order."""
    for key, node in tree.items():
        if isinstance(node, dict):
            yield from _named_tensors(node, f"{prefix}{key}.")
        else:
            for attr, value in vars(node).items():
                if isinstance(value, T.Tensor):
                    yield f"{prefix}{key}.{attr}", value


class Model:
    """A layer tree, its named parameters/buffers, and the mode to run it in."""

    def __init__(self, spec: ArchitectureSpec, net: dict):
        self.spec = spec
        self.net = net
        self.params: dict = {}
        self.buffers: dict = {}
        for name, t in _named_tensors(net):
            (self.params if t.requires_grad else self.buffers)[name] = t
        self.mode = "train"

    def train(self) -> "Model":
        self.mode = "train"
        return self

    def eval(self) -> "Model":
        self.mode = "eval"
        return self

    def __repr__(self):
        return (f"Model(family={self.spec.family}, params={param_count(self)}, "
                f"mode={self.mode})")


def param_count(model: Model) -> int:
    """Trainable parameter entries (buffers excluded)."""
    return int(sum(p.data.size for p in model.params.values()))


# ---------------------------------------------------------------------------
# builders

def build_model(spec: ArchitectureSpec, rng: Rng, dtype=np.float32) -> Model:
    if spec.family == "linear":
        return _build_linear(spec, rng, dtype)
    return _build_resnet(spec, rng, dtype)


def build_linear(input_channels: int, rng: Rng, *, input_hw=(115, 108),
                 fc_widths=(800, 400, 200), dropout_p=0.2, outputs=2,
                 dtype=np.float32) -> Model:
    spec = ArchitectureSpec("linear", input_channels, tuple(input_hw),
                            outputs, tuple(fc_widths), dropout_p)
    return build_model(spec, rng, dtype)


def build_resnet(input_channels: int, rng: Rng, *, input_hw=(115, 108),
                 stem_width=32, stage_blocks=(3, 3, 2, 2),
                 stage_widths=(64, 128, 256, 512), head_hidden=64, outputs=2,
                 dtype=np.float32) -> Model:
    spec = ArchitectureSpec("resnet", input_channels, tuple(input_hw), outputs,
                            stem_width=stem_width,
                            stage_blocks=tuple(stage_blocks),
                            stage_widths=tuple(stage_widths),
                            head_hidden=head_hidden)
    return build_model(spec, rng, dtype)


def _build_linear(spec: ArchitectureSpec, rng: Rng, dtype) -> Model:
    h, w = spec.input_hw
    sizes = [spec.input_channels * h * w, *spec.fc_widths, spec.outputs]
    net = {f"fc{i + 1}": LinearLayer.new(sizes[i], sizes[i + 1], rng, dtype)
           for i in range(len(sizes) - 1)}
    return Model(spec, net)


def _resnet_spatial_plan(spec: ArchitectureSpec) -> list[tuple[int, int]]:
    """(H, W) entering each stage; raises if a pool would underflow."""
    h, w = spec.input_hw
    h = (h + 2 * 3 - 7) // 2 + 1
    w = (w + 2 * 3 - 7) // 2 + 1
    dims = [(h, w)]
    for _ in range(len(spec.stage_blocks) - 1):
        if h < 2 or w < 2:
            raise ValueError(
                f"input {spec.input_hw} too small: inter-stage pool needs >=2x2, got {h}x{w}")
        h = (h - 2) // 2 + 1
        w = (w - 2) // 2 + 1
        dims.append((h, w))
    return dims


def _build_resnet(spec: ArchitectureSpec, rng: Rng, dtype) -> Model:
    _resnet_spatial_plan(spec)  # validate geometry up front

    def conv(in_ch: int, out_ch: int, k: int, stride: int, pad: int) -> Conv2dLayer:
        return Conv2dLayer.new(in_ch, out_ch, k, stride, pad, rng, dtype)

    def bn(ch: int) -> BatchNorm2d:
        return BatchNorm2d(ch, dtype=dtype)

    net = {"stem": {"conv": conv(spec.input_channels, spec.stem_width, 7, 2, 3),
                    "bn": bn(spec.stem_width)}}
    in_ch = spec.stem_width
    for si, (nblocks, width) in enumerate(zip(spec.stage_blocks, spec.stage_widths), 1):
        mid = width // 4
        stage = net[f"s{si}"] = {}
        for bi in range(1, nblocks + 1):
            blk = stage[f"b{bi}"] = {
                "conv1": conv(in_ch, mid, 1, 1, 0), "bn1": bn(mid),
                "conv2": conv(mid, mid, 3, 1, 1), "bn2": bn(mid),
                "conv3": conv(mid, width, 1, 1, 0), "bn3": bn(width)}
            if in_ch != width:
                blk["proj"] = conv(in_ch, width, 1, 1, 0)
                blk["proj_bn"] = bn(width)
            in_ch = width

    net["head"] = {"fc1": LinearLayer.new(spec.stage_widths[-1], spec.head_hidden, rng, dtype),
                   "fc2": LinearLayer.new(spec.head_hidden, spec.outputs, rng, dtype)}
    return Model(spec, net)


# ---------------------------------------------------------------------------
# forward

def model_forward(model: Model, x: T.Tensor, rng: Rng | None = None) -> T.Tensor:
    """Run a batch through the model. Train mode may draw from rng (dropout)."""
    spec = model.spec
    h, w = spec.input_hw
    if x.data.ndim != 4 or x.shape[1:] != (spec.input_channels, h, w):
        raise T.ShapeError(
            f"model expects (N,{spec.input_channels},{h},{w}), got {x.shape}")
    if spec.family == "linear":
        return _forward_linear(model, x, rng)
    return _forward_resnet(model, x)


def _forward_linear(model: Model, x: T.Tensor, rng: Rng | None) -> T.Tensor:
    spec = model.spec
    if model.mode == "train" and spec.dropout_p > 0.0 and rng is None:
        raise ValueError("train-mode forward of the linear family needs an Rng for dropout")
    n = x.shape[0]
    h = T.reshape(x, (n, spec.input_channels * spec.input_hw[0] * spec.input_hw[1]))
    for lay in model.net.values():
        h = dropout(h, spec.dropout_p, model.mode, rng)
        h = T.relu(T.linear(h, lay.weight, lay.bias))
    return h


def _conv_bn(net: dict, conv_key: str, bn_key: str, x: T.Tensor, mode: str,
             relu: bool = False) -> T.Tensor:
    """The one place a conv runs: net[conv_key], then net[bn_key] (and relu).
    Eval folds the batchnorm into the conv's kernel and bias and runs the
    conv alone; train keeps the batch statistics' own record."""
    conv, bn = net[conv_key], net[bn_key]
    if mode == "eval":
        kernel, bias = fold_batchnorm(bn, conv.kernel, conv.bias)
        return T.conv2d(x, kernel, bias, stride=conv.stride, pad=conv.pad, relu=relu)
    y = T.conv2d(x, conv.kernel, conv.bias, stride=conv.stride, pad=conv.pad)
    return batchnorm2d_forward(bn, y, mode, relu=relu)


def _block_forward(blk: dict, x: T.Tensor, mode: str) -> T.Tensor:
    h = _conv_bn(blk, "conv1", "bn1", x, mode, relu=True)
    h = _conv_bn(blk, "conv2", "bn2", h, mode, relu=True)
    h = _conv_bn(blk, "conv3", "bn3", h, mode)
    shortcut = _conv_bn(blk, "proj", "proj_bn", x, mode) if "proj" in blk else x
    return T.relu(T.add(h, shortcut))


def _forward_resnet(model: Model, x: T.Tensor) -> T.Tensor:
    mode, net = model.mode, model.net
    h = _conv_bn(net["stem"], "conv", "bn", x, mode, relu=True)
    n_stages = len(model.spec.stage_blocks)
    for si in range(1, n_stages + 1):
        for blk in net[f"s{si}"].values():
            h = _block_forward(blk, h, mode)
        if si < n_stages:
            h = T.avgpool2d(h, k=2, stride=2)
    h = T.reduce_mean(h, axes=(2, 3))          # global average pool -> (N, C)
    fc1, fc2 = net["head"]["fc1"], net["head"]["fc2"]
    h = T.relu(T.linear(h, fc1.weight, fc1.bias))
    return T.relu(T.linear(h, fc2.weight, fc2.bias))


# ---------------------------------------------------------------------------
# checkpoint files

def _write_block(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").data)


def save_checkpoint(model: Model, path) -> None:
    """Write architecture text plus every parameter and buffer as float32."""
    for name, p in {**model.params, **model.buffers}.items():
        if p.dtype != np.float32:
            raise ValueError(f"checkpoints are float32-only; {name} is {p.dtype}")
    spec_text = model.spec.to_text().encode("utf-8")
    records = list(model.params.items()) + list(model.buffers.items())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(spec_text)))
        fh.write(spec_text)
        fh.write(struct.pack("<I", len(records)))
        for name, p in records:
            _write_block(fh, name, p.data)


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def _read_exact(fh, n: int) -> bytes:
    b = fh.read(n)
    if len(b) != n:
        raise CheckpointError("truncated checkpoint")
    return b


class _NoDraws:
    """Stands in for the builders' Rng when every tensor is about to be
    overwritten: it hands out uninitialized arrays and draws nothing."""

    def normal(self, shape, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        return np.empty(tuple(shape), dtype=dtype)

    def uniform(self, shape, low: float, high: float, dtype=np.float32) -> np.ndarray:
        return np.empty(tuple(shape), dtype=dtype)


def load_checkpoint(path) -> Model:
    """Rebuild the model skeleton from the stored architecture, then fill
    every tensor by name. Returns the model in eval mode.

    The skeleton's weights start uninitialized (no random init is drawn);
    the missing-tensor check guarantees that every one is overwritten."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (spec_len,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            spec = ArchitectureSpec.from_text(_read_exact(fh, spec_len).decode("utf-8"))
        except ValueError as e:
            raise CheckpointError(f"{path}: {e}") from e
        model = build_model(spec, _NoDraws())
        slots = {**model.params, **model.buffers}
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        seen = set()
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4))
            name = _read_exact(fh, nlen).decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
            if name not in slots:
                raise CheckpointError(f"{path}: unknown tensor {name!r}")
            if name in seen:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            if tuple(shape) != slots[name].shape:
                raise CheckpointError(
                    f"{path}: {name} stored {tuple(shape)}, model wants {slots[name].shape}")
            slot = slots[name].data
            if fh.readinto(slot) != slot.nbytes:  # float32 straight into its slot
                raise CheckpointError("truncated checkpoint")
            if not np.little_endian:  # the file is little-endian
                slot.byteswap(inplace=True)
            seen.add(name)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes")
    missing = set(slots) - seen
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)[:4]}")
    return model.eval()
