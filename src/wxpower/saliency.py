"""Input-gradient saliency maps and their file exports.

A map answers "which pixels move this output": run one sample through the
model, backpropagate from a single output (solar or wind), and keep the
per-pixel maximum over channels of the absolute input gradient. Maps are
computed in eval mode so repeated calls give identical answers.
"""

from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import tensor as T
from .models import Model, model_forward


@dataclass
class SaliencyMap:
    values: np.ndarray              # (H, W) floats, all >= 0
    source: str                     # "solar" or "wind"
    timestamp: str = ""             # sample hour, if known
    mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError(f"map must be 2-d, got shape {self.values.shape}")
        if self.source not in D.SOURCES:
            raise ValueError(f"source must be one of {D.SOURCES}")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValueError("mask shape differs from map shape")


def saliency_map(model: Model, x, output_index: int, *, timestamp: str = "",
                 mask=None) -> SaliencyMap:
    """Gradient saliency of one output w.r.t. one input sample.

    `x` is a single sample shaped (1, C, H, W) (Tensor or array). The model
    runs in eval mode (restored afterwards); parameters are left untouched,
    with any gradients the backward pass deposited cleared before returning.
    """
    if output_index not in (0, 1):
        raise ValueError(f"output_index must be 0 (solar) or 1 (wind), got {output_index}")
    dtype = next(iter(model.params.values())).data.dtype
    data = np.asarray(x.data if isinstance(x, T.Tensor) else x, dtype=dtype)
    if data.ndim != 4 or data.shape[0] != 1:
        raise ValueError(f"expected one sample shaped (1,C,H,W), got {data.shape}")

    inp = T.Tensor(np.ascontiguousarray(data), requires_grad=True)
    prev_mode = model.mode
    model.eval()
    try:
        with T.Tape() as tape:
            pred = model_forward(model, inp)
            seed = T.create(pred.shape, 0.0, dtype=pred.data.dtype)
            seed.data[0, output_index] = 1.0
            T.backward(tape, seed)
    finally:
        if prev_mode == "train":
            model.train()
    T.clear_grads(model.params.values())

    values = np.max(np.abs(inp.grad[0]), axis=0)
    return SaliencyMap(values, D.SOURCES[output_index],
                       timestamp=timestamp, mask=mask)


def top_k_indices(smap: SaliencyMap, k: int) -> list[tuple[int, int]]:
    """The k highest-valued pixels as (row, col), strongest first."""
    if not 1 <= k <= smap.values.size:
        raise ValueError(f"k must be in [1, {smap.values.size}], got {k}")
    flat = np.argsort(smap.values, axis=None, kind="stable")[::-1][:k]
    h, w = smap.values.shape
    return [(int(i // w), int(i % w)) for i in flat]


# ---------------------------------------------------------------------------
# export

def export_map(smap: SaliencyMap, path, fmt: str) -> None:
    """Write a map to disk.

    csv: one image row per line, raw values printed with enough digits to
    round-trip 32-bit floats. pgm: binary 8-bit grayscale (P5), linearly
    rescaled so the max value maps to 255; an all-zero map stays all zero.
    The header comment records the rescale factor and, when the map carries
    a corner mask, how many pixels it covers.
    """
    if not np.isfinite(smap.values).all():
        raise ValueError("refusing to export a map with non-finite values")
    if fmt == "csv":
        _export_csv(smap, path)
    elif fmt == "pgm":
        _export_pgm(smap, path)
    else:
        raise ValueError(f"format must be 'csv' or 'pgm', got {fmt!r}")


def _export_csv(smap: SaliencyMap, path) -> None:
    D.save_text(path, "".join(",".join(f"{float(v):.9g}" for v in row) + "\n"
                              for row in smap.values))


def _export_pgm(smap: SaliencyMap, path) -> None:
    h, w = smap.values.shape
    top = float(smap.values.max()) if smap.values.size else 0.0
    if top > 0.0:
        pix = np.rint(smap.values / top * 255.0).astype(np.uint8)
    else:
        pix = np.zeros((h, w), dtype=np.uint8)
    comment = f"# {smap.source} saliency; 255 = {top:.9g}"
    if smap.timestamp:
        comment += f"; sample {smap.timestamp}"
    if smap.mask is not None:
        comment += f"; corner mask covers {int(smap.mask.sum())} px"
    header = f"P5\n{comment}\n{w} {h}\n255\n"
    with D.replace_file(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(pix.tobytes())
