"""Input-gradient saliency maps and their file exports.

A map answers "which pixels move this output": run one sample through the
model, backpropagate from a single output (solar or wind), and keep the
per-pixel maximum over channels of the absolute input gradient. Maps are
computed in eval mode so repeated calls give identical answers.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .models import Model, model_forward

OUTPUT_NAMES = ("solar", "wind")


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
        if self.source not in OUTPUT_NAMES:
            raise ValueError(f"source must be one of {OUTPUT_NAMES}")
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
    grad = inp.grad if inp.grad is not None else np.zeros_like(data)
    T.clear_grads(model.params.values())

    values = np.max(np.abs(grad[0]), axis=0)
    return SaliencyMap(values, OUTPUT_NAMES[output_index],
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
    with open(path, "w", newline="") as fh:
        for row in smap.values:
            fh.write(",".join(f"{float(v):.9g}" for v in row))
            fh.write("\n")


def load_map_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([np.float32(v) for v in line.split(",")])
    return np.array(rows, dtype=np.float32)


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
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pix.tobytes())


def load_map_pgm(path) -> np.ndarray:
    """Read back a P5 file written by export_map (scaled bytes, not floats)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise ValueError(f"{path} is not a binary PGM")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"expected 8-bit PGM, maxval {maxval}")
    pix = np.frombuffer(blob, dtype=np.uint8, count=h * w, offset=pos)
    return pix.reshape(h, w).copy()
