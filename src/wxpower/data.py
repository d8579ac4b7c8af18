"""Data pipeline: weather cubes, power series, alignment, splits, batches.

The pipeline runs raw inputs to model-ready samples:

    frame files -> WeatherCube -> coarsen -> normalize (masked pixels = 0)
    5-min power CSV -> hourly PowerSeries (quality-flagged)
    cube x power -> AlignedDataset -> split -> stacked samples -> batches

A cube is (T, C, H, W) float32 with hourly timestamps, named bands, and a
static bool mask of dead pixels (sensor holes, cut map corners). Masked
pixels are exactly 0 after normalization. The synthetic generator at the
bottom fabricates physically plausible cubes plus a matching 5-minute
power feed with a known plant layout, so end-to-end behaviour can be
tested against a ground truth.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import tensor as T

BANDS = ("pressure", "temperature", "humidity",
         "wind_speed", "wind_direction", "cloud_cover")
WIND_DIRECTION_BAND = "wind_direction"
SOURCES = ("solar", "wind")

CUBE_MAGIC = b"WXC1"
CUBE_VERSION = 1
_FLAG_NORMALIZED = 1

HOUR = np.timedelta64(1, "h")

# float64 values per working block in fit_normalizer and apply_normalizer:
# their working set is one block (16 MB), not the whole cube
_CHUNK_VALUES = 1 << 21

STACK_CHOICES = (1, 5)
# stack=5 feeds the model the five hours preceding the target hour,
# oldest first; the target hour's own frame is not part of the input.
# Each stack's offsets are consecutive, so its frames are one cube slice.
STACK_OFFSETS = {1: (0,), 5: (-5, -4, -3, -2, -1)}


class DataError(ValueError):
    """Malformed input data or an unsatisfiable data request."""


def parse_timestamp(text: str) -> np.datetime64:
    try:
        ts = np.datetime64(text.strip(), "s")
    except ValueError as e:
        raise DataError(f"bad timestamp {text!r}") from e
    if np.isnat(ts):
        raise DataError(f"bad timestamp {text!r}")
    return ts


def format_timestamp(ts: np.datetime64) -> str:
    return np.datetime_as_string(ts.astype("datetime64[s]"))


# ---------------------------------------------------------------------------
# weather cube

class WeatherCube:
    """Hourly multi-band weather maps with a static dead-pixel mask."""

    def __init__(self, frames: np.ndarray, timestamps, bands, mask: np.ndarray,
                 normalized: bool = False):
        frames = np.ascontiguousarray(frames, dtype=np.float32)
        if frames.ndim != 4:
            raise DataError(f"cube frames must be (T,C,H,W), got {frames.shape}")
        t, c, h, w = frames.shape
        ts = np.asarray(timestamps, dtype="datetime64[s]")
        if ts.shape != (t,):
            raise DataError(f"{t} frames but {ts.shape} timestamps")
        if t > 1 and not (ts[1:] > ts[:-1]).all():
            raise DataError("timestamps must be strictly increasing")
        bands = tuple(str(b) for b in bands)
        if len(bands) != c:
            raise DataError(f"{c} channels but {len(bands)} band names")
        if len(set(bands)) != c:
            raise DataError("duplicate band names")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (h, w):
            raise DataError(f"mask shape {mask.shape} != frame {h}x{w}")
        self.frames = frames
        self.timestamps = ts
        self.bands = bands
        self.mask = mask
        self.normalized = bool(normalized)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.frames.shape

    def band_index(self, name: str) -> int:
        try:
            return self.bands.index(name)
        except ValueError:
            raise DataError(f"cube has no band {name!r}") from None


def corner_mask(h: int, w: int, radius: int) -> np.ndarray:
    """Triangular cutouts: (i, j) is masked when its L1 distance to a
    corner is below radius (radius 0 masks nothing)."""
    if radius < 0:
        raise DataError(f"corner radius must be >= 0, got {radius}")
    i = np.arange(h)[:, None]
    j = np.arange(w)[None, :]
    return ((i + j < radius)
            | (i + (w - 1 - j) < radius)
            | ((h - 1 - i) + j < radius)
            | ((h - 1 - i) + (w - 1 - j) < radius))


# ---------------------------------------------------------------------------
# frame-file import

def load_frames(manifest_path, frames_dir=None) -> WeatherCube:
    """Build a raw cube from a manifest CSV of per-hour frame files.

    Manifest columns: timestamp, path, height, width, channels. Paths are
    taken relative to frames_dir (default: the manifest's directory).
    Frame files hold channels*height*width float32 little-endian values,
    channel-major. Pixels that are NaN in any frame/band join the static
    mask and read as 0 in the raw cube; a +-inf value is an error. Each
    frame is checked and cleaned as it is read, so the cube is the only
    full-size array.
    """
    base = frames_dir if frames_dir is not None else os.path.dirname(os.fspath(manifest_path))
    rows = []
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "path", "height", "width", "channels"]:
            raise DataError(f"{manifest_path}: manifest header must be timestamp,path,height,width,channels")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise DataError(f"{manifest_path}:{lineno}: expected 5 columns, got {len(row)}")
            ts = parse_timestamp(row[0])
            try:
                h, w, c = int(row[2]), int(row[3]), int(row[4])
            except ValueError as e:
                raise DataError(f"{manifest_path}:{lineno}: bad extents") from e
            if min(h, w, c) < 1:
                raise DataError(f"{manifest_path}:{lineno}: extents {h}x{w}x{c} must be positive")
            rows.append((ts, row[1].strip(), h, w, c))
    if not rows:
        raise DataError(f"{manifest_path}: no frames listed")
    rows.sort(key=lambda r: r[0])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise DataError(f"duplicate frame timestamp {format_timestamp(a[0])}")
    h0, w0, c0 = rows[0][2], rows[0][3], rows[0][4]
    for ts, _, h, w, c in rows:
        if (h, w, c) != (h0, w0, c0):
            raise DataError(f"frame {format_timestamp(ts)} extents {h}x{w}x{c} differ from {h0}x{w0}x{c0}")
    if c0 != len(BANDS):
        raise DataError(f"expected {len(BANDS)} channels, manifest says {c0}")

    frames = np.empty((len(rows), c0, h0, w0), dtype=np.float32)
    mask = np.zeros((h0, w0), dtype=bool)
    for i, (ts, rel, h, w, c) in enumerate(rows):
        path = os.path.join(base, rel)
        try:
            raw = np.fromfile(path, dtype="<f4")
        except OSError as e:
            raise DataError(f"cannot read frame file {path}: {e}") from e
        if raw.size != c * h * w:
            raise DataError(f"{path}: has {raw.size} values, expected {c * h * w}")
        frame = frames[i]
        frame[...] = raw.reshape(c, h, w)
        bad = ~np.isfinite(frame)
        if bad.any():
            if np.isinf(frame).any():
                raise DataError(f"{path}: frame holds +-inf")
            mask |= bad.any(axis=0)
            frame[bad] = 0.0
    ts = np.array([r[0] for r in rows], dtype="datetime64[s]")
    return WeatherCube(frames, ts, BANDS, mask)


# ---------------------------------------------------------------------------
# coarsening

def coarsen(cube: WeatherCube, factor: int) -> WeatherCube:
    """Block-average each frame by `factor`, skipping masked pixels.

    A coarse pixel is the mean of its block's unmasked pixels; blocks that
    are fully masked stay masked (value 0). The wind-direction band uses
    the circular mean so 350 and 10 average to 0, not 180.
    """
    if factor < 1:
        raise DataError(f"coarsen factor must be >= 1, got {factor}")
    if factor == 1:
        return cube
    t, c, h, w = cube.shape
    if h % factor or w % factor:
        raise DataError(f"extents {h}x{w} not divisible by factor {factor}")
    hc, wc = h // factor, w // factor
    keep = ~cube.mask
    keep_blocks = keep.reshape(hc, factor, wc, factor)
    counts = keep_blocks.sum(axis=(1, 3)).astype(np.float64)      # (hc, wc)
    out_mask = counts == 0
    denom = np.maximum(counts, 1.0)

    try:
        dir_band = cube.band_index(WIND_DIRECTION_BAND)
    except DataError:
        dir_band = -1

    out = np.empty((t, c, hc, wc), dtype=np.float32)
    keep_f = keep.astype(np.float64)
    for ti in range(t):  # frame at a time keeps peak memory small
        frame = cube.frames[ti].astype(np.float64)
        for ci in range(c):
            if ci == dir_band:
                rad = np.deg2rad(frame[ci])
                ux = (np.cos(rad) * keep_f).reshape(hc, factor, wc, factor).sum(axis=(1, 3))
                uy = (np.sin(rad) * keep_f).reshape(hc, factor, wc, factor).sum(axis=(1, 3))
                deg = np.rad2deg(np.arctan2(uy / denom, ux / denom)) % 360.0
                out[ti, ci] = np.where(out_mask, 0.0, deg)
            else:
                s = (frame[ci] * keep_f).reshape(hc, factor, wc, factor).sum(axis=(1, 3))
                out[ti, ci] = np.where(out_mask, 0.0, s / denom)
    return WeatherCube(out, cube.timestamps, cube.bands, out_mask,
                       normalized=cube.normalized)


# ---------------------------------------------------------------------------
# normalization

@dataclass(frozen=True)
class NormalizerStats:
    bands: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for b, m, s in zip(self.bands, self.means, self.stds):
                fh.write(f"{b}={m!r},{s!r}\n")

    @classmethod
    def load(cls, path) -> "NormalizerStats":
        bands, means, stds = [], [], []
        with open(path) as fh:
            for lineno, ln in enumerate(fh, 1):
                ln = ln.strip()
                if not ln:
                    continue
                try:
                    band, rest = ln.split("=", 1)
                    m, s = rest.split(",")
                    means.append(float(m))
                    stds.append(float(s))
                    bands.append(band)
                except ValueError as e:
                    raise DataError(f"{path}:{lineno}: bad stats line {ln!r}") from e
        if not bands:
            raise DataError(f"{path}: empty stats file")
        return cls(tuple(bands), tuple(means), tuple(stds))


def fit_normalizer(cube: WeatherCube) -> NormalizerStats:
    """Per-band mean/std over every frame's unmasked pixels (float64).

    Two passes (sum, then sum of squared deviations) stream over blocks of
    pixels, so only one block is ever held in float64. A block is laid out
    (pixel, time, band) behind one leading slot that carries the running
    total and is otherwise -0.0, which leaves a sum unchanged. numpy then
    adds every value in the order of the whole-cube
    `frames[:, :, keep].astype(float64).mean(axis=(0, 2))` and `.std()`,
    so the statistics, and the normalized cube, are bit-identical to it.
    A band with ~zero spread keeps std 1.0 so normalization is a pure shift.
    """
    keep = np.flatnonzero(~cube.mask)
    if not keep.size:
        raise DataError("cannot fit normalizer: every pixel is masked")
    t, c = cube.shape[:2]
    if not t:
        raise DataError("cannot fit normalizer: the cube has no frames")
    flat = cube.frames.reshape(t, c, -1)
    step = max(1, _CHUNK_VALUES // max(1, t * c))
    n = t * keep.size

    def band_sums(shift):
        total = np.full(c, -0.0)
        for lo in range(0, keep.size, step):
            pixels = keep[lo:lo + step]
            block = np.empty((pixels.size + 1, t, c))
            block[0] = -0.0
            block[0, 0] = total
            vals = block[1:]
            vals[...] = np.take(flat, pixels, axis=2).transpose(2, 0, 1)
            if shift is not None:
                vals -= shift
                np.square(vals, out=vals)
            total = block.sum(axis=(0, 1))
        return total

    means = band_sums(None) / n
    stds = np.sqrt(band_sums(means) / n)
    stds = np.where(stds < 1e-12, 1.0, stds)
    return NormalizerStats(cube.bands, tuple(float(m) for m in means),
                           tuple(float(s) for s in stds))


def apply_normalizer(cube: WeatherCube, stats: NormalizerStats) -> WeatherCube:
    """Center/scale each band of `cube` in place and return `cube`, now
    marked normalized; masked pixels come out exactly 0.

    The shift happens in float64, one time chunk at a time: subtracting a
    large offset (pressure sits near 1e5) in float32 would leave
    quantization residue well above the 1e-5 post-normalization mean bound.
    """
    if stats.bands != cube.bands:
        raise DataError(f"stats bands {stats.bands} != cube bands {cube.bands}")
    means = np.array(stats.means)[:, None, None]
    stds = np.array(stats.stds)[:, None, None]
    frames = cube.frames
    step = max(1, _CHUNK_VALUES // max(1, np.prod(cube.shape[1:])))
    for lo in range(0, cube.shape[0], step):
        hi = lo + step
        chunk = frames[lo:hi].astype(np.float64)
        chunk -= means
        chunk /= stds
        frames[lo:hi] = chunk
        frames[lo:hi, :, cube.mask] = 0.0
    cube.normalized = True
    return cube


# ---------------------------------------------------------------------------
# cube container file

def save_cube(cube: WeatherCube, path) -> None:
    t, c, h, w = cube.shape
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        flags = _FLAG_NORMALIZED if cube.normalized else 0
        fh.write(struct.pack("<6I", CUBE_VERSION, flags, t, c, h, w))
        for b in cube.bands:
            eb = b.encode("utf-8")
            fh.write(struct.pack("<I", len(eb)))
            fh.write(eb)
        fh.write(np.packbits(cube.mask.reshape(-1)).tobytes())
        for ts in cube.timestamps:
            et = format_timestamp(ts).encode("utf-8")
            fh.write(struct.pack("<I", len(et)))
            fh.write(et)
        fh.write(np.ascontiguousarray(cube.frames, dtype="<f4").data)


def _need(fh, n: int, path) -> bytes:
    b = fh.read(n)
    if len(b) != n:
        raise DataError(f"{path}: truncated cube file")
    return b


def load_cube(path) -> WeatherCube:
    with open(path, "rb") as fh:
        if _need(fh, 4, path) != CUBE_MAGIC:
            raise DataError(f"{path}: not a cube file")
        version, flags, t, c, h, w = struct.unpack("<6I", _need(fh, 24, path))
        if version != CUBE_VERSION:
            raise DataError(f"{path}: unsupported cube version {version}")
        bands = []
        for _ in range(c):
            (ln,) = struct.unpack("<I", _need(fh, 4, path))
            bands.append(_need(fh, ln, path).decode("utf-8"))
        nbits = h * w
        mask_bytes = _need(fh, (nbits + 7) // 8, path)
        mask = np.unpackbits(np.frombuffer(mask_bytes, dtype=np.uint8))[:nbits]
        mask = mask.astype(bool).reshape(h, w)
        stamps = []
        for _ in range(t):
            (ln,) = struct.unpack("<I", _need(fh, 4, path))
            stamps.append(parse_timestamp(_need(fh, ln, path).decode("utf-8")))
        frames = np.fromfile(fh, dtype="<f4", count=t * c * h * w)
        if frames.size != t * c * h * w:
            raise DataError(f"{path}: truncated cube file")
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes")
    return WeatherCube(frames.reshape(t, c, h, w), stamps, bands, mask,
                       normalized=bool(flags & _FLAG_NORMALIZED))


# ---------------------------------------------------------------------------
# power series

@dataclass
class PowerSeries:
    """Hourly regional production per source, with per-hour quality flags."""

    timestamps: np.ndarray          # datetime64[s], contiguous hourly
    solar: np.ndarray               # (T,) float64, MW
    wind: np.ndarray                # (T,) float64, MW
    flags: list                     # list[set[str]], len T

    def __post_init__(self):
        t = len(self.timestamps)
        if not (len(self.solar) == len(self.wind) == len(self.flags) == t):
            raise DataError("power series arrays disagree on length")
        if t == 0:
            raise DataError("empty power series")
        deltas = np.diff(self.timestamps)
        if t > 1 and not (deltas == HOUR).all():
            raise DataError("power series hours must be contiguous")

    def source(self, name: str) -> np.ndarray:
        if name not in SOURCES:
            raise DataError(f"unknown source {name!r}")
        return self.solar if name == "solar" else self.wind


def aggregate_power(src) -> PowerSeries:
    """Hourly means from a 5-minute power CSV (timestamp, source, mw).

    Each clock hour's value is the mean of its (up to 12) readings for that
    source. The hour axis is the contiguous range from the first to the
    last observed hour; hours a source never reported get 0.0 plus a
    "<source>_missing" flag, and hours with 1-11 readings get
    "<source>_partial". Rows with unknown sources are ignored. `src` is a
    path, or the CSV text itself (a str with a newline).
    """
    with (io.StringIO(src) if isinstance(src, str) and "\n" in src
          else open(src, newline="")) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp", "source", "mw"]:
            raise DataError("power CSV header must be timestamp,source,mw")
        # keyed by whole hours since the epoch, floored (pre-1970 included)
        readings: dict[str, dict[int, list[float]]] = {s: {} for s in SOURCES}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise DataError(f"power CSV line {lineno}: expected 3 columns")
            name = row[1].strip()
            if name not in SOURCES:
                continue
            ts = parse_timestamp(row[0])
            try:
                mw = float(row[2])
            except ValueError as e:
                raise DataError(f"power CSV line {lineno}: bad mw {row[2]!r}") from e
            if not np.isfinite(mw):
                raise DataError(f"power CSV line {lineno}: non-finite mw")
            hour = int(ts.view(np.int64)) // 3600
            readings[name].setdefault(hour, []).append(mw)

    all_hours = [h for per in readings.values() for h in per]
    if not all_hours:
        raise DataError("power CSV has no usable rows")
    first, last = min(all_hours), max(all_hours)
    n = last - first + 1
    stamps = (np.arange(first, last + 1, dtype=np.int64) * 3600).astype("datetime64[s]")
    cols = {s: np.zeros(n, dtype=np.float64) for s in SOURCES}
    flags: list = [set() for _ in range(n)]
    for name in SOURCES:
        per = readings[name]
        for i in range(n):
            vals = per.get(first + i)
            if not vals:
                flags[i].add(f"{name}_missing")
            else:
                cols[name][i] = float(np.mean(vals))
                if len(vals) < 12:
                    flags[i].add(f"{name}_partial")
    return PowerSeries(stamps, cols["solar"], cols["wind"], flags)


@dataclass(frozen=True)
class ConstantRun:
    source: str
    start: np.datetime64
    end: np.datetime64      # inclusive
    value: float
    length: int


def detect_constant_runs(power: PowerSeries, source: str,
                         min_len: int = 6) -> list[ConstantRun]:
    """Flag suspiciously constant nonzero output.

    Returns runs of >= min_len consecutive hours reporting the exact same
    nonzero value, and adds a "<source>_constant" flag to each covered
    hour. Exact-zero runs are ignored: zero output is a normal idle state
    (every solar night), while a frozen sensor repeats a nonzero level.
    """
    if min_len < 2:
        raise DataError(f"min_len must be >= 2, got {min_len}")
    vals = power.source(source)
    runs: list[ConstantRun] = []
    t = len(vals)
    i = 0
    while i < t:
        j = i + 1
        while j < t and vals[j] == vals[i]:
            j += 1
        if j - i >= min_len and vals[i] != 0.0:
            runs.append(ConstantRun(source, power.timestamps[i],
                                    power.timestamps[j - 1],
                                    float(vals[i]), j - i))
            for k in range(i, j):
                power.flags[k].add(f"{source}_constant")
        i = j
    return runs


def save_power(power: PowerSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["timestamp", "solar_mw", "wind_mw", "flags"])
        for i, ts in enumerate(power.timestamps):
            wr.writerow([format_timestamp(ts), repr(float(power.solar[i])),
                         repr(float(power.wind[i])), ";".join(sorted(power.flags[i]))])


def load_power(path) -> PowerSeries:
    stamps, solar, wind, flags = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["timestamp", "solar_mw", "wind_mw", "flags"]:
            raise DataError(f"{path}: bad hourly power header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 columns")
            stamps.append(parse_timestamp(row[0]))
            try:
                solar.append(float(row[1]))
                wind.append(float(row[2]))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: bad value") from e
            if not (np.isfinite(solar[-1]) and np.isfinite(wind[-1])):
                raise DataError(f"{path}:{lineno}: non-finite mw")
            flags.append(set(f for f in row[3].split(";") if f))
    if not stamps:
        raise DataError(f"{path}: empty power file")
    return PowerSeries(np.array(stamps, dtype="datetime64[s]"),
                       np.array(solar), np.array(wind), flags)


# ---------------------------------------------------------------------------
# alignment and samples

def frame_window(cube: WeatherCube, ci: int, stack: int) -> slice | None:
    """The slice of cube frames that forms the input for target frame ci,
    or None when one of them is missing.

    Each frame is checked against its own hour, not only the window's span:
    cube timestamps need not be hourly, so a window whose ends lie the
    right hours apart can still hold a half-hour stamp.
    """
    _check_stack(stack)
    offsets = STACK_OFFSETS[stack]
    lo, hi = ci + offsets[0], ci + offsets[-1] + 1
    ts = cube.timestamps
    if (lo < 0 or hi > len(ts)
            or not (ts[lo:hi] == ts[ci] + np.asarray(offsets) * HOUR).all()):
        return None
    return slice(lo, hi)


def stacked_input(cube: WeatherCube, ci: int, stack: int) -> np.ndarray:
    """The (stack*C, H, W) model input for target frame ci, oldest frame
    first: a view of the cube's frames, not a copy."""
    window = frame_window(cube, ci, stack)
    if window is None:
        raise DataError(f"frame {format_timestamp(cube.timestamps[ci])} lacks "
                        f"an hour-contiguous {stack}-frame input window")
    return cube.frames[window].reshape(-1, *cube.shape[2:])


class AlignedDataset:
    """Cube frames paired with power targets on their common hours."""

    def __init__(self, cube: WeatherCube, power: PowerSeries):
        # both stamp arrays are validated strictly increasing, so unique
        _, self.cube_idx, self.power_idx = np.intersect1d(
            cube.timestamps, power.timestamps, assume_unique=True, return_indices=True)
        n = len(self.cube_idx)
        if not n:
            raise DataError("cube and power series share no timestamps")
        self.cube = cube
        self.power = power
        self.timestamps = cube.timestamps[self.cube_idx]
        self.dropped_cube = cube.shape[0] - n
        self.dropped_power = len(power.timestamps) - n

    def __len__(self) -> int:
        return len(self.cube_idx)

    def _check_ids(self, ids: np.ndarray) -> None:
        # numpy would read a negative id from the end: another hour
        bad = ids[(ids < 0) | (ids >= len(self))]
        if bad.size:
            raise DataError(f"sample ids {bad[:5].tolist()} outside 0..{len(self) - 1}")

    def targets(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=int)
        self._check_ids(ids)
        return np.stack([self.power.solar[self.power_idx[ids]],
                         self.power.wind[self.power_idx[ids]]], axis=1)

    def input_channels(self, stack: int) -> int:
        _check_stack(stack)
        return self.cube.shape[1] * len(STACK_OFFSETS[stack])

    def eligible_indices(self, stack: int) -> list[int]:
        """Sample ids whose full input window exists hour-contiguously."""
        return [i for i, ci in enumerate(self.cube_idx)
                if frame_window(self.cube, int(ci), stack) is not None]

    def sample_input(self, i: int, stack: int) -> np.ndarray:
        self._check_ids(np.array([i]))
        return stacked_input(self.cube, int(self.cube_idx[i]), stack)

    def make_sample(self, i: int, stack: int) -> tuple[T.Tensor, np.ndarray]:
        x = T.Tensor(self.sample_input(i, stack).copy())
        return x, self.targets([i])[0]

    def make_batch(self, ids, stack: int) -> tuple[T.Tensor, T.Tensor]:
        if len(ids) == 0:
            raise DataError("empty batch")
        xs = np.stack([self.sample_input(i, stack) for i in ids])
        ys = self.targets(ids).astype(np.float32)
        return T.Tensor(xs), T.Tensor(ys)


def _check_stack(stack: int) -> None:
    if stack not in STACK_CHOICES:
        raise DataError(f"stack must be one of {STACK_CHOICES}, got {stack}")


def align(cube: WeatherCube, power: PowerSeries) -> AlignedDataset:
    return AlignedDataset(cube, power)


# ---------------------------------------------------------------------------
# splits

@dataclass(frozen=True)
class SplitIndices:
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]
    seed: int
    stack: int

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"seed={self.seed}\n")
            fh.write(f"stack={self.stack}\n")
            for name in ("train", "val", "test"):
                ids = getattr(self, name)
                fh.write(f"{name}={','.join(str(i) for i in ids)}\n")

    @classmethod
    def load(cls, path) -> "SplitIndices":
        kv = {}
        with open(path) as fh:
            for ln in fh:
                ln = ln.strip()
                if not ln:
                    continue
                if "=" not in ln:
                    raise DataError(f"{path}: bad split line {ln!r}")
                k, v = ln.split("=", 1)
                kv[k] = v
        try:
            parts = {name: tuple(int(x) for x in kv[name].split(",") if x)
                     for name in ("train", "val", "test")}
            out = cls(parts["train"], parts["val"], parts["test"],
                      int(kv["seed"]), int(kv["stack"]))
        except (KeyError, ValueError) as e:
            raise DataError(f"{path}: malformed split file") from e
        _check_stack(out.stack)
        all_ids = out.train + out.val + out.test
        if len(set(all_ids)) != len(all_ids):
            raise DataError(f"{path}: split groups overlap")
        return out


def split_indices(eligible, seed: int, stack: int) -> SplitIndices:
    """Shuffle eligible sample ids and cut 80/10/10 (train/val/test).

    `eligible` is either the list of usable sample ids or the total sample
    count n, in which case the ids run from the first hour with a full
    input window (0 at stack=1, 5 at stack=5) up to n. The holdout is
    2n//10 ids; validation takes its ceil-half, test its floor-half, so
    train = n - 2n//10.
    """
    _check_stack(stack)
    if isinstance(eligible, (int, np.integer)):
        ids = list(range(-STACK_OFFSETS[stack][0], int(eligible)))
    else:
        ids = [int(i) for i in eligible]
        if len(set(ids)) != len(ids):
            raise DataError("eligible ids contain duplicates")
    n = len(ids)
    if n < 10:
        raise DataError(f"need at least 10 eligible samples to split, got {n}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    perm = np.random.Generator(np.random.PCG64(int(seed))).permutation(n)
    shuffled = [ids[p] for p in perm]
    holdout = 2 * n // 10
    n_test = holdout // 2
    n_val = holdout - n_test
    n_train = n - holdout
    train = tuple(sorted(shuffled[:n_train]))
    val = tuple(sorted(shuffled[n_train:n_train + n_val]))
    test = tuple(sorted(shuffled[n_train + n_val:]))
    return SplitIndices(train, val, test, int(seed), stack)


def iter_batches(ids, batch_size: int, seed: int, epoch: int):
    """Yield the ids in deterministic shuffled chunks, keyed by (seed, epoch)."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    ids = list(ids)
    gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((int(seed), int(epoch))).generate_state(4)))
    perm = gen.permutation(len(ids))
    for lo in range(0, len(ids), batch_size):
        yield [ids[p] for p in perm[lo:lo + batch_size]]


# ---------------------------------------------------------------------------
# synthetic scenes

@dataclass(frozen=True)
class SynthConfig:
    """A synthetic scene's grid, hours, plants, noise and seed. Its physics
    is fixed: hours from 2019-01-01T00:00, 2 MW per solar plant pixel at
    clear-sky noon, 1 MW per wind plant pixel at rated speed, and wind
    cut-in, rated and cut-out speeds of 3, 12 and 25 m/s. The grid must hold
    every plant off its corner mask: the default plants need 19x19."""

    height: int = 24
    width: int = 24
    n_hours: int = 240
    solar_plants: tuple = ((6, 6), (6, 7), (12, 16), (13, 16), (18, 5))
    wind_plants: tuple = ((4, 18), (5, 18), (16, 9), (17, 9))
    noise_mw: float = 0.0
    corner_radius: int = 3
    seed: int = 0

    start: ClassVar[str] = "2019-01-01T00:00:00"
    solar_scale: ClassVar[float] = 2.0
    wind_scale: ClassVar[float] = 1.0
    wind_cut_in: ClassVar[float] = 3.0
    wind_rated: ClassVar[float] = 12.0
    wind_cut_out: ClassVar[float] = 25.0

    def __post_init__(self):
        if self.n_hours < 1:
            raise DataError("n_hours must be >= 1")
        if not self.solar_plants or not self.wind_plants:
            raise DataError("need at least one plant per source")
        # the grid's only size limit: it holds every plant off its mask
        h, w = self.height, self.width
        mask = corner_mask(h, w, self.corner_radius)
        for src, plants in (("solar", self.solar_plants), ("wind", self.wind_plants)):
            for (pi, pj) in plants:
                if not (0 <= pi < h and 0 <= pj < w):
                    raise DataError(f"{src} plant {(pi, pj)} outside {h}x{w} grid")
                if mask[pi, pj]:
                    raise DataError(f"{src} plant {(pi, pj)} sits on a masked pixel")
        if self.noise_mw < 0:
            raise DataError("noise must be nonnegative")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")


@dataclass
class SynthResult:
    cube: WeatherCube               # raw physical values, corner-masked
    power_csv: str                  # 5-minute cadence feed for aggregation
    solar_truth: np.ndarray         # (T,) hourly MW
    wind_truth: np.ndarray
    plant_masks: dict               # source -> bool (H, W)


def _smooth_fields(gen, t: int, h: int, w: int) -> np.ndarray:
    """Sum of low-frequency travelling waves plus fine per-pixel texture.

    The waves carry the synoptic-scale structure; the texture term adds
    independent small-scale variation to every pixel, without which all
    pixels in a band would live in a tiny linear subspace and no method
    could tell a plant pixel from its neighbors. Roughly unit variance.
    """
    n_modes = 6
    texture = 0.3  # spread of the per-pixel texture
    tt = np.arange(t, dtype=np.float64)[:, None, None]
    yy = np.arange(h, dtype=np.float64)[None, :, None]
    xx = np.arange(w, dtype=np.float64)[None, None, :]
    out = np.zeros((t, h, w))
    arg = np.empty_like(out)  # each term is built in this one buffer
    for _ in range(n_modes):
        amp = gen.normal(0.0, 1.0) / np.sqrt(n_modes / 2.0)
        kx = gen.integers(1, 4)
        ky = gen.integers(1, 4)
        om = gen.uniform(0.2, 1.5) * gen.choice((-1.0, 1.0))
        ph = gen.uniform(0.0, 2 * np.pi)
        np.add(kx * xx / w + ky * yy / h, om * tt / 24.0, out=arg)
        arg *= 2 * np.pi
        arg += ph
        np.cos(arg, out=arg)
        arg *= amp
        out += arg
    gen.standard_normal(out=arg)  # the draws of normal(0.0, 1.0)
    arg *= texture
    out += arg
    return out


def insolation(hour_of_day) -> np.ndarray:
    """Clear-sky factor: 0 at night, sine arch peaking at 1 around 12h.

    Night (hour <= 6 or >= 18) is exactly 0.0, not sin-of-pi residue, so
    night-time production is exactly zero too.
    """
    h = np.asarray(hour_of_day, dtype=np.float64)
    out = np.maximum(0.0, np.sin(np.pi * (h - 6.0) / 12.0))
    out[(h <= 6.0) | (h >= 18.0)] = 0.0
    return out


def _wind_response(v: np.ndarray, cut_in: float, rated: float, cut_out: float) -> np.ndarray:
    r = np.clip(v, None, rated) ** 3 / rated ** 3
    r[(v < cut_in) | (v > cut_out)] = 0.0
    return r


def synth_generate(cfg: SynthConfig) -> SynthResult:
    """Fabricate a weather cube plus a matching 5-minute power feed.

    Solar production follows insolation times (1 - cloud fraction) summed
    over the solar plant pixels; wind follows a cubic power curve with
    cut-in/cut-out applied to the wind-speed band at the wind plant
    pixels. Every hourly value is emitted as 12 identical 5-minute CSV
    readings, so aggregation reproduces it exactly. Deterministic per seed.
    The bands draw their float64 fields one at a time, in BANDS order, each
    straight into the float32 frames, so only one (T, H, W) field is alive.
    """
    h, w, t = cfg.height, cfg.width, cfg.n_hours
    mask = corner_mask(h, w, cfg.corner_radius)
    masks = {}
    for src, plants in (("solar", cfg.solar_plants), ("wind", cfg.wind_plants)):
        masks[src] = np.zeros((h, w), dtype=bool)
        for (pi, pj) in plants:  # SynthConfig checked each is on the grid, off the mask
            masks[src][pi, pj] = True

    gen = np.random.Generator(np.random.PCG64(cfg.seed))
    start = parse_timestamp(cfg.start)
    stamps = start + np.arange(t) * HOUR
    hours_of_day = ((stamps - stamps.astype("datetime64[D]")) / HOUR).astype(np.float64)
    ins = insolation(hours_of_day)

    def field():
        return _smooth_fields(gen, t, h, w)

    frames = np.empty((t, len(BANDS), h, w), dtype=np.float32)
    frames[:, 0] = 101000.0 + 300.0 * field()
    frames[:, 1] = 15.0 + 8.0 * field() + 6.0 * ins[:, None, None]
    frames[:, 2] = np.clip(0.008 + 0.004 * field(), 0.0, None)
    frames[:, 3] = np.clip(8.0 + 5.0 * field(), 0.0, None)
    frames[:, 4] = (180.0 + 180.0 * field()) % 360.0
    frames[:, 5] = np.clip(50.0 + 50.0 * field(), 0.0, 100.0)

    solar = np.zeros(t)
    for (pi, pj) in cfg.solar_plants:
        cloud_frac = frames[:, 5, pi, pj].astype(np.float64) / 100.0
        solar += cfg.solar_scale * ins * (1.0 - cloud_frac)
    wind = np.zeros(t)
    for (pi, pj) in cfg.wind_plants:
        speed = frames[:, 3, pi, pj].astype(np.float64)
        wind += cfg.wind_scale * _wind_response(speed, cfg.wind_cut_in,
                                                cfg.wind_rated, cfg.wind_cut_out)
    if cfg.noise_mw > 0:
        solar = solar + gen.normal(0.0, cfg.noise_mw, size=t)
        wind = wind + gen.normal(0.0, cfg.noise_mw, size=t)
    solar = np.clip(solar, 0.0, None)
    wind = np.clip(wind, 0.0, None)

    frames[:, :, mask] = 0.0
    cube = WeatherCube(frames, stamps, BANDS, mask)

    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["timestamp", "source", "mw"])
    minute = np.timedelta64(5, "m")
    for i, ts in enumerate(stamps):
        for k in range(12):
            sub = format_timestamp((ts + k * minute).astype("datetime64[s]"))
            wr.writerow([sub, "solar", f"{solar[i]:.9g}"])
            wr.writerow([sub, "wind", f"{wind[i]:.9g}"])

    return SynthResult(cube, buf.getvalue(), solar, wind, masks)
