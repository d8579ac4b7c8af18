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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import tensor as T

BANDS = ("pressure", "temperature", "humidity",
         "wind_speed", "wind_direction", "cloud_cover")
WIND_DIRECTION_BAND = "wind_direction"
SOURCES = ("solar", "wind")
# the two power files: the 5-minute feed, and the hourly file of save_power
_FEED_HEADER = ("timestamp", "source", "mw")
_HOURLY_HEADER = ("timestamp", "solar_mw", "wind_mw", "flags")

CUBE_MAGIC = b"WXC1"
CUBE_VERSION = 1
_FLAG_NORMALIZED = 1

HOUR = np.timedelta64(1, "h")

# float64 values per working block in fit_normalizer and apply_normalizer:
# their working set is one block (1 MB), not the whole cube. A block that
# stays in L2 (2 MB per core on a 2-vCPU Xeon) fitted a 1000-hour 115x108
# cube about 12% faster than a 16 MB one; the sums' order, and so every
# byte, does not depend on the block size
_CHUNK_VALUES = 1 << 17

STACK_CHOICES = (1, 5)
# stack=5 feeds the model the five hours preceding the target hour,
# oldest first; the target hour's own frame is not part of the input.
# Each stack's offsets are consecutive, so its frames are one cube slice.
STACK_OFFSETS = {1: (0,), 5: (-5, -4, -3, -2, -1)}


class DataError(ValueError):
    """Malformed input data or an unsatisfiable data request."""


def parse_timestamp(text: str) -> np.datetime64:
    # numpy reads "now" and "today", in any case, as the wall clock: the
    # same input files would then load differently from one day to the next
    if text.strip().lower() in ("now", "today"):
        raise DataError(f"bad timestamp {text!r}")
    try:
        ts = np.datetime64(text.strip(), "s")
    except ValueError as e:
        raise DataError(f"bad timestamp {text!r}") from e
    if np.isnat(ts):
        raise DataError(f"bad timestamp {text!r}")
    return ts


def format_timestamp(ts: np.datetime64) -> str:
    return np.datetime_as_string(ts.astype("datetime64[s]"))


def _header(reader) -> tuple[str, ...]:
    """A CSV table's header cells, stripped; () for an empty table."""
    return tuple(c.strip() for c in next(reader, ()))


def _read_table(src, header: tuple[str, ...]):
    """Yield (where, cells) for each row of a CSV table, where `where` is
    "<file>:<line>", the prefix of every error about that row.

    `src` is a path, or the CSV text itself (a str with a newline), named
    "<text>". The header's cells must equal `header` once stripped. A row
    whose cells are all blank is skipped; every other row must have one
    cell per header cell.
    """
    text = isinstance(src, str) and "\n" in src
    name = "<text>" if text else os.fspath(src)
    with (io.StringIO(src) if text else open(src, encoding="utf-8", newline="")) as fh:
        reader = csv.reader(_utf8_lines(fh, name))
        if _header(reader) != header:
            raise DataError(f"{name}:1: header must be {','.join(header)}")
        for row in reader:
            if not any(map(str.strip, row)):
                continue
            where = f"{name}:{reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: expected {len(header)} columns, got {len(row)}")
            yield where, row


def _utf8_lines(lines, name):
    """Yield the lines of a text file; a byte that is not UTF-8 is a
    DataError that names the file."""
    try:
        yield from lines
    except UnicodeDecodeError:
        raise DataError(f"{name}: not UTF-8 text") from None


# ---------------------------------------------------------------------------
# key=value files: config files, config.resolved, split files, the
# architecture text of a checkpoint

def read_keys(lines, name, casters: dict) -> dict:
    """The {key: value} of key=value lines, in the order they come.

    Blank lines and lines starting with '#' are skipped; the key and the
    value are stripped of spaces. `casters` maps every allowed key to the
    function that turns its text into its value. A line without '=', a key
    `casters` does not name, a key given twice, or a value whose caster
    raises ValueError is a DataError prefixed "<name>:<line>:".
    """
    out = {}
    for lineno, line in enumerate(_utf8_lines(lines, name), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, text = line.partition("=")
        key, text = key.strip(), text.strip()
        where = f"{name}:{lineno}"
        if not eq:
            raise DataError(f"{where}: expected key=value")
        if key not in casters:
            raise DataError(f"{where}: unknown key {key!r}")
        if key in out:
            raise DataError(f"{where}: repeated key {key!r}")
        try:
            out[key] = casters[key](text)
        except ValueError as e:
            raise DataError(f"{where}: bad {key}: {e}") from None
    return out


def keys_text(pairs) -> str:
    """The text that `read_keys` reads back: one key=value line per
    (key, value) pair, in order; a tuple value is written comma-separated."""
    lines = []
    for key, value in pairs:
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}\n")
    return "".join(lines)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def field_casters(cls) -> dict:
    """`read_keys` casters for the fields of dataclass `cls`, from their
    annotations' text: "str", "int", "float", or a tuple of ints."""
    scalars = {"str": str, "int": int, "float": float}
    return {f.name: _int_tuple if f.type.startswith("tuple") else scalars[f.type]
            for f in fields(cls)}


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
    channel-major, and not one byte more or less. Pixels that are NaN in
    any frame/band join the static mask and read as 0 in the raw cube; a
    +-inf value is an error. Each frame is read straight into its slot of
    the cube, then checked and cleaned there, so the cube is the only
    full-size array.
    """
    base = frames_dir if frames_dir is not None else os.path.dirname(os.fspath(manifest_path))
    rows = []
    for where, row in _read_table(manifest_path, ("timestamp", "path", "height", "width", "channels")):
        try:
            ts = parse_timestamp(row[0])
            h, w, c = int(row[2]), int(row[3]), int(row[4])
        except ValueError as e:
            raise DataError(f"{where}: {e}") from e
        if min(h, w, c) < 1:
            raise DataError(f"{where}: extents {h}x{w}x{c} must be positive")
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
    for frame, (_, rel, *_) in zip(frames, rows):
        path = os.path.join(base, rel)
        try:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size != frame.nbytes:
                    stray = f" and {size % 4} stray bytes" if size % 4 else ""
                    raise DataError(f"{path}: has {size // 4} values{stray}, "
                                    f"expected {frame.size}")
                read_f32_into(fh, frame)
        except OSError as e:
            raise DataError(f"cannot read frame file {path}: {e}") from e
        finite = np.isfinite(frame)
        if not finite.all():
            if np.isinf(frame).any():
                raise DataError(f"{path}: frame holds +-inf")
            np.logical_not(finite, out=finite)
            mask |= finite.any(axis=0)
            frame[finite] = 0.0
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
            fh.write(keys_text((b, (m, s)) for b, m, s in
                               zip(self.bands, self.means, self.stds)))


def fit_normalizer(cube: WeatherCube) -> NormalizerStats:
    """Per-band mean/std over every frame's unmasked pixels (float64).

    Two passes (sum, then sum of squared deviations) add each band's values
    as one float64 sequence, pixel-major and time-minor: every unmasked
    pixel in flat (row-major) order, and within a pixel its frames in time
    order. That is the order in which numpy adds the whole-cube
    `frames[:, :, keep].astype(float64).mean(axis=(0, 2))` and `.std()`:
    the boolean index lays its result out pixel-major in memory, so the
    reduction's inner loop runs over the kept band axis and each band gets
    one running total, with no pairwise splitting. So the statistics, and
    the normalized cube, are bit-identical to that formula.

    The sequence is walked one run of adjacent unmasked pixels at a time,
    cut into blocks of at most `_CHUNK_VALUES // t` pixels. A block's
    values go (pixel, time) into one reused float64 buffer behind a slot
    that carries the running total (first -0.0, which leaves a sum
    unchanged), and `np.add.accumulate` adds them strictly left to right
    in place; the last slot is the new total. Only that buffer is ever held
    in float64. A band with ~zero spread keeps std 1.0 so normalization is
    a pure shift.
    """
    keep = ~cube.mask.reshape(-1)
    if not keep.any():
        raise DataError("cannot fit normalizer: every pixel is masked")
    t, c = cube.shape[:2]
    if not t:
        raise DataError("cannot fit normalizer: the cube has no frames")
    flat = cube.frames.reshape(t, c, -1)
    step = max(1, _CHUNK_VALUES // t)
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
    blocks = [(lo, min(lo + step, hi))
              for start, hi in zip(edges[::2].tolist(), edges[1::2].tolist())
              for lo in range(start, hi, step)]
    n = t * int(keep.sum())
    buf = np.empty(1 + max(hi - lo for lo, hi in blocks) * t)

    def band_sum(k, shift):
        total = -0.0
        for lo, hi in blocks:
            vals = buf[1:1 + (hi - lo) * t].reshape(hi - lo, t)
            if shift is None:
                vals[...] = flat[:, k, lo:hi].T
            else:
                np.subtract(flat[:, k, lo:hi].T, shift, out=vals)
                np.square(vals, out=vals)
            run = buf[:1 + vals.size]
            run[0] = total
            np.add.accumulate(run, out=run)
            total = run[-1]
        return total

    means = np.array([band_sum(k, None) for k in range(c)]) / n
    stds = np.sqrt(np.array([band_sum(k, means[k]) for k in range(c)]) / n)
    stds = np.where(stds < 1e-12, 1.0, stds)
    return NormalizerStats(cube.bands, tuple(float(m) for m in means),
                           tuple(float(s) for s in stds))


def apply_normalizer(cube: WeatherCube, stats: NormalizerStats) -> WeatherCube:
    """Center/scale each band of `cube` in place and return `cube`, now
    marked normalized; masked pixels come out exactly 0.

    The shift and scale happen in float64, one time chunk at a time in one
    reused buffer, and only the quotient is rounded to float32: subtracting
    a large offset (pressure sits near 1e5) in float32 would leave
    quantization residue well above the 1e-5 post-normalization mean bound.
    """
    if stats.bands != cube.bands:
        raise DataError(f"stats bands {stats.bands} != cube bands {cube.bands}")
    means = np.array(stats.means)[:, None, None]
    stds = np.array(stats.stds)[:, None, None]
    frames = cube.frames
    step = max(1, _CHUNK_VALUES // max(1, np.prod(cube.shape[1:])))
    buf = np.empty((min(step, cube.shape[0]), *cube.shape[1:]))
    for lo in range(0, cube.shape[0], step):
        hi = min(lo + step, cube.shape[0])
        chunk = buf[:hi - lo]
        np.subtract(frames[lo:hi], means, out=chunk)
        np.divide(chunk, stds, out=frames[lo:hi], casting="same_kind")
        frames[lo:hi, :, cube.mask] = 0.0
    cube.normalized = True
    return cube


# ---------------------------------------------------------------------------
# binary files, cube.wxc and .wxpm: written through replace_file, built from
# u32 counts, UTF-8 text behind a u32 length and little-endian float32 arrays;
# every error of their readers is a DataError that starts with the file's name

@contextmanager
def replace_file(path):
    """Open `<path>.tmp` for writing bytes, and put it at `path` once the
    `with` block ends without an error.

    The bytes never go into an earlier file at `path`, so a write that
    fails or is interrupted leaves that file whole (and a process that
    maps it keeps its pages), and the temp file is removed. The earlier
    file is removed just before the rename instead of replaced by it: on
    ext4 a rename over an existing file forces the new file's delayed
    blocks to disk at once (auto_da_alloc), which cost 0.2 s per 0.28 GB
    cube on a 2-vCPU VM. Between those two calls `path` is missing, never
    torn.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        with suppress(FileNotFoundError):
            os.remove(path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.rename(tmp, path)  # the earlier file is gone: keep the temp one if this fails


def write_u32(fh, *values: int) -> None:
    fh.write(struct.pack(f"<{len(values)}I", *values))


def write_text(fh, text: str) -> None:
    b = text.encode("utf-8")
    write_u32(fh, len(b))
    fh.write(b)


def write_f32(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f4").data)


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh, n: int) -> bytes:
    """The next n bytes. A count larger than what is left in the file is
    refused before the read, so a corrupt count cannot ask for more memory
    than exists."""
    if n > _bytes_left(fh):
        raise DataError(f"{fh.name}: truncated file")
    return fh.read(n)


def read_u32(fh, count: int = 1) -> tuple[int, ...]:
    return struct.unpack(f"<{count}I", read_exact(fh, 4 * count))


def read_text(fh, what: str) -> str:
    """The next length-prefixed UTF-8 text; `what` names it in the error."""
    (n,) = read_u32(fh)
    try:
        return read_exact(fh, n).decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{fh.name}: {what} is not UTF-8") from None


def read_f32_into(fh, out: np.ndarray) -> None:
    """Read the next out.size little-endian float32 values straight into `out`."""
    if fh.readinto(out) != out.nbytes:
        raise DataError(f"{fh.name}: truncated file")
    if not np.little_endian:
        out.byteswap(inplace=True)


def save_cube(cube: WeatherCube, path) -> None:
    """Write `cube` to `path` through `replace_file`."""
    with replace_file(path) as fh:
        fh.write(CUBE_MAGIC)
        flags = _FLAG_NORMALIZED if cube.normalized else 0
        write_u32(fh, CUBE_VERSION, flags, *cube.shape)
        for b in cube.bands:
            write_text(fh, b)
        fh.write(np.packbits(cube.mask.reshape(-1)).tobytes())
        for ts in cube.timestamps:
            write_text(fh, format_timestamp(ts))
        write_f32(fh, cube.frames)


def load_cube(path) -> WeatherCube:
    """The cube at `path`, its frames mapped copy-on-write: a reader pages in
    only the hours it touches, a write into them stays in this process, and
    a `save_cube` over the same path leaves the mapped pages as they were."""
    with open(path, "rb") as fh:
        if read_exact(fh, 4) != CUBE_MAGIC:
            raise DataError(f"{path}: not a cube file")
        version, flags, t, c, h, w = read_u32(fh, 6)
        if version != CUBE_VERSION:
            raise DataError(f"{path}: unsupported cube version {version}")
        bands = [read_text(fh, "a band name") for _ in range(c)]
        nbits = h * w
        mask_bytes = read_exact(fh, (nbits + 7) // 8)
        mask = np.unpackbits(np.frombuffer(mask_bytes, dtype=np.uint8))[:nbits]
        mask = mask.astype(bool).reshape(h, w)
        stamps = [read_text(fh, "a timestamp") for _ in range(t)]
        left, want = _bytes_left(fh), 4 * t * c * h * w
        if left < want:
            raise DataError(f"{path}: truncated file")
        if left > want:
            raise DataError(f"{path}: trailing bytes")
        frames = np.memmap(fh, dtype="<f4", mode="c", offset=fh.tell(), shape=(t, c, h, w))
    try:
        return WeatherCube(frames, [parse_timestamp(s) for s in stamps], bands, mask,
                           normalized=bool(flags & _FLAG_NORMALIZED))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


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
    # keyed by whole hours since the epoch, floored (pre-1970 included)
    readings: dict[str, dict[int, list[float]]] = {s: {} for s in SOURCES}
    for where, (stamp, name, mw) in _read_table(src, _FEED_HEADER):
        name = name.strip()
        if name not in SOURCES:
            continue
        try:
            ts = parse_timestamp(stamp)
            mw = float(mw)
        except ValueError as e:
            raise DataError(f"{where}: {e}") from e
        if not np.isfinite(mw):
            raise DataError(f"{where}: non-finite mw")
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
        wr.writerow(_HOURLY_HEADER)
        for i, ts in enumerate(power.timestamps):
            wr.writerow([format_timestamp(ts), repr(float(power.solar[i])),
                         repr(float(power.wind[i])), ";".join(sorted(power.flags[i]))])


def load_power(path) -> PowerSeries:
    """Hourly power from either power file, told apart by its header: the
    5-minute feed, which goes through `aggregate_power`, or the hourly
    file that `save_power` writes."""
    with open(path, encoding="utf-8", newline="") as fh:
        if _header(csv.reader(_utf8_lines(fh, path))) == _FEED_HEADER:
            return aggregate_power(path)
    stamps, solar, wind, flags = [], [], [], []
    for where, row in _read_table(path, _HOURLY_HEADER):
        try:
            stamps.append(parse_timestamp(row[0]))
            solar.append(float(row[1]))
            wind.append(float(row[2]))
        except ValueError as e:
            raise DataError(f"{where}: {e}") from e
        if not (np.isfinite(solar[-1]) and np.isfinite(wind[-1])):
            raise DataError(f"{where}: non-finite mw")
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
        if not len(self.cube_idx):
            raise DataError("cube and power series share no timestamps")
        self.cube = cube
        self.power = power
        self.timestamps = cube.timestamps[self.cube_idx]

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


def _check_stack(stack: int) -> int:
    if stack not in STACK_CHOICES:
        raise DataError(f"stack must be one of {STACK_CHOICES}, got {stack}")
    return stack


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
            fh.write(keys_text((k, getattr(self, k))
                               for k in ("seed", "stack", "train", "val", "test")))

    @classmethod
    def load(cls, path) -> "SplitIndices":
        casters = {**field_casters(cls), "stack": lambda text: _check_stack(int(text))}
        with open(path, encoding="utf-8") as fh:
            kv = read_keys(fh, path, casters)
        missing = [f.name for f in fields(cls) if f.name not in kv]
        if missing:
            raise DataError(f"{path}: split file lacks {', '.join(missing)}")
        out = cls(**kv)
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
    wr.writerow(_FEED_HEADER)
    minute = np.timedelta64(5, "m")
    for i, ts in enumerate(stamps):
        for k in range(12):
            sub = format_timestamp((ts + k * minute).astype("datetime64[s]"))
            wr.writerow([sub, "solar", f"{solar[i]:.9g}"])
            wr.writerow([sub, "wind", f"{wind[i]:.9g}"])

    return SynthResult(cube, buf.getvalue(), solar, wind, masks)
