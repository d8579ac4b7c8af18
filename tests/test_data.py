import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wxpower import data as D


def hours(start, n):
    return D.parse_timestamp(start) + np.arange(n) * D.HOUR


def small_cube(t=8, c=6, h=6, w=6, seed=0, mask=None, start="2019-01-01T00:00:00"):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t, c, h, w)).astype(np.float32)
    if mask is None:
        mask = np.zeros((h, w), dtype=bool)
    frames[:, :, mask] = 0.0
    return D.WeatherCube(frames, hours(start, t), D.BANDS[:c], mask)


# ---------------------------------------------------------------------------
# timestamps, cube basics, corner mask

def test_timestamp_roundtrip_and_errors():
    ts = D.parse_timestamp("2019-06-01T13:00:00")
    assert D.format_timestamp(ts) == "2019-06-01T13:00:00"
    with pytest.raises(D.DataError):
        D.parse_timestamp("not a time")


@pytest.mark.parametrize("text", ["now", "NOW", " Now ", "today", "TODAY", "\ttoDay"])
def test_timestamp_refuses_the_wall_clock(text):
    # numpy would read these as the current time
    with pytest.raises(D.DataError, match="bad timestamp"):
        D.parse_timestamp(text)


def test_cube_validation():
    frames = np.zeros((3, 2, 4, 4), np.float32)
    ts = hours("2019-01-01T00:00:00", 3)
    mask = np.zeros((4, 4), bool)
    with pytest.raises(D.DataError):
        D.WeatherCube(frames, ts[:2], ("a", "b"), mask)
    with pytest.raises(D.DataError):
        D.WeatherCube(frames, ts, ("a",), mask)
    with pytest.raises(D.DataError):
        D.WeatherCube(frames, ts, ("a", "a"), mask)
    with pytest.raises(D.DataError):
        D.WeatherCube(frames, ts, ("a", "b"), np.zeros((3, 4), bool))
    with pytest.raises(D.DataError):
        D.WeatherCube(frames, ts[[0, 0, 1]], ("a", "b"), mask)


def test_corner_mask_counts():
    assert not D.corner_mask(10, 10, 0).any()
    m = D.corner_mask(24, 24, 3)
    # each corner cuts a triangle of 1+2+3 pixels
    assert m.sum() == 4 * 6
    assert m[0, 0] and m[0, 2] and m[2, 0]
    assert not m[3, 0] and not m[0, 3]
    assert m[23, 23] and m[0, 23] and m[23, 0]
    assert not m[12, 12]


# ---------------------------------------------------------------------------
# frame import

def write_frames(tmp_path, stamps, h=4, w=5, c=6, value_fn=None, nan_at=None):
    lines = ["timestamp,path,height,width,channels"]
    for i, ts in enumerate(stamps):
        arr = np.full((c, h, w), float(i), dtype="<f4")
        if value_fn is not None:
            arr = value_fn(i).astype("<f4")
        if nan_at is not None:
            arr[:, nan_at[0], nan_at[1]] = np.nan
        name = f"f{i}.bin"
        arr.tofile(tmp_path / name)
        lines.append(f"{ts},{name},{h},{w},{c}")
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(lines) + "\n")
    return man


def test_load_frames_sorted_and_valued(tmp_path):
    stamps = ["2019-01-01T02:00:00", "2019-01-01T00:00:00", "2019-01-01T01:00:00"]
    man = write_frames(tmp_path, stamps)
    cube = D.load_frames(man)
    assert cube.shape == (3, 6, 4, 5)
    assert [D.format_timestamp(t) for t in cube.timestamps] == sorted(stamps)
    # row written first (hour 2) must land last after sorting
    npt.assert_array_equal(cube.frames[2], 0.0)
    npt.assert_array_equal(cube.frames[0], 1.0)
    assert not cube.mask.any()
    assert not cube.normalized


def test_load_frames_nan_becomes_masked_zero(tmp_path):
    man = write_frames(tmp_path, ["2019-01-01T00:00:00", "2019-01-01T01:00:00"],
                       nan_at=(2, 3))
    cube = D.load_frames(man)
    assert cube.mask[2, 3] and cube.mask.sum() == 1
    npt.assert_array_equal(cube.frames[:, :, 2, 3], 0.0)


def test_load_frames_errors(tmp_path):
    man = write_frames(tmp_path, ["2019-01-01T00:00:00"])
    # wrong size file
    np.zeros(7, "<f4").tofile(tmp_path / "f0.bin")
    with pytest.raises(D.DataError):
        D.load_frames(man)
    # duplicate timestamps
    man2 = write_frames(tmp_path, ["2019-01-01T00:00:00", "2019-01-01T00:00:00"])
    with pytest.raises(D.DataError):
        D.load_frames(man2)
    # bad header
    bad = tmp_path / "bad.csv"
    bad.write_text("time,path\n")
    with pytest.raises(D.DataError):
        D.load_frames(bad)
    # missing file
    gone = tmp_path / "gone.csv"
    gone.write_text("timestamp,path,height,width,channels\n"
                    "2019-01-01T00:00:00,nothere.bin,4,5,6\n")
    with pytest.raises(D.DataError):
        D.load_frames(gone)
    # a non-positive extent is named with its manifest line
    neg = tmp_path / "neg.csv"
    neg.write_text("timestamp,path,height,width,channels\n"
                   "2019-01-01T00:00:00,f0.bin,-1,5,6\n")
    with pytest.raises(D.DataError, match="neg.csv:2: extents -1x5x6"):
        D.load_frames(neg)


@pytest.mark.parametrize("stray", [1, 2, 3])
def test_load_frames_refuses_trailing_partial_values(tmp_path, stray):
    # 4x5x6 = 120 values = 480 bytes; 1-3 more bytes are no whole value,
    # and a reader that drops them would load the file as if it were whole
    man = write_frames(tmp_path, ["2019-01-01T00:00:00", "2019-01-01T01:00:00"])
    f1 = tmp_path / "f1.bin"
    f1.write_bytes(f1.read_bytes() + b"\x01" * stray)
    with pytest.raises(D.DataError,
                       match=f"f1.bin: has 120 values and {stray} stray bytes, expected 120"):
        D.load_frames(man)
    f1.write_bytes(f1.read_bytes()[:-4 - stray])
    with pytest.raises(D.DataError, match="f1.bin: has 119 values, expected 120"):
        D.load_frames(man)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("with_nan", [False, True])
def test_load_frames_rejects_inf(tmp_path, bad, with_nan):
    def value_fn(i):
        arr = np.full((6, 4, 5), float(i), dtype="<f4")
        if i == 1:
            arr[2, 1, 1] = bad
        return arr

    man = write_frames(tmp_path, ["2019-01-01T00:00:00", "2019-01-01T01:00:00"],
                       value_fn=value_fn, nan_at=(0, 0) if with_nan else None)
    with pytest.raises(D.DataError, match="f1.bin"):
        D.load_frames(man)


def test_load_frames_masks_nan_pixels_of_any_frame(tmp_path):
    # a pixel NaN in one frame only is masked in every frame; only its NaN
    # values become 0, its other values stay raw
    def value_fn(i):
        arr = np.full((6, 4, 5), float(i + 1), dtype="<f4")
        if i == 1:
            arr[3, 2, 4] = np.nan
        if i == 2:
            arr[:, 0, 1] = np.nan
        return arr

    man = write_frames(tmp_path, [f"2019-01-01T0{i}:00:00" for i in range(3)],
                       value_fn=value_fn)
    cube = D.load_frames(man)
    want = np.zeros((4, 5), bool)
    want[2, 4] = want[0, 1] = True
    npt.assert_array_equal(cube.mask, want)
    assert cube.frames[1, 3, 2, 4] == 0.0 and cube.frames[1, 2, 2, 4] == 2.0
    assert cube.frames[0, 3, 2, 4] == 1.0 and cube.frames[2, 3, 2, 4] == 3.0
    npt.assert_array_equal(cube.frames[2, :, 0, 1], 0.0)
    npt.assert_array_equal(cube.frames[:2, :, 0, 1], [[1.0] * 6, [2.0] * 6])


def test_load_frames_peak_is_the_cube(tmp_path):
    t, c, h, w = 256, 6, 8, 8
    man = write_frames(tmp_path, hours("2019-01-01T00:00:00", t).astype(str), h=h, w=w,
                       value_fn=lambda i: np.full((c, h, w), float(i)), nan_at=(1, 1))
    cube_bytes = t * c * h * w * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cube = D.load_frames(man)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert cube.mask[1, 1] and cube.mask.sum() == 1
    # the cube itself plus per-frame temporaries; no whole-cube copy
    assert peak < 1.25 * cube_bytes, (peak, cube_bytes)


# ---------------------------------------------------------------------------
# coarsen

def test_coarsen_block_mean_and_mask():
    h = w = 4
    mask = np.zeros((h, w), bool)
    mask[0, 0] = True              # partial block
    mask[2:4, 2:4] = True          # fully dead block
    frames = np.arange(h * w, dtype=np.float32).reshape(1, 1, h, w)
    frames[:, :, mask] = 0.0
    cube = D.WeatherCube(frames, hours("2019-01-01T00:00:00", 1), ("temperature",), mask)
    out = D.coarsen(cube, 2)
    assert out.shape == (1, 1, 2, 2)
    # block (0,0): values 1, 4, 5 (pixel 0 masked) -> mean 10/3
    npt.assert_allclose(out.frames[0, 0, 0, 0], 10.0 / 3.0, rtol=1e-6)
    # block (0,1): 2, 3, 6, 7 -> 4.5
    npt.assert_allclose(out.frames[0, 0, 0, 1], 4.5, rtol=1e-6)
    assert out.mask[1, 1] and out.frames[0, 0, 1, 1] == 0.0
    assert not out.mask[0, 0]


def test_coarsen_wind_direction_circular():
    h = w = 2
    vals = np.array([[350.0, 10.0], [350.0, 10.0]], np.float32)
    frames = np.stack([np.full((h, w), 5.0, np.float32), vals])[None]  # (1,2,2,2)
    cube = D.WeatherCube(frames, hours("2019-01-01T00:00:00", 1),
                         ("wind_speed", "wind_direction"), np.zeros((h, w), bool))
    out = D.coarsen(cube, 2)
    npt.assert_allclose(out.frames[0, 0, 0, 0], 5.0, atol=1e-5)
    # naive mean would say 180; circular mean says 0
    ang = out.frames[0, 1, 0, 0] % 360.0
    assert min(ang, 360.0 - ang) < 1e-3


def test_coarsen_errors_and_identity():
    cube = small_cube(h=6, w=6)
    assert D.coarsen(cube, 1) is cube
    with pytest.raises(D.DataError):
        D.coarsen(cube, 4)  # 6 % 4 != 0
    with pytest.raises(D.DataError):
        D.coarsen(cube, 0)


def test_coarsen_4x_geometry():
    t, c = 2, 6
    frames = np.random.default_rng(0).normal(size=(t, c, 460, 432)).astype(np.float32)
    cube = D.WeatherCube(frames, hours("2019-01-01T00:00:00", t), D.BANDS,
                         np.zeros((460, 432), bool))
    out = D.coarsen(cube, 4)
    assert out.shape == (t, c, 115, 108)
    block = frames[0, 0, :4, :4].astype(np.float64).mean()
    npt.assert_allclose(out.frames[0, 0, 0, 0], block, rtol=1e-5)


# ---------------------------------------------------------------------------
# normalization

def test_fit_apply_normalizer():
    mask = np.zeros((6, 6), bool)
    mask[0, :3] = True
    cube = small_cube(t=10, mask=mask, seed=3)
    cube.frames[:, 2] = cube.frames[:, 2] * 40.0 + 300.0  # one band far off-scale
    stats = D.fit_normalizer(cube)
    norm = D.apply_normalizer(cube, stats)
    assert norm.normalized
    keep = ~mask
    vals = norm.frames[:, :, keep].astype(np.float64)
    npt.assert_allclose(vals.mean(axis=(0, 2)), 0.0, atol=1e-5)
    npt.assert_allclose(vals.std(axis=(0, 2)), 1.0, atol=1e-4)
    npt.assert_array_equal(norm.frames[:, :, mask], 0.0)


def reference_stats(cube):
    """Two-pass float64 mean/std over each band's unmasked pixels."""
    keep = ~cube.mask
    means, stds = [], []
    for c in range(cube.shape[1]):
        v = cube.frames[:, c][:, keep].astype(np.float64).ravel()
        m = v.mean()
        s = np.sqrt(((v - m) ** 2).mean())
        means.append(m)
        stds.append(s if s >= 1e-12 else 1.0)
    return np.array(means), np.array(stds)


def physical_cube(t, h=5, w=7, mask=None, seed=0):
    """Bands at their physical offsets and scales (pressure near 1e5)."""
    rng = np.random.default_rng(seed)
    offsets = np.array([1.01e5, 290.0, 0.008, 8.0, 180.0, 50.0])[:, None, None]
    scales = np.array([200.0, 7.0, 0.002, 4.0, 100.0, 37.0])[:, None, None]
    frames = (offsets + scales * rng.normal(size=(t, 6, h, w))).astype(np.float32)
    if mask is None:
        mask = np.zeros((h, w), bool)
    return D.WeatherCube(frames, hours("2019-01-01T00:00:00", t), D.BANDS, mask)


def whole_cube_stats(cube):
    """The one-shot formula: every unmasked value in float64 at once."""
    vals = cube.frames[:, :, ~cube.mask].astype(np.float64)
    stds = vals.std(axis=(0, 2))
    return vals.mean(axis=(0, 2)), np.where(stds < 1e-12, 1.0, stds)


def check_fit(cube):
    stats = D.fit_normalizer(cube)
    means, stds = reference_stats(cube)
    npt.assert_allclose(stats.means, means, rtol=1e-12, atol=0)
    npt.assert_allclose(stats.stds, stds, rtol=1e-12, atol=0)
    means, stds = whole_cube_stats(cube)
    assert stats.means == tuple(means) and stats.stds == tuple(stds)
    return stats


# pixels per fit_normalizer block (each band is summed alone, so a block
# of p pixels is p * t values): all 35, 4 (35 = 8 blocks + 3), 16
# (35 = 2 blocks + 3) and 1
BLOCK_PIXELS = [None, 4, 16, 1]


def cap_block_pixels(monkeypatch, pixels, t):
    if pixels is not None:
        monkeypatch.setattr(D, "_CHUNK_VALUES", pixels * t)


@pytest.mark.parametrize("pixels", BLOCK_PIXELS)
@pytest.mark.parametrize("t", [1, 9, 70])
def test_fit_normalizer_matches_two_pass_and_whole_cube(monkeypatch, t, pixels):
    cap_block_pixels(monkeypatch, pixels, t)
    check_fit(physical_cube(t, seed=t))


@pytest.mark.parametrize("pixels", BLOCK_PIXELS)
def test_fit_normalizer_constant_band_over_blocks(monkeypatch, pixels):
    t = 21
    cap_block_pixels(monkeypatch, pixels, t)
    cube = physical_cube(t)
    cube.frames[:, 4] = 123.5
    stats = check_fit(cube)
    assert stats.means[4] == 123.5 and stats.stds[4] == 1.0


@pytest.mark.parametrize("pixels", BLOCK_PIXELS)
def test_fit_normalizer_excludes_masked_pixels(monkeypatch, pixels):
    t = 13
    cap_block_pixels(monkeypatch, pixels, t)
    mask = np.zeros((5, 7), bool)
    mask[0, :4] = mask[4, 6] = mask[2, 3] = True
    cube = physical_cube(t, mask=mask, seed=2)
    cube.frames[:, :, mask] = 1e9  # would dominate every statistic if counted
    stats = check_fit(cube)
    assert max(stats.stds) < 1e3


def wide_cube(t, h=5, w=7, mask=None, seed=0):
    """Positive values over eight decades. Even their plain float64 sums
    round (a physical cube's are exact), so the mean pass, not only the
    std pass, depends on the order of addition and pins it."""
    rng = np.random.default_rng(seed)
    frames = (10.0 ** rng.uniform(-4.0, 4.0, size=(t, 6, h, w))).astype(np.float32)
    if mask is None:
        mask = np.zeros((h, w), bool)
    return D.WeatherCube(frames, hours("2019-01-01T00:00:00", t), D.BANDS, mask)


def unmasked_runs(mask):
    """Lengths of the runs of adjacent unmasked pixels, in flat order."""
    runs, n = [], 0
    for masked in mask.reshape(-1):
        if masked and n:
            runs.append(n)
        n = 0 if masked else n + 1
    return runs + [n] if n else runs


@pytest.mark.parametrize("pixels", BLOCK_PIXELS)
@pytest.mark.parametrize("t", [1, 7])
def test_fit_normalizer_scattered_mask_chains_hundreds_of_runs(monkeypatch, t, pixels):
    cap_block_pixels(monkeypatch, pixels, t)
    mask = np.random.default_rng(17).random((30, 40)) < 0.45
    assert len(unmasked_runs(mask)) > 250
    cube = wide_cube(t, h=30, w=40, mask=mask, seed=t + 40)
    cube.frames[:, :, mask] = 1e9
    check_fit(cube)


@pytest.mark.parametrize("pixels", [1, 2, 3, 4, 9, 10])
@pytest.mark.parametrize("t", [1, 9])
def test_fit_normalizer_cuts_runs_at_the_block_cap(monkeypatch, t, pixels):
    # runs of 9, 3, 2, 1 and 15 pixels: a cap below a run's length cuts it
    # mid-run (15 = 10 + 5, 9 = 4 + 4 + 1), one that divides it cuts it
    # evenly (9 = 3 * 3), and 1 gives one-pixel blocks
    mask = np.zeros((5, 7), bool)
    mask.reshape(-1)[[9, 13, 16, 18, 34]] = True
    assert unmasked_runs(mask) == [9, 3, 2, 1, 15]
    cap_block_pixels(monkeypatch, pixels, t)
    check_fit(wide_cube(t, mask=mask, seed=pixels))


def test_fit_normalizer_needs_frames():
    cube = physical_cube(3)
    empty = D.WeatherCube(cube.frames[:0], cube.timestamps[:0], cube.bands, cube.mask)
    with pytest.raises(D.DataError, match="no frames"):
        D.fit_normalizer(empty)


@pytest.mark.parametrize("frames_per_chunk", [None, 1, 4])
@pytest.mark.parametrize("t", [1, 11])
def test_apply_normalizer_matches_whole_band_formula(monkeypatch, t, frames_per_chunk):
    if frames_per_chunk is not None:  # 11 frames = 2 chunks of 4 + 3
        monkeypatch.setattr(D, "_CHUNK_VALUES", frames_per_chunk * 6 * 5 * 7)
    mask = D.corner_mask(5, 7, 2)
    cube = physical_cube(t, mask=mask, seed=5)
    stats = D.fit_normalizer(cube)
    want = np.empty_like(cube.frames)
    for c in range(6):
        band = cube.frames[:, c].astype(np.float64)
        want[:, c] = ((band - stats.means[c]) / stats.stds[c]).astype(np.float32)
    want[:, :, mask] = 0.0
    got = D.apply_normalizer(cube, stats).frames
    assert got.tobytes() == want.tobytes()


def test_normalizer_peaks_stay_a_block_above_the_cube(monkeypatch):
    # a 128 KB block against a 3 MB cube: the working set must follow the
    # block, not the cube
    monkeypatch.setattr(D, "_CHUNK_VALUES", 1 << 14, raising=False)
    cube = physical_cube(2048, h=8, w=8, seed=7)
    cube_bytes = cube.frames.nbytes

    def peak_of(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    stats, fit_peak = peak_of(lambda: D.fit_normalizer(cube))
    assert fit_peak < cube_bytes / 4, (fit_peak, cube_bytes)
    # normalizing in place: the cube comes back, with one chunk on top
    frames = cube.frames
    out, apply_peak = peak_of(lambda: D.apply_normalizer(cube, stats))
    assert out is cube and out.frames is frames and out.normalized
    assert apply_peak < cube_bytes / 4, (apply_peak, cube_bytes)


def test_normalizer_constant_band_shift_only():
    cube = small_cube(t=4)
    cube.frames[:, 1] = 7.25
    stats = D.fit_normalizer(cube)
    assert stats.stds[1] == 1.0
    norm = D.apply_normalizer(cube, stats)
    npt.assert_allclose(norm.frames[:, 1], 0.0, atol=1e-6)


def test_normalizer_stats_roundtrip(tmp_path):
    # each line is band=mean,std in repr floats, which parse back exactly
    stats = D.fit_normalizer(small_cube(seed=9))
    p = tmp_path / "stats.txt"
    stats.save(p)
    lines = p.read_text().splitlines()
    assert len(lines) == len(stats.bands)
    for line, band, mean, std in zip(lines, stats.bands, stats.means, stats.stds):
        name, values = line.split("=")
        assert name == band
        assert [float(v) for v in values.split(",")] == [mean, std]


def test_apply_normalizer_band_mismatch():
    cube = small_cube()
    stats = D.NormalizerStats(("x",) * 6, (0.0,) * 6, (1.0,) * 6)
    with pytest.raises(D.DataError):
        D.apply_normalizer(cube, stats)


# ---------------------------------------------------------------------------
# cube container

def test_cube_file_roundtrip(tmp_path):
    mask = D.corner_mask(6, 6, 2)
    cube = small_cube(mask=mask, seed=4)
    norm = D.apply_normalizer(cube, D.fit_normalizer(cube))
    p = tmp_path / "cube.wxc1"
    D.save_cube(norm, p)
    again = D.load_cube(p)
    npt.assert_array_equal(again.frames, norm.frames)
    npt.assert_array_equal(again.mask, norm.mask)
    assert again.bands == norm.bands
    assert (again.timestamps == norm.timestamps).all()
    assert again.normalized


def test_cube_file_frames_are_the_raw_little_endian_bytes(tmp_path):
    cube = physical_cube(67, mask=D.corner_mask(5, 7, 2), seed=8)
    p = tmp_path / "cube.wxc"
    D.save_cube(cube, p)
    whole = p.read_bytes()
    assert whole.endswith(cube.frames.astype("<f4").tobytes())
    again = D.load_cube(p)
    assert again.frames.tobytes() == cube.frames.tobytes()
    assert again.frames.flags.c_contiguous and again.frames.flags.writeable
    D.save_cube(again, tmp_path / "again.wxc")
    assert (tmp_path / "again.wxc").read_bytes() == whole
    for cut in (1, 4 * 7, len(whole) - 4 * cube.frames.size + 2):
        p.write_bytes(whole[:-cut])
        with pytest.raises(D.DataError, match="truncated"):
            D.load_cube(p)
    p.write_bytes(whole + b"\0")
    with pytest.raises(D.DataError, match="trailing bytes"):
        D.load_cube(p)


def test_load_cube_maps_its_frames_instead_of_copying_them(tmp_path):
    cube = small_cube(t=300, h=30, w=40, seed=9)  # 8.6 MB of frames
    p = tmp_path / "cube.wxc"
    D.save_cube(cube, p)
    tracemalloc.start()
    try:
        again = D.load_cube(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.frames.nbytes / 10, peak
    assert again.frames.tobytes() == cube.frames.tobytes()


def test_a_loaded_cube_keeps_its_values_when_its_file_is_replaced(tmp_path):
    p = tmp_path / "cube.wxc"
    first, second = small_cube(seed=1), small_cube(seed=2)
    D.save_cube(first, p)
    loaded = D.load_cube(p)
    D.save_cube(second, p)
    assert loaded.frames.tobytes() == first.frames.tobytes()
    assert D.load_cube(p).frames.tobytes() == second.frames.tobytes()


def test_writing_into_loaded_frames_leaves_the_file_unchanged(tmp_path):
    p = tmp_path / "cube.wxc"
    D.save_cube(small_cube(seed=3), p)
    whole = p.read_bytes()
    cube = D.load_cube(p)
    cube.frames[...] = 7.0
    cube.frames[0, 0, 0, 0] = -1.0
    del cube
    assert p.read_bytes() == whole
    assert D.load_cube(p).frames.tobytes() == small_cube(seed=3).frames.tobytes()


def _u32_text(text):
    b = text.encode("utf-8")
    return struct.pack("<I", len(b)) + b


def test_cube_file_layout(tmp_path):
    # every byte spelled out with struct, apart from the helpers that write
    # the file, so that no change to them can move the format unnoticed
    mask = np.zeros((2, 3), dtype=bool)
    mask[1, 2] = True
    stamps = ["2019-01-01T00:00:00", "2019-01-01T01:00:00", "2019-01-01T02:00:00"]
    frames = np.arange(3 * 2 * 2 * 3, dtype=np.float32).reshape(3, 2, 2, 3)
    cube = D.WeatherCube(frames, [D.parse_timestamp(s) for s in stamps],
                         ("pressure", "cloud_cover"), mask, normalized=True)
    p = tmp_path / "cube.wxc"
    D.save_cube(cube, p)
    want = (b"WXC1" + struct.pack("<6I", 1, 1, 3, 2, 2, 3)
            + _u32_text("pressure") + _u32_text("cloud_cover")
            + bytes([0b00000100])  # six mask bits, first pixel in the top bit
            + b"".join(_u32_text(s) for s in stamps)
            + struct.pack("<36f", *range(36)))
    assert p.read_bytes() == want
    again = D.load_cube(p)
    assert again.frames.tobytes() == frames.tobytes() and again.normalized
    assert again.bands == cube.bands and (again.mask == mask).all()
    assert [D.format_timestamp(ts) for ts in again.timestamps] == stamps


def test_save_cube_failure_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    p = tmp_path / "cube.wxc"
    D.save_cube(small_cube(seed=1), p)
    old = p.read_bytes()
    assert sorted(x.name for x in tmp_path.iterdir()) == ["cube.wxc"]

    def fail(ts):  # the timestamps come after the header, bands and mask
        raise RuntimeError("write interrupted")

    monkeypatch.setattr(D, "format_timestamp", fail)
    with pytest.raises(RuntimeError, match="write interrupted"):
        D.save_cube(small_cube(seed=2), p)
    assert p.read_bytes() == old
    assert sorted(x.name for x in tmp_path.iterdir()) == ["cube.wxc"]


def test_a_failed_save_text_keeps_the_earlier_file_and_no_temp(tmp_path):
    p = tmp_path / "notes.txt"
    D.save_text(p, "first µ\n")
    assert p.read_bytes() == "first µ\n".encode("utf-8")
    with pytest.raises(UnicodeEncodeError):
        D.save_text(p, "\udcc3")  # a lone surrogate has no UTF-8 encoding
    assert p.read_bytes() == "first µ\n".encode("utf-8")
    assert sorted(x.name for x in tmp_path.iterdir()) == ["notes.txt"]


def test_cube_file_rejects_garbage(tmp_path):
    p = tmp_path / "x.wxc1"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(D.DataError):
        D.load_cube(p)
    cube = small_cube()
    good = tmp_path / "good.wxc1"
    D.save_cube(cube, good)
    whole = good.read_bytes()
    good.write_bytes(whole[:-10])
    with pytest.raises(D.DataError):
        D.load_cube(good)
    good.write_bytes(whole + b"zz")
    with pytest.raises(D.DataError):
        D.load_cube(good)


# ---------------------------------------------------------------------------
# power aggregation

def power_csv(rows):
    return "timestamp,source,mw\n" + "\n".join(rows) + "\n"


def test_aggregate_full_hour_mean():
    rows = [f"2019-01-01T00:{m:02d}:00,solar,{v}"
            for m, v in zip(range(0, 60, 5), range(1, 13))]
    rows += [f"2019-01-01T00:{m:02d}:00,wind,2.0" for m in range(0, 60, 5)]
    ps = D.aggregate_power(power_csv(rows))
    assert len(ps.timestamps) == 1
    npt.assert_allclose(ps.solar[0], 6.5, atol=1e-12)   # mean of 1..12
    npt.assert_allclose(ps.wind[0], 2.0, atol=1e-12)
    assert ps.flags[0] == set()


def test_aggregate_partial_missing_and_gap():
    rows = ["2019-01-01T00:05:00,solar,4.0",
            "2019-01-01T00:10:00,solar,6.0",
            "2019-01-01T02:00:00,solar,3.0",
            "2019-01-01T02:00:00,wind,1.5"]
    ps = D.aggregate_power(power_csv(rows))
    assert len(ps.timestamps) == 3
    npt.assert_allclose(ps.solar, [5.0, 0.0, 3.0])
    assert "solar_partial" in ps.flags[0]
    assert "wind_missing" in ps.flags[0]
    assert {"solar_missing", "wind_missing"} <= ps.flags[1]
    assert "solar_partial" in ps.flags[2]
    assert "wind_partial" in ps.flags[2]


def test_aggregate_floors_pre_1970_readings_into_their_hour():
    rows = ["1969-12-31T23:30:00,solar,2.0",
            "1969-12-31T23:55:00,solar,4.0",
            "1970-01-01T00:00:00,wind,1.0"]
    ps = D.aggregate_power(power_csv(rows))
    assert ps.timestamps.dtype == np.dtype("datetime64[s]")
    npt.assert_array_equal(ps.timestamps, hours("1969-12-31T23:00:00", 2))
    npt.assert_array_equal(ps.solar, [3.0, 0.0])
    npt.assert_array_equal(ps.wind, [0.0, 1.0])
    assert ps.flags == [{"solar_partial", "wind_missing"}, {"solar_missing", "wind_partial"}]


def test_aggregate_ignores_unknown_sources():
    rows = ["2019-01-01T00:00:00,solar,1.0",
            "2019-01-01T00:00:00,hydro,9.0"]
    ps = D.aggregate_power(power_csv(rows))
    npt.assert_allclose(ps.solar[0], 1.0)


def test_aggregate_reads_a_path_its_str_or_the_text(tmp_path):
    text = power_csv(["2019-01-01T00:00:00,solar,1.5", "2019-01-01T02:05:00,wind,2.0"])
    p = tmp_path / "power.csv"
    p.write_text(text)
    want = D.aggregate_power(text)
    for src in (p, str(p)):
        got = D.aggregate_power(src)
        npt.assert_array_equal(got.timestamps, want.timestamps)
        npt.assert_array_equal(got.solar, want.solar)
        npt.assert_array_equal(got.wind, want.wind)
        assert got.flags == want.flags


def test_aggregate_errors():
    with pytest.raises(D.DataError):
        D.aggregate_power("nope,profile\n")
    with pytest.raises(D.DataError):
        D.aggregate_power(power_csv(["2019-01-01T00:00:00,solar,abc"]))
    with pytest.raises(D.DataError):
        D.aggregate_power(power_csv(["2019-01-01T00:00:00,hydro,1.0"]))  # nothing usable
    with pytest.raises(D.DataError):
        D.aggregate_power(power_csv(["2019-01-01T00:00:00,solar,inf"]))


def test_power_series_requires_contiguous_hours():
    ts = np.array([D.parse_timestamp("2019-01-01T00:00:00"),
                   D.parse_timestamp("2019-01-01T02:00:00")])
    with pytest.raises(D.DataError):
        D.PowerSeries(ts, np.zeros(2), np.zeros(2), [set(), set()])


def test_power_file_roundtrip(tmp_path):
    rows = ["2019-01-01T00:00:00,solar,1.25", "2019-01-01T01:00:00,wind,0.75"]
    ps = D.aggregate_power(power_csv(rows))
    D.detect_constant_runs(ps, "wind", min_len=2)
    p = tmp_path / "hourly.csv"
    D.save_power(ps, p)
    again = D.load_power(p)
    npt.assert_array_equal(again.solar, ps.solar)
    npt.assert_array_equal(again.wind, ps.wind)
    assert again.flags == ps.flags
    assert (again.timestamps == ps.timestamps).all()


@pytest.mark.parametrize("column,text", [(1, "nan"), (2, "inf"), (1, "-inf")])
def test_load_power_refuses_non_finite_mw(tmp_path, column, text):
    # aggregate_power refuses these too: no command may train or score on them
    rows = ["2019-01-01T00:00:00,1.0,2.0,", "2019-01-01T01:00:00,1.0,2.0,"]
    cells = rows[1].split(",")
    cells[column] = text
    rows[1] = ",".join(cells)
    p = tmp_path / "hourly.csv"
    p.write_text("timestamp,solar_mw,wind_mw,flags\n" + "\n".join(rows) + "\n")
    with pytest.raises(D.DataError, match=f"{p}:3: non-finite mw"):
        D.load_power(p)


def test_load_power_skips_whitespace_rows(tmp_path):
    # as the manifest and 5-minute feed readers do
    p = tmp_path / "hourly.csv"
    p.write_text("timestamp,solar_mw,wind_mw,flags\n"
                 "2019-01-01T00:00:00,1.0,2.0,\n \n\t, \n"
                 "2019-01-01T01:00:00,3.0,4.0,wind_partial\n")
    ps = D.load_power(p)
    npt.assert_array_equal(ps.solar, [1.0, 3.0])
    assert ps.flags == [set(), {"wind_partial"}]


def test_load_power_reads_a_feed_as_aggregate_power_does(tmp_path):
    # a padded header, a partial hour, a missing one and an unknown source
    rows = [f"2019-01-01T00:{m:02d}:00, solar ,{m / 7}" for m in range(0, 60, 5)]
    rows += ["2019-01-01T00:05:00,wind,0.1", "2019-01-01T00:20:00,wind,0.3",
             "2019-01-01T00:40:00,hydro,9.0", "2019-01-01T03:10:00,wind,1.7"]
    p = tmp_path / "feed.csv"
    p.write_text("timestamp, source , mw\n" + "\n".join(rows) + "\n")
    want, got = D.aggregate_power(p), D.load_power(p)
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.solar.tobytes() == want.solar.tobytes()
    assert got.wind.tobytes() == want.wind.tobytes()
    assert got.flags == want.flags
    assert want.flags[0] == {"wind_partial"} and want.flags[1] == {"solar_missing", "wind_missing"}


@pytest.mark.parametrize("reader,header,row", [
    (D.load_frames, "timestamp,path,height,width,channels", "{ts},f0.bin,4,5,6"),
    (D.aggregate_power, "timestamp,source,mw", "{ts},solar,1.0"),
    (D.load_power, "timestamp,source,mw", "{ts},solar,1.0"),
    (D.load_power, "timestamp,solar_mw,wind_mw,flags", "{ts},1.0,2.0,"),
], ids=["manifest", "feed", "feed-via-load_power", "hourly"])
def test_table_errors_name_file_and_line(tmp_path, reader, header, row):
    p = tmp_path / "table.csv"
    good, bad = row.format(ts="2019-01-01T00:00:00"), row.format(ts="now")
    p.write_text(f"{header}\n\n{good}\n{bad}\n")
    with pytest.raises(D.DataError, match=f"{p}:4: bad timestamp 'now'"):
        reader(p)
    p.write_text(f"{header}\n{good},extra\n")
    with pytest.raises(D.DataError, match=f"{p}:2: expected {header.count(',') + 1} columns"):
        reader(p)
    p.write_text(f"{header},extra\n{good}\n")
    with pytest.raises(D.DataError, match=f"{p}:1: header must be"):
        reader(p)


# ---------------------------------------------------------------------------
# constant-run anomalies

def make_series(solar, wind=None):
    n = len(solar)
    wind = wind if wind is not None else np.ones(n)
    return D.PowerSeries(hours("2019-10-06T00:00:00", n),
                         np.asarray(solar, float), np.asarray(wind, float),
                         [set() for _ in range(n)])


def test_constant_run_detected_and_flagged():
    vals = [1.0, 2.0] + [5.5] * 8 + [3.0, 1.0]
    ps = make_series(np.ones(12), vals)
    runs = D.detect_constant_runs(ps, "wind", min_len=6)
    assert len(runs) == 1
    r = runs[0]
    assert r.length == 8 and r.value == 5.5 and r.source == "wind"
    assert D.format_timestamp(r.start) == "2019-10-06T02:00:00"
    assert D.format_timestamp(r.end) == "2019-10-06T09:00:00"
    for k in range(2, 10):
        assert "wind_constant" in ps.flags[k]
    assert "wind_constant" not in ps.flags[0]


def test_constant_zero_runs_ignored():
    ps = make_series([0.0] * 12)
    assert D.detect_constant_runs(ps, "solar", min_len=4) == []


def test_constant_run_below_min_len_ignored():
    ps = make_series(np.ones(4), [2.0, 2.0, 2.0, 1.0])
    assert D.detect_constant_runs(ps, "wind", min_len=4) == []


def test_constant_run_validation():
    ps = make_series([1.0] * 4)
    with pytest.raises(D.DataError):
        D.detect_constant_runs(ps, "hydro")
    with pytest.raises(D.DataError):
        D.detect_constant_runs(ps, "wind", min_len=1)


# ---------------------------------------------------------------------------
# alignment + samples

def aligned_fixture(t=20, gap_at=None):
    # cube frames valued by their hour index so stacking order is visible;
    # the power series always covers the full contiguous hour range
    stamps = [f"2019-01-01T{i:02d}:00:00" for i in range(t)]
    if gap_at is not None:
        stamps = [s for i, s in enumerate(stamps) if i != gap_at]
    frames = np.stack([np.full((6, 4, 4), float(int(s[11:13])), np.float32)
                       for s in stamps])
    cube = D.WeatherCube(frames, np.array([D.parse_timestamp(s) for s in stamps]),
                         D.BANDS, np.zeros((4, 4), bool))
    power = D.PowerSeries(hours("2019-01-01T00:00:00", t),
                          np.arange(t, dtype=float) + 1.0,
                          np.arange(t, dtype=float) + 2.0,
                          [set() for _ in range(t)])
    return D.align(cube, power)


def test_align_intersects_and_counts():
    cube = small_cube(t=10)
    n = 8
    start = D.parse_timestamp("2019-01-01T04:00:00")
    power = D.PowerSeries(start + np.arange(n) * D.HOUR,
                          np.ones(n), np.ones(n), [set() for _ in range(n)])
    ds = D.align(cube, power)
    assert len(ds) == 6  # hours 4..9
    npt.assert_array_equal(ds.cube_idx, [4, 5, 6, 7, 8, 9])


def test_align_pairs_match_a_loop_over_stamps():
    # a gapped cube against a trimmed power series; the reference pairs each
    # power hour with the cube frame of the same stamp, if there is one
    t0 = D.parse_timestamp("2019-01-01T00:00:00")
    kept = np.delete(np.arange(400), [3, 50, 51, 120, 300, 399])
    cube = D.WeatherCube(np.zeros((len(kept), 6, 2, 2), np.float32), t0 + kept * D.HOUR,
                         D.BANDS, np.zeros((2, 2), bool))
    n = 380
    power = D.PowerSeries(t0 + (10 + np.arange(n)) * D.HOUR, np.ones(n), np.ones(n),
                          [set() for _ in range(n)])
    ds = D.align(cube, power)
    pos = {ts: i for i, ts in enumerate(cube.timestamps.tolist())}
    pairs = [(pos[ts], pi) for pi, ts in enumerate(power.timestamps.tolist()) if ts in pos]
    assert ds.cube_idx.dtype == ds.power_idx.dtype == np.int64
    assert ds.cube_idx.tolist() == [ci for ci, _ in pairs]
    assert ds.power_idx.tolist() == [pi for _, pi in pairs]


def test_align_empty_intersection():
    cube = small_cube(t=4)
    start = D.parse_timestamp("2020-06-01T00:00:00")
    power = D.PowerSeries(start + np.arange(4) * D.HOUR, np.ones(4), np.ones(4),
                          [set() for _ in range(4)])
    with pytest.raises(D.DataError):
        D.align(cube, power)


def test_eligibility_stack5_contiguous():
    ds = aligned_fixture(t=20)
    assert ds.eligible_indices(1) == list(range(20))
    assert ds.eligible_indices(5) == list(range(5, 20))


def test_eligibility_stack5_with_gap():
    ds = aligned_fixture(t=20, gap_at=8)  # hour 8 missing; 19 samples left
    elig = ds.eligible_indices(5)
    # aligned index i corresponds to hour i for i<8, hour i+1 for i>=8.
    # hours 9..13 lack a contiguous 5-hour history (hour 8 is gone):
    # eligible hours are 5..8 (indices 5..7) and 14..19 (indices 13..18)
    assert elig == [5, 6, 7] + list(range(13, 19))


def test_sample_input_stacks_oldest_first():
    ds = aligned_fixture(t=20)
    x = ds.sample_input(10, 5)
    assert x.shape == (30, 4, 4)
    # frame blocks are hours 5..9 for target hour 10
    npt.assert_array_equal(x[0:6], 5.0)
    npt.assert_array_equal(x[24:30], 9.0)
    single = ds.sample_input(10, 1)
    npt.assert_array_equal(single, 10.0)
    with pytest.raises(D.DataError):
        ds.sample_input(3, 5)


def test_window_checks_each_frame_hour_not_only_the_span():
    # target 05:00 whose five prior frames are stamped t-5h, t-4.5h, t-3h,
    # t-2h, t-1h: the window spans 5 h, yet it lacks the 01:00 frame
    stamps = ["2019-01-01T00:00:00", "2019-01-01T00:30:00"] + [
        f"2019-01-01T{h:02d}:00:00" for h in range(2, 6)]
    cube = D.WeatherCube(np.zeros((6, 6, 2, 2), np.float32),
                         [D.parse_timestamp(s) for s in stamps], D.BANDS,
                         np.zeros((2, 2), bool))
    assert D.frame_window(cube, 5, 5) is None
    assert D.frame_window(cube, 5, 1) == slice(5, 6)
    power = D.PowerSeries(hours("2019-01-01T00:00:00", 6), np.ones(6), np.ones(6),
                          [set() for _ in range(6)])
    ds = D.align(cube, power)
    assert ds.eligible_indices(5) == []
    with pytest.raises(D.DataError):
        ds.sample_input(len(ds) - 1, 5)


@pytest.mark.parametrize("stack", [1, 5])
def test_sample_input_is_a_view_of_the_stacked_frames(stack):
    full = small_cube(t=16, seed=3)
    keep = np.arange(16) != 7
    cube = D.WeatherCube(full.frames[keep], full.timestamps[keep], full.bands,
                         full.mask)
    power = D.PowerSeries(hours("2019-01-01T00:00:00", 16), np.ones(16),
                          np.ones(16), [set() for _ in range(16)])
    ds = D.align(cube, power)
    ts = cube.timestamps
    offsets = D.STACK_OFFSETS[stack]
    want = [i for i, ci in enumerate(ds.cube_idx)
            if all(0 <= ci + off < len(ts) and ts[ci + off] == ts[ci] + off * D.HOUR
                   for off in offsets)]
    assert want and ds.eligible_indices(stack) == want
    for i in want:
        ci = ds.cube_idx[i]
        x = ds.sample_input(i, stack)
        npt.assert_array_equal(
            x, np.concatenate([cube.frames[ci + off] for off in offsets], axis=0))
        assert np.shares_memory(x, cube.frames)


@pytest.mark.parametrize("bad", [-3, -1, 20])
def test_sample_ids_outside_the_dataset_are_rejected(bad):
    ds = aligned_fixture(t=20)
    with pytest.raises(D.DataError, match="outside 0..19"):
        ds.targets([6, bad])
    with pytest.raises(D.DataError, match="outside 0..19"):
        ds.sample_input(bad, 1)
    with pytest.raises(D.DataError, match="outside 0..19"):
        ds.make_batch([6, bad], 1)


def test_make_batch_shapes_and_targets():
    ds = aligned_fixture(t=20)
    x, y = ds.make_batch([6, 7, 9], 5)
    assert x.shape == (3, 30, 4, 4) and x.dtype == np.float32
    assert y.shape == (3, 2)
    npt.assert_allclose(y.data, [[7.0, 8.0], [8.0, 9.0], [10.0, 11.0]])
    npt.assert_allclose(ds.targets([6])[0], [7.0, 8.0])
    assert ds.input_channels(5) == 30 and ds.input_channels(1) == 6


# ---------------------------------------------------------------------------
# splits

def test_split_sizes_exact_year():
    sp = D.split_indices(8759, seed=0, stack=1)
    assert (len(sp.train), len(sp.val), len(sp.test)) == (7008, 876, 875)
    sp5 = D.split_indices(8759, seed=0, stack=5)
    assert (len(sp5.train), len(sp5.val), len(sp5.test)) == (7004, 875, 875)
    assert min(min(sp5.train), min(sp5.val), min(sp5.test)) >= 5


def test_split_disjoint_and_complete():
    sp = D.split_indices(103, seed=3, stack=1)
    all_ids = set(sp.train) | set(sp.val) | set(sp.test)
    assert len(sp.train) + len(sp.val) + len(sp.test) == 103
    assert all_ids == set(range(103))
    assert list(sp.train) == sorted(sp.train)


def test_split_deterministic_and_seed_sensitive():
    a = D.split_indices(200, seed=1, stack=1)
    b = D.split_indices(200, seed=1, stack=1)
    c = D.split_indices(200, seed=2, stack=1)
    assert a == b
    assert a.train != c.train


def test_split_accepts_explicit_ids():
    ids = list(range(40, 140))
    sp = D.split_indices(ids, seed=0, stack=5)
    assert set(sp.train) | set(sp.val) | set(sp.test) == set(ids)
    assert (len(sp.train), len(sp.val), len(sp.test)) == (80, 10, 10)


def test_split_validation():
    with pytest.raises(D.DataError):
        D.split_indices(9, seed=0, stack=1)
    with pytest.raises(D.DataError):
        D.split_indices([1, 1, 2, 3, 4, 5, 6, 7, 8, 9], seed=0, stack=1)
    with pytest.raises(D.DataError):
        D.split_indices(100, seed=-1, stack=1)
    with pytest.raises(D.DataError):
        D.split_indices(100, seed=0, stack=3)


def test_split_file_roundtrip(tmp_path):
    sp = D.split_indices(50, seed=7, stack=5)
    p = tmp_path / "split.txt"
    sp.save(p)
    again = D.SplitIndices.load(p)
    assert again == sp
    p.write_text("seed=0\nstack=1\ntrain=1,2\nval=2\ntest=3\n")
    with pytest.raises(D.DataError):
        D.SplitIndices.load(p)


def test_split_file_refuses_unknown_missing_and_repeated_keys(tmp_path):
    p = tmp_path / "split.txt"
    good = "seed=0\nstack=1\ntrain=1,2\nval=3\ntest=4\n"
    for text, want in [(good + "holdout=5\n", f"{p}:6: unknown key 'holdout'"),
                       (good + "val=6\n", f"{p}:6: repeated key 'val'"),
                       (good.replace("seed=0\n", ""), f"{p}: split file lacks seed"),
                       (good.replace("seed=0", "seed=zero"), f"{p}:1: bad seed: ")]:
        p.write_text(text)
        with pytest.raises(D.DataError) as e:
            D.SplitIndices.load(p)
        assert str(e.value).startswith(want), str(e.value)


def test_split_file_with_a_bad_stack_names_its_line(tmp_path):
    p = tmp_path / "split.txt"
    p.write_text("seed=0\nstack=3\ntrain=1,2\nval=3\ntest=4\n")
    with pytest.raises(D.DataError) as e:
        D.SplitIndices.load(p)
    assert str(e.value).startswith(f"{p}:2: bad stack"), str(e.value)


# ---------------------------------------------------------------------------
# key=value files

def test_read_keys_skips_comments_and_strips_keys_and_values():
    lines = ["# a note\n", "\n", "  a = 3 \n", "b=x=y\n", "   \n"]
    got = D.read_keys(lines, "f", {"a": int, "b": str, "c": float})
    assert got == {"a": 3, "b": "x=y"}


@pytest.mark.parametrize("lines,want", [
    (["a 3"], "f:1: expected key=value"),
    (["# c=1", "c=1"], "f:2: unknown key 'c'"),
    (["a=1", "", "a = 2"], "f:3: repeated key 'a'"),
    (["b=x", "a=three"], "f:2: bad a: invalid literal"),
])
def test_read_keys_errors_name_the_line(lines, want):
    with pytest.raises(D.DataError) as e:
        D.read_keys(lines, "f", {"a": int, "b": str})
    assert str(e.value).startswith(want), str(e.value)


def test_keys_text_is_what_read_keys_reads_back():
    text = D.keys_text([("a", 5), ("b", (1, 2, 3)), ("c", ())])
    assert text == "a=5\nb=1,2,3\nc=\n"
    casters = {"a": int, "b": str, "c": str}
    assert D.read_keys(text.splitlines(), "f", casters) == {"a": 5, "b": "1,2,3", "c": ""}
    assert D.keys_text([]) == ""


# ---------------------------------------------------------------------------
# batches

def test_iter_batches_partition_and_determinism():
    ids = list(range(37))
    got = list(D.iter_batches(ids, 8, seed=5, epoch=2))
    assert [len(b) for b in got] == [8, 8, 8, 8, 5]
    flat = [i for b in got for i in b]
    assert sorted(flat) == ids
    again = [i for b in D.iter_batches(ids, 8, seed=5, epoch=2) for i in b]
    assert flat == again
    other_epoch = [i for b in D.iter_batches(ids, 8, seed=5, epoch=3) for i in b]
    assert flat != other_epoch
    other_seed = [i for b in D.iter_batches(ids, 8, seed=6, epoch=2) for i in b]
    assert flat != other_seed


# ---------------------------------------------------------------------------
# synthetic scenes

def test_synth_deterministic():
    cfg = D.SynthConfig(n_hours=48)
    a = D.synth_generate(cfg)
    b = D.synth_generate(cfg)
    npt.assert_array_equal(a.cube.frames, b.cube.frames)
    assert a.power_csv == b.power_csv
    c = D.synth_generate(D.SynthConfig(n_hours=48, seed=1))
    assert not np.array_equal(a.cube.frames, c.cube.frames)


def test_synth_holds_one_float64_field_at_a_time():
    # the bands are drawn one by one: the frames plus one float64 field and
    # the temporaries of its band's formula, never all six fields at once
    cfg = D.SynthConfig(height=30, width=40, n_hours=500, seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = D.synth_generate(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    field_bytes = cfg.n_hours * cfg.height * cfg.width * 8
    assert peak <= res.cube.frames.nbytes + 4 * field_bytes, \
        (peak, res.cube.frames.nbytes, field_bytes)


def test_synth_bands_physical():
    res = D.synth_generate(D.SynthConfig(n_hours=72))
    cube = res.cube
    keep = ~cube.mask
    speed = cube.frames[:, cube.band_index("wind_speed")][:, keep]
    cloud = cube.frames[:, cube.band_index("cloud_cover")][:, keep]
    wdir = cube.frames[:, cube.band_index("wind_direction")][:, keep]
    assert speed.min() >= 0.0
    assert cloud.min() >= 0.0 and cloud.max() <= 100.0
    assert wdir.min() >= 0.0 and wdir.max() < 360.0
    npt.assert_array_equal(cube.frames[:, :, cube.mask], 0.0)
    assert cube.mask.sum() == 4 * 6  # radius 3 triangles


def test_synth_solar_zero_at_night():
    res = D.synth_generate(D.SynthConfig(n_hours=72))
    hours_of_day = np.arange(72) % 24
    night = (hours_of_day <= 6) | (hours_of_day >= 18)
    npt.assert_array_equal(res.solar_truth[night], 0.0)
    assert res.solar_truth[hours_of_day == 12].max() > 0.0


def test_synth_doubling_plants_doubles_solar():
    base = D.SynthConfig(n_hours=48)
    doubled = D.SynthConfig(n_hours=48, solar_plants=base.solar_plants * 2)
    a = D.synth_generate(base)
    b = D.synth_generate(doubled)
    npt.assert_allclose(b.solar_truth, 2.0 * a.solar_truth, rtol=1e-9)


def test_synth_wind_cubic_response():
    npt.assert_allclose(D._wind_response(np.array([12.0]), 3, 12, 25), [1.0])
    npt.assert_allclose(D._wind_response(np.array([6.0]), 3, 12, 25), [0.125])
    npt.assert_array_equal(D._wind_response(np.array([2.0, 26.0]), 3, 12, 25), [0.0, 0.0])
    npt.assert_allclose(D._wind_response(np.array([18.0]), 3, 12, 25), [1.0])


def test_synth_csv_aggregates_to_truth():
    res = D.synth_generate(D.SynthConfig(n_hours=48))
    ps = D.aggregate_power(res.power_csv)
    assert len(ps.timestamps) == 48
    npt.assert_allclose(ps.solar, res.solar_truth, rtol=1e-7, atol=1e-9)
    npt.assert_allclose(ps.wind, res.wind_truth, rtol=1e-7, atol=1e-9)
    assert all(f == set() for f in ps.flags)


def test_synth_plant_validation():
    # the config itself refuses a plant the grid cannot hold
    with pytest.raises(D.DataError, match="masked pixel"):
        D.SynthConfig(solar_plants=((0, 0),))
    with pytest.raises(D.DataError, match="outside 24x24 grid"):
        D.SynthConfig(wind_plants=((99, 0),))
    with pytest.raises(D.DataError, match="outside 18x18 grid"):
        D.SynthConfig(height=18, width=18)  # the default plants need 19x19
    assert D.SynthConfig(height=19, width=19).height == 19
    with pytest.raises(D.DataError):
        D.SynthConfig(noise_mw=-1.0)
    with pytest.raises(D.DataError):
        D.SynthConfig(n_hours=0)


def test_synth_pipeline_to_training_arrays():
    res = D.synth_generate(D.SynthConfig(n_hours=60))
    stats = D.fit_normalizer(res.cube)
    norm = D.apply_normalizer(res.cube, stats)
    ps = D.aggregate_power(res.power_csv)
    ds = D.align(norm, ps)
    assert len(ds) == 60
    sp = D.split_indices(ds.eligible_indices(5), seed=0, stack=5)
    x, y = ds.make_batch(sp.train[:4], 5)
    assert x.shape == (4, 30, 24, 24)
    assert np.isfinite(x.data).all()
