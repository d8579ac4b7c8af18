"""Command-line interface over the data, training, and analysis modules.

Subcommands: import, synth, split, train, eval, saliency, anomalies.
Every command is deterministic given its arguments and input files; run
directories receive the resolved configuration and sha256 hashes of the
inputs consumed. Exit codes: 0 ok, 2 config error, 3 data error, 4
numeric failure.
"""

import argparse
import functools
import hashlib
import os
import sys

import numpy as np

from . import data as D
from . import models as M
from . import optim as O
from . import saliency as S
from . import svgplot as P
from .layers import Rng
from .metrics import compute_report, report_csv, report_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# settings: flags and config files (flat key=value lines, '#' comments)

def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from None


def _timestamp(text: str) -> str:
    D.parse_timestamp(text)  # refuses an unparsable stamp
    return text


# every setting, whether given as a flag or as a config key: its caster,
# or the tuple of values it may take
SETTINGS = {
    "manifest": str, "frames_dir": str, "cube": str, "power": str,
    "splits": str, "checkpoint": str, "out": str,
    "coarsen": int, "corner_radius": int,
    "model": M.FAMILIES, "stack": D.STACK_CHOICES, "seed": int,
    "epochs": int, "batch_size": int, "l2_lambda": float,
    "stage_length": int, "lrs": _float_list, "adaptive_stages": _bool,
    "exclude_anomalies": _bool,
    "subset": ("train", "val", "test"),
    "window_start": _timestamp, "window_end": _timestamp,
    "timestamp": _timestamp, "index": int,
    "hours": int, "grid": int, "noise": float,
    "min_len": int, "source": ("solar", "wind", "both"),
}


def _cast(key: str, text: str):
    rule = SETTINGS[key]
    if not isinstance(rule, tuple):
        return rule(text)
    value = type(rule[0])(text)
    if value not in rule:
        raise ConfigError(f"must be one of {rule}, got {text!r}")
    return value


def parse_config(path) -> dict:
    casters = {key: functools.partial(_cast, key) for key in SETTINGS}
    try:
        with open(path, encoding="utf-8") as fh:
            return D.read_keys(fh, path, casters)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except D.DataError as e:
        raise ConfigError(str(e)) from None


class Resolver:
    """CLI value > config-file value > built-in default; records what was used."""

    def __init__(self, args):
        self.args = args
        self.file_cfg = parse_config(args.config) if getattr(args, "config", None) else {}
        self.used = {}

    def get(self, key, default=None):
        v = getattr(self.args, key, None)
        if v is None:
            v = self.file_cfg.get(key, default)
        self.used[key] = v
        return v

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise ConfigError(f"missing required setting {key!r} "
                              f"(flag --{key.replace('_', '-')} or config key)")
        return v


def _write_run_files(out_dir, used: dict, input_paths) -> None:
    os.makedirs(out_dir, exist_ok=True)
    pairs = []
    for k, v in sorted(used.items()):
        if isinstance(v, bool):
            v = int(v)
        elif isinstance(v, tuple):
            v = tuple(f"{x:.9g}" for x in v)
        if v is not None:
            pairs.append((k, v))
    D.save_text(os.path.join(out_dir, "config.resolved"), D.keys_text(pairs))
    hashes = []
    for p in input_paths:
        digest = hashlib.sha256()
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        hashes.append(f"{digest.hexdigest()}  {os.path.basename(os.fspath(p))}")
    D.save_text(os.path.join(out_dir, "inputs.sha256"),
                "".join(line + "\n" for line in hashes))


# ---------------------------------------------------------------------------
# import

def cmd_import(args) -> int:
    r = Resolver(args)
    manifest = r.require("manifest")
    frames_dir = r.get("frames_dir")
    factor = r.get("coarsen", 1)
    radius = r.get("corner_radius", 0)
    out_dir = r.require("out")
    if factor < 1:
        raise ConfigError(f"coarsen must be >= 1, got {factor}")
    if radius < 0:
        raise ConfigError(f"corner_radius must be >= 0, got {radius}")

    cube = D.load_frames(manifest, frames_dir)
    print(f"loaded {cube.shape[0]} frames of {cube.shape[2]}x{cube.shape[3]} px")
    if factor > 1:
        cube = D.coarsen(cube, factor)
        print(f"coarsened x{factor} to {cube.shape[2]}x{cube.shape[3]} px")
    if radius > 0:
        mask = cube.mask | D.corner_mask(cube.shape[2], cube.shape[3], radius)
        cube = D.WeatherCube(cube.frames, cube.timestamps, cube.bands, mask)
        print(f"corner radius {radius}: {int(mask.sum())} px masked")

    os.makedirs(out_dir, exist_ok=True)
    stats = D.fit_normalizer(cube)
    stats.save(os.path.join(out_dir, "normalizer.txt"))
    cube = D.apply_normalizer(cube, stats)
    print("normalized per band; stats in normalizer.txt")
    D.save_cube(cube, os.path.join(out_dir, "cube.wxc"))
    _write_run_files(out_dir, r.used, [manifest])
    print(f"wrote {os.path.join(out_dir, 'cube.wxc')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    r = Resolver(args)
    out_dir = r.require("out")
    try:
        default = D.SynthConfig
        cfg = D.SynthConfig(
            height=r.get("grid", default.height), width=r.get("grid", default.width),
            n_hours=r.get("hours", default.n_hours),
            seed=r.get("seed", default.seed), noise_mw=r.get("noise", default.noise_mw),
            corner_radius=r.get("corner_radius", default.corner_radius))
        result = D.synth_generate(cfg)
    except D.DataError as e:
        raise ConfigError(str(e)) from None

    cube = result.cube
    _, c, h, w = cube.shape
    stamps = [D.format_timestamp(ts) for ts in cube.timestamps]
    os.makedirs(os.path.join(out_dir, "frames"), exist_ok=True)

    # import-compatible raw frame files; masked pixels ride along as NaN
    rows = []
    for i, stamp in enumerate(stamps):
        frame = cube.frames[i].astype("<f4")
        frame[:, cube.mask] = np.nan
        rel = f"frames/frame_{i:05d}.f32"
        frame.tofile(os.path.join(out_dir, rel))
        rows.append((stamp, rel, h, w, c))
    D.save_text(os.path.join(out_dir, "manifest.csv"), D.csv_text(
        ["timestamp", "path", "height", "width", "channels"], rows))
    D.save_text(os.path.join(out_dir, "power.csv"), result.power_csv)
    D.save_text(os.path.join(out_dir, "plants.csv"),
                "source,row,col\n" + "".join(
                    f"{src},{pi},{pj}\n" for src in D.SOURCES
                    for (pi, pj) in np.argwhere(result.plant_masks[src])))
    D.save_text(os.path.join(out_dir, "truth.csv"),
                "timestamp,solar_mw,wind_mw\n" + "".join(
                    f"{stamp},{solar:.9g},{wind:.9g}\n" for stamp, solar, wind
                    in zip(stamps, result.solar_truth, result.wind_truth)))
    _write_run_files(out_dir, r.used, [])
    print(f"synthesized {len(stamps)} hours on a {h}x{w} grid into {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# split

def _load_normalized_cube(path) -> D.WeatherCube:
    """The cube at path, refused unless `import` normalized it."""
    cube = D.load_cube(path)
    if not cube.normalized:
        raise D.DataError(f"{path}: cube is not normalized; import it first")
    return cube


def _load_aligned(cube_path, power_path):
    cube = _load_normalized_cube(cube_path)
    power = D.load_power(power_path)
    return D.align(cube, power)


def cmd_split(args) -> int:
    r = Resolver(args)
    stack = r.get("stack", 1)
    seed = r.get("seed", 0)
    exclude = r.get("exclude_anomalies", False)
    out = r.require("out")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    ds = _load_aligned(r.require("cube"), r.require("power"))
    eligible = ds.eligible_indices(stack)
    if exclude:
        for src in D.SOURCES:
            D.detect_constant_runs(ds.power, src)
        eligible = [i for i in eligible if not ds.power.flags[ds.power_idx[i]]]
    split = D.split_indices(eligible, seed, stack)
    split.save(out)
    print(f"{len(ds)} aligned hours, {len(eligible)} eligible at stack {stack}: "
          f"{len(split.train)} train / {len(split.val)} val / {len(split.test)} test "
          f"-> {out}")
    flagged = sum(any(f.endswith(("_missing", "_partial"))
                      for f in ds.power.flags[ds.power_idx[i]]) for i in eligible)
    print(f"{flagged} of the {len(eligible)} kept hours carry a *_missing or "
          f"*_partial power flag")
    return EXIT_OK


def _load_split(path, ds: D.AlignedDataset) -> D.SplitIndices:
    """The split file at path: nonempty train and val, every id eligible."""
    split = D.SplitIndices.load(path)
    for name in ("train", "val"):
        if not getattr(split, name):
            raise D.DataError(f"{path}: the {name} group is empty")
    eligible = set(ds.eligible_indices(split.stack))
    bad = [i for i in split.train + split.val + split.test if i not in eligible]
    if bad:
        raise D.DataError(f"{path}: ids {bad[:5]} ({len(bad)} in all) are not "
                          f"eligible samples at stack {split.stack}")
    return split


# ---------------------------------------------------------------------------
# train

def _charts(history, out_dir) -> None:
    epochs = [h.epoch for h in history]
    loss = P.line_chart(
        [("train rmse", epochs, [h.train_rmse for h in history]),
         ("val rmse", epochs, [h.val_rmse for h in history])],
        title="loss over epochs", x_label="epoch", y_label="rmse (MW)")
    P.save_chart(os.path.join(out_dir, "loss_curves.svg"), loss)
    acc = P.line_chart(
        [("train solar", epochs, [h.train_solar_acc for h in history]),
         ("train wind", epochs, [h.train_wind_acc for h in history]),
         ("val solar", epochs, [h.val_solar_acc for h in history]),
         ("val wind", epochs, [h.val_wind_acc for h in history])],
        title="accuracy over epochs", x_label="epoch", y_label="accuracy")
    P.save_chart(os.path.join(out_dir, "accuracy_curves.svg"), acc)


def cmd_train(args) -> int:
    r = Resolver(args)
    cube_path = r.require("cube")
    power_path = r.require("power")
    splits_path = r.require("splits")
    family = r.get("model", "linear")
    out_dir = r.require("out")
    schedule = O.StageSchedule(
        stage_length=r.get("stage_length", O.StageSchedule.stage_length),
        stage_lrs=r.get("lrs", O.StageSchedule.stage_lrs))
    default = O.TrainConfig
    config = O.TrainConfig(
        batch_size=r.get("batch_size", default.batch_size),
        epochs=r.get("epochs", schedule.span),
        l2_lambda=r.get("l2_lambda", 0.01 if family == "linear" else 0.001),
        seed=r.get("seed", default.seed), schedule=schedule,
        adaptive_stages=r.get("adaptive_stages", default.adaptive_stages))

    ds = _load_aligned(cube_path, power_path)
    split = _load_split(splits_path, ds)
    channels = ds.input_channels(split.stack)
    build = M.build_linear if family == "linear" else M.build_resnet
    model = build(channels, Rng(config.seed), input_hw=ds.cube.shape[2:])

    # the config and input hashes go first, so a run that fails keeps them
    _write_run_files(out_dir, r.used, [cube_path, power_path, splits_path])
    run = O.train(model, ds, split, config, out_dir=out_dir, log=print)
    _charts(run.history, out_dir)
    last = run.history[-1]
    print(f"final val rmse {last.val_rmse:.4f} MW, "
          f"solar acc {last.val_solar_acc:.4f}, "
          f"wind acc {last.val_wind_acc:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def _check_fit(model, cube, stack: int, given_by: str) -> None:
    """Refuse a checkpoint whose input is not `cube`'s frames at `stack`."""
    want = (cube.shape[1] * len(D.STACK_OFFSETS[stack]), *cube.shape[2:])
    got = (model.spec.input_channels, *model.spec.input_hw)
    if got != want:
        raise ConfigError(f"checkpoint wants (C, H, W) = {got}, "
                          f"{given_by} at stack {stack} gives {want}")


def cmd_eval(args) -> int:
    r = Resolver(args)
    ckpt_path = r.require("checkpoint")
    cube_path = r.require("cube")
    power_path = r.require("power")
    splits_path = r.require("splits")
    subset = r.get("subset", "test")
    out_dir = r.require("out")
    ws, we = r.get("window_start"), r.get("window_end")
    if (ws is None) != (we is None):
        raise ConfigError("window_start and window_end must be given together")
    if ws is not None and D.parse_timestamp(we) < D.parse_timestamp(ws):
        raise ConfigError("window_end precedes window_start")

    ds = _load_aligned(cube_path, power_path)
    split = _load_split(splits_path, ds)
    ids = list(getattr(split, subset))
    if not ids:
        raise D.DataError(f"{splits_path}: the {subset} group is empty")
    train_means = O.train_split_means(ds, split.train)
    window = None if ws is None else _window_ids(ds, split.stack, ws, we)
    model = M.load_checkpoint(ckpt_path)
    _check_fit(model, ds.cube, split.stack, "split")
    res = O.evaluate(model, ds, ids, split.stack, train_means)
    rep = compute_report(res.pred, res.target, train_means)
    os.makedirs(out_dir, exist_ok=True)
    D.save_text(os.path.join(out_dir, "report.txt"), report_text(rep))
    D.save_text(os.path.join(out_dir, "report.csv"), report_csv(rep))
    print(report_text(rep), end="")
    if window is not None:
        _write_window(ds, model, split.stack, window, out_dir)
    _write_run_files(out_dir, r.used,
                     [ckpt_path, cube_path, power_path, splits_path])
    return EXIT_OK


def _window_ids(ds, stack, ws, we) -> list:
    """The eligible sample ids inside [ws, we]; refused if out of range or empty."""
    start, end = D.parse_timestamp(ws), D.parse_timestamp(we)
    lo, hi = ds.timestamps[0], ds.timestamps[-1]
    if start < lo or end > hi:
        raise D.DataError(
            f"window [{ws}, {we}] outside data range "
            f"[{D.format_timestamp(lo)}, {D.format_timestamp(hi)}]")
    eligible = set(ds.eligible_indices(stack))
    ids = [i for i in range(len(ds))
           if start <= ds.timestamps[i] <= end and i in eligible]
    if not ids:
        raise D.DataError("no evaluable samples inside the window")
    return ids


def _write_window(ds, model, stack, ids, out_dir) -> None:
    """Chronological true-vs-estimated slice as CSV + SVG."""
    res = O.evaluate(model, ds, ids, stack, (1.0, 1.0))
    stamps = [D.format_timestamp(ds.timestamps[i]) for i in ids]
    D.save_text(os.path.join(out_dir, "window.csv"),
                "timestamp,true_solar,pred_solar,true_wind,pred_wind\n" + "".join(
                    f"{stamp},{res.target[k, 0]:.9g},{res.pred[k, 0]:.9g},"
                    f"{res.target[k, 1]:.9g},{res.pred[k, 1]:.9g}\n"
                    for k, stamp in enumerate(stamps)))
    hours = [(ds.timestamps[i] - ds.timestamps[ids[0]]) / D.HOUR for i in ids]
    svg = P.line_chart(
        [("true solar", hours, res.target[:, 0]),
         ("est solar", hours, res.pred[:, 0]),
         ("true wind", hours, res.target[:, 1]),
         ("est wind", hours, res.pred[:, 1])],
        title=f"week slice from {stamps[0]}",
        x_label=f"hours since {stamps[0]}", y_label="MW")
    P.save_chart(os.path.join(out_dir, "window.svg"), svg)


# ---------------------------------------------------------------------------
# saliency

def cmd_saliency(args) -> int:
    r = Resolver(args)
    ckpt_path = r.require("checkpoint")
    cube_path = r.require("cube")
    out_dir = r.require("out")
    stamp = r.get("timestamp")
    index = r.get("index")
    if (stamp is None) == (index is None):
        raise ConfigError("give exactly one of timestamp or index")
    if index is not None and index < 0:
        raise ConfigError(f"index must be >= 0, got {index}")

    cube = _load_normalized_cube(cube_path)
    model = M.load_checkpoint(ckpt_path)
    if stamp is not None:
        want = D.parse_timestamp(stamp)
        hits = np.nonzero(cube.timestamps == want)[0]
        if len(hits) == 0:
            raise D.DataError(f"cube has no frame at {stamp}")
        index = int(hits[0])
    if not 0 <= index < cube.shape[0]:
        raise D.DataError(f"frame index {index} outside 0..{cube.shape[0] - 1}")

    # the stack whose frames make up the checkpoint's channels; stack 1 when
    # none does, so that the refusal names the cube's own frame
    stack = model.spec.input_channels // cube.shape[1]
    _check_fit(model, cube, stack if stack in D.STACK_OFFSETS else 1, "cube")
    x = D.stacked_input(cube, index, stack)[None]
    when = D.format_timestamp(cube.timestamps[index])

    os.makedirs(out_dir, exist_ok=True)
    for out_idx, name in enumerate(D.SOURCES):
        smap = S.saliency_map(model, x, out_idx, timestamp=when, mask=cube.mask)
        S.export_map(smap, os.path.join(out_dir, f"{name}.csv"), "csv")
        S.export_map(smap, os.path.join(out_dir, f"{name}.pgm"), "pgm")
    _write_run_files(out_dir, r.used, [ckpt_path, cube_path])
    print(f"wrote solar/wind maps for {when} to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# anomalies

def cmd_anomalies(args) -> int:
    r = Resolver(args)
    min_len = r.get("min_len", 6)
    which = r.get("source", "both")
    if min_len < 2:
        raise ConfigError(f"min_len must be >= 2, got {min_len}")
    power = D.load_power(r.require("power"))
    sources = D.SOURCES if which == "both" else (which,)
    total = 0
    for src in sources:
        for run in D.detect_constant_runs(power, src, min_len=min_len):
            total += 1
            print(f"{run.source} {D.format_timestamp(run.start)} .. "
                  f"{D.format_timestamp(run.end)} value {run.value:.9g} "
                  f"length {run.length}h")
    if total == 0:
        print("no constant runs found")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

# each subcommand's help line and the settings it takes as flags; a
# boolean's flag switches it on
COMMANDS = {
    "import": ("frame files -> normalized cube",
               "manifest frames_dir coarsen corner_radius"),
    "synth": ("generate a synthetic dataset", "hours grid noise corner_radius"),
    "split": ("deterministic train/val/test id split",
              "cube power stack exclude_anomalies"),
    "train": ("fit a model", "cube power splits model epochs batch_size "
                             "l2_lambda stage_length lrs adaptive_stages"),
    "eval": ("score a checkpoint on a split subset",
             "checkpoint cube power splits subset window_start window_end"),
    "saliency": ("input-gradient maps for one sample",
                 "checkpoint cube timestamp index"),
    "anomalies": ("report constant-output runs in a power series",
                  "power min_len source"),
}
FLAG_HELP = {"out": "output file or directory",
             "lrs": "4 comma-separated stage rates"}


def _add_flag(p: argparse.ArgumentParser, key: str) -> None:
    rule = SETTINGS[key]
    flag = "--" + key.replace("_", "-")
    if rule is _bool:
        p.add_argument(flag, dest=key, action="store_const", const=True)
    elif isinstance(rule, tuple):
        p.add_argument(flag, dest=key, type=type(rule[0]), choices=rule)
    else:
        p.add_argument(flag, dest=key, type=rule, help=FLAG_HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    _add_flag(common, "seed")
    _add_flag(common, "out")

    parser = argparse.ArgumentParser(
        prog="wxpower",
        description="regional solar/wind production estimation from "
                    "surface weather maps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag in flags.split():
            _add_flag(p, flag)
        # looked up now, not at import, so a wrapped cmd_<name> is the one run
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except O.NumericError as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except D.DataError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
