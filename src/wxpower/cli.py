"""Command-line interface over the data, training, and analysis modules.

Subcommands: import, synth, split, train, eval, saliency, anomalies.
Every command is deterministic given its arguments and input files; run
directories receive the resolved configuration and sha256 hashes of the
inputs consumed. Exit codes: 0 ok, 2 config error, 3 data error, 4
numeric failure.
"""

import argparse
import csv
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
# config document: flat key=value lines, '#' comments

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


CONFIG_CASTERS = {
    "manifest": str, "frames_dir": str, "cube": str, "power": str,
    "splits": str, "checkpoint": str, "out": str,
    "coarsen": int, "corner_radius": int, "normalize": _bool,
    "model": str, "stack": int, "seed": int,
    "epochs": int, "batch_size": int, "l2_lambda": float,
    "stage_length": int, "lrs": _float_list, "adaptive_stages": _bool,
    "exclude_anomalies": _bool,
    "subset": str, "window_start": str, "window_end": str,
    "timestamp": str, "index": int,
    "hours": int, "grid": int, "noise": float,
    "min_len": int, "source": str,
}


def parse_config(path) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                caster = CONFIG_CASTERS.get(key)
                if caster is None:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    out[key] = caster(val)
                except ConfigError:
                    raise
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return out


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
    lines = []
    for k in sorted(used):
        v = used[k]
        if v is None:
            continue
        if isinstance(v, bool):
            v = int(v)
        elif isinstance(v, tuple):
            v = ",".join(f"{x:.9g}" for x in v)
        lines.append(f"{k}={v}")
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    hashes = []
    for p in input_paths:
        digest = hashlib.sha256()
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        hashes.append(f"{digest.hexdigest()}  {os.path.basename(os.fspath(p))}")
    with open(os.path.join(out_dir, "inputs.sha256"), "w") as fh:
        fh.write("\n".join(hashes) + ("\n" if hashes else ""))


# ---------------------------------------------------------------------------
# import

def cmd_import(args) -> int:
    r = Resolver(args)
    manifest = r.require("manifest")
    frames_dir = r.get("frames_dir")
    factor = r.get("coarsen", 1)
    radius = r.get("corner_radius", 0)
    normalize = r.get("normalize", True)
    out_dir = r.require("out")

    cube = D.load_frames(manifest, frames_dir)
    print(f"loaded {cube.shape[0]} frames of {cube.shape[2]}x{cube.shape[3]} px")
    if factor > 1:
        cube = D.coarsen(cube, factor)
        print(f"coarsened x{factor} to {cube.shape[2]}x{cube.shape[3]} px")
    if radius > 0:
        mask = cube.mask | D.corner_mask(cube.shape[2], cube.shape[3], radius)
        frames = cube.frames.copy()
        frames[:, :, mask] = 0.0
        cube = D.WeatherCube(frames, cube.timestamps, cube.bands, mask)
        print(f"corner radius {radius}: {int(mask.sum())} px masked")

    os.makedirs(out_dir, exist_ok=True)
    if normalize:
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
        cfg = D.SynthConfig(
            height=r.get("grid", 24), width=r.get("grid", 24),
            n_hours=r.get("hours", 240), seed=r.get("seed", 0),
            noise_mw=r.get("noise", 0.0),
            corner_radius=r.get("corner_radius", 3))
        result = D.synth_generate(cfg)
    except D.DataError as e:
        raise ConfigError(str(e)) from None

    os.makedirs(out_dir, exist_ok=True)
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    cube = result.cube
    D.save_cube(cube, os.path.join(out_dir, "cube.wxc"))

    # import-compatible raw frame files; masked pixels ride along as NaN
    rows = []
    for i in range(cube.shape[0]):
        frame = cube.frames[i].astype("<f4").copy()
        frame[:, cube.mask] = np.nan
        name = f"frame_{i:05d}.f32"
        frame.tofile(os.path.join(frames_dir, name))
        rows.append((D.format_timestamp(cube.timestamps[i]), f"frames/{name}",
                     cube.shape[2], cube.shape[3], cube.shape[1]))
    with open(os.path.join(out_dir, "manifest.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["timestamp", "path", "height", "width", "channels"])
        wr.writerows(rows)

    with open(os.path.join(out_dir, "power.csv"), "w") as fh:
        fh.write(result.power_csv)
    with open(os.path.join(out_dir, "plants.csv"), "w") as fh:
        fh.write("source,row,col\n")
        for src in ("solar", "wind"):
            pts = np.argwhere(result.plant_masks[src])
            for (pi, pj) in pts:
                fh.write(f"{src},{pi},{pj}\n")
    with open(os.path.join(out_dir, "truth.csv"), "w") as fh:
        fh.write("timestamp,solar_mw,wind_mw\n")
        for i in range(cube.shape[0]):
            fh.write(f"{D.format_timestamp(cube.timestamps[i])},"
                     f"{result.solar_truth[i]:.9g},{result.wind_truth[i]:.9g}\n")
    _write_run_files(out_dir, r.used, [])
    print(f"synthesized {cube.shape[0]} hours on a {cube.shape[2]}x{cube.shape[3]} "
          f"grid into {out_dir}")
    return EXIT_OK


def load_plants(path) -> dict:
    """Plant pixels from plants.csv: source -> [(row, col), ...]."""
    out: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["source", "row", "col"]:
            raise D.DataError(f"{path}: bad plant file header")
        for row in reader:
            if row:
                out.setdefault(row[0], []).append((int(row[1]), int(row[2])))
    return out


def _load_power_any(path) -> D.PowerSeries:
    """Accept either power format: the raw 5-minute feed (timestamp,
    source, mw), which gets aggregated to hourly means, or the canonical
    hourly file."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
    if header == "timestamp,source,mw":
        return D.aggregate_power(path)
    return D.load_power(path)


# ---------------------------------------------------------------------------
# split

def _load_aligned(r: Resolver, exclude: bool):
    cube = D.load_cube(r.require("cube"))
    power = _load_power_any(r.require("power"))
    if exclude:
        for src in ("solar", "wind"):
            D.detect_constant_runs(power, src)
    return D.align(cube, power)


def _eligible(ds: D.AlignedDataset, stack: int, exclude: bool) -> list:
    ids = ds.eligible_indices(stack)
    if exclude:
        ids = [i for i in ids if not ds.power.flags[ds.power_idx[i]]]
    return ids


def cmd_split(args) -> int:
    r = Resolver(args)
    stack = r.get("stack", 1)
    seed = r.get("seed", 0)
    exclude = r.get("exclude_anomalies", False)
    out = r.require("out")
    ds = _load_aligned(r, exclude)
    eligible = _eligible(ds, stack, exclude)
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
    """The split file at path; every id in it must be an eligible sample."""
    split = D.SplitIndices.load(path)
    eligible = set(ds.eligible_indices(split.stack))
    bad = [i for i in split.train + split.val + split.test if i not in eligible]
    if bad:
        raise D.DataError(f"{path}: ids {bad[:5]} ({len(bad)} in all) are not "
                          f"eligible samples at stack {split.stack}")
    return split


# ---------------------------------------------------------------------------
# train

def _charts_from_history(history_path, out_dir) -> None:
    with open(history_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    epochs = [float(row["epoch"]) for row in rows]
    loss = P.line_chart(
        [("train rmse", epochs, [float(row["train_rmse"]) for row in rows]),
         ("val rmse", epochs, [float(row["val_rmse"]) for row in rows])],
        title="loss over epochs", x_label="epoch", y_label="rmse (MW)")
    P.save_chart(os.path.join(out_dir, "loss_curves.svg"), loss)
    acc = P.line_chart(
        [("train solar", epochs, [float(row["train_solar_acc"]) for row in rows]),
         ("train wind", epochs, [float(row["train_wind_acc"]) for row in rows]),
         ("val solar", epochs, [float(row["val_solar_acc"]) for row in rows]),
         ("val wind", epochs, [float(row["val_wind_acc"]) for row in rows])],
        title="accuracy over epochs", x_label="epoch", y_label="accuracy")
    P.save_chart(os.path.join(out_dir, "accuracy_curves.svg"), acc)


def cmd_train(args) -> int:
    r = Resolver(args)
    cube_path = r.require("cube")
    power_path = r.require("power")
    splits_path = r.require("splits")
    family = r.get("model", "linear")
    seed = r.get("seed", 0)
    out_dir = r.require("out")
    if family not in ("linear", "resnet"):
        raise ConfigError(f"model must be linear or resnet, got {family!r}")

    cube = D.load_cube(cube_path)
    power = _load_power_any(power_path)
    ds = D.align(cube, power)
    split = _load_split(splits_path, ds)
    stack = split.stack
    channels = ds.input_channels(stack)
    hw = (cube.shape[2], cube.shape[3])

    rng = Rng(seed)
    if family == "linear":
        model = M.build_linear(channels, rng, input_hw=hw)
        default_l2 = 0.01
    else:
        model = M.build_resnet(channels, rng, input_hw=hw)
        default_l2 = 0.001

    schedule = O.StageSchedule(
        stage_length=r.get("stage_length", 5),
        stage_lrs=tuple(r.get("lrs", (1e-3, 3e-4, 1e-4, 3e-5))))
    config = O.TrainConfig(
        batch_size=r.get("batch_size", 16),
        epochs=r.get("epochs", schedule.span),
        l2_lambda=r.get("l2_lambda", default_l2),
        seed=seed, schedule=schedule,
        adaptive_stages=r.get("adaptive_stages", False))

    os.makedirs(out_dir, exist_ok=True)
    run = O.train(model, ds, split, config, out_dir=out_dir, log=print)
    _charts_from_history(os.path.join(out_dir, "history.csv"), out_dir)
    _write_run_files(out_dir, r.used, [cube_path, power_path, splits_path])
    print(f"final val rmse {run.final_val.rmse:.4f} MW, "
          f"solar acc {run.final_val.solar_acc:.4f}, "
          f"wind acc {run.final_val.wind_acc:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    r = Resolver(args)
    ckpt_path = r.require("checkpoint")
    cube_path = r.require("cube")
    power_path = r.require("power")
    splits_path = r.require("splits")
    subset = r.get("subset", "test")
    out_dir = r.require("out")
    if subset not in ("train", "val", "test"):
        raise ConfigError(f"subset must be train, val, or test, got {subset!r}")

    cube = D.load_cube(cube_path)
    power = _load_power_any(power_path)
    ds = D.align(cube, power)
    split = _load_split(splits_path, ds)
    model = M.load_checkpoint(ckpt_path)
    train_means = tuple(ds.targets(list(split.train)).mean(axis=0))

    ids = list(getattr(split, subset))
    res = O.evaluate(model, ds, ids, split.stack, train_means)
    rep = compute_report(res.pred, res.target, train_means)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report_text(rep))
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write(report_csv(rep))
    print(report_text(rep), end="")

    ws, we = r.get("window_start"), r.get("window_end")
    if (ws is None) != (we is None):
        raise ConfigError("window_start and window_end must be given together")
    if ws is not None:
        _write_window(ds, model, split.stack, ws, we, out_dir)
    _write_run_files(out_dir, r.used,
                     [ckpt_path, cube_path, power_path, splits_path])
    return EXIT_OK


def _write_window(ds, model, stack, ws, we, out_dir) -> None:
    """Chronological true-vs-estimated slice as CSV + SVG."""
    start, end = D.parse_timestamp(ws), D.parse_timestamp(we)
    if end < start:
        raise ConfigError("window_end precedes window_start")
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
    res = O.evaluate(model, ds, ids, stack, (1.0, 1.0))
    stamps = [D.format_timestamp(ds.timestamps[i]) for i in ids]
    with open(os.path.join(out_dir, "window.csv"), "w") as fh:
        fh.write("timestamp,true_solar,pred_solar,true_wind,pred_wind\n")
        for k, stamp in enumerate(stamps):
            fh.write(f"{stamp},{res.target[k, 0]:.9g},{res.pred[k, 0]:.9g},"
                     f"{res.target[k, 1]:.9g},{res.pred[k, 1]:.9g}\n")
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

    model = M.load_checkpoint(ckpt_path)
    cube = D.load_cube(cube_path)
    if stamp is not None:
        want = D.parse_timestamp(stamp)
        hits = np.nonzero(cube.timestamps == want)[0]
        if len(hits) == 0:
            raise D.DataError(f"cube has no frame at {stamp}")
        index = int(hits[0])
    if not 0 <= index < cube.shape[0]:
        raise D.DataError(f"frame index {index} outside 0..{cube.shape[0] - 1}")

    per_frame = cube.shape[1]
    stack, rem = divmod(model.spec.input_channels, per_frame)
    if rem or stack not in D.STACK_OFFSETS:
        raise ConfigError(
            f"checkpoint wants {model.spec.input_channels} channels, cube frames "
            f"have {per_frame}: no supported stacking bridges them")
    x = D.stacked_input(cube, index, stack)[None]
    when = D.format_timestamp(cube.timestamps[index])

    os.makedirs(out_dir, exist_ok=True)
    for out_idx, name in enumerate(S.OUTPUT_NAMES):
        smap = S.saliency_map(model, x, out_idx, timestamp=when, stack=stack,
                              mask=cube.mask)
        S.export_map(smap, os.path.join(out_dir, f"{name}.csv"), "csv")
        S.export_map(smap, os.path.join(out_dir, f"{name}.pgm"), "pgm")
    _write_run_files(out_dir, r.used, [ckpt_path, cube_path])
    print(f"wrote solar/wind maps for {when} to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# anomalies

def cmd_anomalies(args) -> int:
    r = Resolver(args)
    power = _load_power_any(r.require("power"))
    min_len = r.get("min_len", 6)
    which = r.get("source", "both")
    if which not in ("solar", "wind", "both"):
        raise ConfigError(f"source must be solar, wind, or both, got {which!r}")
    sources = ("solar", "wind") if which == "both" else (which,)
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

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output file or directory")

    parser = argparse.ArgumentParser(
        prog="wxpower",
        description="regional solar/wind production estimation from "
                    "surface weather maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", parents=[common],
                       help="frame files -> normalized cube")
    p.add_argument("--manifest")
    p.add_argument("--frames-dir", dest="frames_dir")
    p.add_argument("--coarsen", type=int)
    p.add_argument("--corner-radius", dest="corner_radius", type=int)
    p.add_argument("--no-normalize", dest="normalize", action="store_const",
                   const=False)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--hours", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--corner-radius", dest="corner_radius", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", parents=[common],
                       help="deterministic train/val/test id split")
    p.add_argument("--cube")
    p.add_argument("--power")
    p.add_argument("--stack", type=int)
    p.add_argument("--exclude-anomalies", dest="exclude_anomalies",
                   action="store_const", const=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common], help="fit a model")
    p.add_argument("--cube")
    p.add_argument("--power")
    p.add_argument("--splits")
    p.add_argument("--model", choices=("linear", "resnet"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float)
    p.add_argument("--stage-length", dest="stage_length", type=int)
    p.add_argument("--lrs", type=_float_list,
                   help="4 comma-separated stage rates")
    p.add_argument("--adaptive-stages", dest="adaptive_stages",
                   action="store_const", const=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="score a checkpoint on a split subset")
    p.add_argument("--checkpoint")
    p.add_argument("--cube")
    p.add_argument("--power")
    p.add_argument("--splits")
    p.add_argument("--subset", choices=("train", "val", "test"))
    p.add_argument("--window-start", dest="window_start")
    p.add_argument("--window-end", dest="window_end")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("saliency", parents=[common],
                       help="input-gradient maps for one sample")
    p.add_argument("--checkpoint")
    p.add_argument("--cube")
    p.add_argument("--timestamp")
    p.add_argument("--index", type=int)
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("anomalies", parents=[common],
                       help="report constant-output runs in a power series")
    p.add_argument("--power")
    p.add_argument("--min-len", dest="min_len", type=int)
    p.add_argument("--source", choices=("solar", "wind", "both"))
    p.set_defaults(func=cmd_anomalies)

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
    except (D.DataError, M.CheckpointError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
