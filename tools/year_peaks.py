"""Wall time and memory peaks of the commands that read a year's cube.

    PYTHONPATH=src python3 tools/year_peaks.py [--hours 8760] [--dir DIR]
                                               [--train-linear]

Builds a tiled `--hours`-hour 115x108 cube the way the benchmark builds its
cubes (`perfbench/scenes.py`: a 48-hour synthetic run repeated in time, then
normalized and saved as `cube.wxc`), the matching hourly power file and an
untrained stack-5 ResNet checkpoint, in DIR (a temporary directory unless
given; DIR is kept when given). It then runs, each in a fresh process:

    split --stack 5
    saliency for one hour
    eval on the test split
    train --model linear, one epoch at stack 5 (only with --train-linear)

and prints, per command, its wall time, `ru_maxrss`, and the peaks of
`RssAnon` and `RssFile` from `/proc/self/status`, sampled every 10 ms while
the command runs. `ru_maxrss` counts the pages of a mapped file that were
touched, so the two Rss figures are printed beside it: `RssAnon` is the
memory the process itself allocated, `RssFile` the file pages it maps.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MB = 1024 * 1024
SEED = 0


def _status_kb() -> dict:
    """The kB fields of /proc/self/status, by name."""
    with open("/proc/self/status") as fh:
        rows = [line.split() for line in fh]
    return {row[0].rstrip(":"): int(row[1]) for row in rows if row[-1] == "kB"}


def measure(argv: list[str]) -> dict:
    """Run `wxpower argv` in this process; its exit code, time and peaks."""
    from wxpower import cli

    peaks = {"RssAnon": 0, "RssFile": 0}
    stop = threading.Event()

    def sample():
        while True:
            now = _status_kb()
            for field in peaks:
                peaks[field] = max(peaks[field], now[field])
            if stop.wait(0.01):
                return

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        stop.set()
        sampler.join()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    return {"exit": rc, "wall_s": wall, "ru_maxrss_mb": maxrss,
            "rss_anon_mb": peaks["RssAnon"] / 1024, "rss_file_mb": peaks["RssFile"] / 1024}


def build(d: str, hours: int) -> None:
    """cube.wxc, power.csv (hourly) and resnet.wxpm for `hours` tiled hours."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import scenes
    from wxpower import data as D
    from wxpower import layers as L
    from wxpower import models as M

    cube, solar, wind = scenes.scenes(SEED, hours)
    D.save_power(D.PowerSeries(cube.timestamps, solar, wind, [set() for _ in range(hours)]),
                 os.path.join(d, "power.csv"))
    D.save_cube(D.apply_normalizer(cube, D.fit_normalizer(cube)), os.path.join(d, "cube.wxc"))
    channels = cube.shape[1] * len(D.STACK_OFFSETS[5])
    del cube
    model = M.build_resnet(channels, L.Rng(SEED), input_hw=(scenes.HEIGHT, scenes.WIDTH))
    M.save_checkpoint(model.eval(), os.path.join(d, "resnet.wxpm"))


def commands(d: str, hours: int, train_linear: bool):
    p = lambda name: os.path.join(d, name)  # noqa: E731
    cube, power, splits = ["--cube", p("cube.wxc")], ["--power", p("power.csv")], p("splits.txt")
    yield "split --stack 5", ["split", *cube, *power, "--stack", "5", "--seed", str(SEED),
                              "--out", splits]
    yield "saliency, one hour", ["saliency", "--checkpoint", p("resnet.wxpm"), *cube,
                                 "--index", str(hours // 2), "--out", p("saliency")]
    yield "eval, test split", ["eval", "--checkpoint", p("resnet.wxpm"), *cube, *power,
                               "--splits", splits, "--subset", "test", "--out", p("eval")]
    if train_linear:
        yield "train linear, 1 epoch", ["train", *cube, *power, "--splits", splits,
                                        "--model", "linear", "--epochs", "1",
                                        "--seed", str(SEED), "--out", p("linear")]


def _child(*args: str) -> subprocess.CompletedProcess:
    """This script in a fresh process. Its `ru_maxrss` starts from this
    process's, which therefore never holds the cube itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          env=env, capture_output=True, text=True)


def run_all(d: str, hours: int, train_linear: bool) -> None:
    """Build the inputs in d, then measure each command; stops at the first
    step that fails."""
    steps = [("build", ["--hours", str(hours), "--dir", d, "build"])]
    steps += [(name, ["measure", "--", *argv]) for name, argv in commands(d, hours, train_linear)]
    for name, args in steps:
        t0 = time.perf_counter()
        proc = _child(*args)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{name}: exit {proc.returncode}")
        if name == "build":
            size = os.path.getsize(os.path.join(d, "cube.wxc")) / MB
            print(f"built {hours} hours, cube.wxc {size:.0f} MB, in "
                  f"{time.perf_counter() - t0:.1f} s")
            print(f"{'command':<24} {'exit':>4} {'wall s':>8} {'ru_maxrss MB':>13} "
                  f"{'RssAnon MB':>11} {'RssFile MB':>11}")
            continue
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name:<24} {row['exit']:>4} {row['wall_s']:>8.2f} {row['ru_maxrss_mb']:>13.1f} "
              f"{row['rss_anon_mb']:>11.1f} {row['rss_file_mb']:>11.1f}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hours", type=int, default=8760)
    ap.add_argument("--dir", help="build and run here and keep it (default: a temp dir)")
    ap.add_argument("--train-linear", action="store_true",
                    help="also train the stack-5 linear model for one epoch")
    sub = ap.add_subparsers(dest="mode")
    sub.add_parser("build", help="only build the inputs in --dir")
    m = sub.add_parser("measure", help="run one wxpower command and print its figures")
    m.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.mode == "build":
        build(args.dir, args.hours)
        return 0
    if args.mode == "measure":
        cmd = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                row = measure(cmd)
            finally:
                sys.stdout = stdout
        print(json.dumps(row))
        return 0 if row["exit"] == 0 else 1
    if args.dir:
        os.makedirs(args.dir, exist_ok=True)
        run_all(args.dir, args.hours, args.train_linear)
    else:
        with tempfile.TemporaryDirectory(prefix="year_peaks_") as d:
            run_all(d, args.hours, args.train_linear)
    return 0


if __name__ == "__main__":
    sys.exit(main())
