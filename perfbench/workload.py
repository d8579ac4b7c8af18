"""One benchmark workload in a process of its own.

    python3 perfbench/workload.py generate --workload W --seed N --dir DIR
    python3 perfbench/workload.py setup --workload W --seed N --dir DIR --out FILE
    python3 perfbench/workload.py run --workload W --seed N --dir DIR --out FILE
                                      --seconds S --trace 0|1

`generate` writes the workload's inputs into DIR from the seed. `setup`
does only the program's set-up and records when it ended. `run` sets up,
warms up, repeats the workload's task until S seconds have passed (at least
once), checks every output, and writes its figures to FILE as JSON. `run.py`
starts these processes one at a time; the program must be importable
(`PYTHONPATH=src`).
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import time

import numpy as np

from wxpower import cli
from wxpower import data as D
from wxpower import layers as L
from wxpower import models as M
from wxpower import optim as O
from wxpower import saliency as S

import layertrace
import scenes

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
HW = (scenes.HEIGHT, scenes.WIDTH)

# eligible hours are split 80/10/10 by data.split_indices
WORKLOADS = {
    # criterion 10's configuration; 80 eligible hours give 64 train / 8 val,
    # so an epoch is one full batch of 64 plus the two eval passes
    "resnet_train": dict(family="resnet", stack=5, eligible=80, batch=64, l2=0.001),
    # 60.0M parameters; 320 eligible hours give four full batches of 64
    "linear_train": dict(family="linear", stack=1, eligible=320, batch=64, l2=0.01),
    # the 32 held-out samples are scored; the first 4 get a map per output
    "resnet_infer": dict(family="resnet", stack=5, eligible=160, eval_batch=16, maps=4),
    # a frame manifest of this many 115x108 hours, imported then split
    "import_split": dict(hours=1000, stack=5),
}
HISTORY_FIELDS = ("train_rmse", "val_rmse", "train_solar_acc", "train_wind_acc",
                  "val_solar_acc", "val_wind_acc")


def _path(d, name):
    return os.path.join(d, name)


def _hours(spec) -> int:
    # a stack-5 window needs the five hours before its target
    return spec["eligible"] + (5 if spec["stack"] == 5 else 0)


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason


def check_history(history, reference=None, rtol=1e-3):
    """History rows are finite and, when given, match the reference's first row."""
    if not history:
        return "training returned no history rows"
    for row in history:
        vals = [getattr(row, f) for f in HISTORY_FIELDS]
        if not all(math.isfinite(v) for v in vals):
            return f"non-finite history row {vals}"
    for field, want in (reference or {}).items():
        got = getattr(history[0], field)
        if abs(got - want) > rtol * max(1.0, abs(want)):
            return f"{field} {got!r} differs from the reference {want!r}"
    return None


def check_eval(res, n):
    """An evaluation scored n samples and every figure it reports is finite."""
    if res.n != n or res.pred.shape != (n, 2):
        return f"evaluate scored {res.n} samples, expected {n}"
    if not np.isfinite(res.pred).all():
        return "non-finite predictions"
    if not all(math.isfinite(v) for v in (res.rmse, res.solar_acc, res.wind_acc)):
        return "non-finite report"
    return None


def check_map(smap, hw=HW):
    """A saliency map is (H, W), finite and nonnegative."""
    vals = np.asarray(smap.values)
    if vals.shape != tuple(hw):
        return f"map shape {vals.shape}, expected {tuple(hw)}"
    if not np.isfinite(vals).all():
        return "non-finite map"
    if (vals < 0).any():
        return "negative map value"
    return None


def check_imported(cube, mask):
    """Criterion 5's invariants on an imported cube."""
    if not np.array_equal(cube.mask, mask):
        return "imported mask differs from the generated one"
    if not (cube.frames[:, :, cube.mask] == 0.0).all():
        return "masked pixels are not exactly 0"
    keep = ~cube.mask
    for c in range(cube.shape[1]):
        mean = abs(float(cube.frames[:, c][:, keep].astype(np.float64).mean()))
        if not mean < 1e-5:
            return f"band {cube.bands[c]} mean {mean:.3g} after normalization"
    return None


def check_split(split, eligible):
    """The 80/10/10 law over exactly the eligible ids."""
    n = len(eligible)
    holdout = 2 * n // 10
    want = (n - holdout, holdout - holdout // 2, holdout // 2)
    got = (len(split.train), len(split.val), len(split.test))
    if got != want:
        return f"split sizes {got}, expected {want}"
    groups = [set(split.train), set(split.val), set(split.test)]
    if sum(len(g) for g in groups) != len(set().union(*groups)):
        return "split groups overlap"
    if set().union(*groups) != set(eligible):
        return "split ids differ from the eligible ids"
    return None


class Tally:
    """Operations attempted and failed: train steps, eval samples, maps, CLI commands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ops: int, problem=None) -> None:
        self.attempted += ops
        if problem is not None:
            self.failed += ops
            self.problems.append(problem)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# inputs


def _batchnorms(obj):
    if isinstance(obj, L.BatchNorm2d):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _batchnorms(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _batchnorms(v)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _batchnorms(getattr(obj, f.name))


def generate(workload: str, seed: int, d: str) -> None:
    _write_inputs(workload, seed, d)
    # flush the inputs to disk now, so their writeback does not land in
    # the timed part of the run
    for parent, _, names in os.walk(d):
        for name in names:
            fd = os.open(os.path.join(parent, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _write_inputs(workload: str, seed: int, d: str) -> None:
    spec = WORKLOADS[workload]
    hours = spec["hours"] if workload == "import_split" else _hours(spec)
    cube, solar, wind = scenes.scenes(seed, hours)
    scenes.write_power_csv(_path(d, "power.csv"), cube.timestamps, solar, wind)
    if workload == "import_split":
        scenes.write_frames(d, cube)
        np.save(_path(d, "mask.npy"), cube.mask)
        return
    cube = D.apply_normalizer(cube, D.fit_normalizer(cube))
    D.save_cube(cube, _path(d, "cube.wxc"))
    if workload == "resnet_infer":
        # untrained weights, but running statistics taken from one batch so
        # eval-mode activations have the scale a trained model would see
        ds = D.align(cube, D.aggregate_power(_path(d, "power.csv")))
        model = M.build_resnet(ds.input_channels(spec["stack"]), L.Rng(seed), input_hw=HW)
        bns = {bn: bn.momentum for bn in _batchnorms(model.net)}
        for bn in bns:
            bn.momentum = 1.0
        x, _ = ds.make_batch(ds.eligible_indices(spec["stack"])[:16], spec["stack"])
        M.model_forward(model.train(), x)
        for bn, momentum in bns.items():
            bn.momentum = momentum
        M.save_checkpoint(model.eval(), _path(d, "model.wxpm"))


# ---------------------------------------------------------------------------
# set-up, warm-up and the timed task


def setup(workload: str, seed: int, d: str):
    """The program's set-up: everything before the first timed call."""
    spec = WORKLOADS[workload]
    if workload == "import_split":
        return None
    stack = spec["stack"]
    cube = D.load_cube(_path(d, "cube.wxc"))
    power = D.aggregate_power(_path(d, "power.csv"))
    ds = D.align(cube, power)
    split = D.split_indices(ds.eligible_indices(stack), seed, stack)
    channels = ds.input_channels(stack)
    if workload == "resnet_infer":
        model = M.load_checkpoint(_path(d, "model.wxpm"))
    elif spec["family"] == "resnet":
        model = M.build_resnet(channels, L.Rng(seed), input_hw=HW)
    else:
        model = M.build_linear(channels, L.Rng(seed), input_hw=HW)
    return ds, split, model


def warm_up(workload: str, ctx, d: str) -> None:
    """Untimed: the first eval pass, first train step and cold frame reads are slower."""
    if workload == "import_split":
        frames = _path(d, "frames")
        for name in sorted(os.listdir(frames)):
            with open(os.path.join(frames, name), "rb") as fh:
                while fh.read(1 << 20):
                    pass
        return
    ds, split, model = ctx
    spec = WORKLOADS[workload]
    stack = spec["stack"]
    if "batch" in spec:
        # the first epoch of a process is slower: its first full batch
        # faults in the memory later steps reuse
        one = D.SplitIndices(tuple(split.train[:spec["batch"]]), tuple(split.val[:8]), (),
                             split.seed, stack)
        O.train(model, ds, one, O.TrainConfig(batch_size=spec["batch"], epochs=1,
                                              l2_lambda=spec["l2"], seed=split.seed))
        return
    means = ds.targets(list(split.train)).mean(axis=0)
    O.evaluate(model, ds, list(split.val)[:16], stack, means, batch_size=16)
    if workload == "resnet_infer":
        x, _ = ds.make_batch([split.val[0]], stack)
        S.saliency_map(model, x, 0)


def make_task(workload: str, seed: int, ctx, d: str, tally: Tally, reference):
    """A callable for one repetition: runs it, checks it, returns its timings.

    Preparation it needs (input batches for maps) happens before `mark()`,
    the start of the timed and traced part; checks happen after `done()`.
    """
    spec = WORKLOADS[workload]
    perf = time.perf_counter

    if workload == "import_split":
        manifest, out = _path(d, "manifest.csv"), _path(d, "imported")
        splits, mask = _path(d, "splits.txt"), np.load(_path(d, "mask.npy"))
        eligible = list(range(5, spec["hours"]))

        def task(clock):
            clock.mark()
            t0 = perf()
            rc_import = cli.main(["import", "--manifest", manifest, "--out", out])
            t1 = perf()
            rc_split = cli.main(["split", "--cube", _path(out, "cube.wxc"),
                                 "--power", _path(d, "power.csv"), "--stack", "5",
                                 "--seed", str(seed), "--out", splits])
            t2 = perf()
            clock.done()
            tally.add(1, f"import exit {rc_import}" if rc_import else
                      check_imported(D.load_cube(_path(out, "cube.wxc")), mask))
            tally.add(1, f"split exit {rc_split}" if rc_split else
                      check_split(D.SplitIndices.load(splits), eligible))
            return {"task_s": t2 - t0, "import_s": t1 - t0, "split_s": t2 - t1}

        return task

    ds, split, model = ctx
    stack = spec["stack"]

    if workload == "resnet_infer":
        ids = list(split.val) + list(split.test)
        means = ds.targets(list(split.train)).mean(axis=0)

        def task(clock):
            xs = [ds.make_batch([i], stack)[0] for i in ids[:spec["maps"]]]
            clock.mark()
            t0 = perf()
            res = O.evaluate(model, ds, ids, stack, means, batch_size=spec["eval_batch"])
            t1 = perf()
            maps = [S.saliency_map(model, x, out) for x in xs for out in (0, 1)]
            t2 = perf()
            clock.done()
            tally.add(len(ids), check_eval(res, len(ids)))
            for smap in maps:
                tally.add(1, check_map(smap))
            return {"task_s": t2 - t0, "eval_s": t1 - t0, "saliency_s": t2 - t1,
                    "eval_samples_per_s": len(ids) / (t1 - t0),
                    "saliency_maps_per_s": len(maps) / (t2 - t1)}

        return task

    config = O.TrainConfig(batch_size=spec["batch"], epochs=1, l2_lambda=spec["l2"], seed=seed)
    ops = -(-len(split.train) // spec["batch"]) + len(split.train) + len(split.val)

    def task(clock):
        nonlocal reference
        clock.mark()
        t0 = perf()
        run = O.train(model, ds, split, config)
        t1 = perf()
        clock.done()
        tally.add(ops, check_history(run.history, reference))
        reference = None  # recorded for the first timed epoch only
        row = run.history[0]
        return {"task_s": t1 - t0, "epoch_s": t1 - t0,
                "history": {f: getattr(row, f) for f in HISTORY_FIELDS}}

    return task


class _Clock:
    """Brackets the traced part of each repetition; a no-op without a trace."""

    def __init__(self, trace):
        self.trace = trace
        self.loop: dict = {}
        self._start = None

    def mark(self) -> None:
        if self.trace is not None:
            self._start = dict(self.trace.sums)

    def done(self) -> None:
        if self.trace is not None:
            for k, v in self.trace.sums.items():
                self.loop[k] = self.loop.get(k, 0.0) + v - self._start.get(k, 0.0)


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / layertrace.MB,
        "numpy": np.__version__,
        "openblas": openblas,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _reference(workload: str, seed: int):
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)
    if seed != ref["seed"]:
        return None
    return ref["history"].get(workload)


def run(workload: str, seed: int, d: str, seconds: float, traced: bool) -> dict:
    tally = Tally()
    with layertrace.LayerTrace() if traced else contextlib.nullcontext() as trace:
        ctx = setup(workload, seed, d)
        setup_end = time.time()
        setup_sums = dict(trace.sums) if traced else {}
        warm_up(workload, ctx, d)
        clock = _Clock(trace)
        task = make_task(workload, seed, ctx, d, tally, _reference(workload, seed))
        reps = []
        started = time.perf_counter()
        while not reps or time.perf_counter() - started < seconds:
            try:
                reps.append(task(clock))
            except Exception as e:  # a failed repetition is counted, then the run ends
                tally.add(1, f"{type(e).__name__}: {e}")
                break
    layers = None
    if traced and reps:
        layers = layertrace.layer_metrics(setup_sums, clock.loop, dict(trace.peaks), len(reps),
                                          float(np.median([r["task_s"] for r in reps])))
    return {
        "setup_end": setup_end,
        "reps": reps,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 / layertrace.MB,
        "layers": layers,
        "env": _environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("generate", "setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "generate":
        generate(args.workload, args.seed, args.dir)
        return 0
    if args.mode == "setup":
        setup(args.workload, args.seed, args.dir)
        result = {"setup_end": time.time()}
    else:
        result = run(args.workload, args.seed, args.dir, args.seconds, bool(args.trace))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
