"""wxpower benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload resnet_train --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 0

Run from the root of a checkout. One invocation generates the workload's
inputs from the seed under `.perfbench_work/`, then starts one process at a
time: `setup` processes that time the program's set-up, and one `run`
process that sets up, warms up, repeats the workload's task for at least
`--seconds`, and checks every output. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, holding
the end-to-end metrics of BENCHMARK.json with `--trace 0` and its per-layer
metrics with `--trace 1`. `--all` runs every workload untraced and then
traced, prints every metric with its unit, and the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_PY = os.path.join(HERE, "workload.py")
WORKLOADS = ("resnet_train", "linear_train", "import_split", "resnet_infer")
# set-up is timed in this many fresh processes per run, plus the run itself
SETUP_PROCESSES = 2
# one invocation, every child included, must end within 180 s
DEADLINE_S = 170
# the user-visible figure behind task_s on each workload
TASK_DETAILS = {
    "resnet_train": [("epoch_s", "s")],
    "linear_train": [("epoch_s", "s")],
    "import_split": [("import_s", "s"), ("split_s", "s")],
    "resnet_infer": [("eval_samples_per_s", "samples/s"), ("saliency_maps_per_s", "maps/s")],
}


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def _threads() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child(mode, workload, seed, work, log, deadline, out=None, seconds=None, trace=0):
    cmd = [sys.executable, WORKLOAD_PY, mode, "--workload", workload,
           "--seed", str(seed), "--dir", work]
    if out is not None:
        cmd += ["--out", out]
    if mode == "run":
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["OPENBLAS_NUM_THREADS"] = str(_threads())
    with open(log, "ab") as fh:
        started = time.time()
        try:
            proc = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} of {workload} ran past the {DEADLINE_S} s limit") from None
    if proc.returncode != 0:
        with open(log, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        raise BenchError(f"{mode} of {workload} exited {proc.returncode}:\n{tail}")
    if out is None:
        return None
    with open(out) as fh:
        result = json.load(fh)
    result["started"] = started
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate inputs, time set-up and the task in fresh processes; the figures."""
    if not os.path.isfile(os.path.join("src", "wxpower", "__init__.py")):
        raise BenchError("run from the root of a wxpower checkout: src/wxpower is missing")
    deadline = time.monotonic() + DEADLINE_S
    root = os.path.abspath(".perfbench_work")
    work = os.path.join(root, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log = os.path.join(work, "log.txt")
    try:
        _child("generate", workload, seed, work, log, deadline)
        setups = []
        if not trace:
            for k in range(SETUP_PROCESSES):
                r = _child("setup", workload, seed, work, log, deadline,
                           out=os.path.join(work, f"setup{k}.json"))
                setups.append(r["setup_end"] - r["started"])
        res = _child("run", workload, seed, work, log, deadline,
                     out=os.path.join(work, "run.json"), seconds=seconds, trace=trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(root)
        except OSError:
            pass  # another invocation still uses it
    setups.append(res["setup_end"] - res["started"])
    reps = res["reps"]
    if not reps:
        raise BenchError(f"no repetition of {workload} completed: {res['problems']}")
    figures = {
        "setup_s": statistics.median(setups),
        "task_s": statistics.median(r["task_s"] for r in reps),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {name: statistics.median(r[name] for r in reps)
               for name, _ in TASK_DETAILS[workload]}
    return {"workload": workload, "seed": seed, "trace": trace, "figures": figures,
            "details": details, "layers": res["layers"], "reps": len(reps),
            "setups": setups, "attempted": res["attempted"], "failed": res["failed"],
            "problems": res["problems"], "env": res["env"],
            "task_times": [r["task_s"] for r in reps], "history": reps[0].get("history")}


def _print_human(res: dict, spec: dict) -> None:
    w = res["workload"]
    env = res["env"]
    print(f"# workload {w} seed {res['seed']} trace {res['trace']}: {res['reps']} repetitions")
    print(f"# env nproc {env['nproc']} ram {env['ram_mb']:.0f} MB numpy {env['numpy']} "
          f"{env['openblas']} OPENBLAS_NUM_THREADS={env['openblas_threads']}")
    print(f"# task_s of each repetition: {' '.join(f'{t:.4g}' for t in res['task_times'])}; "
          f"setup_s of each process: {' '.join(f'{t:.4g}' for t in res['setups'])}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in res["figures"].items():
        print(f"{w} {name} {value:.6g} {units[name]}")
    for name, unit in TASK_DETAILS[w]:
        print(f"{w} {name} {res['details'][name]:.6g} {unit}")
    if res["history"]:
        print(f"# first timed epoch's history row: {json.dumps(res['history'])}")
    share = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{w} failed_share {share:.6g} fraction ({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"{w} problem: {problem}")


def _result_line(res: dict, spec: dict) -> str:
    group = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    source = res["layers"] if res["trace"] else res["figures"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in group}
    correct = res["failed"] == 0 and res["attempted"] > 0
    return json.dumps({"correct": correct, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def run_all(seed: int, seconds: float, spec: dict) -> bool:
    ok = True
    for w in WORKLOADS:
        plain = run_workload(w, seed, seconds, 0)
        traced = run_workload(w, seed, seconds, 1)
        _print_human(plain, spec)
        for m in spec["per_layer"]:
            print(f"{w} [traced] {m['name']} {traced['layers'][m['name']]:.6g} {m['unit']}")
        overhead = traced["figures"]["task_s"] / plain["figures"]["task_s"] - 1.0
        print(f"{w} tracing_overhead {overhead:.4g} fraction of task_s")
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wxpower benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        spec = _spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.all:
            return 0 if run_all(args.seed, seconds, spec) else 1
        res = run_workload(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    _print_human(res, spec)
    print(_result_line(res, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
