"""Tests of the benchmark itself: its output checks and its layer trace.

Run with `PYTHONPATH=src python -m pytest perfbench -q`. Everything here is
small (20x20 scenes, a two-stage ResNet) and takes a few seconds.
"""

import json
import math
import os

import numpy as np
import pytest

from wxpower import cli
from wxpower import data as D
from wxpower import layers as L
from wxpower import models as M
from wxpower import optim as O
from wxpower import saliency as S
from wxpower import tensor as T

import layertrace
import workload as W

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def tiny():
    res = D.synth_generate(D.SynthConfig(height=20, width=20, n_hours=50, seed=4))
    cube = D.apply_normalizer(res.cube, D.fit_normalizer(res.cube))
    ds = D.align(cube, D.aggregate_power(res.power_csv))
    split = D.split_indices(ds.eligible_indices(1), 0, 1)
    return ds, split


def _resnet():
    return M.build_resnet(6, L.Rng(3), input_hw=(20, 20), stem_width=4,
                          stage_blocks=(1, 1), stage_widths=(8, 16), head_hidden=4)


def _exercise(ds, split):
    """Train both families for one epoch, score, and map; every output."""
    out = []
    cfg = O.TrainConfig(batch_size=8, epochs=1, l2_lambda=0.001, seed=2)
    means = ds.targets(list(split.train)).mean(axis=0)
    for model in (_resnet(), M.build_linear(6, L.Rng(3), input_hw=(20, 20),
                                            fc_widths=(12,))):
        run = O.train(model, ds, split, cfg)
        out.append([(h.train_rmse, h.val_rmse, h.val_solar_acc) for h in run.history])
        res = O.evaluate(model, ds, list(split.test), 1, means, batch_size=4)
        out.append(res.pred)
        x, _ = ds.make_batch([split.test[0]], 1)
        out.extend(S.saliency_map(model, x, k).values for k in (0, 1))
        out.append({k: p.data.copy() for k, p in model.params.items()})
    return out


def _same(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
    else:
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_trace_leaves_losses_reports_and_maps_identical(tiny):
    ds, split = tiny
    plain = _exercise(ds, split)
    with layertrace.LayerTrace() as trace:
        traced = _exercise(ds, split)
    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        _same(a, b)
    assert trace.sums["tensor.conv2d.calls"] > 0
    assert trace.sums["layers.batchnorm2d_forward.calls"] > 0
    assert trace.sums["layers.batchnorm2d.bwd_s"] > 0
    assert trace.sums["optim.adam_step.calls"] == 2 * math.ceil(len(split.train) / 8)


def test_trace_uninstalls_every_wrapper():
    before = (M.batchnorm2d_forward, T.record, T.Tape.__enter__, O.model_forward,
              D.AlignedDataset.make_batch, cli.cmd_import)
    with layertrace.LayerTrace():
        assert M.batchnorm2d_forward is not before[0]
        assert M.batchnorm2d_forward is L.batchnorm2d_forward
    after = (M.batchnorm2d_forward, T.record, T.Tape.__enter__, O.model_forward,
             D.AlignedDataset.make_batch, cli.cmd_import)
    assert all(a is b for a, b in zip(before, after))


def test_trace_finds_the_gradients_nobody_reads(tiny):
    ds, split = tiny
    model = _resnet()
    x, y = ds.make_batch(list(split.train)[:8], 1)
    with layertrace.LayerTrace() as trace:
        with T.Tape() as tape:
            O.rmse_loss(M.model_forward(model, x), y)
            T.backward(tape, T.create([1], 1.0))
    # the stem's input gradient (the data batch) and the target's are wasted
    batch_bytes = x.data.nbytes + y.data.nbytes
    assert trace.sums["tensor.backward.wasted_grad_bytes"] == batch_bytes
    assert trace.peaks["tensor.tape.ops"] > 0
    assert trace.sums["tensor.backward.wasted_gflop"] > 0

    with layertrace.LayerTrace() as trace:
        S.saliency_map(model, x.data[:1], 0)
    param_bytes = sum(p.data.nbytes for p in model.params.values())
    assert trace.sums["tensor.backward.wasted_grad_bytes"] == param_bytes


def test_trace_splits_cli_time_from_data_time(tmp_path):
    synth, imported = str(tmp_path / "synth"), str(tmp_path / "imported")
    assert cli.main(["synth", "--out", synth, "--hours", "30", "--grid", "20"]) == 0
    with layertrace.LayerTrace() as trace:
        assert cli.main(["import", "--manifest", os.path.join(synth, "manifest.csv"),
                         "--out", imported]) == 0
    layers = layertrace.layer_metrics(dict(trace.sums), {}, dict(trace.peaks), 1, 1.0)
    assert 0 < layers["cli.import.self_s"] < trace.sums["cli.import.s"]
    assert layers["data.load_frames_s"] > 0
    assert layers["data.load_frames.rss_rise_mb"] >= 0


def test_output_checks_reject_corrupted_results_and_count_them(tiny):
    ds, split = tiny
    tally = W.Tally()
    good = O.EpochStats(0, 0, 1e-3, 1.0, 1.1, 0.5, 0.4, 0.5, 0.4)
    bad = O.EpochStats(0, 0, 1e-3, float("nan"), 1.1, 0.5, 0.4, 0.5, 0.4)
    ref = {f: getattr(good, f) for f in W.HISTORY_FIELDS}
    tally.add(10, W.check_history([good], ref))
    assert tally.failed == 0
    tally.add(10, W.check_history([bad]))
    tally.add(10, W.check_history([O.EpochStats(0, 0, 1e-3, 1.2, 1.1, 0.5, 0.4, 0.5, 0.4)], ref))
    assert tally.failed == 20 and tally.failed_share == pytest.approx(2 / 3)

    smap = S.SaliencyMap(np.ones((115, 108)), "solar")
    assert W.check_map(smap) is None
    assert W.check_map(S.SaliencyMap(np.ones((115, 107)), "solar")) is not None
    assert W.check_map(S.SaliencyMap(-np.ones((115, 108)), "solar")) is not None

    model = _resnet()
    means = ds.targets(list(split.train)).mean(axis=0)
    res = O.evaluate(model, ds, list(split.test), 1, means)
    assert W.check_eval(res, len(split.test)) is None
    res.pred[0, 0] = np.inf
    assert W.check_eval(res, len(split.test)) is not None

    eligible = ds.eligible_indices(1)
    assert W.check_split(split, eligible) is None
    short = D.SplitIndices(split.train[1:], split.val, split.test, 0, 1)
    assert W.check_split(short, eligible) is not None

    cube = ds.cube
    assert W.check_imported(cube, cube.mask) is None
    frames = cube.frames.copy()
    frames[0, 0, cube.mask] = 1.0
    corrupt = D.WeatherCube(frames, cube.timestamps, cube.bands, cube.mask)
    assert W.check_imported(corrupt, cube.mask) is not None


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.CATALOG.items())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "task_s", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
