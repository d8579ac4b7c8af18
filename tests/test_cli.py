import os
import re
import shutil
import struct

import numpy as np
import pytest

from wxpower import cli
from wxpower import data as D
from wxpower import models as M
from wxpower.layers import Rng

from test_data import whole_cube_stats


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """synth -> import -> split -> train, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    synth = root / "synth"
    assert run("synth", "--out", synth, "--hours", 120, "--grid", 20,
               "--seed", 5) == 0
    imp = root / "imported"
    assert run("import", "--manifest", synth / "manifest.csv",
               "--out", imp) == 0
    splits = root / "splits.txt"
    assert run("split", "--cube", imp / "cube.wxc", "--power",
               synth / "power.csv", "--stack", 1, "--seed", 3,
               "--out", splits) == 0
    train_dir = root / "run1"
    assert run("train", "--cube", imp / "cube.wxc", "--power",
               synth / "power.csv", "--splits", splits, "--model", "linear",
               "--stage-length", 1, "--epochs", 4, "--seed", 11,
               "--out", train_dir) == 0
    return {"root": root, "synth": synth, "imp": imp, "splits": splits,
            "train": train_dir, "cube": imp / "cube.wxc",
            "power": synth / "power.csv"}


def test_synth_artifacts(pipe):
    synth = pipe["synth"]
    for name in ("manifest.csv", "power.csv", "plants.csv",
                 "truth.csv", "config.resolved"):
        assert (synth / name).exists(), name
    assert not (synth / "cube.wxc").exists()
    cube = D.load_frames(synth / "manifest.csv")
    assert cube.shape == (120, 6, 20, 20)
    plants = (synth / "plants.csv").read_text().splitlines()
    assert plants[0] == "source,row,col"
    sources = [line.split(",")[0] for line in plants[1:]]
    assert sources.count("solar") == 5 and sources.count("wind") == 4
    truth = (synth / "truth.csv").read_text().splitlines()
    assert truth[0] == "timestamp,solar_mw,wind_mw" and len(truth) == 121


def test_synth_deterministic(pipe, tmp_path):
    again = tmp_path / "again"
    assert run("synth", "--out", again, "--hours", 120, "--grid", 20,
               "--seed", 5) == 0
    frames = sorted(f"frames/{p.name}" for p in (again / "frames").iterdir())
    assert len(frames) == 120
    for name in ("power.csv", "manifest.csv", "plants.csv", *frames):
        assert (again / name).read_bytes() == (pipe["synth"] / name).read_bytes()


def test_synth_bad_plants_is_config_error(tmp_path, monkeypatch, capsys):
    # default plant coordinates fall outside a tiny grid; the config says
    # so before any field is drawn or any file written
    def no_fields(*args, **kwargs):
        raise AssertionError("a field was drawn")

    monkeypatch.setattr(D, "_smooth_fields", no_fields)
    assert run("synth", "--out", tmp_path / "s", "--grid", 8) == cli.EXIT_CONFIG
    assert run("synth", "--out", tmp_path / "s", "--grid", 6) == cli.EXIT_CONFIG
    assert "solar plant (6, 6) outside 6x6 grid" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_import_normalizes_and_remasks(pipe, tmp_path):
    cube = D.load_cube(pipe["cube"])
    assert cube.normalized
    raw = D.load_frames(pipe["synth"] / "manifest.csv")
    assert (cube.mask == raw.mask).all() and cube.mask.any()
    assert (cube.frames[:, :, cube.mask] == 0.0).all()
    keep = ~cube.mask
    per_band = cube.frames[:, :, keep].astype(np.float64)
    assert np.abs(per_band.mean(axis=(0, 2))).max() < 1e-5
    assert np.abs(per_band.std(axis=(0, 2)) - 1.0).max() < 1e-4
    # the written stats are the one-shot float64 formula's, bit for bit;
    # float() first, or the file would read np.float64(...)
    means, stds = whole_cube_stats(raw)
    want = tmp_path / "normalizer.txt"
    D.NormalizerStats(raw.bands, tuple(float(m) for m in means),
                      tuple(float(s) for s in stds)).save(want)
    assert (pipe["imp"] / "normalizer.txt").read_bytes() == want.read_bytes()


def test_import_deterministic(pipe, tmp_path):
    out = tmp_path / "imp2"
    assert run("import", "--manifest", pipe["synth"] / "manifest.csv",
               "--out", out) == 0
    assert (out / "cube.wxc").read_bytes() == pipe["cube"].read_bytes()


def test_import_rejects_an_inf_frame_and_writes_no_cube(pipe, tmp_path):
    frames = tmp_path / "frames"
    shutil.copytree(pipe["synth"] / "frames", frames)
    shutil.copy(pipe["synth"] / "manifest.csv", tmp_path / "manifest.csv")
    victim = sorted(frames.iterdir())[7]
    vals = np.fromfile(victim, dtype="<f4")
    vals[123] = np.inf
    vals.tofile(victim)
    out = tmp_path / "imp"
    assert run("import", "--manifest", tmp_path / "manifest.csv",
               "--out", out) == cli.EXIT_DATA
    assert not (out / "cube.wxc").exists()


def test_import_refuses_a_manifest_row_stamped_now(pipe, tmp_path, capsys):
    # numpy would read "now" as the wall clock, and the cube would change daily
    lines = (pipe["synth"] / "manifest.csv").read_text().splitlines(keepends=True)
    lines[3] = "now" + lines[3][lines[3].index(","):]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(lines))
    out = tmp_path / "imp"
    capsys.readouterr()
    assert run("import", "--manifest", manifest, "--frames-dir", pipe["synth"],
               "--out", out) == cli.EXIT_DATA
    assert f"{manifest}:4: bad timestamp 'now'" in capsys.readouterr().err
    assert not (out / "cube.wxc").exists()


def test_import_corner_radius_masks_before_normalizing(pipe, tmp_path):
    out = tmp_path / "cornered"
    assert run("import", "--manifest", pipe["synth"] / "manifest.csv",
               "--corner-radius", 5, "--out", out) == 0
    raw = D.load_frames(pipe["synth"] / "manifest.csv")
    mask = raw.mask | D.corner_mask(20, 20, 5)
    assert (mask != raw.mask).any()
    frames = raw.frames.copy()
    frames[:, :, mask] = 0.0
    want = D.WeatherCube(frames, raw.timestamps, raw.bands, mask)
    stats = D.fit_normalizer(want)
    stats.save(tmp_path / "want.txt")
    assert (out / "normalizer.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    got = D.load_cube(out / "cube.wxc")
    assert (got.mask == mask).all()
    assert got.frames.tobytes() == D.apply_normalizer(want, stats).frames.tobytes()


def test_import_coarsen(pipe, tmp_path):
    out = tmp_path / "halved"
    assert run("import", "--manifest", pipe["synth"] / "manifest.csv",
               "--coarsen", 2, "--out", out) == 0
    assert D.load_cube(out / "cube.wxc").shape == (120, 6, 10, 10)


def test_split_file(pipe):
    split = D.SplitIndices.load(pipe["splits"])
    assert split.stack == 1 and split.seed == 3
    n = len(split.train) + len(split.val) + len(split.test)
    assert n == 120
    assert len(split.test) == 12 and len(split.val) == 12


def test_split_counts_kept_flagged_hours(pipe, tmp_path, capsys):
    # drop every reading of one hour: both sources get a *_missing flag
    lines = pipe["power"].read_text().splitlines(keepends=True)
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("".join(ln for ln in lines
                              if not ln.startswith("2019-01-02T05:")))
    capsys.readouterr()
    assert run("split", "--cube", pipe["cube"], "--power", gapped,
               "--out", tmp_path / "kept.txt") == 0
    assert ("1 of the 120 kept hours carry a *_missing or *_partial power flag"
            in capsys.readouterr().out)
    assert run("split", "--cube", pipe["cube"], "--power", gapped,
               "--exclude-anomalies", "--out", tmp_path / "clean.txt") == 0
    assert "0 of the 119 kept hours" in capsys.readouterr().out


def test_split_and_anomalies_read_a_padded_feed_header(pipe, tmp_path, capsys):
    lines = pipe["power"].read_text().splitlines(keepends=True)
    assert lines[0] == "timestamp,source,mw\n"
    padded = tmp_path / "padded.csv"
    padded.write_text("timestamp, source, mw\n" + "".join(lines[1:]))
    splits = tmp_path / "splits.txt"
    assert run("split", "--cube", pipe["cube"], "--power", padded, "--stack", 1,
               "--seed", 3, "--out", splits) == 0
    assert splits.read_bytes() == pipe["splits"].read_bytes()
    capsys.readouterr()
    assert run("anomalies", "--power", padded) == 0
    assert "no constant runs found" in capsys.readouterr().out


def test_feed_and_its_hourly_file_give_the_same_bytes(pipe, tmp_path):
    hourly = tmp_path / "hourly.csv"
    D.save_power(D.aggregate_power(pipe["power"]), hourly)
    splits = tmp_path / "splits.txt"
    assert run("split", "--cube", pipe["cube"], "--power", hourly, "--stack", 1,
               "--seed", 3, "--out", splits) == 0
    assert splits.read_bytes() == pipe["splits"].read_bytes()
    d = tmp_path / "run"
    assert run("train", "--cube", pipe["cube"], "--power", hourly,
               "--splits", splits, "--model", "linear", "--stage-length", 1,
               "--epochs", 4, "--seed", 11, "--out", d) == 0
    names = ["history.csv", *sorted(p.name for p in pipe["train"].glob("*.wxpm"))]
    assert len(names) == 6
    for name in names:
        assert (d / name).read_bytes() == (pipe["train"] / name).read_bytes(), name
    reports = []
    for power in (pipe["power"], hourly):
        out = tmp_path / f"eval-{power.stem}"
        assert run("eval", "--checkpoint", pipe["train"] / "final.wxpm",
                   "--cube", pipe["cube"], "--power", power,
                   "--splits", splits, "--out", out) == 0
        reports.append([(out / n).read_bytes() for n in ("report.csv", "report.txt")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("bad_id", [999, -3, 1])
def test_train_and_eval_reject_ineligible_split_ids(pipe, tmp_path, capsys, bad_id):
    # 999 lies past the data, -3 would index it from the end, and 1 lacks
    # five prior hours; each is refused before a model is built
    split = D.SplitIndices.load(pipe["splits"])
    usable = [tuple(i for i in ids if i >= 5)
              for ids in (split.train, split.val, split.test)]
    splits = tmp_path / "splits5.txt"
    D.SplitIndices(usable[0] + (bad_id,), usable[1], usable[2], 3, 5).save(splits)
    capsys.readouterr()
    d = tmp_path / "run"
    assert run("train", "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", splits, "--model", "linear", "--seed", 0,
               "--out", d) == cli.EXIT_DATA
    assert run("eval", "--checkpoint", pipe["train"] / "final.wxpm",
               "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", splits, "--out", tmp_path / "ev") == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.count(
        f"ids [{bad_id}] (1 in all) are not eligible samples at stack 5") == 2
    assert "training" not in captured.out
    assert not (d / "history.csv").exists()


def test_train_artifacts(pipe):
    d = pipe["train"]
    hist = (d / "history.csv").read_text().splitlines()
    assert len(hist) == 5 and hist[0].startswith("epoch,stage,lr")
    for name in ("stage1.wxpm", "stage2.wxpm", "stage3.wxpm", "stage4.wxpm",
                 "final.wxpm", "loss_curves.svg", "accuracy_curves.svg",
                 "config.resolved", "inputs.sha256"):
        assert (d / name).exists(), name
    assert (d / "loss_curves.svg").read_text().startswith("<svg ")
    resolved = (d / "config.resolved").read_text()
    assert "model=linear" in resolved and "seed=11" in resolved
    assert "l2_lambda=0.01" in resolved       # linear-family default
    hashes = (d / "inputs.sha256").read_text().strip().splitlines()
    assert len(hashes) == 3 and all(len(line.split()[0]) == 64 for line in hashes)


def test_train_deterministic_bitwise(pipe, tmp_path):
    d2 = tmp_path / "run2"
    assert run("train", "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", pipe["splits"], "--model", "linear",
               "--stage-length", 1, "--epochs", 4, "--seed", 11,
               "--out", d2) == 0
    src = pipe["train"]
    assert (d2 / "history.csv").read_bytes() == (src / "history.csv").read_bytes()
    assert (d2 / "final.wxpm").read_bytes() == (src / "final.wxpm").read_bytes()
    assert (d2 / "loss_curves.svg").read_bytes() == (src / "loss_curves.svg").read_bytes()


def test_train_resnet_rerun_bitwise(pipe, tmp_path):
    # criterion 8 reruns the linear chain; this reruns a stack-5 ResNet with
    # adaptive stages. Its trajectory depends on the BLAS thread count: on two
    # OpenBLAS threads a stage ends after epoch 3 and stage1.wxpm is compared too
    splits = tmp_path / "splits5.txt"
    assert run("split", "--cube", pipe["cube"], "--power", pipe["power"],
               "--stack", 5, "--seed", 3, "--out", splits) == 0
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run("train", "--cube", pipe["cube"], "--power", pipe["power"],
                   "--splits", splits, "--model", "resnet", "--adaptive-stages",
                   "--stage-length", 2, "--epochs", 5, "--batch-size", 8,
                   "--lrs", "0.01,0.003,0.001,0.0003", "--seed", 1, "--out", out) == 0
    names = sorted(p.name for p in outs[0].glob("*.wxpm"))
    assert names == sorted(p.name for p in outs[1].glob("*.wxpm"))
    assert "final.wxpm" in names
    for name in ["history.csv", *names]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_resnet_l2_default(pipe, tmp_path):
    d = tmp_path / "rn"
    assert run("train", "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", pipe["splits"], "--model", "resnet",
               "--stage-length", 1, "--epochs", 1, "--batch-size", 32,
               "--seed", 1, "--out", d) == 0
    assert "l2_lambda=0.001" in (d / "config.resolved").read_text()
    assert len((d / "history.csv").read_text().splitlines()) == 2


def test_train_rejects_trailing_one_sample_batch(pipe, tmp_path, capsys):
    # the 20x20 grid leaves the default ResNet's last stage at 1x1, where
    # batchnorm cannot train on one sample; this fails before the first step
    n_train = len(D.SplitIndices.load(pipe["splits"]).train)
    d = tmp_path / "rn1"
    capsys.readouterr()
    code = run("train", "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", pipe["splits"], "--model", "resnet",
               "--stage-length", 1, "--epochs", 1, "--batch-size", n_train - 1,
               "--seed", 1, "--out", d)
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "one-sample batch" in captured.err
    assert "training resnet" not in captured.out
    assert not (d / "history.csv").exists()

def forbid_model_work(monkeypatch, what):
    """Make building a model and loading a checkpoint fail the test."""
    def spy(*args, **kwargs):
        raise AssertionError(f"model work for {what}")

    for fn in ("build_linear", "build_resnet", "load_checkpoint"):
        monkeypatch.setattr(M, fn, spy)


@pytest.mark.parametrize("cmd,case", [
    ("split", "raw-cube"), ("train", "raw-cube"), ("eval", "raw-cube"),
    ("saliency", "raw-cube"), ("train", "empty-train"), ("train", "empty-val"),
    ("eval", "empty-train"), ("eval", "empty-val"), ("eval", "empty-test")])
def test_unusable_inputs_are_data_errors_before_any_model_work(
        pipe, tmp_path, monkeypatch, capsys, cmd, case):
    # a cube saved straight from the synth frames is raw; a split group
    # left empty has nothing to train on, to score against or to take train
    # means from (eval scores its --subset test)
    split = D.SplitIndices.load(pipe["splits"])
    groups = {"train": split.train, "val": split.val, "test": split.test}
    if case.startswith("empty-"):
        groups[case.removeprefix("empty-")] = ()
    splits = tmp_path / "splits.txt"
    D.SplitIndices(groups["train"], groups["val"], groups["test"], 3, 1).save(splits)
    cube = pipe["cube"]
    if case == "raw-cube":
        cube = tmp_path / "raw.wxc"
        D.save_cube(D.load_frames(pipe["synth"] / "manifest.csv"), cube)
    ckpt = pipe["train"] / "final.wxpm"
    argv = {"split": ["--power", pipe["power"]],
            "train": ["--power", pipe["power"], "--splits", splits],
            "eval": ["--checkpoint", ckpt, "--power", pipe["power"],
                     "--splits", splits, "--subset", "test"],
            "saliency": ["--checkpoint", ckpt, "--index", 3]}[cmd]
    forbid_model_work(monkeypatch, (cmd, case))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(cmd, "--cube", cube, *argv, "--out", out) == cli.EXIT_DATA
    want = ("cube is not normalized" if case == "raw-cube"
            else f"the {case.removeprefix('empty-')} group is empty")
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_eval_reports(pipe, tmp_path):
    d = tmp_path / "ev"
    assert run("eval", "--checkpoint", pipe["train"] / "final.wxpm",
               "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", pipe["splits"], "--subset", "test",
               "--out", d) == 0
    txt = (d / "report.txt").read_text()
    assert "rmse_mw" in txt and "solar_accuracy" in txt
    csv_lines = (d / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("n,rmse_mw")
    assert int(csv_lines[1].split(",")[0]) == 12


def test_eval_refuses_a_checkpoint_that_does_not_fit_the_split(pipe, tmp_path, capsys):
    # the stack-1 checkpoint on a stack-5 split, and a 16x16 checkpoint on
    # the 20x20 cube: both are named before any hour is scored
    split = D.SplitIndices.load(pipe["splits"])
    stack5 = tmp_path / "splits5.txt"
    D.SplitIndices(*(tuple(i for i in ids if i >= 5)
                     for ids in (split.train, split.val, split.test)), 3, 5).save(stack5)
    small = tmp_path / "small.wxpm"
    M.save_checkpoint(M.build_linear(6, Rng(0), input_hw=(16, 16), fc_widths=(4,)), small)
    cases = [(pipe["train"] / "final.wxpm", stack5,
              "(6, 20, 20), split at stack 5 gives (30, 20, 20)"),
             (small, pipe["splits"], "(6, 16, 16), split at stack 1 gives (6, 20, 20)")]
    for ckpt, splits, msg in cases:
        capsys.readouterr()
        out = tmp_path / "ev"
        assert run("eval", "--checkpoint", ckpt, "--cube", pipe["cube"],
                   "--power", pipe["power"], "--splits", splits,
                   "--out", out) == cli.EXIT_CONFIG
        assert f"checkpoint wants (C, H, W) = {msg}" in capsys.readouterr().err
        assert not out.exists()
    # saliency refuses the 16x16 checkpoint, and one whose channels no
    # stack of the cube's frames makes, through the same check
    twelve = tmp_path / "twelve.wxpm"
    M.save_checkpoint(M.build_linear(12, Rng(0), input_hw=(20, 20), fc_widths=(4,)), twelve)
    for ckpt, msg in [(small, "(6, 16, 16), cube at stack 1 gives (6, 20, 20)"),
                      (twelve, "(12, 20, 20), cube at stack 1 gives (6, 20, 20)")]:
        capsys.readouterr()
        out = tmp_path / "sal"
        assert run("saliency", "--checkpoint", ckpt, "--cube", pipe["cube"],
                   "--index", 3, "--out", out) == cli.EXIT_CONFIG
        assert f"checkpoint wants (C, H, W) = {msg}" in capsys.readouterr().err
        assert not out.exists()


def test_eval_window_slice(pipe, tmp_path):
    d = tmp_path / "win"
    assert run("eval", "--checkpoint", pipe["train"] / "final.wxpm",
               "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", pipe["splits"], "--out", d,
               "--window-start", "2019-01-02T00:00:00",
               "--window-end", "2019-01-03T00:00:00") == 0
    rows = (d / "window.csv").read_text().splitlines()
    assert rows[0] == "timestamp,true_solar,pred_solar,true_wind,pred_wind"
    assert len(rows) == 26
    assert rows[1].startswith("2019-01-02T00:00:00,")
    assert (d / "window.svg").read_text().count("<polyline") == 4


def test_eval_window_out_of_range(pipe, tmp_path, monkeypatch, capsys):
    # a window past the data, and one between two hours: both are refused
    # before the checkpoint loads, so no report is written
    forbid_model_work(monkeypatch, "a bad window")
    for start, end, msg in [
            ("2020-01-01T00:00:00", "2020-01-02T00:00:00", "outside data range"),
            ("2019-01-02T00:10:00", "2019-01-02T00:50:00", "no evaluable samples")]:
        out = tmp_path / "w2"
        capsys.readouterr()
        assert run("eval", "--checkpoint", pipe["train"] / "final.wxpm",
                   "--cube", pipe["cube"], "--power", pipe["power"],
                   "--splits", pipe["splits"], "--out", out,
                   "--window-start", start, "--window-end", end) == cli.EXIT_DATA
        assert msg in capsys.readouterr().err
        assert not out.exists()


def test_train_and_eval_refuse_a_nonpositive_train_mean_alike(
        pipe, tmp_path, monkeypatch, capsys):
    power = D.aggregate_power(os.fspath(pipe["power"]))
    power.wind[:] = 0.0
    calm = tmp_path / "calm.csv"
    D.save_power(power, calm)
    common = ["--cube", pipe["cube"], "--power", calm, "--splits", pipe["splits"]]
    capsys.readouterr()
    assert run("train", *common, "--out", tmp_path / "tr") == cli.EXIT_CONFIG
    train_err = capsys.readouterr().err
    assert "training split has nonpositive mean production" in train_err
    forbid_model_work(monkeypatch, "a nonpositive train mean")
    assert run("eval", "--checkpoint", pipe["train"] / "final.wxpm", *common,
               "--out", tmp_path / "ev") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == train_err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("cmd", ["split", "train", "eval", "anomalies"])
def test_non_finite_hourly_power_is_a_data_error(pipe, tmp_path, monkeypatch,
                                                 capsys, cmd):
    power = D.aggregate_power(os.fspath(pipe["power"]))
    power.solar[7] = np.inf
    bad = tmp_path / "bad.csv"
    D.save_power(power, bad)
    argv = {"split": ["--cube", pipe["cube"]],
            "train": ["--cube", pipe["cube"], "--splits", pipe["splits"]],
            "eval": ["--checkpoint", pipe["train"] / "final.wxpm",
                     "--cube", pipe["cube"], "--splits", pipe["splits"]],
            "anomalies": []}[cmd]
    forbid_model_work(monkeypatch, "non-finite power")
    capsys.readouterr()
    assert run(cmd, "--power", bad, *argv, "--out", tmp_path / "out") == cli.EXIT_DATA
    assert f"{bad}:9: non-finite mw" in capsys.readouterr().err


def test_saliency_by_timestamp_and_index_agree(pipe, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("saliency", "--checkpoint", pipe["train"] / "final.wxpm",
               "--cube", pipe["cube"], "--timestamp", "2019-01-02T12:00:00",
               "--out", a) == 0
    assert run("saliency", "--checkpoint", pipe["train"] / "final.wxpm",
               "--cube", pipe["cube"], "--index", 36, "--out", b) == 0
    names = ["solar.csv", "solar.pgm", "wind.csv", "wind.pgm"]
    for name in names:
        assert (a / name).exists() and (b / name).exists()
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_saliency_window_across_a_gap(pipe, tmp_path):
    cube = D.load_cube(pipe["cube"])
    keep = np.arange(cube.shape[0]) != 40
    gapped = tmp_path / "gapped.wxc"
    D.save_cube(D.WeatherCube(cube.frames[keep], cube.timestamps[keep], cube.bands,
                              cube.mask, normalized=True), gapped)
    ckpt = tmp_path / "stack5.wxpm"
    M.save_checkpoint(M.build_linear(30, Rng(0), input_hw=(20, 20), fc_widths=(4,)),
                      ckpt)
    base = ["saliency", "--checkpoint", ckpt, "--cube", gapped]
    # frame 42 (hour 43) needs hours 38..42, and hour 40 is gone
    assert run(*base, "--index", 42, "--out", tmp_path / "gap") == cli.EXIT_DATA
    assert run(*base, "--index", 50, "--out", tmp_path / "ok") == 0


def test_saliency_unknown_timestamp(pipe, tmp_path):
    code = run("saliency", "--checkpoint", pipe["train"] / "final.wxpm",
               "--cube", pipe["cube"], "--timestamp", "2030-01-01T00:00:00",
               "--out", tmp_path / "x")
    assert code == cli.EXIT_DATA


def test_saliency_needs_exactly_one_selector(pipe, tmp_path):
    base = ["saliency", "--checkpoint", pipe["train"] / "final.wxpm",
            "--cube", pipe["cube"], "--out", tmp_path / "y"]
    assert run(*base) == cli.EXIT_CONFIG
    assert run(*base, "--index", 3, "--timestamp",
               "2019-01-01T03:00:00") == cli.EXIT_CONFIG


def test_anomalies_clean_and_planted(pipe, tmp_path, capsys):
    assert run("anomalies", "--power", pipe["power"]) == 0
    assert "no constant runs found" in capsys.readouterr().out

    power = D.aggregate_power(os.fspath(pipe["power"]))
    power.solar[24:48] = 7.5
    doctored = tmp_path / "hourly.csv"
    D.save_power(power, doctored)
    assert run("anomalies", "--power", doctored) == 0
    out = capsys.readouterr().out
    assert "solar 2019-01-02T00:00:00 .. 2019-01-02T23:00:00" in out
    assert "length 24h" in out


def test_config_file_and_cli_precedence(pipe, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=linear\nepochs=2\nstage_length=1\nseed=11\n"
                   f"cube={pipe['cube']}\npower={pipe['power']}\n"
                   f"splits={pipe['splits']}\n")
    d = tmp_path / "cfgrun"
    assert run("train", "--config", cfg, "--out", d, "--epochs", 1) == 0
    hist = (d / "history.csv").read_text().splitlines()
    assert len(hist) == 2                      # CLI --epochs 1 beat config's 2
    assert "epochs=1" in (d / "config.resolved").read_text()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modle=linear\n")
    assert run("synth", "--config", cfg, "--out", tmp_path / "s") == cli.EXIT_CONFIG


def test_repeated_key_refused_in_config_and_split_files(pipe, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# one seed only\nseed=1\n\nseed = 2\n")
    capsys.readouterr()
    assert run("synth", "--config", cfg, "--out", tmp_path / "s") == cli.EXIT_CONFIG
    assert f"{cfg}:4: repeated key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()

    lines = pipe["splits"].read_text().splitlines(keepends=True)
    assert lines[2].startswith("train=")
    splits = tmp_path / "splits.txt"
    splits.write_text("".join(lines) + lines[2])
    out = tmp_path / "run"
    assert run("train", "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", splits, "--out", out) == cli.EXIT_DATA
    assert f"{splits}:6: repeated key 'train'" in capsys.readouterr().err
    assert not (out / "history.csv").exists()


def test_a_hand_written_blocked_split_file_trains(pipe, tmp_path):
    # the hold-out is the last eligible hours, val before test
    ds = D.align(D.load_cube(pipe["cube"]), D.load_power(pipe["power"]))
    eligible = ds.eligible_indices(1)
    train, val, test = eligible[:-24], eligible[-24:-12], eligible[-12:]
    splits = tmp_path / "blocked.txt"
    splits.write_text(
        "# blocked hold-out: the last 24 eligible hours\n"
        "seed = 0\nstack = 1\n\n"
        f"train = {','.join(map(str, train))}\n"
        f"val = {','.join(map(str, val))}\n"
        "# the very last hours\n"
        f"test = {','.join(map(str, test))}\n")
    assert D.SplitIndices.load(splits) == D.SplitIndices(
        tuple(train), tuple(val), tuple(test), 0, 1)
    out = tmp_path / "run"
    assert run("train", "--cube", pipe["cube"], "--power", pipe["power"],
               "--splits", splits, "--model", "linear", "--stage-length", 1,
               "--epochs", 1, "--seed", 0, "--out", out) == 0
    assert len((out / "history.csv").read_text().splitlines()) == 2


def test_a_run_reruns_from_its_config_resolved(pipe, tmp_path):
    out = tmp_path / "again"
    assert run("train", "--config", pipe["train"] / "config.resolved",
               "--out", out) == 0
    for name in ("history.csv", "final.wxpm"):
        assert (out / name).read_bytes() == (pipe["train"] / name).read_bytes(), name


def _bad_byte(src, dst, offset):
    data = bytearray(src.read_bytes())
    data[offset] = 0xFF
    dst.write_bytes(data)
    return dst


@pytest.mark.parametrize("case", ["split-power", "import-manifest", "train-splits",
                                  "cube-band-name", "checkpoint-tensor-name"])
def test_text_that_is_not_utf8_is_a_data_error_naming_its_file(pipe, tmp_path, capsys,
                                                               case):
    cube, power, ckpt = pipe["cube"], pipe["power"], pipe["train"] / "final.wxpm"
    if case == "split-power":
        bad = cube
        argv = ["split", "--cube", cube, "--power", bad]
    elif case == "import-manifest":
        bad = sorted((pipe["synth"] / "frames").iterdir())[0]
        argv = ["import", "--manifest", bad]
    elif case == "train-splits":
        bad = cube
        argv = ["train", "--cube", cube, "--power", power, "--splits", bad]
    elif case == "cube-band-name":
        # after the magic, six header words and the first name's length
        bad = _bad_byte(cube, tmp_path / "cube.wxc", 4 + 24 + 4)
        argv = ["split", "--cube", bad, "--power", power]
    else:
        # after the magic, version, architecture text, count and name length
        (spec_len,) = struct.unpack("<I", ckpt.read_bytes()[8:12])
        bad = _bad_byte(ckpt, tmp_path / "final.wxpm", 12 + spec_len + 8)
        argv = ["saliency", "--checkpoint", bad, "--cube", cube, "--index", 3]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--out", out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "not UTF-8" in err, err
    assert not out.exists()


def _first_stamp_offset(cube_bytes):
    """Where the first timestamp's text starts in a cube file's bytes."""
    _, _, _, c, h, w = struct.unpack("<6I", cube_bytes[4:28])
    at = 28
    for _ in range(c):
        (n,) = struct.unpack("<I", cube_bytes[at:at + 4])
        at += 4 + n
    return at + (h * w + 7) // 8 + 4


@pytest.mark.parametrize("case", [
    "cube-magic", "cube-cut-header", "cube-band-name", "cube-stamp",
    "cube-cut-frames", "cube-trailing", "cube-huge-grid", "checkpoint-magic",
    "checkpoint-cut-tensor", "checkpoint-unknown-tensor", "checkpoint-trailing",
    "checkpoint-huge-rank"])
def test_a_corrupt_binary_file_exits_3_naming_its_file(pipe, tmp_path, capsys, case):
    which, _, damage = case.partition("-")
    src = pipe["cube"] if which == "cube" else pipe["train"] / "final.wxpm"
    whole = src.read_bytes()
    if damage == "magic":
        broken = b"JUNK" + whole[4:]
    elif damage == "cut-header":
        broken = whole[:20]
    elif damage == "band-name":
        broken = whole[:32] + b"\xff" + whole[33:]
    elif damage == "stamp":
        at = _first_stamp_offset(whole)
        assert whole[at:at + 4] == b"2019"
        broken = whole[:at] + b"x" + whole[at + 1:]
    elif damage in ("cut-frames", "cut-tensor"):
        broken = whole[:-10]
    elif damage == "trailing":
        broken = whole + b"\0"
    elif damage == "huge-grid":  # H and W: a mask larger than any memory
        broken = whole[:20] + struct.pack("<2I", 0xFFFFFFFF, 0xFFFFFFFF) + whole[28:]
    elif damage == "huge-rank":  # the first tensor's rank, after its name
        (spec_len,) = struct.unpack("<I", whole[8:12])
        at = 12 + spec_len + 4
        (name_len,) = struct.unpack("<I", whole[at:at + 4])
        at += 4 + name_len
        broken = whole[:at] + struct.pack("<I", 0xFFFFFFFF) + whole[at + 4:]
    else:
        broken = whole.replace(b"fc1.weight", b"fc9.weight", 1)
    bad = tmp_path / src.name
    bad.write_bytes(broken)
    out = tmp_path / "out"
    if which == "cube":
        argv = ["eval", "--checkpoint", pipe["train"] / "final.wxpm", "--cube", bad,
                "--power", pipe["power"], "--splits", pipe["splits"]]
    else:
        argv = ["saliency", "--checkpoint", bad, "--cube", pipe["cube"], "--index", 3]
    capsys.readouterr()
    assert run(*argv, "--out", out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {bad}: "), err
    assert not out.exists()


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=1\nhours=\xff\n")
    capsys.readouterr()
    assert run("synth", "--config", cfg, "--out", tmp_path / "s") == cli.EXIT_CONFIG
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_missing_required_setting(tmp_path):
    assert run("synth") == cli.EXIT_CONFIG     # --out absent


def test_missing_input_file_is_data_error(pipe, tmp_path):
    code = run("split", "--cube", tmp_path / "nope.wxc", "--power",
               pipe["power"], "--out", tmp_path / "s.txt")
    assert code == cli.EXIT_DATA


def test_bad_arguments_exit_config(capsys):
    assert run("train", "--model", "tree") == cli.EXIT_CONFIG
    assert run() == cli.EXIT_CONFIG
    capsys.readouterr()


def forbid_reads(monkeypatch, what):
    """Make every data and checkpoint reader fail the test."""
    def spy(*args, **kwargs):
        raise AssertionError(f"read data for {what}")

    for fn in ("load_frames", "load_cube", "load_power", "aggregate_power"):
        monkeypatch.setattr(D, fn, spy)
    monkeypatch.setattr(M, "load_checkpoint", spy)


@pytest.mark.parametrize("argv,config", [
    (["import", "--coarsen", 0], None),
    (["import", "--coarsen", -2], None),
    (["import", "--corner-radius", -1], None),
    (["split", "--stack", 3], None),
    (["split"], "stack=3\n"),
    (["train", "--epochs", 99], None),
    (["train", "--batch-size", 0], None),
    (["split", "--seed", -1], None),
    (["anomalies", "--min-len", 1], None),
    (["eval", "--window-start", "2019-01-02T00:00:00"], None),
    (["eval", "--window-start", "garbage",
      "--window-end", "2019-01-03T00:00:00"], None),
    (["eval"], "window_start=2019-01-02T00:00:00\nwindow_end=garbage\n"),
    (["eval", "--window-start", "2019-01-03T00:00:00",
      "--window-end", "2019-01-02T00:00:00"], None),
    (["saliency", "--timestamp", "garbage"], None),
    (["saliency", "--index", -5], None),
    (["import"], "normalize=0\n"),
], ids=["coarsen-0", "coarsen-negative", "corner-radius-negative",
        "split-stack-flag", "split-stack-config", "train-epochs",
        "train-batch-size", "split-seed-negative", "anomalies-min-len-1",
        "eval-window-start-alone", "eval-window-start-garbage",
        "eval-window-end-config-garbage", "eval-window-reversed",
        "saliency-timestamp-garbage", "saliency-index-negative",
        "import-normalize-key-gone"])
def test_bad_numeric_settings_refused_before_reading_data(
        pipe, tmp_path, monkeypatch, argv, config):
    forbid_reads(monkeypatch, argv)
    ckpt = pipe["train"] / "final.wxpm"
    inputs = {"import": ["--manifest", pipe["synth"] / "manifest.csv"],
              "split": ["--cube", pipe["cube"], "--power", pipe["power"]],
              "train": ["--cube", pipe["cube"], "--power", pipe["power"],
                        "--splits", pipe["splits"]],
              "eval": ["--checkpoint", ckpt, "--cube", pipe["cube"],
                       "--power", pipe["power"], "--splits", pipe["splits"]],
              "saliency": ["--checkpoint", ckpt, "--cube", pipe["cube"]],
              "anomalies": ["--power", pipe["power"]]}[argv[0]]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        inputs += ["--config", cfg]
    out = tmp_path / "out"
    assert run(*argv, *inputs, "--out", out) == cli.EXIT_CONFIG
    assert not out.exists()


# each subcommand's flags beside --help, --config, --seed and --out
SUBCOMMAND_FLAGS = {
    "import": "--manifest --frames-dir --coarsen --corner-radius",
    "synth": "--hours --grid --noise --corner-radius",
    "split": "--cube --power --stack --exclude-anomalies",
    "train": "--cube --power --splits --model --epochs --batch-size --l2-lambda "
             "--stage-length --lrs --adaptive-stages",
    "eval": "--checkpoint --cube --power --splits --subset --window-start "
            "--window-end",
    "saliency": "--checkpoint --cube --timestamp --index",
    "anomalies": "--power --min-len --source",
}


@pytest.mark.parametrize("cmd", list(SUBCOMMAND_FLAGS))
def test_subcommand_flags_and_config_choices(cmd, tmp_path, monkeypatch, capsys):
    assert cli.main([cmd, "--help"]) == cli.EXIT_OK
    shown = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z0-9-]*", shown)) == {
        "--help", "--config", "--seed", "--out", *SUBCOMMAND_FLAGS[cmd].split()}
    if cmd == "train":
        assert "4 comma-separated stage rates" in shown

    # a config value outside its allowed set fails like its flag would,
    # whichever subcommand reads the file
    forbid_reads(monkeypatch, cmd)
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    for line in ("model=tree", "subset=dev", "source=hydro"):
        cfg.write_text(line + "\n")
        assert run(cmd, "--config", cfg, "--out", out) == cli.EXIT_CONFIG
        assert "must be one of" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_exit_code(pipe, tmp_path):
    power = D.aggregate_power(os.fspath(pipe["power"]))
    power.solar[:] = 1e300                     # overflows the float32 batch
    poisoned = tmp_path / "poisoned.csv"
    D.save_power(power, poisoned)
    code = run("train", "--cube", pipe["cube"], "--power", poisoned,
               "--splits", pipe["splits"], "--model", "linear",
               "--stage-length", 1, "--epochs", 1, "--seed", 0,
               "--out", tmp_path / "boom")
    assert code == cli.EXIT_NUMERIC
    # the run's record is written before training, so the failed run keeps it
    assert "model=linear" in (tmp_path / "boom" / "config.resolved").read_text()
    assert len((tmp_path / "boom" / "inputs.sha256").read_text().splitlines()) == 3
