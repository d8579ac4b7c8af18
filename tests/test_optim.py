import tracemalloc
from collections import namedtuple

import numpy as np
import numpy.testing as npt
import pytest

from wxpower import data as D
from wxpower import models as M
from wxpower import optim as O
from wxpower import tensor as T
from wxpower.layers import Rng

from fd import numeric_grad, max_rel_err

SplitStub = namedtuple("SplitStub", "train val stack")


class ArrayDataset:
    """Fixed-array stand-in for the aligned dataset protocol."""

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=np.float32)
        self.y = np.asarray(y, dtype=np.float64)

    def input_channels(self, stack):
        assert stack == 1
        return self.x.shape[1]

    def targets(self, ids):
        return self.y[np.asarray(ids, dtype=int)]

    def make_batch(self, ids, stack):
        ids = np.asarray(ids, dtype=int)
        return T.Tensor(self.x[ids].copy()), T.Tensor(self.y[ids].astype(np.float32))


def toy_problem(n=24, c=2, hw=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, hw, hw)).astype(np.float32)
    w_true = rng.normal(size=(2, c * hw * hw))
    y = np.maximum(x.reshape(n, -1) @ w_true.T + 3.0, 0.0)
    return ArrayDataset(x, y)


def toy_model(c=2, hw=4, seed=1, widths=(16,)):
    return M.build_linear(c, Rng(seed), input_hw=(hw, hw), fc_widths=widths,
                          dropout_p=0.0)


# ---------------------------------------------------------------------------
# ADAM

def reference_adam(w0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent plain-python/numpy ADAM for cross-checking."""
    w = np.array(w0, dtype=np.float64)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w = w - lr * mhat / (np.sqrt(vhat) + eps)
    return w


def test_adam_scalar_two_steps_oracle():
    # worked by hand: g=0.5, lr=0.1 -> mhat=0.5, vhat=0.25 exactly both steps
    p = {"w": T.create([1], 1.0, dtype=np.float64, requires_grad=True)}
    st = O.AdamState.init(p)
    g = {"w": np.array([0.5])}
    O.adam_step(st, p, g, lr=0.1)
    step1 = 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    npt.assert_allclose(p["w"].data, [1.0 - step1], atol=1e-15)
    O.adam_step(st, p, g, lr=0.1)
    npt.assert_allclose(p["w"].data, [1.0 - 2 * step1], atol=1e-14)
    assert st.t == 2


def test_adam_matches_reference_many_steps():
    rng = np.random.default_rng(4)
    w0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(12)]
    p = {"w": T.Tensor(w0.copy(), requires_grad=True)}
    st = O.AdamState.init(p)
    for g in grads:
        O.adam_step(st, p, {"w": g}, lr=0.01)
    npt.assert_allclose(p["w"].data, reference_adam(w0, grads, 0.01), atol=1e-12)


def test_adam_zero_grad_fresh_state_is_noop():
    p = {"w": T.from_array([1.0, -2.0], dtype=np.float64, requires_grad=True)}
    st = O.AdamState.init(p)
    O.adam_step(st, p, {"w": np.zeros(2)}, lr=0.5)
    npt.assert_array_equal(p["w"].data, [1.0, -2.0])
    O.adam_step(st, p, {}, lr=0.5)  # missing grad = zeros
    npt.assert_array_equal(p["w"].data, [1.0, -2.0])


def test_adam_momentum_carries_through_missing_grad():
    p = {"w": T.create([1], 0.0, dtype=np.float64, requires_grad=True)}
    st = O.AdamState.init(p)
    O.adam_step(st, p, {"w": np.array([1.0])}, lr=0.1)
    w1 = p["w"].data.copy()
    O.adam_step(st, p, {}, lr=0.1)  # momentum keeps moving the weight
    assert p["w"].data[0] < w1[0]


def test_adam_validation():
    p = {"w": T.create([2], 0.0, requires_grad=True)}
    st = O.AdamState.init(p)
    with pytest.raises(ValueError):
        O.adam_step(st, p, {}, lr=0.0)
    with pytest.raises(KeyError):
        O.adam_step(st, p, {"nope": np.zeros(2)}, lr=0.1)
    with pytest.raises(T.ShapeError):
        O.adam_step(st, p, {"w": np.zeros(3)}, lr=0.1)


def test_adam_bad_grad_leaves_everything_untouched():
    rng = np.random.default_rng(2)
    p = {"a": T.Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True),
         "b": T.Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)}
    st = O.AdamState.init(p)
    ok = {"a": np.ones(4, np.float32), "b": np.ones(3, np.float32)}
    O.adam_step(st, p, ok, lr=0.1)

    def snapshot():
        return ([q.data.tobytes() for q in p.values()], [m.tobytes() for m in st.m.values()],
                [v.tobytes() for v in st.v.values()], st.t)

    before = snapshot()
    refused = [(T.ShapeError, {**ok, "b": np.ones(4, np.float32)}, {}),
               (T.ShapeError, {**ok, "b": np.ones(3, np.float64)}, {}),
               (T.ShapeError, {**ok, "b": np.ones(4, np.float32)}, {"l2_lambda": 0.01}),
               (KeyError, {**ok, "c": np.ones(1, np.float32)}, {}),
               (ValueError, ok, {"l2_lambda": -1.0})]
    for err, grads, kw in refused:
        with pytest.raises(err):
            O.adam_step(st, p, grads, 0.1, **kw)
        assert snapshot() == before, (err, kw)


def unfused_adam(state, params, grads, lr, lam):
    """add_l2_gradients, then the ADAM formula written out whole-array."""
    for k, p in params.items():
        p.grad = grads.get(k)
    O.add_l2_gradients(params, lam)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1, bc2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for k, p in params.items():
        m, v, g = state.m[k], state.v[k], p.grad
        m *= b1
        v *= b2
        if g is not None:
            m += (1.0 - b1) * g
            v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    T.clear_grads(params.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lam", [0.0, 0.03])
def test_fused_adam_is_byte_identical_to_l2_then_unfused(monkeypatch, dtype, lam):
    block = 8
    monkeypatch.setattr(O, "_ADAM_BLOCK", block)
    sizes = {"one": 1, "under": block - 1, "whole": block, "over": block + 1,
             "many": 3 * block + 7}
    rng = np.random.default_rng(11)
    init = {k: rng.normal(size=n).astype(dtype) for k, n in sizes.items()}
    init["many"] = init["many"].reshape(1, 31)   # blocks walk the flat array
    fused = {k: T.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    plain = {k: T.Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    st_f, st_p = O.AdamState.init(fused), O.AdamState.init(plain)
    for step in range(4):
        # "under" and "over" lose their gradient on alternate steps
        grads = {k: rng.normal(size=a.shape).astype(dtype) for k, a in init.items()
                 if not (k in ("under", "over") and step % 2)}
        O.adam_step(st_f, fused, grads, 0.01, lam)
        unfused_adam(st_p, plain, grads, 0.01, lam)
    assert st_f.t == st_p.t == 4
    for k in init:
        assert fused[k].data.dtype == dtype
        assert fused[k].data.tobytes() == plain[k].data.tobytes(), k
        assert st_f.m[k].tobytes() == st_p.m[k].tobytes(), k
        assert st_f.v[k].tobytes() == st_p.v[k].tobytes(), k


def test_adam_step_peak_stays_a_few_blocks():
    n = 4 << 20
    rng = np.random.default_rng(0)
    p = {"w": T.Tensor(rng.normal(size=n).astype(np.float32), requires_grad=True)}
    g = {"w": rng.normal(size=n).astype(np.float32)}
    st = O.AdamState.init(p)
    block_bytes = O._ADAM_BLOCK * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        O.adam_step(st, p, g, 1e-3, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * block_bytes, (peak, block_bytes)


def test_run_epoch_holds_one_gradient_per_parameter():
    # fc1 holds 99.9% of the parameters; a step that kept the last step's
    # gradients alive through its backward would peak near 2x their bytes
    ds = toy_problem(n=32, hw=32)
    model = M.build_linear(2, Rng(1), input_hw=(32, 32), fc_widths=(256,),
                           dropout_p=0.0)
    split = SplitStub(train=list(range(24)), val=list(range(24, 32)), stack=1)
    config = O.TrainConfig(batch_size=8, epochs=1, l2_lambda=0.01)
    param_bytes = sum(p.data.nbytes for p in model.params.values())
    state = fresh_state(model, ds, split, config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        O.run_epoch(state, model, ds, split, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state.adam.t == 3
    assert peak < 1.5 * param_bytes, (peak, param_bytes)


# ---------------------------------------------------------------------------
# schedule

def test_schedule_default_sequence():
    s = O.StageSchedule()
    assert s.span == 20
    lrs = [O.lr_for_epoch(s, e) for e in range(20)]
    assert lrs == [1e-3] * 5 + [3e-4] * 5 + [1e-4] * 5 + [3e-5] * 5


def test_schedule_validation():
    with pytest.raises(ValueError):
        O.StageSchedule(stage_lrs=(1e-3, 3e-4, 1e-4))
    with pytest.raises(ValueError):
        O.StageSchedule(stage_lrs=(1e-3, 1e-3, 1e-4, 3e-5))
    with pytest.raises(ValueError):
        O.StageSchedule(stage_length=0)
    s = O.StageSchedule(stage_length=2)
    assert s.span == 8
    with pytest.raises(ValueError):
        O.lr_for_epoch(s, 8)
    with pytest.raises(ValueError):
        O.lr_for_epoch(s, -1)


# ---------------------------------------------------------------------------
# loss

def test_rmse_loss_value_and_grad():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(6, 2))
        t = rng.normal(size=(6, 2))
        pt = T.from_array(p, dtype=np.float64, requires_grad=True)
        tt = T.from_array(t, dtype=np.float64)
        with T.Tape() as tape:
            loss = O.rmse_loss(pt, tt)
            T.backward(tape, T.create([1], 1.0, dtype=np.float64))
        npt.assert_allclose(loss.data[0], np.sqrt(((p - t) ** 2).mean()), atol=1e-12)

        def f(pv):
            return float(np.sqrt(((pv - t) ** 2).mean()))

        numeric = numeric_grad(f, [p], 0)
        assert max_rel_err(pt.grad, numeric) < 1e-5


def test_rmse_loss_zero_diff_zero_grad():
    p = T.from_array([[1.0, 2.0]], dtype=np.float64, requires_grad=True)
    t = T.from_array([[1.0, 2.0]], dtype=np.float64)
    with T.Tape() as tape:
        loss = O.rmse_loss(p, t)
        T.backward(tape, T.create([1], 1.0, dtype=np.float64))
    assert loss.data[0] == 0.0
    npt.assert_array_equal(p.grad, [[0.0, 0.0]])
    assert np.isfinite(p.grad).all()


def test_l2_penalty_hand_value():
    params = {"a": T.from_array([1.0, 2.0], requires_grad=True),
              "b": T.from_array([3.0], requires_grad=True)}
    npt.assert_allclose(O.l2_penalty(params, 0.01), 0.14, atol=1e-8)
    assert O.l2_penalty(params, 0.0) == 0.0
    with pytest.raises(ValueError):
        O.l2_penalty(params, -0.1)


def test_l2_gradient_matches_fd():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(3, 2))
    lam = 0.01
    params = {"w": T.Tensor(vals.copy(), requires_grad=True)}
    O.add_l2_gradients(params, lam)

    def f(v):
        return float(lam * (v ** 2).sum())

    numeric = numeric_grad(f, [vals], 0)
    assert max_rel_err(params["w"].grad, numeric) < 1e-5
    # adds on top of existing gradients
    params["w"].grad = np.ones_like(vals)
    O.add_l2_gradients(params, lam)
    npt.assert_allclose(params["w"].grad, 1.0 + 2 * lam * vals, atol=1e-6)


def test_loss_with_l2_combines():
    params = {"a": T.from_array([2.0], requires_grad=True)}
    pred = np.array([[1.0, 3.0]])
    target = np.array([[0.0, 3.0]])
    expect = np.sqrt(0.5) + 0.1 * 4.0
    npt.assert_allclose(O.loss_with_l2(pred, target, params, 0.1), expect, atol=1e-7)


# ---------------------------------------------------------------------------
# config validation

def test_train_config_validation():
    with pytest.raises(ValueError):
        O.TrainConfig(epochs=21)  # beyond the default 4x5 span
    with pytest.raises(ValueError):
        O.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        O.TrainConfig(l2_lambda=-1.0)
    with pytest.raises(ValueError):
        O.TrainConfig(seed=-1)
    cfg = O.TrainConfig(epochs=40, schedule=O.StageSchedule(stage_length=10))
    assert cfg.epochs == 40


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_scores_and_restores_mode():
    ds = toy_problem()
    model = toy_model().train()
    res = O.evaluate(model, ds, list(range(10)), 1, (2.0, 3.0))
    assert model.mode == "train"
    assert res.n == 10 and res.pred.shape == (10, 2)
    expect = float(np.sqrt(((res.pred - res.target) ** 2).mean()))
    npt.assert_allclose(res.rmse, expect, atol=1e-6)
    with pytest.raises(ValueError):
        O.evaluate(model, ds, [], 1, (2.0, 3.0))


# ---------------------------------------------------------------------------
# train loop

def quick_config(**kw):
    base = dict(batch_size=8, epochs=8, l2_lambda=0.0, seed=3,
                schedule=O.StageSchedule(stage_length=2))
    base.update(kw)
    return O.TrainConfig(**base)


def test_train_records_history_and_checkpoints(tmp_path):
    ds = toy_problem()
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    config = quick_config()
    run = O.train(toy_model(), ds, split, config, out_dir=tmp_path)
    assert len(run.history) == 8
    assert [h.stage for h in run.history] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [h.lr for h in run.history][::2] == [1e-3, 3e-4, 1e-4, 3e-5]
    # the rates train ran at are the schedule's, as lr_for_epoch states it
    want = [O.lr_for_epoch(config.schedule, e) for e in range(8)]
    assert [h.lr for h in run.history] == want
    assert all(np.isfinite(h.val_rmse) for h in run.history)
    assert run.train_mean_solar > 0 and run.train_mean_wind > 0
    for label in ("stage1", "stage2", "stage3", "stage4", "final"):
        assert (tmp_path / f"{label}.wxpm").exists()
    assert (tmp_path / "history.csv").exists()
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert len(lines) == 9 and lines[0].startswith("epoch,stage,lr")
    assert [float(line.split(",")[2]) for line in lines[1:]] == want
    loaded = M.load_checkpoint(tmp_path / "final.wxpm")
    assert loaded.spec.family == "linear"


def test_train_learns_the_toy_problem():
    # toy epochs only see 2 batches, so use rates sized for that
    rng = np.random.default_rng(0)
    x = rng.normal(size=(24, 2, 4, 4)).astype(np.float32)
    w_true = rng.normal(size=(2, 32))
    y = np.maximum(0.3 * (x.reshape(24, -1) @ w_true.T) + 1.0, 0.0)
    ds = ArrayDataset(x, y)
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    cfg = O.TrainConfig(batch_size=8, epochs=24, l2_lambda=0.0, seed=3,
                        schedule=O.StageSchedule(
                            stage_length=6, stage_lrs=(0.1, 0.03, 0.01, 0.003)))
    run = O.train(toy_model(), ds, split, cfg)
    assert run.history[-1].train_rmse < run.history[0].train_rmse * 0.9


def test_train_deterministic_same_seed():
    ds = toy_problem()
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    m1 = toy_model(seed=2)
    m2 = toy_model(seed=2)
    r1 = O.train(m1, ds, split, quick_config())
    r2 = O.train(m2, ds, split, quick_config())
    assert [h.val_rmse for h in r1.history] == [h.val_rmse for h in r2.history]
    for k in m1.params:
        npt.assert_array_equal(m1.params[k].data, m2.params[k].data)


def test_train_rejects_channel_mismatch():
    ds = toy_problem(c=2)
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    wrong = M.build_linear(3, Rng(0), input_hw=(4, 4), fc_widths=(8,), dropout_p=0.0)
    with pytest.raises(ValueError):
        O.train(wrong, ds, split, quick_config())


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_numeric_error_on_poisoned_weights():
    ds = toy_problem()
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    model = toy_model()
    for p in model.params.values():
        p.data[:] = 1e30  # forward overflows float32 -> non-finite loss
    with pytest.raises(O.NumericError):
        O.train(model, ds, split, quick_config())


def dead_toy_model():
    model = toy_model()
    for p in model.params.values():
        p.data[:] = 0.0  # dead relu network: loss is exactly constant
    return model


def test_train_adaptive_stages_advance_on_plateau(tmp_path):
    ds = toy_problem()
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    lines = []
    run = O.train(dead_toy_model(), ds, split, quick_config(adaptive_stages=True),
                  out_dir=tmp_path, log=lines.append)
    assert [h.stage for h in run.history] == [0, 0, 0, 1, 1, 2, 2, 3]
    lrs = O.StageSchedule().stage_lrs
    assert [h.lr for h in run.history] == [lrs[s] for s in [0, 0, 0, 1, 1, 2, 2, 3]]
    # each advance is announced right after the epoch that ended the stage
    # and saves that stage; the last stage never ends early
    advances = [i for i, line in enumerate(lines) if "validation stalled" in line]
    assert [lines[i] for i in advances] == [
        f"epoch {e}: validation stalled, advancing to stage {k}"
        for e, k in ((3, 2), (5, 3), (7, 4))]
    assert [lines[i - 1].split()[1] for i in advances] == ["2", "4", "6"]
    for k in (1, 2, 3):
        assert M.load_checkpoint(tmp_path / f"stage{k}.wxpm").spec.family == "linear"
    assert not (tmp_path / "stage4.wxpm").exists()


def test_train_adaptive_stall_on_the_last_epoch_ends_no_stage(tmp_path):
    ds = toy_problem()
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    lines = []
    run = O.train(dead_toy_model(), ds, split,
                  quick_config(adaptive_stages=True, epochs=3),
                  out_dir=tmp_path, log=lines.append)
    assert [h.stage for h in run.history] == [0, 0, 0]
    assert not any("validation stalled" in line for line in lines)
    assert sorted(p.name for p in tmp_path.glob("*.wxpm")) == ["final.wxpm"]


def tiny_resnet_toy():
    """A ResNet on 8x8 toy frames whose adaptive stages advance twice in 8 epochs."""
    model = M.build_resnet(2, Rng(4), input_hw=(8, 8), stem_width=4, stage_blocks=(1, 1),
                           stage_widths=(4, 4), head_hidden=4)
    config = O.TrainConfig(batch_size=8, epochs=8, l2_lambda=0.001, seed=3,
                           adaptive_stages=True,
                           schedule=O.StageSchedule(stage_length=2,
                                                    stage_lrs=(0.1, 0.03, 0.01, 0.003)))
    return model, toy_problem(hw=8), config


def fresh_state(model, ds, split, config):
    """The TrainState that train() starts from."""
    means = ds.targets(split.train).mean(axis=0)
    return O.TrainState(O.AdamState.init(model.params), Rng(config.seed),
                        float(means[0]), float(means[1]))


@pytest.mark.parametrize("family", ["linear-dropout", "resnet-adaptive"])
def test_run_epoch_by_hand_equals_train(family):
    # resume will rebuild a TrainState and keep calling run_epoch; that is
    # only sound if the hand-driven loop is train() to the bit
    if family == "linear-dropout":
        def build():
            model = M.build_linear(2, Rng(1), input_hw=(4, 4), fc_widths=(16,),
                                   dropout_p=0.3)
            return model, toy_problem(), quick_config(l2_lambda=0.01)
    else:
        build = tiny_resnet_toy
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)

    model, ds, config = build()
    run = O.train(model, ds, split, config)

    hand, ds, config = build()
    state = fresh_state(hand, ds, split, config)
    ended = [O.run_epoch(state, hand, ds, split, config) for _ in range(config.epochs)]

    assert state.history == run.history
    assert (state.stage, state.stall, state.best_val) == (run.stage, run.stall, run.best_val)
    advances = [i for i in range(1, config.epochs)
                if run.history[i].stage != run.history[i - 1].stage]
    assert sum(ended[:-1]) == len(advances)
    if family == "resnet-adaptive":
        assert len(advances) >= 1
    assert hand.params.keys() == model.params.keys()
    assert hand.buffers.keys() == model.buffers.keys()
    for k in model.params:
        assert hand.params[k].data.tobytes() == model.params[k].data.tobytes(), k
    for k in model.buffers:
        assert hand.buffers[k].data.tobytes() == model.buffers[k].data.tobytes(), k


def test_run_epoch_leaves_no_file_and_no_log(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(O, "save_checkpoint", None)
    model, ds, config = tiny_resnet_toy()
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    state = fresh_state(model, ds, split, config)
    assert O.run_epoch(state, model, ds, split, config) is False
    assert len(state.history) == 1 and state.history[0].epoch == 0
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "")


def test_train_requires_positive_train_means():
    ds = toy_problem()
    ds.y[:, :] = 0.0
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    with pytest.raises(ValueError):
        O.train(toy_model(), ds, split, quick_config())


class CountingDataset(ArrayDataset):
    def __init__(self, x, y):
        super().__init__(x, y)
        self.batches = 0

    def make_batch(self, ids, stack):
        self.batches += 1
        return super().make_batch(ids, stack)


def test_train_rejects_trailing_one_sample_batch_before_any_step():
    # 12x12 input, three stages: 6x6 -> 3x3 -> 1x1, so a one-sample batch
    # gives train-mode batchnorm a single value per channel in the last stage
    toy = toy_problem(n=24, c=2, hw=12)
    ds = CountingDataset(toy.x, toy.y)
    model = M.build_resnet(2, Rng(0), input_hw=(12, 12), stem_width=4,
                           stage_blocks=(1, 1, 1), stage_widths=(8, 8, 8),
                           head_hidden=4)
    before = {k: p.data.copy() for k, p in model.params.items()}
    split = SplitStub(train=list(range(17)), val=list(range(17, 24)), stack=1)
    with pytest.raises(ValueError, match="one-sample batch") as err:
        O.train(model, ds, split, quick_config(batch_size=8, epochs=1))
    assert not isinstance(err.value, T.ShapeError)
    assert ds.batches == 0
    for k, p in model.params.items():
        npt.assert_array_equal(p.data, before[k])
    # batch size 1 leaves only one-sample batches
    with pytest.raises(ValueError, match="one-sample batch"):
        O.train(model, ds, split, quick_config(batch_size=1, epochs=1))
    # 16 train samples split into 8 + 8: no singleton, training runs
    split = SplitStub(train=list(range(16)), val=list(range(16, 24)), stack=1)
    run = O.train(model, ds, split, quick_config(batch_size=8, epochs=1))
    assert len(run.history) == 1


def aligned_toy(t=24, hw=4):
    rng = np.random.default_rng(4)
    stamps = D.parse_timestamp("2019-01-01T00:00:00") + np.arange(t) * D.HOUR
    frames = rng.normal(size=(t, len(D.BANDS), hw, hw)).astype(np.float32)
    cube = D.WeatherCube(frames, stamps, D.BANDS, np.zeros((hw, hw), bool))
    power = D.PowerSeries(stamps, rng.uniform(1, 2, t), rng.uniform(1, 2, t),
                          [set() for _ in range(t)])
    return D.align(cube, power)


class CountingAligned(D.AlignedDataset):
    batches = 0

    def make_batch(self, ids, stack):
        self.batches += 1
        return super().make_batch(ids, stack)


def test_train_rejects_a_negative_sample_id_before_any_step():
    toy = aligned_toy()
    ds = CountingAligned(toy.cube, toy.power)
    model = toy_model(c=len(D.BANDS))
    before = {k: p.data.copy() for k, p in model.params.items()}
    split = SplitStub(train=list(range(15)) + [-3], val=list(range(16, 24)), stack=1)
    with pytest.raises(D.DataError, match="-3"):
        O.train(model, ds, split, quick_config(epochs=1))
    assert ds.batches == 0
    for k, p in model.params.items():
        npt.assert_array_equal(p.data, before[k])


def test_evaluate_rejects_a_negative_sample_id():
    ds = aligned_toy()
    with pytest.raises(D.DataError, match="-3"):
        O.evaluate(toy_model(c=len(D.BANDS)), ds, [0, 1, -3], 1, (1.5, 1.5))
