"""Acceptance gate: ten numbered criteria, one test and one PASS/FAIL line each.

Every bound here is pinned on purpose. A red criterion means the engine
broke its contract; loosening a tolerance is never the fix. Criterion 10
needs a real full-scale dataset and skips (visibly) when none is mounted.

Run `pytest tests/test_acceptance.py -v -rA` to see every verdict line.
"""

import functools
import io
import math
import os
import time

import numpy as np
import pytest

from fd import numeric_grad, max_rel_err
from wxpower import cli
from wxpower import data as D
from wxpower import layers as L
from wxpower import metrics as X
from wxpower import models as M
from wxpower import optim as O
from wxpower import saliency as S
from wxpower import tensor as T
from wxpower.layers import Rng


def criterion(num: int, name: str):
    """Print exactly one verdict line for the wrapped criterion test."""
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kw):
            try:
                fn(*args, **kw)
            except pytest.skip.Exception as e:
                print(f"SKIP criterion {num}: {name} ({e})")
                raise
            except BaseException:
                print(f"FAIL criterion {num}: {name}")
                raise
            print(f"PASS criterion {num}: {name}")
        return run
    return deco


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


def _tape_grads(build, arrays):
    """Analytic grads of sum(build(*tensors)) wrt every input array."""
    ts = [T.from_array(a, dtype=np.float64, requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        out = build(*ts)
        total = T.reduce_sum(out)
    T.backward(tape, T.from_array(np.ones_like(total.data), dtype=np.float64))
    return [t.grad for t in ts]


def _check_op(build_t, build_np, arrays, floor=1e-3):
    grads = _tape_grads(build_t, arrays)

    def scalar(*arrs):
        return float(np.sum(build_np(*arrs)))

    worst = 0.0
    for i in range(len(arrays)):
        num = numeric_grad(scalar, arrays, i)
        worst = max(worst, max_rel_err(grads[i], num, floor=floor))
    return worst


def _op_sweep(seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    worst = max(worst, _check_op(T.matmul, lambda u, v: u @ v, [a, b]))

    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    bias = rng.normal(size=(4,))
    worst = max(worst, _check_op(T.linear, lambda u, ww, bb: u @ ww.T + bb,
                                 [x, w, bias]))

    xc = rng.normal(size=(5, 3))
    bc = rng.normal(size=(3,))
    worst = max(worst, _check_op(T.add_bias, lambda u, v: u + v[None, :],
                                 [xc, bc]))

    # relu: keep samples away from the kink where FD is meaningless
    xr = rng.normal(size=(3, 4))
    xr += 0.25 * np.sign(xr)
    worst = max(worst, _check_op(T.relu, lambda u: np.maximum(u, 0.0), [xr]))

    u, v = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    worst = max(worst, _check_op(T.add, lambda p, q: p + q, [u, v]))
    worst = max(worst, _check_op(T.sub, lambda p, q: p - q, [u, v]))
    worst = max(worst, _check_op(T.mul, lambda p, q: p * q, [u, v]))
    worst = max(worst, _check_op(lambda p: T.scale(p, -1.7),
                                 lambda p: -1.7 * p, [u]))

    xs = rng.normal(size=(2, 3, 4))
    worst = max(worst, _check_op(T.reduce_sum, np.sum, [xs]))
    worst = max(worst, _check_op(lambda u: T.reduce_sum(u, axes=(0, 2)),
                                 lambda u: u.sum(axis=(0, 2)), [xs]))
    worst = max(worst, _check_op(lambda u: T.reduce_mean(u, axes=(1,)),
                                 lambda u: u.mean(axis=1), [xs]))
    xm = rng.normal(size=(3, 5))          # continuous draws: no ties
    worst = max(worst, _check_op(lambda u: T.reduce_max(u, axis=1),
                                 lambda u: u.max(axis=1), [xm]))

    for stride, pad in ((1, 1), (2, 1)):
        xi = rng.normal(size=(2, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        kb = rng.normal(size=(3,))
        worst = max(worst, _check_op(
            lambda u, kk, bb, s=stride, p=pad: T.conv2d(u, kk, bb, stride=s, pad=p),
            lambda u, kk, bb, s=stride, p=pad: _conv_ref(u, kk, bb, s, p),
            [xi, k, kb]))

    xp = rng.normal(size=(2, 2, 4, 4))
    worst = max(worst, _check_op(lambda u: T.avgpool2d(u, 2, 2),
                                 lambda u: _pool_ref(u, 2, 2), [xp]))

    # batchnorm, train mode (batch stats) and eval mode (running stats)
    for mode in ("train", "eval"):
        bn = L.BatchNorm2d(3, dtype=np.float64)
        bn.running_mean.data[:] = rng.normal(size=3)
        bn.running_var.data[:] = 0.5 + rng.random(3)
        xb = rng.normal(size=(2, 3, 4, 4))
        ga = 0.5 + rng.random(3)
        be = rng.normal(size=3)

        # FD route recomputes the same normalization from raw numpy
        def bn_np(u, g, bt, mode=mode, bn=bn):
            if mode == "train":
                mu = u.mean(axis=(0, 2, 3))
                var = u.var(axis=(0, 2, 3))
            else:
                mu = bn.running_mean.data
                var = bn.running_var.data
            xn = (u - mu[None, :, None, None]) / np.sqrt(
                var[None, :, None, None] + bn.eps)
            return g[None, :, None, None] * xn + bt[None, :, None, None]

        ts_x = T.from_array(xb, dtype=np.float64, requires_grad=True)
        bn.gamma = T.from_array(ga, dtype=np.float64, requires_grad=True)
        bn.beta = T.from_array(be, dtype=np.float64, requires_grad=True)
        with T.Tape() as tape:
            out = L.batchnorm2d_forward(bn, ts_x, mode)
            total = T.reduce_sum(out)
        T.backward(tape, T.from_array(np.ones(1), dtype=np.float64))

        def scalar(u, g, bt, mode=mode):
            return float(np.sum(bn_np(u, g, bt, mode)))

        for i, (arr, grad) in enumerate(zip(
                (xb, ga, be), (ts_x.grad, bn.gamma.grad, bn.beta.grad))):
            num = numeric_grad(scalar, [xb, ga, be], i)
            worst = max(worst, max_rel_err(grad, num))

    # L2 term: added gradient vs FD of the penalty itself
    params = {"a": T.from_array(rng.normal(size=(3, 2)), dtype=np.float64,
                                requires_grad=True),
              "b": T.from_array(rng.normal(size=(4,)), dtype=np.float64,
                                requires_grad=True)}
    lam = 0.37
    for p in params.values():
        p.grad = np.zeros_like(p.data)
    O.add_l2_gradients(params, lam)

    def penalty(a, b):
        return lam * (float((a * a).sum()) + float((b * b).sum()))

    arrays = [params["a"].data.copy(), params["b"].data.copy()]
    for i, key in enumerate(("a", "b")):
        num = numeric_grad(penalty, arrays, i)
        worst = max(worst, max_rel_err(params[key].grad, num))
    return worst


def _conv_ref(x, k, b, stride, pad):
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            out[:, :, i, j] = np.einsum("ncij,ocij->no", patch, k)
    return out + b[None, :, None, None]


def _pool_ref(x, k, stride):
    n, c, h, w = x.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = x[:, :, i * stride:i * stride + k,
                                j * stride:j * stride + k].mean(axis=(2, 3))
    return out


def _probe_model(model, x, y, lam, coords_rng) -> float:
    """Sampled-coordinate FD check of d(loss)/d(params) through a full model."""
    # zero-initialized biases can park a relu preactivation exactly on its
    # kink (dead sample upstream -> z == bias == 0), where FD and the
    # subgradient convention legitimately disagree; generic bias values
    # remove that degeneracy
    for name, p in model.params.items():
        if name.endswith(".bias") or name.endswith(".beta"):
            p.data += 0.05 + 0.1 * coords_rng.standard_normal(p.data.shape)
    model.train()
    xt = T.from_array(x, dtype=np.float64)
    yt = T.from_array(y, dtype=np.float64)
    with T.Tape() as tape:
        pred = M.model_forward(model, xt, rng=Rng(0))
        loss = O.rmse_loss(pred, yt)
        T.backward(tape, T.from_array(np.ones(1), dtype=np.float64))
    O.add_l2_gradients(model.params, lam)
    analytic = {k: p.grad.copy() for k, p in model.params.items()}
    T.clear_grads(model.params.values())

    def loss_value():
        out = M.model_forward(model, xt, rng=Rng(0))
        return O.loss_with_l2(out.data, y, model.params, lam)

    def central(flat, i, h):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_value()
        flat[i] = orig - h
        fm = loss_value()
        flat[i] = orig
        return (fp - fm) / (2.0 * h)

    # a coordinate whose +-h step crosses a relu kink has no valid FD
    # reference: detect those by comparing two step sizes and skip them.
    # Smooth-region bugs still give consistent (and wrong) FD, so they
    # are caught; the skipped share must stay small.
    h = 1e-5
    worst = 0.0
    checked = skipped = 0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        picks = coords_rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in picks:
            num1 = central(flat, i, h)
            num2 = central(flat, i, h / 2.0)
            if abs(num1 - num2) > 1e-4 * max(abs(num1), abs(num2), 1e-3):
                skipped += 1
                continue
            checked += 1
            a = analytic[name].reshape(-1)[i]
            worst = max(worst, abs(a - num2) / max(abs(a), abs(num2), 1e-3))
    assert checked >= 3 * (checked + skipped) / 4, \
        f"only {checked} of {checked + skipped} coordinates were FD-checkable"
    return worst


@criterion(1, "gradients match finite differences (rel err < 1e-4, 5 seeds)")
def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        worst = max(worst, _op_sweep(seed))

        coords = np.random.default_rng(100 + seed)
        lin = M.build_linear(2, Rng(seed), input_hw=(5, 4), fc_widths=(7, 5),
                             dropout_p=0.0, dtype=np.float64)
        x = coords.normal(size=(3, 2, 5, 4))
        y = np.abs(coords.normal(1.0, 0.5, size=(3, 2))) + 0.5
        worst = max(worst, _probe_model(lin, x, y, 0.01, coords))

        res = M.build_resnet(3, Rng(seed), input_hw=(8, 8), stem_width=4,
                             stage_blocks=(1, 1), stage_widths=(4, 8),
                             head_hidden=5, dtype=np.float64)
        xr = coords.normal(size=(2, 3, 8, 8))
        yr = np.abs(coords.normal(1.0, 0.5, size=(2, 2))) + 0.5
        worst = max(worst, _probe_model(res, xr, yr, 0.001, coords))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"max relative gradient error {worst:.3e} >= 1e-4"
    assert elapsed < 120.0, f"gradient criterion took {elapsed:.1f}s (budget 120s)"


# ---------------------------------------------------------------------------
# criterion 2: architecture contract at full input size


@criterion(2, "architecture: 10 bottlenecks, pinned parameter counts, "
              "nonnegative outputs")
def test_criterion_02_architecture():
    import gc

    counts = {}
    r6 = M.build_resnet(6, Rng(0))
    assert sum(1 for k in r6.params if k.endswith(".conv3.kernel")) == 10, \
        "deep family must contain exactly 10 bottleneck blocks"
    counts["resnet6"] = M.param_count(r6)

    x = T.from_array(np.random.default_rng(0).normal(size=(2, 6, 115, 108)),
                     dtype=np.float32)
    out = M.model_forward(r6.eval(), x).data
    assert out.shape == (2, 2) and np.isfinite(out).all()
    assert (out >= 0.0).all(), "deep family emitted a negative production"
    del r6
    gc.collect()

    l6 = M.build_linear(6, Rng(0))
    counts["linear6"] = M.param_count(l6)
    assert counts["linear6"] == 60_017_802, \
        f"dense family at 6 channels counts {counts['linear6']} parameters"
    out = M.model_forward(l6.eval(), x).data
    assert out.shape == (2, 2) and np.isfinite(out).all()
    assert (out >= 0.0).all(), "dense family emitted a negative production"
    del l6, x
    gc.collect()

    r30 = M.build_resnet(30, Rng(0))
    counts["resnet30"] = M.param_count(r30)
    x30 = T.from_array(np.random.default_rng(1).normal(size=(2, 30, 115, 108)),
                       dtype=np.float32)
    out = M.model_forward(r30.eval(), x30).data
    assert (out >= 0.0).all() and np.isfinite(out).all()
    del r30, x30
    gc.collect()

    l30 = M.build_linear(30, Rng(0))
    counts["linear30"] = M.param_count(l30)
    del l30
    gc.collect()

    assert counts["resnet6"] < counts["linear6"], counts
    assert counts["resnet30"] < counts["linear30"], counts


# ---------------------------------------------------------------------------
# criterion 3: optimizer against a pure-python scalar oracle


@criterion(3, "optimizer matches scalar oracle; schedule steps at 5/10/15")
def test_criterion_03_optimizer():
    w = T.from_array(np.array([0.7]), dtype=np.float64, requires_grad=True)
    params = {"w": w}
    state = O.AdamState.init(params)
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.01

    wo, m, v = 0.7, 0.0, 0.0
    for step in range(1, 201):
        O.adam_step(state, params, {"w": np.array([2.0 * w.data[0]])}, lr)

        g = 2.0 * wo
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        wo -= lr * (m / (1.0 - b1 ** step)) / (math.sqrt(v / (1.0 - b2 ** step)) + eps)
        diff = abs(float(w.data[0]) - wo)
        assert diff < 1e-12, f"step {step}: optimizer drifts {diff:.2e} from oracle"

    sched = O.StageSchedule()
    lrs = [O.lr_for_epoch(sched, e) for e in range(sched.span)]
    changes = [e for e in range(1, sched.span) if lrs[e] != lrs[e - 1]]
    assert changes == [5, 10, 15], f"rate changes at {changes}"
    assert lrs[0] == 1e-3 and lrs[5] == 3e-4 and lrs[10] == 1e-4 and lrs[15] == 3e-5


# ---------------------------------------------------------------------------
# criterion 4: both families overfit 32 samples to 0.99 accuracy


def _overfit_batch(stack: int, n_samples=32):
    res = D.synth_generate(D.SynthConfig(height=20, width=20, n_hours=48, seed=5))
    cube = D.apply_normalizer(res.cube, D.fit_normalizer(res.cube))
    ds = D.align(cube, D.aggregate_power(res.power_csv))
    ids = ds.eligible_indices(stack)[:n_samples]
    assert len(ids) == n_samples
    return ds.make_batch(ids, stack)


def _fit_full_batch(model, x, y, plan, *, l2=0.0, steps=800, stop=0.99,
                    check_every=25):
    """Full-batch ADAM with a (step_bound, lr) plan; returns (step, min_acc)."""
    state = O.AdamState.init(model.params)
    model.train()
    means = y.data.mean(axis=0)
    reached = (steps, -np.inf)
    for step in range(1, steps + 1):
        lr = next(v for bound, v in plan if step <= bound)
        with T.Tape() as tape:
            pred = M.model_forward(model, x, rng=Rng(0))
            loss = O.rmse_loss(pred, y)
            T.backward(tape, T.create([1], 1.0))
        if l2 > 0.0:
            O.add_l2_gradients(model.params, l2)
        grads = {k: p.grad for k, p in model.params.items() if p.grad is not None}
        O.adam_step(state, model.params, grads, lr)
        T.clear_grads(model.params.values())
        if step % check_every == 0 or step == steps:
            model.eval()
            p = M.model_forward(model, x).data
            acc = min(1.0 - np.sqrt(((p[:, i] - y.data[:, i]) ** 2).mean()) / means[i]
                      for i in (0, 1))
            model.train()
            reached = (step, acc)
            if acc >= stop:
                break
    model.eval()
    return reached


@criterion(4, "both families overfit 32 samples to accuracy >= 0.99 "
              "within 500 steps")
def test_criterion_04_overfit():
    t0 = time.monotonic()

    x5, y5 = _overfit_batch(stack=5)
    resnet = M.build_resnet(30, Rng(1), input_hw=(20, 20), stem_width=8,
                            stage_blocks=(1, 1), stage_widths=(16, 16),
                            head_hidden=8)
    plan = [(30, 3e-4), (200, 3e-3), (350, 1e-3), (500, 3e-4)]
    step_r, acc_r = _fit_full_batch(resnet, x5, y5, plan, steps=500)
    assert acc_r >= 0.99, f"deep family stuck at accuracy {acc_r:.4f} " \
                          f"after {step_r} steps"

    x1, y1 = _overfit_batch(stack=1)
    dense = M.build_linear(6, Rng(2), input_hw=(20, 20),
                           fc_widths=(400, 200, 100, 50), dropout_p=0.0)
    plan = [(30, 1e-3), (200, 1e-2), (350, 3e-3), (500, 1e-3)]
    step_l, acc_l = _fit_full_batch(dense, x1, y1, plan, steps=500)
    assert acc_l >= 0.99, f"dense family stuck at accuracy {acc_l:.4f} " \
                          f"after {step_l} steps"

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"overfit criterion took {elapsed:.1f}s (budget 600s)"


# ---------------------------------------------------------------------------
# criterion 5: pipeline invariants


@criterion(5, "pipeline: normalization, corner zeros, split law, stacking, "
              "hourly aggregation")
def test_criterion_05_pipeline():
    res = D.synth_generate(D.SynthConfig(height=20, width=20, n_hours=72, seed=3))
    cube = D.apply_normalizer(res.cube, D.fit_normalizer(res.cube))
    keep = ~cube.mask
    per_band = cube.frames[:, :, keep].astype(np.float64)
    worst_mean = np.abs(per_band.mean(axis=(0, 2))).max()
    worst_std = np.abs(per_band.std(axis=(0, 2)) - 1.0).max()
    assert worst_mean < 1e-5, f"post-normalization band mean {worst_mean:.2e}"
    assert worst_std < 1e-4, f"post-normalization band std off by {worst_std:.2e}"
    assert cube.mask.any()
    assert (cube.frames[:, :, cube.mask] == 0.0).all(), \
        "masked corner pixels must be exactly zero"

    sp = D.split_indices(8759, seed=0, stack=1)
    sizes = (len(sp.train), len(sp.val), len(sp.test))
    assert sizes == (7008, 876, 875), f"split sizes {sizes}"
    groups = [set(sp.train), set(sp.val), set(sp.test)]
    assert not (groups[0] & groups[1] or groups[0] & groups[2]
                or groups[1] & groups[2]), "split groups overlap"
    assert groups[0] | groups[1] | groups[2] == set(range(8759))
    assert D.split_indices(8759, seed=0, stack=1) == sp, "same seed must reproduce"
    assert D.split_indices(8759, seed=1, stack=1).train != sp.train, \
        "different seed produced the same shuffle"

    # history windows must never straddle a missing hour
    hours = list(range(10)) + list(range(11, 21))      # hour 10 is absent
    base = np.datetime64("2019-01-01T00:00:00", "s")
    stamps = np.array([base + np.timedelta64(k, "h") for k in hours])
    frames = np.zeros((len(hours), 2, 6, 6), dtype=np.float32)
    for i, k in enumerate(hours):
        frames[i] = float(k)
    gap_cube = D.WeatherCube(frames, stamps, ("a", "b"),
                             np.zeros((6, 6), dtype=bool))
    full = np.array([base + np.timedelta64(k, "h") for k in range(21)])
    power = D.PowerSeries(full, np.full(21, 2.0), np.full(21, 3.0),
                          [set() for _ in range(21)])
    ds = D.align(gap_cube, power)
    eligible = ds.eligible_indices(5)
    present = set(hours)
    want = [i for i, k in enumerate(hours)
            if all(k - back in present for back in range(1, 6))]
    assert eligible == want, f"eligible {eligible} vs brute force {want}"
    banned = [i for i, k in enumerate(hours) if 11 <= k <= 15 or k < 5]
    assert not set(eligible) & set(banned), \
        "a history window crossed the missing hour"
    i16 = hours.index(16)
    assert i16 in eligible
    xs = ds.sample_input(i16, 5)
    assert xs.shape == (10, 6, 6)
    np.testing.assert_array_equal(xs.reshape(5, 2, 6, 6)[:, 0, 0, 0],
                                  [11.0, 12.0, 13.0, 14.0, 15.0])

    feed = "\n".join([
        "timestamp,source,mw",
        "2019-01-01T00:00:00,solar,1",
        "2019-01-01T00:05:00,solar,2",
        "2019-01-01T00:10:00,solar,3",
        "2019-01-01T00:00:00,wind,4",
        "2019-01-01T01:30:00,solar,5",
    ]) + "\n"
    agg = D.aggregate_power(feed)
    assert len(agg.timestamps) == 2
    assert agg.solar[0] == 2.0 and agg.wind[0] == 4.0      # hand means
    assert agg.solar[1] == 5.0 and agg.wind[1] == 0.0
    assert "wind_missing" in agg.flags[1] and "solar_partial" in agg.flags[0]


# ---------------------------------------------------------------------------
# criterion 6: metric values against hand arithmetic


@criterion(6, "metrics: pinned hand values and per-sample loop oracle")
def test_criterion_06_metrics():
    got = X.rmse(np.array([[3.0, 0.0]]), np.array([[0.0, 4.0]]))
    assert abs(got - math.sqrt(12.5)) < 1e-6, f"rmse {got} != sqrt(12.5)"

    target = np.full(40, 3.02)
    acc = X.accuracy(target + 1.019854, target, 3.02)
    assert abs(acc - 0.6623) < 1e-6, f"accuracy {acc} != 0.6623"

    rng = np.random.default_rng(7)
    pred = rng.normal(5.0, 2.0, size=(50, 2))
    truth = np.abs(rng.normal(4.0, 2.0, size=(50, 2))) + 0.1
    means = truth[:30].mean(axis=0)
    rep = X.compute_report(pred, truth, means)

    sq, acc_sum = 0.0, [0.0, 0.0]
    for i in range(50):
        for j in range(2):
            diff = pred[i, j] - truth[i, j]
            sq += diff * diff
            acc_sum[j] += 1.0 - abs(diff) / means[j]
    assert rep.n == 50
    assert abs(rep.rmse - math.sqrt(sq / 100.0)) < 1e-12
    assert abs(rep.solar_accuracy - acc_sum[0] / 50.0) < 1e-12
    assert abs(rep.wind_accuracy - acc_sum[1] / 50.0) < 1e-12
    assert rep.train_mean_solar == means[0] and rep.train_mean_wind == means[1]


# ---------------------------------------------------------------------------
# criterion 7: saliency maps are faithful and find the plants


@criterion(7, "saliency: exact zero when clipped, matches FD jacobian, "
              "recovers plant pixels")
def test_criterion_07_saliency():
    model = M.build_linear(2, Rng(1), input_hw=(4, 4), fc_widths=(8,),
                           dropout_p=0.0)
    last = max((k[:-7] for k in model.params
                if k.startswith("fc") and k.endswith(".weight")),
               key=lambda s: int(s[2:]))
    model.params[f"{last}.weight"].data[0, :] = 0.0
    model.params[f"{last}.bias"].data[0] = -1.0
    model.eval()
    x = np.random.default_rng(0).normal(size=(1, 2, 4, 4)).astype(np.float32)
    m = S.saliency_map(model, x, 0)
    assert (m.values == 0.0).all(), "clipped output must give an all-zero map"
    assert S.saliency_map(model, x, 1).values.max() > 0.0

    fd_model = M.build_linear(2, Rng(5), input_hw=(4, 4), fc_widths=(8,),
                              dropout_p=0.0, dtype=np.float64).eval()
    xv = np.random.default_rng(2).normal(size=(1, 2, 4, 4))
    h = 1e-6
    for idx in (0, 1):
        jac = np.zeros((2, 4, 4))
        for c in range(2):
            for i in range(4):
                for j in range(4):
                    up, dn = xv.copy(), xv.copy()
                    up[0, c, i, j] += h
                    dn[0, c, i, j] -= h
                    fu = M.model_forward(fd_model, T.from_array(up, dtype=np.float64))
                    fdn = M.model_forward(fd_model, T.from_array(dn, dtype=np.float64))
                    jac[c, i, j] = (fu.data[0, idx] - fdn.data[0, idx]) / (2 * h)
        expect = np.abs(jac).max(axis=0)
        got = S.saliency_map(fd_model, xv, idx).values
        err = max_rel_err(got, expect)
        assert err < 1e-3, f"saliency vs FD jacobian rel err {err:.2e}"

    # plant recovery: enough hours that every pixel's contribution is
    # identifiable, then top-k of the averaged daytime maps per source
    cfg = D.SynthConfig(height=12, width=12, n_hours=720,
                        solar_plants=((3, 3), (8, 4), (5, 9)),
                        wind_plants=((2, 8), (9, 2), (7, 7)), seed=5)
    res = D.synth_generate(cfg)
    cube = D.apply_normalizer(res.cube, D.fit_normalizer(res.cube))
    ds = D.align(cube, D.aggregate_power(res.power_csv))
    ids = ds.eligible_indices(1)
    x_all, y_all = ds.make_batch(ids, 1)
    net = M.build_linear(6, Rng(2), input_hw=(12, 12),
                         fc_widths=(400, 200, 100, 50), dropout_p=0.0)
    plan = [(30, 1e-3), (250, 1e-2), (450, 3e-3), (800, 1e-3)]
    step, acc = _fit_full_batch(net, x_all, y_all, plan, l2=1e-3, steps=800,
                                stop=0.96)
    assert acc >= 0.95, f"recall model only reached accuracy {acc:.4f}"

    hour_of_day = ((ds.timestamps - ds.timestamps.astype("datetime64[D]"))
                   / D.HOUR).astype(float)
    noon = [i for i in ids if 10 <= hour_of_day[i] <= 14][:8]
    assert len(noon) == 8
    for idx, plants in ((0, cfg.solar_plants), (1, cfg.wind_plants)):
        total = None
        for i in noon:
            xi, _ = ds.make_sample(i, 1)
            vals = S.saliency_map(net, xi.data[None], idx).values
            total = vals if total is None else total + vals
        avg = S.SaliencyMap(total / len(noon), "solar" if idx == 0 else "wind")
        top = set(S.top_k_indices(avg, len(plants)))
        recall = len(top & set(plants)) / len(plants)
        assert recall >= 0.6, (f"source {avg.source}: top-{len(plants)} pixels "
                               f"{sorted(top)} recall {recall:.2f} < 0.6")


# ---------------------------------------------------------------------------
# criterion 8: the whole command pipeline is byte-deterministic


def _run_chain(root):
    def run(*argv):
        rc = cli.main([str(a) for a in argv])
        assert rc == 0, f"command {argv[0]} exited {rc}"

    synth = root / "synth"
    run("synth", "--out", synth, "--hours", 72, "--grid", 20, "--seed", 5)
    imp = root / "imported"
    run("import", "--manifest", synth / "manifest.csv", "--out", imp)
    splits = root / "splits.txt"
    run("split", "--cube", imp / "cube.wxc", "--power", synth / "power.csv",
        "--stack", 1, "--seed", 3, "--out", splits)
    train = root / "train"
    run("train", "--cube", imp / "cube.wxc", "--power", synth / "power.csv",
        "--splits", splits, "--model", "linear", "--stage-length", 1,
        "--epochs", 2, "--batch-size", 16, "--seed", 7, "--out", train)
    ev = root / "eval"
    run("eval", "--checkpoint", train / "final.wxpm", "--cube", imp / "cube.wxc",
        "--power", synth / "power.csv", "--splits", splits,
        "--subset", "test", "--out", ev)
    frames = sorted((synth / "frames").iterdir())
    assert len(frames) == 72
    return [synth / "manifest.csv", *frames, synth / "power.csv", imp / "cube.wxc",
            splits, train / "history.csv", train / "final.wxpm", ev / "report.csv"]


@criterion(8, "synth/import/split/train/eval chain is byte-identical on rerun")
def test_criterion_08_determinism(tmp_path):
    first = _run_chain(tmp_path / "a")
    second = _run_chain(tmp_path / "b")
    for fa, fb in zip(first, second):
        assert fa.read_bytes() == fb.read_bytes(), \
            f"{fa.name} differs between identical runs"


# ---------------------------------------------------------------------------
# criterion 9: constant-run detection against a brute-force scan


def _brute_runs(vals, min_len):
    out, i, n = [], 0, len(vals)
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] == vals[i]:
            j += 1
        length = j - i + 1
        if length >= min_len and vals[i] != 0.0:
            out.append((i, j, float(vals[i]), length))
        i = j + 1
    return out


def _series_from(vals):
    base = np.datetime64("2019-03-01T00:00:00", "s")
    stamps = base + np.arange(len(vals)) * D.HOUR
    zeros = np.zeros(len(vals))
    return D.PowerSeries(stamps, np.asarray(vals, dtype=np.float64), zeros,
                         [set() for _ in vals])


@criterion(9, "constant-run detection matches brute force on 20 random series")
def test_criterion_09_anomalies():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = []
        while len(vals) < 200:
            vals.extend([float(rng.choice([0.0, 1.5, 2.5]))]
                        * int(rng.integers(1, 30)))
        vals = vals[:200]
        vals[60:84] = [7.25] * 24          # planted frozen-sensor day
        vals[120:132] = [0.0] * 12         # long zero run must stay silent

        power = _series_from(vals)
        got = [(int((r.start - power.timestamps[0]) / D.HOUR),
                int((r.end - power.timestamps[0]) / D.HOUR), r.value, r.length)
               for r in D.detect_constant_runs(power, "solar", min_len=6)]
        want = _brute_runs(vals, 6)
        assert got == want, f"seed {seed}: {got} vs brute force {want}"
        assert (60, 83, 7.25, 24) in got, "planted 24h run missed"
        assert not any(v == 0.0 for (_, _, v, _) in got), "zero run reported"

    power = _series_from([3.0] * 5 + [1.0, 2.0, 1.0])
    assert D.detect_constant_runs(power, "solar", min_len=6) == []
    assert len(D.detect_constant_runs(power, "solar", min_len=5)) == 1


# ---------------------------------------------------------------------------
# criterion 10: full-scale benchmark (optional, needs a real dataset)


@criterion(10, "full-scale benchmark on a mounted year of data")
def test_criterion_10_full_scale():
    root = os.environ.get("WXPOWER_FULL_DATA")
    if not root:
        pytest.skip("set WXPOWER_FULL_DATA to a directory holding cube.wxc "
                    "and power.csv (a full year at 115x108) to run the "
                    "benchmark; it is hours of CPU time and never required "
                    "for the regular suite")
    cube = D.load_cube(os.path.join(root, "cube.wxc"))
    power = D.load_power(os.path.join(root, "power.csv"))
    ds = D.align(cube, power)
    split = D.split_indices(ds.eligible_indices(5), seed=0, stack=5)
    model = M.build_resnet(cube.shape[1] * 5, Rng(0),
                           input_hw=cube.shape[2:])
    run = O.train(model, ds, split, O.TrainConfig(batch_size=64, epochs=20,
                                                  l2_lambda=0.001, seed=0),
                  log=print)
    result = O.evaluate(model, ds, list(split.test), 5,
                        (run.train_mean_solar, run.train_mean_wind))
    assert abs(result.solar_acc - 0.884) <= 0.05, \
        f"solar accuracy {result.solar_acc:.4f} not within 0.05 of 0.884"
    assert abs(result.wind_acc - 0.871) <= 0.05, \
        f"wind accuracy {result.wind_acc:.4f} not within 0.05 of 0.871"
