import numpy as np
import numpy.testing as npt
import pytest

from wxpower import layers as L
from wxpower import tensor as T

from fd import numeric_grad, max_rel_err

GRAD_TOL = 1e-5


# ---------------------------------------------------------------------------
# Rng / init

def test_rng_deterministic_and_algorithm():
    assert L.Rng.algorithm == "pcg64"
    a = L.Rng(123).normal((4, 4))
    b = L.Rng(123).normal((4, 4))
    npt.assert_array_equal(a, b)
    c = L.Rng(124).normal((4, 4))
    assert not np.array_equal(a, c)


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        L.Rng(-1)
    with pytest.raises(ValueError):
        L.Rng(1.5)


def test_rng_dtypes():
    r = L.Rng(0)
    assert r.normal((3,), dtype=np.float32).dtype == np.float32
    assert r.normal((3,), dtype=np.float64).dtype == np.float64
    assert r.uniform((3,), -1, 1, dtype=np.float32).dtype == np.float32
    assert r.random((3,)).dtype == np.float32


def test_kaiming_std():
    fan_in = 288
    w = L.kaiming_init((4000, fan_in), fan_in, L.Rng(5))
    expected = np.sqrt(2.0 / fan_in)
    assert abs(w.data.std() - expected) / expected < 0.05
    assert abs(w.data.mean()) < 0.01
    assert w.requires_grad


def test_uniform_init_bounds():
    w = L.uniform_init((200, 50), 0.1, L.Rng(6))
    assert w.data.min() >= -0.1
    assert w.data.max() <= 0.1
    # should actually use the range, not collapse near 0
    assert w.data.max() > 0.09
    assert w.data.min() < -0.09


def test_linear_layer_new():
    lay = L.LinearLayer.new(36, 8, L.Rng(1))
    assert lay.weight.shape == (8, 36)
    assert lay.bias.shape == (8,)
    npt.assert_array_equal(lay.bias.data, 0.0)
    bound = 1.0 / np.sqrt(36)
    assert lay.weight.data.min() >= -bound
    assert lay.weight.data.max() <= bound


def test_linear_forward_matches_numpy():
    rng = np.random.default_rng(2)
    lay = L.LinearLayer.new(5, 3, L.Rng(2), dtype=np.float64)
    x = rng.normal(size=(4, 5))
    out = L.linear_forward(lay, T.from_array(x, dtype=np.float64))
    npt.assert_allclose(out.data, x @ lay.weight.data.T + lay.bias.data, atol=1e-12)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_eval_identity():
    x = T.from_array(np.ones((8, 8), np.float32))
    out = L.dropout(x, 0.2, "eval", None)
    assert out is x


def test_dropout_p0_identity_in_train():
    x = T.from_array(np.ones((8, 8), np.float32))
    out = L.dropout(x, 0.0, "train", L.Rng(0))
    assert out is x


def test_dropout_train_masks_and_scales():
    p = 0.2
    x = T.from_array(np.ones((100, 100), np.float32))
    out = L.dropout(x, p, "train", L.Rng(3))
    vals = np.unique(out.data)
    npt.assert_allclose(sorted(vals), [0.0, 1.0 / (1.0 - p)], rtol=1e-6)
    drop_frac = (out.data == 0).mean()
    assert abs(drop_frac - p) < 0.02
    # preserves expectation
    assert abs(out.data.mean() - 1.0) < 0.03


def test_dropout_deterministic_given_seed():
    x = T.from_array(np.ones((16, 16), np.float32))
    a = L.dropout(x, 0.5, "train", L.Rng(9))
    b = L.dropout(x, 0.5, "train", L.Rng(9))
    npt.assert_array_equal(a.data, b.data)


def test_dropout_gradient_is_mask():
    x = T.from_array(np.ones((10, 10)), dtype=np.float64, requires_grad=True)
    with T.Tape() as tape:
        out = L.dropout(x, 0.4, "train", L.Rng(4))
        T.backward(tape, T.create(out.shape, 1.0, dtype=np.float64))
    # gradient equals the applied mask (0 where dropped, 1/(1-p) where kept)
    npt.assert_allclose(x.grad, out.data, atol=1e-12)


def test_dropout_spec_validation():
    x = T.create([2, 2], 1.0)
    with pytest.raises(ValueError):
        L.dropout(x, 1.0, "train", L.Rng(0))
    with pytest.raises(ValueError):
        L.dropout(x, -0.1, "eval", None)
    with pytest.raises(ValueError):
        L.dropout(x, 0.5, "test", None)


# ---------------------------------------------------------------------------
# batchnorm

def bn_ref_train(x, gamma, beta, eps):
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None]


def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(11)
    x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 6))
    bn = L.BatchNorm2d(4, dtype=np.float64)
    out = L.batchnorm2d_forward(bn, T.from_array(x, dtype=np.float64), "train")
    npt.assert_allclose(out.data, bn_ref_train(x, bn.gamma.data, bn.beta.data, bn.eps), atol=1e-10)
    npt.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    npt.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(12)
    x = rng.normal(loc=5.0, scale=3.0, size=(16, 2, 4, 4))
    bn = L.BatchNorm2d(2, dtype=np.float64)
    L.batchnorm2d_forward(bn, T.from_array(x, dtype=np.float64), "train")
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    npt.assert_allclose(bn.running_mean.data, 0.9 * 0.0 + 0.1 * mu, atol=1e-10)
    npt.assert_allclose(bn.running_var.data, 0.9 * 1.0 + 0.1 * var, atol=1e-10)


def test_batchnorm_eval_uses_running_stats_no_mutation():
    bn = L.BatchNorm2d(2, dtype=np.float64)
    bn.running_mean.data[:] = [1.0, -1.0]
    bn.running_var.data[:] = [4.0, 0.25]
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 2, 2, 2))
    before_m = bn.running_mean.data.copy()
    before_v = bn.running_var.data.copy()
    out = L.batchnorm2d_forward(bn, T.from_array(x, dtype=np.float64), "eval")
    expected = (x - before_m[None, :, None, None]) / np.sqrt(before_v + bn.eps)[None, :, None, None]
    npt.assert_allclose(out.data, expected, atol=1e-10)
    npt.assert_array_equal(bn.running_mean.data, before_m)
    npt.assert_array_equal(bn.running_var.data, before_v)


def test_batchnorm_reads_momentum_and_eps_from_the_instance():
    x = np.random.default_rng(15).normal(loc=2.0, size=(4, 3, 5, 5))
    bn = L.BatchNorm2d(3, dtype=np.float64)
    bn.momentum = 1.0  # the running stats become the batch's
    L.batchnorm2d_forward(bn, T.from_array(x, dtype=np.float64), "train")
    npt.assert_array_equal(bn.running_mean.data, x.mean(axis=(0, 2, 3)))
    npt.assert_array_equal(bn.running_var.data, x.var(axis=(0, 2, 3)))
    fresh = L.BatchNorm2d(3, dtype=np.float64)
    fresh.eps = 0.5
    out = L.batchnorm2d_forward(fresh, T.from_array(x, dtype=np.float64), "eval")
    npt.assert_allclose(out.data, x / np.sqrt(1.5), rtol=1e-12)


def test_batchnorm_eval_deterministic_repeat():
    bn = L.BatchNorm2d(3)
    rng = np.random.default_rng(14)
    x = T.from_array(rng.normal(size=(2, 3, 4, 4)), dtype=np.float32)
    a = L.batchnorm2d_forward(bn, x, "eval")
    b = L.batchnorm2d_forward(bn, x, "eval")
    npt.assert_array_equal(a.data, b.data)


def test_batchnorm_train_grad_matches_fd():
    # check dx, dgamma, dbeta against finite differences of a frozen-stat
    # reference implementation of the same forward
    eps = L.BATCHNORM_EPS
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        x = rng.normal(size=(4, 3, 2, 3))
        gamma = rng.normal(size=3) * 0.5 + 1.0
        beta = rng.normal(size=3) * 0.3
        arrays = [x, gamma, beta]

        def f(xv, gv, bv):
            return float(bn_ref_train(xv, gv, bv, eps).sum())

        for idx in range(3):
            bn = L.BatchNorm2d(3, dtype=np.float64)
            bn.gamma.data[:] = gamma
            bn.beta.data[:] = beta
            xt = T.from_array(x, dtype=np.float64, requires_grad=True)
            with T.Tape() as tape:
                out = L.batchnorm2d_forward(bn, xt, "train")
                T.reduce_sum(out)
                T.backward(tape, T.create([1], 1.0, dtype=np.float64))
            analytic = [xt.grad, bn.gamma.grad, bn.beta.grad][idx]
            numeric = numeric_grad(f, arrays, idx)
            assert max_rel_err(analytic, numeric) < GRAD_TOL, f"input {idx} seed {seed}"


def test_batchnorm_eval_grad_matches_fd():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(2, 2, 3, 3))
    rmean = np.array([0.5, -0.2])
    rvar = np.array([1.5, 0.7])
    gamma = np.array([1.2, 0.8])
    beta = np.array([0.1, -0.3])
    eps = L.BATCHNORM_EPS

    def f(xv):
        xhat = (xv - rmean[None, :, None, None]) / np.sqrt(rvar + eps)[None, :, None, None]
        return float((gamma[None, :, None, None] * xhat + beta[None, :, None, None]).sum())

    bn = L.BatchNorm2d(2, dtype=np.float64)
    bn.gamma.data[:] = gamma
    bn.beta.data[:] = beta
    bn.running_mean.data[:] = rmean
    bn.running_var.data[:] = rvar
    xt = T.from_array(x, dtype=np.float64, requires_grad=True)
    with T.Tape() as tape:
        T.reduce_sum(L.batchnorm2d_forward(bn, xt, "eval"))
        T.backward(tape, T.create([1], 1.0, dtype=np.float64))
    numeric = numeric_grad(f, [x], 0)
    assert max_rel_err(xt.grad, numeric) < GRAD_TOL


def _bn_with(params, dtype):
    gamma, beta, rmean, rvar = params
    bn = L.BatchNorm2d(gamma.size, dtype=dtype)
    for t, v in ((bn.gamma, gamma), (bn.beta, beta), (bn.running_mean, rmean), (bn.running_var, rvar)):
        t.data[:] = v
    return bn


@pytest.mark.parametrize("mode", L.MODES)
def test_batchnorm_relu_grad_matches_fd(mode):
    # a weighted sum, so the train-mode gradient is not identically zero
    eps = L.BATCHNORM_EPS
    rng = np.random.default_rng(40)
    x = rng.normal(size=(3, 3, 2, 3))
    params = (rng.normal(size=3) * 0.5 + 1.0, rng.normal(size=3) * 0.3,
              rng.normal(size=3) * 0.2, rng.uniform(0.5, 1.5, size=3))
    wts = rng.normal(size=x.shape)

    def f(xv, gv, bv):
        if mode == "train":
            mu, var = xv.mean(axis=(0, 2, 3)), xv.var(axis=(0, 2, 3))
        else:
            mu, var = params[2], params[3]
        xhat = (xv - mu[None, :, None, None]) / np.sqrt(var + eps)[None, :, None, None]
        out = gv[None, :, None, None] * xhat + bv[None, :, None, None]
        return float((np.maximum(out, 0.0) * wts).sum())

    bn = _bn_with(params, np.float64)
    xt = T.from_array(x, dtype=np.float64, requires_grad=True)
    with T.Tape() as tape:
        out = L.batchnorm2d_forward(bn, xt, mode, relu=True)
        T.backward(tape, T.from_array(wts, dtype=np.float64))
    assert 0 < (out.data > 0).sum() < out.data.size  # the relu clips some
    arrays = [x, params[0], params[1]]
    for idx, analytic in enumerate((xt.grad, bn.gamma.grad, bn.beta.grad)):
        assert max_rel_err(analytic, numeric_grad(f, arrays, idx)) < GRAD_TOL, idx


@pytest.mark.parametrize("mode", L.MODES)
def test_batchnorm_relu_is_bitwise_batchnorm_then_relu(mode):
    # float32, where a changed float order would show; in eval mode some
    # inputs equal the running mean, so the output is exactly 0 there and
    # the relu's subgradient 0 must hold
    rng = np.random.default_rng(41)
    c = 5
    x = rng.normal(size=(8, c, 15, 14)).astype(np.float32)
    params = tuple(a.astype(np.float32) for a in (
        rng.normal(size=c) * 0.5 + 1.0, np.zeros(c) if mode == "eval" else rng.normal(size=c) * 0.3,
        rng.normal(size=c) * 0.2, rng.uniform(0.5, 1.5, size=c)))
    zero_at = rng.random(size=x.shape) < 0.1
    x[zero_at] = np.broadcast_to(params[2][None, :, None, None], x.shape)[zero_at]
    g = rng.normal(size=x.shape).astype(np.float32)
    runs = []
    for fused in (False, True):
        bn = _bn_with(params, np.float32)
        bn.momentum = 1.0  # the running stats become the batch stats
        xt = T.Tensor(x.copy(), requires_grad=True)
        with T.Tape() as tape:
            if fused:
                out = L.batchnorm2d_forward(bn, xt, mode, relu=True)
            else:
                out = T.relu(L.batchnorm2d_forward(bn, xt, mode))
            T.backward(tape, T.Tensor(g))
        runs.append((out.data, xt.grad, bn.gamma.grad, bn.beta.grad,
                     bn.running_mean.data, bn.running_var.data))
    for got, want in zip(*runs):
        npt.assert_array_equal(got, want)
    # and both are the textbook formula in numpy's own mean and var
    gamma, beta, rmean, rvar = (a[None, :, None, None] for a in params)
    if mode == "train":
        mu = x.mean(axis=(0, 2, 3))[None, :, None, None]
        var = x.var(axis=(0, 2, 3))[None, :, None, None]
        npt.assert_array_equal(runs[1][4], mu.ravel())
        npt.assert_array_equal(runs[1][5], var.ravel())
    else:
        mu, var = rmean, rvar
    xhat = (x - mu) * (1.0 / np.sqrt(var + np.float32(L.BATCHNORM_EPS)))
    npt.assert_array_equal(runs[1][0], np.maximum(gamma * xhat + beta, 0))
    if mode == "eval":
        out, dx = runs[1][:2]
        assert (out[zero_at] == 0).all() and (dx[zero_at] == 0).all()
        assert (dx[out > 0] != 0).all()


def test_batchnorm_rejects_wrong_channels():
    bn = L.BatchNorm2d(3)
    with pytest.raises(T.ShapeError):
        L.batchnorm2d_forward(bn, T.create([2, 4, 5, 5], 1.0), "train")


def test_batchnorm_validation():
    with pytest.raises(ValueError):
        L.BatchNorm2d(0)
