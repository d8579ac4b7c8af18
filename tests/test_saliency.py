import numpy as np
import numpy.testing as npt
import pytest

from wxpower import models as M
from wxpower import saliency as S
from wxpower import tensor as T
from wxpower.layers import Rng


def tiny_linear(dtype=np.float32, seed=1):
    return M.build_linear(2, Rng(seed), input_hw=(4, 4), fc_widths=(8,),
                          dropout_p=0.2, dtype=dtype)


def tiny_resnet(seed=3):
    return M.build_resnet(6, Rng(seed), input_hw=(16, 16), stem_width=4,
                          stage_blocks=(1, 1), stage_widths=(8, 8),
                          head_hidden=4)


def clip_solar_output(model):
    """Force the solar output's final pre-activation strictly negative."""
    # linear family: last fc is fc{n}; resnet: head.fc2
    key = "head.fc2" if "head.fc2.weight" in model.params else \
        max((k[:-7] for k in model.params if k.startswith("fc") and k.endswith(".weight")),
            key=lambda s: int(s[2:]))
    model.params[f"{key}.weight"].data[0, :] = 0.0
    model.params[f"{key}.bias"].data[0] = -1.0
    return model


def test_night_clipped_solar_map_is_exactly_zero():
    model = clip_solar_output(tiny_linear()).eval()
    x = np.random.default_rng(0).normal(size=(1, 2, 4, 4)).astype(np.float32)
    m = S.saliency_map(model, x, 0)
    assert m.values.shape == (4, 4)
    assert (m.values == 0.0).all()        # bit-exact, not just small
    # the other output is live on the same sample
    m_wind = S.saliency_map(model, x, 1)
    assert m_wind.values.max() > 0.0


def test_clipped_solar_map_zero_through_resnet():
    model = clip_solar_output(tiny_resnet()).eval()
    x = np.random.default_rng(1).normal(size=(1, 6, 16, 16)).astype(np.float32)
    m = S.saliency_map(model, x, 0)
    assert (m.values == 0.0).all()


def test_linear_all_active_equals_effective_weights():
    # strictly positive weights/biases + positive input keep every relu live,
    # so the jacobian collapses to the product of the weight matrices
    model = tiny_linear().eval()
    w1 = model.params["fc1.weight"]
    w2 = model.params["fc2.weight"]
    w1.data[:] = np.abs(w1.data) + 0.01
    w2.data[:] = np.abs(w2.data) + 0.01
    model.params["fc1.bias"].data[:] = 0.1
    model.params["fc2.bias"].data[:] = 0.1
    x = np.full((1, 2, 4, 4), 0.5, dtype=np.float32)
    for idx in (0, 1):
        eff = (w2.data[idx] @ w1.data).reshape(2, 4, 4)
        expect = np.abs(eff).max(axis=0)
        m = S.saliency_map(model, x, idx)
        npt.assert_allclose(m.values, expect, rtol=1e-6)


def test_linear_map_matches_fd_jacobian():
    model = tiny_linear(dtype=np.float64, seed=5).eval()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 4, 4))

    def f(xv, idx):
        out = M.model_forward(model, T.from_array(xv, dtype=np.float64))
        return out.data[0, idx]

    h = 1e-6
    for idx in (0, 1):
        jac = np.zeros((2, 4, 4))
        for flat in range(32):
            c, r, q = np.unravel_index(flat, (2, 4, 4))
            xp = x.copy(); xp[0, c, r, q] += h
            xm = x.copy(); xm[0, c, r, q] -= h
            jac[c, r, q] = (f(xp, idx) - f(xm, idx)) / (2 * h)
        expect = np.abs(jac).max(axis=0)
        m = S.saliency_map(model, x, idx)
        denom = np.maximum(np.abs(expect), 1e-3)
        assert (np.abs(m.values - expect) / denom).max() < 1e-3


def test_resnet_map_shape_and_nonnegative():
    model = tiny_resnet().eval()
    x = np.random.default_rng(4).normal(size=(1, 6, 16, 16)).astype(np.float32)
    m = S.saliency_map(model, x, 1, timestamp="2019-06-01T12")
    assert m.values.shape == (16, 16)
    assert (m.values >= 0.0).all()
    assert m.source == "wind" and m.timestamp == "2019-06-01T12"
    # deterministic in eval mode
    m2 = S.saliency_map(model, x, 1)
    npt.assert_array_equal(m.values, m2.values)


def test_saliency_restores_mode_and_clears_param_grads():
    model = tiny_linear().train()
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    S.saliency_map(model, x, 0)
    assert model.mode == "train"
    assert all(p.grad is None for p in model.params.values())


def test_saliency_validation():
    model = tiny_linear().eval()
    with pytest.raises(ValueError):
        S.saliency_map(model, np.zeros((1, 2, 4, 4), dtype=np.float32), 2)
    with pytest.raises(ValueError):
        S.saliency_map(model, np.zeros((2, 2, 4, 4), dtype=np.float32), 0)


def test_top_k_indices():
    m = S.SaliencyMap(np.array([[0.0, 3.0], [2.0, 1.0]]), "solar")
    assert S.top_k_indices(m, 2) == [(0, 1), (1, 0)]
    assert S.top_k_indices(m, 4) == [(0, 1), (1, 0), (1, 1), (0, 0)]
    with pytest.raises(ValueError):
        S.top_k_indices(m, 0)
    with pytest.raises(ValueError):
        S.top_k_indices(m, 5)


def test_csv_roundtrip_float32_exact(tmp_path):
    vals = np.random.default_rng(7).gamma(0.3, size=(5, 6)).astype(np.float32)
    m = S.SaliencyMap(vals, "wind")
    p = tmp_path / "map.csv"
    S.export_map(m, p, "csv")
    back = np.loadtxt(p, delimiter=",", dtype=np.float32, ndmin=2)
    npt.assert_array_equal(back, vals)


def read_pgm(p):
    """The writer's four header lines (P5, comment, size, maxval) and its pixels."""
    magic, comment, size, maxval, body = p.read_bytes().split(b"\n", 4)
    assert (magic, maxval) == (b"P5", b"255")
    w, h = (int(v) for v in size.split())
    assert len(body) == h * w
    return comment, np.frombuffer(body, dtype=np.uint8).reshape(h, w)


def test_pgm_rescale_contract(tmp_path):
    vals = np.array([[0.0, 0.4], [0.2, 0.1]], dtype=np.float32)
    m = S.SaliencyMap(vals, "solar", timestamp="2019-01-02T09")
    p = tmp_path / "map.pgm"
    S.export_map(m, p, "pgm")
    comment, pix = read_pgm(p)
    assert pix.shape == (2, 2)
    assert pix[0, 1] == 255                    # max -> 255
    assert pix[1, 0] == np.rint(0.2 / 0.4 * 255)
    assert b"255 = 0.4" in comment and b"2019-01-02T09" in comment


def test_pgm_all_zero_map(tmp_path):
    m = S.SaliencyMap(np.zeros((3, 4)), "solar")
    p = tmp_path / "zero.pgm"
    S.export_map(m, p, "pgm")
    _, pix = read_pgm(p)
    assert pix.shape == (3, 4) and (pix == 0).all()


def test_pgm_marks_corner_mask(tmp_path):
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = mask[0, 1] = True
    m = S.SaliencyMap(np.ones((3, 3)), "wind", mask=mask)
    p = tmp_path / "masked.pgm"
    S.export_map(m, p, "pgm")
    assert b"corner mask covers 2 px" in p.read_bytes()[:120]


def test_export_validation(tmp_path):
    m = S.SaliencyMap(np.array([[np.inf]]), "solar")
    with pytest.raises(ValueError):
        S.export_map(m, tmp_path / "x.csv", "csv")
    ok = S.SaliencyMap(np.ones((2, 2)), "solar")
    with pytest.raises(ValueError):
        S.export_map(ok, tmp_path / "x.bmp", "bmp")
    with pytest.raises(ValueError):
        S.SaliencyMap(np.ones((2, 2)), "hydro")
    with pytest.raises(ValueError):
        S.SaliencyMap(np.ones(4), "solar")
