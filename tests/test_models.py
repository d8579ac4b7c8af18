import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wxpower import data as D
from wxpower import models as M
from wxpower import tensor as T
from wxpower.layers import Rng

from fd import numeric_grad, max_rel_err

GRAD_TOL = 1e-5


def tiny_resnet_spec(dtype_hw=(16, 16), channels=2):
    return M.ArchitectureSpec("resnet", channels, dtype_hw, outputs=2,
                              stem_width=8, stage_blocks=(1, 1),
                              stage_widths=(8, 8), head_hidden=4)


# ---------------------------------------------------------------------------
# architecture spec

def test_spec_text_roundtrip():
    spec = tiny_resnet_spec()
    again = M.ArchitectureSpec.from_text(spec.to_text())
    assert again == spec
    lin = M.ArchitectureSpec("linear", 6, (8, 9), fc_widths=(16, 8), dropout_p=0.1)
    assert M.ArchitectureSpec.from_text(lin.to_text()) == lin


def test_spec_validation():
    with pytest.raises(ValueError):
        M.ArchitectureSpec("dense", 6)
    with pytest.raises(ValueError):
        M.ArchitectureSpec("linear", 0)
    with pytest.raises(ValueError):
        M.ArchitectureSpec("linear", 6, fc_widths=())
    with pytest.raises(ValueError):
        M.ArchitectureSpec("resnet", 6, stage_widths=(64, 127, 256, 512))
    with pytest.raises(ValueError):
        M.ArchitectureSpec("resnet", 6, stage_blocks=(3, 3), stage_widths=(64,))
    with pytest.raises(ValueError):
        M.ArchitectureSpec.from_text("family=linear\ninput_channels=6\nbogus=1\n")


def test_resnet_rejects_too_small_grid():
    # stem halves 2x2 to 1x1 and the inter-stage pool cannot run
    with pytest.raises(ValueError):
        M.build_model(tiny_resnet_spec(dtype_hw=(2, 2)), Rng(0))


# ---------------------------------------------------------------------------
# parameter counts (hand-computed totals)

def test_linear_param_count_single_frame():
    model = M.build_linear(6, Rng(0))
    assert M.param_count(model) == 60_017_802


def test_resnet_param_count_single_frame():
    model = M.build_resnet(6, Rng(0))
    assert M.param_count(model) == 947_010


def test_resnet_param_count_stacked():
    model = M.build_resnet(30, Rng(0))
    # only the stem kernel widens: + (30-6)*32*49 entries
    assert M.param_count(model) == 947_010 + 24 * 32 * 49


def test_resnet_is_far_smaller_than_linear():
    assert 947_010 * 50 < 60_017_802


def test_resnet_conv_and_bn_inventory():
    model = M.build_resnet(6, Rng(0))
    kernels = [k for k in model.params if k.endswith(".kernel")]
    assert len(kernels) == 35  # stem + 30 block convs + 4 projections
    gammas = [k for k in model.params if k.endswith(".gamma")]
    assert len(gammas) == 35
    assert len(model.buffers) == 70  # mean+var per batchnorm
    fcs = [k for k in model.params if k.endswith(".weight")]
    assert len(fcs) == 2


def test_projection_exactly_at_width_changes():
    model = M.build_resnet(6, Rng(0))
    projs = sorted(k for k in model.params if k.endswith("proj.kernel"))
    assert projs == ["s1.b1.proj.kernel", "s2.b1.proj.kernel",
                     "s3.b1.proj.kernel", "s4.b1.proj.kernel"]


def test_param_count_small_linear_formula():
    model = M.build_linear(2, Rng(0), input_hw=(5, 4), fc_widths=(8, 4), outputs=2)
    expect = (8 * 40 + 8) + (4 * 8 + 4) + (2 * 4 + 2)
    assert M.param_count(model) == expect


# ---------------------------------------------------------------------------
# init determinism

def test_same_seed_same_weights():
    a = M.build_resnet(2, Rng(7), input_hw=(16, 16), stem_width=8,
                       stage_blocks=(1, 1), stage_widths=(8, 8), head_hidden=4)
    b = M.build_resnet(2, Rng(7), input_hw=(16, 16), stem_width=8,
                       stage_blocks=(1, 1), stage_widths=(8, 8), head_hidden=4)
    assert a.params.keys() == b.params.keys()
    for k in a.params:
        npt.assert_array_equal(a.params[k].data, b.params[k].data)


def test_conv_biases_zero_fc_biases_zero():
    model = M.build_resnet(2, Rng(3), input_hw=(16, 16), stem_width=8,
                           stage_blocks=(1, 1), stage_widths=(8, 8), head_hidden=4)
    for name, p in model.params.items():
        if name.endswith(".bias"):
            npt.assert_array_equal(p.data, 0.0)


# ---------------------------------------------------------------------------
# forward

def test_linear_forward_matches_numpy_eval():
    model = M.build_linear(2, Rng(5), input_hw=(4, 4), fc_widths=(8, 4),
                           outputs=2, dtype=np.float64).eval()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 2, 4, 4))
    out = M.model_forward(model, T.from_array(x, dtype=np.float64))
    h = x.reshape(3, -1)
    for i in (1, 2, 3):
        w = model.params[f"fc{i}.weight"].data
        b = model.params[f"fc{i}.bias"].data
        h = np.maximum(h @ w.T + b, 0.0)
    npt.assert_allclose(out.data, h, atol=1e-12)


def test_outputs_nonnegative_both_families():
    rng = np.random.default_rng(1)
    lin = M.build_linear(2, Rng(1), input_hw=(6, 6), fc_widths=(16, 8)).eval()
    x = T.from_array(rng.normal(size=(4, 2, 6, 6)).astype(np.float32))
    assert M.model_forward(lin, x).data.min() >= 0.0
    res = M.build_model(tiny_resnet_spec(), Rng(1)).eval()
    x2 = T.from_array(rng.normal(size=(4, 2, 16, 16)).astype(np.float32))
    assert M.model_forward(res, x2).data.min() >= 0.0


def test_resnet_forward_shape_full_geometry():
    # full-size spatial plan at reduced widths to keep it quick
    model = M.build_resnet(6, Rng(2), stem_width=8, stage_blocks=(1, 1, 1, 1),
                           stage_widths=(8, 8, 8, 8), head_hidden=4).eval()
    x = T.create([1, 6, 115, 108], 0.1)
    out = M.model_forward(model, x)
    assert out.shape == (1, 2)


def test_forward_rejects_wrong_shape():
    model = M.build_model(tiny_resnet_spec(), Rng(0)).eval()
    with pytest.raises(T.ShapeError):
        M.model_forward(model, T.create([1, 3, 16, 16], 0.0))
    with pytest.raises(T.ShapeError):
        M.model_forward(model, T.create([1, 2, 8, 16], 0.0))


def test_linear_train_forward_needs_rng():
    model = M.build_linear(2, Rng(0), input_hw=(4, 4), fc_widths=(4,)).train()
    x = T.create([2, 2, 4, 4], 1.0)
    with pytest.raises(ValueError):
        M.model_forward(model, x)
    out = M.model_forward(model, x, rng=Rng(1))
    assert out.shape == (2, 2)


def test_eval_forward_is_repeatable_and_pure():
    model = M.build_model(tiny_resnet_spec(), Rng(4)).eval()
    x = T.from_array(np.random.default_rng(2).normal(size=(2, 2, 16, 16)).astype(np.float32))
    before = {k: v.data.copy() for k, v in model.buffers.items()}
    a = M.model_forward(model, x)
    b = M.model_forward(model, x)
    npt.assert_array_equal(a.data, b.data)
    for k, v in model.buffers.items():
        npt.assert_array_equal(v.data, before[k])


def test_train_forward_updates_bn_buffers():
    model = M.build_model(tiny_resnet_spec(), Rng(4)).train()
    x = T.from_array(np.random.default_rng(3).normal(size=(2, 2, 16, 16)).astype(np.float32))
    before = model.buffers["stem.bn.running_mean"].data.copy()
    M.model_forward(model, x)
    assert not np.array_equal(model.buffers["stem.bn.running_mean"].data, before)


def test_resnet_gradients_match_fd():
    spec = tiny_resnet_spec(dtype_hw=(8, 8))
    x = np.random.default_rng(8).normal(size=(2, 2, 8, 8))

    def fresh():
        m = M.build_model(spec, Rng(11), dtype=np.float64).eval()
        return m

    # spot-check three parameters end to end in eval mode (pure function)
    for pname in ["head.fc2.weight", "stem.conv.bias", "s2.b1.bn3.gamma"]:
        model = fresh()
        xt = T.from_array(x, dtype=np.float64)
        with T.Tape() as tape:
            out = M.model_forward(model, xt)
            T.reduce_sum(out)
            T.backward(tape, T.create([1], 1.0, dtype=np.float64))
        analytic = model.params[pname].grad
        base = model.params[pname].data.copy()

        def f(pv):
            m2 = fresh()
            m2.params[pname].data[...] = pv
            o = M.model_forward(m2, T.from_array(x, dtype=np.float64))
            return float(o.data.sum())

        numeric = numeric_grad(f, [base], 0)
        assert max_rel_err(analytic, numeric) < GRAD_TOL, pname


# ---------------------------------------------------------------------------
# eval-mode batchnorm folding

FOLD_RECORDS = {"bn_fold_scale", "bn_fold_kernel", "bn_fold_bias"}


def fold_spec():
    # stem 4 -> widths 8, 16: both blocks carry a projection unit, so the
    # walk covers units with and without the relu
    return M.ArchitectureSpec("resnet", 2, (12, 12), outputs=2, stem_width=4,
                              stage_blocks=(1, 1), stage_widths=(8, 16), head_hidden=4)


def stats_model(dtype, seed=5):
    """A fold_spec model whose running stats, gamma, beta and conv biases
    are all far from their initial 0/1 values."""
    model = M.build_model(fold_spec(), Rng(seed), dtype=dtype)
    g = np.random.default_rng(seed)
    for name, t in {**model.params, **model.buffers}.items():
        if name.endswith((".running_var", ".gamma")):
            t.data[...] = g.uniform(0.5, 2.0, t.shape)
        elif name.endswith((".running_mean", ".beta", ".bias")):
            t.data[...] = g.normal(0.0, 0.5, t.shape)
    return model


def conv_then_batchnorm(net, conv_key, bn_key, x, mode, relu=False):
    """The unit as an explicit conv2d -> batchnorm2d_forward walk."""
    conv = net[conv_key]
    y = T.conv2d(x, conv.kernel, conv.bias, stride=conv.stride, pad=conv.pad)
    return M.batchnorm2d_forward(net[bn_key], y, mode, relu=relu)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_eval_fold_matches_conv_then_batchnorm(monkeypatch, dtype):
    model = stats_model(dtype).eval()
    x = T.from_array(np.random.default_rng(1).normal(size=(3, 2, 12, 12)), dtype=dtype)
    folded = M.model_forward(model, x).data
    monkeypatch.setattr(M, "_conv_bn", conv_then_batchnorm)
    walked = M.model_forward(model, x).data
    assert folded.dtype == walked.dtype == dtype
    assert np.abs(walked).max() > 0.0
    if dtype == np.float64:
        npt.assert_allclose(folded, walked, rtol=0, atol=1e-10)
    else:
        npt.assert_allclose(folded, walked, rtol=1e-5)


def test_eval_fold_gradients_match_fd():
    # the input and every parameter of one relu unit, through its fold
    x = np.random.default_rng(9).normal(size=(1, 2, 12, 12))
    names = ["s1.b1.conv2.kernel", "s1.b1.conv2.bias", "s1.b1.bn2.gamma", "s1.b1.bn2.beta"]
    weights = T.from_array([[1.0, -0.5]], dtype=np.float64)  # both outputs count

    def loss(model, xt):
        return T.reduce_sum(T.mul(M.model_forward(model, xt), weights))

    model = stats_model(np.float64).eval()
    xt = T.from_array(x, dtype=np.float64, requires_grad=True)
    with T.Tape() as tape:
        loss(model, xt)
        T.backward(tape, T.create([1], 1.0, dtype=np.float64))

    def f_input(xv):
        return float(loss(stats_model(np.float64).eval(), T.Tensor(xv)).data[0])

    assert max_rel_err(xt.grad, numeric_grad(f_input, [x], 0)) < GRAD_TOL
    for name in names:
        def f(pv, name=name):
            m = stats_model(np.float64).eval()
            m.params[name].data[...] = pv
            return float(loss(m, T.from_array(x, dtype=np.float64)).data[0])

        numeric = numeric_grad(f, [model.params[name].data], 0)
        assert np.abs(numeric).max() > 0.0, name
        assert max_rel_err(model.params[name].grad, numeric) < GRAD_TOL, name


def test_train_mode_records_no_fold_and_matches_the_walk_bitwise(monkeypatch):
    x = np.random.default_rng(2).normal(size=(4, 2, 12, 12)).astype(np.float32)

    def step():
        model = stats_model(np.float32).train()
        with T.Tape() as tape:
            out = M.model_forward(model, T.Tensor(x.copy()))
            names = [op.name for op in tape.ops]
            T.backward(tape, T.create(out.shape, 1.0))
        grads = {k: p.grad for k, p in model.params.items()}
        buffers = {k: b.data for k, b in model.buffers.items()}
        return names, out.data, grads, buffers

    names, out, grads, buffers = step()
    assert not FOLD_RECORDS & set(names)
    assert names.count("batchnorm2d") == 9  # stem + 2 blocks x (3 + proj)
    monkeypatch.setattr(M, "_conv_bn", conv_then_batchnorm)
    names_w, out_w, grads_w, buffers_w = step()
    assert names == names_w
    npt.assert_array_equal(out, out_w)
    for k in grads:
        npt.assert_array_equal(grads[k], grads_w[k], err_msg=k)
    for k in buffers:
        npt.assert_array_equal(buffers[k], buffers_w[k], err_msg=k)


def block_then_relu(blk, x, mode):
    """The block with its residual add and final relu as two records."""
    h = M._conv_bn(blk, "conv1", "bn1", x, mode, relu=True)
    h = M._conv_bn(blk, "conv2", "bn2", h, mode, relu=True)
    h = M._conv_bn(blk, "conv3", "bn3", h, mode)
    shortcut = M._conv_bn(blk, "proj", "proj_bn", x, mode) if "proj" in blk else x
    return T.relu(T.add(h, shortcut))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_residual_add_carries_its_relu_bitwise(monkeypatch, mode):
    x = np.random.default_rng(4).normal(size=(3, 2, 12, 12)).astype(np.float32)

    def step():
        model = stats_model(np.float32)
        model = model.train() if mode == "train" else model.eval()
        xt = T.Tensor(x.copy(), requires_grad=True)
        with T.Tape() as tape:
            out = M.model_forward(model, xt)
            names = [op.name for op in tape.ops]
            T.backward(tape, T.create(out.shape, 1.0))
        grads = {k: p.grad for k, p in model.params.items()}
        return names, out.data, grads, xt.grad

    names, out, grads, gx = step()
    monkeypatch.setattr(M, "_block_forward", block_then_relu)
    names_w, out_w, grads_w, gx_w = step()
    blocks = names.count("add")
    assert blocks == 2 and names_w.count("add") == blocks
    assert names.count("relu") == 2  # the head's two
    assert len(names) == len(names_w) - blocks
    npt.assert_array_equal(out, out_w)
    npt.assert_array_equal(gx, gx_w)
    for k in grads:
        npt.assert_array_equal(grads[k], grads_w[k], err_msg=k)


def test_eval_tape_folds_every_unit_into_one_conv_record():
    model = stats_model(np.float32).eval()
    x = T.from_array(np.random.default_rng(3).normal(size=(1, 2, 12, 12)), requires_grad=True)
    with T.Tape() as tape:
        M.model_forward(model, x)
        names = [op.name for op in tape.ops]
    assert "batchnorm2d" not in names
    units = names.count("conv2d")
    assert units == 9
    assert all(names.count(r) == units for r in FOLD_RECORDS)


def test_input_gradient_flows_to_leaf():
    model = M.build_model(tiny_resnet_spec(), Rng(6), dtype=np.float64).eval()
    x = T.from_array(np.random.default_rng(5).normal(size=(1, 2, 16, 16)),
                     dtype=np.float64, requires_grad=True)
    with T.Tape() as tape:
        T.reduce_sum(M.model_forward(model, x))
        T.backward(tape, T.create([1], 1.0, dtype=np.float64))
    assert x.grad is not None
    assert x.grad.shape == x.shape
    assert np.abs(x.grad).max() > 0.0


def test_train_step_gradients_do_not_depend_on_kept_intermediates(monkeypatch):
    # a lean tape keys records by index, not by id(); a caller that drops
    # every intermediate before backward() frees them and lets their ids
    # be reused, and must still get the same gradients, bit for bit
    x = np.random.default_rng(3).normal(size=(4, 2, 16, 16))

    def step():
        model = M.build_model(tiny_resnet_spec(), Rng(12), dtype=np.float64)
        with T.Tape() as tape:
            loss = T.reduce_sum(M.model_forward(model, T.from_array(x, dtype=np.float64)))
            seed = T.create(loss.shape, 1.0, dtype=np.float64)
            del loss
            T.backward(tape, seed)
        return {k: p.grad for k, p in model.params.items()}

    dropped = step()
    kept_outputs = []
    record = T.record

    def keeping_record(*args, **kwargs):
        out = record(*args, **kwargs)
        kept_outputs.append(out)
        return out

    monkeypatch.setattr(T, "record", keeping_record)
    kept = step()
    assert len(kept_outputs) > 20
    assert dropped.keys() == kept.keys()
    for k in kept:
        npt.assert_array_equal(dropped[k], kept[k], err_msg=k)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = M.build_model(tiny_resnet_spec(), Rng(9))
    # move the buffers off their init values first
    x = T.from_array(np.random.default_rng(4).normal(size=(2, 2, 16, 16)).astype(np.float32))
    M.model_forward(model.train(), x)
    path = tmp_path / "m.wxpm"
    M.save_checkpoint(model, path)
    loaded = M.load_checkpoint(path)
    assert loaded.spec == model.spec
    assert loaded.mode == "eval"
    assert loaded.params.keys() == model.params.keys()
    for k in model.params:
        npt.assert_array_equal(loaded.params[k].data, model.params[k].data)
    for k in model.buffers:
        npt.assert_array_equal(loaded.buffers[k].data, model.buffers[k].data)
    out_a = M.model_forward(model.eval(), x)
    out_b = M.model_forward(loaded, x)
    npt.assert_array_equal(out_a.data, out_b.data)


# The order of these records is the .wxpm format: a new layer, a renamed
# key or a reordered walk changes every checkpoint file.
RESNET_PARAM_RECORDS = [
    ("stem.conv.kernel", (4, 6, 7, 7)), ("stem.conv.bias", (4,)),
    ("stem.bn.gamma", (4,)), ("stem.bn.beta", (4,)),
    ("s1.b1.conv1.kernel", (2, 4, 1, 1)), ("s1.b1.conv1.bias", (2,)),
    ("s1.b1.bn1.gamma", (2,)), ("s1.b1.bn1.beta", (2,)),
    ("s1.b1.conv2.kernel", (2, 2, 3, 3)), ("s1.b1.conv2.bias", (2,)),
    ("s1.b1.bn2.gamma", (2,)), ("s1.b1.bn2.beta", (2,)),
    ("s1.b1.conv3.kernel", (8, 2, 1, 1)), ("s1.b1.conv3.bias", (8,)),
    ("s1.b1.bn3.gamma", (8,)), ("s1.b1.bn3.beta", (8,)),
    ("s1.b1.proj.kernel", (8, 4, 1, 1)), ("s1.b1.proj.bias", (8,)),
    ("s1.b1.proj_bn.gamma", (8,)), ("s1.b1.proj_bn.beta", (8,)),
    ("s2.b1.conv1.kernel", (4, 8, 1, 1)), ("s2.b1.conv1.bias", (4,)),
    ("s2.b1.bn1.gamma", (4,)), ("s2.b1.bn1.beta", (4,)),
    ("s2.b1.conv2.kernel", (4, 4, 3, 3)), ("s2.b1.conv2.bias", (4,)),
    ("s2.b1.bn2.gamma", (4,)), ("s2.b1.bn2.beta", (4,)),
    ("s2.b1.conv3.kernel", (16, 4, 1, 1)), ("s2.b1.conv3.bias", (16,)),
    ("s2.b1.bn3.gamma", (16,)), ("s2.b1.bn3.beta", (16,)),
    ("s2.b1.proj.kernel", (16, 8, 1, 1)), ("s2.b1.proj.bias", (16,)),
    ("s2.b1.proj_bn.gamma", (16,)), ("s2.b1.proj_bn.beta", (16,)),
    ("s2.b2.conv1.kernel", (4, 16, 1, 1)), ("s2.b2.conv1.bias", (4,)),
    ("s2.b2.bn1.gamma", (4,)), ("s2.b2.bn1.beta", (4,)),
    ("s2.b2.conv2.kernel", (4, 4, 3, 3)), ("s2.b2.conv2.bias", (4,)),
    ("s2.b2.bn2.gamma", (4,)), ("s2.b2.bn2.beta", (4,)),
    ("s2.b2.conv3.kernel", (16, 4, 1, 1)), ("s2.b2.conv3.bias", (16,)),
    ("s2.b2.bn3.gamma", (16,)), ("s2.b2.bn3.beta", (16,)),
    ("head.fc1.weight", (4, 16)), ("head.fc1.bias", (4,)),
    ("head.fc2.weight", (2, 4)), ("head.fc2.bias", (2,)),
]
RESNET_BUFFER_RECORDS = [
    ("stem.bn.running_mean", (4,)), ("stem.bn.running_var", (4,)),
    ("s1.b1.bn1.running_mean", (2,)), ("s1.b1.bn1.running_var", (2,)),
    ("s1.b1.bn2.running_mean", (2,)), ("s1.b1.bn2.running_var", (2,)),
    ("s1.b1.bn3.running_mean", (8,)), ("s1.b1.bn3.running_var", (8,)),
    ("s1.b1.proj_bn.running_mean", (8,)), ("s1.b1.proj_bn.running_var", (8,)),
    ("s2.b1.bn1.running_mean", (4,)), ("s2.b1.bn1.running_var", (4,)),
    ("s2.b1.bn2.running_mean", (4,)), ("s2.b1.bn2.running_var", (4,)),
    ("s2.b1.bn3.running_mean", (16,)), ("s2.b1.bn3.running_var", (16,)),
    ("s2.b1.proj_bn.running_mean", (16,)), ("s2.b1.proj_bn.running_var", (16,)),
    ("s2.b2.bn1.running_mean", (4,)), ("s2.b2.bn1.running_var", (4,)),
    ("s2.b2.bn2.running_mean", (4,)), ("s2.b2.bn2.running_var", (4,)),
    ("s2.b2.bn3.running_mean", (16,)), ("s2.b2.bn3.running_var", (16,)),
]
LINEAR_PARAM_RECORDS = [
    ("fc1.weight", (12, 2400)), ("fc1.bias", (12,)),
    ("fc2.weight", (7, 12)), ("fc2.bias", (7,)),
    ("fc3.weight", (2, 7)), ("fc3.bias", (2,)),
]


@pytest.mark.parametrize("build,params,buffers", [
    (lambda: M.build_resnet(6, Rng(0), input_hw=(20, 20), stem_width=4,
                            stage_blocks=(1, 2), stage_widths=(8, 16), head_hidden=4),
     RESNET_PARAM_RECORDS, RESNET_BUFFER_RECORDS),
    (lambda: M.build_linear(6, Rng(0), input_hw=(20, 20), fc_widths=(12, 7)),
     LINEAR_PARAM_RECORDS, []),
], ids=["resnet", "linear"])
def test_checkpoint_record_names_shapes_and_order(build, params, buffers):
    model = build()
    assert [(k, p.shape) for k, p in model.params.items()] == params
    assert [(k, b.shape) for k, b in model.buffers.items()] == buffers


def tiny_linear_spec():
    return M.ArchitectureSpec("linear", 2, (6, 5), fc_widths=(8, 4), dropout_p=0.1)


@pytest.mark.parametrize("spec", [tiny_resnet_spec(), tiny_linear_spec()],
                         ids=["resnet", "linear"])
def test_checkpoint_load_draws_nothing_and_resaves_byte_identical(tmp_path, monkeypatch, spec):
    model = M.build_model(spec, Rng(9))
    first, second = tmp_path / "a.wxpm", tmp_path / "b.wxpm"
    M.save_checkpoint(model, first)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from an Rng")

    for method in ("__init__", "normal", "uniform", "random"):
        monkeypatch.setattr(Rng, method, no_draw)
    loaded = M.load_checkpoint(first)
    M.save_checkpoint(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("spec", [tiny_resnet_spec(), tiny_linear_spec()],
                         ids=["resnet", "linear"])
def test_checkpoint_missing_tensor_refused(tmp_path, spec):
    model = M.build_model(spec, Rng(9))
    del model.params[next(iter(model.params))]
    p = tmp_path / "m.wxpm"
    M.save_checkpoint(model, p)
    with pytest.raises(D.DataError, match="missing tensors"):
        M.load_checkpoint(p)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wxpm"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(D.DataError):
        M.load_checkpoint(p)


def test_checkpoint_rejects_truncation(tmp_path):
    model = M.build_model(tiny_resnet_spec(), Rng(9))
    p = tmp_path / "m.wxpm"
    M.save_checkpoint(model, p)
    whole = p.read_bytes()
    # a cut inside the header, and one inside a tensor's values
    for keep in (10, len(whole) // 2):
        p.write_bytes(whole[:keep])
        with pytest.raises(D.DataError) as e:
            M.load_checkpoint(p)
        assert str(e.value) == f"{p}: truncated file"


def test_save_checkpoint_failure_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    p = tmp_path / "final.wxpm"
    M.save_checkpoint(M.build_model(tiny_linear_spec(), Rng(1)), p)
    old = p.read_bytes()
    assert sorted(x.name for x in tmp_path.iterdir()) == ["final.wxpm"]
    write_text, written = D.write_text, []

    def fail_third(fh, text):
        written.append(text)
        if len(written) == 4:  # the architecture text, then three tensor names
            raise RuntimeError("write interrupted")
        write_text(fh, text)

    monkeypatch.setattr(D, "write_text", fail_third)
    with pytest.raises(RuntimeError, match="write interrupted"):
        M.save_checkpoint(M.build_model(tiny_linear_spec(), Rng(2)), p)
    assert p.read_bytes() == old
    assert sorted(x.name for x in tmp_path.iterdir()) == ["final.wxpm"]


def test_checkpoint_file_layout(tmp_path):
    # every byte spelled out with struct, apart from the helpers that write
    # the file; the weights are np.arange, not drawn, so no Rng stream is pinned
    model = M.build_linear(2, Rng(0), input_hw=(2, 3), fc_widths=(4,))
    for t in model.params.values():
        t.data[...] = np.arange(t.data.size, dtype=np.float32).reshape(t.data.shape)
    p = tmp_path / "m.wxpm"
    M.save_checkpoint(model, p)

    def text(s):
        b = s.encode("utf-8")
        return struct.pack("<I", len(b)) + b

    spec = ("family=linear\ninput_channels=2\ninput_hw=2,3\noutputs=2\n"
            "fc_widths=4\ndropout_p=0.2\nstem_width=32\nstage_blocks=3,3,2,2\n"
            "stage_widths=64,128,256,512\nhead_hidden=64\n")
    want = b"WXPM" + struct.pack("<I", 1) + text(spec) + struct.pack("<I", 4)
    for name, shape in [("fc1.weight", (4, 12)), ("fc1.bias", (4,)),
                        ("fc2.weight", (2, 4)), ("fc2.bias", (2,))]:
        size = int(np.prod(shape))
        want += (text(name) + struct.pack(f"<{1 + len(shape)}I", len(shape), *shape)
                 + struct.pack(f"<{size}f", *range(size)))
    assert p.read_bytes() == want
    loaded = M.load_checkpoint(p)
    for name, t in model.params.items():
        assert loaded.params[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_architecture_text_refuses_a_repeated_key(tmp_path):
    p = tmp_path / "m.wxpm"
    M.save_checkpoint(M.build_model(tiny_linear_spec(), Rng(9)), p)
    whole = p.read_bytes()
    (n,) = struct.unpack("<I", whole[8:12])
    spec = whole[12:12 + n]
    assert spec.count(b"\n") == 10
    spec += b"dropout_p=0.5\n"
    p.write_bytes(whole[:8] + struct.pack("<I", len(spec)) + spec + whole[12 + n:])
    with pytest.raises(D.DataError) as e:
        M.load_checkpoint(p)
    assert str(e.value) == f"{p}: architecture:11: repeated key 'dropout_p'"


def test_checkpoint_load_holds_the_model_once(tmp_path):
    # 8.4 MB of fc1 weights; reading each tensor through a bytes object
    # first would take the load's peak to twice the model
    model = M.build_linear(2, Rng(0), input_hw=(64, 64), fc_widths=(256,))
    path = tmp_path / "m.wxpm"
    M.save_checkpoint(model, path)
    model_bytes = sum(t.data.nbytes for t in {**model.params, **model.buffers}.values())
    del model
    tracemalloc.start()
    try:
        loaded = M.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * model_bytes
    M.save_checkpoint(loaded, tmp_path / "again.wxpm")
    assert (tmp_path / "again.wxpm").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model = M.build_model(tiny_resnet_spec(), Rng(9))
    p = tmp_path / "m.wxpm"
    M.save_checkpoint(model, p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(D.DataError):
        M.load_checkpoint(p)


def test_checkpoint_refuses_float64_model(tmp_path):
    model = M.build_model(tiny_resnet_spec(), Rng(9), dtype=np.float64)
    with pytest.raises(ValueError):
        M.save_checkpoint(model, tmp_path / "m.wxpm")
