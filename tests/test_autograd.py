"""Analytic gradients against central finite differences, op by op."""

import json

import numpy as np
import pytest

from cefpn import ConfigError, NeckConfig, RunConfig, Tensor, cefpn_forward, init_neck_params, \
    ops, run_gradcheck, synthetic_backbone
from cefpn.cli import main
from cefpn.gradcheck import DEFAULT_THRESHOLD, check_loss_gradients, end_to_end_gradcheck, \
    op_gradient_suite
from cefpn.tensor import _record, add, mul, relu, sum_all
import cefpn.gradcheck
import cefpn.neck

EXPECTED_OPS = {
    "conv2d_1x1", "conv2d_3x3", "conv2d_3x3_im2col", "max_pool2d",
    "global_avg_pool", "global_max_pool", "interpolate_nearest", "linear",
    "sigmoid", "relu", "add", "mul", "mul_channelwise", "scale",
    "pixel_shuffle", "pixel_unshuffle", "channel_slice", "broadcast_spatial",
    "squeeze_spatial", "sum_all",
}


def test_every_op_below_threshold():
    errors = op_gradient_suite(seed=0)
    assert EXPECTED_OPS <= set(errors)
    for name, err in errors.items():
        assert err < DEFAULT_THRESHOLD, f"{name}: {err:.3e}"


def test_suite_checks_both_3x3_paths(monkeypatch):
    calls = {"_conv3x3_shifted": 0, "_gather_windows": 0}
    for name in calls:
        real = getattr(ops, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(ops, name, counted)
    op_gradient_suite(seed=0)
    assert calls["_conv3x3_shifted"] > 0 and calls["_gather_windows"] > 0


def test_suite_is_deterministic():
    assert op_gradient_suite(seed=3) == op_gradient_suite(seed=3)


def test_linear_layer_is_exact_to_roundoff():
    assert op_gradient_suite(0)["linear_exact"] < 1e-8


def test_corrupted_gradient_is_caught(corrupt_conv3x3):
    errors = op_gradient_suite(seed=0)
    assert errors["conv2d_3x3"] > DEFAULT_THRESHOLD
    assert errors["conv2d_1x1"] < DEFAULT_THRESHOLD


def test_float32_leaves_are_refused():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigError):
        check_loss_gradients(lambda: sum_all(x), [x])


def test_shared_leaf_through_two_paths():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
    loss_fn = lambda: add(sum_all(mul(x, x)), sum_all(x))
    assert check_loss_gradients(loss_fn, [x]) < DEFAULT_THRESHOLD


def test_numeric_forwards_build_no_graph():
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
    losses, graphs = [], []

    def loss_fn():
        losses.append(sum_all(mul(relu(x), w)))
        graphs.append(losses[-1]._parents != ())  # before backward consumes it
        return losses[-1]

    picks = np.array([0, 7, 14, 21, 28])  # both leaves
    assert check_loss_gradients(loss_fn, [x, w], picks) < DEFAULT_THRESHOLD
    analytic, numeric = losses[0], losses[1:]
    assert analytic.requires_grad and graphs[0]
    assert len(numeric) == 2 * 5
    for loss in numeric:
        assert loss._parents == () and not loss.requires_grad


def test_leaf_flags_are_restored():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    frozen = Tensor(rng.uniform(-1, 1, (2, 3)))
    check_loss_gradients(lambda: sum_all(mul(x, frozen)), [x, frozen])
    assert x.requires_grad and not frozen.requires_grad


def test_leaf_flags_are_restored_when_loss_fn_raises():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    frozen = Tensor(rng.uniform(-1, 1, (2, 3)))
    before = x.data.copy()
    calls = []

    def loss_fn():
        calls.append(None)
        if len(calls) == 4:  # inside the numeric loop, past its first coordinate
            raise RuntimeError("forward failed")
        return sum_all(mul(x, frozen))

    with pytest.raises(RuntimeError, match="forward failed"):
        check_loss_gradients(loss_fn, [x, frozen])
    assert x.requires_grad and not frozen.requires_grad
    assert np.array_equal(x.data, before)


def _wrong_grad_at(x, flat, factor=2.0):
    """Identity whose backward scales the gradient at ``flat`` (a flat
    coordinate or a slice of them) by ``factor``."""
    def grad_fn(g):
        wrong = g.copy()
        wrong.flat[flat] *= factor
        return (wrong,)

    return _record("wrong_grad_at", x.data.copy(), (x,), grad_fn)


@pytest.mark.parametrize("factor", [2.0, np.nan])
@pytest.mark.parametrize("picks, caught", [
    (None, True),                       # x[5], a finite pick, comes after x[4]
    ([10], True),                       # x[4], counted after all of w
    ([4], False),                       # w[4]
    ([0, 1, 2, 3, 5, 6, 7, 8, 9, 11], False),
])
def test_picks_choose_the_coordinates_checked(picks, caught, factor):
    rng = np.random.default_rng(6)
    w = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    loss_fn = lambda: add(sum_all(w), sum_all(_wrong_grad_at(x, 4, factor)))
    err = check_loss_gradients(loss_fn, [w, x], None if picks is None else np.array(picks))
    assert (not err < DEFAULT_THRESHOLD) == caught
    assert np.isnan(err) == (caught and np.isnan(factor))


def test_an_all_nan_gradient_fails():
    x = Tensor(np.random.default_rng(8).uniform(-1, 1, (2, 3)), requires_grad=True)
    err = check_loss_gradients(lambda: sum_all(_wrong_grad_at(x, slice(None), np.nan)), [x])
    assert np.isnan(err)


def desk(**kw):
    return NeckConfig(base_channel=16, attention_reduction=4, **kw)


def full_forward_reference(config, batch, seed, samples=200):
    """The end-to-end check as one full forward per evaluation: same
    parameters, backbone, loss and coordinate stream."""
    params = init_neck_params(config, seed)
    backbone = synthetic_backbone(16, 64, 64, batch, seed=seed + 1)

    def loss_fn():
        outs = cefpn_forward(backbone, params, config)
        loss = sum_all(outs.r2)
        for t in (outs.r3, outs.r4, outs.r5):
            loss = add(loss, sum_all(t))
        return loss

    leaves = [t for _name, t in params.named_parameters()]
    total = sum(t.size for t in leaves)
    picks = np.sort(np.random.default_rng(seed + 2).choice(total, samples, replace=False))
    return check_loss_gradients(loss_fn, leaves, picks)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("f5_p5", [False, True])
@pytest.mark.parametrize("scheme", ["a", "b", "c"])
def test_end_to_end_equals_full_forward_reference(scheme, f5_p5, batch):
    config = desk(ssf_scheme=scheme, include_f5_p5=f5_p5)
    got = end_to_end_gradcheck(config, batch=batch, seed=1).max_rel_error
    assert got == full_forward_reference(config, batch, seed=1)


@pytest.mark.parametrize("f5_p5", [False, True])
def test_full_forward_runs_only_for_pyramid_picks(f5_p5, monkeypatch):
    config = desk(ssf_scheme="a", include_f5_p5=f5_p5)
    params = init_neck_params(config, 1)
    pyramid = ("lateral", "post_merge", "ssf")  # the modules pyramid_stage reads
    in_pyramid = np.concatenate([np.full(t.size, name.split(".")[0] in pyramid)
                                 for name, t in params.named_parameters()])
    picks = np.random.default_rng(3).choice(in_pyramid.size, size=200, replace=False)
    pyramid_picks = int(np.count_nonzero(in_pyramid[picks]))
    assert 0 < pyramid_picks < 200
    calls = {"cefpn_forward": 0, "pyramid_stage": 0, "head_stage": 0}
    for name in calls:
        real = getattr(cefpn.gradcheck, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cefpn.gradcheck, name, counted)
    end_to_end_gradcheck(config, seed=1)
    # head_stage: one run to route the picks, one analytic, two per head pick
    assert calls == {"cefpn_forward": 1 + 2 * pyramid_picks, "pyramid_stage": 1,
                     "head_stage": 2 + 2 * (200 - pyramid_picks)}


@pytest.fixture
def detached_f2(monkeypatch):
    """A top-down merge that cuts F2 from the graph: ``lateral.C2``'s analytic
    gradient is zero, its numeric gradient is not."""
    real = cefpn.neck.top_down_merge

    def merge(features, params):
        features[2] = Tensor(features[2].data)
        return real(features, params)

    monkeypatch.setattr(cefpn.neck, "top_down_merge", merge)


@pytest.mark.parametrize("seed", [1, 3])  # desk seeds that pick in lateral.C2
@pytest.mark.parametrize("scheme", ["a", "b", "c"])
def test_end_to_end_catches_a_detached_lateral(detached_f2, scheme, seed):
    # no graph reaches lateral.C2, so its picks run through the full neck
    result = end_to_end_gradcheck(desk(ssf_scheme=scheme), seed=seed)
    assert result.max_rel_error > DEFAULT_THRESHOLD


def test_end_to_end_catches_a_corrupted_neck_conv(corrupt_neck_conv):
    assert end_to_end_gradcheck(desk(), seed=0).max_rel_error > DEFAULT_THRESHOLD


def test_cli_exits_one_on_a_corrupted_neck_conv(corrupt_neck_conv, tmp_path, capsys):
    code = main(["--suite", "gradcheck", "--out", str(tmp_path)])
    assert code == 1
    doc = json.loads((tmp_path / "gradcheck_report.json").read_text())
    assert doc["end_to_end"]["max_rel_error"] > DEFAULT_THRESHOLD
    assert all(err < DEFAULT_THRESHOLD for err in doc["ops"].values())


def test_end_to_end_fails_a_nan_gradient_on_either_side(nan_neck_conv):
    """A NaN from only the pyramid check, or from only the head check."""
    assert np.isnan(end_to_end_gradcheck(desk(), seed=0).max_rel_error)


@pytest.mark.parametrize("nan_neck_conv", ["sce.local_3x3"], indirect=True)
def test_cli_exits_one_on_a_nan_head_gradient(nan_neck_conv, tmp_path, capsys):
    report = run_gradcheck(RunConfig(suite="gradcheck"))
    assert not report.passed and report.document["end_to_end"]["max_rel_error"] is None
    assert report.text.splitlines()[-1] == "result: FAIL"
    assert main(["--suite", "gradcheck", "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / "gradcheck_report.json").read_text())
    assert doc["end_to_end"]["max_rel_error"] is None and not doc["passed"]
