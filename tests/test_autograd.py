"""Analytic gradients against central finite differences, op by op."""

import json
import warnings

import numpy as np
import pytest

from cefpn import ConfigError, NeckConfig, RunConfig, Tensor, cefpn_forward, init_neck_params, \
    ops, run_gradcheck, synthetic_backbone
from cefpn.cli import main
from cefpn.gradcheck import DEFAULT_THRESHOLD, _head_losses, _level_sum, central_difference, \
    check_loss_gradients, end_to_end_gradcheck, op_gradient_suite
from cefpn.neck import head_stage, pyramid_stage
from cefpn.tensor import _record, add, mul, relu, sum_all
import cefpn.gradcheck
import cefpn.neck
import cefpn.tensor

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


# Each input the per-op suite checks by stacked copies: (row, input shape), in run order.
STACKED_INPUTS = [
    ("conv2d_1x1", (1, 3, 5, 5)), ("conv2d_3x3", (1, 3, 6, 6)), ("max_pool2d", (1, 2, 6, 6)),
    ("global_avg_pool", (1, 4, 4, 4)), ("global_max_pool", (1, 4, 4, 4)),
    ("interpolate_nearest", (1, 2, 3, 3)), ("linear", (2, 6)), ("sigmoid", (1, 2, 4, 4)),
    ("relu", (1, 2, 4, 4)), ("add", (1, 2, 3, 3)), ("add", (1, 2, 3, 3)),
    ("mul", (1, 2, 3, 3)), ("mul", (1, 2, 3, 3)), ("mul_channelwise", (1, 2, 3, 3)),
    ("mul_channelwise", (1, 2)), ("scale", (1, 2, 3, 3)), ("pixel_shuffle", (1, 8, 2, 2)),
    ("pixel_unshuffle", (1, 2, 4, 4)), ("channel_slice", (1, 6, 3, 3)),
    ("broadcast_spatial", (1, 3, 1, 1)), ("squeeze_spatial", (1, 3, 1, 1)),
    ("linear_exact", (1, 8)),
]


@pytest.mark.parametrize("seed", range(8))
def test_stacked_differences_equal_one_coordinate_at_a_time(seed, monkeypatch):
    stacked = cefpn.gradcheck._stacked_central_differences
    shapes = []

    def counted(out_fn, inputs, k, probe):
        shapes.append(inputs[k].shape)
        return stacked(out_fn, inputs, k, probe)

    monkeypatch.setattr(cefpn.gradcheck, "_stacked_central_differences", counted)
    real = op_gradient_suite(seed)
    assert shapes == [shape for _row, shape in STACKED_INPUTS]

    def one_at_a_time(out_fn, inputs, k, probe):
        loss = lambda: sum_all(mul(out_fn(*inputs), probe)).item()
        return np.array([central_difference(loss, inputs[k], j) for j in range(inputs[k].size)])

    monkeypatch.setattr(cefpn.gradcheck, "_stacked_central_differences", one_at_a_time)
    assert op_gradient_suite(seed) == real


def _corrupt_input_gradient(monkeypatch, name, corrupt, applies=lambda *args: True):
    """The per-op suite's ``name`` op hands back ``corrupt(gx)`` for the
    gradient of its first input and its other gradients as they are."""
    real = getattr(cefpn.gradcheck, name)

    def op(*args):
        out = real(*args)
        if out._grad_fn is not None and applies(*args):
            grad_fn = out._grad_fn

            def corrupted(g):
                gx, *rest = grad_fn(g)
                return (corrupt(gx), *rest)

            out._grad_fn = corrupted
        return out

    monkeypatch.setattr(cefpn.gradcheck, name, op)


def test_corrupted_input_gradient_of_a_conv_is_caught(monkeypatch):
    # the weight and bias picks see a correct gradient: only the stacked check can fail
    _corrupt_input_gradient(monkeypatch, "conv2d", lambda t: 1.5 * t,
                            lambda x, spec: spec.kernel == 3)
    errors = op_gradient_suite(seed=0)
    assert errors["conv2d_3x3"] > DEFAULT_THRESHOLD
    assert errors["conv2d_1x1"] < DEFAULT_THRESHOLD


def test_corrupted_relu_gradient_is_caught(monkeypatch):
    _corrupt_input_gradient(monkeypatch, "relu", lambda t: 1.5 * t)
    errors = op_gradient_suite(seed=0)
    assert errors["relu"] > DEFAULT_THRESHOLD
    assert errors["sigmoid"] < DEFAULT_THRESHOLD


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["relu", "conv2d"])
def test_non_finite_input_gradient_fails_its_row_without_warning(name, bad, monkeypatch):
    _corrupt_input_gradient(monkeypatch, name, lambda t: np.full_like(t, bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors = op_gradient_suite(seed=0)
    row = "relu" if name == "relu" else "conv2d_3x3"
    assert np.isnan(errors[row])
    assert errors["sigmoid"] < DEFAULT_THRESHOLD


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


def _picked_layers(config, seed, samples=200):
    """The layer of each coordinate ``end_to_end_gradcheck`` picks, e.g.
    ``sce.local_3x3``, as a numpy string array."""
    params = init_neck_params(config, seed)
    layers = np.concatenate([np.full(t.size, name.rsplit(".", 1)[0])
                             for name, t in params.named_parameters()])
    return layers[np.random.default_rng(seed + 2).choice(layers.size, samples, replace=False)]


# The SCE branch whose graph reaches each SCE layer, by its name in gradcheck.
BRANCH_OF = {"sce.local_3x3": "_sce_local", "sce.wide_1x1": "_sce_wide",
             "sce.squeeze_1x1": "_sce_global"}


@pytest.mark.parametrize("seed, cag_picks", [(1, 0), (3, 1)])  # seed 1: no _sce_global pick
@pytest.mark.parametrize("f5_p5", [False, True])
def test_full_forward_runs_only_for_pyramid_picks(f5_p5, seed, cag_picks, monkeypatch):
    config = desk(ssf_scheme="a", include_f5_p5=f5_p5)
    layers = _picked_layers(config, seed)
    module = np.array([name.split(".")[0] for name in layers])
    picks = {"pyramid": np.isin(module, ["lateral", "post_merge", "ssf"]), "cag": module == "cag"}
    picks.update({b: layers == layer for layer, b in BRANCH_OF.items()})
    picks = {route: int(np.count_nonzero(hit)) for route, hit in picks.items()}
    assert sum(picks.values()) == 200 and 0 < picks["pyramid"] < 200
    assert picks["cag"] == cag_picks
    calls = dict.fromkeys(["cefpn_forward", "pyramid_stage", "head_stage", "_attend",
                           *BRANCH_OF.values()], 0)
    for name in calls:
        real = getattr(cefpn.gradcheck, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cefpn.gradcheck, name, counted)
    end_to_end_gradcheck(config, seed=seed)
    # the full neck runs once for every analytic gradient and twice per
    # pyramid pick; each branch runs once to route, once to fill the cache
    # and once per nudged copy of its picks, whose heads run as one _attend
    # per stack of picks; a cag.* pick re-runs _attend alone, twice
    stack = cefpn.gradcheck._STACK_PICKS
    stacks = sum(-(-picks[b] // stack) for b in BRANCH_OF.values())
    assert calls == {"cefpn_forward": 1 + 2 * picks["pyramid"], "pyramid_stage": 1, "head_stage": 1,
                     "_attend": 2 * picks["cag"] + stacks,
                     **{b: 2 + 2 * picks[b] for b in BRANCH_OF.values()}}


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("f5_p5", [False, True])
@pytest.mark.parametrize("scheme", ["a", "b", "c"])
def test_every_branch_route_sums_the_arrays_of_the_full_head(scheme, f5_p5, batch):
    config = desk(ssf_scheme=scheme, include_f5_p5=f5_p5)
    params = init_neck_params(config, 1)
    backbone = synthetic_backbone(16, 64, 64, batch, seed=2)
    pyramid = {i: Tensor(p.data) for i, p in pyramid_stage(backbone, params, config).items()}
    want = _level_sum(head_stage(backbone, pyramid, params, config)).item()
    loss_for = _head_losses(backbone, pyramid, params, config)
    for route in [(), (0,), (1,), (2,), (0, 1, 2)]:
        assert loss_for(route)().item() == want, route


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("f5_p5", [False, True])
@pytest.mark.parametrize("scheme", ["a", "b", "c"])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_head_differences_equal_one_pick_at_a_time(seed, scheme, f5_p5, batch,
                                                           monkeypatch):
    stacked = cefpn.gradcheck._stacked_head_differences
    checked = []

    def against_one_pick(losses, coords):
        assert all(leaf.grad is None for leaf, _idx in coords)  # released before the stacks
        got = stacked(losses, coords)
        want = np.array([central_difference(lambda: losses().item(), leaf, idx)
                         for leaf, idx in coords])
        assert got.tobytes() == want.tobytes()
        checked.append(len(coords))
        return got

    monkeypatch.setattr(cefpn.gradcheck, "_stacked_head_differences", against_one_pick)
    config = desk(ssf_scheme=scheme, include_f5_p5=f5_p5)
    end_to_end_gradcheck(config, batch=batch, seed=seed)
    layers = _picked_layers(config, seed)
    assert sum(checked) == np.isin(layers, list(BRANCH_OF)).sum() > 0


@pytest.mark.parametrize("batch", [1, 2])
def test_no_stacked_head_exceeds_its_stack(batch, monkeypatch):
    images = []
    real = cefpn.gradcheck._attend

    def counted(integration, *args):
        images.append(integration.shape[0])
        return real(integration, *args)

    monkeypatch.setattr(cefpn.gradcheck, "_attend", counted)
    end_to_end_gradcheck(desk(), batch=batch, seed=0)
    # a stack holds 2 nudged copies per pick, each of ``batch`` images; a
    # cag.* pick runs one copy at a time
    assert max(images) == 2 * cefpn.gradcheck._STACK_PICKS * batch
    assert all(n == batch or n % (2 * batch) == 0 for n in images)


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


@pytest.fixture(params=list(BRANCH_OF))
def detached_sce_conv(request, monkeypatch):
    """The SCE conv running under the module path ``request.param`` returns
    its output cut from the graph: its layer's analytic gradient is zero."""
    real = cefpn.neck.conv2d

    def conv2d(x, spec):
        out = real(x, spec)
        return Tensor(out.data) if cefpn.tensor._scope == request.param else out

    monkeypatch.setattr(cefpn.neck, "conv2d", conv2d)
    return request.param


def test_end_to_end_catches_a_detached_sce_conv(detached_sce_conv):
    # no branch graph reaches the layer, so its picks run through the full neck
    seeds = [seed for seed in range(4) if detached_sce_conv in _picked_layers(desk(), seed)]
    assert seeds
    for seed in seeds:
        assert end_to_end_gradcheck(desk(), seed=seed).max_rel_error > DEFAULT_THRESHOLD, seed


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
