"""Analytic gradients against central finite differences, op by op."""

import numpy as np
import pytest

from cefpn import ConfigError, Tensor, ops
from cefpn.gradcheck import DEFAULT_THRESHOLD, check_loss_gradients, linear_only_error, \
    op_gradient_suite
from cefpn.tensor import add, mul, relu, sum_all

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
    assert linear_only_error(seed=0) < 1e-8


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

    rng = np.random.default_rng(0)
    assert check_loss_gradients(loss_fn, [x, w], samples=5, rng=rng) < DEFAULT_THRESHOLD
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
