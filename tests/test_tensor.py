"""Tensor value semantics, layout contract, and the elementwise ops."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cefpn import ContractError, GradTape, NeckConfig, ShapeError, Tensor, add, backward, \
    broadcast_spatial, cefpn_forward, channel_slice, init_neck_params, mul, mul_channelwise, \
    relu, scale, sigmoid, squeeze_spatial, sum_all, synthetic_backbone
from cefpn.tensor import _freeze, _topo_order


def rand(shape, seed=0, requires_grad=False):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestLayout:
    def test_flat_index_round_trip(self):
        n, c, h, w = 2, 3, 4, 5
        buf = np.arange(n * c * h * w, dtype=np.float64)
        t = Tensor(buf.reshape(n, c, h, w))
        assert t.data.size == n * c * h * w
        for i, j, y, x in [(0, 0, 0, 0), (1, 2, 3, 4), (0, 1, 2, 3), (1, 0, 3, 1)]:
            flat = ((i * c + j) * h + y) * w + x
            assert t.data[i, j, y, x] == buf[flat]

    def test_buffer_is_contiguous_and_frozen(self):
        t = rand((1, 2, 3, 3))
        assert t.data.flags.c_contiguous
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0

    def test_freeze_copies_a_noncontiguous_view(self):
        base = np.arange(24.0).reshape(4, 6)
        view = base[:, ::2]
        frozen = _freeze(view)
        assert frozen.flags.c_contiguous and not frozen.flags.writeable
        assert np.array_equal(frozen, view) and not np.shares_memory(frozen, base)
        assert base.flags.writeable
        fresh = np.ones((2, 3))
        assert _freeze(fresh) is fresh and not fresh.flags.writeable
        assert _freeze(np.asarray(2.5)).shape == (1,)

    def test_constructor_copies_input(self):
        src = np.zeros((1, 1, 2, 2))
        t = Tensor(src)
        src[0, 0, 0, 0] = 99.0
        assert t.data[0, 0, 0, 0] == 0.0

    def test_float32_option(self):
        t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
        assert t.dtype == np.float32


class TestElementwise:
    def test_add_inverse_is_zero(self):
        a = rand((1, 2, 3, 3), seed=1)
        neg = Tensor(-a.data)
        assert np.array_equal(add(a, neg).data, np.zeros_like(a.data))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(rand((1, 2, 3, 3)), rand((1, 2, 3, 4)))

    def test_sigmoid_at_zero(self):
        z = Tensor(np.zeros((1, 2, 2, 2)))
        assert np.all(sigmoid(z).data == 0.5)

    def test_sigmoid_extremes_are_finite(self):
        t = Tensor(np.array([[-1e4, 1e4]]))
        out = sigmoid(t).data
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_relu_clamps(self):
        t = Tensor(np.array([[[[-1.0, 2.0], [0.0, -3.0]]]]))
        assert np.array_equal(relu(t).data, [[[[0.0, 2.0], [0.0, 0.0]]]])

    def test_mul_channelwise_ones_is_identity(self):
        x = rand((2, 3, 4, 4), seed=2)
        out = mul_channelwise(x, Tensor(np.ones((2, 3))))
        assert np.array_equal(out.data, x.data)

    def test_mul_channelwise_scales_whole_channel(self):
        x = Tensor(np.ones((1, 2, 2, 2)))
        out = mul_channelwise(x, Tensor(np.array([[2.0, 5.0]])))
        assert np.all(out.data[0, 0] == 2.0) and np.all(out.data[0, 1] == 5.0)

    def test_mul_channelwise_per_sample_weights(self):
        x = Tensor(np.ones((2, 2, 1, 1)))
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = mul_channelwise(x, w)
        assert out.data.reshape(2, 2).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("shape", [(1, 4), (2, 3), (3,)])
    def test_mul_channelwise_length_mismatch(self, shape):
        with pytest.raises(ShapeError, match=r"\(n, c\)"):
            mul_channelwise(rand((1, 3, 2, 2)), Tensor(np.ones(shape)))

    def test_channel_slice_values(self):
        x = rand((1, 6, 2, 2), seed=3)
        out = channel_slice(x, 2, 5)
        assert np.array_equal(out.data, x.data[:, 2:5])

    def test_channel_slice_bad_range(self):
        with pytest.raises(ShapeError):
            channel_slice(rand((1, 4, 2, 2)), 2, 6)

    def test_broadcast_and_squeeze(self):
        x = rand((2, 3, 1, 1), seed=4)
        wide = broadcast_spatial(x, 4, 5)
        assert wide.shape == (2, 3, 4, 5)
        assert np.all(wide.data == x.data)
        assert squeeze_spatial(x).shape == (2, 3)

    def test_scale_and_sum(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.0))
        assert scale(x, 0.5).data.tolist() == [[[[1.5, 1.5], [1.5, 1.5]]]]
        assert sum_all(x).item() == 12.0


class TestPurityAndTape:
    def test_ops_are_pure(self):
        x = rand((1, 3, 4, 4), seed=5)
        first = sigmoid(mul(x, x)).data
        second = sigmoid(mul(x, x)).data
        assert np.array_equal(first, second)

    def test_inputs_never_mutated(self):
        x = rand((1, 2, 3, 3), seed=6)
        before = x.data.copy()
        _ = relu(add(scale(x, 2.0), x))
        assert np.array_equal(x.data, before)

    def test_tape_lists_leaves(self):
        a = rand((1, 1, 2, 2), seed=8, requires_grad=True)
        b = rand((1, 1, 2, 2), seed=9)
        tape = GradTape(add(a, b))
        leaf_ids = {id(t) for t in tape.leaves()}
        assert id(a) in leaf_ids and id(b) in leaf_ids

    def test_no_graph_when_no_input_requires_grad(self):
        a = rand((1, 1, 2, 2), seed=8, requires_grad=True)
        b = rand((1, 1, 2, 2), seed=9)
        free = relu(mul(b, b))
        assert not free.requires_grad
        assert free._parents == () and free._grad_fn is None
        kept = add(a, free)
        assert kept.requires_grad and kept._parents == (a, free)
        assert {id(t) for t in GradTape(kept).leaves()} == {id(a), id(free)}

    @settings(max_examples=25)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_identical_inputs_identical_outputs(self, seed):
        x = rand((1, 2, 3, 3), seed=seed)
        y = rand((1, 2, 3, 3), seed=seed)
        assert np.array_equal(sigmoid(scale(x, 1.7)).data, sigmoid(scale(y, 1.7)).data)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = rand((1, 2, 3, 3), seed=10, requires_grad=True)
        backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones_like(x.data))

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        backward(sum_all(sigmoid(x)))
        assert np.allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        from cefpn import ContractError
        x = rand((1, 1, 2, 2), requires_grad=True)
        with pytest.raises(ContractError):
            backward(add(x, x))

    def test_fanout_accumulates(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        backward(sum_all(add(x, x)))
        assert x.grad.item() == 2.0

    def test_grads_overwritten_between_calls(self):
        x = rand((1, 1, 2, 2), seed=11, requires_grad=True)
        backward(sum_all(x))
        backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones_like(x.data))

    def test_stored_gradients_are_read_only(self):
        a = rand((1, 1, 2, 2), seed=14, requires_grad=True)
        b = rand((1, 1, 2, 2), seed=15, requires_grad=True)
        backward(sum_all(add(a, b)))
        for t in (a, b):
            assert np.array_equal(t.grad, np.ones_like(t.data))
            with pytest.raises(ValueError):
                t.grad[0, 0, 0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.ones((1, 2, 3, 4)), np.ones((1, 2, 3, 3), np.float32)])
    def test_gradient_of_wrong_shape_or_dtype_names_the_op(self, monkeypatch, bad):
        from cefpn import ContractError
        x = rand((1, 2, 3, 3), seed=16, requires_grad=True)
        hidden = relu(x)
        loss = sum_all(hidden)
        monkeypatch.setattr(hidden, "_grad_fn", lambda g: (bad,))
        with pytest.raises(ContractError, match="relu"):
            backward(loss)

    def test_loss_that_requires_no_grad_rejected(self):
        from cefpn import ContractError
        x = rand((1, 1, 2, 2), seed=12)
        with pytest.raises(ContractError, match="does not require grad"):
            backward(sum_all(sigmoid(x)))
        assert x.grad is None


def desk_loss(scheme="c", include_f5_p5=True, seed=4):
    """A desk-scale neck step's loss (the sum of every output level) and its
    parameters."""
    config = NeckConfig(base_channel=16, ssf_scheme=scheme, attention_reduction=4,
                        include_f5_p5=include_f5_p5)
    params = init_neck_params(config, seed)
    out = cefpn_forward(synthetic_backbone(16, 64, 64, seed=seed + 1), params, config)
    loss = sum_all(out.r2)
    for t in (out.r3, out.r4, out.r5):
        loss = add(loss, sum_all(t))
    return loss, params


def keep_graph_backward(loss):
    """The accumulation loop of ``backward`` from before it consumed its
    graph: every node keeps its closure, parents and gradient."""
    nodes = _topo_order(loss)
    for node in nodes:
        node.grad = None
    loss.grad = _freeze(np.ones_like(loss.data))
    for node in reversed(nodes):
        if node._grad_fn is None or node.grad is None:
            continue
        if not node.requires_grad:
            continue
        parent_grads = node._grad_fn(node.grad)
        for parent, g in zip(node._parents, parent_grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is not None:
                g = parent.grad + g
            g.flags.writeable = False
            parent.grad = g


class TestBackwardConsumesGraph:
    def test_grad_kept_on_leaves_only(self):
        loss, params = desk_loss()
        tape = GradTape(loss)
        leaves = {id(t) for t in tape.leaves()}
        assert len(leaves) < len(tape.nodes)
        backward(loss)
        assert GradTape(loss).nodes == [loss]
        assert {id(t) for t in tape.leaves()} == leaves
        for node in tape.nodes:
            if id(node) in leaves:
                assert (node.grad is not None) == node.requires_grad, node._op
            else:
                assert node.grad is None and node._parents == (), node._op
        for name, t in params.named_parameters():
            assert t.grad is not None and t.grad.shape == t.shape, name

    def test_second_backward_names_the_consumed_op(self):
        x = rand((1, 2, 3, 3), seed=20, requires_grad=True)
        out = relu(x)
        loss = sum_all(out)
        backward(loss)
        first = x.grad
        with pytest.raises(ContractError, match="sum_all"):
            backward(loss)
        with pytest.raises(ContractError, match="relu"):
            backward(sum_all(out))
        with pytest.raises(ContractError, match="relu"):
            backward(add(sum_all(x), sum_all(out)))
        assert x.grad is first  # a refused backward changes no gradient

    def test_intermediate_freed_by_refcount(self):
        x = rand((1, 2, 3, 3), seed=21, requires_grad=True)
        mid = relu(x)
        alive = weakref.ref(mid)
        loss = sum_all(mid)
        del mid
        assert alive() is not None  # only the graph holds it
        backward(loss)
        assert alive() is None
        assert np.array_equal(x.grad, (x.data > 0).astype(x.dtype))

    @pytest.mark.parametrize("include_f5_p5", [False, True])
    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_gradients_byte_identical_to_keep_graph_loop(self, scheme, include_f5_p5):
        loss, params = desk_loss(scheme, include_f5_p5)
        keep_graph_backward(loss)
        want = {name: t.grad for name, t in params.named_parameters()}
        loss, params = desk_loss(scheme, include_f5_p5)
        backward(loss)
        for name, t in params.named_parameters():
            assert t.grad.dtype == want[name].dtype, name
            assert t.grad.tobytes() == want[name].tobytes(), name
