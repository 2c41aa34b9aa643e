"""Convolution, pooling, interpolation, and linear layers against their
nested-loop reference implementations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cefpn import ConfigError, ConvSpec, LinearSpec, ShapeError, Tensor, backward, conv2d, \
    global_avg_pool, global_max_pool, interpolate_nearest, linear, max_pool2d, mul, sum_all
from cefpn import ops
from oracles import conv2d_grad_loops, conv2d_loops, global_avg_loops, global_max_loops, \
    interp_nearest_grad_loops, interp_nearest_loops, linear_loops, max_pool_grad_loops, \
    max_pool_loops

# (kernel, stride, padding) of every max pool the neck runs: P2 and P3 down to
# P4's extent, SCE's pooled pathway, and the stride-2 R5 subsample.
NECK_POOLS = ((4, 4, 0), (2, 2, 0), (3, 2, 1), (1, 2, 0))


def conv_spec(weight, bias=None):
    out_c, in_c, k, _ = weight.shape
    return ConvSpec(in_c, out_c, k, Tensor(weight),
                    Tensor(np.zeros(out_c) if bias is None else bias))


def identity_1x1(channels):
    w = np.zeros((channels, channels, 1, 1))
    for j in range(channels):
        w[j, j, 0, 0] = 1.0
    return conv_spec(w, np.zeros(channels))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)))
        out = conv2d(x, identity_1x1(3))
        assert np.array_equal(out.data, x.data)

    def test_zero_input_gives_bias(self):
        b = np.array([1.5, -2.0])
        spec = conv_spec(np.ones((2, 3, 3, 3)), b)
        out = conv2d(Tensor(np.zeros((1, 3, 5, 5))), spec)
        for j, bj in enumerate(b):
            assert np.all(out.data[:, j] == bj)

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(1234)
        x = rng.uniform(-1, 1, (1, 3, 5, 5))
        w = rng.uniform(-1, 1, (2, 3, 3, 3))
        b = rng.uniform(-1, 1, (2,))
        expect = conv2d_loops(x, w, b, stride=1, padding=1)
        # oracle anchors, frozen from the reference run
        assert expect.sum() == pytest.approx(15.559390076465071, abs=1e-12)
        assert expect[0, 1, 2, 3] == pytest.approx(-0.009559564894178085, abs=1e-15)
        got = conv2d(Tensor(x), conv_spec(w, b))
        np.testing.assert_allclose(got.data, expect, atol=1e-12)

    def test_channel_mismatch_names_both_counts(self):
        spec = conv_spec(np.ones((2, 3, 1, 1)))
        with pytest.raises(ConfigError, match="5.*3|3.*5"):
            conv2d(Tensor(np.zeros((1, 5, 4, 4))), spec)

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_spatial_extent(self, k):
        spec = conv_spec(np.ones((2, 3, k, k)))
        for shape in ((1, 3, 0, 4), (1, 3, 4, 0)):
            with pytest.raises(ShapeError, match="extents must be >= 1"):
                conv2d(Tensor(np.zeros(shape)), spec)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 5), (8, 8)])
    def test_tracer_extent_formula_holds(self, k, h, w):
        # perfbench's tracer reads stride and padding to size each conv's output
        spec = conv_spec(np.ones((2, 3, k, k)))
        assert [f.name for f in dataclasses.fields(ConvSpec)] == [
            "in_channels", "out_channels", "kernel", "weight", "bias"]
        assert ConvSpec.stride == spec.stride == 1
        assert spec.padding == (k - 1) // 2
        for name in ("stride", "padding"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 0)
        out = conv2d(Tensor(np.zeros((1, 3, h, w))), spec)
        assert out.shape[2:] == ((h + 2 * spec.padding - k) // spec.stride + 1,
                                 (w + 2 * spec.padding - k) // spec.stride + 1) == (h, w)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([1, 3]), st.integers(3, 6), st.integers(3, 6))
    def test_property_matches_loop_oracle(self, seed, n, cin, cout, k, h, w):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, cin, h, w))
        weight = rng.uniform(-1, 1, (cout, cin, k, k))
        bias = rng.uniform(-1, 1, (cout,))
        expect = conv2d_loops(x, weight, bias, 1, (k - 1) // 2)
        got = conv2d(Tensor(x), conv_spec(weight, bias))
        np.testing.assert_allclose(got.data, expect, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([1, 3]), st.integers(3, 6), st.integers(3, 6))
    def test_backward_matches_loop_oracle(self, seed, n, cin, cout, k, h, w):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, (n, cin, h, w)), requires_grad=True)
        weight = Tensor(rng.uniform(-1, 1, (cout, cin, k, k)), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, (cout,)), requires_grad=True)
        out = conv2d(x, ConvSpec(cin, cout, k, weight, bias))
        upstream = rng.uniform(-1, 1, out.shape)
        backward(sum_all(mul(out, Tensor(upstream))))
        gx, gw, gb = conv2d_grad_loops(x.data, weight.data, upstream, 1, (k - 1) // 2)
        np.testing.assert_allclose(x.grad, gx, atol=1e-12)
        np.testing.assert_allclose(weight.grad, gw, atol=1e-12)
        np.testing.assert_allclose(bias.grad, gb, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([1, 3]), st.integers(3, 6), st.integers(3, 6))
    def test_backward_skips_input_gradient_nobody_reads(self, seed, n, cin, cout, k, h, w):
        rng = np.random.default_rng(seed)
        xd = rng.uniform(-1, 1, (n, cin, h, w))
        wd = rng.uniform(-1, 1, (cout, cin, k, k))
        bd = rng.uniform(-1, 1, (cout,))
        upstream = rng.uniform(-1, 1, (n, cout, h, w))

        def run(x_requires_grad):
            x = Tensor(xd, requires_grad=x_requires_grad)
            weight, bias = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
            out = conv2d(x, ConvSpec(cin, cout, k, weight, bias))
            grad_fn = out._grad_fn  # backward consumes the graph
            backward(sum_all(mul(out, Tensor(upstream))))
            return x, weight, bias, grad_fn

        x, weight, bias, grad_fn = run(False)
        _, weight_ref, bias_ref, _ = run(True)
        assert x.grad is None
        assert grad_fn(upstream)[0] is None  # the input gradient is never formed
        assert np.array_equal(weight.grad, weight_ref.grad)
        assert np.array_equal(bias.grad, bias_ref.grad)
        _, gw, gb = conv2d_grad_loops(xd, wd, upstream, 1, (k - 1) // 2)
        np.testing.assert_allclose(weight.grad, gw, atol=1e-12)
        np.testing.assert_allclose(bias.grad, gb, atol=1e-12)


class TestConv3x3Shifted:
    """3x3 convs whose output channels are below n*h*w
    run as nine shifted GEMMs over the flat padded input, with no im2col."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 8),
           st.integers(1, 6), st.integers(1, 6), st.booleans(),
           st.sampled_from([np.float32, np.float64]))
    @example(0, 1, 2, 3, 1, 1, True, np.float64)  # 1x1 extent: o > n*h*w, im2col
    @example(1, 2, 2, 3, 1, 2, True, np.float64)  # 1x2 extent: o < n*h*w, shifted
    @example(2, 1, 3, 2, 2, 1, True, np.float32)  # o == n*h*w: im2col
    def test_matches_loop_oracle_and_skips_im2col(self, seed, n, cin, cout, h, w,
                                                  x_requires_grad, dtype):
        rng = np.random.default_rng(seed)
        xd = rng.uniform(-1, 1, (n, cin, h, w)).astype(dtype)
        wd = rng.uniform(-1, 1, (cout, cin, 3, 3)).astype(dtype)
        bd = rng.uniform(-1, 1, (cout,)).astype(dtype)
        upstream = rng.uniform(-1, 1, (n, cout, h, w)).astype(dtype)
        shifted = cout < n * h * w
        x = Tensor(xd, requires_grad=x_requires_grad)
        weight = Tensor(wd, requires_grad=True)
        bias = Tensor(bd, requires_grad=True)
        spec = ConvSpec(cin, cout, 3, weight, bias)

        gathers = []

        def gather(*args):
            if shifted:
                raise AssertionError("im2col ran for a shifted-GEMM conv")
            gathers.append(1)
            return real_gather(*args)

        real_gather = ops._gather_windows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_gather_windows", gather)
            out = conv2d(x, spec)
            grad_fn = out._grad_fn  # backward consumes the graph
            backward(sum_all(mul(out, Tensor(upstream))))
        assert len(gathers) == (0 if shifted else 1)

        # the oracles run in float64 on the same (possibly float32) values
        f64 = lambda a: a.astype(np.float64)
        expect = conv2d_loops(f64(xd), f64(wd), f64(bd), 1, 1)
        gx, gw, gb = conv2d_grad_loops(f64(xd), f64(wd), f64(upstream), 1, 1)
        atol = 1e-12 if dtype == np.float64 else 1e-5
        assert out.dtype == dtype
        np.testing.assert_allclose(out.data, expect, atol=atol)
        np.testing.assert_allclose(weight.grad, gw, atol=atol)
        np.testing.assert_allclose(bias.grad, gb, atol=atol)
        if x_requires_grad:
            np.testing.assert_allclose(x.grad, gx, atol=atol)
        else:
            assert x.grad is None
            assert grad_fn(upstream)[0] is None

    def test_graph_keeps_the_padded_input_not_cols(self):
        # P2-like layer: the 9x cols would be 9 MiB, the padded input ~1.06 MiB
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (1, 32, 64, 64)), requires_grad=True)
        spec = ConvSpec.seeded(rng, 32, 32, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, spec)
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out._grad_fn is not None
        assert retained <= 1.25 * (32 * 66 * 66 * 8)


class TestConvBatchIndependence:
    """A conv over n stacked images equals n one-image calls bit for bit: the
    shifted path's per-image tap sums and the float32 bench check rely on it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cin, cout, k, size", [
        (8, 16, 3, 8),       # shifted: o < h*w
        (128, 128, 3, 32),   # shifted, at P3's reference extent
        (8, 64, 3, 4),       # im2col: o >= n*h*w
        (16, 8, 1, 8),       # 1x1
    ])
    def test_stacked_equals_one_image_calls(self, cin, cout, k, size, n, dtype):
        rng = np.random.default_rng(cin + cout + n)
        x = rng.uniform(-1, 1, (n, cin, size, size)).astype(dtype)
        spec = ConvSpec(cin, cout, k, Tensor(rng.uniform(-1, 1, (cout, cin, k, k)).astype(dtype)),
                        Tensor(rng.uniform(-1, 1, (cout,)).astype(dtype)))
        stacked = conv2d(Tensor(x), spec).data
        for i in range(n):
            assert np.array_equal(stacked[i], conv2d(Tensor(x[i:i + 1]), spec).data[0]), i


class TestMaxPool:
    def test_constant_field(self):
        out = max_pool2d(Tensor(np.full((1, 2, 4, 4), 3.25)), 2, 2)
        assert np.all(out.data == 3.25)

    def test_single_window(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert max_pool2d(x, 2, 2).data.tolist() == [[[[4.0]]]]

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(4321)
        x = rng.uniform(-1, 1, (1, 2, 6, 6))
        expect = max_pool_loops(x, 3, 2, 1)
        assert expect.sum() == pytest.approx(12.68022919623654, abs=1e-12)
        got = max_pool2d(Tensor(x), 3, 2, 1)
        assert np.array_equal(got.data, expect)

    def test_padding_never_selected(self):
        x = Tensor(np.full((1, 1, 2, 2), -5.0))
        out = max_pool2d(x, 3, 2, 1)
        assert np.all(out.data == -5.0)

    def test_window_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 5, 1, 1)

    @pytest.mark.parametrize("kernel, stride, padding", [
        (2.0, 2, 0), (3, 2.0, 1), (3, 2, 1.0), (True, 2, 0), (3, True, 1), (3, 2, True),
        (3, 2, -1), (3, 1, 3), (1, 2, 1), (2, 2, 5)])
    def test_rejects_arguments_it_cannot_honour(self, kernel, stride, padding):
        # non-integers, negative padding, and padding >= kernel, where some
        # window would lie wholly in the padding
        with pytest.raises(ConfigError):
            max_pool2d(Tensor(np.zeros((1, 1, 6, 6))), kernel, stride, padding)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 3), st.integers(0, 1),
           st.integers(4, 7), st.integers(4, 7), st.booleans(),
           st.sampled_from([np.float32, np.float64]))
    def test_property_matches_loop_oracle(self, seed, n, c, kernel, stride, padding, h, w,
                                          requires_grad, dtype):
        if padding >= kernel or h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, c, h, w)).astype(dtype)
        got = max_pool2d(Tensor(x, requires_grad=requires_grad), kernel, stride, padding)
        assert np.array_equal(got.data, max_pool_loops(x, kernel, stride, padding))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
           st.one_of(st.sampled_from(NECK_POOLS),
                     st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, 1))),
           st.integers(4, 8), st.integers(4, 8))
    @example(0, 2, 2, NECK_POOLS[0], 8, 8)
    @example(1, 2, 2, NECK_POOLS[1], 8, 8)
    @example(2, 2, 2, NECK_POOLS[2], 8, 8)
    @example(3, 2, 2, NECK_POOLS[3], 8, 8)
    def test_backward_routes_ties_like_loop_oracle(self, seed, n, c, pool, h, w):
        # values from {-2, ..., 2} make most windows hold tied maxima
        kernel, stride, padding = pool
        if padding >= kernel or h + 2 * padding < kernel or w + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        x = Tensor(rng.integers(-2, 3, (n, c, h, w)).astype(np.float64), requires_grad=True)
        out = max_pool2d(x, kernel, stride, padding)
        upstream = rng.integers(1, 5, out.shape).astype(np.float64)
        backward(sum_all(mul(out, Tensor(upstream))))
        want = max_pool_grad_loops(x.data, upstream, kernel, stride, padding)
        assert np.array_equal(x.grad, want)


class TestGlobalPools:
    def test_avg_constant(self):
        assert np.all(global_avg_pool(Tensor(np.full((1, 3, 4, 4), 7.0))).data == 7.0)

    def test_avg_mean_of_four(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert global_avg_pool(x).item() == 2.5

    def test_avg_matches_summation_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (2, 3, 5, 7))
        got = global_avg_pool(Tensor(x))
        np.testing.assert_allclose(got.data, global_avg_loops(x), rtol=1e-14)

    def test_max_constant(self):
        assert np.all(global_max_pool(Tensor(np.full((1, 3, 4, 4), 7.0))).data == 7.0)

    def test_max_of_four(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert global_max_pool(x).item() == 4.0

    def test_max_matches_scan_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (2, 3, 5, 7))
        assert np.array_equal(global_max_pool(Tensor(x)).data, global_max_loops(x))

    def test_empty_spatial_extent_rejected(self):
        with pytest.raises(ShapeError):
            global_avg_pool(Tensor(np.zeros((1, 2, 0, 3))))
        with pytest.raises(ShapeError):
            global_max_pool(Tensor(np.zeros((1, 2, 0, 3))))


class TestInterpolate:
    def test_scale_one_is_identity(self):
        x = Tensor(np.random.default_rng(9).uniform(-1, 1, (1, 2, 3, 3)))
        assert np.array_equal(interpolate_nearest(x, 1).data, x.data)

    def test_constant_replication(self):
        out = interpolate_nearest(Tensor(np.full((1, 1, 1, 1), 5.0)), 2)
        assert out.shape == (1, 1, 2, 2) and np.all(out.data == 5.0)

    def test_matches_floor_index_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (1, 2, 3, 3))
        assert np.array_equal(interpolate_nearest(Tensor(x), 2).data,
                              interp_nearest_loops(x, 2))

    def test_scale_zero_rejected(self):
        with pytest.raises(ConfigError):
            interpolate_nearest(Tensor(np.zeros((1, 1, 2, 2))), 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 3))
    def test_property_matches_floor_index_oracle(self, seed, c, h, w, s):
        x = np.random.default_rng(seed).uniform(-1, 1, (1, c, h, w))
        assert np.array_equal(interpolate_nearest(Tensor(x), s).data,
                              interp_nearest_loops(x, s))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 2, 3]))
    def test_backward_matches_block_sum_oracle(self, seed, n, c, h, w, s):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, (n, c, h, w)), requires_grad=True)
        out = interpolate_nearest(x, s)
        upstream = rng.uniform(-1, 1, out.shape)
        backward(sum_all(mul(out, Tensor(upstream))))
        np.testing.assert_allclose(x.grad, interp_nearest_grad_loops(upstream, s), atol=1e-12)


class TestLinear:
    def test_identity_weights(self):
        spec = LinearSpec(3, 3, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        x = Tensor(np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(linear(x, spec).data, x.data)

    def test_zero_input_gives_bias(self):
        b = np.array([0.5, -0.5])
        spec = LinearSpec(3, 2, Tensor(np.zeros((2, 3))), Tensor(b))
        assert np.array_equal(linear(Tensor(np.zeros((1, 3))), spec).data, [b])

    def test_random_case_matches_dot_oracle(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(-1, 1, (4, 6))
        b = rng.uniform(-1, 1, (4,))
        x = rng.uniform(-1, 1, (1, 6))
        spec = LinearSpec(6, 4, Tensor(w), Tensor(b))
        np.testing.assert_allclose(linear(Tensor(x), spec).data,
                                   linear_loops(x, w, b), atol=1e-12)

    def test_batch_rows_match_dot_oracle(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(-1, 1, (3, 5))
        b = rng.uniform(-1, 1, (3,))
        x = rng.uniform(-1, 1, (4, 5))
        spec = LinearSpec(5, 3, Tensor(w), Tensor(b))
        np.testing.assert_allclose(linear(Tensor(x), spec).data,
                                   linear_loops(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("shape, error", [((1, 4), ConfigError), ((3,), ShapeError)])
    def test_length_mismatch(self, shape, error):
        spec = LinearSpec(3, 2, Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(error):
            linear(Tensor(np.zeros(shape)), spec)
