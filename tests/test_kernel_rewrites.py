"""Each rewritten kernel against the formula it replaced, bit for bit.

The oracles below are the earlier numpy formulations of ``sigmoid``,
``global_avg_pool``, ``sum_all``, im2col's ``_gather_windows`` and
``max_pool2d``. The rewrites make fewer numpy calls and must give the same
bytes, non-finite inputs included; the one documented difference, where a
window holding NaN routes its max-pool gradient, is pinned separately.
"""

import numpy as np
import pytest

from cefpn import Tensor, global_avg_pool, max_pool2d, sigmoid, sum_all
from cefpn import ops

DTYPES = (np.float32, np.float64)
SPECIALS = (0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, np.inf, -np.inf, np.nan, -np.nan,
            1.0, -1.0)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def sigmoid_masked(d: np.ndarray) -> np.ndarray:
    """Boolean-mask sigmoid: 1/(1+exp(-d)) on d >= 0, exp(d)/(1+exp(d)) elsewhere."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def gather_windows_slices(x: np.ndarray) -> np.ndarray:
    """im2col windows as nine slice copies of the zero-padded input."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    padded[:, :, 1:h + 1, 1:w + 1] = x
    cols = np.empty((n, c, 3, 3, h, w), dtype=x.dtype)
    for ky in range(3):
        for kx in range(3):
            cols[:, :, ky, kx] = padded[:, :, ky:ky + h, kx:kx + w]
    return cols


def max_pool_taps(x: np.ndarray, kernel: int, stride: int, padding: int):
    """Running maximum over the k^2 taps in row-major order, and the flat tap
    (ky*kernel + kx) that strict ``>`` keeps for each window."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    padded = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x
    taps = [padded[:, :, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
            for ky in range(kernel) for kx in range(kernel)]
    out = taps[0].copy()
    idx = np.zeros(out.shape, dtype=np.intp)
    for t, tap in enumerate(taps[1:], start=1):
        np.copyto(idx, t, where=tap > out)
        np.maximum(out, tap, out=out)
    return out, idx


def routed_gradient(x: np.ndarray, idx: np.ndarray, g: np.ndarray, kernel: int, stride: int,
                    padding: int) -> np.ndarray:
    """Scatter ``g`` onto ``x``'s grid at the taps ``idx`` names."""
    n, c, h, w = x.shape
    gpad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
    ni, ci, oy, ox = np.indices(idx.shape)
    np.add.at(gpad, (ni, ci, idx // kernel + oy * stride, idx % kernel + ox * stride), g)
    return gpad[:, :, padding:padding + h, padding:padding + w]


def pool_gradient(x: np.ndarray, g: np.ndarray, kernel: int, stride: int, padding: int):
    """``max_pool2d``'s output and its backward for upstream ``g``."""
    out = max_pool2d(Tensor(x, requires_grad=True), kernel, stride, padding)
    (gx,) = out._grad_fn(g)
    return out.data, gx


class TestSigmoid:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_special_values_match_masked_formula(self, dtype):
        d = np.array(SPECIALS, dtype=dtype)
        got = sigmoid(Tensor(d)).data
        assert same_bits(got, sigmoid_masked(d))
        assert np.isnan(got[8]) and got[6] == 1.0 and got[7] == 0.0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_values_match_masked_formula(self, dtype):
        d = (np.random.default_rng(5).standard_normal((2, 3, 7, 9)) * 40).astype(dtype)
        assert same_bits(sigmoid(Tensor(d)).data, sigmoid_masked(d))


class TestGlobalAvgPool:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(1, 4, 1, 1), (1, 16, 2, 2), (2, 8, 3, 5), (2, 3, 16, 16)])
    def test_matches_np_mean(self, dtype, shape):
        x = np.random.default_rng(6).uniform(-3, 3, shape).astype(dtype)
        got = global_avg_pool(Tensor(x)).data
        assert same_bits(got, x.mean(axis=(2, 3), keepdims=True))


class TestSumAll:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(1,), (3, 5), (2, 4, 6, 6)])
    def test_matches_lifted_scalar_sum(self, dtype, shape):
        x = np.random.default_rng(7).uniform(-1, 1, shape).astype(dtype)
        want = np.ascontiguousarray(np.asarray(x.sum()))  # the rank-0 sum, lifted to (1,)
        assert same_bits(sum_all(Tensor(x)).data, want)


class TestGatherWindows:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (3, 5)])
    def test_matches_nine_slice_copies(self, n, dtype, hw):
        x = np.random.default_rng(8).uniform(-1, 1, (n, 3) + hw).astype(dtype)
        got = ops._gather_windows(x)
        assert got.flags.c_contiguous and got.flags.writeable
        assert same_bits(got, gather_windows_slices(x))


# every pool the neck runs, plus overlapping and padded windows of other sizes
POOLS = ((4, 4, 0), (2, 2, 0), (3, 2, 1), (1, 2, 0), (3, 1, 1), (2, 1, 0), (4, 3, 2))


class TestMaxPoolScan:
    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_values_and_routes_match_tap_scan_with_infinities(self, pool, dtype):
        kernel, stride, padding = pool
        rng = np.random.default_rng(10)
        # few distinct values, so windows hold tied maxima, tied +inf and all -inf
        x = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf], (2, 3, 9, 8),
                       p=[0.3, 0.2, 0.2, 0.2, 0.1]).astype(dtype)
        x[0, 0] = -np.inf
        want, idx = max_pool_taps(x, kernel, stride, padding)
        g = rng.integers(1, 5, want.shape).astype(dtype)
        got, gx = pool_gradient(x, g, kernel, stride, padding)
        assert same_bits(got, want)
        assert same_bits(gx, routed_gradient(x, idx, g, kernel, stride, padding))

    @pytest.mark.parametrize("pool", POOLS)
    def test_values_match_tap_scan_without_grad(self, pool):
        x = np.random.default_rng(11).uniform(-1, 1, (1, 4, 10, 10))
        assert same_bits(max_pool2d(Tensor(x), *pool).data, max_pool_taps(x, *pool)[0])

    def test_nan_window_outputs_nan_and_routes_by_rows(self):
        # Rows [1, 2] and [3, nan]: the row maxima are 2 and nan, and nan > 2
        # is false, so the gradient goes to the 2. A one-pass scan of the four
        # taps keeps the 3, the last value it compares before the nan.
        x = np.array([[[[1.0, 2.0], [3.0, np.nan]]]])
        got, gx = pool_gradient(x, np.ones((1, 1, 1, 1)), 2, 2, 0)
        assert np.isnan(got).all()
        assert gx.tolist() == [[[[0.0, 1.0], [0.0, 0.0]]]]
        assert max_pool_taps(x, 2, 2, 0)[1].tolist() == [[[[2]]]]
