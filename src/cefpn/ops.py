"""Convolution, pooling, interpolation, and fully connected layers.

Every convolution is stride 1 with "same" zero padding, so it keeps its
input's extent; kernels are 1x1 or 3x3, and every layer carries a bias.
Max pooling maps an extent e to (e + 2*padding - kernel) // stride + 1.
Every padded input is one ``np.zeros`` buffer, or ``np.full(-inf)`` for
max pooling, with the input written into its interior.
A 3x3 convolution whose output channels are below n*h*w (so its tap-major
weight copy is smaller than im2col's ``cols``) runs as nine shifted GEMMs
over the flat padded input, with no im2col copy (see ``_conv3x3_shifted``).
Every other convolution is one weight-major GEMM per direction: forward
``W @ cols``, weight gradient ``g @ cols^T`` summed over the batch, input
gradient ``W^T @ g``, folded back by col2im (9 shifted adds) for a 3x3.
Either way the input gradient is computed only when the input requires a
gradient. im2col copies its (n, c, 3, 3, h, w) windows once, from a strided
view of the padded input.
Max pooling is a separable running maximum, over each padded row's column
taps and then over those row maxima, so a k x k window costs 2(k-1) maxima,
not k^2-1. Backward passes route max-pool gradients to the first maximal
element in row-major window scan order on exact ties; in a window that holds
NaN the output is NaN and the routed element is the separable scan's.
"""

from __future__ import annotations

import copy
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, _check_4d, _check_choice, _check_int
from .tensor import Tensor, _record, _wrap

NEG_INF = -np.inf
# Uniform draws go through float64 scratch buffers of at most this many
# elements. Chunks consume the generator's stream exactly as one whole draw
# does, so the values are the same at any chunk size. A draw is split across
# threads only at chunk boundaries (see ``_draw_uniform``).
_DRAW_CHUNK = 1 << 16
# The shifted 3x3 conv's tap products hold at most this many elements, or
# one image's when that is more (see ``_conv3x3_shifted``).
_TAP_BLOCK = 1 << 16


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_uniform(rng: np.random.Generator, low: float, high: float, flat: np.ndarray) -> None:
    """Fill ``flat`` from ``rng``'s stream in ``_DRAW_CHUNK``-sized draws."""
    for start in range(0, flat.size, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, flat.size)
        flat[start:stop] = rng.uniform(low, high, stop - start)


def _draw_uniform(rng: np.random.Generator, low: float, high: float,
                  shape: tuple[int, ...], dtype) -> np.ndarray:
    """``rng.uniform(low, high, shape).astype(dtype)``, bit for bit, drawn in
    chunks straight into a fresh buffer of the final dtype.

    The buffer is split into one contiguous, chunk-aligned part per usable
    core. The calling thread fills the first part from ``rng`` itself; each
    other part is filled on its own thread from a copy of ``rng``'s PCG64
    advanced to the part's offset, since ``uniform`` takes exactly one 64-bit
    step per value. Every value is therefore the one a sequential draw gives,
    and ``rng`` is left where that draw leaves it, buffered 32-bit half
    included. Other bit generators, one core or one chunk give one part.
    """
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    bits = rng.bit_generator
    chunks = max(1, -(-flat.size // _DRAW_CHUNK))
    parts = min(_usable_cores(), chunks) if type(bits) is np.random.PCG64 else 1
    bounds = [k * chunks // parts * _DRAW_CHUNK for k in range(parts)] + [flat.size]
    copies = [copy.copy(bits).advance(lo) for lo in bounds[1:-1]]
    errors = []

    def fill(part: np.random.PCG64, lo: int, hi: int) -> None:
        try:
            _fill_uniform(np.random.Generator(part), low, high, flat[lo:hi])
        except BaseException as e:  # raised again in the caller
            errors.append(e)

    started = []
    try:
        for part, lo, hi in zip(copies, bounds[1:], bounds[2:]):
            t = threading.Thread(target=fill, args=(part, lo, hi))
            t.start()
            started.append(t)
        _fill_uniform(rng, low, high, flat[:bounds[1]])
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]
    if copies:  # the last copy ends where a sequential draw does; advance reset the half
        end, half = copies[-1].state, bits.state
        end["has_uint32"], end["uinteger"] = half["has_uint32"], half["uinteger"]
        bits.state = end
    return out


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype,
                 requires_grad: bool = True) -> Tensor:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) parameter tensor."""
    bound = 1.0 / np.sqrt(fan_in)
    return _wrap(_draw_uniform(rng, -bound, bound, shape, dtype), requires_grad)


@dataclass(frozen=True)
class ConvSpec:
    """A stride-1 "same" 2-d convolution layer: weights (out, in, k, k) plus bias.

    ``stride`` and ``padding`` are derived, read-only values.
    """

    in_channels: int
    out_channels: int
    kernel: int
    weight: Tensor
    bias: Tensor

    stride = 1

    def __post_init__(self):
        _check_int("conv in_channels", self.in_channels, 1)
        _check_int("conv out_channels", self.out_channels, 1)
        _check_choice("conv kernel", self.kernel, (1, 3))
        expect = (self.out_channels, self.in_channels, self.kernel, self.kernel)
        if self.weight.shape != expect:
            raise ConfigError(f"conv weight shape {self.weight.shape} != {expect}")
        if self.bias.shape != (self.out_channels,):
            raise ConfigError("conv bias must be a vector of length out_channels")

    @property
    def padding(self) -> int:
        return (self.kernel - 1) // 2

    @classmethod
    def seeded(cls, rng: np.random.Generator, in_channels: int, out_channels: int,
               kernel: int) -> "ConvSpec":
        """A float64 layer that requires grad, drawn from ``rng``."""
        draw = lambda shape, fan_in: uniform_init(rng, shape, fan_in, np.float64)
        return cls._made(draw, in_channels, out_channels, kernel)

    @classmethod
    def _made(cls, make, in_channels: int, out_channels: int, kernel: int) -> "ConvSpec":
        """The layer with its weight, then its bias, from ``make(shape, fan_in)``."""
        fan_in = in_channels * kernel * kernel
        weight = make((out_channels, in_channels, kernel, kernel), fan_in)
        return cls(in_channels, out_channels, kernel, weight, make((out_channels,), fan_in))


@dataclass(frozen=True)
class LinearSpec:
    """A fully connected layer: weights (out, in) plus bias."""

    in_features: int
    out_features: int
    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        _check_int("linear in_features", self.in_features, 1)
        _check_int("linear out_features", self.out_features, 1)
        if self.weight.shape != (self.out_features, self.in_features):
            raise ConfigError(
                f"linear weight shape {self.weight.shape} != {(self.out_features, self.in_features)}")
        if self.bias.shape != (self.out_features,):
            raise ConfigError("linear bias must be a vector of length out_features")

    @classmethod
    def seeded(cls, rng: np.random.Generator, in_features: int, out_features: int) -> "LinearSpec":
        """A float64 layer that requires grad, drawn from ``rng``."""
        draw = lambda shape, fan_in: uniform_init(rng, shape, fan_in, np.float64)
        return cls._made(draw, in_features, out_features)

    @classmethod
    def _made(cls, make, in_features: int, out_features: int) -> "LinearSpec":
        """The layer with its weight, then its bias, from ``make(shape, fan_in)``."""
        weight = make((out_features, in_features), in_features)
        return cls(in_features, out_features, weight, make((out_features,), in_features))


def _gather_windows(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) input -> (n, c, 3, 3, h, w) stack of its zero-padded 3x3
    windows, copied once from a strided view of the padded input whose tap
    axes (ky, kx) step by one row and one column, like (y, x) do. The view
    is built with the ``ndarray`` constructor, which checks that it fits in
    ``padded``, rather than ``as_strided``, whose Python wrapper costs more
    than the copy at desk scale."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    padded[:, :, 1:h + 1, 1:w + 1] = x
    sn, sc, sy, sx = padded.strides
    return np.ndarray((n, c, 3, 3, h, w), x.dtype, padded, 0,
                      (sn, sc, sy, sx, sy, sx)).copy()


def conv2d(x: Tensor, spec: ConvSpec) -> Tensor:
    """Stride-1 "same" 2-d convolution of an (n, c, h, w) tensor.

    A 3x3 kernel with fewer output channels than n*h*w runs as nine shifted
    GEMMs (``_conv3x3_shifted``). Otherwise the forward is one weight-major
    GEMM on the im2col layout: ``W.reshape(o, c*k*k) @ cols`` with cols of
    shape (n, c*k*k, h*w). A 1x1 kernel uses the input itself as cols. A
    batch-0 cost trace (n*h*w = 0) never takes the shifted path, whose
    tap-major copy would allocate the trace's zero-stride placeholder weight.
    """
    _check_4d("conv2d: input", x)
    n, c, h, w = x.data.shape
    if c != spec.in_channels:
        raise ConfigError(
            f"conv2d: input has {c} channels but the layer expects {spec.in_channels}")
    if h < 1 or w < 1:
        raise ShapeError(f"conv2d: spatial extents must be >= 1, got {h}x{w}")

    k, o = spec.kernel, spec.out_channels
    if k == 3 and o < n * h * w:
        return _conv3x3_shifted(x, spec)
    weight, bias = spec.weight, spec.bias
    ckk = c * k * k

    if k == 1:
        cols = x.data.reshape(n, c, h * w)
    else:
        cols = _gather_windows(x.data).reshape(n, ckk, h * w)
    out = weight.data.reshape(o, ckk) @ cols  # (n, o, h*w)
    out += bias.data.reshape(1, o, 1)

    def grad_fn(g: np.ndarray):
        g = g.reshape(n, o, h * w)
        gw = g[0] @ cols[0].T
        for i in range(1, n):
            gw += g[i] @ cols[i].T
        gx = None
        if x.requires_grad:  # read at backward time, like backward's own filter
            gcols = weight.data.reshape(o, ckk).T @ g  # (n, c*k*k, h*w)
            if k == 1:
                gx = gcols.reshape(n, c, h, w)
            else:  # col2im: scatter-add each kernel tap back onto the padded grid
                gcols = gcols.reshape(n, c, 3, 3, h, w)
                gpad = np.zeros((n, c, h + 2, w + 2), dtype=g.dtype)
                for ky in range(3):
                    for kx in range(3):
                        gpad[:, :, ky:ky + h, kx:kx + w] += gcols[:, :, ky, kx]
                gx = np.ascontiguousarray(gpad[:, :, 1:h + 1, 1:w + 1])
        return gx, gw.reshape(weight.shape), g.sum(axis=(0, 2))

    return _record("conv2d", out.reshape(n, o, h, w), (x, weight, bias), grad_fn)


def _tap_major(weight: np.ndarray) -> np.ndarray:
    """(o, c, 3, 3) weight -> contiguous (9, o, c): ``W[:, :, ky, kx]`` has
    inner stride 9, which BLAS cannot read in place."""
    o, c = weight.shape[0], weight.shape[1]
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(9, o, c)


def _conv3x3_shifted(x: Tensor, spec: ConvSpec) -> Tensor:
    """3x3 convolution as 9 shifted GEMMs, no im2col.

    The input is zero-padded by one row above, two below and one column on
    each side, and each padded plane is viewed flat at width ``w + 2``. Tap
    (ky, kx) of output position (y, x) reads flat index ``j + off`` with
    ``j = y*(w+2) + x`` and ``off = ky*(w+2) + kx``, so each tap is the
    contiguous column slice ``xp[..., off:off + h*(w+2)]``; the extra bottom
    row keeps the last tap inside the plane. Positions with ``x >= w`` are
    junk: the forward crops them and the backward lays the upstream gradient
    out with zeros there. The graph keeps the padded input (~1.1x the input)
    instead of a 9x ``cols``. The forward adds each tap product over a
    block of images per ``matmul`` call, as many as keep the product within
    ``_TAP_BLOCK`` elements and at least one, so at reference scale its temp
    holds one image: a batched ``matmul`` issues the per-image GEMMs of
    separate calls, and every sum is the same.
    """
    n, c, h, w = x.data.shape
    o, wp = spec.out_channels, w + 2
    m = h * wp
    offsets = [ky * wp + kx for ky in range(3) for kx in range(3)]
    xp = np.zeros((n, c, h + 3, wp), dtype=x.dtype)
    xp[:, :, 1:h + 1, 1:w + 1] = x.data
    xp = xp.reshape(n, c, (h + 3) * wp)
    taps = _tap_major(spec.weight.data)

    acc = np.matmul(taps[0], xp[:, :, :m])  # (n, o, h*(w+2))
    block = max(1, _TAP_BLOCK // (o * m))
    pb = prod = np.empty((min(block, n), o, m), dtype=acc.dtype)  # one block's tap product
    for start in range(0, n, block):
        xb, ab = xp[start:start + block], acc[start:start + block]
        pb = prod[:len(xb)]
        for t in range(1, 9):
            np.matmul(taps[t], xb[:, :, offsets[t]:offsets[t] + m], out=pb)
            ab += pb
    del taps, prod, pb  # freed before the crop copy
    out = acc.reshape(n, o, h, wp)[:, :, :, :w]
    out = out + spec.bias.data.reshape(1, o, 1, 1)

    def grad_fn(g: np.ndarray):
        gp = np.zeros((n, o, h, wp), dtype=g.dtype)
        gp[:, :, :, :w] = g
        gp = gp.reshape(n, o, m)
        gw = np.empty((9, o, c), dtype=g.dtype)
        for t, off in enumerate(offsets):
            np.matmul(gp[0], xp[0, :, off:off + m].T, out=gw[t])
            for i in range(1, n):
                gw[t] += gp[i] @ xp[i, :, off:off + m].T
        gx = None
        if x.requires_grad:  # read at backward time, like backward's own filter
            taps = _tap_major(spec.weight.data)
            gxp = np.zeros((n, c, (h + 3) * wp), dtype=g.dtype)
            prod = np.empty((n, c, m), dtype=g.dtype)
            for t, off in enumerate(offsets):
                np.matmul(taps[t].T, gp, out=prod)
                gxp[:, :, off:off + m] += prod
            gx = np.ascontiguousarray(gxp.reshape(n, c, h + 3, wp)[:, :, 1:h + 1, 1:w + 1])
        gw = np.ascontiguousarray(gw.reshape(3, 3, o, c).transpose(2, 3, 0, 1))
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record("conv2d", out, (x, spec.weight, spec.bias), grad_fn)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Per-window maximum; padding positions hold -inf and are never selected.

    ``padding`` must be below ``kernel``, so every window holds an input value.

    A separable running maximum: first over the ``kernel`` column taps of
    every padded row a window reads, then over the ``kernel`` row taps of
    those row maxima, 2(k-1) ``np.maximum`` calls in all. When ``x`` requires
    grad, the first maximal column tap of each row and then the first maximal
    row are kept (strict ``>``), which is the first maximal tap in row-major
    window scan order; the backward routes the gradient there. A window that
    holds NaN gives NaN. NaN compares false either way, so its gradient goes
    where the two scans leave it, which can differ from where one scan of the
    k^2 taps would.
    """
    _check_4d("max_pool2d: input", x)
    _check_int("max_pool2d: kernel", kernel, 1)
    _check_int("max_pool2d: stride", stride, 1)
    _check_int("max_pool2d: padding", padding, 0)
    if padding >= kernel:
        raise ConfigError(f"max_pool2d: padding {padding} must be below kernel {kernel}")
    n, c, h, w = x.data.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"max_pool2d: window {kernel}x{kernel} larger than padded input {h + 2 * padding}x{w + 2 * padding}")

    padded = x.data
    if padding:
        padded = np.full((n, c, h + 2 * padding, w + 2 * padding), NEG_INF, dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x.data
    grad = x.requires_grad
    rows = padded[:, :, :stride * (oh - 1) + kernel]  # the rows some window reads
    row_max = rows[:, :, :, :stride * ow:stride].copy()
    row_arg = np.zeros(row_max.shape, dtype=np.intp) if grad else None
    for kx in range(1, kernel):
        tap = rows[:, :, :, kx:kx + stride * ow:stride]
        if grad:
            np.copyto(row_arg, kx, where=tap > row_max)
        np.maximum(row_max, tap, out=row_max)
    out = row_max[:, :, :stride * oh:stride].copy()
    idx = row_arg[:, :, :stride * oh:stride].copy() if grad else None  # flat tap ky*k + kx
    for ky in range(1, kernel):
        tap = row_max[:, :, ky:ky + stride * oh:stride]
        if grad:
            np.copyto(idx, row_arg[:, :, ky:ky + stride * oh:stride] + ky * kernel,
                      where=tap > out)
        np.maximum(out, tap, out=out)

    def grad_fn(g: np.ndarray):
        gpad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
        ni, ci, oy, ox = np.indices(idx.shape)
        iy = idx // kernel + oy * stride
        ix = idx % kernel + ox * stride
        np.add.at(gpad, (ni, ci, iy, ix), g)
        if padding:
            gpad = gpad[:, :, padding:padding + h, padding:padding + w]
        return (np.ascontiguousarray(gpad),)

    return _record("max_pool2d", out, (x,), grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over all spatial positions: (n, c, h, w) -> (n, c, 1, 1)."""
    _check_4d("global_avg_pool: input", x)
    n, c, h, w = x.shape
    if h * w < 1:
        raise ShapeError(f"global_avg_pool: empty spatial extent {h}x{w}")

    def grad_fn(g):
        return (np.broadcast_to(g / (h * w), x.shape).copy(),)

    # np.mean's own arithmetic (sum, then one division), without its wrapper
    return _record("global_avg_pool", x.data.sum(axis=(2, 3), keepdims=True) / (h * w), (x,),
                   grad_fn)


def global_max_pool(x: Tensor) -> Tensor:
    """Maximum over all spatial positions: (n, c, h, w) -> (n, c, 1, 1)."""
    _check_4d("global_max_pool: input", x)
    n, c, h, w = x.shape
    if h * w < 1:
        raise ShapeError(f"global_max_pool: empty spatial extent {h}x{w}")

    idx = x.data.reshape(n, c, h * w).argmax(axis=2) if x.requires_grad else None

    def grad_fn(g):
        gx = np.zeros((n, c, h * w), dtype=g.dtype)
        ni, ci = np.indices(idx.shape)
        gx[ni, ci, idx] = g.reshape(n, c)
        return (gx.reshape(x.shape),)

    return _record("global_max_pool", x.data.max(axis=(2, 3), keepdims=True), (x,), grad_fn)


def interpolate_nearest(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling: output(y, x) = input(y // scale, x // scale)."""
    _check_4d("interpolate_nearest: input", x)
    _check_int("interpolate_nearest: scale", scale, 1)
    n, c, h, w = x.shape

    def grad_fn(g):  # each input pixel sums its scale x scale block: s^2 strided adds
        gx = g[:, :, ::scale, ::scale].copy()
        for dy in range(scale):
            for dx in range(scale):
                if dy or dx:
                    gx += g[:, :, dy::scale, dx::scale]
        return (gx,)

    out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)
    return _record("interpolate_nearest", out, (x,), grad_fn)


def linear(x: Tensor, spec: LinearSpec) -> Tensor:
    """y = x Wᵀ + b for a batch of row vectors x of shape (n, in).

    Batch-invariant: each row is its own one-row product, so a row's bits do
    not depend on the rows beside it (``x @ Wᵀ`` at n > 1 is one matrix
    product, whose sums run in another order). Stacked copies of an input
    therefore give the bits of separate calls, and n = 1 is unchanged.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"linear: input must be a batch of vectors (n, in), got shape {x.shape}")
    if x.shape[1] != spec.in_features:
        raise ConfigError(
            f"linear: input length {x.shape[1]} but the layer expects {spec.in_features}")

    weight, bias = spec.weight, spec.bias
    out = (x.data[:, None, :] @ weight.data.T)[:, 0, :] + bias.data
    return _record("linear", out, (x, weight, bias),
                   lambda g: (g @ weight.data, g.T @ x.data, g.sum(axis=0)))
