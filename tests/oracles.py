"""Independent reference implementations used only by the tests.

Everything here is written as plain nested loops or direct index maps over
numpy buffers, deliberately sharing no code with the package, so each
vectorized operation has a second, slow route to the same answer.
"""

import numpy as np


def conv2d_loops(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                 stride: int, padding: int) -> np.ndarray:
    """Direct convolution: sum over in-channels and the kernel window."""
    n, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += x[ni, ic, iy, ix] * weight[oc, ic, ky, kx]
                    if bias is not None:
                        acc += bias[oc]
                    out[ni, oc, oy, ox] = acc
    return out


def conv2d_grad_loops(x: np.ndarray, weight: np.ndarray, g: np.ndarray,
                      stride: int, padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (input, weight, bias) of sum(g * conv(x)): each output
    position sends its upstream value back over the window it read."""
    n, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    oh, ow = g.shape[2], g.shape[3]
    gx = np.zeros_like(x)
    gw = np.zeros_like(weight)
    gb = np.zeros(cout, dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    up = g[ni, oc, oy, ox]
                    gb[oc] += up
                    for ic in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    gx[ni, ic, iy, ix] += up * weight[oc, ic, ky, kx]
                                    gw[oc, ic, ky, kx] += up * x[ni, ic, iy, ix]
    return gx, gw, gb


def max_pool_loops(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Window maximum; out-of-bounds positions count as -inf."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    out = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    for ky in range(kernel):
                        for kx in range(kernel):
                            iy = oy * stride + ky - padding
                            ix = ox * stride + kx - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                best = max(best, x[ni, ci, iy, ix])
                    out[ni, ci, oy, ox] = best
    return out


def max_pool_grad_loops(x: np.ndarray, g: np.ndarray, kernel: int, stride: int,
                        padding: int) -> np.ndarray:
    """Gradient of sum(g * maxpool(x)): each output position sends its
    upstream value to the first maximal element of its window, scanning the
    window row by row."""
    n, c, h, w = x.shape
    oh, ow = g.shape[2], g.shape[3]
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best, at = -np.inf, None
                    for ky in range(kernel):
                        for kx in range(kernel):
                            iy = oy * stride + ky - padding
                            ix = ox * stride + kx - padding
                            if 0 <= iy < h and 0 <= ix < w and x[ni, ci, iy, ix] > best:
                                best, at = x[ni, ci, iy, ix], (iy, ix)
                    gx[ni, ci, at[0], at[1]] += g[ni, ci, oy, ox]
    return gx


def global_avg_loops(x: np.ndarray) -> np.ndarray:
    """Running sum divided by the position count."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for y in range(h):
                for xx in range(w):
                    acc += x[ni, ci, y, xx]
            out[ni, ci, 0, 0] = acc / (h * w)
    return out


def global_max_loops(x: np.ndarray) -> np.ndarray:
    """Linear scan for the maximum."""
    n, c, h, w = x.shape
    out = np.empty((n, c, 1, 1), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            best = x[ni, ci, 0, 0]
            for y in range(h):
                for xx in range(w):
                    if x[ni, ci, y, xx] > best:
                        best = x[ni, ci, y, xx]
            out[ni, ci, 0, 0] = best
    return out


def interp_nearest_loops(x: np.ndarray, scale: int) -> np.ndarray:
    """output(y, x) = input(y // scale, x // scale)."""
    n, c, h, w = x.shape
    out = np.empty((n, c, scale * h, scale * w), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for y in range(scale * h):
                for xx in range(scale * w):
                    out[ni, ci, y, xx] = x[ni, ci, y // scale, xx // scale]
    return out


def interp_nearest_grad_loops(g: np.ndarray, scale: int) -> np.ndarray:
    """Gradient of sum(g * interp(x)): input(y, x) collects every output
    position it was copied to."""
    n, c, oh, ow = g.shape
    out = np.zeros((n, c, oh // scale, ow // scale), dtype=g.dtype)
    for ni in range(n):
        for ci in range(c):
            for y in range(oh):
                for xx in range(ow):
                    out[ni, ci, y // scale, xx // scale] += g[ni, ci, y, xx]
    return out


def linear_loops(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Row-by-row dot products."""
    squeeze = x.ndim == 1
    xb = x.reshape(1, -1) if squeeze else x
    n = xb.shape[0]
    fout, fin = weight.shape
    out = np.zeros((n, fout), dtype=x.dtype)
    for ni in range(n):
        for o in range(fout):
            acc = 0.0
            for i in range(fin):
                acc += weight[o, i] * xb[ni, i]
            if bias is not None:
                acc += bias[o]
            out[ni, o] = acc
    return out[0] if squeeze else out


def pixel_shuffle_index_map(x: np.ndarray, r: int) -> np.ndarray:
    """Brute-force enumeration of the sub-pixel rearrangement index map:
    output (x, y, ch) reads input (x//r, y//r) at channel
    C*r*mod(y, r) + C*mod(x, r) + ch, with C the output channel count."""
    n, cin, h, w = x.shape
    assert cin % (r * r) == 0
    cq = cin // (r * r)
    out = np.empty((n, cq, r * h, r * w), dtype=x.dtype)
    for ni in range(n):
        for ch in range(cq):
            for y in range(r * h):
                for xx in range(r * w):
                    src_c = cq * r * (y % r) + cq * (xx % r) + ch
                    out[ni, ch, y, xx] = x[ni, src_c, y // r, xx // r]
    return out


def pixel_unshuffle_index_map(x: np.ndarray, r: int) -> np.ndarray:
    """Inverse of the index map above."""
    n, cq, rh, rw = x.shape
    assert rh % r == 0 and rw % r == 0
    h, w = rh // r, rw // r
    out = np.empty((n, cq * r * r, h, w), dtype=x.dtype)
    for ni in range(n):
        for ch in range(cq):
            for y in range(rh):
                for xx in range(rw):
                    src_c = cq * r * (y % r) + cq * (xx % r) + ch
                    out[ni, src_c, y // r, xx // r] = x[ni, ch, y, xx]
    return out
