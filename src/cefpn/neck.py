"""Channel-enhanced feature pyramid neck.

Takes backbone maps C2..C5 at strides {4, 8, 16, 32} with channels
{c, 2c, 4c, 8c} and produces four pyramid levels R2..R5, all ``c`` channels
wide. Three mechanisms are layered on the classic top-down pyramid:

* sub-pixel skip fusion (SSF): the channel-rich C4/C5 maps are folded into
  the next-lower lateral by pixel shuffle instead of channel reduction plus
  interpolation;
* sub-pixel context enhancement (SCE): three parallel pathways over C5
  (local 3x3 + 2x shuffle, pooled 1x1 + 4x shuffle, global pooled broadcast)
  summed into a context map at stride 16;
* channel attention guidance (CAG): one weight vector per image, computed
  from the integration map, rescales the channels of every output level.

F5/P5 are not built by default; the fifth output level is a parameter-free
stride-2 subsample of P4.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError, _check_4d, _check_choice, _check_int
from .ops import ConvSpec, LinearSpec, conv2d, global_avg_pool, global_max_pool, \
    interpolate_nearest, linear, max_pool2d, uniform_init
from .tensor import Tensor, _record, add, broadcast_spatial, channel_slice, \
    mul_channelwise, relu, scale, scope, sigmoid, squeeze_spatial

SSF_SCHEMES = ("a", "b", "c")

# Annotation string -> the exact type a config field takes (so a bool is no int).
_FIELD_TYPES = {"int": int, "str": str, "bool": bool}


def _check_field_types(config) -> None:
    """Raise ``ConfigError`` naming the first field not of its annotated type."""
    for f in fields(config):
        value = getattr(config, f.name)
        if type(value) is not _FIELD_TYPES[f.type]:
            raise ConfigError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")


def _backbone_channels(c: int) -> dict[int, int]:
    """Channels of C2..C5 over pyramid width c: {c, 2c, 4c, 8c}."""
    _check_int("base_channel", c, 1)
    return {i: c * (1 << (i - 2)) for i in (2, 3, 4, 5)}


# ---------------------------------------------------------------------------
# pixel shuffle
# ---------------------------------------------------------------------------

def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange (n, C*r^2, h, w) to (n, C, r*h, r*w).

    Output position (y, x) of channel ch reads input position
    (y // r, x // r) at input channel C*r*(y mod r) + C*(x mod r) + ch.
    A pure permutation: the value multiset is preserved exactly.
    """
    _check_4d("pixel_shuffle: input", x)
    _check_int("pixel_shuffle: upscale factor", r, 1)
    c = x.shape[1]
    if c % (r * r) != 0:
        raise ConfigError(f"pixel_shuffle: {c} channels not divisible by r^2 = {r * r} (r = {r})")
    return _record("pixel_shuffle", _shuffle_data(x.data, r), (x,),
                   lambda g: (_unshuffle_data(g, r),))


def _shuffle_data(d: np.ndarray, r: int) -> np.ndarray:
    n, c, h, w = d.shape
    cq = c // (r * r)
    blocks = d.reshape(n, r, r, cq, h, w)
    return np.ascontiguousarray(blocks.transpose(0, 3, 4, 1, 5, 2)).reshape(n, cq, r * h, r * w)


def _unshuffle_data(d: np.ndarray, r: int) -> np.ndarray:
    n, cq, rh, rw = d.shape
    h, w = rh // r, rw // r
    blocks = d.reshape(n, cq, h, r, w, r)
    return np.ascontiguousarray(blocks.transpose(0, 3, 5, 1, 2, 4)).reshape(n, cq * r * r, h, w)


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Exact inverse of ``pixel_shuffle``: (n, C, r*h, r*w) -> (n, C*r^2, h, w)."""
    _check_4d("pixel_unshuffle: input", x)
    _check_int("pixel_unshuffle: upscale factor", r, 1)
    h, w = x.shape[2], x.shape[3]
    if h % r != 0 or w % r != 0:
        raise ShapeError(f"pixel_unshuffle: extents {h}x{w} not divisible by r = {r}")
    return _record("pixel_unshuffle", _unshuffle_data(x.data, r), (x,),
                   lambda g: (_shuffle_data(g, r),))


# ---------------------------------------------------------------------------
# configuration and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeckConfig:
    """Architecture hyperparameters of the neck.

    ``base_channel`` is the shared pyramid width c (256 at reference scale).
    """

    base_channel: int = 256
    ssf_scheme: str = "c"
    attention_reduction: int = 32
    include_f5_p5: bool = False

    def __post_init__(self):
        _check_field_types(self)
        c = self.base_channel
        if c < 4 or c % 4 != 0:
            raise ConfigError(f"base_channel must be a positive multiple of 4, got {c}")
        _check_choice("ssf_scheme", self.ssf_scheme, SSF_SCHEMES)
        if self.attention_reduction < 1 or c % self.attention_reduction != 0:
            raise ConfigError(
                f"attention_reduction {self.attention_reduction} must divide base_channel {c}")

    @property
    def levels(self) -> tuple[int, ...]:
        return (2, 3, 4, 5) if self.include_f5_p5 else (2, 3, 4)


@dataclass(frozen=True)
class BackbonePyramid:
    """Backbone outputs C2..C5 at strides {4, 8, 16, 32}, channels {c, 2c, 4c, 8c}."""

    c2: Tensor
    c3: Tensor
    c4: Tensor
    c5: Tensor

    def __post_init__(self):
        maps = [self.c2, self.c3, self.c4, self.c5]
        for i, t in zip((2, 3, 4, 5), maps):
            _check_4d(f"C{i}", t)
        c = self.c2.shape[1]
        for (i, want), t in zip(_backbone_channels(c).items(), maps):
            if t.shape[1] != want:
                raise ConfigError(f"C{i} has {t.shape[1]} channels, expected {want} (c = {c})")
            if t.shape[0] != self.c2.shape[0]:
                raise ShapeError(f"C{i} batch {t.shape[0]} differs from C2 batch {self.c2.shape[0]}")
        for lo, hi in ((self.c2, self.c3), (self.c3, self.c4), (self.c4, self.c5)):
            if lo.shape[2] != 2 * hi.shape[2] or lo.shape[3] != 2 * hi.shape[3]:
                raise ShapeError(
                    f"adjacent levels must halve spatially, got {lo.shape[2:]} over {hi.shape[2:]}")

    def level(self, i: int) -> Tensor:
        return {2: self.c2, 3: self.c3, 4: self.c4, 5: self.c5}[i]


@dataclass
class NeckParams:
    """All learnable layers of the neck, keyed the way the forward pass uses them."""

    laterals: dict[int, ConvSpec]
    post_convs: dict[int, ConvSpec]
    ssf_reduce: ConvSpec | None
    sce_local: ConvSpec
    sce_wide: ConvSpec
    sce_squeeze: ConvSpec
    cag_fc1_squeeze: LinearSpec
    cag_fc1_expand: LinearSpec
    cag_fc2_squeeze: LinearSpec
    cag_fc2_expand: LinearSpec

    def named_layers(self) -> Iterator[tuple[str, str, ConvSpec | LinearSpec]]:
        """(name, module, spec) triples in a fixed, documented order."""
        for i in sorted(self.laterals):
            yield f"lateral.C{i}", "lateral", self.laterals[i]
        for i in sorted(self.post_convs):
            yield f"post_merge.P{i}", "post_merge", self.post_convs[i]
        if self.ssf_reduce is not None:
            yield "ssf.reduce_C5", "ssf", self.ssf_reduce
        yield "sce.local_3x3", "sce", self.sce_local
        yield "sce.wide_1x1", "sce", self.sce_wide
        yield "sce.squeeze_1x1", "sce", self.sce_squeeze
        yield "cag.fc1_squeeze", "cag", self.cag_fc1_squeeze
        yield "cag.fc1_expand", "cag", self.cag_fc1_expand
        yield "cag.fc2_squeeze", "cag", self.cag_fc2_squeeze
        yield "cag.fc2_expand", "cag", self.cag_fc2_expand

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name, _module, spec in self.named_layers():
            yield f"{name}.weight", spec.weight
            yield f"{name}.bias", spec.bias


def init_neck_params(config: NeckConfig, seed: int, dtype=np.float64,
                     requires_grad: bool = True) -> NeckParams:
    """Seeded uniform initialization; identical seeds give bit-identical params.

    Allocation order is fixed: laterals ascending, post-merge convs ascending,
    the scheme-a reduction (when present), the three SCE convs, then the four
    attention layers. With ``requires_grad=False`` no forward over these
    parameters records a graph: inference keeps only live activations.
    """
    rng = np.random.default_rng(seed)
    return _build_params(
        config, lambda shape, fan_in: uniform_init(rng, shape, fan_in, dtype, requires_grad))


def _build_params(config: NeckConfig, make) -> NeckParams:
    """Every layer of the neck in allocation order, each tensor from
    ``make(shape, fan_in)``."""
    c = config.base_channel
    back = _backbone_channels(c)

    def conv(cin: int, cout: int, kernel: int) -> ConvSpec:
        return ConvSpec._made(make, cin, cout, kernel)

    def fc(fin: int, fout: int) -> LinearSpec:
        return LinearSpec._made(make, fin, fout)

    laterals = {i: conv(back[i], c, 1) for i in config.levels}
    post = {i: conv(c, c, 3) for i in config.levels}
    ssf_reduce = conv(8 * c, 4 * c, 1) if config.ssf_scheme == "a" else None
    hidden = c // config.attention_reduction
    return NeckParams(laterals, post, ssf_reduce,
                      conv(8 * c, 4 * c, 3), conv(8 * c, 16 * c, 1), conv(8 * c, c, 1),
                      fc(c, hidden), fc(hidden, c), fc(c, hidden), fc(hidden, c))


@dataclass(frozen=True)
class PyramidOutputs:
    """Final pyramid R2..R5: strides {4, 8, 16, 32}, all ``c`` channels wide."""

    r2: Tensor
    r3: Tensor
    r4: Tensor
    r5: Tensor

    def level(self, i: int) -> Tensor:
        return {2: self.r2, 3: self.r3, 4: self.r4, 5: self.r5}[i]

    def levels(self) -> dict[int, Tensor]:
        return {2: self.r2, 3: self.r3, 4: self.r4, 5: self.r5}


# ---------------------------------------------------------------------------
# neck mechanisms
# ---------------------------------------------------------------------------

def ssf_fuse(c_hi: Tensor, f_lo: Tensor, scheme: str, params: NeckParams) -> Tensor:
    """Fold a channel-rich higher level into the lateral below it.

    ``f_lo`` is the lateral at pyramid width c; ``c_hi`` is the backbone map
    one level up, carrying 4c or 8c channels at half the spatial extent.
    A 4c source (C4 into F3) shuffles directly and the scheme flag is
    ignored; an 8c source (C5 into F4) is first brought to 4c channels by
    the selected scheme:

    * ``a`` 1x1 convolution 8c -> 4c (adds parameters);
    * ``b`` first 4c channels only (parameter free, drops half the source);
    * ``c`` both 4c halves shuffled and summed (parameter free).
    """
    _check_choice("ssf_fuse: scheme", scheme, SSF_SCHEMES)
    c = f_lo.shape[1]
    src = c_hi.shape[1]
    _check_choice("ssf_fuse: source channels", src, (4 * c, 8 * c))

    if src == 4 * c:
        with scope("ssf.shuffle_C4"):
            up = pixel_shuffle(c_hi, 2)
        with scope("ssf.fuse_F3"):
            return add(f_lo, up)
    if scheme == "a":
        with scope("ssf.reduce_C5"):
            if params.ssf_reduce is None:
                raise ConfigError("ssf scheme a needs the 8c -> 4c reduction layer, none was built")
            reduced = conv2d(c_hi, params.ssf_reduce)
        with scope("ssf.shuffle_C5"):
            first = pixel_shuffle(reduced, 2)
    elif scheme == "b":
        with scope("ssf.shuffle_C5_half"):
            first = pixel_shuffle(channel_slice(c_hi, 0, 4 * c), 2)
    else:
        with scope("ssf.shuffle_C5_lo"):
            first = pixel_shuffle(channel_slice(c_hi, 0, 4 * c), 2)
        with scope("ssf.shuffle_C5_hi"):
            second = pixel_shuffle(channel_slice(c_hi, 4 * c, 8 * c), 2)
    with scope("ssf.fuse_F4"):
        fused = add(f_lo, first)
        return add(fused, second) if scheme == "c" else fused


def top_down_merge(features: dict[int, Tensor], params: NeckParams) -> dict[int, Tensor]:
    """Classic top-down pathway: accumulate by 2x nearest upsampling and
    elementwise sum from the top level down, then a 3x3 convolution per
    level, finest first.

    ``features`` is consumed: each lateral is popped as it is merged, so
    without a graph it is freed before the post-merge convs run.
    """
    if not features:
        raise ShapeError("top_down_merge: no levels given")
    levels = sorted(features, reverse=True)
    merged: dict[int, Tensor] = {}
    prev: int | None = None
    for i in levels:
        f = features.pop(i)
        if prev is None:
            merged[i] = f
        else:
            with scope(f"top_down.upsample_to_F{i}"):
                up = interpolate_nearest(merged[prev], 2)
            with scope(f"top_down.add_F{i}"):
                merged[i] = add(f, up)
        prev = i
    f = up = None
    outputs: dict[int, Tensor] = {}
    for i in reversed(levels):
        with scope(f"post_merge.P{i}"):
            if i not in params.post_convs:
                raise ConfigError(f"top_down_merge: no 3x3 convolution for level {i}")
            outputs[i] = conv2d(merged[i], params.post_convs[i])
    return outputs


def sce_forward(c5: Tensor, params: NeckParams) -> Tensor:
    """Context map from C5: three pathways, each emitting (n, c, 2*h5, 2*w5).

    1. 3x3 convolution 8c -> 4c, then 2x pixel shuffle (large-field local);
    2. 3x3 max pool to half extent, 1x1 convolution 8c -> 16c, then 4x
       pixel shuffle (wider receptive field);
    3. global average pool, 1x1 squeeze 8c -> c, broadcast (global context).

    Each pathway is its own function (``_sce_local``, ``_sce_wide``,
    ``_sce_global``), summed by ``_sce_sum``, so the gradient check can
    re-run one pathway over fixed outputs of the other two.

    An odd C5 extent h pools to (h + 1) / 2, so pathway 2 emits 2h + 2
    against 2h and the sum at ``sce.aggregate`` rejects it.
    """
    return _sce_sum(_sce_local(c5, params), _sce_wide(c5, params), _sce_global(c5, params))


def _sce_local(c5: Tensor, params: NeckParams) -> Tensor:
    with scope("sce.local_3x3"):
        local = conv2d(c5, params.sce_local)
    with scope("sce.local_shuffle"):
        return pixel_shuffle(local, 2)


def _sce_wide(c5: Tensor, params: NeckParams) -> Tensor:
    with scope("sce.pool_3x3"):
        pooled = max_pool2d(c5, kernel=3, stride=2, padding=1)
    with scope("sce.wide_1x1"):
        wide = conv2d(pooled, params.sce_wide)
    with scope("sce.wide_shuffle"):
        return pixel_shuffle(wide, 4)


def _sce_global(c5: Tensor, params: NeckParams) -> Tensor:
    with scope("sce.global_pool"):
        pooled = global_avg_pool(c5)
    with scope("sce.squeeze_1x1"):
        squeezed = conv2d(pooled, params.sce_squeeze)
    with scope("sce.broadcast"):
        return broadcast_spatial(squeezed, 2 * c5.shape[2], 2 * c5.shape[3])


def _sce_sum(local: Tensor, wide: Tensor, ctx: Tensor) -> Tensor:
    with scope("sce.aggregate"):
        return add(add(local, wide), ctx)


def build_integration_map(p2: Tensor, p3: Tensor, p4: Tensor, sce_out: Tensor) -> Tensor:
    """Average the pyramid at stride-16 resolution (``_pyramid_mean``) and add
    the context map (``_add_context``).

    P2 and P3 are brought to P4's extent by 4x and 2x max pooling; coarser
    levels do not exist, so no interpolation branch is needed. The mean
    reads no parameter, so the gradient check computes it once.
    """
    return _add_context(_pyramid_mean(p2, p3, p4), sce_out)


def _pyramid_mean(p2: Tensor, p3: Tensor, p4: Tensor) -> Tensor:
    with scope("integration.pool_P2"):
        down2 = max_pool2d(p2, kernel=4, stride=4)
    with scope("integration.pool_P3"):
        down3 = max_pool2d(p3, kernel=2, stride=2)
    with scope("integration.mean"):
        return scale(add(add(down2, down3), p4), 1.0 / 3.0)


def _add_context(mean: Tensor, sce_out: Tensor) -> Tensor:
    with scope("integration.add_context"):
        return add(mean, sce_out)


def cag_weights(integration: Tensor, params: NeckParams) -> Tensor:
    """Per-channel attention weights from the integration map.

    sigmoid(fc1(avg pool) + fc2(max pool)) where fc1 and fc2 are independent
    two-layer bottlenecks c -> c/r -> c with a rectifier in between. Returns
    (n, c); every entry lies strictly inside (0, 1).
    """
    with scope("cag.avg_pool"):
        avg = squeeze_spatial(global_avg_pool(integration))
    with scope("cag.max_pool"):
        mx = squeeze_spatial(global_max_pool(integration))
    with scope("cag.fc1_squeeze"):
        v1 = relu(linear(avg, params.cag_fc1_squeeze))
    with scope("cag.fc1_expand"):
        v1 = linear(v1, params.cag_fc1_expand)
    with scope("cag.fc2_squeeze"):
        v2 = relu(linear(mx, params.cag_fc2_squeeze))
    with scope("cag.fc2_expand"):
        v2 = linear(v2, params.cag_fc2_expand)
    with scope("cag.merge"):
        merged = add(v1, v2)
    with scope("cag.sigmoid"):
        return sigmoid(merged)


def cag_apply(pyramid_level: Tensor, weights: Tensor) -> Tensor:
    """Scale every channel of one (n, c, h, w) pyramid level by the (n, c)
    attention weights: each image by its own weight vector."""
    return mul_channelwise(pyramid_level, weights)


def pyramid_stage(backbone: BackbonePyramid, params: NeckParams,
                  config: NeckConfig) -> dict[int, Tensor]:
    """Laterals, skip fusion, top-down merge and post-merge convs.

    Returns P2..P4, plus P5 when F5/P5 are kept.
    """
    feats: dict[int, Tensor] = {}
    for i in config.levels:
        with scope(f"lateral.C{i}"):
            if i not in params.laterals:
                raise ConfigError(f"missing lateral convolution for level {i}")
            feats[i] = conv2d(backbone.level(i), params.laterals[i])
    feats[3] = ssf_fuse(backbone.c4, feats[3], config.ssf_scheme, params)
    feats[4] = ssf_fuse(backbone.c5, feats[4], config.ssf_scheme, params)
    return top_down_merge(feats, params)


def head_stage(backbone: BackbonePyramid, pyramid: dict[int, Tensor], params: NeckParams,
               config: NeckConfig) -> PyramidOutputs:
    """Context, integration map and attention over a given pyramid:
    ``sce_forward``, ``build_integration_map``, then ``_attend``.

    R5 comes from P5 when F5/P5 are kept, otherwise from a parameter-free
    stride-2 subsample of P4 (kernel-1 max pool). ``pyramid`` is not changed.
    """
    context = sce_forward(backbone.c5, params)
    integration = build_integration_map(pyramid[2], pyramid[3], pyramid[4], context)
    return _attend(integration, pyramid, params, config)


def _attend(integration: Tensor, pyramid: dict[int, Tensor], params: NeckParams,
            config: NeckConfig) -> PyramidOutputs:
    """The CAG weights of the integration map, applied to P2..P4 and to P5
    or, without F5/P5, the R5 subsample."""
    weights = cag_weights(integration, params)
    levels = dict(pyramid)
    if not config.include_f5_p5:
        with scope("output.R5_subsample"):
            levels[5] = max_pool2d(pyramid[4], kernel=1, stride=2)
    out = {}
    for i in (2, 3, 4, 5):
        with scope(f"cag.apply_R{i}"):
            out[i] = cag_apply(levels[i], weights)
    return PyramidOutputs(r2=out[2], r3=out[3], r4=out[4], r5=out[5])


def cefpn_forward(backbone: BackbonePyramid, params: NeckParams,
                  config: NeckConfig) -> PyramidOutputs:
    """Full neck: ``pyramid_stage`` (laterals, skip fusion, top-down merge),
    then ``head_stage`` (context, attention).

    Every op runs under the module path of its cost-table row
    (``lateral.C4``, ``cag.apply_R2``), and each shape or configuration
    error names that path: the op that needs a rule checks it.
    """
    return head_stage(backbone, pyramid_stage(backbone, params, config), params, config)
