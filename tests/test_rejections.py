"""Each argument rule rejects with its typed error, and the message leads
with the name the caller passed, op prefix included (``conv2d: input``)."""

import numpy as np
import pytest

from cefpn import BackbonePyramid, ConfigError, ContractError, ConvSpec, LinearSpec, \
    NeckConfig, RunConfig, ShapeError, Tensor, cefpn_report, compare_to_baseline, conv2d, \
    global_avg_pool, global_max_pool, init_neck_params, interpolate_nearest, max_pool2d, mul, \
    mul_channelwise, pixel_shuffle, pixel_unshuffle, ssf_fuse, synthetic_backbone, \
    top_down_merge, variant_report
from cefpn.backbone import check_geometry
from cefpn.tensor import broadcast_spatial, channel_slice, squeeze_spatial

DESK = NeckConfig(base_channel=16, attention_reduction=4)
X3 = Tensor(np.zeros((1, 4, 4)))  # a map missing its batch axis


def zeros(*shape):
    return Tensor(np.zeros(shape))


def pyramid(c3=(1, 32, 8, 8)):
    return BackbonePyramid(zeros(1, 16, 16, 16), zeros(*c3), zeros(1, 64, 4, 4),
                           zeros(1, 128, 2, 2))


# name -> (call over desk parameters, error class, message prefix)
REJECTIONS = {
    "conv2d 3-d": (lambda p: conv2d(X3, p.laterals[2]), ShapeError, "conv2d: input must be 4-d"),
    "max_pool2d 3-d": (lambda p: max_pool2d(X3, 2, 2), ShapeError,
                       "max_pool2d: input must be 4-d"),
    "global_avg_pool 3-d": (lambda p: global_avg_pool(X3), ShapeError,
                            "global_avg_pool: input must be 4-d"),
    "global_max_pool 3-d": (lambda p: global_max_pool(X3), ShapeError,
                            "global_max_pool: input must be 4-d"),
    "interpolate 3-d": (lambda p: interpolate_nearest(X3, 2), ShapeError,
                        "interpolate_nearest: input must be 4-d"),
    "pixel_shuffle 3-d": (lambda p: pixel_shuffle(X3, 2), ShapeError,
                          "pixel_shuffle: input must be 4-d"),
    "pixel_unshuffle 3-d": (lambda p: pixel_unshuffle(X3, 2), ShapeError,
                            "pixel_unshuffle: input must be 4-d"),
    "mul_channelwise 3-d": (lambda p: mul_channelwise(X3, zeros(1, 4)), ShapeError,
                            "mul_channelwise: x must be 4-d"),
    "channel_slice 3-d": (lambda p: channel_slice(X3, 0, 1), ShapeError,
                          "channel_slice: x must be 4-d"),
    "backbone 3-d map": (lambda p: pyramid(c3=(32, 8, 8)), ShapeError, "C3 must be 4-d"),
    "backbone batches differ": (lambda p: pyramid(c3=(2, 32, 8, 8)), ShapeError,
                                "C3 batch 2 differs from C2 batch 1"),
    "max_pool2d padding": (lambda p: max_pool2d(zeros(1, 1, 4, 4), 2, 2, 2), ConfigError,
                           "max_pool2d: padding 2 must be below kernel 2"),
    "conv kernel 2": (lambda p: ConvSpec(1, 1, 2, zeros(1, 1, 2, 2), zeros(1)), ConfigError,
                      "conv kernel must be one of (1, 3), got 2"),
    "conv kernel bool": (lambda p: ConvSpec(1, 1, True, zeros(1, 1, 1, 1), zeros(1)),
                         ConfigError, "conv kernel must be one of (1, 3), got True"),
    "conv weight": (lambda p: ConvSpec(2, 1, 1, zeros(1, 1, 1, 1), zeros(1)), ConfigError,
                    "conv weight shape"),
    "conv bias": (lambda p: ConvSpec(1, 1, 1, zeros(1, 1, 1, 1), zeros(2)), ConfigError,
                  "conv bias must be"),
    "conv in_channels float": (lambda p: ConvSpec(2.0, 1, 1, zeros(1, 2, 1, 1), zeros(1)),
                               ConfigError, "conv in_channels must be an integer >= 1, got 2.0"),
    "conv out_channels 0": (lambda p: ConvSpec(1, 0, 1, zeros(0, 1, 1, 1), zeros(0)),
                            ConfigError, "conv out_channels must be an integer >= 1, got 0"),
    "linear in_features bool": (lambda p: LinearSpec(True, 1, zeros(1, 1), zeros(1)),
                                ConfigError, "linear in_features must be an integer >= 1, got True"),
    "linear out_features float": (lambda p: LinearSpec(1, 1.0, zeros(1, 1), zeros(1)),
                                  ConfigError,
                                  "linear out_features must be an integer >= 1, got 1.0"),
    "linear weight": (lambda p: LinearSpec(2, 1, zeros(2, 1), zeros(1)), ConfigError,
                      "linear weight shape"),
    "linear bias": (lambda p: LinearSpec(2, 1, zeros(1, 2), zeros(1, 1)), ConfigError,
                    "linear bias must be"),
    "item of 2": (lambda p: zeros(2).item(), ContractError, "item() needs a single-element"),
    "mul shapes": (lambda p: mul(zeros(2), zeros(3)), ShapeError, "mul: shapes"),
    "geometry 0": (lambda p: check_geometry(0, 64), ConfigError,
                   "geometry 0x64 is smaller than 64x64"),
    "geometry -64": (lambda p: check_geometry(64, -64), ConfigError,
                     "geometry 64x-64 is smaller than 64x64"),
    "ssf_fuse scheme": (lambda p: ssf_fuse(zeros(1, 128, 2, 2), zeros(1, 16, 4, 4), "d", p),
                        ConfigError, "ssf_fuse: scheme must be one of ('a', 'b', 'c'), got 'd'"),
    "ssf_fuse source": (lambda p: ssf_fuse(zeros(1, 32, 2, 2), zeros(1, 16, 4, 4), "c", p),
                        ConfigError, "ssf_fuse: source channels must be one of (64, 128), got 32"),
    "broadcast_spatial shape": (lambda p: broadcast_spatial(zeros(1, 4, 2, 1), 2, 2), ShapeError,
                                "broadcast_spatial: expected (n, c, 1, 1), got (1, 4, 2, 1)"),
    "squeeze_spatial 3-d": (lambda p: squeeze_spatial(zeros(1, 4, 1)), ShapeError,
                            "squeeze_spatial: expected (n, c, 1, 1), got (1, 4, 1)"),
    "broadcast extent 0": (lambda p: broadcast_spatial(zeros(1, 4, 1, 1), 0, 3), ConfigError,
                           "broadcast_spatial: height must be an integer >= 1, got 0"),
    "top_down_merge empty": (lambda p: top_down_merge({}, p), ShapeError,
                             "top_down_merge: no levels given"),
    "backbone pattern": (lambda p: synthetic_backbone(16, 64, 64, pattern="stripes"),
                         ConfigError, "pattern must be one of ('noise', 'ramp'), got 'stripes'"),
    "variant": (lambda p: variant_report("x", 16, (64, 64)), ConfigError,
                "variant must be one of ('baseline', "),
    "mac convention": (lambda p: cefpn_report(DESK, (64, 64), mac_convention=3), ConfigError,
                       "mac_convention must be one of (1, 2), got 3"),
    "mac conventions differ": (lambda p: compare_to_baseline(
        cefpn_report(DESK, (64, 64), 1), cefpn_report(DESK, (64, 64), 2)), ContractError,
        "mac convention mismatch: 1 vs 2"),
    "run batch 0": (lambda p: RunConfig(batch=0), ConfigError,
                    "batch must be an integer >= 1, got 0"),
    "run base_channel 0": (lambda p: RunConfig(base_channel=0), ConfigError,
                           "base_channel must be an integer >= 1, got 0"),
    "run seed": (lambda p: RunConfig(seed=-1), ConfigError, "seed must be an integer >= 0"),
    "run mac convention": (lambda p: RunConfig(mac_convention=3), ConfigError,
                           "mac_convention must be one of (1, 2), got 3"),
    "run pattern": (lambda p: RunConfig(backbone_pattern="stripes"), ConfigError,
                    "backbone_pattern must be one of ('noise', 'ramp'), got 'stripes'"),
    "run float32 gradcheck": (lambda p: RunConfig(precision="float32"), ConfigError,
                              "the gradcheck requires float64 precision, got 'float32'"),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection_is_typed_and_leads_with_its_name(name):
    call, kind, prefix = REJECTIONS[name]
    params = init_neck_params(DESK, seed=0)
    with pytest.raises(kind) as caught:
        call(params)
    assert type(caught.value) is kind
    assert str(caught.value).startswith(prefix), str(caught.value)
