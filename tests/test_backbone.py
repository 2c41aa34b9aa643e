"""Synthetic backbone generation: shapes, determinism, the ramp, and the one
geometry rule every entry point shares."""

import numpy as np
import pytest

from cefpn import ConfigError, NeckConfig, cefpn_report, fpn_baseline_report, \
    synthetic_backbone, variant_report
from cefpn.backbone import level_shapes, ramp_level
from cefpn.ops import _DRAW_CHUNK


def test_level_shapes_follow_strides():
    shapes = level_shapes(16, 64, 128, batch=2)
    assert shapes == {2: (2, 16, 16, 32), 3: (2, 32, 8, 16),
                      4: (2, 64, 4, 8), 5: (2, 128, 2, 4)}


def test_geometry_must_divide_32():
    with pytest.raises(ConfigError):
        level_shapes(16, 60, 64)


DESK = NeckConfig(base_channel=16, attention_reduction=4)

# every entry point that takes an image geometry
GEOMETRY_PATHS = {
    "level_shapes": lambda h, w: level_shapes(16, h, w),
    "synthetic_backbone": lambda h, w: synthetic_backbone(16, h, w),
    "fpn_baseline_report": lambda h, w: fpn_baseline_report(16, (h, w)),
    "variant_report": lambda h, w: variant_report("sce", 16, (h, w), attention_reduction=4),
    "cefpn_report": lambda h, w: cefpn_report(DESK, (h, w)),
}


@pytest.mark.parametrize("path", sorted(GEOMETRY_PATHS))
def test_every_path_rejects_an_odd_c5_extent(path):
    # 96x96 puts a 3x3 C5 under SCE, which needs an even extent
    with pytest.raises(ConfigError, match="divisible by 64.*even C5"):
        GEOMETRY_PATHS[path](96, 96)
    GEOMETRY_PATHS[path](64, 128)


@pytest.mark.parametrize("path", sorted(GEOMETRY_PATHS))
@pytest.mark.parametrize("height, width", [(64.0, 64), (64, 128.0)])
def test_every_path_rejects_a_non_integer_extent(path, height, width):
    with pytest.raises(ConfigError, match="must be integers"):
        GEOMETRY_PATHS[path](height, width)


@pytest.mark.parametrize("build", [level_shapes, synthetic_backbone])
@pytest.mark.parametrize("batch", [True, 2.0, 0])
def test_batch_must_be_a_positive_integer(build, batch):
    with pytest.raises(ConfigError, match="batch must be an integer"):
        build(16, 64, 64, batch=batch)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_noise_equals_one_whole_draw_per_level(dtype):
    pyramid = synthetic_backbone(64, 128, 128, batch=2, seed=5, dtype=dtype)
    assert pyramid.c2.size > _DRAW_CHUNK
    rng = np.random.default_rng(5)
    for i in (2, 3, 4, 5):
        level = pyramid.level(i)
        want = rng.uniform(-1.0, 1.0, size=level.shape).astype(dtype)
        assert level.dtype == dtype and np.array_equal(level.data, want), f"C{i}"
        assert not level.requires_grad


def test_same_seed_bit_identical_pyramid():
    a = synthetic_backbone(16, 64, 64, seed=42)
    b = synthetic_backbone(16, 64, 64, seed=42)
    for i in (2, 3, 4, 5):
        assert np.array_equal(a.level(i).data, b.level(i).data)


def test_different_seeds_differ():
    a = synthetic_backbone(16, 64, 64, seed=1)
    b = synthetic_backbone(16, 64, 64, seed=2)
    assert not np.array_equal(a.c2.data, b.c2.data)


def test_ramp_is_seed_independent():
    a = synthetic_backbone(16, 64, 64, seed=1, pattern="ramp")
    b = synthetic_backbone(16, 64, 64, seed=999, pattern="ramp")
    for i in (2, 3, 4, 5):
        assert np.array_equal(a.level(i).data, b.level(i).data)


def test_ramp_values_follow_flat_index_rule():
    shape = (1, 64, 4, 4)
    ramp = ramp_level(shape, level=4)
    size = 64 * 16
    assert ramp.flat[0] == 2.0
    assert ramp.flat[size - 1] == 2.0 + (size - 1) / size
    assert ramp[0, 3, 2, 1] == 2.0 + ((3 * 4 + 2) * 4 + 1) / size


def test_unknown_pattern_rejected():
    with pytest.raises(ConfigError):
        synthetic_backbone(16, 64, 64, pattern="sine")
