"""Synthetic backbone pyramids for the harness and the test suites.

Stands in for a real feature extractor: given a notional image extent
divisible by 64 (see ``check_geometry``), emits C2..C5 at strides
{4, 8, 16, 32} with channels {c, 2c, 4c, 8c}. Two generation rules:

* ``noise``  seeded uniform values in [-1, 1); same seed, same pyramid,
  bit for bit;
* ``ramp``   a fixed pattern independent of any seed, for regression
  fixtures: element at flat index k of level i holds (i - 2) + k / size.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .neck import BackbonePyramid, _backbone_channels
from .ops import _draw_uniform
from .tensor import _wrap

PATTERNS = ("noise", "ramp")


def check_geometry(height: int, width: int) -> None:
    """Reject an image extent the neck cannot run.

    C5 sits at stride 32 and SCE halves it once more, so both extents must be
    positive multiples of 64. Every entry point that takes a geometry (the
    harness, the backbone generator, the cost model) calls this one check.
    """
    if type(height) is not int or type(width) is not int:  # bool is not int here
        raise ConfigError(f"geometry {height!r}x{width!r} must be integers")
    if height % 32 != 0 or width % 32 != 0:
        raise ConfigError(f"geometry {height}x{width} must be divisible by 32")
    if height % 64 != 0 or width % 64 != 0:
        raise ConfigError(
            f"geometry {height}x{width} must be divisible by 64: SCE needs an "
            f"even C5 extent, got {height // 32}x{width // 32} at stride 32")
    if height < 64 or width < 64:
        raise ConfigError(f"geometry {height}x{width} is smaller than 64x64")


def level_shapes(base_channel: int, height: int, width: int,
                 batch: int = 1) -> dict[int, tuple[int, int, int, int]]:
    """Backbone map shapes per level for a notional image extent."""
    check_geometry(height, width)
    if type(batch) is not int or batch < 1:  # bool is not int here
        raise ConfigError(f"batch must be an integer >= 1, got {batch!r}")
    return {i: (batch, c, height >> i, width >> i)
            for i, c in _backbone_channels(base_channel).items()}


def ramp_level(shape: tuple[int, int, int, int], level: int, dtype=np.float64) -> np.ndarray:
    """The deterministic ramp for one level, recomputable by any script."""
    size = int(np.prod(shape))
    return ((level - 2) + np.arange(size, dtype=dtype) / size).reshape(shape)


def synthetic_backbone(base_channel: int, height: int, width: int, batch: int = 1,
                       seed: int = 0, pattern: str = "noise",
                       dtype=np.float64) -> BackbonePyramid:
    """Generate a backbone pyramid; levels are drawn in C2..C5 order."""
    if pattern not in PATTERNS:
        raise ConfigError(f"backbone pattern must be one of {PATTERNS}, got {pattern!r}")
    shapes = level_shapes(base_channel, height, width, batch)
    rng = np.random.default_rng(seed)
    maps = {}
    for i in (2, 3, 4, 5):
        if pattern == "noise":
            data = _draw_uniform(rng, -1.0, 1.0, shapes[i], dtype)
        else:
            data = ramp_level(shapes[i], i, dtype)
        maps[i] = _wrap(data)
    return BackbonePyramid(c2=maps[2], c3=maps[3], c4=maps[4], c5=maps[5])
