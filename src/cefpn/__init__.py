"""Channel-enhanced feature pyramid neck on a minimal differentiable engine.

The package has four parts:

* :mod:`cefpn.tensor` / :mod:`cefpn.ops` - an immutable dense-tensor engine
  with reverse-mode gradients for every forward operation;
* :mod:`cefpn.neck` - pixel shuffle, sub-pixel skip fusion, sub-pixel
  context enhancement, channel attention guidance, and the assembled neck;
* :mod:`cefpn.cost` - static parameter/FLOP accounting with baseline deltas;
* :mod:`cefpn.harness` / :mod:`cefpn.cli` - reproducible forward, gradient
  check, and cost suites over synthetic backbones.
"""

from .backbone import level_shapes, ramp_level, synthetic_backbone
from .cost import CostEntry, CostReport, DeltaSummary, cefpn_report, compare_to_baseline, \
    fpn_baseline_report, variant_report
from .errors import ConfigError, ContractError, ShapeError
from .gradcheck import EndToEndResult, end_to_end_gradcheck, op_gradient_suite
from .harness import RunConfig, SuiteReport, run_cost, run_forward, run_gradcheck, run_suites
from .neck import BackbonePyramid, NeckConfig, NeckParams, PyramidOutputs, build_integration_map, \
    cag_apply, cag_weights, cefpn_forward, head_stage, init_neck_params, pixel_shuffle, \
    pixel_unshuffle, pyramid_stage, sce_forward, ssf_fuse, top_down_merge
from .ops import ConvSpec, LinearSpec, conv2d, global_avg_pool, global_max_pool, \
    interpolate_nearest, linear, max_pool2d
from .tensor import GradTape, Tensor, add, backward, broadcast_spatial, channel_slice, mul, \
    mul_channelwise, relu, scale, sigmoid, squeeze_spatial, sum_all

__version__ = "0.1.0"
