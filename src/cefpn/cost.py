"""Parameter and FLOP tables for the neck and its ablations, read off the forward.

Every table comes from one trace of ``cefpn_forward``: the neck runs at
batch 0 over parameters that allocate nothing (a 0-d zero seen through
all-zero strides) and records each op under the module path of its scope
(see ``tensor.scope``). One row per path, charged per image:

* a convolution or fully connected layer costs mac * |W| * out_h * out_w
  FLOPs (out_h = out_w = 1 for a fully connected layer) under the stated
  multiply-accumulate convention (1 or 2), and its weight plus bias
  elements as parameters (every layer carries a bias);
* an ``add``, ``scale`` or ``mul_channelwise`` costs 1 FLOP per output
  element, except inside ``ssf``;
* everything else (pooling, interpolation, pixel shuffling, slicing,
  broadcasting, nonlinearities) is free.

The sub-pixel skip fusion sums stay uncharged by that exception: schemes b
and c are pure rearrangement plus fusion sums and report 0 FLOPs, keeping
the defining property that the sub-pixel connections add no computation
(the uncharged sums are orders of magnitude below the conv totals anyway).

Rows are grouped by module in the order the forward first reaches each
module, and keep execution order within it. So ``top_down`` lists its rows
from the top level down (``upsample_to_F4``, ``add_F4``, ...), the order the
merge runs them.

The plain feature pyramid baseline (laterals C2..C5, post-merge 3x3
convolutions P2..P5) is the ``lateral``, ``top_down`` and ``post_merge``
rows of the F5/P5 neck, the ``baseline`` row of ``VARIANTS``; each other
row adds one mechanism's modules. Against it the model reproduces the
reference deltas:
+2,098,176 parameters for scheme a, zero for schemes b/c, +8,720 for the
attention module, and the full neck within 5% of the +27.28M total.

Every configuration goes through ``NeckConfig``, so the cost model rejects
with a ``ConfigError`` exactly the widths and reductions the neck rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backbone import level_shapes
from .errors import ConfigError, ContractError
from .neck import BackbonePyramid, NeckConfig, _build_params, cefpn_forward
from .tensor import Tensor, _traced, _wrap

MAC_CONVENTIONS = (1, 2)

KIND_MAC = "mac"
KIND_ELEMENTWISE = "elementwise"
KIND_FREE = "free"


@dataclass(frozen=True)
class CostEntry:
    layer: str
    module: str
    kind: str
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    """Per-layer cost table for one neck configuration."""

    name: str
    base_channel: int
    geometry: tuple[int, int]
    mac_convention: int
    entries: tuple[CostEntry, ...]

    @property
    def total_params(self) -> int:
        return sum(e.params for e in self.entries)

    @property
    def total_flops(self) -> int:
        return sum(e.flops for e in self.entries)

    def module_params(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.module] = out.get(e.module, 0) + e.params
        return out

    def module_flops(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.module] = out.get(e.module, 0) + e.flops
        return out

    def to_dict(self) -> dict:
        convention = {"mac": self.mac_convention}
        flops = self.module_flops()
        return {
            "name": self.name,
            "base_channel": self.base_channel,
            "geometry": list(self.geometry),
            "convention": convention,
            "entries": [
                {"layer": e.layer, "module": e.module, "params": e.params,
                 "flops": e.flops, "convention": convention}
                for e in self.entries
            ],
            "totals": {"params": self.total_params, "flops": self.total_flops},
            "module_totals": {
                m: {"params": p, "flops": flops[m]}
                for m, p in self.module_params().items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"cost report: {self.name}  (width {self.base_channel}, "
            f"geometry {self.geometry[0]}x{self.geometry[1]}, "
            f"mac={self.mac_convention})",
            f"{'layer':<28} {'module':<12} {'params':>12} {'flops':>16}",
        ]
        for e in self.entries:
            lines.append(f"{e.layer:<28} {e.module:<12} {e.params:>12} {e.flops:>16}")
        lines.append(f"{'TOTAL':<28} {'':<12} {self.total_params:>12} {self.total_flops:>16}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DeltaSummary:
    """Difference of one report against a baseline of equal width/geometry."""

    name: str
    baseline: str
    params_delta: int
    flops_delta: int
    module_params_delta: dict[str, int]
    module_flops_delta: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "params_delta": self.params_delta,
            "flops_delta": self.flops_delta,
            "module_params_delta": dict(sorted(self.module_params_delta.items())),
            "module_flops_delta": dict(sorted(self.module_flops_delta.items())),
        }

    def to_text(self) -> str:
        return (f"{self.name:<12} vs {self.baseline}: "
                f"params {self.params_delta:+d}, flops {self.flops_delta:+d}\n")


_BASELINE_MODULES = ("lateral", "top_down", "post_merge")
# Each row of the ablation table: the neck it is traced from, and the modules
# it tables on top of the baseline's.
VARIANTS = {
    "baseline": ({"include_f5_p5": True}, ()),
    "ssf_a": ({"ssf_scheme": "a", "include_f5_p5": True}, ("ssf",)),
    "ssf_b": ({"ssf_scheme": "b", "include_f5_p5": True}, ("ssf",)),
    "ssf_c": ({"ssf_scheme": "c", "include_f5_p5": True}, ("ssf",)),
    "sce": ({"include_f5_p5": False}, ("sce", "integration")),
    "cag": ({"include_f5_p5": True}, ("cag",)),
}
_MAC_OPS = ("conv2d", "linear")
_ELEMENTWISE_OPS = ("add", "scale", "mul_channelwise")
_ZERO = np.zeros(())


def _zeros(shape: tuple[int, ...], _fan_in: int = 0) -> Tensor:
    """A zero tensor that allocates nothing. (``np.zeros`` never touches its
    pages either, but tracemalloc would still count every byte.)"""
    t = _wrap(np.empty(0))
    t.data = np.broadcast_to(_ZERO, shape)
    return t


def _report(name: str, config: NeckConfig, geometry: tuple[int, int], mac: int,
            modules: tuple[str, ...] | None = None) -> CostReport:
    """Trace the neck of ``config`` and tabulate the rows of ``modules`` (all
    when None) under the charging rules of the module docstring."""
    if type(mac) is not int or mac not in MAC_CONVENTIONS:  # bool is not int here
        raise ConfigError(f"mac convention must be one of {MAC_CONVENTIONS}, got {mac}")
    h, w = geometry
    shapes = level_shapes(config.base_channel, h, w)
    backbone = BackbonePyramid(*(_zeros((0,) + shapes[i][1:]) for i in (2, 3, 4, 5)))
    params = _build_params(config, _zeros)
    rows: dict[str, list] = {}
    for layer, op, out, parents in _traced(lambda: cefpn_forward(backbone, params, config)):
        module = layer.split(".")[0]
        if modules is not None and module not in modules:
            continue
        row = rows.setdefault(layer, [module, KIND_FREE, 0, 0])
        if op in _MAC_OPS:
            row[1] = KIND_MAC
            row[2] += sum(math.prod(s) for s in parents[1:])
            row[3] += mac * math.prod(parents[1]) * math.prod(out[2:])
        elif op in _ELEMENTWISE_OPS and module != "ssf":
            if row[1] == KIND_FREE:
                row[1] = KIND_ELEMENTWISE
            row[3] += math.prod(out[1:])
    reached = list(dict.fromkeys(row[0] for row in rows.values()))
    entries = sorted((CostEntry(layer, *row) for layer, row in rows.items()),
                     key=lambda e: reached.index(e.module))
    return CostReport(name, config.base_channel, (h, w), mac, tuple(entries))


def fpn_baseline_report(base_channel: int, geometry: tuple[int, int],
                        mac_convention: int = 2) -> CostReport:
    """The plain feature pyramid neck used as the comparison baseline:
    laterals for C2..C5 (F5 included) and post-merge convolutions P2..P5."""
    # Any reduction valid at every width: the attention rows are not tabled.
    return variant_report("baseline", base_channel, geometry, mac_convention, 1)


def cefpn_report(config: NeckConfig, geometry: tuple[int, int],
                 mac_convention: int = 2) -> CostReport:
    """The full neck for the given configuration."""
    return _report("cefpn", config, geometry, mac_convention)


def variant_report(variant: str, base_channel: int, geometry: tuple[int, int],
                   mac_convention: int = 2, attention_reduction: int = 32) -> CostReport:
    """One row of the reference ablation table: the plain pyramid
    (``baseline``), or the baseline plus a single mechanism.

    ``baseline``, ``ssf_a``/``ssf_b``/``ssf_c`` and ``cag`` keep F5/P5;
    ``sce`` removes F5/P5 (the adopted configuration).
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    overrides, added = VARIANTS[variant]
    config = NeckConfig(base_channel, attention_reduction=attention_reduction, **overrides)
    return _report(variant, config, geometry, mac_convention, _BASELINE_MODULES + added)


def compare_to_baseline(report: CostReport, baseline: CostReport) -> DeltaSummary:
    """Per-module and total deltas; width and geometry must agree."""
    if report.base_channel != baseline.base_channel:
        raise ContractError(
            f"width mismatch: {report.base_channel} vs {baseline.base_channel}")
    if report.geometry != baseline.geometry:
        raise ContractError(f"geometry mismatch: {report.geometry} vs {baseline.geometry}")
    if report.mac_convention != baseline.mac_convention:
        raise ContractError(
            f"mac convention mismatch: {report.mac_convention} vs {baseline.mac_convention}")
    mods = sorted(set(report.module_params()) | set(baseline.module_params()))
    rp, bp = report.module_params(), baseline.module_params()
    rf, bf = report.module_flops(), baseline.module_flops()
    return DeltaSummary(
        name=report.name,
        baseline=baseline.name,
        params_delta=report.total_params - baseline.total_params,
        flops_delta=report.total_flops - baseline.total_flops,
        module_params_delta={m: rp.get(m, 0) - bp.get(m, 0) for m in mods},
        module_flops_delta={m: rf.get(m, 0) - bf.get(m, 0) for m in mods},
    )
