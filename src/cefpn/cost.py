"""Static parameter and FLOP accounting for the neck and its ablations.

Parameter counts are exact integers and geometry independent: a convolution
costs out*in*k*k (+out bias), a fully connected layer out*in (+out bias),
and rearrangements cost nothing. FLOPs are counted per image at a stated
input geometry: MAC-bearing layers cost mac*out*in*k*k*h_out*w_out with the
multiply-accumulate convention (1 or 2) recorded in the report; structural
elementwise sums and products cost 1 per element; pooling, interpolation,
pixel shuffling, and nonlinearities cost 0.

Sub-pixel skip fusion is charged only for layers it allocates: schemes b
and c are pure rearrangement plus fusion sums and report 0 FLOPs, keeping
the defining property that the sub-pixel connections add no computation
(the uncharged sums are orders of magnitude below the conv totals anyway).

Comparisons against a plain feature pyramid baseline (laterals C2..C5,
post-merge 3x3 convolutions P2..P5) reproduce the reference deltas:
+2,098,176 parameters for scheme a, zero for schemes b/c, +8,720 for the
attention module, and the full neck within 5% of the +27.28M total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backbone import check_geometry
from .errors import ConfigError, ContractError
from .neck import NeckConfig, NeckParams
from .ops import ConvSpec, LinearSpec

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
    bias_enabled: bool
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
        convention = {"mac": self.mac_convention, "bias": self.bias_enabled}
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
                m: {"params": p, "flops": self.module_flops()[m]}
                for m, p in self.module_params().items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"cost report: {self.name}  (width {self.base_channel}, "
            f"geometry {self.geometry[0]}x{self.geometry[1]}, "
            f"mac={self.mac_convention}, bias={'on' if self.bias_enabled else 'off'})",
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


class _Builder:
    """Accumulates entries for one model variant at one geometry."""

    def __init__(self, c: int, height: int, width: int, mac: int, bias: bool):
        if mac not in MAC_CONVENTIONS:
            raise ConfigError(f"mac convention must be one of {MAC_CONVENTIONS}, got {mac}")
        check_geometry(height, width)
        self.c = c
        self.mac = mac
        self.bias = bias
        self.extent = {i: (height >> i, width >> i) for i in (2, 3, 4, 5)}
        self.entries: list[CostEntry] = []

    def conv(self, layer: str, module: str, cin: int, cout: int, k: int,
             out_extent: tuple[int, int]) -> None:
        params = cout * cin * k * k + (cout if self.bias else 0)
        flops = self.mac * cout * cin * k * k * out_extent[0] * out_extent[1]
        self.entries.append(CostEntry(layer, module, KIND_MAC, params, flops))

    def fc(self, layer: str, module: str, fin: int, fout: int) -> None:
        params = fout * fin + (fout if self.bias else 0)
        self.entries.append(CostEntry(layer, module, KIND_MAC, params, self.mac * fout * fin))

    def elementwise(self, layer: str, module: str, count: int) -> None:
        self.entries.append(CostEntry(layer, module, KIND_ELEMENTWISE, 0, count))

    def free(self, layer: str, module: str) -> None:
        self.entries.append(CostEntry(layer, module, KIND_FREE, 0, 0))

    # structural pieces -----------------------------------------------------

    def laterals(self, levels: tuple[int, ...]) -> None:
        for i in levels:
            cin = self.c * (1 << (i - 2))
            self.conv(f"lateral.C{i}", "lateral", cin, self.c, 1, self.extent[i])

    def post_merge(self, levels: tuple[int, ...]) -> None:
        for i in levels:
            self.conv(f"post_merge.P{i}", "post_merge", self.c, self.c, 3, self.extent[i])

    def top_down(self, levels: tuple[int, ...]) -> None:
        below_top = sorted(levels)[:-1]
        for i in below_top:
            h, w = self.extent[i]
            self.free(f"top_down.upsample_to_F{i}", "top_down")
            self.elementwise(f"top_down.add_F{i}", "top_down", self.c * h * w)

    def ssf(self, scheme: str) -> None:
        # C4 -> F3: channel count is already 4x the pyramid width.
        self.free("ssf.shuffle_C4", "ssf")
        self.free("ssf.fuse_F3", "ssf")
        if scheme == "a":
            self.conv("ssf.reduce_C5", "ssf", 8 * self.c, 4 * self.c, 1, self.extent[5])
            self.free("ssf.shuffle_C5", "ssf")
        elif scheme == "b":
            self.free("ssf.shuffle_C5_half", "ssf")
        else:
            self.free("ssf.shuffle_C5_lo", "ssf")
            self.free("ssf.shuffle_C5_hi", "ssf")
        self.free("ssf.fuse_F4", "ssf")

    def sce(self) -> None:
        h5, w5 = self.extent[5]
        pooled = ((h5 - 1) // 2 + 1, (w5 - 1) // 2 + 1)
        out = (2 * h5, 2 * w5)
        self.conv("sce.local_3x3", "sce", 8 * self.c, 4 * self.c, 3, self.extent[5])
        self.free("sce.local_shuffle", "sce")
        self.free("sce.pool_3x3", "sce")
        self.conv("sce.wide_1x1", "sce", 8 * self.c, 16 * self.c, 1, pooled)
        self.free("sce.wide_shuffle", "sce")
        self.free("sce.global_pool", "sce")
        self.conv("sce.squeeze_1x1", "sce", 8 * self.c, self.c, 1, (1, 1))
        self.free("sce.broadcast", "sce")
        self.elementwise("sce.aggregate", "sce", 2 * self.c * out[0] * out[1])

    def integration(self) -> None:
        h, w = self.extent[4]
        self.free("integration.pool_P2", "integration")
        self.free("integration.pool_P3", "integration")
        self.elementwise("integration.mean", "integration", 3 * self.c * h * w)
        self.elementwise("integration.add_context", "integration", self.c * h * w)

    def cag(self, reduction: int, output_levels: dict[int, tuple[int, int]]) -> None:
        hidden = self.c // reduction
        self.free("cag.avg_pool", "cag")
        self.free("cag.max_pool", "cag")
        self.fc("cag.fc1_squeeze", "cag", self.c, hidden)
        self.fc("cag.fc1_expand", "cag", hidden, self.c)
        self.fc("cag.fc2_squeeze", "cag", self.c, hidden)
        self.fc("cag.fc2_expand", "cag", hidden, self.c)
        self.elementwise("cag.merge", "cag", self.c)
        self.free("cag.sigmoid", "cag")
        for i, (h, w) in sorted(output_levels.items()):
            self.elementwise(f"cag.apply_R{i}", "cag", self.c * h * w)

    def report(self, name: str, height: int, width: int) -> CostReport:
        return CostReport(name, self.c, (height, width), self.mac, self.bias,
                          tuple(self.entries))


def fpn_baseline_report(base_channel: int, geometry: tuple[int, int],
                        mac_convention: int = 2, bias: bool = True) -> CostReport:
    """The plain feature pyramid neck used as the comparison baseline:
    laterals for C2..C5 (F5 included) and post-merge convolutions P2..P5."""
    h, w = geometry
    b = _Builder(base_channel, h, w, mac_convention, bias)
    levels = (2, 3, 4, 5)
    b.laterals(levels)
    b.top_down(levels)
    b.post_merge(levels)
    return b.report("baseline", h, w)


def cefpn_report(config: NeckConfig, geometry: tuple[int, int],
                 mac_convention: int = 2, bias: bool = True,
                 name: str = "cefpn") -> CostReport:
    """The full neck for the given configuration."""
    h, w = geometry
    b = _Builder(config.base_channel, h, w, mac_convention, bias)
    b.laterals(config.levels)
    b.ssf(config.ssf_scheme)
    b.top_down(config.levels)
    b.post_merge(config.levels)
    b.sce()
    b.integration()
    outputs = {i: b.extent[i] for i in (2, 3, 4)}
    outputs[5] = b.extent[5]  # P5 when kept, else the stride-2 subsample of P4
    b.cag(config.attention_reduction, outputs)
    if not config.include_f5_p5:
        b.free("output.R5_subsample", "output")
    return b.report(name, h, w)


def variant_report(variant: str, base_channel: int, geometry: tuple[int, int],
                   mac_convention: int = 2, bias: bool = True,
                   attention_reduction: int = 32) -> CostReport:
    """Baseline plus a single mechanism, as in the reference ablation table.

    ``ssf_a``/``ssf_b``/``ssf_c`` and ``cag`` keep F5/P5 alongside the added
    module; ``sce`` removes F5/P5 (the adopted configuration).
    """
    h, w = geometry
    b = _Builder(base_channel, h, w, mac_convention, bias)
    if variant in ("ssf_a", "ssf_b", "ssf_c"):
        levels = (2, 3, 4, 5)
        b.laterals(levels)
        b.ssf(variant[-1])
        b.top_down(levels)
        b.post_merge(levels)
    elif variant == "sce":
        levels = (2, 3, 4)
        b.laterals(levels)
        b.top_down(levels)
        b.post_merge(levels)
        b.sce()
        b.integration()
    elif variant == "cag":
        levels = (2, 3, 4, 5)
        b.laterals(levels)
        b.top_down(levels)
        b.post_merge(levels)
        b.cag(attention_reduction, {i: b.extent[i] for i in levels})
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    return b.report(variant, h, w)


def _layer_dims(spec: ConvSpec | LinearSpec) -> tuple[int, int, int]:
    if isinstance(spec, ConvSpec):
        return spec.in_channels, spec.out_channels, spec.kernel
    return spec.in_features, spec.out_features, 1


def count_params(params: NeckParams, config: NeckConfig) -> CostReport:
    """Exact parameter counts for the layers actually allocated.

    The formula total equals ``params.scalar_count()`` (cross-checked in the
    property suite); flops are left at zero here.
    """
    entries = []
    bias_flags = set()
    for name, module, spec in params.named_layers():
        cin, cout, k = _layer_dims(spec)
        n = cout * cin * k * k + (cout if spec.bias_enabled else 0)
        entries.append(CostEntry(name, module, KIND_MAC, n, 0))
        bias_flags.add(spec.bias_enabled)
    bias = bias_flags == {True}
    return CostReport("params", config.base_channel, (0, 0), 2, bias, tuple(entries))


def count_flops(params: NeckParams, config: NeckConfig, geometry: tuple[int, int],
                mac_convention: int = 2) -> CostReport:
    """Full cost report (params and flops) at the given image geometry."""
    bias = all(spec.bias_enabled for _n, _m, spec in params.named_layers())
    return cefpn_report(config, geometry, mac_convention, bias)


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
