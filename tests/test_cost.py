"""Static cost accounting: exact parameter counts, FLOP conventions, and
deltas against the plain pyramid baseline.

Reference-scale expectations, each confirmed by hand before being frozen:

* scheme-a reduction  2048*1024 + 1024                  = 2,098,176
* context module      9*2048*1024 + 2048*4096 + 2048*256
                      = 27,787,264 weights + 5,376 bias = 27,792,640
* attention module    2*(256*8 + 8) + 2*(8*256 + 256)   = 8,720
* baseline neck       984,064 laterals + 2,360,320 post = 3,344,384
* full neck delta     26,686,736 (within 5% of the reference 27,280,000)

Desk-scale (width 16, reduction 4) hand sums:

* baseline 13,184; scheme-a delta 8,256; context delta 104,496;
  attention delta 296; full delta 104,792.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cefpn.neck
import cefpn.tensor
from cefpn import ConfigError, ContractError, NeckConfig, cefpn_report, compare_to_baseline, \
    fpn_baseline_report, init_neck_params, scale, variant_report
from cefpn.cost import KIND_ELEMENTWISE, KIND_MAC

GEOM = (64, 64)


def ref_config(**kw):
    base = dict(base_channel=256, attention_reduction=32)
    base.update(kw)
    return NeckConfig(**base)


def desk_config(**kw):
    base = dict(base_channel=16, attention_reduction=4)
    base.update(kw)
    return NeckConfig(**base)


def mac_rows(report):
    return {e.layer: (e.module, e.params) for e in report.entries if e.kind == KIND_MAC}


def allocated_layers(params):
    return {name: (module, spec.weight.size + spec.bias.size)
            for name, module, spec in params.named_layers()}


def allocated_scalars(params):
    return sum(t.size for _name, t in params.named_parameters())


class TestParamCounts:
    def test_counts_equal_allocated_scalars_desk(self):
        config = desk_config()
        params = init_neck_params(config, 0)
        report = cefpn_report(config, GEOM)
        assert report.total_params == allocated_scalars(params) == 117976

    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    @pytest.mark.parametrize("keep5", [False, True])
    def test_mac_rows_are_the_allocated_layers(self, scheme, keep5):
        config = desk_config(ssf_scheme=scheme, include_f5_p5=keep5)
        params = init_neck_params(config, 0)
        report = cefpn_report(config, GEOM)
        assert mac_rows(report) == allocated_layers(params)
        assert report.total_params == allocated_scalars(params)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["a", "b", "c"]), st.sampled_from([8, 16, 32]),
           st.booleans())
    def test_counts_equal_allocated_scalars_property(self, scheme, width, keep5):
        config = NeckConfig(base_channel=width, ssf_scheme=scheme,
                            attention_reduction=4, include_f5_p5=keep5)
        params = init_neck_params(config, 1)
        report = cefpn_report(config, (128, 64))
        assert mac_rows(report) == allocated_layers(params)
        assert report.total_params == allocated_scalars(params)

    def test_subtotals_sum_to_entries(self):
        report = cefpn_report(ref_config(), GEOM)
        assert sum(report.module_params().values()) == report.total_params
        assert sum(report.module_flops().values()) == report.total_flops

    def test_params_are_geometry_independent(self):
        a = cefpn_report(ref_config(), (64, 64))
        b = cefpn_report(ref_config(), (256, 128))
        assert a.total_params == b.total_params

    def test_scheme_a_reduction_layer_count(self):
        report = cefpn_report(ref_config(ssf_scheme="a"), GEOM)
        by_name = {e.layer: e.params for e in report.entries}
        assert by_name["ssf.reduce_C5"] == 2098176

    def test_sce_layer_sum_reference_scale(self):
        report = cefpn_report(ref_config(), GEOM)
        assert report.module_params()["sce"] == 27792640

    def test_cag_layer_sum_reference_scale(self):
        report = cefpn_report(ref_config(), GEOM)
        assert report.module_params()["cag"] == 8720

    def test_baseline_reference_scale(self):
        report = fpn_baseline_report(256, GEOM)
        assert report.total_params == 3344384
        assert report.module_params()["lateral"] == 984064
        assert report.module_params()["post_merge"] == 2360320


class TestDeltas:
    def test_baseline_vs_itself_is_all_zero(self):
        base = fpn_baseline_report(256, GEOM)
        delta = compare_to_baseline(base, base)
        assert delta.params_delta == 0 and delta.flops_delta == 0
        assert all(v == 0 for v in delta.module_params_delta.values())

    def test_ssf_scheme_c_adds_nothing(self):
        base = fpn_baseline_report(256, GEOM)
        delta = compare_to_baseline(variant_report("ssf_c", 256, GEOM), base)
        assert delta.params_delta == 0
        assert delta.flops_delta == 0

    def test_ssf_scheme_b_adds_nothing(self):
        base = fpn_baseline_report(256, GEOM)
        delta = compare_to_baseline(variant_report("ssf_b", 256, GEOM), base)
        assert delta.params_delta == 0 and delta.flops_delta == 0

    def test_ssf_scheme_a_delta(self):
        base = fpn_baseline_report(256, GEOM)
        delta = compare_to_baseline(variant_report("ssf_a", 256, GEOM), base)
        assert delta.params_delta == 2098176
        assert abs(delta.params_delta - 2.10e6) <= 0.01e6

    def test_cag_delta_is_exact(self):
        base = fpn_baseline_report(256, GEOM)
        delta = compare_to_baseline(variant_report("cag", 256, GEOM), base)
        assert delta.params_delta == 8720

    def test_full_model_delta_within_five_percent(self):
        base = fpn_baseline_report(256, GEOM)
        delta = compare_to_baseline(cefpn_report(ref_config(), GEOM), base)
        assert delta.params_delta == 26686736
        assert abs(delta.params_delta - 27.28e6) / 27.28e6 < 0.05

    def test_full_delta_decomposes_into_module_sums(self):
        # total gain = context module + attention module - dropped level-5 layers
        full = cefpn_report(ref_config(), GEOM)
        base = fpn_baseline_report(256, GEOM)
        sce = full.module_params()["sce"]
        cag = full.module_params()["cag"]
        lateral5 = 2048 * 256 + 256
        post5 = 9 * 256 * 256 + 256
        delta = compare_to_baseline(full, base).params_delta
        assert delta == sce + cag - (lateral5 + post5)

    def test_desk_scale_deltas_match_hand_sums(self):
        base = fpn_baseline_report(16, GEOM)
        assert base.total_params == 13184
        expected = {"ssf_a": 8256, "ssf_b": 0, "ssf_c": 0, "sce": 104496, "cag": 296}
        for variant, want in expected.items():
            got = compare_to_baseline(
                variant_report(variant, 16, GEOM, attention_reduction=4), base)
            assert got.params_delta == want, variant
        full = compare_to_baseline(cefpn_report(desk_config(), GEOM), base)
        assert full.params_delta == 104792

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ContractError):
            compare_to_baseline(cefpn_report(ref_config(), (64, 64)),
                                fpn_baseline_report(256, (128, 128)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ContractError):
            compare_to_baseline(cefpn_report(desk_config(), GEOM),
                                fpn_baseline_report(256, GEOM))


class TestFlops:
    def test_single_conv_hand_arithmetic(self):
        # one 1x1 convolution 256 -> 256 on a 32x32 map under mac=2
        report = fpn_baseline_report(256, (128, 128))
        by_name = {e.layer: e.flops for e in report.entries}
        assert by_name["lateral.C2"] == 2 * 256 * 256 * 32 * 32 == 134217728

    def test_ssf_scheme_c_zero_flops_under_both_conventions(self):
        for mac in (1, 2):
            base = fpn_baseline_report(256, GEOM, mac_convention=mac)
            delta = compare_to_baseline(variant_report("ssf_c", 256, GEOM, mac_convention=mac), base)
            assert delta.flops_delta == 0

    def test_doubling_area_doubles_every_conv_layer(self):
        small = cefpn_report(ref_config(), (64, 64))
        big = cefpn_report(ref_config(), (128, 64))
        flops_small = {e.layer: e.flops for e in small.entries if e.kind == KIND_MAC
                       and e.layer.startswith(("lateral", "post", "ssf", "sce."))}
        flops_big = {e.layer: e.flops for e in big.entries if e.layer in flops_small}
        for layer, f in flops_small.items():
            if "squeeze" in layer:  # 1x1 output, area independent
                assert flops_big[layer] == f
            else:
                assert flops_big[layer] == 2 * f, layer

    def test_mac_switch_scales_mac_entries_exactly(self):
        one = cefpn_report(ref_config(), GEOM, mac_convention=1)
        two = cefpn_report(ref_config(), GEOM, mac_convention=2)
        for e1, e2 in zip(one.entries, two.entries):
            assert e1.layer == e2.layer
            if e1.kind == KIND_MAC:
                assert e2.flops == 2 * e1.flops
            else:
                assert e2.flops == e1.flops

    def test_elementwise_counted_one_per_element(self):
        report = cefpn_report(desk_config(), GEOM)
        by_name = {e.layer: e for e in report.entries}
        # top-down sum over the stride-8 map: c * (64/8)^2
        assert by_name["top_down.add_F3"].flops == 16 * 8 * 8
        assert by_name["top_down.add_F3"].kind == KIND_ELEMENTWISE
        # attention product on R2: c * (64/4)^2
        assert by_name["cag.apply_R2"].flops == 16 * 16 * 16

    def test_bad_mac_convention_rejected(self):
        with pytest.raises(ConfigError):
            fpn_baseline_report(256, GEOM, mac_convention=3)
        with pytest.raises(ConfigError):  # True == 1, but a bool is not a convention
            cefpn_report(NeckConfig(16, attention_reduction=4), GEOM, mac_convention=True)

    def test_baseline_rows_in_module_then_execution_order(self):
        # top_down lists its rows as the merge runs them, top level first
        report = fpn_baseline_report(16, GEOM)
        assert [e.layer for e in report.entries] == [
            "lateral.C2", "lateral.C3", "lateral.C4", "lateral.C5",
            "top_down.upsample_to_F4", "top_down.add_F4", "top_down.upsample_to_F3",
            "top_down.add_F3", "top_down.upsample_to_F2", "top_down.add_F2",
            "post_merge.P2", "post_merge.P3", "post_merge.P4", "post_merge.P5"]


class TestTrace:
    @pytest.mark.parametrize("build", [
        lambda: fpn_baseline_report(6, GEOM),
        lambda: variant_report("ssf_c", 16, GEOM),
        lambda: variant_report("cag", 16, GEOM, attention_reduction=5),
    ])
    def test_rejects_what_the_neck_rejects(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_unscoped_charged_op_fails_the_table(self, monkeypatch):
        real = cefpn.neck.build_integration_map
        monkeypatch.setattr(cefpn.neck, "build_integration_map",
                            lambda *maps: scale(real(*maps), 1.0))
        with pytest.raises(ContractError, match="scale ran outside any scope"):
            cefpn_report(desk_config(), GEOM)
        assert cefpn.tensor._trace is None
        monkeypatch.undo()
        assert cefpn_report(desk_config(), GEOM).total_params == 117976

    def test_trace_allocates_no_parameters(self):
        import tracemalloc
        tracemalloc.start()
        try:
            cefpn_report(ref_config(), (1024, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the width-256 parameters alone are 245 MiB in float64


class TestReportShape:
    def test_dict_has_contracted_field_names(self):
        doc = cefpn_report(desk_config(), GEOM).to_dict()
        assert {"name", "convention", "entries", "totals"} <= set(doc)
        for entry in doc["entries"]:
            assert {"layer", "module", "params", "flops", "convention"} <= set(entry)

    def test_text_table_lists_every_entry(self):
        report = fpn_baseline_report(16, GEOM)
        text = report.to_text()
        for e in report.entries:
            assert e.layer in text
        assert "TOTAL" in text
