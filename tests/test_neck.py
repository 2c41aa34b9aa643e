"""Neck mechanisms: skip fusion, top-down merge, context enhancement,
attention guidance, and the assembled forward pass."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cefpn import BackbonePyramid, ConfigError, ConvSpec, LinearSpec, NeckConfig, \
    NeckParams, ShapeError, Tensor, add, build_integration_map, cag_apply, cag_weights, \
    cefpn_forward, conv2d, global_avg_pool, global_max_pool, head_stage, init_neck_params, \
    interpolate_nearest, linear, max_pool2d, pixel_shuffle, pyramid_stage, sce_forward, \
    ssf_fuse, synthetic_backbone, top_down_merge
from cefpn.tensor import broadcast_spatial, channel_slice, mul_channelwise, relu, \
    scale, sigmoid, squeeze_spatial, sum_all


def rand(shape, seed):
    return Tensor(np.random.default_rng(seed).uniform(-1, 1, shape))


def zero_conv(cin, cout, k):
    return ConvSpec(cin, cout, k, Tensor(np.zeros((cout, cin, k, k))), Tensor(np.zeros(cout)))


def const_conv(cin, cout, k, value):
    return ConvSpec(cin, cout, k, Tensor(np.full((cout, cin, k, k), value)),
                    Tensor(np.zeros(cout)))


def desk_config(**kw):
    base = dict(base_channel=16, attention_reduction=4)
    base.update(kw)
    return NeckConfig(**base)


def desk_setup(seed=0, **kw):
    config = desk_config(**kw)
    params = init_neck_params(config, seed)
    pyramid = synthetic_backbone(config.base_channel, 64, 64, seed=seed + 1)
    return config, params, pyramid


class TestConfig:
    def test_defaults_follow_reference_scale(self):
        cfg = NeckConfig()
        assert cfg.base_channel == 256 and cfg.ssf_scheme == "c"
        assert cfg.attention_reduction == 32 and not cfg.include_f5_p5

    def test_width_must_be_multiple_of_four(self):
        with pytest.raises(ConfigError):
            NeckConfig(base_channel=18)

    def test_reduction_must_divide_width(self):
        with pytest.raises(ConfigError):
            NeckConfig(base_channel=16, attention_reduction=32)

    def test_scheme_validated(self):
        with pytest.raises(ConfigError):
            NeckConfig(ssf_scheme="d")

    @pytest.mark.parametrize("field, value", [
        ("base_channel", 16.0), ("attention_reduction", True),
        ("include_f5_p5", "no"), ("ssf_scheme", None)])
    def test_field_types_checked(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            NeckConfig(**{field: value})

    def test_backbone_invariants(self):
        with pytest.raises(ConfigError):
            BackbonePyramid(c2=rand((1, 16, 16, 16), 0), c3=rand((1, 16, 8, 8), 1),
                            c4=rand((1, 64, 4, 4), 2), c5=rand((1, 128, 2, 2), 3))
        with pytest.raises(ShapeError):
            BackbonePyramid(c2=rand((1, 16, 16, 16), 0), c3=rand((1, 32, 9, 8), 1),
                            c4=rand((1, 64, 4, 4), 2), c5=rand((1, 128, 2, 2), 3))


class TestSsfFuse:
    def test_4x_source_uses_identity_transform(self):
        _cfg, params, _pyr = desk_setup()
        c4 = rand((1, 64, 4, 4), 10)
        f3 = rand((1, 16, 8, 8), 11)
        got = ssf_fuse(c4, f3, "c", params)
        expect = add(f3, pixel_shuffle(c4, 2))
        assert np.array_equal(got.data, expect.data)

    def test_scheme_c_with_zero_target_is_sum_of_halves(self):
        _cfg, params, _pyr = desk_setup()
        c5 = rand((1, 128, 2, 2), 12)
        zero = Tensor(np.zeros((1, 16, 4, 4)))
        got = ssf_fuse(c5, zero, "c", params)
        expect = add(pixel_shuffle(channel_slice(c5, 0, 64), 2),
                     pixel_shuffle(channel_slice(c5, 64, 128), 2))
        np.testing.assert_allclose(got.data, expect.data, atol=1e-12)

    def test_scheme_b_keeps_first_half_only(self):
        _cfg, params, _pyr = desk_setup()
        c5 = rand((1, 128, 2, 2), 13)
        f4 = rand((1, 16, 4, 4), 14)
        got = ssf_fuse(c5, f4, "b", params)
        expect = add(f4, pixel_shuffle(channel_slice(c5, 0, 64), 2))
        assert np.array_equal(got.data, expect.data)

    def test_scheme_a_matches_conv_shuffle_composition(self):
        _cfg, params, _pyr = desk_setup(ssf_scheme="a")
        c5 = rand((1, 128, 2, 2), 15)
        f4 = rand((1, 16, 4, 4), 16)
        got = ssf_fuse(c5, f4, "a", params)
        expect = add(f4, pixel_shuffle(conv2d(c5, params.ssf_reduce), 2))
        np.testing.assert_allclose(got.data, expect.data, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_schemes_b_c_agree_when_second_half_zero(self, seed):
        _cfg, params, _pyr = desk_setup()
        rng = np.random.default_rng(seed)
        data = np.zeros((1, 128, 2, 2))
        data[:, :64] = rng.uniform(-1, 1, (1, 64, 2, 2))
        c5 = Tensor(data)
        f4 = Tensor(rng.uniform(-1, 1, (1, 16, 4, 4)))
        b = ssf_fuse(c5, f4, "b", params)
        c = ssf_fuse(c5, f4, "c", params)
        np.testing.assert_allclose(b.data, c.data, atol=1e-15)

    def test_bad_channel_multiple_rejected(self):
        _cfg, params, _pyr = desk_setup()
        with pytest.raises(ConfigError):
            ssf_fuse(rand((1, 96, 2, 2), 17), rand((1, 16, 4, 4), 18), "c", params)

    def test_spatial_mismatch_rejected(self):
        _cfg, params, _pyr = desk_setup()
        with pytest.raises(ShapeError):
            ssf_fuse(rand((1, 128, 2, 2), 19), rand((1, 16, 6, 6), 20), "c", params)


class TestTopDownMerge:
    def test_single_level_degenerate(self):
        _cfg, params, _pyr = desk_setup()
        f4 = rand((1, 16, 4, 4), 21)
        got = top_down_merge({4: f4}, params)
        assert set(got) == {4}
        np.testing.assert_allclose(got[4].data, conv2d(f4, params.post_convs[4]).data)

    def test_zero_laterals_zero_bias_give_zero_pyramid(self):
        config = desk_config()
        params = init_neck_params(config, 0)
        params.post_convs = {i: dataclasses.replace(spec, bias=Tensor(np.zeros(spec.out_channels)))
                             for i, spec in params.post_convs.items()}
        zeros = {i: Tensor(np.zeros((1, 16, 2 ** (6 - i), 2 ** (6 - i)))) for i in (2, 3, 4)}
        out = top_down_merge(zeros, params)
        for t in out.values():
            assert np.all(t.data == 0.0)

    def test_two_level_matches_composition_oracle(self):
        _cfg, params, _pyr = desk_setup()
        f3, f4 = rand((1, 16, 8, 8), 22), rand((1, 16, 4, 4), 23)
        got = top_down_merge({3: f3, 4: f4}, params)
        p4 = conv2d(f4, params.post_convs[4])
        p3 = conv2d(add(f3, interpolate_nearest(f4, 2)), params.post_convs[3])
        np.testing.assert_allclose(got[4].data, p4.data, atol=1e-12)
        np.testing.assert_allclose(got[3].data, p3.data, atol=1e-12)

    def test_width_mismatch_rejected(self):
        _cfg, params, _pyr = desk_setup()
        with pytest.raises(ShapeError):
            top_down_merge({3: rand((1, 8, 8, 8), 24), 4: rand((1, 16, 4, 4), 25)}, params)


class TestSce:
    def test_reference_scale_shape_contract(self):
        rng = np.random.default_rng(0)
        params = NeckParams(
            laterals={}, post_convs={}, ssf_reduce=None,
            sce_local=ConvSpec.seeded(rng, 2048, 1024, 3),
            sce_wide=ConvSpec.seeded(rng, 2048, 4096, 1),
            sce_squeeze=ConvSpec.seeded(rng, 2048, 256, 1),
            cag_fc1_squeeze=LinearSpec.seeded(rng, 256, 8),
            cag_fc1_expand=LinearSpec.seeded(rng, 8, 256),
            cag_fc2_squeeze=LinearSpec.seeded(rng, 256, 8),
            cag_fc2_expand=LinearSpec.seeded(rng, 8, 256),
        )
        out = sce_forward(rand((1, 2048, 16, 16), 26), params)
        assert out.shape == (1, 256, 32, 32)

    def test_zero_weights_give_zero_output(self):
        params = init_neck_params(desk_config(), 0)
        zeroed = NeckParams(
            laterals=params.laterals, post_convs=params.post_convs, ssf_reduce=None,
            sce_local=zero_conv(128, 64, 3), sce_wide=zero_conv(128, 256, 1),
            sce_squeeze=zero_conv(128, 16, 1),
            cag_fc1_squeeze=params.cag_fc1_squeeze, cag_fc1_expand=params.cag_fc1_expand,
            cag_fc2_squeeze=params.cag_fc2_squeeze, cag_fc2_expand=params.cag_fc2_expand,
        )
        out = sce_forward(rand((1, 128, 4, 4), 27), zeroed)
        assert np.all(out.data == 0.0)

    def test_global_pathway_alone_broadcasts_scalar(self):
        params = init_neck_params(desk_config(), 0)
        k = 0.375
        pathway3 = NeckParams(
            laterals={}, post_convs={}, ssf_reduce=None,
            sce_local=zero_conv(128, 64, 3), sce_wide=zero_conv(128, 256, 1),
            sce_squeeze=const_conv(128, 16, 1, 1.0),  # per-channel sum of the pooled map
            cag_fc1_squeeze=params.cag_fc1_squeeze, cag_fc1_expand=params.cag_fc1_expand,
            cag_fc2_squeeze=params.cag_fc2_squeeze, cag_fc2_expand=params.cag_fc2_expand,
        )
        out = sce_forward(Tensor(np.full((1, 128, 4, 4), k)), pathway3)
        np.testing.assert_allclose(out.data, 128 * k, rtol=1e-12)

    def test_matches_three_pathway_composition_oracle(self):
        _cfg, params, _pyr = desk_setup(seed=5)
        c5 = rand((2, 128, 4, 4), 28)
        got = sce_forward(c5, params)
        local = pixel_shuffle(conv2d(c5, params.sce_local), 2)
        wide = pixel_shuffle(conv2d(max_pool2d(c5, 3, 2, 1), params.sce_wide), 4)
        squeezed = conv2d(global_avg_pool(c5), params.sce_squeeze)
        ctx = broadcast_spatial(squeezed, 8, 8)
        expect = add(add(local, wide), ctx)
        np.testing.assert_allclose(got.data, expect.data, atol=1e-12)

    def test_wrong_channel_count_rejected(self):
        _cfg, params, _pyr = desk_setup()
        with pytest.raises(ConfigError):
            sce_forward(rand((1, 64, 4, 4), 29), params)

    def test_odd_extent_rejected(self):
        _cfg, params, _pyr = desk_setup()
        with pytest.raises(ShapeError):
            sce_forward(rand((1, 128, 3, 4), 30), params)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 4))
    def test_output_is_twice_the_input_extent(self, n, hh, ww):
        _cfg, params, _pyr = desk_setup()
        c5 = rand((n, 128, 2 * hh, 2 * ww), 31)
        assert sce_forward(c5, params).shape == (n, 16, 4 * hh, 4 * ww)


class TestIntegrationMap:
    def test_constant_levels_average_to_constant(self):
        v = 1.25
        p2 = Tensor(np.full((1, 16, 16, 16), v))
        p3 = Tensor(np.full((1, 16, 8, 8), v))
        p4 = Tensor(np.full((1, 16, 4, 4), v))
        out = build_integration_map(p2, p3, p4, Tensor(np.zeros((1, 16, 4, 4))))
        np.testing.assert_allclose(out.data, v, rtol=1e-14)

    def test_zero_levels_pass_context_through(self):
        s = rand((1, 16, 4, 4), 32)
        zeros = [Tensor(np.zeros((1, 16, e, e))) for e in (16, 8, 4)]
        out = build_integration_map(*zeros, s)
        np.testing.assert_allclose(out.data, s.data, atol=1e-15)

    def test_matches_resize_mean_add_oracle(self):
        p2, p3, p4 = rand((1, 16, 16, 16), 33), rand((1, 16, 8, 8), 34), rand((1, 16, 4, 4), 35)
        s = rand((1, 16, 4, 4), 36)
        got = build_integration_map(p2, p3, p4, s)
        mean = scale(add(add(max_pool2d(p2, 4, 4), max_pool2d(p3, 2, 2)), p4), 1.0 / 3.0)
        expect = add(mean, s)
        np.testing.assert_allclose(got.data, expect.data, rtol=1e-14)

    def test_context_resolution_mismatch_rejected(self):
        p2, p3, p4 = rand((1, 16, 16, 16), 37), rand((1, 16, 8, 8), 38), rand((1, 16, 4, 4), 39)
        with pytest.raises(ShapeError):
            build_integration_map(p2, p3, p4, rand((1, 16, 8, 8), 40))


class TestCag:
    def test_all_zero_parameters_give_half_weights(self):
        params = init_neck_params(desk_config(), 0)
        zeroed = NeckParams(
            laterals=params.laterals, post_convs=params.post_convs, ssf_reduce=None,
            sce_local=params.sce_local, sce_wide=params.sce_wide,
            sce_squeeze=params.sce_squeeze,
            cag_fc1_squeeze=LinearSpec(16, 4, Tensor(np.zeros((4, 16))), Tensor(np.zeros(4))),
            cag_fc1_expand=LinearSpec(4, 16, Tensor(np.zeros((16, 4))), Tensor(np.zeros(16))),
            cag_fc2_squeeze=LinearSpec(16, 4, Tensor(np.zeros((4, 16))), Tensor(np.zeros(4))),
            cag_fc2_expand=LinearSpec(4, 16, Tensor(np.zeros((16, 4))), Tensor(np.zeros(16))),
        )
        w = cag_weights(rand((1, 16, 4, 4), 41), zeroed)
        assert np.all(w.data == 0.5)

    def test_reference_scale_parameter_count(self):
        rng = np.random.default_rng(0)
        layers = [LinearSpec.seeded(rng, 256, 8), LinearSpec.seeded(rng, 8, 256),
                  LinearSpec.seeded(rng, 256, 8), LinearSpec.seeded(rng, 8, 256)]
        assert sum(s.weight.size + s.bias.size for s in layers) == 8720

    def test_matches_pool_linear_sigmoid_composition(self):
        _cfg, params, _pyr = desk_setup(seed=9)
        integration = rand((2, 16, 4, 4), 42)
        got = cag_weights(integration, params)
        avg = squeeze_spatial(global_avg_pool(integration))
        mx = squeeze_spatial(global_max_pool(integration))
        v1 = linear(relu(linear(avg, params.cag_fc1_squeeze)), params.cag_fc1_expand)
        v2 = linear(relu(linear(mx, params.cag_fc2_squeeze)), params.cag_fc2_expand)
        expect = sigmoid(add(v1, v2))
        np.testing.assert_allclose(got.data, expect.data, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_weights_strictly_inside_unit_interval(self, seed):
        _cfg, params, _pyr = desk_setup()
        w = cag_weights(rand((1, 16, 4, 4), seed), params)
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)

    def test_width_mismatch_rejected(self):
        _cfg, params, _pyr = desk_setup()
        with pytest.raises(ConfigError):
            cag_weights(rand((1, 8, 4, 4), 43), params)

    def test_apply_ones_is_identity(self):
        p = rand((1, 16, 8, 8), 44)
        out = cag_apply(p, Tensor(np.ones((1, 16))))
        assert np.array_equal(out.data, p.data)

    def test_apply_zeros_gives_zero(self):
        p = rand((1, 16, 8, 8), 45)
        assert np.all(cag_apply(p, Tensor(np.zeros((1, 16)))).data == 0.0)

    def test_apply_matches_elementwise_product(self):
        p = rand((2, 16, 4, 4), 46)
        w = rand((2, 16), 47)
        got = cag_apply(p, w)
        expect = p.data * w.data.reshape(2, 16, 1, 1)
        assert np.array_equal(got.data, expect)

    @pytest.mark.parametrize("shape", [(1, 8), (16,)])
    def test_apply_length_mismatch_rejected(self, shape):
        with pytest.raises(ShapeError):
            cag_apply(rand((1, 16, 4, 4), 48), Tensor(np.ones(shape)))


def desk_forward(params, backbone_width=16, **config_kw):
    backbone = synthetic_backbone(backbone_width, 64, 64, seed=1)
    return cefpn_forward(backbone, params, desk_config(**config_kw))


# (call over desk scheme-c parameters, error class, scope path and op the error names)
STAGE_REJECTIONS = {
    "ssf F4 extent": (lambda p: ssf_fuse(rand((1, 128, 2, 2), 0), rand((1, 16, 6, 6), 1), "c", p),
                      ShapeError, "ssf.fuse_F4: add: "),
    "ssf F3 extent": (lambda p: ssf_fuse(rand((1, 64, 2, 2), 0), rand((1, 16, 6, 6), 1), "c", p),
                      ShapeError, "ssf.fuse_F3: add: "),
    "top-down width": (lambda p: top_down_merge({3: rand((1, 8, 8, 8), 0),
                                                 4: rand((1, 16, 4, 4), 1)}, p),
                       ShapeError, "top_down.add_F3: add: "),
    "top-down not 2x below": (lambda p: top_down_merge({3: rand((1, 16, 6, 6), 0),
                                                        4: rand((1, 16, 4, 4), 1)}, p),
                              ShapeError, "top_down.add_F3: add: "),
    "sce C5 channels": (lambda p: sce_forward(rand((1, 64, 4, 4), 0), p),
                        ConfigError, "sce.local_3x3: conv2d: "),
    "sce odd C5 height": (lambda p: sce_forward(rand((1, 128, 3, 4), 0), p),
                          ShapeError, "sce.aggregate: add: "),
    "sce odd C5 width": (lambda p: sce_forward(rand((1, 128, 4, 5), 0), p),
                         ShapeError, "sce.aggregate: add: "),
    "integration P2 extent": (lambda p: build_integration_map(
        rand((1, 16, 12, 12), 0), rand((1, 16, 8, 8), 1), rand((1, 16, 4, 4), 2),
        rand((1, 16, 4, 4), 3)), ShapeError, "integration.mean: add: "),
    "integration P3 extent": (lambda p: build_integration_map(
        rand((1, 16, 16, 16), 0), rand((1, 16, 6, 6), 1), rand((1, 16, 4, 4), 2),
        rand((1, 16, 4, 4), 3)), ShapeError, "integration.mean: add: "),
    "integration context": (lambda p: build_integration_map(
        rand((1, 16, 16, 16), 0), rand((1, 16, 8, 8), 1), rand((1, 16, 4, 4), 2),
        rand((1, 16, 8, 8), 3)), ShapeError, "integration.add_context: add: "),
    "cag width": (lambda p: cag_weights(rand((1, 8, 4, 4), 0), p),
                  ConfigError, "cag.fc1_squeeze: linear: "),
    "backbone width": (lambda p: desk_forward(p, backbone_width=8),
                       ConfigError, "lateral.C2: conv2d: "),
    "missing lateral": (lambda p: desk_forward(p, include_f5_p5=True),
                        ConfigError, "lateral.C5: "),
    "missing post conv": (lambda p: desk_forward(dataclasses.replace(p, post_convs={
        i: spec for i, spec in p.post_convs.items() if i != 2})),
        ConfigError, "post_merge.P2: "),
    "missing ssf reduction": (lambda p: desk_forward(p, ssf_scheme="a"),
                              ConfigError, "ssf.reduce_C5: "),
}


@pytest.mark.parametrize("name", STAGE_REJECTIONS)
def test_stage_rejection_is_typed_and_names_its_scope(name):
    call, kind, prefix = STAGE_REJECTIONS[name]
    _cfg, params, _pyr = desk_setup()
    with pytest.raises(kind) as caught:
        call(params)
    assert type(caught.value) is kind
    assert str(caught.value).startswith(prefix), str(caught.value)


class TestCefpnForward:
    def test_desk_scale_shape_contract(self):
        config, params, pyramid = desk_setup()
        out = cefpn_forward(pyramid, params, config)
        assert out.r2.shape == (1, 16, 16, 16)
        assert out.r3.shape == (1, 16, 8, 8)
        assert out.r4.shape == (1, 16, 4, 4)
        assert out.r5.shape == (1, 16, 2, 2)

    def test_same_seed_bit_identical(self):
        config, params, pyramid = desk_setup(seed=3)
        first = cefpn_forward(pyramid, params, config)
        config2, params2, pyramid2 = desk_setup(seed=3)
        second = cefpn_forward(pyramid2, params2, config2)
        for i in (2, 3, 4, 5):
            assert np.array_equal(first.level(i).data, second.level(i).data)

    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_all_schemes_produce_the_contracted_shapes(self, scheme):
        config, params, pyramid = desk_setup(ssf_scheme=scheme)
        out = cefpn_forward(pyramid, params, config)
        for i, stride in zip((2, 3, 4, 5), (4, 8, 16, 32)):
            assert out.level(i).shape == (1, 16, 64 // stride, 64 // stride)

    def test_with_f5_p5_kept(self):
        config, params, pyramid = desk_setup(include_f5_p5=True)
        out = cefpn_forward(pyramid, params, config)
        assert out.r5.shape == (1, 16, 2, 2)
        assert set(params.laterals) == {2, 3, 4, 5}

    def test_r5_is_attention_scaled_subsample_of_p4(self):
        config, params, pyramid = desk_setup(seed=7)
        out = cefpn_forward(pyramid, params, config)
        # kernel-1 stride-2 subsampling keeps the even-index grid of P4
        f2 = conv2d(pyramid.c2, params.laterals[2])
        f3 = ssf_fuse(pyramid.c4, conv2d(pyramid.c3, params.laterals[3]), "c", params)
        f4 = ssf_fuse(pyramid.c5, conv2d(pyramid.c4, params.laterals[4]), "c", params)
        p = top_down_merge({2: f2, 3: f3, 4: f4}, params)
        integration = build_integration_map(p[2], p[3], p[4], sce_forward(pyramid.c5, params))
        w = cag_weights(integration, params)
        expect = mul_channelwise(max_pool2d(p[4], 1, 2), w)
        np.testing.assert_allclose(out.r5.data, expect.data, atol=1e-12)

    def test_suboperation_errors_carry_level_identity(self):
        config, params, pyramid = desk_setup()
        broken = NeckParams(
            laterals={2: params.laterals[2], 3: params.laterals[3],
                      4: zero_conv(32, 16, 1)},  # wrong in_channels for C4
            post_convs=params.post_convs, ssf_reduce=None,
            sce_local=params.sce_local, sce_wide=params.sce_wide,
            sce_squeeze=params.sce_squeeze,
            cag_fc1_squeeze=params.cag_fc1_squeeze, cag_fc1_expand=params.cag_fc1_expand,
            cag_fc2_squeeze=params.cag_fc2_squeeze, cag_fc2_expand=params.cag_fc2_expand,
        )
        with pytest.raises(ConfigError, match="lateral.C4: conv2d"):
            cefpn_forward(pyramid, broken, config)

    @pytest.mark.parametrize("config_kw, drop_post_conv, match", [
        (dict(include_f5_p5=True), None, "level 5"),  # F5/P5 config, F5/P5-free params
        ({}, 2, "level 2"),
        (dict(ssf_scheme="a"), None, "scheme a"),  # scheme-a config, scheme-c params
    ])
    def test_parameters_missing_a_layer_rejected(self, config_kw, drop_post_conv, match):
        _, params, pyramid = desk_setup()
        if drop_post_conv is not None:
            params = dataclasses.replace(params, post_convs={
                i: spec for i, spec in params.post_convs.items() if i != drop_post_conv})
        with pytest.raises(ConfigError, match=match):
            cefpn_forward(pyramid, params, desk_config(**config_kw))

    def test_backbone_width_mismatch_rejected(self):
        config, params, _ = desk_setup()
        other = synthetic_backbone(8, 64, 64, seed=1)
        with pytest.raises(ConfigError):
            cefpn_forward(other, params, config)

    def test_end_to_end_loss_is_differentiable(self):
        from cefpn import backward
        config, params, pyramid = desk_setup()
        out = cefpn_forward(pyramid, params, config)
        loss = sum_all(out.r2)
        for t in (out.r3, out.r4, out.r5):
            loss = add(loss, sum_all(t))
        backward(loss)
        for name, tensor in params.named_parameters():
            assert tensor.grad is not None, name
            assert np.all(np.isfinite(tensor.grad)), name

    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_backward_never_writes_an_incoming_gradient(self, scheme):
        from cefpn import GradTape, backward
        config, params, pyramid = desk_setup(seed=4, ssf_scheme=scheme, include_f5_p5=True)
        backward(level_sum_loss(cefpn_forward(pyramid, params, config)))
        plain = {name: t.grad.copy() for name, t in params.named_parameters()}

        loss = level_sum_loss(cefpn_forward(pyramid, params, config))
        tape = GradTape(loss)
        arrived_writeable = []

        def read_only(grad_fn):
            def call(g):
                arrived_writeable.append(g.flags.writeable)
                frozen = g.copy()
                frozen.flags.writeable = False
                return grad_fn(frozen)
            return call

        for node in tape.nodes:
            if node._grad_fn is not None:
                node._grad_fn = read_only(node._grad_fn)
        backward(loss)
        assert arrived_writeable and not any(arrived_writeable)
        for name, tensor in params.named_parameters():
            assert not tensor.grad.flags.writeable, name
            assert np.array_equal(tensor.grad, plain[name]), name

    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_float32_matches_float64_within_level_tolerance(self, scheme):
        # the benchmark's rule: 1e-5 of each level's largest float64 magnitude
        config = desk_config(ssf_scheme=scheme)
        outs = {}
        for dtype in (np.float64, np.float32):
            params = init_neck_params(config, 5, dtype=dtype)
            pyramid = synthetic_backbone(16, 64, 64, batch=2, seed=6, dtype=dtype)
            outs[dtype] = cefpn_forward(pyramid, params, config)
        for i in (2, 3, 4, 5):
            ref, got = outs[np.float64].level(i).data, outs[np.float32].level(i).data
            assert got.dtype == np.float32
            assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref)), f"R{i}"

    @pytest.mark.parametrize("width, reduction, scheme, f5_p5, batch, seeds", [
        *[(16, 4, scheme, f5_p5, 2, (0, 1)) for scheme in "abc" for f5_p5 in (False, True)],
        (256, 32, "c", False, 1, (0,)),
    ])
    def test_float32_parameter_gradients_match_float64(self, width, reduction, scheme, f5_p5,
                                                       batch, seeds):
        """Per parameter: max|g32 - g64| <= 1e-5 * max(max|g64|, 1e-3 * the
        step's largest |g64|). The floor covers a dead branch, whose
        gradients are all zero (cag.fc2_* at seed 1, schemes b/c)."""
        from cefpn import backward
        config = NeckConfig(base_channel=width, ssf_scheme=scheme,
                            attention_reduction=reduction, include_f5_p5=f5_p5)

        def step_gradients(seed, dtype):
            params = init_neck_params(config, seed, dtype=dtype)
            pyramid = synthetic_backbone(width, 64, 64, batch=batch, seed=seed + 1, dtype=dtype)
            backward(level_sum_loss(cefpn_forward(pyramid, params, config)))
            return {name: t.grad for name, t in params.named_parameters()}

        for seed in seeds:
            ref = step_gradients(seed, np.float64)
            floor = 1e-3 * max(np.max(np.abs(g)) for g in ref.values())
            for name, got in step_gradients(seed, np.float32).items():
                assert got.dtype == np.float32, name
                err = np.max(np.abs(got.astype(np.float64) - ref[name]))
                assert err <= 1e-5 * max(np.max(np.abs(ref[name])), floor), f"seed {seed}: {name}"


class TestGraphFree:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("f5_p5", [False, True])
    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_grad_free_params_give_bit_identical_outputs_and_no_graph(self, scheme, f5_p5,
                                                                       dtype):
        config = desk_config(ssf_scheme=scheme, include_f5_p5=f5_p5)
        pyramid = synthetic_backbone(16, 64, 64, batch=2, seed=3, dtype=dtype)
        graph = cefpn_forward(pyramid, init_neck_params(config, 2, dtype=dtype), config)
        free = cefpn_forward(
            pyramid, init_neck_params(config, 2, dtype=dtype, requires_grad=False), config)
        for i in (2, 3, 4, 5):
            assert graph.level(i).requires_grad and graph.level(i)._parents, f"R{i}"
            out = free.level(i)
            assert not out.requires_grad and out._parents == () and out._grad_fn is None
            assert out.dtype == dtype
            assert np.array_equal(out.data, graph.level(i).data), f"R{i}"

    def test_intermediates_die_when_forward_returns(self, monkeypatch):
        import weakref

        import cefpn.neck
        config = desk_config(ssf_scheme="a", include_f5_p5=True)
        pyramid = synthetic_backbone(16, 64, 64, seed=1)
        real_conv = cefpn.neck.conv2d

        def conv_outputs(requires_grad):
            refs = []

            def conv(x, spec):
                out = real_conv(x, spec)
                refs.append(weakref.ref(out))
                return out

            monkeypatch.setattr(cefpn.neck, "conv2d", conv)
            params = init_neck_params(config, 0, requires_grad=requires_grad)
            return cefpn_forward(pyramid, params, config), refs

        outs, refs = conv_outputs(requires_grad=False)  # outputs held, intermediates not
        assert len(refs) == 12 and all(r() is None for r in refs)
        outs, refs = conv_outputs(requires_grad=True)  # the recorded graph holds them
        assert all(r() is not None for r in refs)

    @pytest.mark.parametrize("f5_p5", [False, True])
    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_working_set_stays_under_five_c2_maps(self, scheme, f5_p5):
        # Each lateral and the last upsample are freed before post_merge.P2
        # runs, and the shifted conv's temp holds one image. Holding F2 and
        # its upsample through P2 costs two more C2-sized maps.
        config = NeckConfig(base_channel=32, ssf_scheme=scheme, include_f5_p5=f5_p5)
        params = init_neck_params(config, 0, dtype=np.float32, requires_grad=False)
        backbone = synthetic_backbone(32, 256, 256, batch=2, seed=1, dtype=np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cefpn_forward(backbone, params, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * backbone.c2.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_params_equal_one_whole_draw_per_tensor(self, dtype):
        from cefpn.ops import _DRAW_CHUNK
        config = NeckConfig(base_channel=64, ssf_scheme="a", attention_reduction=4,
                            include_f5_p5=True)
        params = init_neck_params(config, 11, dtype=dtype)
        assert params.sce_local.weight.size > _DRAW_CHUNK
        rng = np.random.default_rng(11)  # allocation order is named_layers order
        for name, _module, spec in params.named_layers():
            if isinstance(spec, ConvSpec):
                fan_in = spec.in_channels * spec.kernel * spec.kernel
            else:
                fan_in = spec.in_features
            bound = 1.0 / np.sqrt(fan_in)
            for t in (spec.weight, spec.bias):
                want = rng.uniform(-bound, bound, size=t.shape).astype(dtype)
                assert t.dtype == dtype and np.array_equal(t.data, want), name


class TestStages:
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("f5_p5", [False, True])
    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_head_over_pyramid_equals_full_forward(self, scheme, f5_p5, batch):
        config = desk_config(ssf_scheme=scheme, include_f5_p5=f5_p5)
        params = init_neck_params(config, 2)
        backbone = synthetic_backbone(16, 64, 64, batch=batch, seed=3)
        pyramid = pyramid_stage(backbone, params, config)
        assert sorted(pyramid) == list(config.levels)
        staged = head_stage(backbone, pyramid, params, config)
        assert sorted(pyramid) == list(config.levels)  # the head adds no level to it
        full = cefpn_forward(backbone, params, config)
        for i in (2, 3, 4, 5):
            assert np.array_equal(staged.level(i).data, full.level(i).data), f"R{i}"

    @pytest.mark.parametrize("f5_p5", [False, True])
    @pytest.mark.parametrize("scheme", ["a", "b", "c"])
    def test_pyramid_stage_reaches_exactly_the_pyramid_modules(self, scheme, f5_p5):
        from cefpn import backward
        config = desk_config(ssf_scheme=scheme, include_f5_p5=f5_p5)
        backbone = synthetic_backbone(16, 64, 64, seed=1)
        params = init_neck_params(config, 0)
        pyramid = pyramid_stage(backbone, params, config)
        loss = sum_all(pyramid[2])
        for i in config.levels[1:]:
            loss = add(loss, sum_all(pyramid[i]))
        backward(loss)
        reached = {name for name, t in params.named_parameters() if t.grad is not None}
        want = {f"{name}.{part}" for name, module, _spec in params.named_layers()
                if module in ("lateral", "post_merge", "ssf") for part in ("weight", "bias")}
        assert reached == want
        # the head over a graph-free pyramid reaches every other parameter
        frozen = {i: Tensor(p.data) for i, p in pyramid.items()}
        fresh = init_neck_params(config, 0)
        backward(level_sum_loss(head_stage(backbone, frozen, fresh, config)))
        reached = {name for name, t in fresh.named_parameters() if t.grad is not None}
        assert reached == {name for name, _t in fresh.named_parameters()} - want


def level_sum_loss(out):
    loss = sum_all(out.r2)
    for t in (out.r3, out.r4, out.r5):
        loss = add(loss, sum_all(t))
    return loss
