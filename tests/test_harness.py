"""Harness suites and the command-line interface."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cefpn import ConfigError, ConvSpec, NeckParams, RunConfig, Tensor, cefpn_forward, \
    init_neck_params, run_cost, run_forward, run_gradcheck, synthetic_backbone
from cefpn.backbone import ramp_level
from cefpn.cli import _load_config, build_parser, main
from cefpn.gradcheck import DEFAULT_THRESHOLD
from cefpn.harness import SUITES, SuiteReport, _level_stats, run_suites
import cefpn.cli
import cefpn.harness
import cefpn.neck


def strict_json(text):
    """json.loads that refuses the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def poison_level(monkeypatch, level, values):
    """Make the harness see pyramid level ``level`` with its first elements
    replaced by ``values``."""
    real_forward = cefpn.harness.cefpn_forward

    def poisoned(pyramid, params, config):
        out = real_forward(pyramid, params, config)
        data = getattr(out, level).data.copy()
        data.flat[:len(values)] = values
        return dataclasses.replace(out, **{level: Tensor(data)})

    monkeypatch.setattr(cefpn.harness, "cefpn_forward", poisoned)


# `cefpn --suite forward` stdout at desk scale, stored byte for byte from the
# graph-free forward suite once `linear` ran each row as its own one-row
# product (at batch 2 that re-store moved no level by more than 2.5e-16 of its
# largest magnitude in float64, 1.2e-7 in float32; the one before it, for
# shifted 3x3 GEMMs, by no more than 1e-15 and 1e-6). Any later change must
# reproduce these bytes.
FORWARD_GOLDEN = json.loads((Path(__file__).parent / "forward_desk_golden.json").read_text())


@pytest.mark.parametrize("argv", sorted(FORWARD_GOLDEN))
def test_forward_json_is_byte_identical_to_stored(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == FORWARD_GOLDEN[argv]


# `cefpn --suite gradcheck` stdout at desk scale, stored byte for byte from the
# per-op suite that checks both 3x3 paths (`conv2d_3x3` shifted,
# `conv2d_3x3_im2col` im2col), and re-stored once `linear` ran each row as its
# own one-row product, which moved only `ops.linear` (its input has 2 rows).
# Any later change must reproduce these bytes: same coordinates, same errors.
GRADCHECK_GOLDEN = json.loads((Path(__file__).parent / "gradcheck_desk_golden.json").read_text())


@pytest.mark.parametrize("argv", sorted(GRADCHECK_GOLDEN))
def test_gradcheck_json_is_byte_identical_to_stored(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == GRADCHECK_GOLDEN[argv]


class TestRunConfig:
    def test_defaults_are_desk_scale(self):
        cfg = RunConfig()
        assert cfg.base_channel == 16 and cfg.height == cfg.width == 64

    def test_geometry_must_divide_32(self):
        with pytest.raises(ConfigError, match="divisible by 32"):
            RunConfig(height=60)

    def test_geometry_must_divide_64_for_even_c5(self):
        with pytest.raises(ConfigError, match="divisible by 64.*even C5"):
            RunConfig(height=96)
        with pytest.raises(ConfigError, match="divisible by 64"):
            RunConfig(width=160)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"seed": 1, "colour": "red"})

    def test_round_trips_through_dict(self):
        cfg = RunConfig(seed=9, ssf_scheme="a", height=128)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("height", "64"), ("batch", 1.5), ("seed", True), ("base_channel", 16.0),
        ("mac_convention", True), ("include_f5_p5", 1), ("ssf_scheme", None),
        ("precision", 64), ("suite", ["all"]), ("backbone_pattern", b"noise")])
    def test_field_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            RunConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("suite", ["gradcheck", "all"])
    def test_single_precision_refused_where_gradcheck_runs(self, suite):
        with pytest.raises(ConfigError, match="float64"):
            RunConfig(suite=suite, precision="float32")

    @pytest.mark.parametrize("suite", ["forward", "cost"])
    def test_single_precision_accepted_elsewhere(self, suite):
        assert RunConfig(suite=suite, precision="float32").precision == "float32"


# Valid values for every RunConfig field at a scale each suite runs cheaply,
# and values of the wrong type to swap in for up to two of them.
_VALID_FIELDS = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32), "base_channel": st.sampled_from([4, 8, 16, 32]),
    "ssf_scheme": st.sampled_from(["a", "b", "c"]),
    "attention_reduction": st.sampled_from([1, 2, 4, 8]), "include_f5_p5": st.booleans(),
    "height": st.sampled_from([64, 128]), "width": st.sampled_from([64, 128]),
    "batch": st.integers(1, 2), "suite": st.sampled_from(SUITES),
    "mac_convention": st.sampled_from([1, 2]),
    "precision": st.sampled_from(["float64", "float32"]),
    "backbone_pattern": st.sampled_from(["noise", "ramp"])})
_WRONG_VALUES = st.one_of(st.booleans(), st.none(), st.integers(-2, 2),
                          st.floats(0, 128), st.sampled_from(["64", "1", "a", "all", ""]),
                          st.lists(st.integers(0, 2), max_size=1))


@settings(max_examples=20, deadline=None)
@given(_VALID_FIELDS, st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
                                      _WRONG_VALUES, max_size=2))
def test_every_accepted_config_runs_every_selected_suite(fields, swapped):
    fields.update(swapped)
    try:
        config = RunConfig(**fields)
    except ConfigError:
        event("rejected")
        return
    event(f"ran suite {config.suite}")
    reports = run_suites(config)
    wanted = ["forward", "gradcheck", "cost"] if config.suite == "all" else [config.suite]
    assert [r.suite for r in reports] == wanted
    assert all(isinstance(r, SuiteReport) for r in reports)


class TestRunForward:
    def test_desk_shapes_at_seed_7(self):
        report = run_forward(RunConfig(seed=7))
        shapes = [report.document["levels"][f"R{i}"]["shape"] for i in (2, 3, 4, 5)]
        assert shapes == [[1, 16, 16, 16], [1, 16, 8, 8], [1, 16, 4, 4], [1, 16, 2, 2]]
        assert report.document["seed"] == 7

    def test_same_seed_byte_identical_reports(self):
        a = run_forward(RunConfig(seed=11))
        b = run_forward(RunConfig(seed=11))
        assert a.to_json() == b.to_json()
        assert a.text == b.text

    def test_different_seeds_differ(self):
        a = run_forward(RunConfig(seed=1))
        b = run_forward(RunConfig(seed=2))
        assert a.to_json() != b.to_json()

    def test_report_echoes_config(self):
        cfg = RunConfig(seed=4, ssf_scheme="b")
        report = run_forward(cfg)
        assert report.document["config"] == cfg.to_dict()

    def test_finite_levels_pass_with_zero_nonfinite(self):
        report = run_forward(RunConfig(seed=3))
        assert report.passed and report.document["passed"] is True
        assert all(st["nonfinite"] == 0 for st in report.document["levels"].values())
        assert report.text.endswith("result: PASS\n")

    def test_nonfinite_level_is_valid_json_and_fails(self, monkeypatch):
        poison_level(monkeypatch, "r3", [np.nan, np.inf])
        report = run_forward(RunConfig(seed=3))
        doc = strict_json(report.to_json())
        assert not report.passed and doc["passed"] is False
        r3 = doc["levels"]["R3"]
        assert r3["nonfinite"] == 2
        assert r3["min"] is None and r3["max"] is None and r3["mean"] is None
        assert doc["levels"]["R2"]["nonfinite"] == 0 and doc["levels"]["R2"]["min"] is not None
        assert report.text.endswith("result: FAIL\n")

    def test_ramp_fixture_statistics_oracle(self, monkeypatch):
        """With identity laterals, identity post-merge taps, a zeroed-out
        skip-fusion reduction, zero context convolutions, and the attention
        vector forced to ones, R4 is exactly the first c channels of the
        stride-16 ramp; its statistics must match an independent computation."""
        c = 16
        cfg = RunConfig(seed=0, backbone_pattern="ramp", ssf_scheme="a")
        neck_cfg = cfg.neck_config()
        params = init_neck_params(neck_cfg, 0)

        def select_identity(cin, cout):
            w = np.zeros((cout, cin, 1, 1))
            for j in range(cout):
                w[j, j, 0, 0] = 1.0
            return ConvSpec(cin, cout, 1, Tensor(w), Tensor(np.zeros(cout)))

        def center_tap(ch):
            w = np.zeros((ch, ch, 3, 3))
            for j in range(ch):
                w[j, j, 1, 1] = 1.0
            return ConvSpec(ch, ch, 3, Tensor(w), Tensor(np.zeros(ch)))

        def zero_conv(cin, cout, k):
            return ConvSpec(cin, cout, k, Tensor(np.zeros((cout, cin, k, k))),
                            Tensor(np.zeros(cout)))

        fixture = NeckParams(
            laterals={i: select_identity(c * 2 ** (i - 2), c) for i in (2, 3, 4)},
            post_convs={i: center_tap(c) for i in (2, 3, 4)},
            ssf_reduce=zero_conv(8 * c, 4 * c, 1),
            sce_local=zero_conv(8 * c, 4 * c, 3),
            sce_wide=zero_conv(8 * c, 16 * c, 1),
            sce_squeeze=zero_conv(8 * c, c, 1),
            cag_fc1_squeeze=params.cag_fc1_squeeze, cag_fc1_expand=params.cag_fc1_expand,
            cag_fc2_squeeze=params.cag_fc2_squeeze, cag_fc2_expand=params.cag_fc2_expand,
        )
        monkeypatch.setattr(cefpn.neck, "cag_weights",
                            lambda integration, p: Tensor(np.ones((1, c))))
        pyramid = synthetic_backbone(c, 64, 64, pattern="ramp")
        outputs = cefpn_forward(pyramid, fixture, neck_cfg)
        got = _level_stats(outputs.r4)

        # independent recomputation over the same ramp definition
        shape4 = (1, 4 * c, 4, 4)
        ramp = ramp_level(shape4, level=4)[:, :c]
        assert got["shape"] == [1, c, 4, 4]
        assert got["min"] == ramp.min()
        assert got["max"] == ramp.max()
        assert got["mean"] == pytest.approx(ramp.mean(), rel=1e-15)


class TestRunGradcheck:
    def test_desk_run_passes(self):
        report = run_gradcheck(RunConfig(seed=0))
        assert report.passed
        assert report.document["end_to_end"]["max_rel_error"] < 1e-4
        assert report.document["end_to_end"]["parameters_checked"] >= 200

    def test_end_to_end_runs_over_the_configured_backbone_pattern(self):
        noise = run_gradcheck(RunConfig(seed=3, suite="gradcheck"))
        ramp = run_gradcheck(RunConfig(seed=3, suite="gradcheck", backbone_pattern="ramp"))
        assert ramp.passed and ramp.document["config"]["backbone_pattern"] == "ramp"
        assert ramp.document["ops"] == noise.document["ops"]
        assert ramp.document["end_to_end"] != noise.document["end_to_end"]

    @pytest.mark.parametrize("suite", ["all", "forward", "cost"])
    def test_refuses_single_precision(self, suite):
        with pytest.raises(ConfigError, match="float64"):
            run_gradcheck(RunConfig(precision="float32", suite=suite))

    def test_nan_error_fails_and_stays_valid_json(self, monkeypatch):
        real_suite = cefpn.harness.op_gradient_suite

        def nan_for_one_op(seed):
            errors = real_suite(seed=seed)
            errors[list(errors)[-1]] = float("nan")  # max() skips a NaN unless it comes first
            return errors

        monkeypatch.setattr(cefpn.harness, "op_gradient_suite", nan_for_one_op)
        report = run_gradcheck(RunConfig(seed=0))
        assert not report.passed
        doc = strict_json(report.to_json())
        assert doc["passed"] is False
        assert None in doc["ops"].values()

    def test_corrupted_gradient_fails(self, corrupt_conv3x3):
        report = run_gradcheck(RunConfig(seed=0))
        assert not report.passed
        assert report.document["ops"]["conv2d_3x3"] > DEFAULT_THRESHOLD
        assert report.document["ops"]["conv2d_1x1"] < DEFAULT_THRESHOLD


class TestRunCost:
    def test_document_names_every_variant(self):
        report = run_cost(RunConfig())
        assert set(report.document["reports"]) == \
            {"baseline", "ssf_a", "ssf_b", "ssf_c", "sce", "cag", "cefpn"}
        assert set(report.document["deltas"]) == \
            {"ssf_a", "ssf_b", "ssf_c", "sce", "cag", "cefpn"}

    def test_reference_scale_headline_deltas(self):
        report = run_cost(RunConfig(base_channel=256, attention_reduction=32))
        deltas = report.document["deltas"]
        assert deltas["ssf_c"]["params_delta"] == 0
        assert abs(deltas["ssf_a"]["params_delta"] - 2.10e6) <= 0.01e6
        assert deltas["cag"]["params_delta"] == 8720


class TestCli:
    def test_writes_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["--suite", "forward", "--seed", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert (out / "forward_report.json").exists()
        assert (out / "forward_report.txt").exists()
        assert (out / "config.json").exists()

    def test_stdout_gets_json_when_no_out(self, capsys):
        code = main(["--suite", "forward", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["suite"] == "forward"

    def test_same_seed_byte_identical_files(self, tmp_path):
        for d in ("a", "b"):
            assert main(["--suite", "forward", "--seed", "5", "--out",
                         str(tmp_path / d)]) == 0
        a = (tmp_path / "a" / "forward_report.json").read_bytes()
        b = (tmp_path / "b" / "forward_report.json").read_bytes()
        assert a == b

    def test_rerun_from_config_echo_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        assert main(["--suite", "forward", "--seed", "9", "--ssf-scheme", "b",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["--config", str(first / "config.json"), "--out", str(second)]) == 0
        assert (first / "forward_report.json").read_bytes() == \
            (second / "forward_report.json").read_bytes()
        assert (first / "forward_report.txt").read_bytes() == \
            (second / "forward_report.txt").read_bytes()

    def test_every_config_field_has_a_flag(self):
        flags = {"seed": ["--seed", "5"], "base_channel": ["--base-channel", "32"],
                 "ssf_scheme": ["--ssf-scheme", "a"], "attention_reduction": ["--reduction", "8"],
                 "include_f5_p5": ["--include-f5-p5"], "height": ["--height", "128"],
                 "width": ["--width", "128"], "batch": ["--batch", "2"],
                 "suite": ["--suite", "cost"], "mac_convention": ["--mac-convention", "1"],
                 "precision": ["--precision", "float32"],
                 "backbone_pattern": ["--backbone", "ramp"]}
        assert set(flags) == {f.name for f in dataclasses.fields(RunConfig)}
        argv = [token for tokens in flags.values() for token in tokens]
        loaded = _load_config(build_parser().parse_args(argv))
        default = RunConfig()
        for name in flags:
            assert getattr(loaded, name) != getattr(default, name), name

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 1, "suite": "forward", "ssf_scheme": "a"}))
        assert main(["--config", str(cfg_file), "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 2
        assert doc["config"]["ssf_scheme"] == "a"

    def test_invalid_geometry_single_line_diagnostic(self, capsys):
        code = main(["--suite", "forward", "--height", "60"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1 and "divisible by 32" in lines[0]

    def test_unknown_flag_single_line_diagnostic(self, capsys):
        code = main(["--bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unrecognized arguments: --bogus"]

    @pytest.mark.parametrize("suite", ["forward", "gradcheck", "cost", "all"])
    def test_geometry_off_64_rejected_by_every_suite(self, suite, capsys):
        code = main(["--suite", suite, "--height", "96", "--width", "96"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1 and "divisible by 64" in lines[0]

    def test_unusable_out_exits_two_before_any_suite(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_suite(config):
            raise AssertionError("a suite ran before --out was checked")

        monkeypatch.setattr(cefpn.cli, "run_suites", no_suite)
        code = main(["--suite", "cost", "--out", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1 and lines[0].startswith("error: cannot create output directory")

    def test_nonfinite_forward_exits_one(self, monkeypatch, capsys):
        poison_level(monkeypatch, "r2", [np.nan])
        code = main(["--suite", "forward"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["levels"]["R2"]["min"] is None
        assert "forward" in captured.err

    @pytest.mark.parametrize("config, argv", [
        ({"height": "64"}, ["--suite", "cost"]),
        ({"batch": 1.5}, ["--suite", "forward"]),
        ({"seed": -1}, ["--suite", "forward"]),
        ([1, 2], ["--suite", "cost"]),
        (b"{not json", ["--suite", "cost"]),
        (b"\xff{}", ["--suite", "cost"]),  # not UTF-8
        (None, ["--config", str(Path(__file__).parent / "no_such_config.json")]),
        (None, ["--suite", "all", "--precision", "float32"]),
        (None, ["--ssf-scheme", "d"]),
        (None, ["--suite", "x"]),
        (None, ["--mac-convention", "3"]),
        (None, ["--precision", "float16"]),
        (None, ["--backbone", "stripes"]),
        (None, ["--seed", "abc"])])
    def test_rejected_config_runs_no_suite(self, config, argv, tmp_path, monkeypatch, capsys):
        ran = []
        for name in ("run_forward", "run_gradcheck", "run_cost"):
            monkeypatch.setattr(cefpn.harness, name, lambda *a, name=name: ran.append(name))
        if config is not None:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
            argv = ["--config", str(cfg_file), *argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and ran == []
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    def test_single_precision_gradcheck_refused(self, capsys):
        code = main(["--suite", "gradcheck", "--precision", "float32"])
        captured = capsys.readouterr()
        assert code == 2
        assert "float64" in captured.err

    def test_corrupted_gradient_nonzero_exit(self, tmp_path, capsys, corrupt_conv3x3):
        code = main(["--suite", "gradcheck", "--out", str(tmp_path / "g")])
        captured = capsys.readouterr()
        assert code == 1
        assert "gradcheck" in captured.err

    def test_cost_suite_at_reference_scale(self, tmp_path):
        out = tmp_path / "cost"
        assert main(["--suite", "cost", "--base-channel", "256", "--reduction", "32",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "cost_report.json").read_text())
        assert doc["deltas"]["ssf_c"]["params_delta"] == 0
        for entry in doc["reports"]["baseline"]["entries"]:
            assert {"layer", "module", "params", "flops", "convention"} <= set(entry)
