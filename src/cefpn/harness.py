"""Suite runners behind the command-line harness.

Every suite consumes a ``RunConfig`` and emits one report as both a
machine-readable dict (rendered to JSON with sorted keys) and a plain-text
table. Reports carry the seed and a full config echo and contain nothing
time- or path-dependent, so identical configs give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .backbone import PATTERNS, level_shapes, synthetic_backbone
from .cost import MAC_CONVENTIONS, ablation_reports, compare_to_baseline
from .errors import ConfigError, _check_choice, _check_int
from .gradcheck import DEFAULT_THRESHOLD, end_to_end_gradcheck, op_gradient_suite
from .neck import NeckConfig, _check_field_types, cefpn_forward, init_neck_params
from .tensor import DTYPES

SUITES = ("forward", "gradcheck", "cost", "all")


def _selected(suite: str) -> tuple[str, ...]:
    """The suites ``suite`` runs, in run order."""
    return ("forward", "gradcheck", "cost") if suite == "all" else (suite,)


@dataclass(frozen=True)
class RunConfig:
    """One harness run: seed, neck hyperparameters, geometry, suite choice.

    Defaults are the desk-scale setup (width 16, 64x64 input) that every
    check can afford; pass base_channel=256 and attention_reduction=32 for
    reference-scale cost accounting. Construction raises ``ConfigError``
    for a field of the wrong type or value, and for float32 with a suite
    that runs the gradcheck, so every config built runs in every suite it
    selects.
    """

    seed: int = 0
    base_channel: int = 16
    ssf_scheme: str = "c"
    attention_reduction: int = 4
    include_f5_p5: bool = False
    height: int = 64
    width: int = 64
    batch: int = 1
    suite: str = "all"
    mac_convention: int = 2
    precision: str = "float64"
    backbone_pattern: str = "noise"

    def __post_init__(self):
        _check_field_types(self)
        _check_int("seed", self.seed, 0)
        level_shapes(self.base_channel, self.height, self.width, self.batch)
        _check_choice("suite", self.suite, SUITES)
        _check_choice("mac_convention", self.mac_convention, MAC_CONVENTIONS)
        _check_choice("precision", self.precision, DTYPES)
        _check_choice("backbone_pattern", self.backbone_pattern, PATTERNS)
        if "gradcheck" in _selected(self.suite):
            _check_gradcheck_precision(self.precision)
        self.neck_config()  # validates width/scheme/reduction combinations

    def neck_config(self) -> NeckConfig:
        return NeckConfig(
            base_channel=self.base_channel,
            ssf_scheme=self.ssf_scheme,
            attention_reduction=self.attention_reduction,
            include_f5_p5=self.include_f5_p5,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    passed: bool
    document: dict
    text: str

    def to_json(self) -> str:
        return json.dumps(self.document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _check_gradcheck_precision(precision: str) -> None:
    """The gradcheck's central differences resolve gradients in float64 only."""
    if precision != "float64":
        raise ConfigError(f"the gradcheck requires float64 precision, got {precision!r}; "
                          f"rerun with precision=float64")


def _level_stats(t) -> dict:
    """Shape, non-finite element count, and min/max/mean (null when any
    element is non-finite, since JSON has no NaN or infinity)."""
    d = t.data
    nonfinite = d.size - int(np.count_nonzero(np.isfinite(d)))
    stats = {"shape": list(d.shape), "nonfinite": nonfinite}
    for key, reduce in (("min", np.min), ("max", np.max), ("mean", np.mean)):
        stats[key] = None if nonfinite else float(reduce(d))
    return stats


def _finite_or_none(v: float) -> float | None:
    return v if np.isfinite(v) else None


def _fmt_stat(v) -> str:
    return f"{v:>14.6g}" if v is not None else f"{'-':>14}"


def run_forward(config: RunConfig) -> SuiteReport:
    """One forward pass over a synthetic pyramid; reports shapes and stats.

    Runs as inference: the parameters do not require grad, so no op graph is
    recorded and each op's saved state is freed as soon as it returns.
    """
    dtype = DTYPES[config.precision]
    neck = config.neck_config()
    params = init_neck_params(neck, config.seed, dtype=dtype, requires_grad=False)
    pyramid = synthetic_backbone(config.base_channel, config.height, config.width,
                                 config.batch, seed=config.seed + 1,
                                 pattern=config.backbone_pattern, dtype=dtype)
    outputs = cefpn_forward(pyramid, params, neck)
    levels = {f"R{i}": _level_stats(t) for i, t in sorted(outputs.levels().items())}
    passed = all(st["nonfinite"] == 0 for st in levels.values())
    document = {
        "suite": "forward",
        "seed": config.seed,
        "config": config.to_dict(),
        "strides": [4, 8, 16, 32],
        "levels": levels,
        "passed": passed,
    }
    lines = [f"forward pass  (seed {config.seed}, width {config.base_channel}, "
             f"scheme {config.ssf_scheme}, {config.height}x{config.width})",
             f"{'level':<6} {'shape':<22} {'min':>14} {'max':>14} {'mean':>14} {'nonfinite':>10}"]
    for name, st in levels.items():
        shape = "x".join(str(v) for v in st["shape"])
        lines.append(f"{name:<6} {shape:<22} {_fmt_stat(st['min'])} {_fmt_stat(st['max'])} "
                     f"{_fmt_stat(st['mean'])} {st['nonfinite']:>10}")
    lines.append("result: " + ("PASS" if passed else "FAIL"))
    return SuiteReport("forward", passed, document, "\n".join(lines) + "\n")


def run_gradcheck(config: RunConfig) -> SuiteReport:
    """Finite-difference suite: every engine op plus the end-to-end neck.

    The checks run in float64 only; a config of any other precision raises
    ``ConfigError``, so no report echoes a precision it did not run at.
    """
    _check_gradcheck_precision(config.precision)
    per_op = op_gradient_suite(seed=config.seed)
    e2e = end_to_end_gradcheck(config.neck_config(), config.height, config.width,
                               config.batch, seed=config.seed, pattern=config.backbone_pattern)
    # A non-finite gradient makes its check's error NaN, and NaN compares false,
    # so it fails here; the JSON reports it as null and the text line as nan.
    passed = all(e < DEFAULT_THRESHOLD for e in (*per_op.values(), e2e.max_rel_error))
    document = {
        "suite": "gradcheck",
        "seed": config.seed,
        "config": config.to_dict(),
        "threshold": DEFAULT_THRESHOLD,
        "ops": {k: _finite_or_none(per_op[k]) for k in sorted(per_op)},
        "end_to_end": {
            "max_rel_error": _finite_or_none(e2e.max_rel_error),
            "parameters_checked": e2e.parameters_checked,
            "parameter_total": e2e.parameter_total,
        },
        "passed": passed,
    }
    lines = [f"gradient check  (seed {config.seed}, threshold {DEFAULT_THRESHOLD:g})",
             f"{'op':<24} {'max rel error':>14}"]
    for name in sorted(per_op):
        lines.append(f"{name:<24} {per_op[name]:>14.3e}")
    lines.append(f"{'end_to_end':<24} {e2e.max_rel_error:>14.3e}  "
                 f"({e2e.parameters_checked}/{e2e.parameter_total} parameters)")
    lines.append("result: " + ("PASS" if passed else "FAIL"))
    return SuiteReport("gradcheck", passed, document, "\n".join(lines) + "\n")


def run_cost(config: RunConfig) -> SuiteReport:
    """Cost reports for every row of ``VARIANTS`` (the baseline first, then
    each single-mechanism variant) and the full neck, plus deltas against
    the baseline. Each distinct neck is traced once per call."""
    reports = ablation_reports(config.neck_config(), (config.height, config.width),
                               config.mac_convention)
    deltas = [compare_to_baseline(r, reports[0]) for r in reports[1:]]
    document = {
        "suite": "cost",
        "seed": config.seed,
        "config": config.to_dict(),
        "reports": {r.name: r.to_dict() for r in reports},
        "deltas": {d.name: d.to_dict() for d in deltas},
    }
    text = "".join(r.to_text() + "\n" for r in reports) + "".join(d.to_text() for d in deltas)
    return SuiteReport("cost", True, document, text)


def run_suites(config: RunConfig) -> list[SuiteReport]:
    """The suites selected by ``config.suite``, in a fixed order."""
    runners = {"forward": run_forward, "gradcheck": run_gradcheck, "cost": run_cost}
    return [runners[name](config) for name in _selected(config.suite)]
