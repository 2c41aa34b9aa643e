"""The benchmark's workloads: inputs from a seed, one iteration, an output check.

Each workload is a closed loop with one client: the next iteration starts only
after the previous one has returned and been checked. The program sees only
the generated inputs; the seed stays here.

Workloads call the package through module attributes at call time
(``pkg.neck.cefpn_forward``), so that the tracer's wrappers are reached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Inputs cycle through this many seeds, each with stored expected outputs.
INPUT_SEEDS = 64
# No measurement used this input seed while the benchmark was built and tuned
# (only make_expected.py ran it): kept for claims that must hold on unseen inputs.
HELD_OUT_SEED = 63

# float64 tolerances admit any reordering of the summations (GEMM blocking,
# tensordot versus matmul); real defects move these values by far more.
F64_RTOL = 1e-9
# float32 level stats against the float64 run of the same config, relative to
# the level's largest magnitude. The worst case over all 64 input seeds is
# 5.3e-7 (float32 epsilon is 1.2e-7; convolutions sum up to 18,432 terms).
F32_RTOL = 1e-5

# Reference-scale parameter deltas against the plain pyramid (README table).
COST_DELTAS = {"ssf_a": 2_098_176, "ssf_b": 0, "ssf_c": 0, "cag": 8_720, "cefpn": 26_686_736}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _close(got: float, want: float, scale: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(scale, 1e-300)


@dataclass
class Workload:
    name: str
    items_per_iter: int                      # images, or verdicts for verify-desk
    setup: Callable[[Any, int], dict]        # (package, input seed) -> state
    iterate: Callable[[Any, dict], Any]      # (package, state) -> result
    check: Callable[[dict, Any, dict], list[str]]  # (state, result, expected) -> problems
    expected_of: Callable[[Any, dict], dict]  # (package, state) -> stored expected values
    flop_config: Callable[[Any], tuple]      # package -> (NeckConfig, geometry)


# ---------------------------------------------------------------------------
# train-ref: forward + backward at reference scale, float64, scheme c
# ---------------------------------------------------------------------------

def _train_config(pkg):
    return pkg.neck.NeckConfig(base_channel=256, ssf_scheme="c", attention_reduction=32)


def _train_setup(pkg, seed: int) -> dict:
    config = _train_config(pkg)
    params = pkg.neck.init_neck_params(config, seed)
    pyramid = pkg.backbone.synthetic_backbone(256, 256, 256, 1, seed=seed + 1)
    return {"config": config, "params": params, "pyramid": pyramid}


def _train_iterate(pkg, state: dict):
    t = pkg.tensor
    outs = pkg.neck.cefpn_forward(state["pyramid"], state["params"], state["config"])
    loss = t.sum_all(outs.r2)
    for level in (outs.r3, outs.r4, outs.r5):
        loss = t.add(loss, t.sum_all(level))
    t.backward(loss)
    return outs


def _level_summary(outs) -> dict:
    return {f"R{i}": {"sum": float(np.sum(t.data)), "abs_sum": float(np.abs(t.data).sum()),
                      "l2": float(np.linalg.norm(t.data))}
            for i, t in sorted(outs.levels().items())}


def _grad_norms(params) -> dict:
    return {name: None if t.grad is None else float(np.linalg.norm(t.grad))
            for name, t in params.named_parameters()}


def _train_expected(pkg, state: dict) -> dict:
    outs = _train_iterate(pkg, state)
    return {"levels": _level_summary(outs), "grad_l2": _grad_norms(state["params"])}


def _train_check(state: dict, outs, expected: dict) -> list[str]:
    problems = []
    for level, got in _level_summary(outs).items():
        want = expected["levels"][level]
        if not _close(got["sum"], want["sum"], want["abs_sum"], F64_RTOL):
            problems.append(f"{level} sum {got['sum']!r} != {want['sum']!r}")
        if not _close(got["l2"], want["l2"], want["l2"], F64_RTOL):
            problems.append(f"{level} l2 {got['l2']!r} != {want['l2']!r}")
    got_norms = _grad_norms(state["params"])
    if set(got_norms) != set(expected["grad_l2"]):
        problems.append("parameter set differs from the stored one")
    for name, want in expected["grad_l2"].items():
        got = got_norms.get(name)
        if got is None or not _close(got, want, want, F64_RTOL):
            problems.append(f"grad {name} l2 {got!r} != {want!r}")
    return problems


# ---------------------------------------------------------------------------
# forward-suite-f32: the `cefpn --suite forward` path at reference scale
# ---------------------------------------------------------------------------

def _forward_run_config(pkg, seed: int, precision: str = "float32"):
    return pkg.harness.RunConfig(seed=seed, base_channel=256, ssf_scheme="a",
                                 attention_reduction=32, include_f5_p5=True, height=256,
                                 width=256, batch=2, suite="forward", precision=precision)


def _forward_setup(pkg, seed: int) -> dict:
    return {"config": _forward_run_config(pkg, seed)}


def _forward_iterate(pkg, state: dict):
    return pkg.harness.run_forward(state["config"])


def _forward_expected(pkg, state: dict) -> dict:
    # The reference is the float64 run of the same config.
    f64 = pkg.harness.run_forward(_forward_run_config(pkg, state["config"].seed, "float64"))
    return {"levels": f64.document["levels"]}


def _stats_check(levels: dict, expected: dict, rtol: float) -> list[str]:
    if set(levels) != set(expected):
        return [f"levels {sorted(levels)} != {sorted(expected)}"]
    problems = []
    for name, want in expected.items():
        got = levels[name]
        if got["shape"] != want["shape"]:
            problems.append(f"{name} shape {got['shape']} != {want['shape']}")
        scale = max(abs(want["min"]), abs(want["max"]))
        for key in ("min", "max", "mean"):
            if not _close(got[key], want[key], scale, rtol):
                problems.append(f"{name} {key} {got[key]!r} != {want[key]!r}")
    return problems


def _forward_check(state: dict, report, expected: dict) -> list[str]:
    if not report.passed:
        return ["forward suite reported failure"]
    return _stats_check(report.document["levels"], expected["levels"], F32_RTOL)


# ---------------------------------------------------------------------------
# verify-desk: `cefpn --suite all` at desk scale plus the reference cost table
# ---------------------------------------------------------------------------

def _verify_setup(pkg, seed: int) -> dict:
    RunConfig = pkg.harness.RunConfig
    return {"suites": RunConfig(seed=seed, suite="all"),
            "cost": RunConfig(seed=seed, base_channel=256, attention_reduction=32, suite="cost")}


def _verify_iterate(pkg, state: dict):
    return pkg.harness.run_suites(state["suites"]), pkg.harness.run_cost(state["cost"])


def _verify_expected(pkg, state: dict) -> dict:
    reports = pkg.harness.run_suites(state["suites"])
    by_suite = {r.suite: r for r in reports}
    if not by_suite["gradcheck"].passed:
        raise RuntimeError(f"gradcheck fails at seed {state['suites'].seed}")
    return {"levels": by_suite["forward"].document["levels"]}


def _verify_check(state: dict, result, expected: dict) -> list[str]:
    reports, cost = result
    by_suite = {r.suite: r for r in reports}
    if sorted(by_suite) != ["cost", "forward", "gradcheck"]:
        return [f"suites {sorted(by_suite)} returned"]
    problems = []
    for r in reports + [cost]:
        if not r.passed:
            problems.append(f"{r.suite} suite verdict FAIL")
    if by_suite["gradcheck"].document.get("passed") is not True:
        problems.append("gradcheck document does not record PASS")
    problems += _stats_check(by_suite["forward"].document["levels"], expected["levels"], F64_RTOL)
    deltas = cost.document["deltas"]
    for name, want in COST_DELTAS.items():
        got = deltas.get(name, {}).get("params_delta")
        if got != want:
            problems.append(f"cost delta {name} {got!r} != {want:+,d}")
    return problems


WORKLOADS = {
    "train-ref": Workload(
        "train-ref", 1, _train_setup, _train_iterate, _train_check, _train_expected,
        lambda pkg: (_train_config(pkg), (256, 256))),
    "forward-suite-f32": Workload(
        "forward-suite-f32", 2, _forward_setup, _forward_iterate, _forward_check,
        _forward_expected,
        lambda pkg: (_forward_run_config(pkg, 0).neck_config(), (256, 256))),
    "verify-desk": Workload(
        "verify-desk", 1, _verify_setup, _verify_iterate, _verify_check, _verify_expected,
        lambda pkg: (pkg.harness.RunConfig().neck_config(), (64, 64))),
}
