"""Span recorder that wraps the package's public functions from outside.

Every public function defined in the measured modules is replaced by a
wrapper at each name it is bound to across the loaded ``cefpn`` modules, so
that callers resolving ``cefpn.neck.conv2d`` or ``cefpn.gradcheck.cefpn_forward``
reach the wrapper. Nothing in the package itself is edited.

A span is (name, start, end, parent, iteration). Spans live in flat arrays in
memory and are written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

MEASURED_MODULES = ("tensor", "ops", "neck", "backbone", "cost", "gradcheck", "harness")

ELEMENTWISE = tuple(f"tensor.{n}" for n in (
    "add", "mul", "scale", "relu", "sigmoid", "mul_channelwise", "channel_slice",
    "broadcast_spatial", "squeeze_spatial", "sum_all"))
# Every public function that records one node in the op graph.
GRAPH_OPS = ELEMENTWISE + tuple(f"ops.{n}" for n in (
    "conv2d", "max_pool2d", "global_avg_pool", "global_max_pool",
    "interpolate_nearest", "linear")) + ("neck.pixel_shuffle", "neck.pixel_unshuffle")
COST_REPORTS = ("cost.fpn_baseline_report", "cost.variant_report", "cost.cefpn_report")

NECK_STAGES = ("cefpn_forward", "ssf_fuse", "top_down_merge", "sce_forward",
               "build_integration_map", "cag_weights", "cag_apply", "pixel_shuffle",
               "init_neck_params")
OP_TIMES = ("max_pool2d", "interpolate_nearest", "global_avg_pool", "global_max_pool", "linear")
CONV_LAYERS = ("lateral.C2", "lateral.C3", "lateral.C4", "lateral.C5",
               "post_merge.P2", "post_merge.P3", "post_merge.P4", "post_merge.P5",
               "ssf.reduce_C5", "sce.local_3x3", "sce.wide_1x1", "sce.squeeze_1x1")
# Spans with children, for which self time differs from inclusive time.
SELF_TIMED = tuple(f"neck.{n}" for n in NECK_STAGES if n != "pixel_shuffle") + (
    "backbone.synthetic_backbone", "harness.run_forward", "harness.run_gradcheck",
    "harness.run_cost", "gradcheck.op_gradient_suite", "gradcheck.end_to_end_gradcheck")

SETUP = -1  # iteration id of spans recorded during workload set-up


def _metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"neck.{n}.ms", "ms", "lower") for n in NECK_STAGES]
    out += [("ops.conv2d.ms", "ms", "lower"), ("ops.conv2d.calls", "count", "lower"),
            ("ops.conv2d.gflops", "GFLOP/s", "higher")]
    out += [(f"ops.{n}.ms", "ms", "lower") for n in OP_TIMES]
    for layer in CONV_LAYERS:
        out += [(f"conv.{layer}.ms", "ms", "lower"), (f"conv.{layer}.gflops", "GFLOP/s", "higher")]
    out += [("tensor.backward.ms", "ms", "lower"), ("tensor.elementwise.ms", "ms", "lower"),
            ("tensor.ops.calls", "count", "lower"), ("tensor.tape_nodes", "count", "lower"),
            ("tensor.retained_mb", "MiB", "lower")]
    out += [("backbone.synthetic_backbone.ms", "ms", "lower"), ("cost.report.ms", "ms", "lower"),
            ("harness.run_forward.ms", "ms", "lower"), ("harness.run_gradcheck.ms", "ms", "lower"),
            ("harness.run_cost.ms", "ms", "lower")]
    out += [("gradcheck.op_gradient_suite.ms", "ms", "lower"),
            ("gradcheck.end_to_end_gradcheck.ms", "ms", "lower"),
            ("gradcheck.forward_evals", "count", "lower"), ("gradcheck.us_per_op", "us", "lower")]
    out += [(f"{n}.self_ms", "ms", "lower") for n in SELF_TIMED]
    out += [("trace.coverage", "ratio", "higher"), ("trace.overhead_ms", "ms", "lower")]
    return out


PER_LAYER = _metric_specs()


def public_functions(module) -> list:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return [obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


def rebind(package: str, original, replacement) -> list[tuple[object, str]]:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    bound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound.append((mod, attr))
    return bound


class Tracer:
    """Wraps the measured layers of one imported ``cefpn`` package."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_ids = {layer: i for i, layer in enumerate(CONV_LAYERS)}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.iteration = array("i")
        self.layer = array("i")   # conv layer index, -1 when not a named conv
        self.flops = array("q")   # conv FLOPs of the call, 0 otherwise
        self.current = SETUP
        self._stack = [-1]
        self._specs: dict[int, tuple[weakref.ref, int]] = {}
        self._layer_flops: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        for short in MEASURED_MODULES:
            module = getattr(self.package, short)
            for fn in public_functions(module):
                wrapper = self._wrap(fn, f"{short}.{fn.__name__}")
                for mod, attr in rebind(pkg, fn, wrapper):
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def set_layer_flops(self, flops_per_image: dict[str, int]) -> None:
        """Per-image FLOPs of each named conv layer, from the cost model."""
        self._layer_flops = dict(flops_per_image)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _register_params(self, params) -> None:
        for name, _module, spec in params.named_layers():
            if name in self.layer_ids:
                self._specs[id(spec)] = (weakref.ref(spec), self.layer_ids[name])

    def _conv_tag(self, x, spec) -> tuple[int, int]:
        entry = self._specs.get(id(spec))
        n = x.shape[0]
        if entry is not None and entry[0]() is spec:
            layer = CONV_LAYERS[entry[1]]
            return entry[1], self._layer_flops.get(layer, 0) * n
        # A conv outside the neck (the per-op gradient suite): same MAC rule.
        oh = (x.shape[2] + 2 * spec.padding - spec.kernel) // spec.stride + 1
        ow = (x.shape[3] + 2 * spec.padding - spec.kernel) // spec.stride + 1
        return -1, 2 * spec.out_channels * spec.in_channels * spec.kernel ** 2 * oh * ow * n

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        iteration, layer, flops = self.iteration, self.layer, self.flops
        is_conv = name == "ops.conv2d"
        is_init = name == "neck.init_neck_params"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            iteration.append(tracer.current)
            if is_conv:
                tag, f = tracer._conv_tag(args[0], args[1] if len(args) > 1 else kwargs["spec"])
            else:
                tag, f = -1, 0
            layer.append(tag)
            flops.append(f)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if is_init:
                tracer._register_params(result)
            return result

        return wrapper

    # -- reduction -----------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.int64).copy(),
                np.frombuffer(self.end, dtype=np.int64).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.iteration, dtype=np.int32).copy(),
                np.frombuffer(self.layer, dtype=np.int32).copy(),
                np.frombuffer(self.flops, dtype=np.int64).copy())

    def per_layer(self, iter_wall_ms: list[float]) -> dict[str, float]:
        """Per-iteration medians of every per-layer metric that spans give.

        Traced iterations carry ids 0..k-1 and ``iter_wall_ms[i]`` is the wall
        time of iteration i. A layer that runs only during set-up on this
        workload (parameter init and backbone generation in ``train-ref``) is
        reported per set-up instead.
        """
        nid, start, end, parent, it, layer, flops = self._arrays()
        dur = (end - start) / 1e6
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        ids = {name: i for i, name in enumerate(self.names)}
        k = len(iter_wall_ms)
        timed = it >= 0
        in_setup = it == SETUP

        def mask_of(names) -> np.ndarray:
            return np.isin(nid, [ids[n] for n in names if n in ids])

        # Spans nested at any depth inside an end-to-end gradcheck; a parent
        # is always recorded before its children.
        inside = (nid == ids.get("gradcheck.end_to_end_gradcheck", -2)).tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0 and inside[p]:
                inside[i] = True
        inside_e2e = np.array(inside, dtype=bool)

        totals: dict[str, np.ndarray] = {}

        def add(metric: str, values: np.ndarray, mask: np.ndarray, setup_only: bool = False):
            sel = mask & timed
            per_iter = np.bincount(it[sel], weights=values[sel], minlength=k)[:k]
            if setup_only and not per_iter.any():
                per_iter = np.array([values[mask & in_setup].sum()])
            totals[metric] = per_iter

        ones = np.ones(len(nid))
        fflops = flops.astype(float)
        for stage in NECK_STAGES:
            add(f"neck.{stage}.ms", dur, mask_of([f"neck.{stage}"]), setup_only=True)
        conv = mask_of(["ops.conv2d"])
        add("ops.conv2d.ms", dur, conv)
        add("ops.conv2d.calls", ones, conv)
        add("_ops.conv2d.flops", fflops, conv)
        for op in OP_TIMES:
            add(f"ops.{op}.ms", dur, mask_of([f"ops.{op}"]))
        for i, name in enumerate(CONV_LAYERS):
            add(f"conv.{name}.ms", dur, conv & (layer == i))
            add(f"_conv.{name}.flops", fflops, conv & (layer == i))
        add("tensor.backward.ms", dur, mask_of(["tensor.backward"]))
        add("tensor.elementwise.ms", dur, mask_of(ELEMENTWISE))
        graph_ops = mask_of(GRAPH_OPS)
        add("tensor.ops.calls", ones, graph_ops)
        add("backbone.synthetic_backbone.ms", dur, mask_of(["backbone.synthetic_backbone"]),
            setup_only=True)
        add("cost.report.ms", dur, mask_of(COST_REPORTS))
        for fn in ("run_forward", "run_gradcheck", "run_cost"):
            add(f"harness.{fn}.ms", dur, mask_of([f"harness.{fn}"]))
        add("gradcheck.op_gradient_suite.ms", dur, mask_of(["gradcheck.op_gradient_suite"]))
        add("gradcheck.end_to_end_gradcheck.ms", dur, mask_of(["gradcheck.end_to_end_gradcheck"]))
        add("gradcheck.forward_evals", ones, mask_of(["neck.cefpn_forward"]))
        add("_e2e.ops", ones, graph_ops & inside_e2e)
        for name in SELF_TIMED:
            add(f"{name}.self_ms", self_ms, mask_of([name]),
                setup_only=name in ("neck.init_neck_params", "backbone.synthetic_backbone"))
        add("_top.ms", dur, parent < 0)

        def ratio(num: np.ndarray, den, factor: float = 1.0) -> float:
            den = np.asarray(den, dtype=float)
            vals = np.divide(num * factor, den, out=np.zeros(len(num)), where=den > 0)
            return float(np.median(vals)) if len(vals) else 0.0

        out = {m: float(np.median(v)) if len(v) else 0.0
               for m, v in totals.items() if not m.startswith("_")}
        out["ops.conv2d.gflops"] = ratio(totals["_ops.conv2d.flops"], totals["ops.conv2d.ms"], 1e-6)
        for name in CONV_LAYERS:
            out[f"conv.{name}.gflops"] = ratio(totals[f"_conv.{name}.flops"],
                                               totals[f"conv.{name}.ms"], 1e-6)
        out["gradcheck.us_per_op"] = ratio(totals["gradcheck.end_to_end_gradcheck.ms"],
                                           totals["_e2e.ops"], 1e3)
        out["trace.coverage"] = ratio(totals["_top.ms"], iter_wall_ms)
        return out

    def write(self, path: Path) -> None:
        """Write every span as compressed arrays plus the name table."""
        nid, start, end, parent, it, layer, flops = self._arrays()
        t0 = int(start.min()) if len(start) else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, name=nid, start_ns=start - t0, end_ns=end - t0,
                            parent=parent, iteration=it, conv_layer=layer, flops=flops,
                            names=np.array(json.dumps(self.names)),
                            conv_layers=np.array(json.dumps(CONV_LAYERS)))
