#!/usr/bin/env python3
"""Benchmark of the cefpn neck and its engine.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory only. One process, one client, closed loop; the BLAS
thread pool is set to the number of usable cores.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures half the time untraced and half traced, and reports the
per-layer metrics from spans recorded around the package's public functions.
Either way every iteration's output is checked and a tracemalloc-only pass of
one iteration, run apart from the timed loop, gives the memory figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above it
give the environment and every metric by name and unit. Results and spans are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "cefpn"

# The timed run is split into this many segments. Each starts with a cold
# round (a fresh import, the workload's set-up and its first iteration) and
# continues with warm iterations, so that cold and warm samples are spread
# over the same stretch of time. setup_s and first_iter_ms are medians over
# the cold rounds.
COLD_ROUNDS = 5
TAIL_BEYOND = 10    # the tail percentile keeps at least this many samples above it
MIB = 2 ** 20

END_TO_END_UNITS = {"iter_ms_p50": "ms", "iter_ms_tail": "ms", "throughput_per_s": "1/s",
                    "first_iter_ms": "ms", "setup_s": "s", "peak_mem_mb": "MiB"}


def limit_blas_threads() -> int:
    """Size the BLAS pool to the usable cores; call before numpy is imported."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def import_package():
    """Import the package afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    where = Path(pkg.__file__).resolve().parent
    if where != (SRC / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {where}, not from {SRC}")
    return pkg


def blas_info() -> dict:
    import numpy as np

    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    # Ask the loaded OpenBLAS for its pool size, as threadpoolctl would.
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line.split()[-1]}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int, input_seed: int, held_out: int, cores: int) -> dict:
    import numpy as np

    return {"nproc": cores, "blas": blas_info(),
            "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "seed": seed, "input_seed": input_seed,
            "held_out_seed": held_out}


class Loop:
    """Runs and checks iterations, counting attempts and failures."""

    def __init__(self, workload, expected):
        self.workload, self.expected = workload, expected
        self.pkg = self.state = None
        self.attempted = 0
        self.failed = 0

    def check(self, result) -> None:
        try:
            problems = self.workload.check(self.state, result, self.expected)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"check failed: {'; '.join(problems[:5])}", file=sys.stderr)

    def once(self) -> float:
        """One checked iteration; returns its wall time in ms."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.iterate(self.pkg, self.state)
        except Exception:
            elapsed = (time.perf_counter() - t0) * 1e3
            self.failed += 1
            traceback.print_exc()
            return elapsed
        elapsed = (time.perf_counter() - t0) * 1e3
        self.check(result)
        return elapsed

    def run_until(self, deadline: float, on_start=None, at_least: int = 1) -> list[float]:
        times = []
        while len(times) < at_least or time.perf_counter() < deadline:
            if on_start is not None:
                on_start(len(times))
            times.append(self.once())
        return times

    def memory_pass(self) -> dict:
        """One checked iteration under tracemalloc; the peak, plus the traced
        memory and graph size right after the first ``cefpn_forward`` returns."""
        from tracer import rebind

        pkg = self.pkg
        original = pkg.neck.cefpn_forward
        probe: dict = {}

        def probed(*args, **kwargs):
            outs = original(*args, **kwargs)
            if "retained" not in probe:
                probe["retained"] = tracemalloc.get_traced_memory()[0]
                nodes = {id(n) for r in outs.levels().values() for n in pkg.tensor.GradTape(r).nodes}
                probe["nodes"] = len(nodes)
            return outs

        bound = rebind(PACKAGE, original, probed)
        gc.collect()
        self.attempted += 1
        tracemalloc.start()
        try:
            result = self.workload.iterate(pkg, self.state)
            probe["peak"] = tracemalloc.get_traced_memory()[1]
        except Exception:
            self.failed += 1
            traceback.print_exc()
            result = None
        finally:
            tracemalloc.stop()
            for mod, attr in bound:
                setattr(mod, attr, original)
        if result is not None:
            self.check(result)
        return probe


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run_untraced(workload, seed: int, seconds: float, expected: dict) -> tuple[Loop, dict, dict]:
    loop = Loop(workload, expected)
    setups, firsts, times = [], [], []
    start = time.perf_counter()
    for k in range(1, COLD_ROUNDS + 1):
        loop.pkg = loop.state = None  # drop the previous round's parameters first
        gc.collect()
        t0 = time.perf_counter()
        loop.pkg = import_package()
        loop.state = workload.setup(loop.pkg, seed)
        setups.append(time.perf_counter() - t0)
        firsts.append(loop.once())
        times += loop.run_until(start + seconds * k / COLD_ROUNDS,
                                at_least=1 if k == COLD_ROUNDS else 0)
    probe = loop.memory_pass()
    p_tail, pct = tail(times)
    metrics = {
        "iter_ms_p50": statistics.median(times),
        "iter_ms_tail": p_tail,
        "throughput_per_s": workload.items_per_iter * len(times) / (sum(times) / 1e3),
        "first_iter_ms": statistics.median(firsts),
        "setup_s": statistics.median(setups),
        "peak_mem_mb": probe.get("peak", 0) / MIB,
    }
    notes = {"samples": len(times), "tail_percentile": pct, "setup_s_rounds": setups,
             "first_iter_ms_rounds": firsts,
             "error_rate": loop.failed / loop.attempted}
    return loop, metrics, notes


def run_traced(workload, seed: int, seconds: float, expected: dict, spans_path: Path):
    from tracer import SETUP, Tracer

    pkg = import_package()
    config, geometry = workload.flop_config(pkg)
    report = pkg.cost.cefpn_report(config, geometry, 2)
    recorder = Tracer(pkg)
    recorder.set_layer_flops({e.layer: e.flops for e in report.entries if e.kind == "mac"})
    recorder.current = SETUP
    recorder.install()
    try:
        state = workload.setup(pkg, seed)
    finally:
        recorder.uninstall()
    loop = Loop(workload, expected)
    loop.pkg, loop.state = pkg, state
    loop.once()
    untraced = loop.run_until(time.perf_counter() + seconds / 2)
    recorder.install()
    try:
        traced = loop.run_until(time.perf_counter() + seconds / 2,
                                on_start=lambda k: setattr(recorder, "current", k))
    finally:
        recorder.uninstall()
    probe = loop.memory_pass()
    metrics = recorder.per_layer(traced)
    metrics["tensor.tape_nodes"] = float(probe.get("nodes", 0))
    metrics["tensor.retained_mb"] = probe.get("retained", 0) / MIB
    metrics["trace.overhead_ms"] = statistics.median(traced) - statistics.median(untraced)
    recorder.write(spans_path)
    notes = {"untraced_samples": len(untraced), "traced_samples": len(traced),
             "spans": len(recorder.start), "error_rate": loop.failed / loop.attempted}
    return loop, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cores = limit_blas_threads()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    expected = workloads.load_expected()[workload.name][str(seed)]

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        loop, metrics, notes = run_traced(workload, seed, args.seconds, expected,
                                          OUT / f"spans-{tag}.npz")
        units = {name: unit for name, unit, _better in tracer.PER_LAYER}
    else:
        loop, metrics, notes = run_untraced(workload, seed, args.seconds, expected)
        units = END_TO_END_UNITS

    env = environment(args.seed, seed, workloads.HELD_OUT_SEED, cores)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"workload": workload.name, "env": env, "notes": notes, **result},
                   indent=2) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    print(f"{'error_rate':<40} {notes['error_rate']:>16.6g} ratio  "
          f"({loop.failed} failed of {loop.attempted} attempted)")
    if not args.trace:
        print(f"iter_ms_tail is p{notes['tail_percentile']:.1f} of {notes['samples']} samples")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
