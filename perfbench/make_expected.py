#!/usr/bin/env python3
"""Regenerate ``perfbench/expected.json``, the stored outputs every run checks.

    python3 perfbench/make_expected.py

For each workload and each input seed it records what a correct program
returns: level sums and norms plus every parameter-gradient norm for
``train-ref``, the float64 level stats of the same config for
``forward-suite-f32``, and the desk-scale forward stats for ``verify-desk``
(whose gradcheck must also pass at that seed). It also reports the worst
float32 deviation seen, against which ``F32_RTOL`` was set.

Run it only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.limit_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads

    pkg = run.import_package()
    table: dict = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {}
        worst = 0.0
        for seed in range(workloads.INPUT_SEEDS):
            state = workload.setup(pkg, seed)
            table[name][str(seed)] = workload.expected_of(pkg, state)
            if name == "forward-suite-f32":
                got = workload.iterate(pkg, state).document["levels"]
                for level, want in table[name][str(seed)]["levels"].items():
                    scale = max(abs(want["min"]), abs(want["max"]))
                    for key in ("min", "max", "mean"):
                        worst = max(worst, abs(got[level][key] - want[key]) / scale)
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
        if name == "forward-suite-f32":
            print(f"float32 worst relative deviation {worst:.3g} "
                  f"(tolerance {workloads.F32_RTOL:g})", file=sys.stderr)
    # One line per (workload, seed) keeps the file reviewable in a diff.
    lines = []
    for name, seeds in table.items():
        rows = [f'    "{seed}": {json.dumps(entry, sort_keys=True)}' for seed, entry in seeds.items()]
        lines.append(f'  "{name}": {{\n' + ",\n".join(rows) + "\n  }")
    workloads.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
