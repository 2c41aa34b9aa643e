#!/usr/bin/env python3
"""Reproduce the reference parameter/FLOP deltas at width 256.

Runs the harness cost suite at width 256, which diffs each ablation against
the plain pyramid baseline, and checks every delta against its reference
target:

    scheme c    +0        exactly (also 0 FLOPs under both conventions)
    scheme a    +2.10M    within +/-0.01M
    attention   +0.01M    exactly the analytic 8,720
    full neck   +27.28M   within 5%

Exit status 0 when every row matches.

Usage:
    python scripts/reproduce_cost_deltas.py [--height 64] [--width 64]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cefpn import RunConfig, run_cost


def check_row(name, delta, target, tolerance, unit=1e6):
    err = abs(delta - target)
    ok = err <= tolerance
    print(f"{'PASS' if ok else 'FAIL'}  {name:<10} delta {delta / unit:+10.4f}M   "
          f"target {target / unit:+8.2f}M   |err| {err / unit:.4f}M")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--width", type=int, default=64)
    args = parser.parse_args(argv)

    def cost(mac):
        config = RunConfig(base_channel=256, attention_reduction=32, height=args.height,
                           width=args.width, suite="cost", mac_convention=mac)
        return run_cost(config).document

    document = cost(2)
    baseline_params = document["reports"]["baseline"]["totals"]["params"]
    rows = {name: delta["params_delta"] for name, delta in document["deltas"].items()}

    print(f"baseline neck: {baseline_params:,} parameters "
          f"({baseline_params / 1e6:.2f}M)\n")
    ok = True
    ok &= check_row("ssf_c", rows["ssf_c"], 0, 0)
    ok &= check_row("ssf_b", rows["ssf_b"], 0, 0)
    ok &= check_row("ssf_a", rows["ssf_a"], 2.10e6, 0.01e6)
    ok &= check_row("cag", rows["cag"], 8720, 0)
    ok &= check_row("sce", rows["sce"], 27.27e6, 0.05 * 27.27e6)
    ok &= check_row("cefpn", rows["cefpn"], 27.28e6, 0.05 * 27.28e6)

    zero_flops = all(doc["deltas"]["ssf_c"]["flops_delta"] == 0 for doc in (cost(1), document))
    print(f"\n{'PASS' if zero_flops else 'FAIL'}  scheme c adds 0 FLOPs under mac=1 and mac=2")
    ok &= zero_flops
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
