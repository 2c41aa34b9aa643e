"""Command-line harness.

    cefpn --suite all --seed 7 --out reports/
    cefpn --suite cost --base-channel 256 --reduction 32 --height 64 --width 64
    cefpn --config reports/config.json --suite forward

Flags override values from ``--config``. With ``--out``, each suite writes
``<suite>_report.json`` and ``<suite>_report.txt`` plus a ``config.json``
echo that reproduces the run byte for byte; without it, JSON reports go to
stdout. Diagnostics go to stderr only. Exit status: 0 if every selected
suite passed, 1 on suite failure, 2 on bad configuration or an ``--out``
directory that cannot be created (checked before any suite runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .backbone import PATTERNS
from .cost import MAC_CONVENTIONS
from .errors import ConfigError, ContractError, ShapeError
from .harness import SUITES, RunConfig, run_suites
from .neck import SSF_SCHEMES
from .tensor import DTYPES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cefpn",
        description="Run forward, gradient-check, and cost suites for the "
                    "channel-enhanced feature pyramid neck.")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with run-config fields; flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base-channel", type=int, default=None, dest="base_channel")
    p.add_argument("--ssf-scheme", choices=SSF_SCHEMES, default=None, dest="ssf_scheme")
    p.add_argument("--reduction", type=int, default=None, dest="attention_reduction",
                   help="channel attention bottleneck reduction ratio")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--suite", choices=SUITES, default=None)
    p.add_argument("--mac-convention", type=int, choices=MAC_CONVENTIONS, default=None,
                   dest="mac_convention")
    p.add_argument("--precision", choices=tuple(DTYPES), default=None)
    p.add_argument("--backbone", choices=PATTERNS, default=None, dest="backbone_pattern")
    p.add_argument("--include-f5-p5", action="store_const", const=True, default=None,
                   dest="include_f5_p5")
    p.add_argument("--out", type=Path, default=None,
                   help="directory for report files (default: print to stdout)")
    return p


def _load_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        try:
            loaded = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, "
                              f"got {type(loaded).__name__}")
        values.update(loaded)
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    return RunConfig.from_dict(values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.out is not None:
            try:
                args.out.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise ConfigError(f"cannot create output directory {args.out}: {e}") from e
        reports = run_suites(config)
    except (ConfigError, ShapeError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out is not None:
        (args.out / "config.json").write_text(
            json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
        for report in reports:
            (args.out / f"{report.suite}_report.json").write_text(report.to_json())
            (args.out / f"{report.suite}_report.txt").write_text(report.text)
    else:
        for report in reports:
            sys.stdout.write(report.to_json())
    failed = [r.suite for r in reports if not r.passed]
    for suite in failed:
        print(f"error: suite {suite} failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
