"""Command-line harness.

    cefpn --suite all --seed 7 --out reports/
    cefpn --suite cost --base-channel 256 --reduction 32 --height 64 --width 64
    cefpn --config reports/config.json --suite forward

Flags set the ``RunConfig`` fields they name and override ``--config``.
``RunConfig`` judges every value, from a flag or the file, and a bad one
gets one ``error:`` line. With ``--out``, each suite writes
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

from .errors import ConfigError, ContractError, ShapeError
from .harness import RunConfig, run_suites

# The flags not spelled as their field; the rest are the field name with dashes.
_FLAG_NAMES = {"attention_reduction": "--reduction", "backbone_pattern": "--backbone"}


def build_parser() -> argparse.ArgumentParser:
    """One flag per ``RunConfig`` field, plus ``--config`` and ``--out``."""
    p = argparse.ArgumentParser(
        prog="cefpn", exit_on_error=False,
        description="Run forward, gradient-check, and cost suites for the "
                    "channel-enhanced feature pyramid neck.")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with run-config fields; flags override it")
    for f in dataclasses.fields(RunConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        if f.type == "bool":
            p.add_argument(flag, action="store_const", const=True, default=None, dest=f.name)
        else:
            p.add_argument(flag, type=int if f.type == "int" else str, default=None,
                           dest=f.name, help=f"default {f.default}")
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
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args)
        if args.out is not None:
            try:
                args.out.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise ConfigError(f"cannot create output directory {args.out}: {e}") from e
        reports = run_suites(config)
    except (argparse.ArgumentError, ConfigError, ShapeError, ContractError) as e:
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
