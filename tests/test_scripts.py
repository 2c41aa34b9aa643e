"""The runnable scripts exit cleanly."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_reproduce_cost_deltas_exits_zero():
    done = run_script("scripts/reproduce_cost_deltas.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_desk_demo_exits_zero(tmp_path):
    done = run_script("scripts/desk_demo.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"{suite}_report.{ext}" for suite in ("cost", "forward", "gradcheck")
        for ext in ("json", "txt")]
