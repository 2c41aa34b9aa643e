"""The runnable scripts and ``python -m cefpn`` exit cleanly."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args, env=None):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env=env)


def test_reproduce_cost_deltas_exits_zero():
    done = run_script("scripts/reproduce_cost_deltas.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_package_main_prints_cost_report():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = run_script("-m", "cefpn", "--suite", "cost", env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(done.stdout)
    assert doc["suite"] == "cost" and doc["config"]["suite"] == "cost"
    assert "cefpn" in doc["reports"] and "cefpn" in doc["deltas"]
