"""Smoke tests for the scripts in ``scripts/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_sweep(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "manipulability_sweep.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_manipulability_sweep_small_run():
    lines = run_sweep("--markets", "50", "--seed", "7")
    assert "applicable (agent, rule) pairs: 8" in lines
    assert "assertion failures: 0" in lines


def test_manipulability_sweep_on_markets_up_to_six_a_side():
    lines = run_sweep("--markets", "20", "--max-side", "6")
    assert "assertion failures: 0" in lines
