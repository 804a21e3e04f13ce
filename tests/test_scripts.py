"""Smoke tests for the scripts in ``scripts/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_manipulability_sweep_small_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "manipulability_sweep.py"),
         "--markets", "50", "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "applicable (agent, rule) pairs: 8" in proc.stdout.splitlines()
    assert "assertion failures: 0" in proc.stdout.splitlines()
