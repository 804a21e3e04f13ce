"""Smoke tests for the scripts in ``scripts/``."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_sweep(*args, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "manipulability_sweep.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def test_manipulability_sweep_small_run():
    lines = run_sweep("--markets", "50", "--seed", "7").stdout.splitlines()
    assert "applicable (agent, rule) pairs: 8" in lines
    assert "assertion failures: 0" in lines
    assert "markets refused by a size limit: 0" in lines


def test_manipulability_sweep_figures_at_300_markets():
    lines = run_sweep("--markets", "300", "--seed", "7").stdout.splitlines()
    assert "markets: 300   with >=2 stable matchings: 19" in lines
    assert "applicable (agent, rule) pairs: 152" in lines
    assert "assertion failures: 0" in lines
    assert "markets refused by a size limit: 0" in lines


def test_manipulability_sweep_on_markets_up_to_six_a_side():
    lines = run_sweep("--markets", "20", "--max-side", "6").stdout.splitlines()
    assert "assertion failures: 0" in lines


def test_manipulability_sweep_counts_a_market_over_a_size_limit_as_refused():
    # at seed 2, market 0 draws 30 firms and 30 workers: the DA rules verify
    # its pairs, and the selector rules' enumeration is over its budget
    proc = run_sweep("--markets", "1", "--seed", "2", "--max-side", "32", expect=3)
    lines = proc.stdout.splitlines()
    assert "markets: 1   with >=2 stable matchings: 1" in lines
    assert "applicable (agent, rule) pairs: 20" in lines
    assert "assertion failures: 0" in lines
    assert "markets refused by a size limit: 1" in lines
    assert lines[lines.index("markets refused by a size limit: 1") + 1].startswith(
        "  market 0 (30 x 30): stable-set enumeration needs more than its budget")
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("args, complaint", [
    (("--max-side", "2"), "--max-side must be between 3 and 32, got 2"),
    (("--max-side", "33"), "--max-side must be between 3 and 32, got 33"),
    (("--markets", "-1"), "--markets must be at least 0, got -1"),
])
def test_manipulability_sweep_rejects_arguments_out_of_range(args, complaint):
    stderr = run_sweep(*args, expect=2).stderr
    assert complaint in stderr
    assert "Traceback" not in stderr
