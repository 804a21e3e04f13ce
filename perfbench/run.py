#!/usr/bin/env python3
"""The manymatch benchmark.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0

Runs one workload (or, with ``--workload all``, each workload in its own fresh
interpreter, one after another), checks every op's output, and prints a
report whose last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a traced
run, compared against an untraced run of the same ops.  See README.md in this
directory for the workloads and metrics.

The package is imported from ``src/`` of the checkout that holds this
directory; the benchmark exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("sweep", "manipulate", "large_lists")
DEFAULT_SEED = 7
SETUP_RUNS = 15         # fresh interpreters timed for setup_s
SETUP_PER_GAP = 3       # of them run between two passes
MIN_PASSES = 3          # runs of every op, at the least
# Distinct ops per run (at least 100, so that at least 10 lie beyond p90),
# each pass over them taking about 4 s; a 20-s run makes four to six passes.
OPS_PER_PASS = {"sweep": 300, "manipulate": 480, "large_lists": 144}
GATE_MIN_CHECKS = 26    # paper-examples checks at the time the benchmark was defined
SUBPROCESS_TIMEOUT = 170

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="manymatch benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="op time measured per run (input generation and checks excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the inputs, print their digest, exit")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one package result per op from the benchmark side")
    parser.add_argument("--record-digests", type=int, default=0, metavar="N",
                        help="run the first N ops at the default seed and store their digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "manymatch", "__init__.py")):
        print(f"error: no manymatch package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    import manymatch
    if not os.path.abspath(manymatch.__file__).startswith(SRC + os.sep):
        print(f"error: manymatch imported from {manymatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            _, inputs = workload.setup(OPS_PER_PASS[args.workload])
            print("ready", inputs, flush=True)
            print("yardstick", statistics.median(yardstick() for _ in range(2 * YARDSTICK_WINDOW)))
            return 0
        if args.record_digests:
            return record_digests(args, workdir)
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- one workload -------------------------------------------------------------


def run_workload(args, workdir: str) -> int:
    import workloads

    print(f"workload: {args.workload}   seed: {args.seed}   seconds: {args.seconds:g}   "
          f"trace: {args.trace}")
    print(environment_line())
    gate_ok = paper_examples_gate()
    print(f"gate paper-examples: {'pass' if gate_ok else 'FAIL'}")

    if args.inject_fault:
        workloads.inject_fault(args.workload)
    expected = expected_digests(args.workload) if args.seed == DEFAULT_SEED else []
    runs = OpRuns(args, workdir, expected)

    if args.trace:
        # Untraced and traced passes alternate, starting and ending untraced,
        # so that a drift in machine speed cancels out of the tracing overhead.
        import tracer as tracing
        tracer = tracing.Tracer()
        while runs.passes < MIN_PASSES or runs.passes % 2 == 0 or runs.work_s < args.seconds:
            if runs.passes % 2:
                tracer.install()
                try:
                    runs.run_pass(tracer=tracer)
                finally:
                    tracer.uninstall()
            else:
                runs.run_pass()
    else:
        # Set-up probes run between passes, so that they meet the machine in
        # the states the passes met.
        setup_samples = []
        while runs.run_pass(args.seconds if runs.passes >= MIN_PASSES else None):
            for _ in range(min(SETUP_PER_GAP, SETUP_RUNS - len(setup_samples))):
                setup_samples.append(setup_probe(args))
            if runs.passes >= MIN_PASSES and runs.work_s >= args.seconds:
                break
        while len(setup_samples) < SETUP_RUNS:
            setup_samples.append(setup_probe(args))
        print("setup samples (s, scaled/measured): "
              + " ".join(f"{scaled:.4f}/{raw:.4f}" for scaled, raw in setup_samples))

    attempted, failed = len(runs.ops), len(runs.failed)
    completed = attempted - failed
    print(f"inputs_sha256: {runs.inputs}")
    print(f"ops: {attempted} distinct, {runs.passes} full passes, "
          f"{runs.executions} executions, {runs.work_s:.3f} s of op time")
    print(f"error_rate: {failed / attempted:.6g} ratio   ({failed} failed of {attempted})")
    for line in runs.problems[:10]:
        print(f"  problem: {line}")

    print(f"machine speed: the yardstick took {runs.speed_factor():.4g}x its reference time "
          f"(median of {len(runs.yard)})")
    if args.trace:
        untraced_ops_per_s = completed / sum(runs.latencies(traced=False))
        traced_ops_per_s = completed / sum(runs.latencies(traced=True))
        print(f"untraced: {untraced_ops_per_s:.6g} ops/s   traced: {traced_ops_per_s:.6g} ops/s")
        metrics = tracer.summary(untraced_ops_per_s, traced_ops_per_s)
        units = tracing.per_layer_units()
        path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.bin")
        tracer.write(path)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(path, ROOT)}")
    else:
        latencies = runs.latencies(traced=False)
        p90 = percentile(latencies, 0.9)
        metrics = {
            "ops_per_s": completed / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "setup_s": statistics.median(scaled for scaled, _ in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"latency samples: {len(latencies)} ops, each the median of its runs   "
              f"beyond p90: {sum(x > p90 for x in latencies)}")
        measured = runs.latencies(traced=False, scaled=False)
        print(f"as measured, not scaled: ops_per_s {completed / sum(measured):.6g}   "
              f"op_p50_ms {statistics.median(measured) * 1e3:.6g}   "
              f"op_p90_ms {percentile(measured, 0.9) * 1e3:.6g}   "
              f"setup_s {statistics.median(raw for _, raw in setup_samples):.6g}")

    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": gate_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


class OpRuns:
    """A workload's ops, built once, and the passes made over them.

    Every pass runs every op in the same order from the same cache state:
    with cold caches every cache is reset before each op, otherwise before
    each pass.  After each op, off the clock, the yardstick runs once; each
    op run's time is scaled to the reference speed by the yardstick runs
    around it, and an op's latency is the median of its scaled runs (kept
    apart for traced and untraced passes).  The first pass checks every
    output against the reference model; later passes must reproduce the
    first pass's output.  Only the ops themselves count as work time; cache
    resets, yardstick runs and checks happen off the clock."""

    def __init__(self, args, workdir: str, expected: list[str]):
        import workloads

        workloads.reset_caches()
        self.workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        self.ops, self.inputs = self.workload.setup(OPS_PER_PASS[args.workload])
        self.expected = expected
        # One entry per op run, in the order run: op index, traced, op time,
        # and the time of the yardstick run that followed it.
        self.run_op, self.run_traced = array("l"), array("b")
        self.run_s, self.yard = array("d"), array("d")
        self.digests: list[str | None] = [None] * len(self.ops)
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.passes = 0        # full passes made
        self.executions = 0
        self.work_s = 0.0

    def run_pass(self, stop_at=None, tracer=None) -> bool:
        """Run every op once, or until ``stop_at`` seconds of op time have
        passed in all; return whether the pass ran every op."""
        import workloads

        workload = self.workload
        clock = time.perf_counter
        if not workload.cold_caches:
            workloads.reset_caches()
        for index, op in enumerate(self.ops):
            if stop_at is not None and self.work_s >= stop_at:
                return False
            if workload.cold_caches:
                workloads.reset_caches()
            if tracer is not None:
                tracer.begin_op(self.passes * len(self.ops) + index)
            start = clock()
            try:
                result = workload.execute(op)
                error = None
            except Exception:  # an op that raises counts as failed; keep measuring
                error = traceback.format_exc(limit=3)
            stop = clock()
            if tracer is not None:
                tracer.end_op(stop - start)
            self.run_op.append(index)
            self.run_traced.append(tracer is not None)
            self.run_s.append(stop - start)
            self.yard.append(yardstick())
            self.work_s += stop - start
            self.executions += 1
            self._check(index, op, result if error is None else None, error)
        self.passes += 1
        return True

    def latencies(self, traced: bool, scaled: bool = True) -> list[float]:
        """Each op's latency: the median over its runs of the given kind."""
        times = scaled_times(self.run_s, self.yard) if scaled else self.run_s
        runs: list[list[float]] = [[] for _ in self.ops]
        for index, was_traced, t in zip(self.run_op, self.run_traced, times):
            if was_traced == traced:
                runs[index].append(t)
        return [statistics.median(r) for r in runs]

    def speed_factor(self) -> float:
        return statistics.median(self.yard) / YARDSTICK_REF_S

    def _check(self, index, op, result, error) -> None:
        found = [error] if error is not None else []
        if error is None:
            try:
                if self.passes == 0:
                    output, found = self.workload.check(op, result)
                else:
                    output = self.workload.output(op, result)
            except Exception:  # a malformed output is a failed check
                output, found = "", [traceback.format_exc(limit=3)]
            if self.passes == 0:
                self.digests[index] = digest(output)
                if index < len(self.expected) and self.digests[index] != self.expected[index]:
                    found.append("output digest differs from the recorded one")
            elif digest(output) != self.digests[index]:
                found.append(f"pass {self.passes + 1} output differs from the first pass")
        if found:
            self.failed.add(index)
            self.problems.extend(f"op {index}: {p}" for p in found)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()[:16]


# -- scaling to the reference speed -------------------------------------------------
#
# The benchmark was defined on 2 vCPUs shared with other tenants, whose speed
# for the same work changed by 30-45% between states lasting seconds to
# minutes.  The yardstick, a fixed pure-Python computation that does not touch
# the package, runs after every op and at the end of every set-up probe, and
# every time is scaled by the yardstick's reference time over its time at
# that moment: each time metric reads as it would on the machine at the speed
# where the yardstick takes YARDSTICK_REF_S.  A change to the package moves the scaled
# times as it moves the measured ones; a change in the machine's speed moves
# only the measured ones, which the report also prints.

YARDSTICK_REF_S = 5.0e-4   # the yardstick's time at the reference speed
YARDSTICK_WINDOW = 8       # yardstick runs on each side that scale an op run


# The yardstick's data: tuples holding small frozensets, a few hundred KiB,
# like the package's agent sets and matchings.
_YARDSTICK_ITEMS = [(i, frozenset((i % 13, i % 17)), 3 * i) for i in range(8000)]


def yardstick() -> float:
    """Time one run of the yardstick: a walk over ``_YARDSTICK_ITEMS`` that
    hashes and measures each set.  Of the yardsticks tried on the machine the
    benchmark was defined on, it tracked the ops' speed best: a run's ops
    over its yardstick time moved by about 2%, against 4-9% for an integer
    loop, 7% for lookups in a large dict and 15% for a numpy reduction.

    The walk runs twice and only the second run is timed, so that what the
    op before it left in the processor's caches does not count."""
    for timed in (False, True):
        start = time.perf_counter()
        total = 0
        for a, pair, b in _YARDSTICK_ITEMS[::4]:
            total += len(pair) + (a ^ b) % 5 + hash(pair) % 3
    return time.perf_counter() - start


def scaled_times(times, yard) -> list[float]:
    """Each op run's time scaled to the reference speed by the median of the
    yardstick runs from YARDSTICK_WINDOW before it to YARDSTICK_WINDOW after
    it (the k-th yardstick run followed the k-th op run)."""
    return [t * YARDSTICK_REF_S
            / statistics.median(yard[max(0, k - YARDSTICK_WINDOW):k + YARDSTICK_WINDOW + 1])
            for k, t in enumerate(times)]


def setup_probe(args) -> tuple[float, float]:
    """Time from spawning a fresh interpreter to its inputs being ready, as
    the probe announces, scaled by the yardstick runs the probe makes next,
    and as measured.  The probe's exit and its yardstick runs are not timed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        bufsize=0)
    try:
        # Unbuffered, readline takes only the first line; communicate() reads
        # the rest from the pipe itself.
        line = proc.stdout.readline().decode()
        elapsed = time.perf_counter() - start
        rest, err = (out.decode() for out in proc.communicate(timeout=SUBPROCESS_TIMEOUT))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not line.startswith("ready ") or not rest.startswith("yardstick "):
        raise RuntimeError(f"setup probe failed: {line + rest!r} {err!r}")
    return elapsed * YARDSTICK_REF_S / float(rest.split()[1]), elapsed


def paper_examples_gate() -> bool:
    """Every bundled-market check of ``manymatch paper-examples`` must pass."""
    proc = subprocess.run([sys.executable, "-m", "manymatch.cli", "paper-examples"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    passed, _, total = last[0].partition(" ")[0].partition("/")
    ok = (proc.returncode == 0 and passed.isdigit() and passed == total
          and int(total) >= GATE_MIN_CHECKS)
    print(f"paper-examples: {last[0]} (exit {proc.returncode})")
    return ok


def environment_line() -> str:
    import numpy
    return (f"commit: {git_commit()}   "
            f"python: {platform.python_version()}   numpy: {numpy.__version__}   "
            f"nproc: {len(os.sched_getaffinity(0))}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- digests recorded at the default seed ----------------------------------------


DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")


def expected_digests(workload: str) -> list[str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)["ops"].get(workload, [])


def record_digests(args, workdir: str) -> int:
    args.seed = DEFAULT_SEED
    OPS_PER_PASS[args.workload] = args.record_digests
    runs = OpRuns(args, workdir, [])
    runs.run_pass()
    if runs.failed:
        print("\n".join(runs.problems[:10]), file=sys.stderr)
        return 1
    try:
        with open(DIGESTS_PATH) as fh:
            document = json.load(fh)
    except FileNotFoundError:
        document = {"seed": DEFAULT_SEED, "ops": {}}
    document["ops"][args.workload] = runs.digests
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(document, fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(runs.ops)} digests for {args.workload}")
    return 0


# -- every workload ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own interpreter; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.inject_fault:
            cmd.append("--inject-fault")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
