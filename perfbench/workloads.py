"""The benchmark's three workloads: input generators, ops and output checks.

Each workload yields ops in a fixed order that depends only on its seed.  An
op is timed by the caller through ``execute``; ``check`` runs after the timer
stops and returns the op's canonical output (which is digested) and the list
of problems found, and ``output`` returns the canonical output alone, for
comparing a repeat of the op with its checked first run.  Checks use the
plain-Python model in ``reference``, never the package, as the oracle.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re

import manymatch
import manymatch.cli
from manymatch import QuotaRanking, Side, StableRule, responsive_preference
from manymatch import axioms, stability

import reference as ref

# Captured before any tracing wrapper is installed, so resets and cache
# statistics always reach the real lru_cache objects.
CHECK_SUBSTITUTABLE = axioms.check_substitutable
CHECK_LAD = axioms.check_lad


def reset_caches() -> None:
    """Empty every package cache, as a fresh ``manymatch`` process has them."""
    stability.clear_enumeration_cache()
    CHECK_SUBSTITUTABLE.cache_clear()
    CHECK_LAD.cache_clear()


class ListMarket:
    """A responsive market built by the benchmark: rankings plus quotas, the
    explicit lists they induce, and the market file text."""

    def __init__(self, firm_rq, worker_rq):
        self.firm_rq, self.worker_rq = firm_rq, worker_rq
        self.n, self.m = len(firm_rq), len(worker_rq)
        self.firm_lists = tuple(ref.responsive_list(r, q) for r, q in firm_rq)
        self.worker_lists = tuple(ref.responsive_list(r, q) for r, q in worker_rq)
        self.firm_names = tuple(f"f{i + 1}" for i in range(self.n))
        self.worker_names = tuple(f"w{j + 1}" for j in range(self.m))
        self.text = self._text()

    def da(self, proposing: Side) -> set[tuple[int, int]]:
        f_rank, f_q = [r for r, _ in self.firm_rq], [q for _, q in self.firm_rq]
        w_rank, w_q = [r for r, _ in self.worker_rq], [q for _, q in self.worker_rq]
        if proposing is Side.FIRM:
            return ref.deferred_acceptance(f_rank, f_q, w_rank, w_q)
        return {(f, w) for w, f in ref.deferred_acceptance(w_rank, w_q, f_rank, f_q)}

    def _text(self) -> str:
        def alternatives(lst, names):
            return " | ".join(" ".join(names[i] for i in range(len(names)) if entry >> i & 1)
                              for entry in lst)
        lines = ["firms: " + " ".join(self.firm_names),
                 "workers: " + " ".join(self.worker_names)]
        lines += [f"pref {name}: {alternatives(lst, self.worker_names)}".rstrip()
                  for name, lst in zip(self.firm_names, self.firm_lists)]
        lines += [f"pref {name}: {alternatives(lst, self.firm_names)}".rstrip()
                  for name, lst in zip(self.worker_names, self.worker_lists)]
        return "\n".join(lines) + "\n"

    def is_stable(self, edges) -> bool:
        return ref.is_stable(self.firm_lists, self.worker_lists, edges)

    def edges_from_table(self, header: str, row: str) -> set[tuple[int, int]]:
        """Edges of a matching rendered as the CLI's two-row firm table."""
        starts, pos = [], 0
        for name in self.firm_names:
            pos = header.index(name, pos)
            starts.append(pos)
            pos += len(name)
        if header.split() != list(self.firm_names):
            raise ValueError(f"unexpected table header {header!r}")
        edges = set()
        for f, start in enumerate(starts):
            end = starts[f + 1] if f + 1 < self.n else None
            edges |= self._cell_edges(f, row[start:end].split())
        return edges

    def edges_from_dict(self, matching: dict) -> set[tuple[int, int]]:
        if list(matching) != list(self.firm_names):
            raise ValueError("matching does not list every firm in order")
        edges = set()
        for f, name in enumerate(self.firm_names):
            edges |= self._cell_edges(f, matching[name])
        return edges

    def _cell_edges(self, f: int, workers) -> set[tuple[int, int]]:
        if list(workers) == ["∅"]:
            return set()
        return {(f, self.worker_names.index(w)) for w in workers}


class Workload:
    """A workload whose inputs are generated in batches from the seed."""

    name = ""
    batch = 1
    cold_caches = True  # reset every package cache before each op

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pending: list = []
        self.markets = 0
        self.seen: dict[str, None] = {}  # market texts, in the order drawn

    def setup(self, count: int) -> tuple[list, str]:
        """Build the first ``count`` ops; return them and a digest of the
        markets they were built from."""
        os.makedirs(self.workdir, exist_ok=True)
        ops = [self.next_op() for _ in range(count)]
        return ops, hashlib.sha256("\n".join(self.seen).encode()).hexdigest()

    def next_op(self):
        while not self.pending:
            self._generate(self.batch)
        return self.pending.pop(0)

    def _generate(self, count: int) -> None:
        """Append the ops of ``count`` new markets."""
        raise NotImplementedError

    def _is_new(self, market: ListMarket) -> bool:
        """No profile repeats among a run's ops."""
        if market.text in self.seen:
            return False
        self.seen[market.text] = None
        return True

    def _write(self, market: ListMarket) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{self.markets}.txt")
        self.markets += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(market.text)
        return path

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> tuple[str, list[str]]:
        raise NotImplementedError

    def output(self, op, result) -> str:
        """The canonical output that ``check`` returns, without the checks;
        the CLI workloads' output is the command's standard output."""
        return result[1]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = manymatch.cli.main(argv)
    return code, buf.getvalue()


class Sweep(Workload):
    """The paper's verification sweep, as scripts/manipulability_sweep.py runs
    it: per market, enumerate the stable set, then verify the truncation
    construction for every (rule, agent).  Caches persist across ops."""

    name = "sweep"
    batch = 16
    cold_caches = False

    # The script draws each side's size from 3-4 and takes whatever stable set
    # comes out.  Here the four shapes come in turn, and each shape's markets
    # with several stable matchings come at a fixed rate: their natural share,
    # measured as multi-stable markets per 1000 among 20000 markets drawn by
    # the script's own generator at its default seed 7 (about 5000 per shape).
    # Only these markets have applicable (agent, rule) pairs, and they cost
    # 4-5x more, so a run's throughput would otherwise swing with how many of
    # them the seed happens to draw.
    SHAPES = ((3, 3), (4, 4), (3, 4), (4, 3))
    MULTI_STABLE_PER_1000 = {(3, 3): 50, (4, 4): 102, (3, 4): 58, (4, 3): 56}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        # The script seeds its generator with the bare seed.
        self.rng = random.Random(seed)

    def _generate(self, count):
        while count:
            slot = len(self.seen)
            n, m = self.SHAPES[slot % len(self.SHAPES)]
            rate = self.MULTI_STABLE_PER_1000[n, m]
            want_multi = (slot // len(self.SHAPES) * rate) % 1000 < rate
            firm_q = [self._ranking(Side.FIRM, i, m) for i in range(n)]
            worker_q = [self._ranking(Side.WORKER, j, n) for j in range(m)]
            market = ListMarket([(q.individual_ranking, q.quota) for q in firm_q],
                                [(q.individual_ranking, q.quota) for q in worker_q])
            multi = market.da(Side.FIRM) != market.da(Side.WORKER)
            if multi != want_multi or not self._is_new(market):
                continue
            profile = manymatch.Profile(tuple(map(responsive_preference, firm_q)),
                                        tuple(map(responsive_preference, worker_q)))
            self.pending.append((profile, (market.firm_lists, market.worker_lists)))
            count -= 1

    def _ranking(self, side, index, opposite):
        rng = self.rng
        k = opposite if rng.random() < 0.85 else rng.randint(1, opposite)
        return QuotaRanking(owner=manymatch.AgentId(side, index),
                            individual_ranking=tuple(rng.sample(range(opposite), k)),
                            quota=rng.randint(1, 2))

    def execute(self, op):
        p, _ = op
        ss = stability.enumerate_stable(p)
        verifications = [manymatch.manipulation.verify_gmt(a, rule, p)
                         for rule in StableRule for a in p.agents()]
        return ss, verifications

    def check(self, op, result):
        _, (firm_lists, worker_lists) = op
        ss, verifications = result
        problems = []
        if not ss:
            problems.append("no stable matching for a responsive market")
        for mu in ss:
            if not ref.is_stable(firm_lists, worker_lists, mu.edges):
                problems.append(f"enumerated matching {sorted(mu.edges)} is not stable")
        for v in verifications:
            assertions = [list(c.assertions) for c in v.checks]
            if v.applicable and not (assertions and all(all(a) for a in assertions)):
                problems.append(f"verify_gmt {v.agent} {v.rule.value}: {assertions}")
        return self.output(op, result), problems

    def output(self, op, result):
        ss, verifications = result
        stable = [sorted(mu.edges) for mu in ss]
        gmt = [[v.rule.value, str(v.agent), v.applicable, [list(c.assertions) for c in v.checks]]
               for v in verifications]
        return json.dumps([stable, gmt])


# (rule, workers, quota) of successive manipulate ops.  Only the two DA rules:
# on a 2-vCPU VM shared with other tenants, the cold numpy scans behind the
# selector rules ran 40-70% slower whenever the host was contended, and their
# share of ops made the run-level figures swing from run to run (README.md).
# One op in four has quota 2 (a 6-entry list, 64 candidates, about 3x the
# cost of a quota-1 op with 8 candidates), so op_p90_ms sits inside that
# class rather than at the top edge of one narrow cluster, where a burst of
# host contention on a tenth of the ops would move it by a third.
_KINDS = (("firm-optimal", 3), ("worker-optimal", 3), ("firm-optimal", 4), ("worker-optimal", 4))
_OP_CYCLE = tuple((rule, m, quota) for quota in (1, 1, 1, 2) for rule, m in _KINDS)
_CANDIDATES = re.compile(r"^candidates: (\d+)   evaluated: (\d+)   rule failures: (\d+)$", re.M)


class Manipulate(Workload):
    """Per-candidate misreport search through the CLI, one (agent, rule) per
    op, on small responsive markets with at least two stable matchings.
    Each market serves one rule and ops follow ``_OP_CYCLE``, so every run
    has the same mix of rules, sizes and quotas."""

    name = "manipulate"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.queues = {key: [] for key in _OP_CYCLE}
        self.taken = 0

    def next_op(self):
        key = _OP_CYCLE[self.taken % len(_OP_CYCLE)]
        self.taken += 1
        while not self.queues[key]:
            self._add_market(*key)
        return self.queues[key].pop(0)

    def _add_market(self, rule: str, m: int, quota: int) -> None:
        """Queue the applicable (agent, rule) ops of a new market."""
        while True:
            market = self._market(m, quota)
            da_f, da_w = market.da(Side.FIRM), market.da(Side.WORKER)
            # With a single stable matching nobody can gain.
            if da_f != da_w and self._is_new(market):
                break
        path = self._write(market)
        # The rule's outcome; the side-optimal one is firm-optimal for firms
        # and worker-optimal for workers.
        output = da_f if rule == "firm-optimal" else da_w
        agents = [(Side.FIRM, i) for i in range(market.n)] + \
                 [(Side.WORKER, j) for j in range(market.m)]
        for side, i in agents:
            optimum = da_f if side is Side.FIRM else da_w
            mine = self._partners(output, side, i)
            if mine != self._partners(optimum, side, i):
                self.queues[rule, m, quota].append((market, path, side, i, rule, mine))

    @staticmethod
    def _partners(edges, side, i) -> int:
        if side is Side.FIRM:
            return sum(1 << w for f, w in edges if f == i)
        return sum(1 << f for f, w in edges if w == i)

    def _market(self, m: int, quota: int) -> ListMarket:
        """Every agent ranks 3 partners with the same quota, 1 or 2: a 3- or
        6-entry list, so every search of the market tries the same 2^3 or
        2^6 candidates."""
        rng = self.rng
        firm_rq = [(tuple(rng.sample(range(m), 3)), quota) for _ in range(3)]
        worker_rq = []
        for j in range(m):
            # Workers favour the firms that rank them low, so the two sides'
            # interests oppose and the stable set often has several members.
            score = {i: (ranking.index(j) if j in ranking else m) + 1.5 * rng.random()
                     for i, (ranking, _) in enumerate(firm_rq)}
            worker_rq.append((tuple(sorted(range(3), key=lambda i: -score[i])), quota))
        return ListMarket(firm_rq, worker_rq)

    def execute(self, op):
        market, path, side, i, rule, _ = op
        names = market.firm_names if side is Side.FIRM else market.worker_names
        return run_cli(["manipulate", path, "--agent", names[i], "--rule", rule])

    def check(self, op, result):
        market, _, side, i, rule, baseline = op
        code, out = result
        problems = []
        true_list = (market.firm_lists if side is Side.FIRM else market.worker_lists)[i]
        found = _CANDIDATES.search(out)
        if code != 0 or found is None:
            return out, [f"exit {code} or no candidate counts in output"]
        if int(found.group(1)) != 2 ** len(true_list):
            problems.append(f"candidates {found.group(1)} != 2**{len(true_list)}")
        if int(found.group(2)) + int(found.group(3)) != int(found.group(1)):
            problems.append("evaluated + rule failures != candidates")
        lines = out.splitlines()
        base_rank = ref.rank_of(baseline, true_list)
        profitable = 0
        for k, line in enumerate(lines):
            if not line.startswith("  reported:"):
                continue
            profitable += 1
            edges = market.edges_from_table(lines[k + 1][2:], lines[k + 2][2:])
            rank = ref.rank_of(Manipulate._partners(edges, side, i), true_list)
            if rank is None or rank >= base_rank:
                problems.append(f"finding {sorted(edges)} is not better than the baseline")
        if f"profitable misreports: {profitable}" not in lines:
            problems.append("profitable count does not match the listed findings")
        return out, problems


class LargeLists(Workload):
    """Validation and DA through the CLI on markets with long explicit lists;
    no command here enumerates stable matchings."""

    name = "large_lists"
    batch = 4

    # Every (firms, workers) pair of sizes 6-9 in turn, ordered so that large
    # and small markets alternate: a run's size mix then barely depends on
    # the seed or on where the run stops.
    SHAPES = ((6, 9), (9, 6), (7, 8), (8, 7), (6, 6), (9, 9), (7, 7), (8, 8),
              (6, 8), (8, 6), (7, 9), (9, 7), (6, 7), (7, 6), (8, 9), (9, 8))

    def _generate(self, count):
        for _ in range(count):
            n, m = self.SHAPES[self.markets % len(self.SHAPES)]
            market = ListMarket([self._ranking(m) for _ in range(n)],
                                [self._ranking(n) for _ in range(m)])
            if not self._is_new(market):
                continue
            path = self._write(market)
            self.pending += [
                (market, path, ["validate", path]),
                (market, path, ["solve", path, "--rule", "firm-optimal"]),
                (market, path, ["solve", path, "--rule", "worker-optimal", "--format", "json"]),
            ]

    def _ranking(self, opposite):
        """A quota of 2-3 and a ranking of 6-9 partners: 21-63 listed sets."""
        q = self.rng.randint(2, 3)
        r = self.rng.randint(6, min(opposite, 9 if q == 2 else 7))
        return tuple(self.rng.sample(range(opposite), r)), q

    def execute(self, op):
        return run_cli(op[2])

    def check(self, op, result):
        market, _, argv = op
        code, out = result
        if code != 0:
            return out, [f"{argv[0]} exited {code}"]
        lines = out.splitlines()
        if argv[0] == "validate":
            holds = sum(line.endswith(": holds") for line in lines)
            if lines[-1:] != ["all axioms hold"] or holds != 2 * (market.n + market.m):
                return out, ["validate did not report every axiom holding"]
            return out, []
        if "--format" in argv:
            edges = market.edges_from_dict(json.loads(out)["results"]["matching"])
            expected = market.da(Side.WORKER)
        else:
            edges = market.edges_from_table(lines[1], lines[2])
            expected = market.da(Side.FIRM)
        problems = []
        if not market.is_stable(edges):
            problems.append(f"{argv[3]} matching is not stable")
        if edges != expected:
            problems.append(f"{argv[3]} matching differs from the reference DA")
        return out, problems


WORKLOADS = {w.name: w for w in (Sweep, Manipulate, LargeLists)}


def inject_fault(name: str) -> None:
    """Make one package result wrong through a wrapper on the benchmark side,
    so the self-test can confirm that the checks notice."""
    if name == "sweep":
        real = stability.enumerate_stable

        def enumerate_stable(p, *args):
            extra = manymatch.Matching.from_pairs(
                (f, w) for f in range(p.num_firms) for w in range(p.num_workers))
            return tuple(real(p, *args)) + (extra,)
        stability.enumerate_stable = enumerate_stable
    elif name == "manipulate":
        real = manymatch.cli.gmt_counterexample_check

        def gmt_counterexample_check(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, candidates_total=report.candidates_total + 1)
        manymatch.cli.gmt_counterexample_check = gmt_counterexample_check
    else:
        manymatch.cli.apply_rule = lambda *args, **kwargs: manymatch.Matching.empty()
