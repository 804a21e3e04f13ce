"""Bundled demonstration markets and their recorded outcomes.

Three small markets ship with the package so the `paper-examples` command and
the golden tests need no external files:

* ``manipulation-demo`` — substitutability and the law of aggregate demand
  both hold; a worker profitably misreports under the firm-optimal rule and
  the resulting matching is not even stable under the true profile.
* ``firms-immune``     — substitutable only (aggregate demand fails); no
  truncation helps any firm against the worker-optimal rule.
* ``workers-immune``   — substitutable only; no misreport at all helps any
  worker against the firm-optimal rule.

Each market's outcomes are recorded as ``(name, expected, actual)`` rows;
``run_bundled_checks`` recomputes them all.
"""

from __future__ import annotations

from .axioms import check_lad
from .core import MarketInstance, Matching, PreferenceRelation, bits
from .fileformat import format_names, matching_to_dict, parse_market
from .manipulation import evaluate_misreport, gmt_counterexample_check, verify_gmt
from .solver import OrderVerdict, StableRule, apply_rule
from .stability import blocking_pairs, enumerate_stable

# market name -> market text
BUNDLED = {
    "manipulation-demo": """\
firms: f1 f2 f3
workers: w1 w2 w3 w4
pref f1: w2 w3 | w2 w4 | w1 w3 | w1 w2 | w1 w4 | w3 w4 | w1 | w2 | w3 | w4
pref f2: w1 | w2
pref f3: w4 | w1
pref w1: f1 | f3 | f2
pref w2: f2 | f1
pref w3: f1 | f3
pref w4: f1 | f3
""",
    "firms-immune": """\
firms: f1 f2 f3
workers: w1 w2 w3 w4
pref f1: w1 w2 | w1 | w2 | w3 w4 | w3 | w4
pref f2: w3 | w1 w4 | w4 | w1 w2 | w1 | w2
pref f3: w4 | w2 w3 | w1 w2 | w3 | w1 | w2
pref w1: f2 | f3 | f1
pref w2: f2 | f3 | f1
pref w3: f1 | f3 | f2
pref w4: f1 | f2 | f3
""",
    "workers-immune": """\
firms: f1 f2
workers: w1 w2 w3 w4
pref f1: w1 w2 | w1 | w2 | w3 w4 | w3 | w4
pref f2: w3 w4 | w3 | w4 | w1 w2 | w1 | w2
pref w1: f2 | f1
pref w2: f2 | f1
pref w3: f1 | f2
pref w4: f1 | f2
""",
}


def bundled(name: str) -> MarketInstance:
    """The bundled market ``name``, parsed afresh: no two callers share a profile."""
    return parse_market(BUNDLED[name])


def compact_matching(mu: Matching, instance: MarketInstance) -> str:
    """One-line rendering used for golden comparisons: 'f1=w2 w3, f2=w1, ...'."""
    return ", ".join(f"{firm}={format_names(workers)}"
                     for firm, workers in matching_to_dict(mu, instance).items())


def _search_rows(inst: MarketInstance, rule: StableRule, names: tuple[str, ...],
                 exhaustive: bool) -> list[tuple[str, str, str]]:
    """A misreport search per named agent, each recorded as finding none."""
    mode = "exhaustive" if exhaustive else "sublist"
    return [(f"{mode} search for {name}: profitable misreports", "0", str(len(
        gmt_counterexample_check(inst.profile, rule, inst.agent_id(name),
                                 exhaustive=exhaustive).profitable)))
            for name in names]


def _demo_rows(inst: MarketInstance) -> list[tuple[str, str, str]]:
    p = inst.profile
    mu_f = apply_rule(StableRule.FIRM_OPTIMAL, p)
    mu_w = apply_rule(StableRule.WORKER_OPTIMAL, p)
    w1 = inst.agent_id("w1")
    only_f3 = PreferenceRelation(owner=w1, ranked=(1 << inst.firm_names.index("f3"),))
    outcome = evaluate_misreport(only_f3, StableRule.FIRM_OPTIMAL, p, mu_f)
    pairs = blocking_pairs(outcome.manipulated, p)
    verification = verify_gmt(w1, StableRule.FIRM_OPTIMAL, p)
    return [
        ("firm-optimal matching", "f1=w2 w3, f2=w1, f3=w4", compact_matching(mu_f, inst)),
        ("worker-optimal matching", "f1=w1 w3, f2=w2, f3=w4", compact_matching(mu_w, inst)),
        ("w1 reports only f3: manipulated matching",
         "f1=w3 w4, f2=w2, f3=w1", compact_matching(outcome.manipulated, inst)),
        ("w1 reports only f3: gains in the list order",
         OrderVerdict.BETTER_STRICT.value, outcome.verdict_common.value),
        ("w1 reports only f3: outcome unstable under the truth",
         "unstable", "stable" if outcome.manipulated_stable_under_truth else "unstable"),
        ("w1 reports only f3: blocking pairs under the truth", "(f1, w1)",
         ", ".join(f"({inst.name_of(b.firm)}, {inst.name_of(b.worker)})" for b in pairs)),
        ("truncation construction for w1 under firm-optimal", "4 assertions hold",
         f"{sum(verification.checks[0].assertions)} assertions hold"
         if verification.applicable else "not applicable"),
    ]


def _firms_immune_rows(inst: MarketInstance) -> list[tuple[str, str, str]]:
    p = inst.profile
    mu_w = apply_rule(StableRule.WORKER_OPTIMAL, p)
    mu_f = apply_rule(StableRule.FIRM_OPTIMAL, p)
    witness, names = check_lad(p[inst.agent_id("f1")]), inst.worker_names
    lad = "holds" if witness is None else (
        f"fails: X={{{format_names([names[i] for i in bits(witness.offer_set)])}}} "
        f"Y={{{format_names([names[i] for i in bits(witness.reduced_set)])}}}")
    rows = [
        ("worker-optimal matching", "f1=w3 w4, f2=w1 w2, f3=∅", compact_matching(mu_w, inst)),
        ("firm-optimal matching", "f1=w1 w2, f2=w3, f3=w4", compact_matching(mu_f, inst)),
        ("f1 violates the law of aggregate demand", "fails: X={w2 w3 w4} Y={w3 w4}", lad),
    ]
    for name, expected_mu, expected_verdict in (
        ("f1", "f1=∅, f2=w1 w4, f3=w2 w3", OrderVerdict.WORSE_STRICT),
        ("f2", "f1=w3 w4, f2=∅, f3=w1 w2", OrderVerdict.WORSE_STRICT),
        ("f3", "f1=w3 w4, f2=w1 w2, f3=∅", OrderVerdict.EQUAL),
    ):
        # the construction with the aggregate-demand gate off: each firm
        # truncates to its firm-optimal assignment against worker-optimal
        outcome = verify_gmt(inst.agent_id(name), StableRule.WORKER_OPTIMAL, p,
                             require_axioms=False).checks[0].outcome
        label = f"{name} truncates to its firm-optimal assignment"
        rows += [(f"{label}: matching", expected_mu, compact_matching(outcome.manipulated, inst)),
                 (f"{label}: verdict", expected_verdict.value, outcome.verdict_common.value)]
    return rows + _search_rows(inst, StableRule.WORKER_OPTIMAL, ("f1", "f2", "f3"), False)


def _workers_immune_rows(inst: MarketInstance) -> list[tuple[str, str, str]]:
    p = inst.profile
    mu_f = apply_rule(StableRule.FIRM_OPTIMAL, p)
    mu_w = apply_rule(StableRule.WORKER_OPTIMAL, p)
    ss = enumerate_stable(p)
    return [
        ("firm-optimal matching", "f1=w1 w2, f2=w3 w4", compact_matching(mu_f, inst)),
        ("worker-optimal matching", "f1=w3 w4, f2=w1 w2", compact_matching(mu_w, inst)),
        ("stable set contains both side-optima", "yes", "yes" if mu_f in ss and mu_w in ss else "no"),
    ] + _search_rows(inst, StableRule.FIRM_OPTIMAL, ("w1", "w2", "w3", "w4"), True)


_ROWS = {
    "manipulation-demo": _demo_rows,
    "firms-immune": _firms_immune_rows,
    "workers-immune": _workers_immune_rows,
}


def run_bundled_checks() -> list[dict]:
    """Recompute every recorded outcome of the bundled markets and diff it
    against the stored expectation, one payload row per outcome."""
    return [{"market": market, "name": name, "passed": expected == actual,
             "expected": expected, "actual": actual}
            for market, rows in _ROWS.items()
            for name, expected, actual in rows(bundled(market))]
