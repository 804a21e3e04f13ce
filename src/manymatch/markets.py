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
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import check_lad
from .core import MarketInstance, Matching, PreferenceRelation, bits
from .fileformat import format_names, matching_to_dict, parse_market
from .manipulation import evaluate_misreport, gmt_counterexample_check, make_misreport, verify_gmt
from .solver import OrderVerdict, StableRule, apply_rule
from .stability import blocking_pairs, enumerate_stable

_MANIPULATION_DEMO = """\
firms: f1 f2 f3
workers: w1 w2 w3 w4
pref f1: w2 w3 | w2 w4 | w1 w3 | w1 w2 | w1 w4 | w3 w4 | w1 | w2 | w3 | w4
pref f2: w1 | w2
pref f3: w4 | w1
pref w1: f1 | f3 | f2
pref w2: f2 | f1
pref w3: f1 | f3
pref w4: f1 | f3
"""

_FIRMS_IMMUNE = """\
firms: f1 f2 f3
workers: w1 w2 w3 w4
pref f1: w1 w2 | w1 | w2 | w3 w4 | w3 | w4
pref f2: w3 | w1 w4 | w4 | w1 w2 | w1 | w2
pref f3: w4 | w2 w3 | w1 w2 | w3 | w1 | w2
pref w1: f2 | f3 | f1
pref w2: f2 | f3 | f1
pref w3: f1 | f3 | f2
pref w4: f1 | f2 | f3
"""

_WORKERS_IMMUNE = """\
firms: f1 f2
workers: w1 w2 w3 w4
pref f1: w1 w2 | w1 | w2 | w3 w4 | w3 | w4
pref f2: w3 w4 | w3 | w4 | w1 w2 | w1 | w2
pref w1: f2 | f1
pref w2: f2 | f1
pref w3: f1 | f2
pref w4: f1 | f2
"""


def manipulation_demo() -> MarketInstance:
    return parse_market(_MANIPULATION_DEMO)


def firms_immune() -> MarketInstance:
    return parse_market(_FIRMS_IMMUNE)


def workers_immune() -> MarketInstance:
    return parse_market(_WORKERS_IMMUNE)


BUNDLED = {
    "manipulation-demo": manipulation_demo,
    "firms-immune": firms_immune,
    "workers-immune": workers_immune,
}


def compact_matching(mu: Matching, instance: MarketInstance) -> str:
    """One-line rendering used for golden comparisons: 'f1=w2 w3, f2=w1, ...'."""
    return ", ".join(f"{firm}={format_names(workers)}"
                     for firm, workers in matching_to_dict(mu, instance).items())


@dataclass(frozen=True)
class BundledCheck:
    market: str
    name: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


def _demo_checks() -> list[BundledCheck]:
    inst = manipulation_demo()
    p = inst.profile
    checks = []

    mu_f = apply_rule(StableRule.FIRM_OPTIMAL, p)
    checks.append(BundledCheck(
        "manipulation-demo", "firm-optimal matching",
        "f1=w2 w3, f2=w1, f3=w4", compact_matching(mu_f, inst)))
    mu_w = apply_rule(StableRule.WORKER_OPTIMAL, p)
    checks.append(BundledCheck(
        "manipulation-demo", "worker-optimal matching",
        "f1=w1 w3, f2=w2, f3=w4", compact_matching(mu_w, inst)))

    w1 = inst.agent_id("w1")
    only_f3 = PreferenceRelation(owner=w1, ranked=(1 << inst.firm_names.index("f3"),))
    outcome = evaluate_misreport(w1, make_misreport(w1, only_f3), StableRule.FIRM_OPTIMAL, p, mu_f)
    checks.append(BundledCheck(
        "manipulation-demo", "w1 reports only f3: manipulated matching",
        "f1=w3 w4, f2=w2, f3=w1", compact_matching(outcome.manipulated, inst)))
    checks.append(BundledCheck(
        "manipulation-demo", "w1 reports only f3: gains in the list order",
        OrderVerdict.BETTER_STRICT.value, outcome.verdict_common.value))
    checks.append(BundledCheck(
        "manipulation-demo", "w1 reports only f3: outcome unstable under the truth",
        "unstable", "stable" if outcome.manipulated_stable_under_truth else "unstable"))
    pairs = blocking_pairs(outcome.manipulated, p)
    checks.append(BundledCheck(
        "manipulation-demo", "w1 reports only f3: blocking pairs under the truth",
        "(f1, w1)",
        ", ".join(f"({inst.name_of(b.firm)}, {inst.name_of(b.worker)})" for b in pairs)))

    verification = verify_gmt(w1, StableRule.FIRM_OPTIMAL, p)
    checks.append(BundledCheck(
        "manipulation-demo", "truncation construction for w1 under firm-optimal",
        "4 assertions hold",
        f"{sum(verification.checks[0].assertions)} assertions hold"
        if verification.applicable else "not applicable"))
    return checks


def _firms_immune_checks() -> list[BundledCheck]:
    inst = firms_immune()
    p = inst.profile
    checks = []

    mu_w = apply_rule(StableRule.WORKER_OPTIMAL, p)
    checks.append(BundledCheck(
        "firms-immune", "worker-optimal matching",
        "f1=w3 w4, f2=w1 w2, f3=∅", compact_matching(mu_w, inst)))
    mu_f = apply_rule(StableRule.FIRM_OPTIMAL, p)
    checks.append(BundledCheck(
        "firms-immune", "firm-optimal matching",
        "f1=w1 w2, f2=w3, f3=w4", compact_matching(mu_f, inst)))

    report = check_lad(p[inst.agent_id("f1")])
    witness, names = report.witness, inst.worker_names
    actual = "holds" if report.holds else (
        f"fails: X={{{format_names([names[i] for i in bits(witness.offer_set)])}}} "
        f"Y={{{format_names([names[i] for i in bits(witness.reduced_set)])}}}")
    checks.append(BundledCheck(
        "firms-immune", "f1 violates the law of aggregate demand",
        "fails: X={w2 w3 w4} Y={w3 w4}", actual))

    expected_outcomes = {
        "f1": ("f1=∅, f2=w1 w4, f3=w2 w3", OrderVerdict.WORSE_STRICT),
        "f2": ("f1=w3 w4, f2=∅, f3=w1 w2", OrderVerdict.WORSE_STRICT),
        "f3": ("f1=w3 w4, f2=w1 w2, f3=∅", OrderVerdict.EQUAL),
    }
    for name, (expected_mu, expected_verdict) in expected_outcomes.items():
        # the construction with the aggregate-demand gate off: each firm
        # truncates to its firm-optimal assignment against worker-optimal
        verification = verify_gmt(inst.agent_id(name), StableRule.WORKER_OPTIMAL, p,
                                  require_axioms=False)
        outcome = verification.checks[0].outcome
        checks.append(BundledCheck(
            "firms-immune", f"{name} truncates to its firm-optimal assignment: matching",
            expected_mu, compact_matching(outcome.manipulated, inst)))
        checks.append(BundledCheck(
            "firms-immune", f"{name} truncates to its firm-optimal assignment: verdict",
            expected_verdict.value, outcome.verdict_common.value))

    for name in ("f1", "f2", "f3"):
        agent = inst.agent_id(name)
        report = gmt_counterexample_check(p, StableRule.WORKER_OPTIMAL, agent, exhaustive=False)
        checks.append(BundledCheck(
            "firms-immune", f"sublist search for {name}: profitable misreports",
            "0", str(len(report.profitable))))
    return checks


def _workers_immune_checks() -> list[BundledCheck]:
    inst = workers_immune()
    p = inst.profile
    checks = []

    mu_f = apply_rule(StableRule.FIRM_OPTIMAL, p)
    checks.append(BundledCheck(
        "workers-immune", "firm-optimal matching",
        "f1=w1 w2, f2=w3 w4", compact_matching(mu_f, inst)))
    mu_w = apply_rule(StableRule.WORKER_OPTIMAL, p)
    checks.append(BundledCheck(
        "workers-immune", "worker-optimal matching",
        "f1=w3 w4, f2=w1 w2", compact_matching(mu_w, inst)))

    ss = enumerate_stable(p)
    both_in = mu_f in ss and mu_w in ss
    checks.append(BundledCheck(
        "workers-immune", "stable set contains both side-optima",
        "yes", "yes" if both_in else "no"))

    for name in ("w1", "w2", "w3", "w4"):
        agent = inst.agent_id(name)
        report = gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, agent, exhaustive=True)
        checks.append(BundledCheck(
            "workers-immune", f"exhaustive search for {name}: profitable misreports",
            "0", str(len(report.profitable))))
    return checks


def run_bundled_checks() -> list[BundledCheck]:
    """Recompute every recorded outcome of the bundled markets and diff it
    against the stored expectation."""
    return _demo_checks() + _firms_immune_checks() + _workers_immune_checks()
