"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line on success (visible with ``pytest -s``);
a failure raises with the offending market/agent in the message.  Matching
comparisons are exact: these markets are desk-scale and fully reproducible.
"""

import json
import random
import time

import pytest

from conftest import (
    first_lad_violation,
    first_substitutability_violation,
    pset,
    random_market_instance,
    random_quota_ranking,
    random_responsive_market,
    relation,
)
from manymatch import (
    AgentId,
    Matching,
    Side,
    StableRule,
    deferred_acceptance,
    enumerate_stable,
    parse_market,
    responsive_preference,
    side_optimal,
    verify_gmt,
)
from manymatch.axioms import check_lad, check_substitutable
from manymatch.cli import main
from manymatch.core import matched_set, replace_preference
from manymatch.fileformat import serialize_market
from manymatch.manipulation import (
    evaluate_misreport,
    gmt_counterexample_check,
    restrict_preference,
    truncation_strategy,
)
from manymatch.markets import bundled
from manymatch.solver import OrderVerdict
from manymatch.stability import (
    blocking_pairs,
    check_same_partner_counts,
    check_underfilled_constancy,
    is_stable,
)

from test_manipulation import restriction_items_hold

F = Side.FIRM
W = Side.WORKER

ALL_RULES = (
    StableRule.FIRM_OPTIMAL,
    StableRule.WORKER_OPTIMAL,
    StableRule.SELECT_FIRST,
    StableRule.SELECT_LAST,
)


@pytest.fixture(scope="module")
def corpus500():
    out = []
    for seed in range(500):
        out.append(random_responsive_market(random.Random(seed)))
    return out


def test_criterion_1_manipulation_demo_reproduction():
    start = time.monotonic()
    inst = bundled("manipulation-demo")
    p = inst.profile

    mu_f = deferred_acceptance(p, F)
    assert mu_f == Matching.from_pairs([(0, 1), (0, 2), (1, 0), (2, 3)])
    mu_w = deferred_acceptance(p, W)
    assert mu_w == Matching.from_pairs([(0, 0), (0, 2), (1, 1), (2, 3)])

    w1 = inst.agent_id("w1")
    misreport = relation(w1, (2,))  # only f3 acceptable
    outcome = evaluate_misreport(misreport, StableRule.FIRM_OPTIMAL, p, mu_f)
    assert outcome.manipulated == Matching.from_pairs([(0, 2), (0, 3), (1, 1), (2, 0)])
    assert outcome.manipulated_stable_under_truth is False
    pairs = blocking_pairs(outcome.manipulated, p)
    assert [(b.firm, b.worker) for b in pairs] == [(AgentId(F, 0), AgentId(W, 0))]

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 1: demo market reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_firms_immune_reproduction():
    inst = bundled("firms-immune")
    p = inst.profile

    h_w = deferred_acceptance(p, W)
    assert h_w == Matching.from_pairs([(0, 2), (0, 3), (1, 0), (1, 1)])
    mu_f = deferred_acceptance(p, F)

    expected = {
        "f1": (Matching.from_pairs([(1, 0), (1, 3), (2, 1), (2, 2)]),
               OrderVerdict.WORSE_STRICT,
               (pset(0, 1), pset(0), pset(1))),
        "f2": (Matching.from_pairs([(0, 2), (0, 3), (2, 0), (2, 1)]),
               OrderVerdict.WORSE_STRICT,
               (pset(2),)),
        "f3": (Matching.from_pairs([(0, 2), (0, 3), (1, 0), (1, 1)]),
               OrderVerdict.EQUAL,
               (pset(3),)),
    }
    for name, (want_mu, want_verdict, want_ranked) in expected.items():
        agent = inst.agent_id(name)
        misreport = truncation_strategy(agent, mu_f, p)
        assert misreport.ranked == want_ranked, name
        outcome = evaluate_misreport(misreport, StableRule.WORKER_OPTIMAL, p, h_w)
        assert outcome.manipulated == want_mu, name
        assert outcome.verdict_common is want_verdict, name

    lad = check_lad(p[inst.agent_id("f1")])
    assert not lad.holds
    assert lad.witness.offer_set == pset(1, 2, 3)
    assert lad.witness.reduced_set == pset(2, 3)
    print("\n[PASS] criterion 2: firms-immune market reproduced exactly")


def test_criterion_3_workers_immune_reproduction():
    start = time.monotonic()
    inst = bundled("workers-immune")
    p = inst.profile

    ss = enumerate_stable(p)
    mu_w = Matching.from_pairs([(0, 2), (0, 3), (1, 0), (1, 1)])
    mu_f = Matching.from_pairs([(0, 0), (0, 1), (1, 2), (1, 3)])
    assert mu_w in ss and mu_f in ss

    for name in ("w1", "w2", "w3", "w4"):
        report = gmt_counterexample_check(
            p, StableRule.FIRM_OPTIMAL, inst.agent_id(name), exhaustive=True)
        assert report.profitable == (), name
        assert not report.not_applicable, name

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 3: workers-immune market reproduced exactly ({elapsed:.2f}s)")


def test_criterion_4_construction_holds_on_responsive_corpus(corpus500):
    start = time.monotonic()
    failures = []
    checked = 0
    for market_index, (p, _, _) in enumerate(corpus500):
        for rule in ALL_RULES:
            for a in p.agents():
                v = verify_gmt(a, rule, p)
                if not v.applicable:
                    continue
                checked += 1
                for c in v.checks:
                    if not c.all_hold:
                        failures.append((market_index, rule.value, str(a), c.assertions))
    elapsed = time.monotonic() - start
    assert not failures, f"construction failures: {failures[:5]}"
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 4: all four assertions held for {checked} applicable "
        f"(agent, rule) pairs over 500 responsive markets ({elapsed:.1f}s)"
    )


def test_criterion_5_partner_count_invariants(corpus500):
    for market_index, (p, quotas, _) in enumerate(corpus500):
        ss = enumerate_stable(p)
        ok, witness = check_same_partner_counts(ss)
        assert ok, f"market {market_index}: partner count varies at {witness}"
        ok, witness = check_underfilled_constancy(ss, quotas)
        assert ok, f"market {market_index}: underfilled agent {witness} varies"
    print("\n[PASS] criterion 5: partner counts and underfilled assignments constant "
          "across all 500 stable sets")


def test_criterion_6_oracle_equivalence(corpus500):
    for market_index, (p, _, _) in enumerate(corpus500):
        ss = enumerate_stable(p)
        for side in (F, W):
            mu = deferred_acceptance(p, side)
            assert mu in ss, f"market {market_index}: DA output not in the stable set"
            assert mu == side_optimal(ss, p, side), (
                f"market {market_index}: DA is not the {side.value}-optimum")
    print("\n[PASS] criterion 6: deferred acceptance equals the enumerated side-optimum "
          "on all 500 markets, both sides")


def test_criterion_7_axiom_classification():
    odd = relation(AgentId(F, 0), (1,), (0, 2), (0,), (2,))
    assert check_substitutable(odd).holds
    assert not check_lad(odd).holds

    pair_only = relation(AgentId(F, 0), (0, 1))
    assert check_lad(pair_only).holds
    assert not check_substitutable(pair_only).holds

    rng = random.Random(424242)
    for i in range(1000):
        q = random_quota_ranking(AgentId(F, 0), rng.randint(1, 5), rng, max_quota=3)
        pref = responsive_preference(q)
        assert check_substitutable(pref).holds, f"ranking {i}"
        assert check_lad(pref).holds, f"ranking {i}"
        assert first_substitutability_violation(pref) is None, f"ranking {i}"
        assert first_lad_violation(pref) is None, f"ranking {i}"
    print("\n[PASS] criterion 7: axiom checkers classify the fixture relations and "
          "1000 generated responsive relations correctly")


def test_criterion_8_restriction_and_stability_preservation(corpus500):
    for market_index, (p, _, _) in enumerate(corpus500):
        for mu in enumerate_stable(p):
            for a in p.agents():
                t = matched_set(mu, a)
                restricted = restrict_preference(p[a], t)
                assert restriction_items_hold(p[a], restricted, t), (
                    f"market {market_index}: restriction clauses fail at {a}")
                swapped = replace_preference(p, a, restricted)
                assert is_stable(mu, swapped), (
                    f"market {market_index}: {a}'s truncation destabilizes the matching")
    print("\n[PASS] criterion 8: restriction clauses and stability preservation hold for "
          "every stable matching and agent in the corpus")


def test_criterion_9_cli_goldens_and_round_trip(capsys):
    code = main(["paper-examples"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "[FAIL]" not in out

    code = main(["paper-examples", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["all_passed"] is True

    for seed in range(200):
        inst = random_market_instance(random.Random(90_000 + seed))
        text = serialize_market(inst)
        assert parse_market(text) == inst, f"round-trip failed at seed {seed}"
        assert serialize_market(parse_market(text)) == text
    print("\n[PASS] criterion 9: bundled goldens pass and 200 documents round-trip")
