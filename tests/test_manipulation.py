"""Restriction, truncation targets, misreport evaluation, and the
manipulability-construction verifier."""

import importlib
import os
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    plain_counterexample_search,
    pset,
    random_profile,
    random_responsive_market,
    random_substitutable_profile,
    random_substitutable_relation,
    relation,
    subsets_of,
)
from manymatch import (
    AgentId,
    Matching,
    Profile,
    QuotaRanking,
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
from manymatch.core import (
    NoStableMatchingError,
    PreconditionError,
    PreferenceRelation,
    UnsupportedSizeError,
    choice_mask,
    matched_set,
    replace_preference,
)
from manymatch.manipulation import (
    candidate_set_H,
    evaluate_misreport,
    gmt_counterexample_check,
    make_misreport,
    restrict_preference,
    truncation_strategy,
)
from manymatch.markets import BUNDLED, bundled
from manymatch.solver import OrderVerdict, apply_rule, compare_blair, compare_common, da_rounds
from manymatch.stability import is_stable

from test_stability import (
    DEMO_MU_F,
    DEMO_MU_W,
    EX1_MU_F,
    EX1_MU_W,
)

F = Side.FIRM
W = Side.WORKER
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# No stable matching is best for every worker: seed 14 of
# conftest.random_market_instance, whose firm1 list is not substitutable.
NO_WORKER_OPTIMUM = """\
firms: firm1
workers: wk1 wk2 wk3 wk4 wk5
pref firm1: wk2 wk4 wk5 | wk1 wk5 | wk2 wk3 | wk3
pref wk1: firm1
pref wk2: firm1
pref wk3: firm1
pref wk4: firm1
pref wk5: firm1
"""


def restriction_items_hold(original: PreferenceRelation, restricted: PreferenceRelation,
                           t: int) -> bool:
    """Direct re-check of the three defining clauses of the restriction."""
    # (i) anything not inside t ranks below the empty set, i.e. is unlisted
    universe = t
    for entry in original.ranked:
        universe |= entry
    for s in subsets_of(universe):
        if s and s & ~t and restricted.rank_of(s) is not None:
            return False
    # (ii) acceptability inside t is preserved in both directions
    for s in subsets_of(t):
        if not s:
            continue
        if (original.rank_of(s) is not None) != (restricted.rank_of(s) is not None):
            return False
    # (iii) the relative order inside t is preserved
    for s1 in subsets_of(t):
        for s2 in subsets_of(t):
            r1, r2 = original.rank_of(s1), original.rank_of(s2)
            if None in (r1, r2) or not s1 or not s2:
                continue
            q1, q2 = restricted.rank_of(s1), restricted.rank_of(s2)
            if (r1 < r2) != (q1 < q2):
                return False
    return True


class TestRestrictPreference:
    def test_firms_immune_f1_to_its_firm_optimal_assignment(self, firms_immune_market):
        p = firms_immune_market.profile
        pref = p[AgentId(F, 0)]
        restricted = restrict_preference(pref, pset(0, 1))
        assert restricted.ranked == (pset(0, 1), pset(0), pset(1))

    def test_firms_immune_f2_to_single_worker(self, firms_immune_market):
        pref = firms_immune_market.profile[AgentId(F, 1)]
        assert restrict_preference(pref, pset(2)).ranked == (pset(2),)

    def test_fixed_point_precondition(self, firms_immune_market):
        # {w3, w4} is not what f2 would choose from {w3, w4}
        pref = firms_immune_market.profile[AgentId(F, 1)]
        assert choice_mask(pset(2, 3), pref) != pset(2, 3)
        with pytest.raises(PreconditionError):
            restrict_preference(pref, pset(2, 3))


class TestCandidateSet:
    def test_own_side_optimal_rule_leaves_nothing_better(self, demo_market):
        p = demo_market.profile
        baseline = apply_rule(StableRule.FIRM_OPTIMAL, p)
        assert len(candidate_set_H(AgentId(F, 0), baseline, p)) == 0

    def test_demo_firm_side_under_worker_optimal(self, demo_market):
        p = demo_market.profile
        H = candidate_set_H(AgentId(F, 0), apply_rule(StableRule.WORKER_OPTIMAL, p), p)
        assert DEMO_MU_F in H

    def test_workers_immune_w1_under_firm_optimal(self, workers_immune_market):
        p = workers_immune_market.profile
        H = candidate_set_H(AgentId(W, 0), apply_rule(StableRule.FIRM_OPTIMAL, p), p)
        mu_w = Matching.from_pairs([(0, 2), (0, 3), (1, 0), (1, 1)])
        assert mu_w in H

    def test_empty_stable_set_refused(self, empty_stable_set_profile):
        with pytest.raises(ValueError, match="^stable set is empty$"):
            candidate_set_H(AgentId(W, 0), Matching.empty(), empty_stable_set_profile)


class TestTruncationStrategy:
    def test_worker_keeps_its_target_assignment(self, demo_market):
        p = demo_market.profile
        w1 = AgentId(W, 0)
        m = truncation_strategy(w1, DEMO_MU_W, p)
        assert m.ranked == (pset(0),)
        assert check_substitutable(m) is None and check_lad(m) is None
        w4 = AgentId(W, 3)
        assert truncation_strategy(w4, DEMO_MU_W, p).ranked == (pset(2),)

    def test_unmatched_agent_reports_empty_list(self, firms_immune_market):
        p = firms_immune_market.profile
        m = truncation_strategy(AgentId(F, 2), EX1_MU_W, p)
        assert m.ranked == ()

    def test_firms_immune_f1_reproduces_recorded_misreport(self, firms_immune_market):
        p = firms_immune_market.profile
        m = truncation_strategy(AgentId(F, 0), EX1_MU_F, p)
        assert m.ranked == (pset(0, 1), pset(0), pset(1))

    def test_unstable_target_rejected(self, demo_market):
        unstable = Matching.from_pairs([(0, 2), (0, 3), (1, 1), (2, 0)])
        with pytest.raises(PreconditionError):
            truncation_strategy(AgentId(W, 0), unstable, demo_market.profile)


class TestEvaluateMisreport:
    def test_demo_w1_reports_only_f3(self, demo_market):
        p = demo_market.profile
        w1 = AgentId(W, 0)
        m = relation(w1, (2,))
        outcome = evaluate_misreport(m, StableRule.FIRM_OPTIMAL, p, DEMO_MU_F)
        assert outcome.reported is m
        assert outcome.manipulated == Matching.from_pairs([(0, 2), (0, 3), (1, 1), (2, 0)])
        assert outcome.verdict_common is OrderVerdict.BETTER_STRICT
        assert outcome.verdict_blair is OrderVerdict.BETTER_STRICT
        assert outcome.manipulated_stable_under_truth is False
        # the stored verdicts are recomputable from the manipulated matching
        assert compare_common(outcome.manipulated, DEMO_MU_F, w1, p) is outcome.verdict_common
        assert compare_blair(outcome.manipulated, DEMO_MU_F, w1, p) is outcome.verdict_blair

    def test_foreign_owner_refused(self, demo_market):
        w1, w2 = AgentId(W, 0), AgentId(W, 1)
        with pytest.raises(ValueError, match="^reported relation owned by worker 1, not worker 0$"):
            make_misreport(w1, demo_market.profile[w2])

    def test_truthful_report_changes_nothing(self, demo_market):
        p = demo_market.profile
        w1 = AgentId(W, 0)
        truthful = p[w1]
        outcome = evaluate_misreport(truthful, StableRule.FIRM_OPTIMAL, p, DEMO_MU_F)
        assert outcome.manipulated == DEMO_MU_F
        assert outcome.verdict_common is OrderVerdict.EQUAL
        assert outcome.verdict_blair is OrderVerdict.EQUAL

    def test_firms_immune_f1_truncation_backfires(self, firms_immune_market):
        p = firms_immune_market.profile
        f1 = AgentId(F, 0)
        m = relation(f1, (0, 1), (0,), (1,))
        outcome = evaluate_misreport(m, StableRule.WORKER_OPTIMAL, p, EX1_MU_W)
        assert outcome.manipulated == Matching.from_pairs([(1, 0), (1, 3), (2, 1), (2, 2)])
        assert matched_set(outcome.manipulated, f1) == 0
        assert outcome.verdict_common is OrderVerdict.WORSE_STRICT

    def test_rule_failure_reported_as_outcome_state(self, demo_market):
        # a non-substitutable report cannot be fed to deferred acceptance
        p = demo_market.profile
        w1 = AgentId(W, 0)
        m = relation(w1, (0, 2))
        assert check_substitutable(m) is not None
        outcome = evaluate_misreport(m, StableRule.FIRM_OPTIMAL, p, DEMO_MU_F)
        assert outcome.failure is not None
        assert outcome.manipulated is None
        assert outcome.verdict_common is None

    def test_no_stable_matching_under_report(self, empty_stable_set_profile):
        # make the true profile solvable by swapping in a tame relation for
        # firm 1, then have firm 1 misreport its original complement-heavy one
        p_bad = empty_stable_set_profile
        f1 = AgentId(F, 1)
        tame = relation(f1, (1,))
        p_true = replace_preference(p_bad, tame)
        assert len(enumerate_stable(p_true)) > 0
        m = p_bad[f1]
        baseline = apply_rule(StableRule.SELECT_FIRST, p_true)
        outcome = evaluate_misreport(m, StableRule.SELECT_FIRST, p_true, baseline)
        assert outcome.failure is not None


class TestVerifyGmt:
    def test_demo_w1_under_firm_optimal_all_assertions_hold(self, demo_market):
        p = demo_market.profile
        v = verify_gmt(AgentId(W, 0), StableRule.FIRM_OPTIMAL, p)
        assert v.applicable
        assert v.side_optimum == DEMO_MU_W
        assert len(v.checks) == 1
        check = v.checks[0]
        assert check.outcome.reported.ranked == (pset(0),)
        assert check.assertions == (True, True, True, True)
        assert v.all_hold

    def test_demo_firm_side_under_worker_optimal(self, demo_market):
        p = demo_market.profile
        for f in range(p.num_firms):
            v = verify_gmt(AgentId(F, f), StableRule.WORKER_OPTIMAL, p)
            if v.applicable:
                assert v.all_hold

    def test_agent_at_its_optimum_not_applicable(self, demo_market):
        p = demo_market.profile
        v = verify_gmt(AgentId(W, 3), StableRule.FIRM_OPTIMAL, p)
        assert not v.applicable
        assert v.checks == ()

    def test_no_side_optimum_targets_every_blair_better_matching(self, monkeypatch):
        import manymatch.manipulation as manipulation

        # the three stable matchings give firm1 {wk2 wk4 wk5}, {wk1 wk5} and
        # {wk2 wk3}; none is best for every worker
        p = parse_market(NO_WORKER_OPTIMUM).profile
        assert side_optimal(enumerate_stable(p), p, W) is None
        wk5 = AgentId(W, 4)
        rule = StableRule.SELECT_FIRST
        baseline = apply_rule(rule, p)
        runs = []

        def counting_apply_rule(r, q):
            try:
                matching = apply_rule(r, q)
            except PreconditionError:
                runs.append((r, q, "refused"))
                raise
            runs.append((r, q, "ran"))
            return matching

        monkeypatch.setattr(manipulation, "apply_rule", counting_apply_rule)
        v = verify_gmt(wk5, rule, p, require_axioms=False)
        assert v.applicable and v.side_optimum is None
        assert len(v.checks) == 2
        assert tuple(c.target for c in v.checks) == candidate_set_H(wk5, baseline, p)
        # the truthful rule runs once and worker-proposing DA refuses the
        # profile once (so the optimum is enumerated), then the rule runs
        # once per check on its report
        assert [(r, verdict) for r, q, verdict in runs if q is p] == [
            (rule, "ran"), (StableRule.WORKER_OPTIMAL, "refused")]
        assert [verdict for r, q, verdict in runs if q is not p] == ["ran"] * len(v.checks)

    def test_no_side_optimum_and_no_target_does_not_hold(self):
        # select-first gives wk2 its best stable assignment, yet no stable
        # matching is best for every worker, so the construction applies
        # with nothing to check
        p = parse_market(NO_WORKER_OPTIMUM).profile
        wk2 = AgentId(W, 1)
        v = verify_gmt(wk2, StableRule.SELECT_FIRST, p, require_axioms=False)
        assert v.applicable and v.side_optimum is None
        assert v.checks == ()
        assert not v.all_hold

    def test_axiom_precondition_enforced(self, firms_immune_market):
        with pytest.raises(PreconditionError, match="aggregate demand"):
            verify_gmt(AgentId(F, 0), StableRule.WORKER_OPTIMAL, firms_immune_market.profile)

    def test_kept_axiom_verdict_raises_the_same_error_every_time(self, firms_immune_market):
        p = firms_immune_market.profile
        f1, rule = AgentId(F, 0), StableRule.WORKER_OPTIMAL
        for _ in range(2):
            with pytest.raises(PreconditionError) as refusal:
                verify_gmt(f1, rule, p)
            assert str(refusal.value) == "firm 0 fails the law of aggregate demand"
            assert refusal.value.agent == f1
        # the gate off still runs the construction after a gate failure ...
        v = verify_gmt(f1, rule, p, require_axioms=False)
        assert v.applicable and v.checks[0].target == EX1_MU_F
        # ... and leaves the gate closed
        with pytest.raises(PreconditionError, match="^firm 0 fails the law of aggregate demand$"):
            verify_gmt(f1, rule, p)

    def test_gate_off_call_does_not_open_the_gate(self):
        p = bundled("firms-immune").profile
        f1, rule = AgentId(F, 0), StableRule.WORKER_OPTIMAL
        assert verify_gmt(f1, rule, p, require_axioms=False).applicable
        with pytest.raises(PreconditionError, match="^firm 0 fails the law of aggregate demand$"):
            verify_gmt(f1, rule, p)

    def test_truthful_results_computed_once_per_profile(self, monkeypatch, demo_market):
        import manymatch.manipulation as manipulation
        import manymatch.solver as solver

        p = demo_market.profile
        rules, sides, optima, relations = [], [], [], []

        def counting_apply_rule(r, q):
            if q is p:
                rules.append(r)
            return apply_rule(r, q)

        def counting_side_optimal(ss, q, side):
            if q is p:
                sides.append(side)
            return side_optimal(ss, q, side)

        def counting_deferred_acceptance(q, side):
            if q is p:
                optima.append(side)
            return deferred_acceptance(q, side)

        def counting_check_lad(pref):
            relations.append(pref)
            return check_lad(pref)

        monkeypatch.setattr(manipulation, "apply_rule", counting_apply_rule)
        monkeypatch.setattr(manipulation, "side_optimal", counting_side_optimal)
        monkeypatch.setattr(solver, "deferred_acceptance", counting_deferred_acceptance)
        monkeypatch.setattr(manipulation, "check_lad", counting_check_lad)
        verifications = [verify_gmt(a, rule, p) for rule in StableRule for a in p.agents()]
        assert len(verifications) == 28
        assert sum(v.applicable for v in verifications) == 8
        # every relation is substitutable, so each side's optimum is the
        # output of its DA rule: each rule runs once on p for all 28 calls,
        # each side's DA once, and the stable set is never searched for an
        # optimum
        assert rules == list(StableRule)
        assert optima == [F, W]
        assert sides == []
        # the axiom gate checked each relation once for all 28 calls
        assert relations == list(p.firm_prefs + p.worker_prefs)

    def test_kept_results_never_cross_profile_objects(self, monkeypatch):
        import manymatch.manipulation as manipulation

        first, second = bundled("manipulation-demo").profile, bundled("manipulation-demo").profile
        assert first == second and first is not second
        runs = []

        def counting_apply_rule(r, q):
            runs.append((r, q))
            return apply_rule(r, q)

        monkeypatch.setattr(manipulation, "apply_rule", counting_apply_rule)
        for p in (first, second, first, second):
            verify_gmt(AgentId(W, 0), StableRule.FIRM_OPTIMAL, p)
        # each object runs the rule and, for the worker's side optimum,
        # worker-proposing DA, once each; each call runs the rule once more
        # on its check's report
        for p in (first, second):
            assert [r for r, q in runs if q is p] == [StableRule.FIRM_OPTIMAL,
                                                      StableRule.WORKER_OPTIMAL]
        reports = [r for r, q in runs if q is not first and q is not second]
        assert reports == [StableRule.FIRM_OPTIMAL] * 4

    def test_a_failed_truthful_run_is_not_kept(self, monkeypatch, empty_stable_set_profile):
        import manymatch.manipulation as manipulation

        p = empty_stable_set_profile
        profiles = []

        def counting_apply_rule(r, q):
            profiles.append(q)
            return apply_rule(r, q)

        monkeypatch.setattr(manipulation, "apply_rule", counting_apply_rule)
        a = AgentId(W, 0)
        for rule, error in ((StableRule.SELECT_FIRST, NoStableMatchingError),
                            (StableRule.FIRM_OPTIMAL, PreconditionError)):
            for _ in range(2):
                with pytest.raises(error):
                    verify_gmt(a, rule, p, require_axioms=False)
        assert len(profiles) == 4 and all(q is p for q in profiles)

    def test_firms_immune_construction_fails_without_lad(self, firms_immune_market):
        # with the axiom gate off, the construction runs and its key equality
        # breaks: the target stays stable under the misreport, but the rule
        # does not hand f1 the target assignment
        p = firms_immune_market.profile
        v = verify_gmt(AgentId(F, 0), StableRule.WORKER_OPTIMAL, p, require_axioms=False)
        assert v.applicable
        check = v.checks[0]
        assert check.target == EX1_MU_F
        assert check.assertions == (True, False, False, False)

    def test_workers_immune_construction_fails_without_lad(self, workers_immune_market):
        p = workers_immune_market.profile
        v = verify_gmt(AgentId(W, 0), StableRule.FIRM_OPTIMAL, p, require_axioms=False)
        assert v.applicable
        check = v.checks[0]
        assert check.assertions[:2] == (True, False)
        assert not v.all_hold


def _da_sublist_counts(p: Profile, a: AgentId, baseline: Matching) -> tuple[int, int]:
    """The rule failures and the rule runs of a DA rule's sublist search,
    from their definitions: the reports that are not substitutable fail, and
    the rule runs for each substitutable report that lists a set the true
    list ranks above the baseline set (the only sets DA can hand ``a`` that
    gain)."""
    true = p[a]
    bar = true.rank_of(matched_set(baseline, a))
    failures = runs = 0
    for keep in range(1 << len(true.ranked)):
        ranked = tuple(entry for i, entry in enumerate(true.ranked) if keep >> i & 1)
        if check_substitutable(PreferenceRelation(a, ranked)) is not None:
            failures += 1
        elif any(true.rank_of(entry) < bar for entry in ranked):
            runs += 1
    return failures, runs


class TestCounterexampleSearch:
    def test_firms_immune_sublist_search_finds_nothing(self, firms_immune_market):
        p = firms_immune_market.profile
        for f in range(p.num_firms):
            report = gmt_counterexample_check(p, StableRule.WORKER_OPTIMAL, AgentId(F, f))
            assert report.mode == "sublists"
            assert not report.not_applicable
            assert report.candidates_total == 1 << len(p[AgentId(F, f)].ranked)
            assert report.profitable == ()
            assert "sublists" in report.search_scope

    def test_workers_immune_exhaustive_search_finds_nothing(self, workers_immune_market):
        p = workers_immune_market.profile
        for w in range(p.num_workers):
            report = gmt_counterexample_check(
                p, StableRule.FIRM_OPTIMAL, AgentId(W, w), exhaustive=True)
            assert report.mode == "exhaustive"
            assert report.candidates_total == 16  # lists over the 3 nonempty subsets of 2 firms
            assert report.profitable == ()
            assert report.evaluated + report.rule_failures == 16

    def test_demo_w1_sublist_search_finds_the_profitable_misreports(self, demo_market):
        p = demo_market.profile
        report = gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, AgentId(W, 0))
        assert report.profitable
        reported = {outcome.reported.ranked for outcome in report.profitable}
        assert (pset(2),) in reported  # keeping only f3 works
        assert (pset(0),) in reported  # the truncation construction works too

    def test_blair_profit_implies_list_order_profit(self, demo_market):
        p = demo_market.profile
        report = gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, AgentId(W, 0))
        for outcome in report.profitable:
            if outcome.verdict_blair is OrderVerdict.BETTER_STRICT:
                assert outcome.verdict_common is OrderVerdict.BETTER_STRICT

    def test_agent_at_optimum_reports_not_applicable(self, demo_market):
        p = demo_market.profile
        report = gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, AgentId(W, 3))
        assert report.not_applicable
        assert report.candidates_total == 0

    @pytest.mark.parametrize("rule", list(StableRule))
    def test_truthful_rule_runs_once_per_search(self, monkeypatch, demo_market, rule):
        import manymatch.manipulation as manipulation

        p = demo_market.profile
        runs = []

        def counting_apply_rule(r, q):
            runs.append((r, q))
            return apply_rule(r, q)

        def counting_da_rounds(q, proposing):
            runs.append((StableRule.FIRM_OPTIMAL if proposing is F else StableRule.WORKER_OPTIMAL,
                         q))
            return da_rounds(q, proposing)

        monkeypatch.setattr(manipulation, "apply_rule", counting_apply_rule)
        monkeypatch.setattr(manipulation, "da_rounds", counting_da_rounds)

        def rule_runs(a, report):
            # a selector rule runs once per candidate; a DA rule runs its
            # rounds only for the substitutable reports that list a set
            # above the baseline
            if rule in (StableRule.SELECT_FIRST, StableRule.SELECT_LAST):
                return report.candidates_total
            return _da_sublist_counts(p, a, report.baseline)[1]

        # the truthful sublist is a candidate too, so count by identity: the
        # rule runs once on p, and so does worker-proposing DA (w1's side
        # optimum), once in all when that is the rule itself
        report = gmt_counterexample_check(p, rule, AgentId(W, 0))
        truthful = list(dict.fromkeys([rule, StableRule.WORKER_OPTIMAL]))
        assert [r for r, q in runs if q is p] == truthful
        # every other call is one candidate's report
        assert [r for r, q in runs if q is not p] == [rule] * rule_runs(AgentId(W, 0), report)

        # a second search on the same object, for another agent that gains
        # (w2 against the firm-side rules, f2 against the worker-side ones),
        # runs only its candidates and, for a firm, firm-proposing DA once
        firm_side = rule in (StableRule.FIRM_OPTIMAL, StableRule.SELECT_FIRST)
        second = AgentId(W if firm_side else F, 1)
        runs.clear()
        report = gmt_counterexample_check(p, rule, second)
        assert not report.not_applicable
        assert [r for r, q in runs if q is p] == ([] if firm_side else [StableRule.FIRM_OPTIMAL])
        assert [r for r, q in runs if q is not p] == [rule] * rule_runs(second, report)

    def test_only_profitable_reports_are_judged_in_full(self, monkeypatch, demo_market):
        # under a DA rule, the rule runs only for substitutable reports that
        # list a set above the baseline, and a run is judged by the set it
        # hands the agent, with no call to compare_common; the Blair verdict
        # and the stability test only for the reports kept
        import manymatch.manipulation as manipulation

        calls = {}
        for name in ("apply_rule", "da_rounds", "compare_common", "compare_blair", "is_stable"):
            def counted(*args, _name=name, _original=getattr(manipulation, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(manipulation, name, counted)
        p, a = demo_market.profile, AgentId(W, 0)
        report = gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, a)
        # w1's 8 sublists are all substitutable; 6 list a set above the
        # baseline, and 3 of those are profitable
        assert _da_sublist_counts(p, a, report.baseline) == (0, 6)
        assert (report.evaluated, report.rule_failures, len(report.profitable)) == (8, 0, 3)
        assert calls["compare_blair"] == calls["is_stable"] == 3
        # the 6 runs go straight to the rounds; the rule runs whole only on
        # the truthful profile, and worker-proposing DA for w1's side optimum
        assert calls["da_rounds"] == 6
        assert calls["apply_rule"] == 2
        assert "compare_common" not in calls

    def test_exhaustive_cap(self, firms_immune_market):
        p = firms_immune_market.profile
        with pytest.raises(UnsupportedSizeError):
            gmt_counterexample_check(p, StableRule.WORKER_OPTIMAL, AgentId(F, 0),
                                     exhaustive=True)

    @pytest.mark.parametrize("rule", list(StableRule))
    def test_exhaustive_cap_enforced_before_the_rule_runs(self, monkeypatch, demo_market, rule):
        import manymatch.manipulation as manipulation

        def no_apply_rule(*args):
            raise AssertionError("the rule ran before the cap was checked")

        monkeypatch.setattr(manipulation, "apply_rule", no_apply_rule)
        # f1 faces 4 workers; it is at its optimum under firm-optimal
        with pytest.raises(UnsupportedSizeError, match="^exhaustive misreport search for "
                           "firm 0 would try more than 16384 candidates$") as refusal:
            gmt_counterexample_check(demo_market.profile, rule, AgentId(F, 0), exhaustive=True)
        assert refusal.value.agent == AgentId(F, 0)

    def test_sublist_cap_enforced_before_the_rule_runs(self, monkeypatch, demo_market):
        import manymatch.manipulation as manipulation

        def no_apply_rule(*args):
            raise AssertionError("the rule ran before the cap was checked")

        monkeypatch.setattr(manipulation, "apply_rule", no_apply_rule)
        # every nonempty set of f1's 4 workers: 15 entries, 2^15 sublists
        everything = relation(AgentId(F, 0), *(
            [i for i in range(4) if mask >> i & 1] for mask in range(15, 0, -1)))
        p = replace_preference(demo_market.profile, everything)
        with pytest.raises(UnsupportedSizeError, match="^sublists misreport search for "
                           "firm 0 would try more than 16384 candidates$") as refusal:
            gmt_counterexample_check(p, StableRule.WORKER_OPTIMAL, AgentId(F, 0))
        assert refusal.value.agent == AgentId(F, 0)

    @pytest.mark.parametrize("exhaustive, agent, entries, refused", [
        # w1 faces 3 firms: 13,700 lists; f1 faces 4 workers: about 3.6e12
        (True, AgentId(W, 0), None, False),
        (True, AgentId(F, 0), None, True),
        # 2^14 sublists are allowed, 2^15 are not
        (False, AgentId(F, 0), 14, False),
        (False, AgentId(F, 0), 15, True),
    ])
    def test_candidate_cap_boundary(self, monkeypatch, demo_market, exhaustive, agent,
                                    entries, refused):
        import manymatch.manipulation as manipulation

        class ReachedTheSearch(Exception):
            pass

        def sentinel(*args):
            raise ReachedTheSearch

        monkeypatch.setattr(manipulation, "_truthful_standing", sentinel)
        p = demo_market.profile
        if entries is not None:
            sets = [[i for i in range(4) if mask >> i & 1] for mask in range(15, 0, -1)]
            p = replace_preference(p, relation(agent, *sets[:entries]))
        expected = UnsupportedSizeError if refused else ReachedTheSearch
        with pytest.raises(expected):
            gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, agent, exhaustive=exhaustive)

    @pytest.mark.parametrize("opposite_count, total", [(0, 1), (1, 2), (2, 16), (3, 13_700)])
    def test_exhaustive_count_is_the_number_of_candidates(self, opposite_count, total):
        from manymatch.manipulation import _all_relations

        count, candidates = _all_relations(AgentId(F, 0), opposite_count)
        candidates = list(candidates)
        assert count == len(candidates) == total
        assert len(set(candidates)) == total

    @pytest.mark.parametrize("entries", range(11))
    def test_sublist_count_is_the_number_of_candidates(self, entries):
        # the plain search's candidates; the search itself walks the keep masks
        from conftest import _sublist_relations

        true = PreferenceRelation(owner=AgentId(F, 0), ranked=tuple(range(1, entries + 1)))
        count, candidates = _sublist_relations(true)
        assert count == len(list(candidates)) == 1 << entries

    def test_exhaustive_search_over_32_agents_refuses_at_once(self):
        p = Profile((relation(AgentId(F, 0)),),
                    tuple(relation(AgentId(W, j)) for j in range(32)))
        start = time.perf_counter()
        with pytest.raises(UnsupportedSizeError, match="^exhaustive misreport search"):
            gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, AgentId(F, 0), exhaustive=True)
        assert time.perf_counter() - start < 0.1

    def test_wide_singleton_list_search_runs_no_axiom_check(self, monkeypatch):
        # w1 lists 14 single firms: 2^14 sublists, all substitutable, of which
        # 2^13 keep f2, the one firm ranked above w1's firm-optimal partner
        # f1, and 2^12 drop f1 as well and win f2.  A verdict that scans
        # every offer set per candidate, or DA re-checking the swapped
        # profile, shows here as axiom checks.
        import manymatch.manipulation as manipulation
        import manymatch.solver as solver

        firms = [f"f{i}" for i in range(1, 15)]
        instance = parse_market("\n".join([
            f"firms: {' '.join(firms)}", "workers: w1 w2",
            "pref f1: w1 | w2", "pref f2: w2 | w1", *(f"pref {f}:" for f in firms[2:]),
            "pref w1: " + " | ".join(["f2", "f1"] + firms[2:]), "pref w2: f1 | f2"]))
        p, a = instance.profile, instance.agent_id("w1")
        # the truthful runs check every relation once; they are kept on p
        manipulation._truthful_standing(a, StableRule.FIRM_OPTIMAL, p)
        calls = {"check_substitutable": 0, "deferred_acceptance": 0, "da_rounds": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for module in (manipulation, solver):
            monkeypatch.setattr(module, "check_substitutable",
                                counted("check_substitutable", check_substitutable))
        monkeypatch.setattr(solver, "deferred_acceptance",
                            counted("deferred_acceptance", deferred_acceptance))
        monkeypatch.setattr(manipulation, "da_rounds", counted("da_rounds", da_rounds))
        report = gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, a)
        assert (report.candidates_total, report.evaluated, report.rule_failures,
                len(report.profitable)) == (16384, 16384, 0, 4096)
        assert calls == {"check_substitutable": 0, "deferred_acceptance": 0, "da_rounds": 8192}


@pytest.mark.parametrize("check", [
    lambda p, a: verify_gmt(a, StableRule.FIRM_OPTIMAL, p),
    lambda p, a: gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, a),
    lambda p, a: gmt_counterexample_check(p, StableRule.FIRM_OPTIMAL, a, exhaustive=True),
    lambda p, a: p[a],
    lambda p, a: compare_common(DEMO_MU_F, DEMO_MU_W, a, p),
    lambda p, a: compare_common(DEMO_MU_F, DEMO_MU_F, a, p),
    lambda p, a: compare_blair(DEMO_MU_F, DEMO_MU_W, a, p),
    lambda p, a: truncation_strategy(a, DEMO_MU_F, p),
    lambda p, a: candidate_set_H(a, DEMO_MU_W, p),
], ids=["verify_gmt", "sublists", "exhaustive", "profile", "compare_common", "compare_equal",
        "compare_blair", "truncation_strategy", "candidate_set_H"])
@pytest.mark.parametrize("agent, message", [
    (AgentId(F, 3), "^no firm 3 in the profile$"),
    (AgentId(W, 4), "^no worker 4 in the profile$"),
], ids=["firm", "worker"])
def test_agent_outside_the_profile_refused_before_any_work(monkeypatch, demo_market, check,
                                                           agent, message):
    # the 3x4 demo market; an exhaustive search for firm 3 would also exceed the
    # cap.  Every reader of the agent's relation refuses through
    # ``Profile.__getitem__``, even where both matchings give it the same empty set
    import manymatch.manipulation as manipulation

    def no_apply_rule(*args):
        raise AssertionError("the rule ran before the agent was checked")

    monkeypatch.setattr(manipulation, "apply_rule", no_apply_rule)
    with pytest.raises(ValueError, match=message):
        check(demo_market.profile, agent)


# ---------------------------------------------------------------------------
# properties


def test_stability_survives_truncation_to_own_assignment(responsive_corpus):
    # every stable matching stays stable when any one agent restricts its
    # relation to its own assignment under that matching, with or without
    # any axiom
    rng = random.Random(18)
    markets = [p for p, _, _ in responsive_corpus[:50]]
    markets += [random_profile(rng) for _ in range(500)]
    for p in markets:
        for mu in enumerate_stable(p):
            for a in p.agents():
                reported = restrict_preference(p[a], matched_set(mu, a))
                assert is_stable(mu, replace_preference(p, reported))


def test_restriction_faithfulness_on_corpus(responsive_corpus):
    for p, _, _ in responsive_corpus[:50]:
        for mu in enumerate_stable(p):
            for a in p.agents():
                t = matched_set(mu, a)
                restricted = restrict_preference(p[a], t)
                assert restriction_items_hold(p[a], restricted, t)
                assert set(restricted.ranked) <= set(p[a].ranked)


def test_sublist_verdicts_equal_the_substitutability_check():
    # the search decides a sublist under the DA rules by its keep mask,
    # from the violation patterns of the true list; check_substitutable on
    # the sublist itself is the oracle
    from manymatch.manipulation import _failing_sublists

    rng = random.Random(20)
    lists = []
    for _ in range(2000):
        pool = range(1, 1 << rng.randint(1, 5))
        lists.append(tuple(rng.sample(pool, rng.randint(0, min(10, len(pool))))))
    # every 6-entry quota-2 responsive list over 3 members
    lists += [responsive_preference(QuotaRanking(AgentId(F, 0), ranking, 2)).ranked
              for ranking in permutations(range(3))]
    failures = total = 0
    for ranked in lists:
        failing = _failing_sublists(ranked)
        assert failing <= set(range(1 << len(ranked)))
        for keep in range(1 << len(ranked)):
            sublist = PreferenceRelation(AgentId(F, 0), tuple(
                entry for i, entry in enumerate(ranked) if keep >> i & 1))
            assert (keep in failing) is (check_substitutable(sublist) is not None), (ranked, keep)
        failures += len(failing)
        total += 1 << len(ranked)
    assert 0 < failures < total


def test_sublist_verdicts_on_every_list_over_three_partners():
    # the census of the pattern lemma: every strict list over 3 partners, which
    # holds every list over fewer, and every keep mask of each; a sublist is
    # itself one of the lists, so check_substitutable runs once per list and
    # each sublist's verdict is looked up by its entries
    from manymatch.manipulation import _all_relations, _failing_sublists

    count, relations = _all_relations(AgentId(F, 0), 3)
    holds = {pref.ranked: check_substitutable(pref) is None for pref in relations}
    assert len(holds) == count == 13_700
    masks = 0
    for ranked in holds:
        sublists = [()]  # by keep mask: bit i of the mask keeps entry i
        for entry in ranked:
            sublists += [sub + (entry,) for sub in sublists]
        expected = {keep for keep, sub in enumerate(sublists) if not holds[sub]}
        assert _failing_sublists(ranked) == expected, ranked
        masks += len(sublists)
    assert masks == 1_063_623


def test_a_report_without_a_better_entry_never_gains_under_deferred_acceptance():
    # the search's second shortcut, checked against a rule run: under either
    # DA rule, a substitutable sublist that keeps no entry the true list ranks
    # above the baseline set never hands the agent a better set.  The sample:
    # 300 seeded substitutable profiles of each shape, 2x3 and 3x2, every
    # agent under both rules, and every such sublist of its true list.
    runs = below_top = 0
    for n, m in ((2, 3), (3, 2)):
        for seed in range(300):
            rng = random.Random(seed)
            p = Profile(
                tuple(random_substitutable_relation(AgentId(F, i), m, rng) for i in range(n)),
                tuple(random_substitutable_relation(AgentId(W, j), n, rng) for j in range(m)))
            for proposing in (Side.FIRM, Side.WORKER):
                baseline = da_rounds(p, proposing)
                for a in p.agents():
                    true = p[a]
                    above = true.rank_of(matched_set(baseline, a))  # the baseline is stable
                    below_top += above > 0
                    rest = true.ranked[above:]
                    for keep in range(1 << len(rest)):
                        reported = PreferenceRelation(a, tuple(
                            entry for i, entry in enumerate(rest) if keep >> i & 1))
                        if check_substitutable(reported) is not None:
                            continue
                        manipulated = da_rounds(replace_preference(p, reported), proposing)
                        verdict = compare_common(manipulated, baseline, a, p)
                        assert verdict is not OrderVerdict.BETTER_STRICT, (p, a, proposing, keep)
                        runs += 1
    assert (runs, below_top) == (20_789, 2_679)


def _report_or_refusal(search, p, rule, a, exhaustive):
    try:
        return search(p, rule, a, exhaustive)
    except (PreconditionError, NoStableMatchingError) as exc:
        return type(exc), exc.agent, str(exc)


def _search_markets(generator: str, count: int) -> list[Profile]:
    """The first ``count`` random 2x3 or 3x3 profiles with two or more stable
    matchings: arbitrary lists from ``random_profile`` (no axiom guaranteed),
    or responsive ones (always 3x3).  With one stable matching every agent
    already has its side optimum and no search runs."""
    markets, seed = [], 0
    while len(markets) < count:
        rng = random.Random(seed)
        seed += 1
        if generator == "responsive":
            p = random_responsive_market(rng, max_side=3)[0]
        else:
            p = random_profile(rng, max_side=3)
        if (sorted((p.num_firms, p.num_workers)) in ([2, 3], [3, 3])
                and len(enumerate_stable(p)) >= 2):
            markets.append(p)
    return markets


def _quota_two_markets(workers: int, count: int) -> list[Profile]:
    """The first ``count`` random 3 x ``workers`` markets with two or more
    stable matchings in which every agent ranks three partners with quota 2,
    a 6-entry responsive list with 64 sublists, as in the benchmark's
    quota-2 ``manipulate`` markets."""
    markets, seed = [], 0
    while len(markets) < count:
        rng = random.Random(seed)
        seed += 1
        p = Profile(
            tuple(responsive_preference(QuotaRanking(AgentId(F, i), tuple(
                rng.sample(range(workers), 3)), 2)) for i in range(3)),
            tuple(responsive_preference(QuotaRanking(AgentId(W, j), tuple(
                rng.sample(range(3), 3)), 2)) for j in range(workers)))
        if len(enumerate_stable(p)) >= 2:
            markets.append(p)
    return markets


def test_search_equals_the_plain_per_candidate_search(monkeypatch):
    # the search judges each report by its list order before building its
    # record, and under a DA rule decides failures by the substitutability
    # verdict, skips reports listing nothing above the baseline and runs DA's
    # rounds without its precondition; the plain loop runs the whole rule on
    # every report and keeps the profitable ones
    import manymatch.manipulation as manipulation

    whole, rounds = [], []

    def counting_apply_rule(r, q):
        whole.append(q)
        return apply_rule(r, q)

    def counting_da_rounds(q, proposing):
        rounds.append(q)
        # the precondition the rounds skip holds on every profile they get
        assert all(check_substitutable(pref) is None for pref in q.firm_prefs + q.worker_prefs)
        return da_rounds(q, proposing)

    monkeypatch.setattr(manipulation, "apply_rule", counting_apply_rule)
    monkeypatch.setattr(manipulation, "da_rounds", counting_da_rounds)
    seen = {"profitable": 0, "failures": 0, "exhaustive": 0, "refused": 0,
            "verdict_failures": 0, "skipped_runs": 0}
    markets = _search_markets("arbitrary", 30) + _search_markets("responsive", 12)
    markets += _quota_two_markets(3, 2) + _quota_two_markets(4, 2)
    for p in markets:
        for rule in StableRule:
            for a in p.agents():
                modes = (False, True) if p.side_count(a.side.opposite) <= 2 else (False,)
                for exhaustive in modes:
                    whole.clear()
                    rounds.clear()
                    fast = _report_or_refusal(gmt_counterexample_check, p, rule, a, exhaustive)
                    runs = sum(q is not p for q in whole)
                    plain = _report_or_refusal(plain_counterexample_search, p, rule, a,
                                               exhaustive)
                    # the generated equality compares every field, the
                    # profitable outcomes in order included
                    assert fast == plain, (p, rule, a, exhaustive)
                    if isinstance(fast, tuple):
                        seen["refused"] += 1
                        continue
                    seen["profitable"] += len(fast.profitable)
                    seen["failures"] += fast.rule_failures
                    seen["exhaustive"] += exhaustive
                    if rule in (StableRule.FIRM_OPTIMAL, StableRule.WORKER_OPTIMAL):
                        # a report runs only DA's rounds: its failures are
                        # decided by the verdict, and some runs are skipped
                        assert runs == 0
                        assert len(rounds) <= fast.evaluated
                        seen["verdict_failures"] += fast.rule_failures
                        seen["skipped_runs"] += fast.evaluated - len(rounds)
                    else:
                        assert runs == fast.candidates_total
                        assert not rounds
    assert all(seen.values()), seen


def _opposed_substitutable_profile(rng: random.Random) -> Profile:
    """A 3x3 profile in which firm i ranks worker i alone first and worker j
    ranks firm j+1 alone first, each followed by a random substitutable
    relation over its two other partners.  Such a list is substitutable (an
    offer holding the first partner chooses it alone, and any other offer
    chooses as the rest of the list does), often fails the law of aggregate
    demand, and the opposed first choices often leave several stable
    matchings, which ``random_substitutable_profile`` almost never does."""
    def relation_with_first(owner: AgentId, first: int) -> PreferenceRelation:
        others = [k for k in range(3) if k != first]
        rest = random_substitutable_relation(owner, 2, rng).ranked
        return PreferenceRelation(owner, (1 << first,) + tuple(
            sum(1 << others[i] for i in range(2) if entry >> i & 1) for entry in rest))

    return Profile(tuple(relation_with_first(AgentId(F, i), i) for i in range(3)),
                   tuple(relation_with_first(AgentId(W, j), (j + 1) % 3) for j in range(3)))


def test_side_optimum_from_deferred_acceptance_equals_the_enumerated_one():
    # Roth (1984): on substitutable relations, deferred acceptance proposed
    # by one side gives that side its optimal stable matching, with or
    # without the law of aggregate demand; the verifier takes it from the
    # side's DA rule there, and reads it off the enumeration where DA
    # refuses the profile.  Every check the verifier makes on these draws
    # gets a matching from the rule and keeps its target stable under the
    # report, the gate off and under every rule that accepts the profile
    rng = random.Random(16)
    seen = {"without_lad": 0, "several_stable": 0, "several_stable_without_lad": 0,
            "off_domain": 0, "off_domain_no_optimum": 0, "checks": 0}

    def substitutable(p):
        return all(check_substitutable(pref) is None for pref in p.firm_prefs + p.worker_prefs)

    def verified_optimum(p, side):
        rules = StableRule if substitutable(p) else (StableRule.SELECT_FIRST,
                                                     StableRule.SELECT_LAST)
        optima = set()
        for rule in rules:
            v = verify_gmt(AgentId(side, 0), rule, p, require_axioms=False)
            for check in v.checks:
                assert check.outcome.failure is None and check.assertions[0], (p, side, rule)
            seen["checks"] += len(v.checks)
            optima.add(v.side_optimum)
        assert len(optima) == 1, (p, side)
        return optima.pop()

    draws = [random_substitutable_profile(rng) for _ in range(1000)]
    draws += [_opposed_substitutable_profile(rng) for _ in range(1000)]
    for p in draws:
        assert substitutable(p)
        ss = enumerate_stable(p)
        without_lad = not all(check_lad(pref) is None for pref in p.firm_prefs + p.worker_prefs)
        seen["without_lad"] += without_lad
        seen["several_stable"] += len(ss) >= 2
        seen["several_stable_without_lad"] += len(ss) >= 2 and without_lad
        for side in Side:
            optimum = side_optimal(ss, p, side)
            assert optimum is not None
            assert deferred_acceptance(p, side) == optimum, (p, side)
            assert verified_optimum(p, side) == optimum

    while seen["off_domain"] < 1000:
        p = random_profile(rng)
        ss = enumerate_stable(p)
        if not ss or substitutable(p):
            continue
        seen["off_domain"] += 1
        for side in Side:
            optimum = side_optimal(ss, p, side)
            seen["off_domain_no_optimum"] += optimum is None
            assert verified_optimum(p, side) == optimum, (p, side)
    assert seen["several_stable_without_lad"] >= 20, seen
    assert seen["off_domain_no_optimum"] >= 1, seen
    assert seen["checks"] >= 500, seen


def _verification_or_refusal(a, rule, p, require_axioms):
    try:
        return verify_gmt(a, rule, p, require_axioms=require_axioms)
    except PreconditionError as exc:
        return exc.agent, str(exc)


def test_kept_truthful_results_equal_fresh_ones(monkeypatch):
    # one shared profile answers every (rule, agent), gate on and off, in
    # sweep order and in reverse, exactly as a fresh equal profile per call
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    sweep = importlib.import_module("manipulability_sweep")
    rng = random.Random(7)
    markets = [sweep.random_market(rng, 4) for _ in range(300)]
    markets += [bundled(name).profile for name in BUNDLED]
    assert sum(len(enumerate_stable(p)) >= 2 for p in markets) >= 20
    for p in markets:
        pairs = [(rule, a) for rule in StableRule for a in p.agents()]
        for order in (pairs, pairs[::-1]):
            shared = Profile(p.firm_prefs, p.worker_prefs)
            for rule, a in order:
                for gate in (True, False):
                    fresh = Profile(p.firm_prefs, p.worker_prefs)
                    assert (_verification_or_refusal(a, rule, shared, gate)
                            == _verification_or_refusal(a, rule, fresh, gate))


def test_construction_holds_at_32_a_side_under_the_da_rules(monkeypatch):
    # the sweep's generator at MAX_SIDE: responsive lists over up to 32
    # partners pass the axiom checks, so DA answers every market
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    sweep = importlib.import_module("manipulability_sweep")
    rng = random.Random(7)
    start = time.monotonic()
    applicable = 0
    for _ in range(100):
        p = sweep.random_market(rng, 32)
        for rule in (StableRule.FIRM_OPTIMAL, StableRule.WORKER_OPTIMAL):
            for a in p.agents():
                v = verify_gmt(a, rule, p)
                if v.applicable:
                    applicable += 1
                    assert v.all_hold, (rule, a)
    elapsed = time.monotonic() - start
    assert applicable == 88
    assert elapsed < 3.0, f"took {elapsed:.2f}s"


def test_an_agent_applicable_under_firm_optimal_means_two_stable_matchings(monkeypatch):
    # the sweep reads multi-stability off its firm-optimal pairs: firm-
    # proposing DA gives every worker its worst stable set and
    # worker-proposing DA its best, and the stable set lies between them
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    sweep = importlib.import_module("manipulability_sweep")
    multi = 0
    for max_side, count in ((4, 300), (6, 100), (8, 100)):
        rng = random.Random(7)
        for index in range(count):
            p = sweep.random_market(rng, max_side)
            some = any(verify_gmt(a, StableRule.FIRM_OPTIMAL, p).applicable for a in p.agents())
            assert some == (len(enumerate_stable(p)) >= 2), (max_side, index)
            multi += some
    assert multi == 19 + 9 + 9


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 15))
def test_restriction_of_substitutable_stays_substitutable(seed, offer_mask):
    # open monitoring: no restriction of a substitutable relation has ever
    # failed the checker; a counterexample here would be a real finding
    rng = random.Random(seed)
    pref = random_substitutable_relation(AgentId(F, 0), 4, rng)
    t = choice_mask(offer_mask, pref)
    restricted = restrict_preference(pref, t)
    assert check_substitutable(restricted) is None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 15))
def test_restriction_output_is_well_formed(seed, offer_mask):
    rng = random.Random(seed)
    pref = random_substitutable_relation(AgentId(F, 0), 4, rng)
    t = choice_mask(offer_mask, pref)
    restricted = restrict_preference(pref, t)
    assert all(entry & ~t == 0 for entry in restricted.ranked)
