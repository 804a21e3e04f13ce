"""Deferred acceptance, order comparisons, and stable rules."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    matching_from_mask,
    pairwise_side_optimal,
    plain_deferred_acceptance,
    random_profile,
    random_substitutable_profile,
    relation,
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
    responsive_preference,
    side_optimal,
    solver,
)
from manymatch.core import NoStableMatchingError, PreconditionError, matched_set, replace_preference
from manymatch.solver import OrderVerdict, apply_rule, compare_blair, compare_common

from test_stability import (
    DEMO_MU_F,
    DEMO_MU_W,
    EX1_MU_F,
    EX1_MU_W,
    EX2_MU_W,
)

F = Side.FIRM
W = Side.WORKER


class TestDeferredAcceptance:
    def test_demo_firm_proposing(self, demo_market):
        assert deferred_acceptance(demo_market.profile, F) == DEMO_MU_F

    def test_demo_worker_proposing(self, demo_market):
        assert deferred_acceptance(demo_market.profile, W) == DEMO_MU_W

    def test_firms_immune_both_sides(self, firms_immune_market):
        p = firms_immune_market.profile
        assert deferred_acceptance(p, W) == EX1_MU_W
        assert deferred_acceptance(p, F) == EX1_MU_F

    def test_truncated_f1_worker_proposing(self, firms_immune_market):
        # f1 keeps only sets inside {w1, w2}: it ends up unmatched
        p = firms_immune_market.profile
        f1 = AgentId(F, 0)
        truncated = relation(f1, (0, 1), (0,), (1,))
        swapped = replace_preference(p, truncated)
        expected = Matching.from_pairs([(1, 0), (1, 3), (2, 1), (2, 2)])
        assert deferred_acceptance(swapped, W) == expected

    def test_non_substitutable_agent_rejected(self):
        p = Profile(
            (relation(AgentId(F, 0), (0, 1)),),
            (relation(AgentId(W, 0), (0,)), relation(AgentId(W, 1), (0,))),
        )
        with pytest.raises(PreconditionError, match="firm 0"):
            deferred_acceptance(p, F)


class TestCompareCommon:
    def test_identical_matchings_equal(self, demo_market):
        p = demo_market.profile
        assert compare_common(DEMO_MU_F, DEMO_MU_F, AgentId(F, 0), p) is OrderVerdict.EQUAL

    def test_demo_f1_prefers_firm_optimal(self, demo_market):
        p = demo_market.profile
        assert compare_common(DEMO_MU_F, DEMO_MU_W, AgentId(F, 0), p) is OrderVerdict.BETTER_STRICT
        assert compare_common(DEMO_MU_W, DEMO_MU_F, AgentId(F, 0), p) is OrderVerdict.WORSE_STRICT

    def test_demo_w1_prefers_worker_optimal(self, demo_market):
        p = demo_market.profile
        assert compare_common(DEMO_MU_W, DEMO_MU_F, AgentId(W, 0), p) is OrderVerdict.BETTER_STRICT

    def test_listed_beats_empty_beats_unlisted(self):
        f0 = AgentId(F, 0)
        p = Profile(
            (relation(f0, (0,)),),
            (relation(AgentId(W, 0), (0,)), relation(AgentId(W, 1), (0,))),
        )
        listed = Matching.from_pairs([(0, 0)])
        unlisted = Matching.from_pairs([(0, 1)])
        empty = Matching.empty()
        assert compare_common(listed, empty, f0, p) is OrderVerdict.BETTER_STRICT
        assert compare_common(empty, unlisted, f0, p) is OrderVerdict.BETTER_STRICT
        assert compare_common(unlisted, listed, f0, p) is OrderVerdict.WORSE_STRICT

    def test_two_unlisted_sets_incomparable(self):
        f0 = AgentId(F, 0)
        p = Profile(
            (relation(f0, (0, 1)),),
            tuple(relation(AgentId(W, j), (0,)) for j in range(3)),
        )
        assert (
            compare_common(Matching.from_pairs([(0, 0)]), Matching.from_pairs([(0, 2)]), f0, p)
            is OrderVerdict.INCOMPARABLE
        )


class TestCompareBlair:
    def test_identical_matchings_equal(self, demo_market):
        p = demo_market.profile
        assert compare_blair(DEMO_MU_W, DEMO_MU_W, AgentId(W, 2), p) is OrderVerdict.EQUAL

    def test_demo_f1_blair_prefers_firm_optimal(self, demo_market):
        p = demo_market.profile
        assert compare_blair(DEMO_MU_F, DEMO_MU_W, AgentId(F, 0), p) is OrderVerdict.BETTER_STRICT
        assert compare_blair(DEMO_MU_W, DEMO_MU_F, AgentId(F, 0), p) is OrderVerdict.WORSE_STRICT

    def test_union_choosing_third_set_is_incomparable(self):
        f0 = AgentId(F, 0)
        p = Profile(
            (relation(f0, (0, 2), (0,), (2,)),),
            tuple(relation(AgentId(W, j), (0,)) for j in range(3)),
        )
        m1 = Matching.from_pairs([(0, 0)])
        m2 = Matching.from_pairs([(0, 2)])
        assert compare_blair(m1, m2, f0, p) is OrderVerdict.INCOMPARABLE


class TestSideOptimal:
    def test_singleton_stable_set(self, demo_market):
        ss = (DEMO_MU_F,)
        assert side_optimal(ss, demo_market.profile, F) == DEMO_MU_F
        assert side_optimal(ss, demo_market.profile, W) == DEMO_MU_F

    def test_demo_market_both_sides(self, demo_market):
        p = demo_market.profile
        ss = enumerate_stable(p)
        assert side_optimal(ss, p, F) == DEMO_MU_F
        assert side_optimal(ss, p, W) == DEMO_MU_W

    def test_workers_immune_worker_side(self, workers_immune_market):
        p = workers_immune_market.profile
        assert side_optimal(enumerate_stable(p), p, W) == EX2_MU_W

    def test_absent_when_no_dominant_member(self, demo_market):
        # a hand-built "stable set" containing matchings no firm agrees on
        p = demo_market.profile
        ss = (Matching.from_pairs([(0, 0)]), Matching.from_pairs([(0, 1)]))
        assert side_optimal(ss, p, W) is None


class TestApplyRule:
    def test_firm_optimal_demo(self, demo_market):
        assert apply_rule(StableRule.FIRM_OPTIMAL, demo_market.profile) == DEMO_MU_F

    def test_worker_optimal_firms_immune(self, firms_immune_market):
        assert apply_rule(StableRule.WORKER_OPTIMAL, firms_immune_market.profile) == EX1_MU_W

    def test_selectors_pick_canonical_ends(self, demo_market):
        p = demo_market.profile
        ss = enumerate_stable(p)
        assert apply_rule(StableRule.SELECT_FIRST, p) == ss[0]
        assert apply_rule(StableRule.SELECT_LAST, p) == ss[len(ss) - 1]

    def test_selector_on_singleton(self):
        p = Profile(
            (relation(AgentId(F, 0), (0,)),),
            (relation(AgentId(W, 0), (0,)),),
        )
        only = enumerate_stable(p)[0]
        assert apply_rule(StableRule.SELECT_FIRST, p) == only
        assert apply_rule(StableRule.SELECT_LAST, p) == only

    def test_selector_on_empty_stable_set(self, empty_stable_set_profile):
        assert len(enumerate_stable(empty_stable_set_profile)) == 0
        with pytest.raises(NoStableMatchingError):
            apply_rule(StableRule.SELECT_FIRST, empty_stable_set_profile)


# ---------------------------------------------------------------------------
# properties


def test_da_is_oracle_member_and_side_optimal_on_corpus(responsive_corpus):
    for p, _, _ in responsive_corpus:
        ss = enumerate_stable(p)
        for side in (F, W):
            mu = deferred_acceptance(p, side)
            assert mu in ss
            assert mu == side_optimal(ss, p, side)


def test_da_matches_oracle_on_substitutable_only_profiles():
    # the optimality guarantee is asserted even off the aggregate-demand
    # domain; a failure here is a finding, not a flake
    for seed in range(60):
        p = random_substitutable_profile(random.Random(1000 + seed))
        ss = enumerate_stable(p)
        for side in (F, W):
            mu = deferred_acceptance(p, side)
            assert mu in ss, f"DA output unstable at seed {seed}"
            assert mu == side_optimal(ss, p, side), f"DA not side-optimal at seed {seed}"


def test_blair_dominance_at_the_optimum(responsive_corpus):
    # the side-optimum Blair-dominates every stable matching for its side
    good = (OrderVerdict.BETTER_STRICT, OrderVerdict.EQUAL)
    for p, _, _ in responsive_corpus[:60]:
        ss = enumerate_stable(p)
        for side in (F, W):
            best = side_optimal(ss, p, side)
            for mu in ss:
                for i in range(p.side_count(side)):
                    assert compare_blair(best, mu, AgentId(side, i), p) in good


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 255), st.integers(0, 255))
def test_equal_verdicts_agree_between_orders(seed, mask1, mask2):
    rng = random.Random(seed)
    p = random_substitutable_profile(rng, max_side=3)
    bits = p.num_firms * p.num_workers
    mu1 = matching_from_mask(mask1 % (1 << bits), p.num_workers)
    mu2 = matching_from_mask(mask2 % (1 << bits), p.num_workers)
    for a in p.agents():
        common = compare_common(mu1, mu2, a, p)
        blair = compare_blair(mu1, mu2, a, p)
        assert (common is OrderVerdict.EQUAL) == (blair is OrderVerdict.EQUAL)
        assert (common is OrderVerdict.EQUAL) == (matched_set(mu1, a) == matched_set(mu2, a))


def _responsive_square(seed: int, n: int, quota: int) -> Profile:
    """An n x n market in which every agent ranks the whole opposite side
    at random and takes its best ``quota`` of any offer."""
    rng = random.Random(seed)
    prefs = {
        side: tuple(
            responsive_preference(QuotaRanking(AgentId(side, i), tuple(rng.sample(range(n), n)),
                                               quota))
            for i in range(n)
        )
        for side in (F, W)
    }
    return Profile(prefs[F], prefs[W])


def test_da_equals_plain_loop(responsive_corpus):
    profiles = [random_substitutable_profile(random.Random(5000 + seed), max_side=4)
                for seed in range(500)]
    profiles += [p for p, _, _ in responsive_corpus]
    for k, p in enumerate(profiles):
        for side in (F, W):
            assert deferred_acceptance(p, side) == plain_deferred_acceptance(p, side)[0], (k, side)


def test_da_precondition_on_sixteen_member_responsive_lists_builds_no_table(no_choice_table):
    # 32 relations of 136 entries over 16 members, each at the member cap: the
    # substitutability gate recognizes them instead of scanning 2^16 sets each
    p = _responsive_square(16, 16, 2)
    for side in (F, W):
        assert deferred_acceptance(p, side) == plain_deferred_acceptance(p, side)[0]


def test_rejections_bound_round_count(demo_market, monkeypatch):
    # Rejections are cumulative, so there are at most n*m of them.  A
    # proposer is evaluated in the first round and after that only in a
    # round that follows one rejecting it: at most 1 + its rejections times.
    # A loop that re-evaluates every proposer in every round breaks this.
    real = solver.choice_mask
    rejections = 0
    for p in (demo_market.profile, _responsive_square(7, 12, 3)):
        for side in (F, W):
            expected, rejected = plain_deferred_acceptance(p, side)
            calls = Counter()

            def counting(offer, pref):
                calls[pref.owner] += 1
                return real(offer, pref)

            with monkeypatch.context() as m:
                m.setattr(solver, "choice_mask", counting)
                assert deferred_acceptance(p, side) == expected
            for i, r in enumerate(rejected):
                assert 1 <= calls[AgentId(side, i)] <= 1 + r.bit_count(), (side, i)
            rejections += sum(r.bit_count() for r in rejected)
    assert rejections > 0


def _assert_side_optimal_is_pairwise(ss, p) -> list:
    """Both sides' results, after checking that each is the very member (or
    None) that the pairwise definition returns."""
    out = []
    for side in (F, W):
        got = side_optimal(ss, p, side)
        assert got is pairwise_side_optimal(ss, p, side), (ss, side)
        out.append(got)
    return out


def test_side_optimal_equals_pairwise_on_stable_sets():
    results = []
    for seed in range(500):
        p = random_profile(random.Random(6000 + seed))
        results += _assert_side_optimal_is_pairwise(enumerate_stable(p), p)
    assert None in results
    assert any(r is not None for r in results)


def test_side_optimal_equals_pairwise_on_hand_built_tuples():
    results = []
    for seed in range(500):
        rng = random.Random(7000 + seed)
        p = random_profile(rng)
        edges = p.num_firms * p.num_workers
        ss = tuple(
            matching_from_mask(rng.getrandbits(edges), p.num_workers)
            for _ in range(rng.randint(2, 4))
        )
        results += _assert_side_optimal_is_pairwise(ss, p)
    assert None in results
    assert any(r is not None for r in results)


def test_side_optimal_on_a_thousand_member_stable_set():
    # ten disjoint cyclic 2x2 blocks: in each, the firms get their first
    # choices or the workers get theirs, independently of the other blocks
    blocks = 10
    p = Profile(
        tuple(relation(AgentId(F, i), [i], [i ^ 1]) for i in range(2 * blocks)),
        tuple(relation(AgentId(W, j), [j ^ 1], [j]) for j in range(2 * blocks)),
    )
    ss = enumerate_stable(p)
    assert len(ss) == 2 ** blocks
    for side in (F, W):
        assert side_optimal(ss, p, side) == deferred_acceptance(p, side)
