"""Axiom checkers and the responsive generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_pairs_lad_holds,
    first_lad_violation,
    first_substitutability_violation,
    pset,
    random_quota_ranking,
    relation,
    responsive_oracle,
)
from manymatch import AgentId, QuotaRanking, Side, responsive_preference
from manymatch.axioms import Axiom, check_lad, check_substitutable
from manymatch.core import PreferenceRelation, UnsupportedSizeError, choice_mask

F = Side.FIRM
W = Side.WORKER


def odd_lad_relation() -> PreferenceRelation:
    return relation(AgentId(F, 0), (1,), (0, 2), (0,), (2,))


def firms_immune_f1() -> PreferenceRelation:
    # w1 w2 | w1 | w2 | w3 w4 | w3 | w4
    return relation(AgentId(F, 0), (0, 1), (0,), (1,), (2, 3), (2,), (3,))


class TestSubstitutability:
    def test_odd_lad_relation_is_substitutable(self):
        assert check_substitutable(odd_lad_relation()).holds

    def test_firms_immune_relation_is_substitutable(self):
        assert check_substitutable(firms_immune_f1()).holds

    def test_singleton_lists_are_substitutable(self):
        pref = relation(AgentId(W, 0), (2,), (0,), (1,))
        assert check_substitutable(pref).holds

    def test_pair_only_relation_fails_with_pinned_witness(self):
        pref = relation(AgentId(F, 0), (0, 1))
        report = check_substitutable(pref)
        assert not report.holds
        w = report.witness
        assert w.offer_set == pset(0, 1)
        assert w.kept == 0
        assert w.removed == 1
        assert w.reduced_set == pset(0)

    def test_report_axiom_tag(self):
        assert check_substitutable(odd_lad_relation()).axiom is Axiom.SUBSTITUTABILITY


class TestLad:
    def test_odd_lad_relation_fails_with_pinned_witness(self):
        report = check_lad(odd_lad_relation())
        assert not report.holds
        assert report.witness.offer_set == pset(0, 1, 2)
        assert report.witness.reduced_set == pset(0, 2)
        assert report.witness.removed == 1

    def test_firms_immune_f1_fails_with_pinned_witness(self):
        report = check_lad(firms_immune_f1())
        assert not report.holds
        assert report.witness.offer_set == pset(1, 2, 3)
        assert report.witness.reduced_set == pset(2, 3)

    def test_singleton_lists_satisfy_lad(self):
        pref = relation(AgentId(F, 0), (1,), (0,), (2,))
        assert check_lad(pref).holds

    def test_pair_only_relation_satisfies_lad(self):
        # the axioms are independent: this one is LAD-true, substitutable-false
        pref = relation(AgentId(F, 0), (0, 1))
        assert check_lad(pref).holds
        assert not check_substitutable(pref).holds

    def test_axiom_independence_both_ways(self):
        assert check_substitutable(odd_lad_relation()).holds
        assert not check_lad(odd_lad_relation()).holds

    def test_size_cap(self):
        big = relation(AgentId(F, 0), tuple(range(17)))
        with pytest.raises(UnsupportedSizeError):
            check_lad(big)
        with pytest.raises(UnsupportedSizeError):
            check_substitutable(big)

    def test_sixteen_members_at_the_cap_are_checked(self):
        at_cap = responsive_preference(
            QuotaRanking(AgentId(F, 0), tuple(range(15, -1, -1)), 2))
        assert len(at_cap.ranked) == 136
        assert check_substitutable(at_cap).holds
        assert check_lad(at_cap).holds
        whole = relation(AgentId(F, 0), tuple(range(16)), (3,))
        report = check_substitutable(whole)
        assert (report.witness.offer_set, report.witness.kept, report.witness.removed) == (
            (1 << 16) - 1, 0, 1)


class TestResponsiveGenerator:
    def test_quota_one_equals_individual_ranking(self):
        q = QuotaRanking(owner=AgentId(F, 0), individual_ranking=(0, 1), quota=1)
        assert responsive_preference(q).ranked == (pset(0), pset(1))

    def test_pinned_quota_two_order(self):
        q = QuotaRanking(owner=AgentId(F, 0), individual_ranking=(0, 1, 2), quota=2)
        assert responsive_preference(q).ranked == (
            pset(0, 1),
            pset(0, 2),
            pset(0),
            pset(1, 2),
            pset(1),
            pset(2),
        )

    def test_empty_ranking_gives_empty_relation(self):
        q = QuotaRanking(owner=AgentId(F, 0), individual_ranking=(), quota=2)
        assert responsive_preference(q).ranked == ()

    def test_duplicate_individuals_rejected(self):
        with pytest.raises(ValueError):
            QuotaRanking(owner=AgentId(F, 0), individual_ranking=(0, 0), quota=1)

    def test_quota_below_one_rejected(self):
        with pytest.raises(ValueError):
            QuotaRanking(owner=AgentId(F, 0), individual_ranking=(0,), quota=0)


# ---------------------------------------------------------------------------
# properties


@st.composite
def arbitrary_relations(draw, max_opposite=4, max_entries=8):
    opposite = draw(st.integers(1, max_opposite))
    pool = list(range(1, 1 << opposite))
    entries = draw(st.lists(st.sampled_from(pool), unique=True, max_size=max_entries))
    return PreferenceRelation(owner=AgentId(F, 0), ranked=tuple(entries))


def found(report):
    """A report in the oracles' form: None, or (offer, reduced, kept, removed)."""
    if report.holds:
        assert report.witness is None
        return None
    w = report.witness
    return w.offer_set, w.reduced_set, w.kept, w.removed


def assert_checkers_match_oracles(pref):
    assert found(check_substitutable(pref)) == first_substitutability_violation(pref)
    assert found(check_lad(pref)) == first_lad_violation(pref)


@settings(max_examples=500)
@given(arbitrary_relations(max_opposite=5, max_entries=12))
def test_checkers_find_the_oracles_first_witness(pref):
    assert_checkers_match_oracles(pref)


def test_checkers_find_the_oracles_first_witness_on_responsive_relations():
    # rankings of up to 9 members, drawn from up to 12 partners
    rng = random.Random(20261018)
    for members in range(10):
        for _ in range(10):
            opposite = rng.randint(max(members, 1), 12)
            ranking = tuple(rng.sample(range(opposite), members))
            q = QuotaRanking(AgentId(W, 0), ranking, rng.randint(1, 4))
            assert_checkers_match_oracles(responsive_preference(q))


def test_checkers_find_the_oracles_first_witness_on_sparse_members():
    # listed members spread over a 32-agent side, so renumbering matters
    rng = random.Random(7)
    for _ in range(200):
        members = sorted(rng.sample(range(32), rng.randint(1, 5)))
        masks = [sum(1 << members[i] for i in range(len(members)) if sub >> i & 1)
                 for sub in range(1, 1 << len(members))]
        ranked = tuple(rng.sample(masks, min(len(masks), 10)))
        assert_checkers_match_oracles(PreferenceRelation(AgentId(F, 0), ranked))


@given(arbitrary_relations())
def test_substitutability_witness_replays(pref):
    report = check_substitutable(pref)
    if report.holds:
        return
    w = report.witness
    assert w.agent == pref.owner
    assert w.reduced_set == w.offer_set & ~(1 << w.removed)
    assert choice_mask(w.offer_set, pref) >> w.kept & 1
    assert not choice_mask(w.reduced_set, pref) >> w.kept & 1


@given(arbitrary_relations())
def test_lad_witness_replays(pref):
    report = check_lad(pref)
    if report.holds:
        return
    w = report.witness
    assert w.reduced_set == w.offer_set & ~(1 << w.removed)
    assert choice_mask(w.reduced_set, pref).bit_count() > choice_mask(w.offer_set, pref).bit_count()


@given(arbitrary_relations())
def test_single_removal_lad_equals_all_pairs_oracle(pref):
    assert check_lad(pref).holds == all_pairs_lad_holds(pref)


@st.composite
def quota_rankings(draw, max_opposite=5, max_quota=3):
    opposite = draw(st.integers(1, max_opposite))
    size = draw(st.integers(0, opposite))
    ranking = tuple(draw(st.permutations(range(opposite)))[:size])
    quota = draw(st.integers(1, max_quota))
    return QuotaRanking(owner=AgentId(F, 0), individual_ranking=ranking, quota=quota)


@given(quota_rankings())
def test_generator_output_satisfies_both_axioms(q):
    pref = responsive_preference(q)
    assert check_substitutable(pref).holds
    assert check_lad(pref).holds


@given(quota_rankings(), st.integers(0, (1 << 5) - 1))
def test_generator_choice_size_law(q, offer_mask):
    pref = responsive_preference(q)
    acceptable = 0
    for i in q.individual_ranking:
        acceptable |= 1 << i
    chosen = choice_mask(offer_mask, pref)
    assert chosen.bit_count() == min((offer_mask & acceptable).bit_count(), q.quota)


@settings(max_examples=60)
@given(quota_rankings(max_opposite=4, max_quota=3))
def test_generator_output_is_responsive(q):
    assert responsive_oracle(responsive_preference(q), q)


def test_generator_corpus_thousand_rankings():
    rng = random.Random(20260809)
    for _ in range(1000):
        q = random_quota_ranking(AgentId(F, 0), rng.randint(1, 5), rng, max_quota=3)
        pref = responsive_preference(q)
        assert check_substitutable(pref).holds
        assert check_lad(pref).holds
