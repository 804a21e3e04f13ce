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
    sorted_responsive_order,
)
from manymatch import AgentId, QuotaRanking, Side, responsive_preference
from manymatch.axioms import check_lad, check_substitutable
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
        assert check_substitutable(odd_lad_relation()) is None

    def test_firms_immune_relation_is_substitutable(self):
        assert check_substitutable(firms_immune_f1()) is None

    def test_singleton_lists_are_substitutable(self):
        pref = relation(AgentId(W, 0), (2,), (0,), (1,))
        assert check_substitutable(pref) is None

    def test_pair_only_relation_fails_with_pinned_witness(self):
        pref = relation(AgentId(F, 0), (0, 1))
        w = check_substitutable(pref)
        assert w is not None
        assert w.offer_set == pset(0, 1)
        assert w.kept == 0
        assert w.removed == 1
        assert w.reduced_set == pset(0)


class TestLad:
    def test_odd_lad_relation_fails_with_pinned_witness(self):
        w = check_lad(odd_lad_relation())
        assert w is not None
        assert w.offer_set == pset(0, 1, 2)
        assert w.reduced_set == pset(0, 2)
        assert w.removed == 1

    def test_firms_immune_f1_fails_with_pinned_witness(self):
        w = check_lad(firms_immune_f1())
        assert w is not None
        assert w.offer_set == pset(1, 2, 3)
        assert w.reduced_set == pset(2, 3)

    def test_singleton_lists_satisfy_lad(self):
        pref = relation(AgentId(F, 0), (1,), (0,), (2,))
        assert check_lad(pref) is None

    def test_pair_only_relation_satisfies_lad(self):
        # the axioms are independent: this one is LAD-true, substitutable-false
        pref = relation(AgentId(F, 0), (0, 1))
        assert check_lad(pref) is None
        assert check_substitutable(pref) is not None

    def test_axiom_independence_both_ways(self):
        assert check_substitutable(odd_lad_relation()) is None
        assert check_lad(odd_lad_relation()) is not None

    def test_size_cap(self):
        big = relation(AgentId(F, 0), tuple(range(17)))
        with pytest.raises(UnsupportedSizeError):
            check_lad(big)
        with pytest.raises(UnsupportedSizeError):
            check_substitutable(big)

    def test_size_cap_spares_a_responsive_list(self):
        # the cap sizes the choice table, which a responsive list never needs:
        # seventeen singletons (quota 1) and full rankings over 32 members
        singles = relation(AgentId(F, 0), *((i,) for i in range(17)))
        wide = [responsive_preference(QuotaRanking(AgentId(F, 0), tuple(range(31, -1, -1)), q))
                for q in (2, 3)]
        assert [len(pref.ranked) for pref in wide] == [528, 5488]
        for pref in (singles, *wide):
            assert check_lad(pref) is None
            assert check_substitutable(pref) is None

    def test_sixteen_members_at_the_cap_are_checked(self):
        at_cap = responsive_preference(
            QuotaRanking(AgentId(F, 0), tuple(range(15, -1, -1)), 2))
        assert len(at_cap.ranked) == 136
        assert check_substitutable(at_cap) is None
        assert check_lad(at_cap) is None
        whole = relation(AgentId(F, 0), tuple(range(16)), (3,))
        w = check_substitutable(whole)
        assert (w.offer_set, w.kept, w.removed) == ((1 << 16) - 1, 0, 1)


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

    def test_order_equals_the_sorted_construction(self):
        rng = random.Random(20261019)
        for _ in range(600):
            opposite = rng.randint(1, 14)
            ranking = tuple(rng.sample(range(opposite), rng.randint(0, min(opposite, 9))))
            q = QuotaRanking(AgentId(F, 0), ranking, rng.randint(1, 6))
            assert responsive_preference(q).ranked == sorted_responsive_order(q)


def random_responsive_relations(rng, count, max_members=9):
    """Generator outputs for rankings of 0 to ``max_members`` members drawn
    from up to 14 partners, quotas 1-6."""
    for _ in range(count):
        members = rng.randint(0, max_members)
        opposite = rng.randint(max(members, 1), 14)
        ranking = tuple(rng.sample(range(opposite), members))
        yield responsive_preference(QuotaRanking(AgentId(W, 0), ranking, rng.randint(1, 6)))


class TestRecognizedResponsiveLists:
    def test_every_generator_output_holds_without_a_table(self, no_choice_table):
        for pref in random_responsive_relations(random.Random(14), 400):
            assert check_substitutable(pref) is None
            assert check_lad(pref) is None

    def test_perturbed_lists_match_the_oracles(self):
        # one entry dropped, two entries swapped, or a superset of an entry
        # appended: each takes the table path unless it is still responsive
        rng = random.Random(1410)
        for pref in random_responsive_relations(rng, 300, max_members=6):
            ranked = list(pref.ranked)
            if not ranked:
                continue
            dropped = ranked[:]
            del dropped[rng.randrange(len(ranked))]
            swapped = ranked[:]
            i, j = rng.sample(range(len(ranked)), 2) if len(ranked) > 1 else (0, 0)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            base = rng.choice(ranked)
            extra = rng.choice([k for k in range(16) if not base >> k & 1])
            appended = ranked if base | 1 << extra in ranked else ranked + [base | 1 << extra]
            for perturbed in (dropped, swapped, appended):
                assert_checkers_match_oracles(PreferenceRelation(pref.owner, tuple(perturbed)))


# ---------------------------------------------------------------------------
# properties


@st.composite
def arbitrary_relations(draw, max_opposite=4, max_entries=8):
    opposite = draw(st.integers(1, max_opposite))
    pool = list(range(1, 1 << opposite))
    entries = draw(st.lists(st.sampled_from(pool), unique=True, max_size=max_entries))
    return PreferenceRelation(owner=AgentId(F, 0), ranked=tuple(entries))


def found(w):
    """A check's answer in the oracles' form: None, or (offer, reduced, kept, removed)."""
    return None if w is None else (w.offer_set, w.reduced_set, w.kept, w.removed)


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
    w = check_substitutable(pref)
    if w is None:
        return
    assert w.reduced_set == w.offer_set & ~(1 << w.removed)
    assert choice_mask(w.offer_set, pref) >> w.kept & 1
    assert not choice_mask(w.reduced_set, pref) >> w.kept & 1


@given(arbitrary_relations())
def test_lad_witness_replays(pref):
    w = check_lad(pref)
    if w is None:
        return
    assert w.reduced_set == w.offer_set & ~(1 << w.removed)
    assert choice_mask(w.reduced_set, pref).bit_count() > choice_mask(w.offer_set, pref).bit_count()


@given(arbitrary_relations())
def test_single_removal_lad_equals_all_pairs_oracle(pref):
    assert (check_lad(pref) is None) == all_pairs_lad_holds(pref)


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
    assert check_substitutable(pref) is None
    assert check_lad(pref) is None
    assert first_substitutability_violation(pref) is None
    assert first_lad_violation(pref) is None


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
        assert check_substitutable(pref) is None
        assert check_lad(pref) is None
        assert first_substitutability_violation(pref) is None
        assert first_lad_violation(pref) is None
