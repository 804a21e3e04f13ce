"""Core types: choice evaluation, matching views, profile surgery."""

import pytest
from hypothesis import given, strategies as st

from conftest import pset, relation
from manymatch import AgentId, Matching, Profile, Side
from manymatch.core import (
    MAX_SIDE,
    MarketInstance,
    PreferenceRelation,
    bits,
    choice_mask,
    matched_set,
    replace_preference,
)

F = Side.FIRM
W = Side.WORKER


def odd_lad_relation() -> PreferenceRelation:
    # w2 | w1 w3 | w1 | w3 over three workers: substitutable, demand not monotone
    return relation(AgentId(F, 0), (1,), (0, 2), (0,), (2,))


class TestChoice:
    def test_first_contained_entry_wins(self):
        pref = odd_lad_relation()
        assert choice_mask(pset(0, 1, 2), pref) == pset(1)

    def test_later_entry_when_first_not_contained(self):
        pref = odd_lad_relation()
        assert choice_mask(pset(0, 2), pref) == pset(0, 2)

    def test_empty_offer_gives_empty_choice(self):
        pref = odd_lad_relation()
        assert choice_mask(0, pref) == 0

    def test_nothing_acceptable_gives_empty(self):
        pref = relation(AgentId(F, 0), (0, 1))
        assert choice_mask(pset(2), pref) == 0


class TestPreferenceRelation:
    @pytest.mark.parametrize("mask", [-1, 1 << MAX_SIDE, 0])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(ValueError):
            PreferenceRelation(owner=AgentId(F, 0), ranked=(pset(0), mask))

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            relation(AgentId(F, 0), (0, 1), (0, 1))

    def test_explicit_empty_set_rejected(self):
        with pytest.raises(ValueError):
            relation(AgentId(F, 0), (0,), ())

    def test_rank_of_empty_is_below_last_entry(self):
        pref = odd_lad_relation()
        assert pref.rank_of(0) == 4
        assert pref.rank_of(pset(1)) == 0
        assert pref.rank_of(pset(0, 1)) is None


def two_by_two_profile() -> Profile:
    firm_prefs = (
        relation(AgentId(F, 0), (0, 1), (0,), (1,)),
        relation(AgentId(F, 1), (0,), (1,)),
    )
    worker_prefs = (
        relation(AgentId(W, 0), (0,), (1,)),
        relation(AgentId(W, 1), (1,), (0,)),
    )
    return Profile(firm_prefs, worker_prefs)


class TestProfile:
    def test_owner_slot_mismatch_rejected(self):
        good = relation(AgentId(F, 0), (0,))
        with pytest.raises(ValueError):
            Profile((good, good), (relation(AgentId(W, 0), (0,)),))

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            Profile(
                (relation(AgentId(F, 0), (5,)),),
                (relation(AgentId(W, 0), (0,)),),
            )

    def test_replace_preference_is_functional(self):
        p = two_by_two_profile()
        target = AgentId(F, 0)
        new = relation(target, (1,))
        q = replace_preference(p, target, new)
        assert q[target] == new
        assert p[target] != new
        for agent in p.agents():
            if agent != target:
                assert q[agent] == p[agent]

    def test_replace_with_same_relation_is_identity(self):
        p = two_by_two_profile()
        a = AgentId(W, 1)
        assert replace_preference(p, a, p[a]) == p

    def test_replace_owner_mismatch_rejected(self):
        p = two_by_two_profile()
        with pytest.raises(ValueError):
            replace_preference(p, AgentId(F, 0), relation(AgentId(F, 1), (0,)))


class TestMatching:
    def test_matched_set_views(self):
        mu = Matching.from_pairs([(0, 1), (0, 2), (1, 0)])
        assert matched_set(mu, AgentId(F, 0)) == pset(1, 2)
        assert matched_set(mu, AgentId(W, 0)) == pset(1)
        assert matched_set(mu, AgentId(W, 3)) == 0

    def test_empty_matching_views(self):
        mu = Matching.empty()
        assert matched_set(mu, AgentId(F, 0)) == 0

    def test_edge_mask_encoding(self):
        # firm rows laid end to end give the edge mask, bit f*m + w per edge
        mu = Matching.from_pairs([(1, 0), (0, 2)])
        assert mu.rows == (1 << 2, 1 << 0)
        assert sum(row << (f * 3) for f, row in enumerate(mu.rows)) == (1 << 3) | (1 << 2)

    def test_trailing_empty_rows_dropped(self):
        assert Matching((0b1, 0, 0)).rows == (0b1,)
        assert Matching((0, 0)) == Matching.empty()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Matching.from_pairs([(-1, 0)])

    def test_negative_row_rejected(self):
        # a negative row has no finite edge set; bits() would never end on it
        with pytest.raises(ValueError):
            Matching((-1,))
        with pytest.raises(ValueError):
            Matching((0b1, -2))


class TestMarketInstance:
    def test_name_lookup(self, demo_market):
        assert demo_market.agent_id("f2") == AgentId(F, 1)
        assert demo_market.agent_id("w4") == AgentId(W, 3)
        assert demo_market.name_of(AgentId(W, 0)) == "w1"
        with pytest.raises(KeyError):
            demo_market.agent_id("nobody")

    def test_duplicate_names_rejected(self):
        p = two_by_two_profile()
        with pytest.raises(ValueError):
            MarketInstance(("a", "a"), ("x", "y"), p)

    def test_dimension_mismatch_rejected(self):
        p = two_by_two_profile()
        with pytest.raises(ValueError):
            MarketInstance(("a",), ("x", "y"), p)


# bundled market spot checks against the recorded tables
def test_demo_matched_sets(demo_market):
    p = demo_market.profile
    mu_f = Matching.from_pairs([(0, 1), (0, 2), (1, 0), (2, 3)])
    assert matched_set(mu_f, demo_market.agent_id("f1")) == pset(1, 2)
    mu_w = Matching.from_pairs([(0, 0), (0, 2), (1, 1), (2, 3)])
    assert matched_set(mu_w, demo_market.agent_id("w2")) == pset(1)
    assert p[demo_market.agent_id("w1")].ranked == (pset(0), pset(2), pset(1))


# ---------------------------------------------------------------------------
# properties

subset_masks = st.integers(min_value=0, max_value=(1 << 4) - 1)


@st.composite
def small_relations(draw):
    entries = draw(st.lists(st.integers(1, (1 << 4) - 1), unique=True, max_size=8))
    return PreferenceRelation(owner=AgentId(F, 0), ranked=tuple(entries))


@given(small_relations(), subset_masks)
def test_choice_is_idempotent(pref, offer):
    first = choice_mask(offer, pref)
    assert choice_mask(first, pref) == first
    assert first & ~offer == 0
    assert not first or pref.rank_of(first) is not None


@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_matching_view_round_trip(pairs):
    mu = Matching.from_pairs(pairs)
    firm_views = [(f, w) for f in range(4) for w in bits(matched_set(mu, AgentId(F, f)))]
    worker_views = [(f, w) for w in range(4) for f in bits(matched_set(mu, AgentId(W, w)))]
    assert Matching.from_pairs(firm_views) == mu
    assert Matching.from_pairs(worker_views) == mu
    # view symmetry: w in mu(f) iff f in mu(w)
    for f, w in pairs:
        assert matched_set(mu, AgentId(F, f)) >> w & 1
        assert matched_set(mu, AgentId(W, w)) >> f & 1


edge_sets = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 5)))


@given(edge_sets)
def test_matched_set_equals_edge_scan(pairs):
    mu = Matching.from_pairs(pairs)
    for f in range(6):
        want = sum(1 << w for g, w in pairs if g == f)
        assert matched_set(mu, AgentId(F, f)) == want
    for w in range(7):
        want = sum(1 << f for f, v in pairs if v == w)
        assert matched_set(mu, AgentId(W, w)) == want


@given(edge_sets, st.integers(0, 3))
def test_from_pairs_keeps_the_edge_set(pairs, unmatched_firms):
    mu = Matching.from_pairs(pairs)
    assert mu.edges == frozenset(pairs)
    # padding with unmatched firms names the same edge set, so the same matching
    padded = Matching(mu.rows + (0,) * unmatched_firms)
    assert padded == mu and hash(padded) == hash(mu)
    # while an edge at a later firm is a different matching
    assert Matching.from_pairs(pairs | {(5, 0)}) != mu
