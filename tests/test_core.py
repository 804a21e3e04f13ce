"""Core types: choice evaluation, matching views, profile surgery."""

import pytest
from hypothesis import given, strategies as st

from conftest import pset, relation
from manymatch import (
    AgentId,
    MarketInstance,
    Matching,
    PartnerSet,
    PreferenceRelation,
    Profile,
    Side,
    choice,
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
        assert choice(pset(W, 0, 1, 2), pref) == pset(W, 1)

    def test_later_entry_when_first_not_contained(self):
        pref = odd_lad_relation()
        assert choice(pset(W, 0, 2), pref) == pset(W, 0, 2)

    def test_empty_offer_gives_empty_choice(self):
        pref = odd_lad_relation()
        assert choice(PartnerSet.empty(W), pref) == PartnerSet.empty(W)

    def test_nothing_acceptable_gives_empty(self):
        pref = relation(AgentId(F, 0), (0, 1))
        assert choice(pset(W, 2), pref) == PartnerSet.empty(W)

    def test_side_mismatch_rejected(self):
        pref = odd_lad_relation()
        with pytest.raises(ValueError):
            choice(pset(F, 0), pref)


class TestPartnerSet:
    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            PartnerSet(W, 1 << 32)
        with pytest.raises(ValueError):
            PartnerSet.of(W, 32)

    def test_set_operations(self):
        s = pset(W, 0, 2)
        assert list(s) == [0, 2]
        assert len(s) == 2
        assert 2 in s and 1 not in s
        assert s.union(pset(W, 1)) == pset(W, 0, 1, 2)
        assert s.without_member(2) == pset(W, 0)
        assert pset(W, 0).issubset(s)
        with pytest.raises(ValueError):
            s.union(pset(F, 1))


class TestPreferenceRelation:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            relation(AgentId(F, 0), (0, 1), (0, 1))

    def test_explicit_empty_set_rejected(self):
        with pytest.raises(ValueError):
            relation(AgentId(F, 0), (0,), ())

    def test_wrong_side_entry_rejected(self):
        with pytest.raises(ValueError):
            PreferenceRelation(owner=AgentId(F, 0), ranked=(pset(F, 0),))

    def test_rank_of_empty_is_below_last_entry(self):
        pref = odd_lad_relation()
        assert pref.rank_of(PartnerSet.empty(W)) == 4
        assert pref.rank_of(pset(W, 1)) == 0
        assert pref.rank_of(pset(W, 0, 1)) is None


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
        assert matched_set(mu, AgentId(F, 0)) == pset(W, 1, 2)
        assert matched_set(mu, AgentId(W, 0)) == pset(F, 1)
        assert matched_set(mu, AgentId(W, 3)) == PartnerSet.empty(F)

    def test_empty_matching_views(self):
        mu = Matching.empty()
        assert matched_set(mu, AgentId(F, 0)) == PartnerSet.empty(W)

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
    assert matched_set(mu_f, demo_market.agent_id("f1")) == pset(W, 1, 2)
    mu_w = Matching.from_pairs([(0, 0), (0, 2), (1, 1), (2, 3)])
    assert matched_set(mu_w, demo_market.agent_id("w2")) == pset(F, 1)
    assert p[demo_market.agent_id("w1")].ranked == (pset(F, 0), pset(F, 2), pset(F, 1))


# ---------------------------------------------------------------------------
# properties

subset_masks = st.integers(min_value=0, max_value=(1 << 4) - 1)


@st.composite
def small_relations(draw):
    pool = [PartnerSet(W, mask) for mask in range(1, 1 << 4)]
    entries = draw(st.lists(st.sampled_from(pool), unique_by=lambda s: s.mask, max_size=8))
    return PreferenceRelation(owner=AgentId(F, 0), ranked=tuple(entries))


@given(small_relations(), subset_masks)
def test_choice_is_idempotent(pref, mask):
    offer = PartnerSet(W, mask)
    first = choice(offer, pref)
    assert choice(first, pref) == first
    assert first.issubset(offer)
    assert not first or pref.is_acceptable(first)


@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_matching_view_round_trip(pairs):
    mu = Matching.from_pairs(pairs)
    firm_views = [(f, w) for f in range(4) for w in matched_set(mu, AgentId(F, f))]
    worker_views = [(f, w) for w in range(4) for f in matched_set(mu, AgentId(W, w))]
    assert Matching.from_pairs(firm_views) == mu
    assert Matching.from_pairs(worker_views) == mu
    # view symmetry: w in mu(f) iff f in mu(w)
    for f, w in pairs:
        assert w in matched_set(mu, AgentId(F, f))
        assert f in matched_set(mu, AgentId(W, w))


edge_sets = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 5)))


@given(edge_sets)
def test_matched_set_equals_edge_scan(pairs):
    mu = Matching.from_pairs(pairs)
    for f in range(6):
        want = sum(1 << w for g, w in pairs if g == f)
        assert matched_set(mu, AgentId(F, f)) == PartnerSet(W, want)
    for w in range(7):
        want = sum(1 << f for f, v in pairs if v == w)
        assert matched_set(mu, AgentId(W, w)) == PartnerSet(F, want)


@given(edge_sets, st.integers(0, 3))
def test_from_pairs_keeps_the_edge_set(pairs, unmatched_firms):
    mu = Matching.from_pairs(pairs)
    assert mu.edges == frozenset(pairs)
    # padding with unmatched firms names the same edge set, so the same matching
    padded = Matching(mu.rows + (0,) * unmatched_firms)
    assert padded == mu and hash(padded) == hash(mu)
    # while an edge at a later firm is a different matching
    assert Matching.from_pairs(pairs | {(5, 0)}) != mu
