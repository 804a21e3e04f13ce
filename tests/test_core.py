"""Core types: choice evaluation, matching views, profile surgery."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import pset, relation
from manymatch import AgentId, Matching, Profile, Side, StableRule, verify_gmt
from manymatch.axioms import check_lad, check_substitutable
from manymatch.core import (
    MAX_SIDE,
    MarketInstance,
    MatchingError,
    PreferenceRelation,
    UnsupportedSizeError,
    bits,
    choice_mask,
    matched_set,
    replace_preference,
)
from manymatch.markets import bundled
from manymatch.stability import enumerate_stable

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


def test_negative_agent_index_rejected():
    with pytest.raises(ValueError, match="^agent index must be non-negative, got -1$"):
        AgentId(F, -1)


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

    def test_list_is_taken_as_a_tuple(self):
        listed = PreferenceRelation(AgentId(F, 0), [pset(0, 1), pset(0), pset(1)])
        built = PreferenceRelation(AgentId(F, 0), (pset(0, 1), pset(0), pset(1)))
        assert listed == built and hash(listed) == hash(built)
        assert check_substitutable(listed) is None and check_lad(listed) is None


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
    def test_lists_are_taken_as_tuples(self):
        built = two_by_two_profile()
        listed = Profile(list(built.firm_prefs), list(built.worker_prefs))
        assert listed == built and hash(listed) == hash(built)
        assert enumerate_stable(listed) == enumerate_stable(two_by_two_profile())

    def test_owner_slot_mismatch_rejected(self):
        good = relation(AgentId(F, 0), (0,))
        with pytest.raises(ValueError):
            Profile((good, good), (relation(AgentId(W, 0), (0,)),))

    @pytest.mark.parametrize("owner, message", [
        (AgentId(F, 1), "preference at firm slot 0 owned by firm 1"),
        (AgentId(W, 0), "preference at firm slot 0 owned by worker 0"),
    ])
    def test_owner_slot_mismatch_names_slot_and_owner(self, owner, message):
        with pytest.raises(ValueError) as exc_info:
            Profile((relation(owner, (0,)),), (relation(AgentId(W, 0), (0,)),))
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("side", list(Side))
    def test_more_than_max_side_agents_on_a_side_rejected(self, side):
        many = tuple(relation(AgentId(side, i)) for i in range(MAX_SIDE + 1))
        one = (relation(AgentId(side.opposite, 0)),)
        with pytest.raises(UnsupportedSizeError, match="^at most 32 agents per side$"):
            Profile(*((many, one) if side is F else (one, many)))

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            Profile(
                (relation(AgentId(F, 0), (5,)),),
                (relation(AgentId(W, 0), (0,)),),
            )

    @pytest.mark.parametrize("ranked", [((0,), (0, 2)), ((2,), (0, 1)), ((0, 1), (2,))])
    def test_out_of_range_member_rejected_in_any_entry(self, ranked):
        with pytest.raises(ValueError) as exc_info:
            Profile((relation(AgentId(F, 0), *ranked),),
                    (relation(AgentId(W, 0), (0,)), relation(AgentId(W, 1), (0,))))
        assert str(exc_info.value) == "preference of firm 0 references unknown partners"

    def test_replace_preference_is_functional(self):
        p = two_by_two_profile()
        target = AgentId(F, 0)
        new = relation(target, (1,))
        q = replace_preference(p, new)
        assert q[target] == new
        assert p[target] != new
        for agent in p.agents():
            if agent != target:
                assert q[agent] == p[agent]

    def test_replace_with_same_relation_is_identity(self):
        p = two_by_two_profile()
        a = AgentId(W, 1)
        assert replace_preference(p, p[a]) == p

    @pytest.mark.parametrize("agent", [AgentId(F, 2), AgentId(W, 5)])
    def test_replace_for_an_agent_outside_the_profile_rejected(self, agent):
        with pytest.raises(ValueError) as exc_info:
            replace_preference(two_by_two_profile(), relation(agent, (0,)))
        assert str(exc_info.value) == f"no {agent} in the profile"

    def test_replaced_profile_equals_one_built_from_scratch(self):
        # the swap skips the checks of the unchanged relations; equality,
        # hash and pickling must not tell the two routes apart, and the
        # memo and hash that the source carries stay with the source
        p = bundled("manipulation-demo").profile
        verify_gmt(AgentId(W, 0), StableRule.FIRM_OPTIMAL, p)
        hash(p)
        assert "_memo" in vars(p)
        a = AgentId(W, 0)
        new = relation(a, (2,), (0,))
        q = replace_preference(p, new)
        assert "_memo" not in vars(q) and "_hash" not in vars(q)
        built = Profile(p.firm_prefs, (new,) + p.worker_prefs[1:])
        assert q == built and hash(q) == hash(built)
        assert pickle.loads(pickle.dumps(q)) == built
        assert q != p and hash(q) != hash(p)

    def test_search_reports_equal_ones_built_from_scratch(self, monkeypatch):
        # the misreport searches build their reports without the
        # constructor's checks; equality, hash and pickling must not tell
        # them from checked ones
        import manymatch.manipulation as manipulation

        p, a = bundled("manipulation-demo").profile, AgentId(W, 0)
        reports = []

        def recording(profile, pref):
            reports.append(pref)
            return replace_preference(profile, pref)

        monkeypatch.setattr(manipulation, "replace_preference", recording)
        manipulation.gmt_counterexample_check(p, StableRule.SELECT_FIRST, a)
        assert len(reports) == 1 << len(p[a].ranked)
        _, relations = manipulation._all_relations(a, 3)
        reports += random.Random(0).sample(list(relations), 500)
        for report in reports:
            built = PreferenceRelation(report.owner, report.ranked)
            assert report == built and hash(report) == hash(built)
            assert pickle.loads(pickle.dumps(report)) == built

    @given(st.sampled_from([AgentId(F, 0), AgentId(F, 1), AgentId(W, 0), AgentId(W, 2)]),
           st.lists(st.integers(1, 31), max_size=4, unique=True))
    def test_replace_rejects_what_the_constructor_rejects(self, agent, ranked):
        # a 2x3 profile, so a firm's list and a worker's list have different ranges
        firms = tuple(relation(AgentId(F, i), (0, 1), (2,)) for i in range(2))
        workers = tuple(relation(AgentId(W, j), (0,), (1,)) for j in range(3))
        p, pref = Profile(firms, workers), PreferenceRelation(agent, tuple(ranked))
        sides = [list(firms), list(workers)]
        sides[agent.side is W][agent.index] = pref

        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)

        expected = outcome(lambda: Profile(tuple(sides[0]), tuple(sides[1])))
        assert outcome(lambda: replace_preference(p, pref)) == expected
        if isinstance(expected, str):
            assert expected == f"preference of {agent} references unknown partners"


# Each builds a new value equal to the last one it built.
HASHED_TYPES = {
    "AgentId": lambda: AgentId(W, 3),
    "PreferenceRelation": lambda: relation(AgentId(F, 0), (0, 1), (0,), (1,)),
    "Profile": two_by_two_profile,
}


class TestCachedHash:
    @pytest.mark.parametrize("make", HASHED_TYPES.values(), ids=HASHED_TYPES.keys())
    def test_equal_values_hash_equal_before_and_after_copy_and_pickle(self, make):
        hashed, other = make(), make()
        assert hashed is not other and hashed == other
        expected = hash(other)
        assert hash(hashed) == expected
        # a copy of a hashed relation or profile carries the kept hash; one
        # of an unhashed value computes its own
        for source in (hashed, make()):
            for clone in (copy.copy(source), pickle.loads(pickle.dumps(source))):
                assert clone == other
                assert hash(clone) == expected

    def test_relation_hash_does_not_depend_on_the_hash_seed(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = ("from manymatch.core import AgentId, PreferenceRelation, Side\n"
                "print(hash(PreferenceRelation(AgentId(Side.WORKER, 2), (3, 1, 2))))")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        here = hash(PreferenceRelation(AgentId(W, 2), (3, 1, 2)))
        assert outputs == [f"{here}\n", f"{here}\n"]

    def test_equal_relation_is_a_substitutability_cache_hit(self):
        # sweep markets share entries of the axiom cache through equal relations
        first = relation(AgentId(W, 5), (0, 4), (4,), (0,), (2, 3))
        report = check_substitutable(first)
        hits = check_substitutable.cache_info().hits
        second = relation(AgentId(W, 5), (0, 4), (4,), (0,), (2, 3))
        assert second is not first
        assert check_substitutable(second) is report
        assert check_substitutable.cache_info().hits == hits + 1


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
        with pytest.raises(MatchingError, match="^unknown agent name 'nobody'$"):
            demo_market.agent_id("nobody")

    # a market with two faults raises the first in this order: duplicate
    # firm names, duplicate worker names, firm count, worker count
    @pytest.mark.parametrize("firms, workers, message", [
        (("a", "a"), ("x", "y"), "duplicate firm names"),
        (("a", "b"), ("x", "x"), "duplicate worker names"),
        (("a", "a"), ("x", "x"), "duplicate firm names"),
        (("a",), ("x", "x"), "duplicate worker names"),
        (("a", "a", "b"), ("x",), "duplicate firm names"),
    ], ids=["firm", "worker", "firm-before-worker", "worker-before-firm-count",
            "firm-before-worker-count"])
    def test_duplicate_names_rejected(self, firms, workers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarketInstance(firms, workers, two_by_two_profile())

    @pytest.mark.parametrize("firms, workers, message", [
        (("a",), ("x", "y"), "firm name count does not match profile"),
        (("a", "b"), ("x", "y", "z"), "worker name count does not match profile"),
        (("a",), ("x",), "firm name count does not match profile"),
    ], ids=["firm", "worker", "firm-before-worker"])
    def test_dimension_mismatch_rejected(self, firms, workers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarketInstance(firms, workers, two_by_two_profile())


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
