"""Stability predicates and the stable-set enumerator."""

import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_stable_matchings,
    check_same_partner_counts,
    check_underfilled_constancy,
    matching_from_mask,
    plain_kept_whole,
    random_profile,
    random_relation,
    random_substitutable_profile,
    relation,
)
import manymatch
from manymatch import (
    AgentId,
    Matching,
    Profile,
    QuotaRanking,
    Side,
    deferred_acceptance,
    enumerate_stable,
    responsive_preference,
    side_optimal,
    stability,
)
from manymatch.core import UnsupportedSizeError, matched_set
from manymatch.stability import (
    BlockingPair,
    _kept_whole,
    blocking_pairs,
    clear_enumeration_cache,
    is_individually_rational,
    is_stable,
)

F = Side.FIRM
W = Side.WORKER

DEMO_MU_F = Matching.from_pairs([(0, 1), (0, 2), (1, 0), (2, 3)])
DEMO_MU_W = Matching.from_pairs([(0, 0), (0, 2), (1, 1), (2, 3)])
DEMO_MANIPULATED = Matching.from_pairs([(0, 2), (0, 3), (1, 1), (2, 0)])

EX1_MU_W = Matching.from_pairs([(0, 2), (0, 3), (1, 0), (1, 1)])
EX1_MU_F = Matching.from_pairs([(0, 0), (0, 1), (1, 2), (2, 3)])

EX2_MU_F = Matching.from_pairs([(0, 0), (0, 1), (1, 2), (1, 3)])
EX2_MU_W = Matching.from_pairs([(0, 2), (0, 3), (1, 0), (1, 1)])


class TestIndividualRationality:
    def test_empty_matching_is_rational(self, demo_market):
        assert is_individually_rational(Matching.empty(), demo_market.profile) is True

    def test_demo_firm_optimal_is_rational(self, demo_market):
        assert is_individually_rational(DEMO_MU_F, demo_market.profile) is True

    def test_overfull_firm_violates(self, demo_market):
        mu = Matching.from_pairs([(1, 0), (1, 1)])
        assert is_individually_rational(mu, demo_market.profile) is False


class TestBlockingPairs:
    def test_demo_manipulated_outcome_blocked_by_f1_w1(self, demo_market):
        pairs = blocking_pairs(DEMO_MANIPULATED, demo_market.profile)
        assert pairs == (BlockingPair(firm=AgentId(F, 0), worker=AgentId(W, 0)),)

    def test_stable_matchings_have_no_blocks(self, demo_market):
        assert blocking_pairs(DEMO_MU_F, demo_market.profile) == ()
        assert blocking_pairs(DEMO_MU_W, demo_market.profile) == ()

    def test_firms_immune_market_blocked_matching(self, firms_immune_market):
        # f1 idle while holding no one it wants: both remaining workers block with it
        mu = Matching.from_pairs([(1, 0), (1, 3), (2, 1), (2, 2)])
        pairs = blocking_pairs(mu, firms_immune_market.profile)
        named = [(b.firm, b.worker) for b in pairs]
        assert named == [
            (AgentId(F, 0), AgentId(W, 2)),
            (AgentId(F, 0), AgentId(W, 3)),
        ]
        assert any(b.firm == AgentId(F, 0) for b in pairs)


class TestIsStable:
    def test_demo_table_rows_are_stable(self, demo_market):
        assert is_stable(DEMO_MU_F, demo_market.profile)
        assert is_stable(DEMO_MU_W, demo_market.profile)

    def test_workers_immune_table_rows_are_stable(self, workers_immune_market):
        assert is_stable(EX2_MU_F, workers_immune_market.profile)
        assert is_stable(EX2_MU_W, workers_immune_market.profile)

    def test_demo_manipulated_outcome_unstable(self, demo_market):
        assert not is_stable(DEMO_MANIPULATED, demo_market.profile)


class TestEnumerate:
    def test_all_empty_preferences_give_only_empty_matching(self):
        p = Profile(
            (relation(AgentId(F, 0)), relation(AgentId(F, 1))),
            (relation(AgentId(W, 0)), relation(AgentId(W, 1))),
        )
        ss = enumerate_stable(p)
        assert list(ss) == [Matching.empty()]

    def test_demo_contains_table_rows(self, demo_market):
        ss = enumerate_stable(demo_market.profile)
        assert DEMO_MU_F in ss and DEMO_MU_W in ss

    def test_workers_immune_pinned_stable_set(self, workers_immune_market):
        # golden: the full stable set is exactly the two recorded matchings
        ss = enumerate_stable(workers_immune_market.profile)
        assert list(ss) == [EX2_MU_W, EX2_MU_F]

    def test_canonical_order_and_uniqueness(self, firms_immune_market):
        p = firms_immune_market.profile
        ss = enumerate_stable(p)
        # edge mask: bit f*m + w per edge, the enumerator's scan encoding
        masks = [sum(1 << (f * p.num_workers + w) for f, w in mu.edges) for mu in ss]
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)

    def test_budget_refusal_is_not_cached(self, monkeypatch, demo_market):
        p = demo_market.profile
        # the charge before the search: (len(list) + 1)^2 * (opposite + 1) per agent
        setup = sum((len(p[a].ranked) + 1) ** 2 * (p.side_count(a.side.opposite) + 1)
                    for a in p.agents())
        assert stability.setup_charge(p) == setup
        clear_enumeration_cache()
        monkeypatch.setattr(stability, "SEARCH_BUDGET", setup - 1)
        with pytest.raises(UnsupportedSizeError, match=f"budget of {setup - 1} steps before"):
            enumerate_stable(p)
        monkeypatch.setattr(stability, "SEARCH_BUDGET", setup)
        with pytest.raises(UnsupportedSizeError, match=f"budget of {setup} steps during"):
            enumerate_stable(p)
        monkeypatch.undo()
        assert set(enumerate_stable(p)) == {DEMO_MU_F, DEMO_MU_W}

    def test_enumerate_stable_is_the_cached_enumerator(self, demo_market):
        # no forwarding layer: every name for the enumerator is one object,
        # and the reset empties that object's cache
        assert stability.enumerate_stable is manymatch.enumerate_stable
        assert stability.enumerate_stable is stability._enumerate_cached
        enumerate_stable(demo_market.profile)
        assert stability._enumerate_cached.cache_info().currsize > 0
        clear_enumeration_cache()
        assert stability._enumerate_cached.cache_info().currsize == 0

    def test_matches_plain_python_scan_on_bundled_markets(
        self, demo_market, firms_immune_market, workers_immune_market
    ):
        for inst in (demo_market, firms_immune_market, workers_immune_market):
            assert list(enumerate_stable(inst.profile)) == brute_stable_matchings(inst.profile)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10_000))
def test_enumerate_matches_plain_scan_on_random_profiles(seed):
    p = random_profile(random.Random(seed), max_side=3)
    assert list(enumerate_stable(p)) == brute_stable_matchings(p)


@pytest.mark.parametrize("seed", range(20))
def test_enumerate_matches_plain_scan_on_long_lists(seed):
    # arbitrary 3x4 lists of up to every nonempty subset, no axiom required
    rng = random.Random(seed)
    p = Profile(
        tuple(random_relation(AgentId(F, i), 4, rng, max_entries=15) for i in range(3)),
        tuple(random_relation(AgentId(W, j), 3, rng, max_entries=7) for j in range(4)),
    )
    assert list(enumerate_stable(p)) == brute_stable_matchings(p)


def test_enumerate_matches_plain_scan_when_every_set_is_kept_whole():
    # every agent lists all subsets, largest first, so every set is kept whole
    def largest_first(owner, opposite):
        sizes = range(opposite, 0, -1)
        return relation(owner, *(c for k in sizes for c in combinations(range(opposite), k)))

    p = Profile(
        tuple(largest_first(AgentId(F, i), 4) for i in range(3)),
        tuple(largest_first(AgentId(W, j), 3) for j in range(4)),
    )
    ss = enumerate_stable(p)
    assert list(ss) == brute_stable_matchings(p)
    assert ss == (Matching((0b1111,) * 3),)


@settings(max_examples=500)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_kept_whole_sets_match_the_definition(opposite, rng):
    # arbitrary lists of up to 12 entries: same sets, same wants, same key order
    pref = random_relation(AgentId(F, 0), opposite, rng, max_entries=12)
    assert list(_kept_whole(pref).items()) == list(plain_kept_whole(pref, opposite).items())


@pytest.mark.parametrize("n", [6, 8, 10])
def test_cyclic_market_has_exactly_n_stable_matchings(n):
    # firm i ranks workers i, i+1, ...; worker j ranks firms j+1, j+2, ... (mod n)
    p = Profile(
        tuple(relation(AgentId(F, i), *[((i + k) % n,) for k in range(n)]) for i in range(n)),
        tuple(relation(AgentId(W, j), *[((j + 1 + k) % n,) for k in range(n)]) for j in range(n)),
    )
    assert len(enumerate_stable(p)) == n


@pytest.mark.parametrize("seed", range(24))
def test_enumerate_on_responsive_markets_beyond_the_plain_scan(seed):
    # 6x6 to 8x8: every member is stable and both DA outputs are the side optima
    rng = random.Random(seed)
    n, m = rng.randint(6, 8), rng.randint(6, 8)

    def responsive(owner, opposite):
        ranking = tuple(rng.sample(range(opposite), opposite))
        return responsive_preference(
            QuotaRanking(owner=owner, individual_ranking=ranking, quota=rng.randint(1, 2)))

    p = Profile(
        tuple(responsive(AgentId(F, i), m) for i in range(n)),
        tuple(responsive(AgentId(W, j), n) for j in range(m)),
    )
    ss = enumerate_stable(p)
    assert all(is_stable(mu, p) for mu in ss)
    for side in (F, W):
        mu = deferred_acceptance(p, side)
        assert mu in ss
        assert mu == side_optimal(ss, p, side)
    assert check_same_partner_counts(ss) == (True, None)


def test_import_does_not_load_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, manymatch; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_enumerate_large_market_spans_multiple_chunks():
    # 3x7 = 21 edge bits, too many for the plain scan; deferred acceptance cross-checks
    rng = random.Random(5)

    def responsive(owner, opposite, quota):
        ranking = tuple(rng.sample(range(opposite), opposite))
        return responsive_preference(
            QuotaRanking(owner=owner, individual_ranking=ranking, quota=quota))

    p = Profile(
        tuple(responsive(AgentId(F, i), 7, 2) for i in range(3)),
        tuple(responsive(AgentId(W, j), 3, 1) for j in range(7)),
    )
    ss = enumerate_stable(p)
    assert len(ss) >= 1
    for side in (F, W):
        mu = deferred_acceptance(p, side)
        assert mu in ss
        assert mu == side_optimal(ss, p, side)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 511))
def test_stability_decomposes_into_rationality_and_no_blocks(seed, raw_mask):
    p = random_profile(random.Random(seed), max_side=3)
    bits = p.num_firms * p.num_workers
    mu = matching_from_mask(raw_mask % (1 << bits), p.num_workers)
    rational = is_individually_rational(mu, p)
    assert is_stable(mu, p) == (rational and not blocking_pairs(mu, p))


def test_substitutable_profiles_have_stable_matchings():
    for seed in range(40):
        p = random_substitutable_profile(random.Random(seed))
        assert len(enumerate_stable(p)) > 0, f"empty stable set at seed {seed}"


def test_responsive_corpus_has_stable_matchings(responsive_corpus):
    for p, _, _ in responsive_corpus:
        assert len(enumerate_stable(p)) > 0


class TestSamePartnerCounts:
    def test_singleton_set_trivially_constant(self, demo_market):
        assert check_same_partner_counts((DEMO_MU_F,)) == (True, None)

    def test_demo_market_counts_constant(self, demo_market):
        ok, witness = check_same_partner_counts(enumerate_stable(demo_market.profile))
        assert ok and witness is None

    def test_firms_immune_market_counts_vary(self, firms_immune_market):
        ss = enumerate_stable(firms_immune_market.profile)
        ok, witness = check_same_partner_counts(ss)
        assert not ok
        counts = {matched_set(mu, witness).bit_count() for mu in ss}
        assert len(counts) > 1
        # f3 is matched once in one member and not at all in the other
        f3_counts = {matched_set(mu, AgentId(F, 2)).bit_count() for mu in ss}
        assert f3_counts == {0, 1}

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_same_partner_counts(())

    def test_responsive_corpus_counts_constant(self, responsive_corpus):
        for p, _, _ in responsive_corpus:
            ok, witness = check_same_partner_counts(enumerate_stable(p))
            assert ok, f"partner count varies at {witness}"


class TestUnderfilledConstancy:
    def test_singleton_set_trivially_constant(self, demo_market):
        quotas = {a: 2 for a in demo_market.profile.agents()}
        assert check_underfilled_constancy((DEMO_MU_F,), quotas) == (True, None)

    def test_firms_immune_market_fails(self, firms_immune_market):
        p = firms_immune_market.profile
        quotas = {AgentId(F, i): 2 for i in range(p.num_firms)}
        quotas |= {AgentId(W, j): 1 for j in range(p.num_workers)}
        ss = enumerate_stable(p)
        ok, witness = check_underfilled_constancy(ss, quotas)
        assert not ok
        views = {matched_set(mu, witness) for mu in ss}
        assert len(views) > 1
        assert any(matched_set(mu, witness).bit_count() < quotas[witness] for mu in ss)

    def test_missing_quota_rejected(self, demo_market):
        ss = enumerate_stable(demo_market.profile)
        with pytest.raises(ValueError):
            check_underfilled_constancy(ss, {AgentId(F, 0): 2})

    def test_responsive_corpus_constancy(self, responsive_corpus):
        for p, quotas, _ in responsive_corpus:
            ok, witness = check_underfilled_constancy(enumerate_stable(p), quotas)
            assert ok, f"underfilled agent {witness} changes partners"
