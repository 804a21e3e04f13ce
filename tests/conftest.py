"""Shared fixtures and brute-force oracles for the test suite.

The oracles here stay deliberately independent of the package's fast paths:
stability is re-derived from the definitions via a plain-Python scan, the law
of aggregate demand via an all-subset-pairs check, both axioms' first
witnesses via nested scans of every offer and removal, and responsiveness via
the pairwise swap/add conditions.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from manymatch import (
    AgentId,
    Matching,
    PartnerSet,
    PreferenceRelation,
    Profile,
    QuotaRanking,
    Side,
    check_substitutable,
    is_stable,
    responsive_preference,
)
from manymatch.core import choice_mask
from manymatch.markets import firms_immune, manipulation_demo, workers_immune

# ---------------------------------------------------------------------------
# oracles


def matching_from_mask(mask: int, num_workers: int) -> Matching:
    pairs = []
    bit = 0
    while mask >> bit:
        if mask >> bit & 1:
            pairs.append((bit // num_workers, bit % num_workers))
        bit += 1
    return Matching.from_pairs(pairs)


def brute_stable_matchings(p: Profile) -> list[Matching]:
    """Reference enumeration: test every edge subset with the definitional
    stability predicate, in canonical (ascending mask) order."""
    n, m = p.num_firms, p.num_workers
    out = []
    for mask in range(1 << (n * m)):
        mu = matching_from_mask(mask, m)
        if is_stable(mu, p):
            out.append(mu)
    return out


def subsets_of(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def all_pairs_lad_holds(pref: PreferenceRelation) -> bool:
    """LAD by its raw definition: |Ch(Y)| <= |Ch(X)| for every Y inside X."""
    universe = 0
    for entry in pref.ranked:
        universe |= entry.mask
    for x in subsets_of(universe):
        cx = choice_mask(x, pref).bit_count()
        for y in subsets_of(x):
            if choice_mask(y, pref).bit_count() > cx:
                return False
    return True


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def first_substitutability_violation(pref: PreferenceRelation):
    """Substitutability by definition: every offer in descending numeric
    order, every kept member of its choice and every other removed member,
    both ascending.  Returns the first (offer, reduced, kept, removed) whose
    reduced offer no longer chooses ``kept``, or None when the axiom holds."""
    universe = 0
    for entry in pref.ranked:
        universe |= entry.mask
    for offer in subsets_of(universe):
        chosen = choice_mask(offer, pref)
        for kept in _members(chosen):
            for removed in _members(offer):
                if removed == kept:
                    continue
                reduced = offer & ~(1 << removed)
                if not choice_mask(reduced, pref) >> kept & 1:
                    return offer, reduced, kept, removed
    return None


def first_lad_violation(pref: PreferenceRelation):
    """The law of aggregate demand over single removals: every offer in
    descending numeric order and every removed member ascending.  Returns the
    first (offer, reduced, None, removed) whose reduced offer chooses more
    partners, or None when the axiom holds."""
    universe = 0
    for entry in pref.ranked:
        universe |= entry.mask
    for offer in subsets_of(universe):
        count = choice_mask(offer, pref).bit_count()
        for removed in _members(offer):
            reduced = offer & ~(1 << removed)
            if choice_mask(reduced, pref).bit_count() > count:
                return offer, reduced, None, removed
    return None


def responsive_oracle(pref: PreferenceRelation, q: QuotaRanking) -> bool:
    """Responsiveness by brute force: acceptable sets are exactly the right
    ones, swapping in a better individual improves a set, and filling a free
    slot with any acceptable individual improves a set."""
    members = set(q.individual_ranking)
    rank = {idx: r for r, idx in enumerate(q.individual_ranking)}
    side = pref.owner.side.opposite

    acceptable = {entry.mask for entry in pref.ranked}
    expected = set()
    for size in range(1, min(q.quota, len(members)) + 1):
        for combo in combinations(sorted(members), size):
            expected.add(PartnerSet.of(side, *combo).mask)
    if acceptable != expected:
        return False

    def position(mask: int) -> int:
        return pref.rank_of(PartnerSet(side, mask))

    for mask in acceptable:
        base = [i for i in range(32) if mask >> i & 1]
        for w in base:
            for w2 in members - set(base):
                swapped = mask & ~(1 << w) | 1 << w2
                better_swap = rank[w2] < rank[w]
                if (position(swapped) < position(mask)) != better_swap:
                    return False
        if len(base) < q.quota:
            for w2 in members - set(base):
                if not position(mask | 1 << w2) < position(mask):
                    return False
    return True


# ---------------------------------------------------------------------------
# random market generation


def random_quota_ranking(owner: AgentId, opposite: int, rng: random.Random,
                         max_quota: int = 2) -> QuotaRanking:
    # mostly full rankings: thin lists collapse the stable set to a singleton
    # and leave nothing for the manipulation machinery to exercise
    r = rng.random()
    if r < 0.85:
        k = opposite
    elif r < 0.95:
        k = max(opposite - 1, 1)
    elif r < 0.99:
        k = rng.randint(1, opposite)
    else:
        k = 0
    ranking = tuple(rng.sample(range(opposite), k))
    return QuotaRanking(owner=owner, individual_ranking=ranking, quota=rng.randint(1, max_quota))


def random_responsive_market(rng: random.Random, max_side: int = 4):
    """A market whose every relation comes from the responsive generator.

    Returns (profile, quotas, rankings) with quotas keyed by AgentId.
    """
    n = min(rng.choice((3, 3, 4, 4)), max_side)
    m = min(rng.choice((3, 3, 4, 4)), max_side)
    quotas: dict[AgentId, int] = {}
    rankings: dict[AgentId, QuotaRanking] = {}
    prefs: dict[Side, list[PreferenceRelation]] = {Side.FIRM: [], Side.WORKER: []}
    for side, count, opposite in ((Side.FIRM, n, m), (Side.WORKER, m, n)):
        for i in range(count):
            owner = AgentId(side, i)
            q = random_quota_ranking(owner, opposite, rng)
            quotas[owner] = q.quota
            rankings[owner] = q
            prefs[side].append(responsive_preference(q))
    profile = Profile(tuple(prefs[Side.FIRM]), tuple(prefs[Side.WORKER]))
    return profile, quotas, rankings


def random_relation(owner: AgentId, opposite: int, rng: random.Random,
                    max_entries: int = 6) -> PreferenceRelation:
    """An arbitrary strict list over the opposite side (no axiom guaranteed)."""
    pool = []
    for size in range(1, opposite + 1):
        for members in combinations(range(opposite), size):
            pool.append(PartnerSet.of(owner.side.opposite, *members))
    k = rng.randint(0, min(len(pool), max_entries))
    return PreferenceRelation(owner=owner, ranked=tuple(rng.sample(pool, k)))


def random_substitutable_relation(owner: AgentId, opposite: int,
                                  rng: random.Random) -> PreferenceRelation:
    """Rejection-sample an arbitrary relation until it passes the checker."""
    for _ in range(300):
        pref = random_relation(owner, opposite, rng)
        if check_substitutable(pref).holds:
            return pref
    singles = [PartnerSet.of(owner.side.opposite, i) for i in range(opposite)]
    rng.shuffle(singles)
    return PreferenceRelation(owner=owner, ranked=tuple(singles))


def random_substitutable_profile(rng: random.Random, max_side: int = 3) -> Profile:
    n = rng.randint(2, max_side)
    m = rng.randint(2, max_side)
    firm_prefs = tuple(
        random_substitutable_relation(AgentId(Side.FIRM, i), m, rng) for i in range(n)
    )
    worker_prefs = tuple(
        random_substitutable_relation(AgentId(Side.WORKER, j), n, rng) for j in range(m)
    )
    return Profile(firm_prefs, worker_prefs)


def random_profile(rng: random.Random, max_side: int = 3) -> Profile:
    n = rng.randint(1, max_side)
    m = rng.randint(1, max_side)
    firm_prefs = tuple(random_relation(AgentId(Side.FIRM, i), m, rng) for i in range(n))
    worker_prefs = tuple(random_relation(AgentId(Side.WORKER, j), n, rng) for j in range(m))
    return Profile(firm_prefs, worker_prefs)


_NAME_SCHEMES = (
    ("f{}", "w{}"),
    ("firm{}", "wk{}"),
    ("F_{}", "W_{}"),
    ("co{}", "p{}"),
)


def random_market_instance(rng: random.Random, max_side: int = 5):
    from manymatch import MarketInstance

    n = rng.randint(1, max_side)
    m = rng.randint(1, max_side)
    firm_fmt, worker_fmt = rng.choice(_NAME_SCHEMES)
    firm_prefs = tuple(
        random_relation(AgentId(Side.FIRM, i), m, rng, max_entries=8) for i in range(n)
    )
    worker_prefs = tuple(
        random_relation(AgentId(Side.WORKER, j), n, rng, max_entries=8) for j in range(m)
    )
    return MarketInstance(
        firm_names=tuple(firm_fmt.format(i + 1) for i in range(n)),
        worker_names=tuple(worker_fmt.format(j + 1) for j in range(m)),
        profile=Profile(firm_prefs, worker_prefs),
    )


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def demo_market():
    return manipulation_demo()


@pytest.fixture(scope="session")
def firms_immune_market():
    return firms_immune()


@pytest.fixture(scope="session")
def workers_immune_market():
    return workers_immune()


@pytest.fixture(scope="session")
def responsive_corpus():
    """Responsive markets used by the module-level property tests."""
    out = []
    for seed in range(120):
        rng = random.Random(seed)
        out.append(random_responsive_market(rng))
    return out


def _rel(owner: AgentId, side: Side, *index_sets) -> PreferenceRelation:
    return PreferenceRelation(
        owner=owner, ranked=tuple(PartnerSet.of(side, *s) for s in index_sets)
    )


@pytest.fixture(scope="session")
def empty_stable_set_profile() -> Profile:
    """A frozen 3x2 profile with no stable matching (firm 1 is not
    substitutable); found by random search and pinned here."""
    f = Side.FIRM
    w = Side.WORKER
    firm_prefs = (
        _rel(AgentId(f, 0), w, (0,), (1,), (0, 1)),
        _rel(AgentId(f, 1), w, (0, 1), (1,)),
        _rel(AgentId(f, 2), w, (0,), (1,), (0, 1)),
    )
    worker_prefs = (
        _rel(AgentId(w, 0), f, (1,), (0, 1, 2), (0, 1), (0,), (2,)),
        _rel(AgentId(w, 1), f, (0,), (1,), (0, 2), (1, 2), (0, 1)),
    )
    return Profile(firm_prefs, worker_prefs)


def pset(side: Side, *indices: int) -> PartnerSet:
    return PartnerSet.of(side, *indices)


def relation(owner: AgentId, *index_sets) -> PreferenceRelation:
    side = owner.side.opposite
    return PreferenceRelation(
        owner=owner, ranked=tuple(PartnerSet.of(side, *s) for s in index_sets)
    )
