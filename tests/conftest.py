"""Shared fixtures and brute-force oracles for the test suite.

The oracles here stay deliberately independent of the package's fast paths:
stability is re-derived from the definitions via a plain-Python scan, the law
of aggregate demand via an all-subset-pairs check, both axioms' first
witnesses via nested scans of every offer and removal, responsiveness via
the pairwise swap/add conditions, the responsive order by sorting rank
vectors, the kept-whole sets via ``choice_mask`` on every set and partner,
deferred acceptance via a loop that re-evaluates every agent in every round,
the side optimum via ``compare_common`` over every pair of members, and the
misreport search via a loop that fully evaluates every candidate.  The two
stable-set checks of the paper's examples (same partner counts, constant
underfilled assignments) live here too, as only tests call them.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from itertools import combinations

import pytest

from manymatch import AgentId, Matching, Profile, QuotaRanking, Side, responsive_preference
from manymatch import axioms
from manymatch.axioms import check_substitutable
from manymatch.core import (
    PreconditionError,
    PreferenceRelation,
    bits,
    choice_mask,
    matched_set,
    transpose,
)
from manymatch.manipulation import CounterexampleReport, _all_relations, evaluate_misreport
from manymatch.solver import OrderVerdict, StableRule, apply_rule, compare_common, side_optimal
from manymatch.stability import enumerate_stable, is_stable
from manymatch.markets import bundled

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


def plain_deferred_acceptance(p: Profile, proposing: Side) -> tuple[Matching, list[int]]:
    """Deferred acceptance that re-evaluates every proposer and every
    responder in every round.  Returns the matching and, per proposer, the
    mask of responders that rejected it."""
    for pref in p.firm_prefs + p.worker_prefs:
        if check_substitutable(pref) is not None:
            raise PreconditionError(
                "deferred acceptance requires substitutability; {agent} fails it", pref.owner)

    if proposing is Side.FIRM:
        prop_prefs, resp_prefs = p.firm_prefs, p.worker_prefs
    else:
        prop_prefs, resp_prefs = p.worker_prefs, p.firm_prefs
    n_prop, n_resp = len(prop_prefs), len(resp_prefs)
    resp_full = (1 << n_resp) - 1

    rejected = [0] * n_prop
    while True:
        offers = [choice_mask(resp_full & ~rejected[i], prop_prefs[i]) for i in range(n_prop)]
        offered_by = transpose(offers, n_resp)
        holds = [choice_mask(offered_by[j], resp_prefs[j]) for j in range(n_resp)]
        new_rejection = False
        for j in range(n_resp):
            for i in bits(offered_by[j] & ~holds[j]):
                if not rejected[i] >> j & 1:
                    rejected[i] |= 1 << j
                    new_rejection = True
        if not new_rejection:
            break

    # Every held offer was made, so the holds are the matching's edges.
    mu = Matching(tuple(holds) if proposing is Side.WORKER else tuple(transpose(holds, n_prop)))
    return mu, rejected


def pairwise_side_optimal(ss: tuple[Matching, ...], p: Profile, side: Side) -> Matching | None:
    """The first member that ``compare_common`` rates better than or equal
    to every member at every agent on ``side``, or None."""
    agents = [AgentId(side, i) for i in range(p.side_count(side))]
    good = (OrderVerdict.BETTER_STRICT, OrderVerdict.EQUAL)
    for candidate in ss:
        if all(
            compare_common(candidate, other, a, p) in good for other in ss for a in agents
        ):
            return candidate
    return None


def _sublist_relations(pref: PreferenceRelation):
    """Every order-preserving sublist of the true list, by ascending keep
    mask (the search's candidate order), and their number."""
    count = 1 << len(pref.ranked)
    return count, (PreferenceRelation(pref.owner, tuple(pref.ranked[i] for i in bits(keep)))
                   for keep in range(count))


def plain_counterexample_search(p: Profile, rule: StableRule, a: AgentId,
                                exhaustive: bool = False) -> CounterexampleReport:
    """``gmt_counterexample_check`` as a loop that runs ``evaluate_misreport``
    on every candidate, in the search's candidate order, and keeps the
    profitable outcomes.  The truthful output and the side optimum are
    computed afresh; the caller keeps the candidate count under the cap."""
    if exhaustive:
        mode, scope = "exhaustive", "all strict preference lists over the opposite side"
        total, candidates = _all_relations(a, p.side_count(a.side.opposite))
    else:
        mode, scope = "sublists", ("order-preserving sublists of the true list only; "
                                   "relations outside the true list were not searched")
        total, candidates = _sublist_relations(p[a])
    baseline = apply_rule(rule, p)
    optimum = side_optimal(enumerate_stable(p), p, a.side)
    applicable = optimum is None or matched_set(baseline, a) != matched_set(optimum, a)
    if not applicable:
        total, candidates = 0, ()
        scope = "agent already receives its side-optimal assignment"
    outcomes = [evaluate_misreport(reported, rule, p, baseline)
                for reported in candidates]
    failures = sum(outcome.failure is not None for outcome in outcomes)
    return CounterexampleReport(
        agent=a, rule=rule, mode=mode, not_applicable=not applicable, baseline=baseline,
        candidates_total=total, evaluated=total - failures, rule_failures=failures,
        profitable=tuple(outcome for outcome in outcomes
                         if outcome.verdict_common is OrderVerdict.BETTER_STRICT),
        search_scope=scope,
    )


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
        universe |= entry
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
        universe |= entry
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
        universe |= entry
    for offer in subsets_of(universe):
        count = choice_mask(offer, pref).bit_count()
        for removed in _members(offer):
            reduced = offer & ~(1 << removed)
            if choice_mask(reduced, pref).bit_count() > count:
                return offer, reduced, None, removed
    return None


def sorted_responsive_order(q: QuotaRanking) -> tuple[int, ...]:
    """The responsive order built by sorting: every set of at most ``quota``
    ranked individuals, keyed by its sorted rank vector padded with a
    sentinel worse than every rank."""
    rank = {idx: r for r, idx in enumerate(q.individual_ranking)}
    cap = min(q.quota, len(q.individual_ranking))
    sentinel = len(q.individual_ranking)
    subsets = []
    for size in range(1, cap + 1):
        subsets.extend(combinations(q.individual_ranking, size))

    def key(members):
        ranks = sorted(rank[i] for i in members)
        return tuple(ranks) + (sentinel,) * (cap - len(ranks))

    subsets.sort(key=key)
    return tuple(pset(*members) for members in subsets)


def plain_kept_whole(pref: PreferenceRelation, opposite_count: int) -> dict[int, int]:
    """The sets ``pref`` keeps whole by definition (the empty set, then each
    listed S with Ch(S) = S in list order), each mapped to the k outside S
    with k in Ch(S + k), every choice taken by ``choice_mask``."""
    kept = {}
    for s in (0, *pref.ranked):
        if choice_mask(s, pref) == s:
            kept[s] = sum(
                1 << k for k in range(opposite_count)
                if not s >> k & 1 and choice_mask(s | 1 << k, pref) >> k & 1
            )
    return kept


def responsive_oracle(pref: PreferenceRelation, q: QuotaRanking) -> bool:
    """Responsiveness by brute force: acceptable sets are exactly the right
    ones, swapping in a better individual improves a set, and filling a free
    slot with any acceptable individual improves a set."""
    members = set(q.individual_ranking)
    rank = {idx: r for r, idx in enumerate(q.individual_ranking)}

    acceptable = set(pref.ranked)
    expected = set()
    for size in range(1, min(q.quota, len(members)) + 1):
        for combo in combinations(sorted(members), size):
            expected.add(pset(*combo))
    if acceptable != expected:
        return False

    def position(mask: int) -> int:
        return pref.rank_of(mask)

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
# stable-set checks of the paper's examples


def _agents_in(ss: tuple[Matching, ...]) -> list[AgentId]:
    """Agents matched in some member, firms first; the set must be nonempty."""
    if not ss:
        raise ValueError("stable set is empty")
    firms = sorted({f for mu in ss for (f, _) in mu.edges})
    workers = sorted({w for mu in ss for (_, w) in mu.edges})
    return [AgentId(Side.FIRM, f) for f in firms] + [AgentId(Side.WORKER, w) for w in workers]


def check_same_partner_counts(ss: tuple[Matching, ...]) -> tuple[bool, AgentId | None]:
    """Is every agent matched with the same number of partners in every
    member?  (Agents appearing in no member trivially count zero throughout.)"""
    for agent in _agents_in(ss):
        counts = {matched_set(mu, agent).bit_count() for mu in ss}
        if len(counts) > 1:
            return (False, agent)
    return (True, None)


def check_underfilled_constancy(
    ss: tuple[Matching, ...], quotas: Mapping[AgentId, int]
) -> tuple[bool, AgentId | None]:
    """Does every agent that is under quota somewhere hold the same partner
    set everywhere?  Quotas must cover every agent appearing in the set."""
    for agent in _agents_in(ss):
        if agent not in quotas:
            raise ValueError(f"no quota supplied for {agent}")
    ordered = sorted(quotas, key=lambda a: (a.side is Side.WORKER, a.index))
    for agent in ordered:
        views = [matched_set(mu, agent) for mu in ss]
        underfilled = any(v.bit_count() < quotas[agent] for v in views)
        if underfilled and len(set(views)) > 1:
            return (False, agent)
    return (True, None)


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
            pool.append(pset(*members))
    k = rng.randint(0, min(len(pool), max_entries))
    return PreferenceRelation(owner=owner, ranked=tuple(rng.sample(pool, k)))


def random_substitutable_relation(owner: AgentId, opposite: int,
                                  rng: random.Random) -> PreferenceRelation:
    """Rejection-sample an arbitrary relation until it passes the checker."""
    for _ in range(300):
        pref = random_relation(owner, opposite, rng)
        if check_substitutable(pref) is None:
            return pref
    singles = [pset(i) for i in range(opposite)]
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
    from manymatch.core import MarketInstance

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

# The bundled markets are parsed per test, so no truthful result that an
# earlier test kept on a profile object reaches a later one.


@pytest.fixture
def demo_market():
    return bundled("manipulation-demo")


@pytest.fixture
def firms_immune_market():
    return bundled("firms-immune")


@pytest.fixture
def workers_immune_market():
    return bundled("workers-immune")


@pytest.fixture
def no_choice_table(monkeypatch):
    """Fail the test when an axiom check builds a choice table; the check
    caches are emptied before and after, so every check runs."""
    def fail(pref, universe):
        pytest.fail(f"built a choice table for {pref.owner}: {pref.ranked}")

    monkeypatch.setattr(axioms, "_choice_table", fail)
    axioms.check_substitutable.cache_clear()
    axioms.check_lad.cache_clear()
    yield
    axioms.check_substitutable.cache_clear()
    axioms.check_lad.cache_clear()


@pytest.fixture(scope="session")
def responsive_corpus():
    """Responsive markets used by the module-level property tests."""
    out = []
    for seed in range(120):
        rng = random.Random(seed)
        out.append(random_responsive_market(rng))
    return out


@pytest.fixture(scope="session")
def empty_stable_set_profile() -> Profile:
    """A frozen 3x2 profile with no stable matching (firm 1 is not
    substitutable); found by random search and pinned here."""
    f = Side.FIRM
    w = Side.WORKER
    firm_prefs = (
        relation(AgentId(f, 0), (0,), (1,), (0, 1)),
        relation(AgentId(f, 1), (0, 1), (1,)),
        relation(AgentId(f, 2), (0,), (1,), (0, 1)),
    )
    worker_prefs = (
        relation(AgentId(w, 0), (1,), (0, 1, 2), (0, 1), (0,), (2,)),
        relation(AgentId(w, 1), (0,), (1,), (0, 2), (1, 2), (0, 1)),
    )
    return Profile(firm_prefs, worker_prefs)


def pset(*indices: int) -> int:
    """The partner mask with the given member indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def relation(owner: AgentId, *index_sets) -> PreferenceRelation:
    return PreferenceRelation(owner=owner, ranked=tuple(pset(*s) for s in index_sets))
