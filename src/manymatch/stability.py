"""Individual rationality, blocking pairs, stability, and the exact
stable-set enumerator that serves as the ground-truth oracle for everything
the solver produces.

The enumerator searches over the sets each agent keeps whole (its choice
from the set is the set itself): in a stable matching every firm row and
every worker column is such a set.  Firm rows are placed in firm order, and
a branch is dropped only when no completion of it can be stable; tests
cross-check the result against a plain-Python scan of all 2^(n*m) edge sets.

One fixed budget of ``SEARCH_BUDGET`` steps bounds each enumeration: the
list entries the set-up may scan are charged before any work, row trials
during the search.  A profile over it raises ``UnsupportedSizeError`` and is
not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .core import (
    AgentId,
    Matching,
    PreferenceRelation,
    Profile,
    Side,
    UnsupportedSizeError,
    choice_mask,
    matched_set,
    transpose,
)

# 2^26 steps take about 5 s of pure Python (a 16x16 quota-2 responsive
# market runs out after that long), so a refusal comes within seconds.  Any
# market with n*m <= 25 and lists of at most 255 sets charges under 2^21
# steps before the search, so it is never refused there; whole enumerations
# of such markets, random or listing every subset, measured under 2^22.
SEARCH_BUDGET = 1 << 26


@dataclass(frozen=True)
class BlockingPair:
    firm: AgentId
    worker: AgentId


def _views(mu: Matching, p: Profile) -> tuple[list[int], list[int]]:
    """Firm rows and transposed worker columns of ``mu``, one mask per agent."""
    return [mu.row(f) for f in range(p.num_firms)], transpose(mu.rows, p.num_workers)


def is_individually_rational(mu: Matching, p: Profile) -> tuple[bool, tuple[AgentId, ...]]:
    """True when no agent would drop part of its own assignment."""
    firm_views, worker_views = _views(mu, p)
    violators = tuple(
        a for a, view in zip(p.agents(), firm_views + worker_views)
        if choice_mask(view, p[a]) != view
    )
    return (not violators, violators)


def blocking_pairs(mu: Matching, p: Profile) -> tuple[BlockingPair, ...]:
    """All unmatched firm-worker pairs who each choose the other alongside
    their current partners, ordered by (firm, worker) index."""
    firm_views, worker_views = _views(mu, p)
    found = []
    for f in range(p.num_firms):
        fpref = p.firm_prefs[f]
        for w in range(p.num_workers):
            if firm_views[f] >> w & 1:
                continue
            if not choice_mask(firm_views[f] | 1 << w, fpref) >> w & 1:
                continue
            if choice_mask(worker_views[w] | 1 << f, p.worker_prefs[w]) >> f & 1:
                found.append(BlockingPair(AgentId(Side.FIRM, f), AgentId(Side.WORKER, w)))
    return tuple(found)


def is_stable(mu: Matching, p: Profile) -> bool:
    """Individually rational and free of blocking pairs."""
    ok, _ = is_individually_rational(mu, p)
    return ok and not blocking_pairs(mu, p)


def _kept_whole(pref: PreferenceRelation, opposite_count: int) -> dict[int, int]:
    """The sets ``pref`` keeps whole (the empty set and each listed S with
    Ch(S) = S), each mapped to the k outside S with k in Ch(S + k)."""
    kept = {}
    for s in (0, *pref.ranked):
        if choice_mask(s, pref) == s:
            kept[s] = sum(
                1 << k for k in range(opposite_count)
                if not s >> k & 1 and choice_mask(s | 1 << k, pref) >> k & 1
            )
    return kept


@lru_cache(maxsize=1024)
def _enumerate_cached(p: Profile) -> tuple[Matching, ...]:
    n, m = p.num_firms, p.num_workers
    # _kept_whole scans at most (len(ranked) + 1)^2 * (opposite + 1) entries
    left = SEARCH_BUDGET - sum(
        (len(pref.ranked) + 1) ** 2 * (opposite + 1)
        for prefs, opposite in ((p.firm_prefs, m), (p.worker_prefs, n)) for pref in prefs
    )
    if left < 0:
        raise UnsupportedSizeError(f"stable-set enumeration needs more than its budget "
                                   f"of {SEARCH_BUDGET} steps before the search starts")
    firm_sets = [tuple(_kept_whole(pref, m).items()) for pref in p.firm_prefs]
    # floors[w][f] maps each prefix (firms 0..f) of w's kept-whole columns to
    # the firms that w would add under every column with that prefix
    floors = []
    for pref in p.worker_prefs:
        levels: list[dict[int, int]] = [{} for _ in range(n)]
        for col, wants in _kept_whole(pref, n).items():
            for f, level in enumerate(levels):
                prefix = col & ((2 << f) - 1)
                level[prefix] = level.get(prefix, wants) & wants
        floors.append(levels)

    found: list[tuple[int, ...]] = []

    def place(f: int, rows: tuple[int, ...], cols: list[int], asks: list[int]) -> None:
        # cols[w]: w's column over firms < f; asks[w]: those firms that would add w
        nonlocal left
        if f == n:
            found.append(rows)
            return
        left -= len(firm_sets[f]) * m  # the row trials this node may make
        if left < 0:
            raise UnsupportedSizeError(f"stable-set enumeration ran out of its budget "
                                       f"of {SEARCH_BUDGET} steps during the search")
        for row, wants in firm_sets[f]:
            next_cols, next_asks = [], []
            for w in range(m):
                col = cols[w] | (row >> w & 1) << f
                ask = asks[w] | (wants >> w & 1) << f
                floor = floors[w][f].get(col)
                if floor is None or floor & ask:
                    break  # no completion keeps w's column whole and unblocked
                next_cols.append(col)
                next_asks.append(ask)
            else:
                place(f + 1, rows + (row,), next_cols, next_asks)

    place(0, (), [0] * m, [0] * m)
    found.sort(key=lambda rows: sum(row << f * m for f, row in enumerate(rows)))
    return tuple(Matching(rows) for rows in found)


def enumerate_stable(p: Profile) -> tuple[Matching, ...]:
    """Exactly the stable matchings of ``p``, in ascending order of the edge
    mask with bit f*m + w per edge.

    Results are memoized per profile; callers share the immutable tuple.
    Raises ``UnsupportedSizeError`` when the work exceeds ``SEARCH_BUDGET``.
    """
    return _enumerate_cached(p)


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


def clear_enumeration_cache() -> None:
    _enumerate_cached.cache_clear()
