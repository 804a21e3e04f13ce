"""Individual rationality, blocking pairs, stability, and the brute-force
stable-set enumerator that serves as the ground-truth oracle for everything
the solver produces.

The enumerator literally scans all 2^(n*m) edge sets.  The scan is vectorized
with numpy (chunked, so memory stays bounded) but its semantics are exactly
the definitional test applied to every edge subset; tests cross-check it
against a plain-Python scan on small markets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

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

DEFAULT_MAX_EDGES = 25
# Hard ceiling on n*m whatever --max-edges asks for: 2^30 masks is already
# 32 times the default cap's scan.
MAX_EDGES_CEILING = 30
_CHUNK = 1 << 20


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


def _choice_table(pref: PreferenceRelation, opposite_count: int) -> np.ndarray:
    """choice_mask for every subset of the opposite side, as a lookup array."""
    size = 1 << opposite_count
    subsets = np.arange(size, dtype=np.int64)
    table = np.zeros(size, dtype=np.int64)
    taken = np.zeros(size, dtype=bool)
    for entry in pref.ranked:
        hit = ~taken & ((subsets & entry.mask) == entry.mask)
        table[hit] = entry.mask
        taken |= hit
    return table


@lru_cache(maxsize=1024)
def _enumerate_cached(p: Profile, max_edges: int) -> tuple[Matching, ...]:
    n, m = p.num_firms, p.num_workers
    bits = n * m
    if bits > min(max_edges, MAX_EDGES_CEILING):
        limit = (f"the cap of {max_edges}" if max_edges <= MAX_EDGES_CEILING
                 else f"the hard ceiling of {MAX_EDGES_CEILING}")
        raise UnsupportedSizeError(
            f"enumeration scans 2^(n*m) edge sets; n*m = {bits} exceeds {limit}"
        )
    firm_tables = [_choice_table(p.firm_prefs[f], m) for f in range(n)]
    worker_tables = [_choice_table(p.worker_prefs[w], n) for w in range(m)]

    stable_masks: list[int] = []
    total = 1 << bits
    for lo in range(0, total, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        ok = np.ones(masks.shape, dtype=bool)

        firm_views = []
        for f in range(n):
            view = (masks >> (f * m)) & ((1 << m) - 1)
            firm_views.append(view)
            ok &= firm_tables[f][view] == view
        worker_views = []
        for w in range(m):
            view = np.zeros(masks.shape, dtype=np.int64)
            for f in range(n):
                view |= ((masks >> (f * m + w)) & 1) << f
            worker_views.append(view)
            ok &= worker_tables[w][view] == view

        for f in range(n):
            for w in range(m):
                no_edge = ((masks >> (f * m + w)) & 1) == 0
                firm_wants = (firm_tables[f][firm_views[f] | (1 << w)] >> w) & 1
                worker_wants = (worker_tables[w][worker_views[w] | (1 << f)] >> f) & 1
                ok &= ~(no_edge & (firm_wants == 1) & (worker_wants == 1))

        stable_masks.extend(int(x) for x in masks[ok])

    row_full = (1 << m) - 1
    return tuple(
        Matching(tuple(mask >> (f * m) & row_full for f in range(n))) for mask in stable_masks
    )


def enumerate_stable(p: Profile, max_edges: int = DEFAULT_MAX_EDGES) -> tuple[Matching, ...]:
    """Exactly the stable matchings of ``p``, in ascending order of the edge
    mask with bit f*m + w per edge.

    Results are memoized per profile; callers share the immutable tuple.
    """
    return _enumerate_cached(p, max_edges)


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
        counts = {len(matched_set(mu, agent)) for mu in ss}
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
        underfilled = any(len(v) < quotas[agent] for v in views)
        if underfilled and len({v.mask for v in views}) > 1:
            return (False, agent)
    return (True, None)


def clear_enumeration_cache() -> None:
    _enumerate_cached.cache_clear()
