"""Plain-Python reference model used to generate inputs and check outputs.

Nothing here imports manymatch: every check the benchmark makes on the
package's results is re-derived from the definitions, so a defect in the
package cannot hide behind itself.

A preference list is a tuple of partner-set bitmasks, best first; the empty
set is implicitly last and every unlisted set is unacceptable.  A matching is
a set of (firm index, worker index) edges.
"""

from __future__ import annotations

from itertools import combinations


def choose(offer: int, ranked: tuple[int, ...]) -> int:
    """The first listed set contained in ``offer``, or the empty set."""
    for entry in ranked:
        if entry & ~offer == 0:
            return entry
    return 0


def rank_of(partners: int, ranked: tuple[int, ...]) -> int | None:
    """Position of a partner set in the list: len(ranked) for the empty set,
    None for an unlisted (unacceptable) set."""
    if partners == 0:
        return len(ranked)
    try:
        return ranked.index(partners)
    except ValueError:
        return None


def views(n: int, m: int, edges) -> tuple[list[int], list[int]]:
    """Per-firm and per-worker partner bitmasks of an edge set."""
    rows, cols = [0] * n, [0] * m
    for f, w in edges:
        rows[f] |= 1 << w
        cols[w] |= 1 << f
    return rows, cols


def is_stable(firm_lists, worker_lists, edges) -> bool:
    """Individually rational and without a blocking pair, by definition."""
    n, m = len(firm_lists), len(worker_lists)
    rows, cols = views(n, m, edges)
    for f in range(n):
        if choose(rows[f], firm_lists[f]) != rows[f]:
            return False
    for w in range(m):
        if choose(cols[w], worker_lists[w]) != cols[w]:
            return False
    for f in range(n):
        for w in range(m):
            if rows[f] >> w & 1:
                continue
            if (choose(rows[f] | 1 << w, firm_lists[f]) >> w & 1
                    and choose(cols[w] | 1 << f, worker_lists[w]) >> f & 1):
                return False
    return True


def responsive_list(ranking: tuple[int, ...], quota: int) -> tuple[int, ...]:
    """Every nonempty set of at most ``quota`` ranked partners, ordered by its
    sorted rank vector padded with a rank worse than all others."""
    rank = {member: r for r, member in enumerate(ranking)}
    cap = min(quota, len(ranking))
    pad = len(ranking)
    sets = [c for size in range(1, cap + 1) for c in combinations(ranking, size)]
    sets.sort(key=lambda c: sorted(rank[i] for i in c) + [pad] * (cap - len(c)))
    return tuple(sum(1 << i for i in c) for c in sets)


def deferred_acceptance(prop_rank, prop_quota, resp_rank, resp_quota) -> set[tuple[int, int]]:
    """Proposer-optimal stable matching of a responsive market, as
    (proposer, responder) pairs.  Proposers offer to their best ``quota``
    partners that have not rejected them; responders hold their best
    ``quota`` acceptable offers."""
    resp_pos = [{i: r for r, i in enumerate(ranking)} for ranking in resp_rank]
    rejected = [set() for _ in prop_rank]
    while True:
        offers = [
            [j for j in prop_rank[i] if j not in rejected[i]][:prop_quota[i]]
            for i in range(len(prop_rank))
        ]
        offered_by = [[] for _ in resp_rank]
        for i, targets in enumerate(offers):
            for j in targets:
                offered_by[j].append(i)
        held = set()
        new_rejection = False
        for j, offerers in enumerate(offered_by):
            acceptable = sorted((i for i in offerers if i in resp_pos[j]), key=resp_pos[j].get)
            keep = acceptable[:resp_quota[j]]
            held.update((i, j) for i in keep)
            for i in offerers:
                if i not in keep:
                    rejected[i].add(j)
                    new_rejection = True
        if not new_rejection:
            return held
