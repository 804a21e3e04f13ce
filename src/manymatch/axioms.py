"""Preference axioms: substitutability, the law of aggregate demand, and a
responsive-preference generator for building axiom-satisfying relations.

Checkers are exhaustive over the members an agent actually lists (unlisted
partners can never enter a choice set, so they cannot create or hide a
violation).  Each returns the first violation's witness, whose offer and
reduced sets are masks over the agent's opposite side, or None when the
axiom holds.

A responsive list, the order ``responsive_preference`` builds from a ranking
and a quota, satisfies both axioms, so each check first asks whether the
list is one: whether it is the responsive order of its own singletons, in
list order, with its first (largest) entry's size as the quota.  A count of
the entries rejects most other lists before anything is allocated, and the
order is then generated and compared in one pass, so recognition costs
O(entries) and needs no table.

Every other list gets one choice table.  The k listed members are
renumbered 0..k-1 in index order, which keeps the numeric order of sets, and
a subset-minimum pass over all 2^k sets finds for every set S the first
listed entry inside S, so every Ch(S) is one list lookup.  The scans then
visit every offer S but remove only members of Ch(S): removing an unchosen
member r never changes the choice, because the first entry inside S is
still inside S - r and no earlier entry can fit inside the smaller set.
Such a removal violates neither axiom, so each offer costs |Ch(S)| lookups.
The table lives for one call; only the answers are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import eq
from typing import Iterator

from .core import AgentId, PreferenceRelation, UnsupportedSizeError, bits

# The choice table has one slot per subset of the listed members, so a check
# takes O(2^k * k) steps and a few lists of 2^k ints.  At the cap, k = 16,
# that is 65,536 sets and about 1.5 MiB at peak.  Only the table is capped,
# before it is allocated; a responsive list is answered at any length.
CHECK_CAP = 16


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation: re-running choice on these sets breaks the axiom.

    For substitutability, ``kept`` is the member chosen from ``offer_set`` but
    dropped after ``removed`` leaves.  For the law of aggregate demand,
    ``kept`` is None and ``reduced_set`` chooses strictly more partners than
    ``offer_set`` despite being a subset of it.
    """

    offer_set: int
    reduced_set: int
    kept: int | None
    removed: int


def _listed_members(pref: PreferenceRelation) -> int:
    """The members ``pref`` lists, as a mask."""
    universe = 0
    for entry in pref.ranked:
        universe |= entry
    return universe


def _is_responsive(ranked: tuple[int, ...], universe: int) -> bool:
    """Is ``ranked`` the responsive order of its own singletons, in list
    order, with its largest entry's size as the quota?

    A responsive list starts with one of its largest entries, so the first
    entry's size is taken as the quota; a larger entry later in the list is
    never generated, and the comparison fails there.
    """
    if not ranked:
        return True
    k = universe.bit_count()
    quota = ranked[0].bit_count()
    # the responsive order lists each set of at most ``quota`` of the k
    # members once, so the counts must agree before any order is generated
    if len(ranked) != sum(comb(k, size) for size in range(1, quota + 1)):
        return False
    singletons = [entry for entry in ranked if not entry & (entry - 1)]
    return len(singletons) == k and all(map(eq, _responsive_order(singletons, quota), ranked))


def _choice_table(pref: PreferenceRelation, universe: int) -> list[int]:
    """``choices[S]`` = Ch(S) for every set S of the listed members
    ``universe``, both S and Ch(S) over the renumbered members; more than
    ``CHECK_CAP`` members are refused before the table is allocated."""
    count = universe.bit_count()
    if count > CHECK_CAP:
        raise UnsupportedSizeError(
            f"axiom checks scan all subsets of the listed members; "
            f"{{agent}} lists {count} > {CHECK_CAP}", pref.owner)
    # best[S]: the rank of the first entry inside S (len(pref.ranked) if none).
    # It starts as the rank of S itself; each pass folds the top index bit,
    # best[S + top] = min(best[S + top], best[S]), then interleaves the two
    # halves, which rotates the index bits left by one; after k passes every
    # bit is folded and back in place.
    best = [len(pref.ranked)] * (1 << count)
    entries = []
    for rank, entry in enumerate(pref.ranked):
        rest = entry
        renumbered = 0
        while rest:
            member = rest & -rest
            rest ^= member
            renumbered |= 1 << (universe & (member - 1)).bit_count()
        best[renumbered] = rank
        entries.append(renumbered)
    half = len(best) >> 1
    for _ in range(count):
        low = best[:half]
        best[1::2] = [a if a < b else b for a, b in zip(best[half:], low)]
        best[::2] = low
    entries.append(0)
    return list(map(entries.__getitem__, best))


def _violation(universe: int, offer: int, removed: int, kept: int | None = None) -> AxiomWitness:
    """The witness for the renumbered ``offer`` less its renumbered member
    ``removed``, with the renumbered member ``kept`` if given."""
    members = list(bits(universe))
    offer_mask = 0
    for index, member in enumerate(members):
        offer_mask |= (offer >> index & 1) << member
    return AxiomWitness(
        offer_mask,
        offer_mask & ~(1 << members[removed]),
        None if kept is None else members[kept],
        members[removed],
    )


@lru_cache(maxsize=4096)
def check_substitutable(pref: PreferenceRelation) -> AxiomWitness | None:
    """The first partner chosen from an offer set but dropped when another
    partner leaves it, or None when every chosen partner stays chosen.
    Exhaustive over all offer sets drawn from the listed members, in
    descending numeric order and, within one offer, over (kept, removed)
    pairs ascending.
    """
    universe = _listed_members(pref)
    if _is_responsive(pref.ranked, universe):
        return None
    choices = _choice_table(pref, universe)
    for offer in range(len(choices) - 1, 0, -1):
        chosen = rest = choices[offer]
        while rest:
            member = rest & -rest
            rest ^= member
            if chosen & ~choices[offer ^ member] == member:
                continue
            # some chosen partner leaves with ``member``: report the least
            # (kept, removed) pair of this offer
            for kept in bits(chosen):
                for removed in bits(chosen & ~(1 << kept)):
                    if not choices[offer & ~(1 << removed)] >> kept & 1:
                        return _violation(universe, offer, removed, kept)
    return None


@lru_cache(maxsize=4096)
def check_lad(pref: PreferenceRelation) -> AxiomWitness | None:
    """The first offer set that chooses fewer partners than a subset of it,
    or None when the number chosen is weakly monotone in the offer set.

    Scans every offer set and every single-member removal; a violation by an
    arbitrary subset pair implies a single-removal violation along the chain
    between the two sets, so this scan is complete (tests confirm against an
    all-pairs oracle).  Offers go in descending numeric order, removals
    ascending.
    """
    universe = _listed_members(pref)
    if _is_responsive(pref.ranked, universe):
        return None
    choices = _choice_table(pref, universe)
    for offer in range(len(choices) - 1, 0, -1):
        chosen = rest = choices[offer]
        count = chosen.bit_count()
        while rest:
            member = rest & -rest
            rest ^= member
            if choices[offer ^ member].bit_count() > count:
                return _violation(universe, offer, member.bit_length() - 1)
    return None


@dataclass(frozen=True)
class QuotaRanking:
    """A ranking of individual partners (best first) plus a quota."""

    owner: AgentId
    individual_ranking: tuple[int, ...]
    quota: int

    def __post_init__(self) -> None:
        if self.quota < 1:
            raise ValueError("quota must be at least 1")
        if len(set(self.individual_ranking)) != len(self.individual_ranking):
            raise ValueError(f"duplicate individuals in ranking of {self.owner}")


def _responsive_order(members: list[int], quota: int) -> Iterator[int]:
    """Every nonempty set of at most ``quota`` of ``members`` (singleton
    masks, best first) in the responsive order: depth first, each set after
    its extensions by later members, which come in member order."""
    path: list[int] = []  # indices of the current set's members, ascending
    mask = 0
    following = 0  # the first member that may extend the current set
    while True:
        while len(path) < quota and following < len(members):
            path.append(following)
            mask |= members[following]
            following += 1
        if not path:
            return
        yield mask
        last = path.pop()
        mask ^= members[last]
        following = last + 1


def responsive_preference(q: QuotaRanking) -> PreferenceRelation:
    """Extend a quota ranking to a strict order over partner sets.

    Acceptable sets are the nonempty subsets of the ranked individuals with at
    most ``quota`` members.  Sets compare by their sorted rank vectors padded
    with a sentinel worse than every rank, so a set beats any of its proper
    subsets and swapping in a better individual always improves a set.  The
    output satisfies substitutability and the law of aggregate demand.
    """
    members = [1 << i for i in q.individual_ranking]
    return PreferenceRelation(owner=q.owner, ranked=tuple(_responsive_order(members, q.quota)))
