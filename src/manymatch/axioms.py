"""Preference axioms: substitutability, the law of aggregate demand, and a
responsive-preference generator for building axiom-satisfying relations.

Checkers are exhaustive over the members an agent actually lists (unlisted
partners can never enter a choice set, so they cannot create or hide a
violation) and report a replayable witness on failure, whose offer and
reduced sets are masks over the agent's opposite side.

Each check first builds one choice table for the relation.  The k listed
members are renumbered 0..k-1 in index order, which keeps the numeric order
of sets, and a subset-minimum pass over all 2^k sets finds for every set S
the first listed entry inside S, so every Ch(S) is one list lookup.  The
scans then visit every offer S but remove only members of Ch(S): removing an
unchosen member r never changes the choice, because the first entry inside
S is still inside S - r and no earlier entry can fit inside the smaller set.
Such a removal violates neither axiom, so each offer costs |Ch(S)| lookups.
The table lives for one call; only the reports are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .core import AgentId, PreferenceRelation, UnsupportedSizeError, bits

# The choice table has one slot per subset of the listed members, so a check
# takes O(2^k * k) steps and a few lists of 2^k ints.  At the cap, k = 16,
# that is 65,536 sets and about 1.5 MiB at peak; the cap is checked before
# anything is allocated.
CHECK_CAP = 16


class Axiom(Enum):
    SUBSTITUTABILITY = "substitutability"
    LAD = "lad"


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation: re-running choice on these sets breaks the axiom.

    For substitutability, ``kept`` is the member chosen from ``offer_set`` but
    dropped after ``removed`` leaves.  For the law of aggregate demand,
    ``kept`` is None and ``reduced_set`` chooses strictly more partners than
    ``offer_set`` despite being a subset of it.
    """

    agent: AgentId
    offer_set: int
    reduced_set: int
    kept: int | None
    removed: int


@dataclass(frozen=True)
class AxiomReport:
    axiom: Axiom
    holds: bool
    witness: AxiomWitness | None = None


def _choice_table(pref: PreferenceRelation) -> tuple[int, list[int]]:
    """The listed members as a mask, and ``choices[S]`` = Ch(S) for every
    set S of them, both S and Ch(S) over the renumbered members."""
    universe = 0
    for entry in pref.ranked:
        universe |= entry
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
    return universe, list(map(entries.__getitem__, best))


def _violation(axiom: Axiom, pref: PreferenceRelation, universe: int, offer: int,
               removed: int, kept: int | None = None) -> AxiomReport:
    """The witness for the renumbered ``offer`` less its renumbered member
    ``removed``, with the renumbered member ``kept`` if given."""
    members = list(bits(universe))
    offer_mask = 0
    for index, member in enumerate(members):
        offer_mask |= (offer >> index & 1) << member
    witness = AxiomWitness(
        pref.owner,
        offer_mask,
        offer_mask & ~(1 << members[removed]),
        None if kept is None else members[kept],
        members[removed],
    )
    return AxiomReport(axiom, False, witness)


@lru_cache(maxsize=4096)
def check_substitutable(pref: PreferenceRelation) -> AxiomReport:
    """Does every chosen partner stay chosen when another partner leaves the
    offer set?  Exhaustive over all offer sets drawn from the listed members.

    The witness is the first violation with offers in descending numeric
    order and, within one offer, (kept, removed) pairs ascending.
    """
    universe, choices = _choice_table(pref)
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
                        return _violation(Axiom.SUBSTITUTABILITY, pref, universe, offer,
                                          removed, kept)
    return AxiomReport(Axiom.SUBSTITUTABILITY, True)


@lru_cache(maxsize=4096)
def check_lad(pref: PreferenceRelation) -> AxiomReport:
    """Is the number of chosen partners weakly monotone in the offer set?

    Scans every offer set and every single-member removal; a violation by an
    arbitrary subset pair implies a single-removal violation along the chain
    between the two sets, so this scan is complete (tests confirm against an
    all-pairs oracle).  The witness is the first violation with offers in
    descending numeric order and removals ascending.
    """
    universe, choices = _choice_table(pref)
    for offer in range(len(choices) - 1, 0, -1):
        chosen = rest = choices[offer]
        count = chosen.bit_count()
        while rest:
            member = rest & -rest
            rest ^= member
            if choices[offer ^ member].bit_count() > count:
                return _violation(Axiom.LAD, pref, universe, offer, member.bit_length() - 1)
    return AxiomReport(Axiom.LAD, True)


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


def responsive_preference(q: QuotaRanking) -> PreferenceRelation:
    """Extend a quota ranking to a strict order over partner sets.

    Acceptable sets are the nonempty subsets of the ranked individuals with at
    most ``quota`` members.  Sets compare by their sorted rank vectors padded
    with a sentinel worse than every rank, so a set beats any of its proper
    subsets and swapping in a better individual always improves a set.  The
    output satisfies substitutability and the law of aggregate demand.
    """
    rank = {idx: r for r, idx in enumerate(q.individual_ranking)}
    cap = min(q.quota, len(q.individual_ranking))
    sentinel = len(q.individual_ranking)

    subsets: list[tuple[int, ...]] = []
    for size in range(1, cap + 1):
        subsets.extend(combinations(q.individual_ranking, size))

    def key(members: tuple[int, ...]) -> tuple[int, ...]:
        ranks = sorted(rank[i] for i in members)
        return tuple(ranks) + (sentinel,) * (cap - len(ranks))

    subsets.sort(key=key)
    ranked = tuple(sum(1 << i for i in members) for members in subsets)
    return PreferenceRelation(owner=q.owner, ranked=ranked)
