"""Preference axioms: substitutability, the law of aggregate demand, and a
responsive-preference generator for building axiom-satisfying relations.

Checkers are exhaustive over the members an agent actually lists (unlisted
partners can never enter a choice set, so they cannot create or hide a
violation) and report a replayable witness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .core import (
    AgentId,
    PartnerSet,
    PreferenceRelation,
    UnsupportedSizeError,
    bits,
    choice_mask,
)

# Exhaustive scans touch every subset of the listed members; 2^16 is the
# largest space we are willing to walk per relation.
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
    offer_set: PartnerSet
    reduced_set: PartnerSet
    kept: int | None
    removed: int


@dataclass(frozen=True)
class AxiomReport:
    axiom: Axiom
    holds: bool
    witness: AxiomWitness | None = None


def _listed_universe(pref: PreferenceRelation) -> int:
    mask = 0
    for entry in pref.ranked:
        mask |= entry.mask
    return mask


def _require_checkable(pref: PreferenceRelation) -> int:
    universe = _listed_universe(pref)
    if universe.bit_count() > CHECK_CAP:
        raise UnsupportedSizeError(
            f"axiom checks scan all subsets of the listed members; "
            f"{pref.owner} lists {universe.bit_count()} > {CHECK_CAP}"
        )
    return universe


def _descending_subsets(universe: int):
    """All subsets of ``universe`` in descending numeric order, ending at 0."""
    sub = universe
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & universe


def _violation(axiom: Axiom, pref: PreferenceRelation, offer: int, reduced: int,
               kept: int | None, removed: int) -> AxiomReport:
    side = pref.owner.side.opposite
    witness = AxiomWitness(pref.owner, PartnerSet(side, offer), PartnerSet(side, reduced),
                           kept, removed)
    return AxiomReport(axiom, False, witness)


@lru_cache(maxsize=4096)
def check_substitutable(pref: PreferenceRelation) -> AxiomReport:
    """Does every chosen partner stay chosen when another partner leaves the
    offer set?  Exhaustive over all offer sets drawn from the listed members."""
    universe = _require_checkable(pref)
    for offer in _descending_subsets(universe):
        chosen = choice_mask(offer, pref)
        if chosen.bit_count() == 0:
            continue
        for kept in bits(chosen):
            for removed in bits(offer & ~(1 << kept)):
                reduced = offer & ~(1 << removed)
                if choice_mask(reduced, pref) >> kept & 1:
                    continue
                return _violation(Axiom.SUBSTITUTABILITY, pref, offer, reduced, kept, removed)
    return AxiomReport(Axiom.SUBSTITUTABILITY, True)


@lru_cache(maxsize=4096)
def check_lad(pref: PreferenceRelation) -> AxiomReport:
    """Is the number of chosen partners weakly monotone in the offer set?

    Scans every offer set and every single-member removal; a violation by an
    arbitrary subset pair implies a single-removal violation along the chain
    between the two sets, so this scan is complete (tests confirm against an
    all-pairs oracle).
    """
    universe = _require_checkable(pref)
    for offer in _descending_subsets(universe):
        if offer == 0:
            break
        count = choice_mask(offer, pref).bit_count()
        for removed in bits(offer):
            reduced = offer & ~(1 << removed)
            if choice_mask(reduced, pref).bit_count() > count:
                return _violation(Axiom.LAD, pref, offer, reduced, None, removed)
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
    side = q.owner.side.opposite

    subsets: list[tuple[int, ...]] = []
    for size in range(1, cap + 1):
        subsets.extend(combinations(q.individual_ranking, size))

    def key(members: tuple[int, ...]) -> tuple[int, ...]:
        ranks = sorted(rank[i] for i in members)
        return tuple(ranks) + (sentinel,) * (cap - len(ranks))

    subsets.sort(key=key)
    ranked = tuple(PartnerSet.of(side, *members) for members in subsets)
    return PreferenceRelation(owner=q.owner, ranked=ranked)
