"""Generalized deferred acceptance, order comparisons, and stable rules.

The proposing side offers its choice set from the partners it has not yet
been rejected by; the other side holds its choice set among current offerers
and rejects the rest.  Rejections accumulate and never shrink, so the loop
finishes after at most n*m rejection events.  Offers and holds carry over
between rounds: a round re-evaluates only the proposers rejected in the round
before and the responders whose offer set changed.  Under substitutable
preferences the result is the proposing side's optimal stable matching.
"""

from __future__ import annotations

from enum import Enum

from .axioms import check_substitutable
from .core import (
    AgentId,
    Matching,
    NoStableMatchingError,
    PreconditionError,
    Profile,
    Side,
    bits,
    choice_mask,
    matched_set,
    transpose,
)
from .stability import enumerate_stable


class StableRule(Enum):
    """A function selecting one stable matching per reported profile."""

    FIRM_OPTIMAL = "firm-optimal"
    WORKER_OPTIMAL = "worker-optimal"
    SELECT_FIRST = "select-first"
    SELECT_LAST = "select-last"


# The side that proposes under each deferred-acceptance rule.
PROPOSING = {StableRule.FIRM_OPTIMAL: Side.FIRM, StableRule.WORKER_OPTIMAL: Side.WORKER}


class OrderVerdict(Enum):
    BETTER_STRICT = "better"
    EQUAL = "equal"
    WORSE_STRICT = "worse"
    INCOMPARABLE = "incomparable"


def deferred_acceptance(p: Profile, proposing: Side) -> Matching:
    """Run deferred acceptance with ``proposing`` as the offering side.

    Every agent's relation must be substitutable (checked); the algorithm's
    optimality guarantee does not survive without it.
    """
    for pref in p.firm_prefs + p.worker_prefs:
        if check_substitutable(pref) is not None:
            raise PreconditionError(
                "deferred acceptance requires substitutability; {agent} fails it", pref.owner)
    return da_rounds(p, proposing)


def da_rounds(p: Profile, proposing: Side) -> Matching:
    """The rounds of ``deferred_acceptance`` without its precondition, for a
    caller that knows every relation of ``p`` is substitutable."""
    if proposing is Side.FIRM:
        prop_prefs, resp_prefs = p.firm_prefs, p.worker_prefs
    else:
        prop_prefs, resp_prefs = p.worker_prefs, p.firm_prefs
    n_prop, n_resp = len(prop_prefs), len(resp_prefs)

    allowed = [(1 << n_resp) - 1] * n_prop  # responders that have not rejected i
    offers, offered_by, holds = [0] * n_prop, [0] * n_resp, [0] * n_resp
    rejected = (1 << n_prop) - 1  # proposers to re-evaluate: every one in the first round
    while rejected:
        changed = 0
        for i in bits(rejected):
            diff = choice_mask(allowed[i], prop_prefs[i]) ^ offers[i]
            offers[i] ^= diff
            changed |= diff
            for j in bits(diff):
                offered_by[j] ^= 1 << i
        rejected = 0
        # an unchanged offer set rejected no one last round (rejected offers are withdrawn)
        for j in bits(changed):
            holds[j] = choice_mask(offered_by[j], resp_prefs[j])
            out = offered_by[j] & ~holds[j]
            for i in bits(out):
                allowed[i] &= ~(1 << j)
            rejected |= out

    # Every held offer was made, so the holds are the matching's edges.
    return Matching(tuple(holds) if proposing is Side.WORKER else tuple(transpose(holds, n_prop)))


def compare_common(mu1: Matching, mu2: Matching, a: AgentId, p: Profile) -> OrderVerdict:
    """Compare two matchings at one agent in the agent's listed order.

    Unlisted sets rank below the empty set and are incomparable to each other;
    the verdict is Equal exactly when the two partner sets are identical.
    """
    pref = p[a]
    s1, s2 = matched_set(mu1, a), matched_set(mu2, a)
    if s1 == s2:
        return OrderVerdict.EQUAL
    r1, r2 = pref.rank_of(s1), pref.rank_of(s2)
    if r1 is None and r2 is None:
        return OrderVerdict.INCOMPARABLE
    if r2 is None:
        return OrderVerdict.BETTER_STRICT
    if r1 is None:
        return OrderVerdict.WORSE_STRICT
    return OrderVerdict.BETTER_STRICT if r1 < r2 else OrderVerdict.WORSE_STRICT


def compare_blair(mu1: Matching, mu2: Matching, a: AgentId, p: Profile) -> OrderVerdict:
    """Compare two matchings at one agent by choice over the union of the two
    assignments; incomparable when the union's choice is a third set."""
    pref = p[a]
    s1, s2 = matched_set(mu1, a), matched_set(mu2, a)
    if s1 == s2:
        return OrderVerdict.EQUAL
    best = choice_mask(s1 | s2, pref)
    if best == s1:
        return OrderVerdict.BETTER_STRICT
    if best == s2:
        return OrderVerdict.WORSE_STRICT
    return OrderVerdict.INCOMPARABLE


def side_optimal(ss: tuple[Matching, ...], p: Profile, side: Side) -> Matching | None:
    """The member every agent on ``side`` weakly prefers to every member, or
    None when no member dominates (possible off the substitutable domain).
    As ``compare_common`` decides it, an agent given two or more distinct
    sets needs the one it ranks best, and that one must be listed or empty."""
    targets = []
    for i in range(p.side_count(side)):
        a = AgentId(side, i)
        given = {matched_set(mu, a) for mu in ss}
        if len(given) < 2:
            continue
        listed = {p[a].rank_of(s): s for s in given}
        listed.pop(None, None)
        if not listed:
            return None
        targets.append((a, listed[min(listed)]))
    return next((mu for mu in ss if all(matched_set(mu, a) == s for a, s in targets)), None)


def apply_rule(rule: StableRule, p: Profile) -> Matching:
    """Apply a stable matching rule to a profile.

    The selector rules pick from the enumerated stable set in canonical order,
    giving rules that are deliberately not side-optimal.
    """
    proposing = PROPOSING.get(rule)
    if proposing is not None:
        return deferred_acceptance(p, proposing)
    ss = enumerate_stable(p)
    if not ss:
        raise NoStableMatchingError("no stable matching exists under the reported profile")
    return ss[0] if rule is StableRule.SELECT_FIRST else ss[-1]
