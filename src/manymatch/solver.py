"""Generalized deferred acceptance, order comparisons, and stable rules.

The proposing side offers its choice set from the partners it has not yet
been rejected by; the other side holds its choice set among current offerers
and rejects the rest.  Rejections accumulate and never shrink, so the loop
finishes after at most n*m rejection events.  Under substitutable preferences
the result is the proposing side's optimal stable matching.
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
    for a in p.agents():
        if not check_substitutable(p[a]).holds:
            raise PreconditionError(
                "deferred acceptance requires substitutability; {agent} fails it", a)

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
    return Matching(tuple(holds) if proposing is Side.WORKER else tuple(transpose(holds, n_prop)))


def compare_common(mu1: Matching, mu2: Matching, a: AgentId, p: Profile) -> OrderVerdict:
    """Compare two matchings at one agent in the agent's listed order.

    Unlisted sets rank below the empty set and are incomparable to each other;
    the verdict is Equal exactly when the two partner sets are identical.
    """
    s1, s2 = matched_set(mu1, a), matched_set(mu2, a)
    if s1 == s2:
        return OrderVerdict.EQUAL
    pref = p[a]
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
    s1, s2 = matched_set(mu1, a), matched_set(mu2, a)
    if s1 == s2:
        return OrderVerdict.EQUAL
    best = choice_mask(s1 | s2, p[a])
    if best == s1:
        return OrderVerdict.BETTER_STRICT
    if best == s2:
        return OrderVerdict.WORSE_STRICT
    return OrderVerdict.INCOMPARABLE


def side_optimal(ss: tuple[Matching, ...], p: Profile, side: Side) -> Matching | None:
    """The member every agent on ``side`` weakly prefers to every member, or
    None when no member dominates (possible off the substitutable domain)."""
    agents = [AgentId(side, i) for i in range(p.side_count(side))]
    good = (OrderVerdict.BETTER_STRICT, OrderVerdict.EQUAL)
    for candidate in ss:
        if all(
            compare_common(candidate, other, a, p) in good for other in ss for a in agents
        ):
            return candidate
    return None


def apply_rule(rule: StableRule, p: Profile) -> Matching:
    """Apply a stable matching rule to a profile.

    The selector rules pick from the enumerated stable set in canonical order,
    giving rules that are deliberately not side-optimal.
    """
    if rule is StableRule.FIRM_OPTIMAL:
        return deferred_acceptance(p, Side.FIRM)
    if rule is StableRule.WORKER_OPTIMAL:
        return deferred_acceptance(p, Side.WORKER)
    ss = enumerate_stable(p)
    if not ss:
        raise NoStableMatchingError("no stable matching exists under the reported profile")
    return ss[0] if rule is StableRule.SELECT_FIRST else ss[-1]
