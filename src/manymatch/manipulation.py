"""Strategic misreporting machinery: preference restriction, truncation
targets, misreport evaluation, the manipulability-construction verifier, and
an exhaustive counterexample search for markets where the construction fails.

Every profitable report and every ``verify_gmt`` check is one
``ManipulationOutcome``: the reported relation, the rule's output under it,
and that output judged under its owner's true relation.  Each check's record
comes from ``evaluate_misreport``, which records a rule failure instead of
raising it; the verifier's four assertions are read off these records.

The central construction: when a rule assigns an agent less than its
side-optimal stable assignment, the agent reports its true relation
restricted to the assignment of a Blair-better stable matching.  That target
stays stable under the misreport, the rule must hand the agent exactly the
target assignment, and the agent strictly gains in both the Blair and the
listed order.  This chain needs both substitutability and the law of
aggregate demand; the bundled markets show it breaking without the latter.

The counterexample search takes three exact shortcuts, each resting on a
fact about deferred acceptance on substitutable relations:

- Under the two DA rules, a report fails exactly when it is not
  substitutable: every unchanged relation passed DA's precondition in the
  truthful run, so the swapped profile fails that precondition exactly when
  the report does.  Such a report is counted as a rule failure without
  running the rule, and for any other report DA's rounds run without the
  precondition (``solver.da_rounds``).
- Under the two DA rules, the agent's output is an entry of its reported
  list or the empty set, and the truthful output is an entry of the true
  list or empty, so the empty set never beats it.  A report that keeps no
  entry the true list ranks above the truthful output cannot be profitable;
  it is counted as evaluated without running the rule.
- When every relation is substitutable, deferred acceptance proposed by an
  agent's side gives every agent there its best stable assignment (Roth
  1984), so the side optimum is that DA rule's truthful output, and DA's own
  precondition decides the domain.  Off it the optimum is read off the
  enumeration.

A sublist report is decided by its keep mask K over the true list E_0,
E_1, ...  A list's choice (its first entry inside the offer) fails
substitutability exactly when for some entry F_t, member m of F_t and T,
empty or a later entry F_u without m and not holding F_t - m, Ch(F_t | T) =
F_t and Ch((F_t | T) - m) = T.  Only removing a chosen member can break a
choice, and a violation at a larger offer S with Ch(S) = F_t and Ch(S - m)
= T is one at F_t | T too, as a smaller offer has no new entry inside it.
So K fails exactly when for some pattern (t, m, u) it holds need = {t, u}
and misses forbid = {l < t : E_l inside E_t | E_u} and {t < l < u : E_l
inside (E_t | E_u) - m}.  One table per search holds at most L^2 * k
patterns for L entries over k members, and none for a list of singletons.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, permutations
from math import perm

from .axioms import check_lad, check_substitutable
from .core import (
    AgentId,
    Matching,
    NoStableMatchingError,
    PreconditionError,
    PreferenceRelation,
    Profile,
    Side,
    UnsupportedSizeError,
    bits,
    choice_mask,
    kept,
    matched_set,
    replace_preference,
    unchecked,
)
from .solver import (
    PROPOSING,
    OrderVerdict,
    StableRule,
    apply_rule,
    compare_blair,
    compare_common,
    da_rounds,
    side_optimal,
)
from .stability import SEARCH_BUDGET, enumerate_stable, is_stable, setup_charge

# The most reports one misreport search tries: all 2^14 sublists of a
# 14-entry list, or the 13,700 strict lists over a 3-agent opposite side.
CANDIDATE_CAP = 1 << 14


# Kept only because perfbench/tracer.py wraps this name; nothing in the package calls it.
def make_misreport(agent: AgentId, reported: PreferenceRelation) -> PreferenceRelation:
    if reported.owner != agent:
        raise ValueError(f"reported relation owned by {reported.owner}, not {agent}")
    return reported


@dataclass(frozen=True)
class ManipulationOutcome:
    """The rule's output under one reported relation, judged at its owner
    under the owner's TRUE relation against the rule's truthful output.
    ``failure`` is set when the rule could not produce a matching from the
    reported profile; the other result fields are then None."""

    reported: PreferenceRelation
    manipulated: Matching | None = None
    verdict_common: OrderVerdict | None = None
    verdict_blair: OrderVerdict | None = None
    manipulated_stable_under_truth: bool | None = None
    failure: str | None = None


def restrict_preference(pref: PreferenceRelation, t: int) -> PreferenceRelation:
    """The relation declaring unacceptable every set not contained in the
    mask ``t``, preserving acceptability and order inside ``t``.  ``t`` must
    be a fixed point of the agent's choice (the standing condition under
    which restriction is used as a strategy)."""
    if choice_mask(t, pref) != t:
        raise PreconditionError(
            "restriction target is not a choice fixed point for {agent}", pref.owner
        )
    inside = tuple(entry for entry in pref.ranked if entry & ~t == 0)
    return PreferenceRelation(owner=pref.owner, ranked=inside)


def candidate_set_H(a: AgentId, baseline: Matching, p: Profile) -> tuple[Matching, ...]:
    """The stable matchings Blair-strictly better for ``a`` than ``baseline``,
    the rule's output on ``p``: the targets a restriction strategy can secure."""
    p[a]  # refuses an agent outside the profile
    ss = enumerate_stable(p)
    if not ss:
        raise ValueError("stable set is empty")
    return tuple(
        mu for mu in ss if compare_blair(mu, baseline, a, p) is OrderVerdict.BETTER_STRICT
    )


def truncation_strategy(a: AgentId, mu: Matching, p: Profile) -> PreferenceRelation:
    """The agent's relation keeping only sets inside its assignment under
    the (stable) target matching ``mu``."""
    if not is_stable(mu, p):
        raise PreconditionError("truncation target is not stable for {agent}", a)
    return restrict_preference(p[a], matched_set(mu, a))


def evaluate_misreport(
    reported: PreferenceRelation, rule: StableRule, p_true: Profile, baseline: Matching
) -> ManipulationOutcome:
    """Apply the rule to ``p_true`` with ``reported`` swapped in at its owner
    and judge the result there under the true relation against ``baseline``,
    the rule's output on ``p_true``; flag whether the manipulated matching is
    even stable under the truth (it need not be)."""
    try:
        manipulated = apply_rule(rule, replace_preference(p_true, reported))
    except (PreconditionError, NoStableMatchingError) as exc:
        return ManipulationOutcome(reported=reported, failure=str(exc))
    return _outcome(reported, p_true, manipulated, baseline,
                    compare_common(manipulated, baseline, reported.owner, p_true))


def _outcome(reported: PreferenceRelation, p_true: Profile, manipulated: Matching,
             baseline: Matching, verdict_common: OrderVerdict) -> ManipulationOutcome:
    """The record of a report the rule processed, given its list-order verdict."""
    return ManipulationOutcome(
        reported=reported, manipulated=manipulated, verdict_common=verdict_common,
        verdict_blair=compare_blair(manipulated, baseline, reported.owner, p_true),
        manipulated_stable_under_truth=is_stable(manipulated, p_true),
    )


@dataclass(frozen=True)
class GmtCheck:
    """The manipulability construction for one target: the truncation
    report's outcome and whether the target stays stable under that report."""

    target: Matching
    outcome: ManipulationOutcome
    target_stable_under_report: bool

    @property
    def assertions(self) -> tuple[bool, bool, bool, bool]:
        """Target stable under the report; the rule hands the agent exactly
        the target assignment; strict gains in the Blair and list orders."""
        a, manipulated = self.outcome.reported.owner, self.outcome.manipulated
        return (
            self.target_stable_under_report,
            manipulated is not None and matched_set(manipulated, a) == matched_set(self.target, a),
            self.outcome.verdict_blair is OrderVerdict.BETTER_STRICT,
            self.outcome.verdict_common is OrderVerdict.BETTER_STRICT,
        )

    @property
    def all_hold(self) -> bool:
        return all(self.assertions)


@dataclass(frozen=True)
class GmtVerification:
    agent: AgentId
    rule: StableRule
    applicable: bool
    baseline: Matching
    side_optimum: Matching | None
    checks: tuple[GmtCheck, ...]

    @property
    def all_hold(self) -> bool:
        """Every check holds, and an applicable verification has a check."""
        return (bool(self.checks) or not self.applicable) and all(c.all_hold for c in self.checks)


def _truthful_standing(
    a: AgentId, rule: StableRule, p: Profile
) -> tuple[Matching, Matching | None, bool]:
    """The rule's truthful output, ``a``'s side-optimal stable matching (None
    when no member dominates), and whether the construction applies: the
    rule gives ``a`` something other than its side-optimal assignment.

    The optimum is the output of the DA rule ``a``'s side proposes, or where
    DA refuses ``p``, read off the (cached) enumeration.  Rule outputs depend
    on ``p`` alone, so they are kept on it, by rule, for every later agent of
    the same object; a swapped profile starts with none."""
    baseline = kept(p, rule, lambda: apply_rule(rule, p))
    own = StableRule.FIRM_OPTIMAL if a.side is Side.FIRM else StableRule.WORKER_OPTIMAL
    try:
        optimum = kept(p, own, lambda: apply_rule(own, p))
    except (PreconditionError, UnsupportedSizeError):
        optimum = side_optimal(enumerate_stable(p), p, a.side)
    applicable = optimum is None or matched_set(baseline, a) != matched_set(optimum, a)
    return baseline, optimum, applicable


def _axiom_failure(p: Profile) -> tuple[str, AgentId] | None:
    """The first relation, firms first, failing substitutability or else the
    law of aggregate demand, as an error template and its agent; None when
    every relation satisfies both."""
    for pref in p.firm_prefs + p.worker_prefs:
        if check_substitutable(pref) is not None:
            return "{agent} fails substitutability", pref.owner
        if check_lad(pref) is not None:
            return "{agent} fails the law of aggregate demand", pref.owner
    return None


def verify_gmt(
    a: AgentId, rule: StableRule, p: Profile, *, require_axioms: bool = True
) -> GmtVerification:
    """Run the manipulability construction for one agent and record whether
    each of its four assertions holds.

    Not applicable when the rule already gives the agent its side-optimal
    assignment.  The construction targets the side-optimum; when no stable
    matching is side-optimal, it targets every Blair-better stable matching
    (``candidate_set_H``) in canonical order.  The axiom precondition can be
    disabled to watch the construction fail on profiles outside its domain;
    when enabled, its verdict is kept on ``p`` like the truthful standing.
    """
    p[a]  # refuses an agent outside the profile
    if require_axioms:
        failure = kept(p, "axioms", lambda: _axiom_failure(p))
        if failure is not None:
            raise PreconditionError(*failure)

    baseline, optimum, applicable = _truthful_standing(a, rule, p)
    if not applicable:
        targets = ()
    elif optimum is None:
        targets = candidate_set_H(a, baseline, p)
    else:
        targets = (optimum,)

    checks = []
    for target in targets:
        reported = truncation_strategy(a, target, p)
        outcome = evaluate_misreport(reported, rule, p, baseline)
        stays = is_stable(target, replace_preference(p, reported))
        checks.append(GmtCheck(target, outcome, stays))
    return GmtVerification(
        agent=a, rule=rule, applicable=applicable, baseline=baseline,
        side_optimum=optimum, checks=tuple(checks),
    )


@dataclass(frozen=True)
class CounterexampleReport:
    """Result of searching one agent's misreports for a profitable one."""

    agent: AgentId
    rule: StableRule
    mode: str
    not_applicable: bool
    baseline: Matching
    candidates_total: int
    evaluated: int
    rule_failures: int
    profitable: tuple[ManipulationOutcome, ...]
    search_scope: str


def _all_relations(owner: AgentId, opposite_count: int) -> tuple[int, Iterator[PreferenceRelation]]:
    """Every strict list of distinct nonempty subsets of the opposite side,
    shortest first, and their number: the sum over l of P!/(P-l)! for P
    subsets.  The sum stops at l = 15, so it is exact up to ``CANDIDATE_CAP``
    and otherwise already above it (15! > 2^14)."""
    sets = (1 << opposite_count) - 1
    count = sum(perm(sets, n) for n in range(min(sets, CANDIDATE_CAP.bit_length()) + 1))

    def relations() -> Iterator[PreferenceRelation]:
        pool = [sum(1 << i for i in members) for size in range(1, opposite_count + 1)
                for members in combinations(range(opposite_count), size)]
        for length in range(sets + 1):
            for ranked in permutations(pool, length):
                yield unchecked(PreferenceRelation, owner=owner, ranked=ranked)

    return count, relations()


def _failing_sublists(ranked: tuple[int, ...]) -> set[int]:
    """The keep masks whose sublist of ``ranked`` is not substitutable: for each
    violation pattern of the module docstring, ``need`` and any free positions."""
    full = (1 << len(ranked)) - 1
    failing = set()
    for t, chosen in enumerate(ranked):
        for m in bits(chosen):
            rest = chosen & ~(1 << m)
            for u, after in enumerate(ranked[t + 1:] + (0,), t + 1):
                if after >> m & 1 or rest & ~after == 0:
                    continue
                need = (1 << t) | ((1 << u) & full)  # u == len(ranked) stands for T = {}
                forbid = sum(1 << i for i in range(t) if ranked[i] & ~(chosen | after) == 0)
                forbid |= sum(1 << i for i in range(t + 1, u) if ranked[i] & ~(rest | after) == 0)
                free = extra = full & ~need & ~forbid
                while True:
                    failing.add(need | extra)
                    if not extra:
                        break
                    extra = (extra - 1) & free
    return failing


def gmt_counterexample_check(
    p: Profile, rule: StableRule, a: AgentId, exhaustive: bool = False
) -> CounterexampleReport:
    """Search ``a``'s misreports for one that strictly improves its outcome.

    Exhaustive mode tries every strict preference list over the opposite
    side; otherwise the order-preserving sublists of the true list, and the
    report says so.  A search that would try more than ``CANDIDATE_CAP``
    reports is refused before any work, as is a selector-rule search whose
    reports, each charged ``p``'s enumeration set-up, exceed ``SEARCH_BUDGET``.
    Reports the rule cannot process (a no-longer-substitutable list fed to
    deferred acceptance, or a profile with no stable matching) count as rule
    failures, never as profitable.

    A report is profitable when the rule hands ``a`` a set its true list
    ranks above the baseline's.  Under the two DA rules the shortcuts of the
    module docstring decide most reports without building their relation;
    the selector rules run once per report, as only the enumeration tells
    whether a report leaves a stable matching.
    """
    true = p[a]
    if exhaustive:
        mode, scope = "exhaustive", "all strict preference lists over the opposite side"
        total, candidates = _all_relations(a, p.side_count(a.side.opposite))
    else:
        mode, scope = "sublists", ("order-preserving sublists of the true list only; "
                                   "relations outside the true list were not searched")
        total = 1 << len(true.ranked)
        candidates = range(total)
    proposing = PROPOSING.get(rule)
    da = proposing is not None
    if total > CANDIDATE_CAP:
        raise UnsupportedSizeError(f"{mode} misreport search for {{agent}} would try more "
                                   f"than {CANDIDATE_CAP} candidates", a)
    if not da and total * setup_charge(p) > SEARCH_BUDGET:
        raise UnsupportedSizeError(f"{mode} misreport search for {{agent}} under {rule.value} "
                                   f"would charge more than {SEARCH_BUDGET} set-up steps", a)
    baseline, _, applicable = _truthful_standing(a, rule, p)
    if not applicable:
        total, candidates = 0, ()
        scope = "agent already receives its side-optimal assignment"

    # the sets ``compare_common`` judges strictly better than the baseline's:
    # the baseline is stable, so it hands ``a`` a listed set or none, and
    # exactly the entries ranked above that set beat it; ``above`` holds their positions
    better = frozenset(true.ranked[:true.rank_of(matched_set(baseline, a))])
    above = (1 << len(better)) - 1
    if exhaustive:  # the candidates are relations
        fails = lambda reported: check_substitutable(reported) is not None
        gains = lambda reported: not better.isdisjoint(reported.ranked)
        report = lambda reported: reported
    else:  # the candidates are keep masks over the true list's positions
        fails = (_failing_sublists(true.ranked) if da and applicable else set()).__contains__
        gains = lambda keep: keep & above
        report = lambda keep: unchecked(PreferenceRelation, owner=a,
                                        ranked=tuple(true.ranked[i] for i in bits(keep)))
    rule_failures = 0
    profitable = []
    for candidate in candidates:
        if da:
            if fails(candidate):
                rule_failures += 1
                continue
            if not gains(candidate):
                continue
        reported = report(candidate)
        swapped = replace_preference(p, reported)
        try:
            manipulated = da_rounds(swapped, proposing) if da else apply_rule(rule, swapped)
        except NoStableMatchingError:
            rule_failures += 1
            continue
        if matched_set(manipulated, a) in better:
            profitable.append(_outcome(reported, p, manipulated, baseline,
                                       OrderVerdict.BETTER_STRICT))

    return CounterexampleReport(
        agent=a, rule=rule, mode=mode, not_applicable=not applicable, baseline=baseline,
        candidates_total=total, evaluated=total - rule_failures,
        rule_failures=rule_failures, profitable=tuple(profitable), search_scope=scope,
    )
