"""Strategic misreporting machinery: preference restriction, truncation
targets, misreport evaluation, the manipulability-construction verifier, and
an exhaustive counterexample search for markets where the construction fails.

The central construction: when a rule assigns an agent less than its
side-optimal stable assignment, the agent reports its true relation
restricted to the assignment of a Blair-better stable matching.  That target
stays stable under the misreport, the rule must hand the agent exactly the
target assignment, and the agent strictly gains in both the Blair and the
listed order.  This chain needs both substitutability and the law of
aggregate demand; the bundled markets show it breaking without the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .axioms import check_lad, check_substitutable
from .core import (
    AgentId,
    Matching,
    NoStableMatchingError,
    PreconditionError,
    PreferenceRelation,
    Profile,
    UnsupportedSizeError,
    bits,
    choice_mask,
    matched_set,
    replace_preference,
)
from .solver import OrderVerdict, StableRule, apply_rule, compare_blair, compare_common, side_optimal
from .stability import enumerate_stable, is_stable

EXHAUSTIVE_OPPOSITE_CAP = 3
# The sublist search evaluates all 2^len(list) sublists of the true list;
# 2^14 = 16,384 is the scale of the 13,700 lists the exhaustive cap allows.
SUBLIST_ENTRY_CAP = 14


@dataclass(frozen=True)
class AxiomFlags:
    substitutable: bool
    lad: bool


@dataclass(frozen=True)
class Misreport:
    """A reported relation for one agent."""

    agent: AgentId
    reported: PreferenceRelation

    @property
    def axiom_flags(self) -> AxiomFlags:
        """The axioms the reported relation satisfies, checked on demand."""
        return AxiomFlags(
            substitutable=check_substitutable(self.reported).holds,
            lad=check_lad(self.reported).holds,
        )


def make_misreport(agent: AgentId, reported: PreferenceRelation) -> Misreport:
    if reported.owner != agent:
        raise ValueError(f"reported relation owned by {reported.owner}, not {agent}")
    return Misreport(agent=agent, reported=reported)


@dataclass(frozen=True)
class ManipulationOutcome:
    """Rule output under truth vs. under one misreport, judged at the agent
    under its TRUE relation.  ``failure`` is set when the rule could not
    produce a matching from the reported profile; the other result fields are
    then None."""

    baseline: Matching
    manipulated: Matching | None = None
    verdict_common: OrderVerdict | None = None
    verdict_blair: OrderVerdict | None = None
    manipulated_stable_under_truth: bool | None = None
    failure: str | None = None

    @property
    def profitable(self) -> bool:
        return self.verdict_common is OrderVerdict.BETTER_STRICT


def restrict_preference(
    pref: PreferenceRelation, t: int, p_check: bool = True
) -> PreferenceRelation:
    """The relation declaring unacceptable every set not contained in the
    mask ``t``, preserving acceptability and order inside ``t``.

    With ``p_check`` on, ``t`` must be a fixed point of the agent's choice
    (the standing condition under which restriction is used as a strategy).
    """
    if p_check and choice_mask(t, pref) != t:
        raise PreconditionError(
            "restriction target is not a choice fixed point for {agent}", pref.owner
        )
    kept = tuple(entry for entry in pref.ranked if entry & ~t == 0)
    return PreferenceRelation(owner=pref.owner, ranked=kept)


def candidate_set_H(a: AgentId, baseline: Matching, p: Profile) -> tuple[Matching, ...]:
    """The stable matchings Blair-strictly better for ``a`` than ``baseline``,
    the rule's output on ``p``: the targets a restriction strategy can secure."""
    ss = enumerate_stable(p)
    if not ss:
        raise ValueError("stable set is empty")
    return tuple(
        mu for mu in ss if compare_blair(mu, baseline, a, p) is OrderVerdict.BETTER_STRICT
    )


def truncation_strategy(a: AgentId, mu: Matching, p: Profile) -> Misreport:
    """The misreport that keeps only sets inside the agent's assignment under
    the (stable) target matching ``mu``."""
    if not is_stable(mu, p):
        raise PreconditionError("truncation target is not stable for {agent}", a)
    reported = restrict_preference(p[a], matched_set(mu, a), p_check=True)
    return make_misreport(a, reported)


def evaluate_misreport(
    a: AgentId, m: Misreport, rule: StableRule, p_true: Profile, baseline: Matching
) -> ManipulationOutcome:
    """Apply the rule to the swapped profile and judge the result at ``a``
    under the true relation against ``baseline``, the rule's output on
    ``p_true``; flag whether the manipulated matching is even stable under
    the truth (it need not be)."""
    swapped = replace_preference(p_true, a, m.reported)
    try:
        manipulated = apply_rule(rule, swapped)
    except (PreconditionError, NoStableMatchingError) as exc:
        return ManipulationOutcome(baseline=baseline, failure=str(exc))
    return ManipulationOutcome(
        baseline=baseline,
        manipulated=manipulated,
        verdict_common=compare_common(manipulated, baseline, a, p_true),
        verdict_blair=compare_blair(manipulated, baseline, a, p_true),
        manipulated_stable_under_truth=is_stable(manipulated, p_true),
    )


@dataclass(frozen=True)
class GmtCheck:
    """The four assertions of the manipulability construction for one target."""

    target: Matching
    misreport: Misreport
    outcome: ManipulationOutcome
    target_stable_under_report: bool
    rule_matches_target: bool
    blair_improves: bool
    common_improves: bool

    @property
    def assertions(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.target_stable_under_report,
            self.rule_matches_target,
            self.blair_improves,
            self.common_improves,
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
        return all(c.all_hold for c in self.checks)


def _truthful_standing(
    a: AgentId, rule: StableRule, p: Profile
) -> tuple[Matching, Matching | None, bool]:
    """The rule's truthful output, ``a``'s side-optimal stable matching (None
    when no member dominates), and whether the construction applies: the
    rule gives ``a`` something other than its side-optimal assignment."""
    baseline = apply_rule(rule, p)
    optimum = side_optimal(enumerate_stable(p), p, a.side)
    applicable = optimum is None or matched_set(baseline, a) != matched_set(optimum, a)
    return baseline, optimum, applicable


def verify_gmt(
    a: AgentId,
    rule: StableRule,
    p: Profile,
    *,
    all_candidates: bool = False,
    require_axioms: bool = True,
) -> GmtVerification:
    """Run the manipulability construction for one agent and record whether
    each of its four assertions holds.

    Not applicable when the rule already gives the agent its side-optimal
    assignment.  By default the construction targets the side-optimum; with
    ``all_candidates`` it sweeps every Blair-better stable matching.  The
    axiom precondition can be disabled to watch the construction fail on
    profiles outside its domain.
    """
    if require_axioms:
        for agent in p.agents():
            if not check_substitutable(p[agent]).holds:
                raise PreconditionError("{agent} fails substitutability", agent)
            if not check_lad(p[agent]).holds:
                raise PreconditionError("{agent} fails the law of aggregate demand", agent)

    baseline, optimum, applicable = _truthful_standing(a, rule, p)
    if not applicable:
        targets = ()
    elif all_candidates or optimum is None:
        targets = candidate_set_H(a, baseline, p)
    else:
        targets = (optimum,)

    checks = []
    for target in targets:
        misreport = truncation_strategy(a, target, p)
        outcome = evaluate_misreport(a, misreport, rule, p, baseline)
        swapped = replace_preference(p, a, misreport.reported)
        rule_matches = (
            outcome.manipulated is not None
            and matched_set(outcome.manipulated, a) == matched_set(target, a)
        )
        checks.append(
            GmtCheck(
                target=target,
                misreport=misreport,
                outcome=outcome,
                target_stable_under_report=is_stable(target, swapped),
                rule_matches_target=rule_matches,
                blair_improves=outcome.verdict_blair is OrderVerdict.BETTER_STRICT,
                common_improves=outcome.verdict_common is OrderVerdict.BETTER_STRICT,
            )
        )
    return GmtVerification(
        agent=a, rule=rule, applicable=applicable, baseline=baseline,
        side_optimum=optimum, checks=tuple(checks),
    )


@dataclass(frozen=True)
class MisreportFinding:
    misreport: Misreport
    outcome: ManipulationOutcome


@dataclass(frozen=True)
class CounterexampleReport:
    """Result of searching one agent's misreports for a profitable one."""

    agent: AgentId
    rule: StableRule
    mode: str
    not_applicable: bool
    baseline: Matching | None
    candidates_total: int
    evaluated: int
    rule_failures: int
    profitable: tuple[MisreportFinding, ...]
    search_scope: str

    @property
    def found_profitable(self) -> bool:
        return bool(self.profitable)


def _all_relations(owner: AgentId, opposite_count: int) -> list[PreferenceRelation]:
    """Every strict list of distinct nonempty subsets of the opposite side."""
    pool = []
    for size in range(1, opposite_count + 1):
        for members in combinations(range(opposite_count), size):
            pool.append(sum(1 << i for i in members))
    relations = []
    for length in range(len(pool) + 1):
        for ranked in permutations(pool, length):
            relations.append(PreferenceRelation(owner=owner, ranked=ranked))
    return relations


def _sublist_relations(pref: PreferenceRelation) -> list[PreferenceRelation]:
    """Every order-preserving deletion of entries from the true list."""
    entries = pref.ranked
    relations = []
    for keep in range(1 << len(entries)):
        ranked = tuple(entries[i] for i in bits(keep))
        relations.append(PreferenceRelation(owner=pref.owner, ranked=ranked))
    return relations


def gmt_counterexample_check(
    p: Profile, rule: StableRule, a: AgentId, exhaustive: bool = False
) -> CounterexampleReport:
    """Search ``a``'s misreports for one that strictly improves its outcome.

    Exhaustive mode enumerates every strict preference list over the opposite
    side (only feasible for opposite sides of at most three agents); otherwise
    the search covers the sublists of the true list (at most 14 entries long),
    and the report says so.  Both caps are checked before any work.
    Candidates the rule cannot process (a no-longer-substitutable report fed
    to deferred acceptance, or a reported profile with no stable matching)
    count as rule failures, never as profitable.
    """
    opposite_count = p.side_count(a.side.opposite)
    if exhaustive and opposite_count > EXHAUSTIVE_OPPOSITE_CAP:
        raise UnsupportedSizeError(
            f"exhaustive misreport search supports opposite sides of at most "
            f"{EXHAUSTIVE_OPPOSITE_CAP} agents, got {opposite_count}"
        )
    if not exhaustive and len(p[a].ranked) > SUBLIST_ENTRY_CAP:
        raise UnsupportedSizeError(
            f"sublist misreport search supports true lists of at most "
            f"{SUBLIST_ENTRY_CAP} entries, got {len(p[a].ranked)}"
        )
    baseline, _, applicable = _truthful_standing(a, rule, p)
    if not applicable:
        return CounterexampleReport(
            agent=a, rule=rule, mode="exhaustive" if exhaustive else "sublists",
            not_applicable=True, baseline=baseline, candidates_total=0,
            evaluated=0, rule_failures=0, profitable=(),
            search_scope="agent already receives its side-optimal assignment",
        )

    if exhaustive:
        candidates = _all_relations(a, opposite_count)
        mode = "exhaustive"
        scope = "all strict preference lists over the opposite side"
    else:
        candidates = _sublist_relations(p[a])
        mode = "sublists"
        scope = (
            "order-preserving sublists of the true list only; "
            "relations outside the true list were not searched"
        )

    evaluated = 0
    rule_failures = 0
    profitable = []
    for reported in candidates:
        misreport = make_misreport(a, reported)
        outcome = evaluate_misreport(a, misreport, rule, p, baseline)
        if outcome.failure is not None:
            rule_failures += 1
            continue
        evaluated += 1
        if outcome.profitable:
            profitable.append(MisreportFinding(misreport=misreport, outcome=outcome))

    return CounterexampleReport(
        agent=a, rule=rule, mode=mode, not_applicable=False, baseline=baseline,
        candidates_total=len(candidates), evaluated=evaluated,
        rule_failures=rule_failures, profitable=tuple(profitable), search_scope=scope,
    )
