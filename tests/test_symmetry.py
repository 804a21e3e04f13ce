"""Exchanging firms and workers, and relabelling one side: the symmetry oracles.

Every definition in the package treats the two sides alike.  Exchanging them
(worker j becomes firm j and firm i becomes worker i, each keeping its list)
and transposing every matching must therefore carry each result over to the
exchanged profile, with firm-optimal and worker-optimal exchanged too.  The
fast paths handle the two orientations in separate code (firm rows against
transposed worker columns, the proposing side of deferred acceptance), so a
slip in one orientation shows here; the transpose below is built from the
edge set, not from the package's own.

No definition reads an agent's index either, so renaming the agents of one
side by a permutation must permute the stable set and both DA outputs the
same way and leave every axiom verdict as it is.  That catches a fast path
that leans on index order, such as the enumerator's firm-by-firm search or
the choice table's renumbering of the listed members.
"""

import random

from conftest import random_relation, random_responsive_market, random_substitutable_profile
from manymatch import AgentId, Matching, Profile, Side, StableRule, deferred_acceptance
from manymatch import enumerate_stable, verify_gmt
from manymatch.axioms import check_lad, check_substitutable
from manymatch.core import NoStableMatchingError, PreconditionError, PreferenceRelation
from manymatch.manipulation import gmt_counterexample_check

EXCHANGED = {StableRule.FIRM_OPTIMAL: StableRule.WORKER_OPTIMAL,
             StableRule.WORKER_OPTIMAL: StableRule.FIRM_OPTIMAL}


def exchanged(p: Profile) -> Profile:
    def moved(prefs, side):
        return tuple(PreferenceRelation(AgentId(side, pref.owner.index), pref.ranked)
                     for pref in prefs)
    return Profile(moved(p.worker_prefs, Side.FIRM), moved(p.firm_prefs, Side.WORKER))


def mirrored(mu: Matching | None) -> Matching | None:
    """``mu`` with firm f's edge to worker w made worker f's edge to firm w."""
    if mu is None:
        return None
    width = max(mu.rows, default=0).bit_length()
    return Matching(tuple(sum((row >> w & 1) << f for f, row in enumerate(mu.rows))
                          for w in range(width)))


def flipped(a: AgentId) -> AgentId:
    return AgentId(a.side.opposite, a.index)


def attempt(call, view):
    """``view(call())``, or the type of the domain error the call raised."""
    try:
        return view(call())
    except (PreconditionError, NoStableMatchingError) as exc:
        return type(exc)


def verification_view(v, mirror=lambda mu: mu):
    return (v.applicable, mirror(v.baseline), mirror(v.side_optimum),
            {mirror(c.target): c.assertions for c in v.checks})


def search_view(report, mirror=lambda mu: mu):
    return (report.not_applicable, mirror(report.baseline), report.candidates_total,
            report.evaluated, report.rule_failures,
            [(o.reported.ranked, mirror(o.manipulated), o.verdict_common, o.verdict_blair,
              o.manipulated_stable_under_truth) for o in report.profitable])


def random_arbitrary_profile(rng: random.Random) -> Profile:
    n, m = rng.randint(2, 4), rng.randint(2, 4)
    return Profile(tuple(random_relation(AgentId(Side.FIRM, i), m, rng) for i in range(n)),
                   tuple(random_relation(AgentId(Side.WORKER, j), n, rng) for j in range(m)))


def symmetry_profiles(count: int) -> list[Profile]:
    """``count`` seeded profiles with 2-4 agents a side, taking arbitrary,
    substitutable and responsive lists in turn."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 3 == 0:
            out.append(random_arbitrary_profile(rng))
        elif seed % 3 == 1:
            out.append(random_substitutable_profile(rng, max_side=4))
        else:
            out.append(random_responsive_market(rng)[0])
    return out


def test_exchanging_the_sides_mirrors_every_result():
    profiles = symmetry_profiles(1050)
    multi = applicable = profitable = 0
    for p in profiles:
        q = exchanged(p)
        ss = enumerate_stable(p)
        assert {mirrored(mu) for mu in ss} == set(enumerate_stable(q)), p
        multi += len(ss) >= 2
        for side in (Side.FIRM, Side.WORKER):
            assert (attempt(lambda: deferred_acceptance(p, side), mirrored)
                    == attempt(lambda: deferred_acceptance(q, side.opposite), lambda mu: mu)), p
        for a in p.agents():
            exhaustive_modes = (False, True) if p.side_count(a.side.opposite) <= 2 else (False,)
            for rule, other in EXCHANGED.items():
                here = attempt(lambda: verify_gmt(a, rule, p, require_axioms=False),
                               lambda v: verification_view(v, mirrored))
                there = attempt(lambda: verify_gmt(flipped(a), other, q, require_axioms=False),
                                verification_view)
                assert here == there, (p, a, rule)
                if not isinstance(here, tuple) or not here[0]:
                    continue  # the search refuses the profile too, or finds the pair not applicable
                applicable += 1
                for exhaustive in exhaustive_modes:
                    here = attempt(lambda: gmt_counterexample_check(p, rule, a, exhaustive),
                                   lambda r: search_view(r, mirrored))
                    there = attempt(
                        lambda: gmt_counterexample_check(q, other, flipped(a), exhaustive),
                        search_view)
                    assert here == there, (p, a, rule, exhaustive)
                    profitable += bool(here[-1])
    # the corpus reaches the cases the mirror has to carry
    assert min(multi, applicable, profitable) >= 100, (multi, applicable, profitable)


def relabelled(p: Profile, side: Side, order: list[int]) -> Profile:
    """``p`` with agent i of ``side`` renamed ``order[i]``: its list moves to
    slot ``order[i]``, and every list on the other side names it there."""
    def moved(mask: int) -> int:
        return sum((mask >> i & 1) << new for i, new in enumerate(order))

    own, other = (p.firm_prefs, p.worker_prefs) if side is Side.FIRM else (p.worker_prefs,
                                                                           p.firm_prefs)
    slots = [None] * len(own)
    for pref, new in zip(own, order):
        slots[new] = PreferenceRelation(AgentId(side, new), pref.ranked)
    renamed = tuple(PreferenceRelation(pref.owner, tuple(map(moved, pref.ranked)))
                    for pref in other)
    return Profile(tuple(slots), renamed) if side is Side.FIRM else Profile(renamed, tuple(slots))


def relabelled_matching(mu: Matching, side: Side, order: list[int]) -> Matching:
    """``mu`` with agent i of ``side`` renamed ``order[i]``, built from its edge set."""
    if side is Side.FIRM:
        return Matching.from_pairs((order[f], w) for f, w in mu.edges)
    return Matching.from_pairs((f, order[w]) for f, w in mu.edges)


def test_relabelling_one_side_permutes_every_result():
    # 1,050 profiles; each permutes the firms or the workers, in turn, by a
    # seeded permutation that moves at least one agent.  The selector rules
    # pick by canonical order, which a relabelling does not keep, so the
    # stable sets are compared as sets.
    multi = refused = 0
    for seed, p in enumerate(symmetry_profiles(1050)):
        side = Side.FIRM if seed % 2 else Side.WORKER
        rng = random.Random(seed)
        order = list(range(p.side_count(side)))
        while order == sorted(order):
            rng.shuffle(order)
        q = relabelled(p, side, order)
        relabel = lambda mu: relabelled_matching(mu, side, order)
        ss = enumerate_stable(p)
        assert {relabel(mu) for mu in ss} == set(enumerate_stable(q)), (p, order)
        multi += len(ss) >= 2
        for proposing in (Side.FIRM, Side.WORKER):
            here = attempt(lambda: deferred_acceptance(p, proposing), relabel)
            assert here == attempt(lambda: deferred_acceptance(q, proposing), lambda mu: mu)
            refused += here is PreconditionError
        for a in p.agents():
            b = AgentId(a.side, order[a.index]) if a.side is side else a
            for check in (check_substitutable, check_lad):
                assert (check(p[a]) is None) == (check(q[b]) is None), (p, order, a)
    # the corpus reaches several stable matchings and DA refusals alike
    assert min(multi, refused) >= 100, (multi, refused)
