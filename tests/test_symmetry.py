"""Exchanging firms and workers: the symmetry oracle.

Every definition in the package treats the two sides alike.  Exchanging them
(worker j becomes firm j and firm i becomes worker i, each keeping its list)
and transposing every matching must therefore carry each result over to the
exchanged profile, with firm-optimal and worker-optimal exchanged too.  The
fast paths handle the two orientations in separate code (firm rows against
transposed worker columns, the proposing side of deferred acceptance), so a
slip in one orientation shows here; the transpose below is built from the
edge set, not from the package's own.
"""

import random

from conftest import random_relation, random_responsive_market, random_substitutable_profile
from manymatch import AgentId, Matching, Profile, Side, StableRule, deferred_acceptance
from manymatch import enumerate_stable, verify_gmt
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
