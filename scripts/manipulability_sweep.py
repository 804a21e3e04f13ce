"""Sweep random responsive markets and verify the truncation construction.

For every market, rule, and agent that receives less than its side-optimal
stable assignment, run the four-assertion verifier and tally the results.
With substitutability and the law of aggregate demand both guaranteed by the
generator, every applicable pair should pass.  The two deferred-acceptance
rules run first; the selector rules run only on a market with two or more
stable matchings.  A market on which a rule exceeds a size limit is counted
as refused and keeps the pairs verified before the refusal.

Exit codes: 0 every pair passed; 1 an assertion failed; 2 usage error; 3 no
assertion failed but some market was refused by a size limit.

Usage: python scripts/manipulability_sweep.py --markets 200 --seed 7
"""

from __future__ import annotations

import argparse
import random
import time

from manymatch import (
    MAX_SIDE,
    AgentId,
    Profile,
    QuotaRanking,
    Side,
    StableRule,
    responsive_preference,
    verify_gmt,
)
from manymatch.core import UnsupportedSizeError


def random_market(rng: random.Random, max_side: int) -> Profile:
    def ranking(owner: AgentId, opposite: int) -> QuotaRanking:
        k = opposite if rng.random() < 0.85 else rng.randint(1, opposite)
        return QuotaRanking(
            owner=owner,
            individual_ranking=tuple(rng.sample(range(opposite), k)),
            quota=rng.randint(1, 2),
        )

    n = rng.randint(3, max_side)
    m = rng.randint(3, max_side)
    firm_prefs = tuple(
        responsive_preference(ranking(AgentId(Side.FIRM, i), m)) for i in range(n)
    )
    worker_prefs = tuple(
        responsive_preference(ranking(AgentId(Side.WORKER, j), n)) for j in range(m)
    )
    return Profile(firm_prefs, worker_prefs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markets", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-side", type=int, default=4)
    args = parser.parse_args()
    if args.markets < 0:
        parser.error(f"--markets must be at least 0, got {args.markets}")
    if not 3 <= args.max_side <= MAX_SIDE:
        parser.error(f"--max-side must be between 3 and {MAX_SIDE}, got {args.max_side}")

    rng = random.Random(args.seed)
    start = time.monotonic()
    multi_stable = 0
    applicable = 0
    failures = []
    refused = []

    for index in range(args.markets):
        p = random_market(rng, args.max_side)
        # DA from both sides brackets the stable set (Roth 1984, Blair 1988):
        # with no agent applicable under firm-optimal it has one member, which
        # every rule picks, so the enumerating selector rules are not run
        for rule in StableRule:
            try:
                verifications = [verify_gmt(a, rule, p) for a in p.agents()]
            except UnsupportedSizeError as exc:
                refused.append((index, p.num_firms, p.num_workers, exc))
                break
            hits = [v for v in verifications if v.applicable]
            if rule is StableRule.FIRM_OPTIMAL:
                if not hits:
                    break
                multi_stable += 1
            applicable += len(hits)
            failures += [(index, rule.value, str(v.agent)) for v in hits if not v.all_hold]

    elapsed = time.monotonic() - start
    print(f"markets: {args.markets}   with >=2 stable matchings: {multi_stable}")
    print(f"applicable (agent, rule) pairs: {applicable}")
    print(f"assertion failures: {len(failures)}")
    for index, rule, agent in failures[:10]:
        print(f"  market {index} rule {rule} agent {agent}")
    print(f"markets refused by a size limit: {len(refused)}")
    for index, n, m, exc in refused[:3]:
        print(f"  market {index} ({n} x {m}): {exc}")
    print(f"elapsed: {elapsed:.1f}s")
    raise SystemExit(1 if failures else 3 if refused else 0)


if __name__ == "__main__":
    main()
