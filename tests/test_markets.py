"""Bundled markets: documents, axiom profiles, and recorded outcomes."""

from manymatch import Side, parse_market
from manymatch.axioms import check_lad, check_substitutable
from manymatch.fileformat import serialize_market
from manymatch.markets import (
    BUNDLED,
    firms_immune,
    manipulation_demo,
    run_bundled_checks,
    workers_immune,
)


def test_registry_holds_the_three_markets():
    assert set(BUNDLED) == {"manipulation-demo", "firms-immune", "workers-immune"}
    for factory in BUNDLED.values():
        inst = factory()
        assert parse_market(serialize_market(inst)) == inst


def test_demo_market_satisfies_both_axioms():
    p = manipulation_demo().profile
    for a in p.agents():
        assert check_substitutable(p[a]).holds
        assert check_lad(p[a]).holds


def test_immune_markets_are_substitutable_but_break_aggregate_demand():
    for inst in (firms_immune(), workers_immune()):
        p = inst.profile
        for a in p.agents():
            assert check_substitutable(p[a]).holds
        firm_lad = [check_lad(p[a]).holds for a in p.agents() if a.side is Side.FIRM]
        worker_lad = [check_lad(p[a]).holds for a in p.agents() if a.side is Side.WORKER]
        assert not any(firm_lad)      # every firm's relation violates it
        assert all(worker_lad)        # workers rank singletons only


def test_market_shapes():
    assert manipulation_demo().firm_names == ("f1", "f2", "f3")
    assert manipulation_demo().worker_names == ("w1", "w2", "w3", "w4")
    assert firms_immune().firm_names == ("f1", "f2", "f3")
    assert workers_immune().firm_names == ("f1", "f2")
    assert workers_immune().worker_names == ("w1", "w2", "w3", "w4")


def test_every_recorded_outcome_reproduces():
    checks = run_bundled_checks()
    failed = [(c.market, c.name, c.expected, c.actual) for c in checks if not c.passed]
    assert not failed, failed
    assert len(checks) == 26
