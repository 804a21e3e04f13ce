"""Bundled markets: documents, axiom profiles, and recorded outcomes."""

from manymatch import Side, parse_market
from manymatch.axioms import check_lad, check_substitutable
from manymatch.fileformat import serialize_market
from manymatch.markets import BUNDLED, bundled, run_bundled_checks


def test_registry_holds_the_three_markets():
    assert set(BUNDLED) == {"manipulation-demo", "firms-immune", "workers-immune"}
    for name, text in BUNDLED.items():
        inst = bundled(name)
        assert parse_market(serialize_market(inst)) == inst
        assert serialize_market(inst) == text


def test_each_lookup_parses_a_fresh_market():
    # no two callers share a profile object, nor what is kept on it
    for name in BUNDLED:
        first, second = bundled(name), bundled(name)
        assert first == second
        assert first is not second and first.profile is not second.profile


def test_demo_market_satisfies_both_axioms():
    p = bundled("manipulation-demo").profile
    for a in p.agents():
        assert check_substitutable(p[a]).holds
        assert check_lad(p[a]).holds


def test_immune_markets_are_substitutable_but_break_aggregate_demand():
    for inst in (bundled("firms-immune"), bundled("workers-immune")):
        p = inst.profile
        for a in p.agents():
            assert check_substitutable(p[a]).holds
        firm_lad = [check_lad(p[a]).holds for a in p.agents() if a.side is Side.FIRM]
        worker_lad = [check_lad(p[a]).holds for a in p.agents() if a.side is Side.WORKER]
        assert not any(firm_lad)      # every firm's relation violates it
        assert all(worker_lad)        # workers rank singletons only


def test_market_shapes():
    assert bundled("manipulation-demo").firm_names == ("f1", "f2", "f3")
    assert bundled("manipulation-demo").worker_names == ("w1", "w2", "w3", "w4")
    assert bundled("firms-immune").firm_names == ("f1", "f2", "f3")
    assert bundled("workers-immune").firm_names == ("f1", "f2")
    assert bundled("workers-immune").worker_names == ("w1", "w2", "w3", "w4")


def test_every_recorded_outcome_reproduces():
    checks = run_bundled_checks()
    failed = [c for c in checks if not c["passed"]]
    assert not failed, failed
    assert len(checks) == 26
    assert all(list(c) == ["market", "name", "passed", "expected", "actual"] for c in checks)
