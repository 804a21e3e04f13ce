"""Command-line interface: commands, formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

from manymatch import AgentId, Profile, QuotaRanking, Side, responsive_preference
from manymatch.cli import main
from manymatch.core import MarketInstance
from manymatch.fileformat import serialize_market
from manymatch.markets import BUNDLED, run_bundled_checks
from manymatch.stability import SEARCH_BUDGET

DEMO_DOC = BUNDLED["manipulation-demo"]
FIRMS_IMMUNE_DOC = BUNDLED["firms-immune"]
WORKERS_IMMUNE_DOC = BUNDLED["workers-immune"]


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.market"
    path.write_text(DEMO_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def firms_immune_file(tmp_path):
    path = tmp_path / "firms_immune.market"
    path.write_text(FIRMS_IMMUNE_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def workers_immune_file(tmp_path):
    path = tmp_path / "workers_immune.market"
    path.write_text(WORKERS_IMMUNE_DOC, encoding="utf-8")
    return str(path)


# f2 lists only the pair {w1, w2}, so it fails substitutability
F2_NOT_SUBSTITUTABLE_DOC = """\
firms: f1 f2
workers: w1 w2
pref f1: w1 | w2
pref f2: w1 w2
pref w1: f1 | f2
pref w2: f2 | f1
"""


@pytest.fixture
def f2_not_substitutable_file(tmp_path):
    path = tmp_path / "pair.market"
    path.write_text(F2_NOT_SUBSTITUTABLE_DOC, encoding="utf-8")
    return str(path)


# f2 and w1 both list only their pair, so both fail substitutability; every
# precondition scans firms before workers and names f2
F2_AND_W1_NOT_SUBSTITUTABLE_DOC = """\
firms: f1 f2
workers: w1 w2
pref f1: w1 | w2
pref f2: w1 w2
pref w1: f1 f2
pref w2: f2 | f1
"""


@pytest.fixture
def f2_and_w1_not_substitutable_file(tmp_path):
    path = tmp_path / "two_failing.market"
    path.write_text(F2_AND_W1_NOT_SUBSTITUTABLE_DOC, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--rule", "worker-optimal"],
     "error: deferred acceptance requires substitutability; f2 fails it\n"),
    (["verify-gmt", "--rule", "firm-optimal", "--agent", "f1"],
     "error: f2 fails substitutability\n"),
], ids=["solve", "verify-gmt"])
def test_precondition_names_the_first_failing_firm_before_any_worker(
        capsys, f2_and_w1_not_substitutable_file, argv, message):
    code, _, err = run(capsys, argv[0], f2_and_w1_not_substitutable_file, *argv[1:])
    assert code == 3
    assert err == message


class TestSolve:
    def test_firm_optimal_text(self, capsys, demo_file):
        code, out, _ = run(capsys, "solve", demo_file, "--rule", "firm-optimal")
        assert code == 0
        assert "rule: firm-optimal" in out
        assert "w2 w3  w1  w4" in out

    def test_firm_optimal_json(self, capsys, demo_file):
        code, out, _ = run(capsys, "solve", demo_file, "--rule", "firm-optimal",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "solve"
        assert doc["instance"]["firms"] == ["f1", "f2", "f3"]
        assert doc["results"]["matching"] == {"f1": ["w2", "w3"], "f2": ["w1"], "f3": ["w4"]}

    def test_worker_optimal_matches_text_and_json(self, capsys, demo_file):
        _, text_out, _ = run(capsys, "solve", demo_file, "--rule", "worker-optimal")
        _, json_out, _ = run(capsys, "solve", demo_file, "--rule", "worker-optimal",
                             "--format", "json")
        matching = json.loads(json_out)["results"]["matching"]
        assert matching == {"f1": ["w1", "w3"], "f2": ["w2"], "f3": ["w4"]}
        for firm, workers in matching.items():
            assert firm in text_out
            for w in workers:
                assert w in text_out

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "missing.market"),
                           "--rule", "firm-optimal")
        assert code == 3
        assert "error" in err

    def test_parse_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.market"
        path.write_text("firms: f1\nworkers: w1\npref f1: w1 | w1\npref w1: f1\n")
        code, _, err = run(capsys, "solve", str(path), "--rule", "firm-optimal")
        assert code == 3
        assert "duplicate alternative" in err

    def test_file_starting_with_a_byte_order_mark_solves(self, capsys, tmp_path):
        path = tmp_path / "bom.market"
        path.write_text("\ufeff" + DEMO_DOC, encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(path), "--rule", "firm-optimal")
        assert code == 0
        assert "w2 w3  w1  w4" in out

    def test_precondition_error_names_the_agent(self, capsys, f2_not_substitutable_file):
        code, _, err = run(capsys, "solve", f2_not_substitutable_file, "--rule", "firm-optimal")
        assert code == 3
        assert err == "error: deferred acceptance requires substitutability; f2 fails it\n"

    def test_usage_error_exits_2(self, capsys, demo_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["solve", demo_file, "--rule", "nonsense"])
        assert exc_info.value.code == 2


class TestEnumerate:
    def test_counts_and_lists(self, capsys, demo_file):
        code, out, _ = run(capsys, "enumerate", demo_file)
        assert code == 0
        assert "stable matchings: 2" in out

    def test_json_matches_text_count(self, capsys, demo_file):
        _, out, _ = run(capsys, "enumerate", demo_file, "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["count"] == 2
        assert len(doc["results"]["matchings"]) == 2

    def test_max_edges_option_is_gone(self, capsys, demo_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["enumerate", demo_file, "--max-edges", "5"])
        assert exc_info.value.code == 2

    def test_over_budget_market_exits_3_before_searching(self, capsys, tmp_path):
        # 16 firms each list all 496 pairs of 32 workers: 16 * 497^2 * 33, about 2^27 steps
        workers = [f"w{j}" for j in range(32)]
        pairs = " | ".join(f"{a} {b}" for a, b in combinations(workers, 2))
        lines = ["firms: " + " ".join(f"f{i}" for i in range(16)), "workers: " + " ".join(workers)]
        lines += [f"pref f{i}: {pairs}" for i in range(16)]
        lines += [f"pref {w}:" for w in workers]
        path = tmp_path / "pairs.market"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        start = time.monotonic()
        code, _, err = run(capsys, "enumerate", str(path))
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert f"budget of {SEARCH_BUDGET} steps before the search starts" in err

    def test_eight_by_eight_all_empty_market_enumerates(self, capsys, tmp_path):
        # n*m = 64, refused by the old 2^(n*m) size cap
        names = [f"{side}{i}" for side in "fw" for i in range(1, 9)]
        lines = ["firms: " + " ".join(names[:8]), "workers: " + " ".join(names[8:])]
        lines += [f"pref {name}:" for name in names]
        path = tmp_path / "eight.market"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        assert out.startswith("stable matchings: 1\n")


class TestValidate:
    def test_demo_all_axioms_hold(self, capsys, demo_file):
        code, out, _ = run(capsys, "validate", demo_file)
        assert code == 0
        assert "all axioms hold" in out
        assert "VIOLATED" not in out

    def test_firms_immune_lad_violations_reported(self, capsys, firms_immune_file):
        code, out, _ = run(capsys, "validate", firms_immune_file)
        assert code == 0  # informative without --strict
        assert "f1 lad: VIOLATED" in out
        assert "X={w2 w3 w4}" in out and "Y={w3 w4}" in out

    def test_strict_turns_violation_into_exit_1(self, capsys, firms_immune_file):
        code, _, _ = run(capsys, "validate", firms_immune_file, "--strict")
        assert code == 1

    def test_axiom_filter(self, capsys, firms_immune_file):
        code, out, _ = run(capsys, "validate", firms_immune_file,
                           "--axiom", "substitutable", "--strict")
        assert code == 0
        assert "lad" not in out

    def test_json_reports_match_text(self, capsys, firms_immune_file):
        _, out, _ = run(capsys, "validate", firms_immune_file, "--format", "json")
        doc = json.loads(out)
        reports = doc["results"]["axiom_reports"]
        f1_lad = next(r for r in reports if r["agent"] == "f1" and r["axiom"] == "lad")
        assert f1_lad["holds"] is False
        assert f1_lad["witness"]["offer_set"] == ["w2", "w3", "w4"]
        assert f1_lad["witness"]["reduced_set"] == ["w3", "w4"]
        assert doc["results"]["all_hold"] is False


@pytest.mark.parametrize("command", [["validate"], ["solve", "--rule", "firm-optimal"]])
def test_axiom_cap_error_names_the_agent(capsys, tmp_path, command):
    # f1 lists all 17 workers, one more than the axiom checks scan
    workers = [f"w{j}" for j in range(1, 18)]
    lines = ["firms: f1 f2", "workers: " + " ".join(workers),
             "pref f1: " + " | ".join(workers), "pref f2: w1"]
    lines += [f"pref {w}: f1 | f2" for w in workers]
    path = tmp_path / "wide.market"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (3, "")
    assert err == "error: axiom checks scan all subsets of the listed members; f1 lists 17 > 16\n"


class TestManipulate:
    def test_demo_w1_finds_profitable(self, capsys, demo_file):
        code, out, _ = run(capsys, "manipulate", demo_file,
                           "--agent", "w1", "--rule", "firm-optimal")
        assert code == 0
        assert "profitable misreports:" in out
        assert "f3" in out

    def test_workers_immune_exhaustive_finds_none(self, capsys, workers_immune_file):
        code, out, _ = run(capsys, "manipulate", workers_immune_file,
                           "--agent", "w1", "--rule", "firm-optimal", "--exhaustive")
        assert code == 0
        assert "profitable misreports: 0" in out

    def test_json_payload(self, capsys, workers_immune_file):
        _, out, _ = run(capsys, "manipulate", workers_immune_file,
                        "--agent", "w1", "--rule", "firm-optimal",
                        "--exhaustive", "--format", "json")
        doc = json.loads(out)
        results = doc["results"]
        assert results["agent"] == "w1"
        assert results["mode"] == "exhaustive"
        assert results["profitable"] == []
        assert results["candidates_total"] == 16
        assert results["evaluated"] + results["rule_failures"] == 16

    def test_unknown_agent_exits_3(self, capsys, demo_file):
        code, _, err = run(capsys, "manipulate", demo_file,
                           "--agent", "zz", "--rule", "firm-optimal")
        assert code == 3
        assert "unknown agent" in err

    @pytest.mark.parametrize("rule", ["firm-optimal", "worker-optimal"])
    def test_exhaustive_over_four_workers_exits_3_whether_or_not_applicable(
            self, capsys, demo_file, rule):
        # f1 is at its optimum under firm-optimal, not under worker-optimal
        code, _, err = run(capsys, "manipulate", demo_file,
                           "--agent", "f1", "--rule", rule, "--exhaustive")
        assert code == 3
        assert err == ("error: exhaustive misreport search for f1 "
                       "would try more than 16384 candidates\n")

    def test_sublist_search_over_a_long_list_exits_3_before_any_work(self, capsys, tmp_path):
        # quota 2 over 8 workers: f1 lists 28 pairs and 8 singletons, 2^36 sublists
        def ranking(side, i, opposite):
            return responsive_preference(
                QuotaRanking(AgentId(side, i), tuple(range(opposite)), 2))
        profile = Profile(
            tuple(ranking(Side.FIRM, i, 8) for i in range(2)),
            tuple(ranking(Side.WORKER, j, 2) for j in range(8)),
        )
        instance = MarketInstance(("f1", "f2"), tuple(f"w{j}" for j in range(1, 9)), profile)
        path = tmp_path / "long.market"
        path.write_text(serialize_market(instance), encoding="utf-8")
        start = time.monotonic()
        code, _, err = run(capsys, "manipulate", str(path),
                           "--agent", "f1", "--rule", "worker-optimal")
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert err == ("error: sublists misreport search for f1 "
                       "would try more than 16384 candidates\n")


class TestVerifyGmt:
    def test_demo_w1_all_assertions_pass(self, capsys, demo_file):
        code, out, _ = run(capsys, "verify-gmt", demo_file,
                           "--rule", "firm-optimal", "--agent", "w1")
        assert code == 0
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out

    def test_all_agents(self, capsys, demo_file):
        code, out, _ = run(capsys, "verify-gmt", demo_file,
                           "--rule", "select-first", "--all-agents")
        assert code == 0
        assert "all assertions hold" in out

    def test_json_assertions_array(self, capsys, demo_file):
        _, out, _ = run(capsys, "verify-gmt", demo_file, "--rule", "firm-optimal",
                        "--agent", "w1", "--format", "json")
        doc = json.loads(out)
        agents = doc["results"]["agents"]
        assert len(agents) == 1
        assert agents[0]["applicable"] is True
        assert agents[0]["targets"][0]["gmt_assertions"] == [True, True, True, True]

    def test_axiom_precondition_exits_3(self, capsys, firms_immune_file):
        code, _, err = run(capsys, "verify-gmt", firms_immune_file,
                           "--rule", "worker-optimal", "--agent", "f1")
        assert code == 3
        assert "aggregate demand" in err

    def test_precondition_error_names_the_agent(self, capsys, f2_not_substitutable_file):
        code, _, err = run(capsys, "verify-gmt", f2_not_substitutable_file,
                           "--rule", "firm-optimal", "--agent", "f1")
        assert code == 3
        assert err == "error: f2 fails substitutability\n"

    def test_agent_and_all_agents_mutually_exclusive(self, demo_file):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify-gmt", demo_file, "--rule", "firm-optimal",
                  "--agent", "w1", "--all-agents"])
        assert exc_info.value.code == 2


class TestPaperExamples:
    def test_exits_zero_with_all_checks_passing(self, capsys):
        code, out, _ = run(capsys, "paper-examples")
        assert code == 0
        assert "[FAIL]" not in out
        assert "26/26 checks passed" in out

    def test_json_lists_every_check(self, capsys):
        code, out, _ = run(capsys, "paper-examples", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["all_passed"] is True
        assert len(doc["results"]["checks"]) == 26
        markets = {c["market"] for c in doc["results"]["checks"]}
        assert markets == {"manipulation-demo", "firms-immune", "workers-immune"}

    def test_json_checks_are_the_bundled_rows_as_they_are(self, capsys):
        _, out, _ = run(capsys, "paper-examples", "--format", "json")
        assert json.loads(out)["results"]["checks"] == run_bundled_checks()


def test_the_shared_parser_carries_no_state_from_one_call_to_the_next(capsys, demo_file):
    # the argument parser is built once per process: after a usage error and
    # a JSON call, each call still prints what it prints in a process of its own
    json_call = ["verify-gmt", demo_file, "--rule", "firm-optimal", "--all-agents",
                 "--format", "json"]
    text_call = ["verify-gmt", demo_file, "--rule", "select-last", "--agent", "w1"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    alone = []
    for argv in (json_call, text_call):
        proc = subprocess.run([sys.executable, "-m", "manymatch.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        alone.append((proc.returncode, proc.stdout, proc.stderr))

    with pytest.raises(SystemExit) as exc_info:
        main(["verify-gmt", demo_file, "--rule", "worker-optimal", "--format", "json",
              "--agent", "w1", "--all-agents"])
    assert exc_info.value.code == 2
    capsys.readouterr()
    assert [run(capsys, *json_call), run(capsys, *text_call)] == alone
    assert alone[0][1].startswith("{") and alone[1][1].startswith("agent: w1")
