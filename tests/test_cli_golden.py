"""Golden CLI outputs: the sha256 of (exit code, stdout, stderr) for 132
invocations on the three bundled markets and ``paper-examples``, in text and
JSON.

``cli_golden.json`` maps each invocation, written with the market's name in
place of its file, to its digest.  Every command's output is compared byte
for byte, so a refactor that changes any of it fails here by name.
"""

import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from manymatch.cli import main
from manymatch.fileformat import serialize_market
from manymatch.markets import BUNDLED, bundled

DIGESTS = Path(__file__).with_name("cli_golden.json")
RULES = ("firm-optimal", "worker-optimal", "select-first", "select-last")
FORMATS = ("text", "json")


def invocations(market: str, firm: str, worker: str):
    """The command and its options, without the file, for one market whose
    first firm and first worker are ``firm`` and ``worker``."""
    yield ("validate",)
    yield ("validate", "--axiom", "lad", "--strict")
    yield ("validate", "--axiom", "substitutable")
    yield ("enumerate",)
    yield ("verify-gmt", "--rule", "firm-optimal", "--agent", worker)
    for rule in RULES:
        yield ("solve", "--rule", rule)
        yield ("verify-gmt", "--rule", rule, "--all-agents")
        yield ("manipulate", "--agent", firm, "--rule", rule)
        yield ("manipulate", "--agent", worker, "--rule", rule)
    if market == "workers-immune":
        # 16 candidates: every strict list over the two firms
        yield ("manipulate", "--agent", worker, "--rule", "firm-optimal", "--exhaustive")
    if market == "manipulation-demo":
        # exit 3: the agent is not in the market
        yield ("manipulate", "--agent", "nobody", "--rule", "firm-optimal")


def digest(argv: list[str]) -> str:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    document = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def observed_digests(directory: Path) -> dict[str, str]:
    digests = {}
    for fmt in FORMATS:
        key = f"paper-examples --format {fmt}"
        digests[key] = digest(key.split())
    for market in BUNDLED:
        instance = bundled(market)
        path = directory / f"{market}.market"
        path.write_text(serialize_market(instance), encoding="utf-8")
        for command, *options in invocations(market, instance.firm_names[0],
                                             instance.worker_names[0]):
            for fmt in FORMATS:
                tail = [*options, "--format", fmt]
                key = " ".join([command, market, *tail])
                digests[key] = digest([command, str(path), *tail])
    return digests


def test_cli_outputs_match_the_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = observed_digests(tmp_path)
    assert len(actual) == 132
    assert sorted(actual) == sorted(expected)
    differing = [key for key in expected if actual[key] != expected[key]]
    assert not differing, "output differs for: " + "; ".join(differing)
