"""Command-line interface.

Every command builds one result payload.  ``--format json`` prints it as
JSON; the text format is rendered from that payload alone, so the two formats
always carry the same data.

Exit codes: 0 success; 1 a violation or failed assertion was found (with
``--strict`` where applicable); 2 usage errors; 3 parse or semantic errors in
the input.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring

from .axioms import check_lad, check_substitutable
from .core import MarketInstance, MatchingError, bits
from .fileformat import (
    ParseError,
    format_names,
    format_relation,
    matching_to_dict,
    parse_market,
    relation_names,
    render_matching,
)
from .manipulation import gmt_counterexample_check, verify_gmt
from .markets import run_bundled_checks
from .solver import StableRule, apply_rule
from .stability import enumerate_stable

_RULES = {rule.value: rule for rule in StableRule}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="manymatch",
        description="Many-to-many matching markets: stability, side-optimal rules, manipulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", parents=[common],
                                help="check preference axioms for every agent")
    p_validate.add_argument("file")
    p_validate.add_argument("--axiom", choices=("substitutable", "lad", "all"), default="all")
    p_validate.add_argument("--strict", action="store_true",
                            help="exit 1 when any checked axiom is violated")

    p_solve = sub.add_parser("solve", parents=[common], help="apply a stable matching rule")
    p_solve.add_argument("file")
    p_solve.add_argument("--rule", choices=sorted(_RULES), required=True)

    p_enum = sub.add_parser("enumerate", parents=[common],
                            help="list every stable matching in canonical order")
    p_enum.add_argument("file")

    p_manip = sub.add_parser("manipulate", parents=[common],
                             help="search one agent's misreports for a profitable one")
    p_manip.add_argument("file")
    p_manip.add_argument("--agent", required=True)
    p_manip.add_argument("--rule", choices=sorted(_RULES), required=True)
    p_manip.add_argument("--exhaustive", action="store_true",
                         help="search every strict preference list (small opposite sides only)")

    p_gmt = sub.add_parser("verify-gmt", parents=[common],
                           help="verify the truncation construction's four assertions")
    p_gmt.add_argument("file")
    p_gmt.add_argument("--rule", choices=sorted(_RULES), required=True)
    who = p_gmt.add_mutually_exclusive_group(required=True)
    who.add_argument("--agent")
    who.add_argument("--all-agents", action="store_true")

    sub.add_parser("paper-examples", parents=[common],
                   help="run the bundled example markets against their recorded outcomes")

    return parser


def _load(path: str) -> MarketInstance:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    return parse_market(text)


def _cmd_validate(args, instance: MarketInstance) -> tuple[int, dict]:
    p = instance.profile
    # (checker, its JSON label) for each axiom ``--axiom`` selects
    checkers = [(checker, label) for checker, axiom, label in (
        (check_substitutable, "substitutable", "substitutability"), (check_lad, "lad", "lad"),
    ) if args.axiom in (axiom, "all")]

    reports = []
    for agent in p.agents():
        names = instance.side_names(agent.side.opposite)
        for checker, label in checkers:
            w = checker(p[agent])
            reports.append({
                "agent": instance.name_of(agent),
                "axiom": label,
                "holds": w is None,
                "witness": None if w is None else {
                    "offer_set": [names[i] for i in bits(w.offer_set)],
                    "reduced_set": [names[i] for i in bits(w.reduced_set)],
                    "kept": names[w.kept] if w.kept is not None else None,
                    "removed": names[w.removed],
                },
            })
    all_hold = all(r["holds"] for r in reports)
    code = 1 if (args.strict and not all_hold) else 0
    return code, {"axiom_reports": reports, "all_hold": all_hold}


def _witness_text(report: dict) -> str:
    w = report["witness"]
    offer, reduced = format_names(w["offer_set"]), format_names(w["reduced_set"])
    if report["axiom"] == "substitutability":
        return (f"S'={{{offer}}} w={w['kept']} w'={w['removed']}: "
                f"{w['kept']} is chosen from S' but not from {{{reduced}}}")
    return (f"X={{{offer}}} Y={{{reduced}}} (removed {w['removed']}): "
            f"Y chooses strictly more partners than X")


def _validate_text(payload: dict) -> list[str]:
    lines = [f"{r['agent']} {r['axiom']}: "
             + ("holds" if r["holds"] else f"VIOLATED  {_witness_text(r)}")
             for r in payload["axiom_reports"]]
    lines.append("all axioms hold" if payload["all_hold"] else "violations found")
    return lines


def _cmd_solve(args, instance: MarketInstance) -> tuple[int, dict]:
    mu = apply_rule(_RULES[args.rule], instance.profile)
    return 0, {"rule": args.rule, "matching": matching_to_dict(mu, instance)}


def _solve_text(payload: dict) -> list[str]:
    return [f"rule: {payload['rule']}", render_matching(payload["matching"])]


def _cmd_enumerate(args, instance: MarketInstance) -> tuple[int, dict]:
    ss = enumerate_stable(instance.profile)
    return 0, {"count": len(ss), "matchings": [matching_to_dict(mu, instance) for mu in ss]}


def _enumerate_text(payload: dict) -> list[str]:
    lines = [f"stable matchings: {payload['count']}"]
    for i, matching in enumerate(payload["matchings"], 1):
        lines += [f"[{i}]", render_matching(matching)]
    return lines


def _cmd_manipulate(args, instance: MarketInstance) -> tuple[int, dict]:
    report = gmt_counterexample_check(instance.profile, _RULES[args.rule],
                                      instance.agent_id(args.agent), exhaustive=args.exhaustive)
    return 0, {
        "agent": instance.name_of(report.agent),
        "rule": report.rule.value,
        "mode": report.mode,
        "not_applicable": report.not_applicable,
        "baseline": matching_to_dict(report.baseline, instance),
        "candidates_total": report.candidates_total,
        "evaluated": report.evaluated,
        "rule_failures": report.rule_failures,
        "profitable": [
            {
                "reported": relation_names(outcome.reported, instance),
                "substitutable": check_substitutable(outcome.reported) is None,
                "lad": check_lad(outcome.reported) is None,
                "matching": matching_to_dict(outcome.manipulated, instance),
                "verdict_common": outcome.verdict_common.value,
                "verdict_blair": outcome.verdict_blair.value,
                "stable_under_truth": outcome.manipulated_stable_under_truth,
            }
            for outcome in report.profitable
        ],
        "search_scope": report.search_scope,
    }


def _manipulate_text(payload: dict) -> list[str]:
    lines = [f"agent: {payload['agent']}   rule: {payload['rule']}   mode: {payload['mode']}"]
    if payload["not_applicable"]:
        return lines + ["not applicable: " + payload["search_scope"]]
    lines.append(
        f"candidates: {payload['candidates_total']}   evaluated: {payload['evaluated']}   "
        f"rule failures: {payload['rule_failures']}")
    lines.append(f"profitable misreports: {len(payload['profitable'])}")
    for found in payload["profitable"]:
        lines.append(f"  reported: {format_relation(found['reported']) or '(empty list)'}")
        lines.append("  " + render_matching(found["matching"]).replace("\n", "\n  "))
        lines.append(
            f"  verdicts: list-order={found['verdict_common']} blair={found['verdict_blair']} "
            f"stable-under-truth={'yes' if found['stable_under_truth'] else 'no'}")
    lines.append(f"scope: {payload['search_scope']}")
    return lines


_ASSERTION_LABELS = (
    "target stays stable under the misreported profile",
    "rule gives the agent exactly the target assignment",
    "agent strictly gains in the Blair order",
    "agent strictly gains in the list order",
)


def _cmd_verify_gmt(args, instance: MarketInstance) -> tuple[int, dict]:
    p = instance.profile
    agents = list(p.agents()) if args.all_agents else [instance.agent_id(args.agent)]
    verifications = [verify_gmt(a, _RULES[args.rule], p) for a in agents]
    failed = any(v.applicable and not v.all_hold for v in verifications)
    return (1 if failed else 0), {"rule": args.rule, "agents": [
        {
            "agent": instance.name_of(v.agent),
            "rule": v.rule.value,
            "applicable": v.applicable,
            "baseline": matching_to_dict(v.baseline, instance),
            "side_optimum": matching_to_dict(v.side_optimum, instance) if v.side_optimum else None,
            "targets": [
                {
                    "target": matching_to_dict(check.target, instance),
                    "reported": relation_names(check.outcome.reported, instance),
                    "substitutable": check_substitutable(check.outcome.reported) is None,
                    "lad": check_lad(check.outcome.reported) is None,
                    "gmt_assertions": list(check.assertions),
                }
                for check in v.checks
            ],
            "all_hold": v.all_hold,
        }
        for v in verifications
    ]}


def _verify_gmt_text(payload: dict) -> list[str]:
    lines = []
    for v in payload["agents"]:
        name = v["agent"]
        lines.append(f"agent: {name}  rule: {v['rule']}")
        if not v["applicable"]:
            lines.append("  not applicable: the rule already assigns this agent its side-optimum")
            continue
        for check in v["targets"]:
            # a firm's assignment is its own row; a worker's is the firms whose rows name it
            target = check["target"]
            assigned = target[name] if name in target else [
                firm for firm, workers in target.items() if name in workers]
            lines.append(f"  target assignment: {{{format_names(assigned)}}}  "
                         f"reported: {format_relation(check['reported']) or '(empty list)'}")
            for label, ok in zip(_ASSERTION_LABELS, check["gmt_assertions"]):
                lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    failed = any(v["applicable"] and not v["all_hold"] for v in payload["agents"])
    lines.append("all assertions hold" if not failed else "ASSERTION FAILURES FOUND")
    return lines


def _cmd_paper_examples(args, instance: None) -> tuple[int, dict]:
    checks = run_bundled_checks()
    ok = all(c["passed"] for c in checks)
    return (0 if ok else 1), {"checks": checks, "all_passed": ok}


def _paper_examples_text(payload: dict) -> list[str]:
    lines = []
    for c in payload["checks"]:
        lines.append(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['market']}: {c['name']}")
        if not c["passed"]:
            lines.append(f"       expected: {c['expected']}")
            lines.append(f"       actual:   {c['actual']}")
    passed = sum(c["passed"] for c in payload["checks"])
    lines.append(f"{passed}/{len(payload['checks'])} checks passed")
    return lines


def _write_json(value, out: list[str], indent: str = "") -> None:
    """Append ``value`` to ``out`` exactly as ``json.dumps(value, indent=2,
    ensure_ascii=False)`` writes it, for the payload types (dict with str
    keys, list, str, int, bool, None); ``indent`` is the current line's."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        for key, item in value.items():
            out += (encode_basestring(key), ": ")
            _write_json(item, out, inner)
            out.append(",\n" + inner)
        out[-1] = "\n" + indent + "}"  # the last item takes no comma
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[\n" + inner)
        for item in value:
            _write_json(item, out, inner)
            out.append(",\n" + inner)
        out[-1] = "\n" + indent + "]"
    else:
        raise TypeError(f"{type(value).__name__} is not a payload type")


def _json_text(value) -> str:
    """``value`` as two-space-indented JSON with non-ASCII text kept as is."""
    out: list[str] = []
    _write_json(value, out)
    return "".join(out)


# command -> (handler returning (exit code, payload), text view of the payload)
_COMMANDS = {
    "validate": (_cmd_validate, _validate_text),
    "solve": (_cmd_solve, _solve_text),
    "enumerate": (_cmd_enumerate, _enumerate_text),
    "manipulate": (_cmd_manipulate, _manipulate_text),
    "verify-gmt": (_cmd_verify_gmt, _verify_gmt_text),
    "paper-examples": (_cmd_paper_examples, _paper_examples_text),
}
# built once per process: each parse_args call fills a fresh namespace
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handler, text_view = _COMMANDS[args.command]
    instance = None
    try:
        if args.command != "paper-examples":
            instance = _load(args.file)
        code, payload = handler(args, instance)
    except (MatchingError, ValueError) as exc:
        message = str(exc)
        if getattr(exc, "agent", None) is not None and instance is not None:
            message = exc.naming(instance.name_of(exc.agent))
        print(f"error: {message}", file=sys.stderr)
        return 3

    if args.format == "text":
        print("\n".join(text_view(payload)))
        return code
    document = {"command": args.command, "instance": None, "results": payload}
    if instance is not None:
        document["instance"] = {
            "firms": list(instance.firm_names),
            "workers": list(instance.worker_names),
            "preferences": {
                instance.name_of(a): relation_names(instance.profile[a], instance)
                for a in instance.profile.agents()
            },
        }
    print(_json_text(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
