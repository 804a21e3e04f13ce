"""Command-line interface.

Every command builds one result payload and renders it either as text or as
JSON (``--format json``), so the two formats always carry the same data.

Exit codes: 0 success; 1 a violation or failed assertion was found (with
``--strict`` where applicable); 2 usage errors; 3 parse or semantic errors in
the input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import Axiom, AxiomReport, check_lad, check_substitutable
from .core import MarketInstance, MatchingError, bits, matched_set
from .fileformat import (
    ParseError,
    format_partner_set,
    format_relation,
    matching_to_dict,
    parse_market,
    render_matching,
)
from .manipulation import (
    CounterexampleReport,
    GmtVerification,
    gmt_counterexample_check,
    verify_gmt,
)
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


def _axiom_report_payload(name: str, report: AxiomReport, instance: MarketInstance) -> dict:
    payload = {
        "agent": name,
        "axiom": report.axiom.value,
        "holds": report.holds,
        "witness": None,
    }
    if report.witness is not None:
        w = report.witness
        opposite = instance.side_names(w.agent.side.opposite)
        payload["witness"] = {
            "offer_set": [opposite[i] for i in bits(w.offer_set)],
            "reduced_set": [opposite[i] for i in bits(w.reduced_set)],
            "kept": opposite[w.kept] if w.kept is not None else None,
            "removed": opposite[w.removed],
        }
    return payload


def _witness_text(report: AxiomReport, instance: MarketInstance) -> str:
    w = report.witness
    names = instance.side_names(w.agent.side.opposite)
    offer = format_partner_set(w.offer_set, names)
    reduced = format_partner_set(w.reduced_set, names)
    if report.axiom is Axiom.SUBSTITUTABILITY:
        return (f"S'={{{offer}}} w={names[w.kept]} w'={names[w.removed]}: "
                f"{names[w.kept]} is chosen from S' but not from {{{reduced}}}")
    return (f"X={{{offer}}} Y={{{reduced}}} (removed {names[w.removed]}): "
            f"Y chooses strictly more partners than X")


def _cmd_validate(args, instance: MarketInstance) -> tuple[int, dict, list[str]]:
    p = instance.profile
    checkers = []
    if args.axiom in ("substitutable", "all"):
        checkers.append(("substitutability", check_substitutable))
    if args.axiom in ("lad", "all"):
        checkers.append(("lad", check_lad))

    reports = []
    lines = []
    all_hold = True
    for agent in p.agents():
        name = instance.name_of(agent)
        for label, checker in checkers:
            report = checker(p[agent])
            all_hold &= report.holds
            reports.append(_axiom_report_payload(name, report, instance))
            if report.holds:
                lines.append(f"{name} {label}: holds")
            else:
                lines.append(f"{name} {label}: VIOLATED  {_witness_text(report, instance)}")
    lines.append("all axioms hold" if all_hold else "violations found")
    code = 1 if (args.strict and not all_hold) else 0
    return code, {"axiom_reports": reports, "all_hold": all_hold}, lines


def _cmd_solve(args, instance: MarketInstance) -> tuple[int, dict, list[str]]:
    mu = apply_rule(_RULES[args.rule], instance.profile)
    payload = {"rule": args.rule, "matching": matching_to_dict(mu, instance)}
    lines = [f"rule: {args.rule}", render_matching(mu, instance)]
    return 0, payload, lines


def _cmd_enumerate(args, instance: MarketInstance) -> tuple[int, dict, list[str]]:
    ss = enumerate_stable(instance.profile)
    payload = {
        "count": len(ss),
        "matchings": [matching_to_dict(mu, instance) for mu in ss],
    }
    lines = [f"stable matchings: {len(ss)}"]
    for i, mu in enumerate(ss, 1):
        lines.append(f"[{i}]")
        lines.append(render_matching(mu, instance))
    return 0, payload, lines


def _relation_names(relation, instance) -> list[list[str]]:
    names = instance.side_names(relation.owner.side.opposite)
    return [[names[i] for i in bits(entry)] for entry in relation.ranked]


def _counterexample_payload(report: CounterexampleReport, instance: MarketInstance) -> dict:
    return {
        "agent": instance.name_of(report.agent),
        "rule": report.rule.value,
        "mode": report.mode,
        "not_applicable": report.not_applicable,
        "baseline": matching_to_dict(report.baseline, instance) if report.baseline else None,
        "candidates_total": report.candidates_total,
        "evaluated": report.evaluated,
        "rule_failures": report.rule_failures,
        "profitable": [
            {
                "reported": _relation_names(outcome.misreport.reported, instance),
                "substitutable": check_substitutable(outcome.misreport.reported).holds,
                "lad": check_lad(outcome.misreport.reported).holds,
                "matching": matching_to_dict(outcome.manipulated, instance),
                "verdict_common": outcome.verdict_common.value,
                "verdict_blair": outcome.verdict_blair.value,
                "stable_under_truth": outcome.manipulated_stable_under_truth,
            }
            for outcome in report.profitable
        ],
        "search_scope": report.search_scope,
    }


def _cmd_manipulate(args, instance: MarketInstance) -> tuple[int, dict, list[str]]:
    report = gmt_counterexample_check(instance.profile, _RULES[args.rule],
                                      instance.agent_id(args.agent), exhaustive=args.exhaustive)
    payload = _counterexample_payload(report, instance)
    lines = [f"agent: {args.agent}   rule: {args.rule}   mode: {report.mode}"]
    if report.not_applicable:
        lines.append("not applicable: " + report.search_scope)
    else:
        lines.append(
            f"candidates: {report.candidates_total}   evaluated: {report.evaluated}   "
            f"rule failures: {report.rule_failures}")
        lines.append(f"profitable misreports: {len(report.profitable)}")
        for outcome in report.profitable:
            reported = format_relation(outcome.misreport.reported, instance) or "(empty list)"
            lines.append(f"  reported: {reported}")
            lines.append("  " + render_matching(outcome.manipulated, instance).replace("\n", "\n  "))
            lines.append(
                f"  verdicts: list-order={outcome.verdict_common.value} "
                f"blair={outcome.verdict_blair.value} "
                f"stable-under-truth={'yes' if outcome.manipulated_stable_under_truth else 'no'}")
        lines.append(f"scope: {report.search_scope}")
    return 0, payload, lines


_ASSERTION_LABELS = (
    "target stays stable under the misreported profile",
    "rule gives the agent exactly the target assignment",
    "agent strictly gains in the Blair order",
    "agent strictly gains in the list order",
)


def _gmt_payload(v: GmtVerification, instance: MarketInstance) -> dict:
    return {
        "agent": instance.name_of(v.agent),
        "rule": v.rule.value,
        "applicable": v.applicable,
        "baseline": matching_to_dict(v.baseline, instance),
        "side_optimum": matching_to_dict(v.side_optimum, instance) if v.side_optimum else None,
        "targets": [
            {
                "target": matching_to_dict(check.target, instance),
                "reported": _relation_names(check.outcome.misreport.reported, instance),
                "substitutable": check_substitutable(check.outcome.misreport.reported).holds,
                "lad": check_lad(check.outcome.misreport.reported).holds,
                "gmt_assertions": list(check.assertions),
            }
            for check in v.checks
        ],
        "all_hold": v.all_hold,
    }


def _gmt_text(v: GmtVerification, instance: MarketInstance) -> list[str]:
    name = instance.name_of(v.agent)
    lines = [f"agent: {name}  rule: {v.rule.value}"]
    if not v.applicable:
        lines.append("  not applicable: the rule already assigns this agent its side-optimum")
        return lines
    for check in v.checks:
        target = format_partner_set(matched_set(check.target, v.agent),
                                    instance.side_names(v.agent.side.opposite))
        reported = format_relation(check.outcome.misreport.reported, instance) or "(empty list)"
        lines.append(f"  target assignment: {{{target}}}  reported: {reported}")
        for label, ok in zip(_ASSERTION_LABELS, check.assertions):
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    return lines


def _cmd_verify_gmt(args, instance: MarketInstance) -> tuple[int, dict, list[str]]:
    p = instance.profile
    rule = _RULES[args.rule]
    agents = list(p.agents()) if args.all_agents else [instance.agent_id(args.agent)]

    verifications = [verify_gmt(a, rule, p) for a in agents]
    payload = {"rule": args.rule, "agents": [_gmt_payload(v, instance) for v in verifications]}
    lines: list[str] = []
    for v in verifications:
        lines.extend(_gmt_text(v, instance))
    failed = any(v.applicable and not v.all_hold for v in verifications)
    lines.append("all assertions hold" if not failed else "ASSERTION FAILURES FOUND")
    return (1 if failed else 0), payload, lines


def _cmd_paper_examples(args, instance: None) -> tuple[int, dict, list[str]]:
    checks = run_bundled_checks()
    payload = {
        "checks": [
            {
                "market": c.market,
                "name": c.name,
                "passed": c.passed,
                "expected": c.expected,
                "actual": c.actual,
            }
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    lines = []
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.market}: {c.name}")
        if not c.passed:
            lines.append(f"       expected: {c.expected}")
            lines.append(f"       actual:   {c.actual}")
    ok = all(c.passed for c in checks)
    lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return (0 if ok else 1), payload, lines


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "manipulate": _cmd_manipulate,
    "verify-gmt": _cmd_verify_gmt,
    "paper-examples": _cmd_paper_examples,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    instance = None
    try:
        if args.command != "paper-examples":
            instance = _load(args.file)
        code, payload, lines = _HANDLERS[args.command](args, instance)
    except (MatchingError, ValueError) as exc:
        message = str(exc)
        if getattr(exc, "agent", None) is not None and instance is not None:
            message = exc.naming(instance.name_of(exc.agent))
        print(f"error: {message}", file=sys.stderr)
        return 3

    if args.format == "json":
        document = {"command": args.command, "instance": None, "results": payload}
        if instance is not None:
            document["instance"] = {
                "firms": list(instance.firm_names),
                "workers": list(instance.worker_names),
                "preferences": {
                    instance.name_of(a): _relation_names(instance.profile[a], instance)
                    for a in instance.profile.agents()
                },
            }
        print(json.dumps(document, indent=2, ensure_ascii=False))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
