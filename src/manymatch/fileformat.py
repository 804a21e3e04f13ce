"""Plain-text market format, parser, serializer, and table rendering.

The format mirrors the list notation used throughout the package::

    # a market ('#' starts a comment anywhere on a line)
    firms: f1 f2 f3
    workers: w1 w2 w3 w4
    pref f1: w2 w3 | w1 | w3
    pref w1: f1 | f3 | f2
    ...

Each agent gets exactly one ``pref`` line; alternatives are separated by
``|`` and members inside an alternative by whitespace.  The empty set is
never written (an agent with no acceptable set gets an empty right-hand
side), alternatives must be distinct, names may not contain ``:``, ``|`` or
``∅`` (the empty-set sign in output), and at most 32 agents per side are allowed.
Everything from the first ``#`` on a line is a comment, so no name can
contain ``#`` either.
"""

from __future__ import annotations

import re
from typing import Sequence

from .core import (
    MarketInstance,
    MatchingError,
    Matching,
    PreferenceRelation,
    Profile,
    Side,
    AgentId,
    MAX_SIDE,
    bits,
)

EMPTY_SET_TEXT = "∅"


class ParseError(MatchingError):
    """A market document failed to parse; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)


def _column(text: str, offset: int, token: str) -> int:
    """1-based column of the first whitespace-separated ``token`` in ``text``,
    where ``text`` starts at 0-based ``offset`` of its line."""
    return next(offset + m.start() + 1 for m in re.finditer(r"\S+", text) if m.group() == token)


def parse_market(text: str) -> MarketInstance:
    """Parse a market document into a validated MarketInstance."""
    declared: dict[str, list[str]] = {}  # "firms" and "workers" -> names
    # (lineno, head, body, and the 0-based offsets of head and body in the raw line)
    pref_lines: list[tuple[int, str, int, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("firms:", "workers:")):
            label, _, body = line.partition(":")
            if label in declared:
                raise ParseError(f"duplicate '{label}:' line", lineno)
            names = body.split()
            for name in names:
                if ":" in name or "|" in name or EMPTY_SET_TEXT in name:
                    raise ParseError(f"agent name {name!r} may not contain ':', '|' or '∅'",
                                     lineno, _column(body, raw.find(":") + 1, name))
            declared[label] = names
        elif line.startswith("pref "):
            head, sep, body = line[len("pref "):].partition(":")
            if not sep:
                raise ParseError("expected ':' after the agent name in a pref line", lineno)
            if len(head.split()) != 1:
                raise ParseError("expected exactly one agent name in a pref line", lineno)
            start = raw.find("pref ") + len("pref ")
            pref_lines.append((lineno, head, start, body, start + len(head) + 1))
        else:
            raise ParseError(f"unrecognized line {line.split()[0]!r}", lineno)

    for label in ("firms", "workers"):
        if label not in declared:
            raise ParseError(f"missing '{label}:' line")
    firm_names, worker_names = declared["firms"], declared["workers"]
    if len(firm_names) > MAX_SIDE or len(worker_names) > MAX_SIDE:
        raise ParseError(f"at most {MAX_SIDE} agents per side are supported")
    if not firm_names or not worker_names:
        raise ParseError("each side needs at least one agent")
    for side_label, names in (("firm", firm_names), ("worker", worker_names)):
        seen = set()
        for name in names:
            if name in seen:
                raise ParseError(f"duplicate {side_label} name {name!r}")
            seen.add(name)
    overlap = set(firm_names) & set(worker_names)
    if overlap:
        raise ParseError(f"name {sorted(overlap)[0]!r} declared on both sides")

    firm_index = {name: i for i, name in enumerate(firm_names)}
    worker_index = {name: j for j, name in enumerate(worker_names)}

    relations: dict[AgentId, PreferenceRelation] = {}
    for lineno, head, start, body, offset in pref_lines:
        name = head.strip()
        if name in firm_index:
            owner = AgentId(Side.FIRM, firm_index[name])
            members, member_side = worker_index, Side.WORKER
        elif name in worker_index:
            owner = AgentId(Side.WORKER, worker_index[name])
            members, member_side = firm_index, Side.FIRM
        else:
            raise ParseError(f"pref line for undeclared agent {name!r}", lineno,
                             _column(head, start, name))
        if owner in relations:
            raise ParseError(f"duplicate pref line for agent {name!r}", lineno)

        ranked: list[int] = []
        seen_masks = set()
        alternatives = body.split("|") if body.strip() else []
        for alt in alternatives:
            tokens = alt.split()
            if not tokens:
                raise ParseError(
                    f"empty alternative in the pref line of {name!r}; "
                    "the empty set is implicit and may not be written", lineno)
            mask = 0
            for token in tokens:
                if token not in members:
                    raise ParseError(
                        f"unknown {member_side.value} name {token!r} in the pref line of {name!r}",
                        lineno, _column(alt, offset, token))
                bit = 1 << members[token]
                if mask & bit:
                    raise ParseError(
                        f"member {token!r} repeated inside one alternative of {name!r}", lineno)
                mask |= bit
            if mask in seen_masks:
                raise ParseError(f"duplicate alternative in the pref line of {name!r}", lineno)
            seen_masks.add(mask)
            ranked.append(mask)
            offset += len(alt) + 1
        relations[owner] = PreferenceRelation(owner=owner, ranked=tuple(ranked))

    for side, names in ((Side.FIRM, firm_names), (Side.WORKER, worker_names)):
        for i, name in enumerate(names):
            if AgentId(side, i) not in relations:
                raise ParseError(f"missing pref line for agent {name!r}")

    profile = Profile(
        firm_prefs=tuple(relations[AgentId(Side.FIRM, i)] for i in range(len(firm_names))),
        worker_prefs=tuple(relations[AgentId(Side.WORKER, j)] for j in range(len(worker_names))),
    )
    return MarketInstance(
        firm_names=tuple(firm_names), worker_names=tuple(worker_names), profile=profile
    )


def format_names(names: Sequence[str]) -> str:
    """``names`` separated by spaces, or the empty-set sign when there are none."""
    return " ".join(names) or EMPTY_SET_TEXT


def relation_names(pref: PreferenceRelation, instance: MarketInstance) -> list[list[str]]:
    """JSON-friendly view: each ranked entry as its members' names in index order."""
    names = instance.side_names(pref.owner.side.opposite)
    return [[names[i] for i in bits(entry)] for entry in pref.ranked]


def format_relation(ranked: list[list[str]]) -> str:
    """A ``relation_names`` view in pref-line notation: entries separated by '|'."""
    return " | ".join(format_names(entry) for entry in ranked)


def serialize_market(instance: MarketInstance) -> str:
    """Canonical document: headers, then one pref line per agent in side and
    index order, members inside each alternative in index order."""
    lines = [
        "firms: " + " ".join(instance.firm_names),
        "workers: " + " ".join(instance.worker_names),
    ]
    for agent in instance.profile.agents():
        body = format_relation(relation_names(instance.profile[agent], instance))
        name = instance.name_of(agent)
        lines.append(f"pref {name}: {body}" if body else f"pref {name}:")
    return "\n".join(lines) + "\n"


def render_matching(matching: dict[str, list[str]]) -> str:
    """Two-row table of a ``matching_to_dict`` view (firm name -> worker
    names): one column per firm, each cell listing the firm's workers."""
    cells = [format_names(workers) for workers in matching.values()]
    widths = [max(len(h), len(c)) for h, c in zip(matching, cells)]
    header = "  ".join(h.ljust(w) for h, w in zip(matching, widths)).rstrip()
    row = "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return header + "\n" + row


def matching_to_dict(mu: Matching, instance: MarketInstance) -> dict[str, list[str]]:
    """JSON-friendly view: firm name -> worker names, [] for unmatched."""
    return {name: [instance.worker_names[w] for w in bits(mu.row(f))]
            for f, name in enumerate(instance.firm_names)}
