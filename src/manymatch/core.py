"""Core types for many-to-many matching markets.

Two disjoint sides (firms and workers); every agent holds a strict ranking
over subsets of the opposite side, written as an ordered list of acceptable
sets with the empty set as the implicit worst acceptable outcome.  A matching
is an arbitrary set of firm-worker edges, stored as one worker bitmask per
firm.  Every partner set is a plain ``int`` mask over the indices of the
owning agent's opposite side, capped at 32 agents per side; the owner gives
the mask its side.

All values are immutable after construction and all operations are pure.
``PreferenceRelation`` and ``Profile`` key the package's caches, so each
keeps its hash, computed on first use, in a private non-field attribute.  A
``Profile`` also carries, in a second such attribute, the memo that ``kept``
fills with results that depend on the profile alone (the manipulation
module's truthful rule outputs, which hold each side's optimum when every
relation is substitutable, and its axiom verdict); it is created on first use
and lives as long as the object, so a newly built profile starts with none.
Equality and ``repr`` stay the generated ones, and neither they nor the hash
read either attribute.  No hash in this module covers a string or enum hash
(those vary with ``PYTHONHASHSEED``), so a kept hash that ``pickle`` carries
to another process of the same interpreter build stays valid.  Only this
module writes either attribute or builds a record without its checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

MAX_SIDE = 32

_T = TypeVar("_T")
_MISSING = object()  # a ``kept`` miss; None is a value the memo keeps


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(masks: Iterable[int], size: int) -> list[int]:
    """Swap the two index roles: bit j of ``masks[i]`` becomes bit i of
    ``out[j]``.  Bits at or above ``size`` are dropped."""
    out = [0] * size
    for i, mask in enumerate(masks):
        for j in bits(mask & ((1 << size) - 1)):
            out[j] |= 1 << i
    return out


def _hash_once(key: Callable[..., tuple]) -> Callable[..., int]:
    """A ``__hash__`` that hashes ``key(self)`` once and keeps it in the instance."""
    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(key(self)))
            return self._hash
    return __hash__


def kept(record: object, key: Hashable, compute: Callable[[], _T]) -> _T:
    """``compute()``, kept under ``key`` in the memo dict that ``record``
    carries outside its fields.  A ``compute()`` that raises stores nothing,
    so the next call raises again."""
    try:
        memo = record._memo
    except AttributeError:
        memo = {}
        object.__setattr__(record, "_memo", memo)
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


def unchecked(cls: type[_T], **fields: object) -> _T:
    """A ``cls`` record holding ``fields`` as its constructor would store
    them, without ``__post_init__``.  Each field is set on its own: reading
    ``__dict__`` would give the record a second dict to carry."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


class MatchingError(Exception):
    """Base class for domain errors raised by this package.

    An error about one agent names it as ``{agent}`` in ``template``: the
    message fills in its side and index, and ``naming`` fills in a name the
    caller knows it by.
    """

    def __init__(self, template: str, agent: AgentId | None = None) -> None:
        self.template = template
        self.agent = agent
        super().__init__(template if agent is None else self.naming(str(agent)))

    def naming(self, name: str) -> str:
        return self.template.format(agent=name)


class UnsupportedSizeError(MatchingError):
    """A market or search space exceeds a hard size cap."""


class PreconditionError(MatchingError):
    """An operation's stated precondition does not hold for ``agent``."""


class NoStableMatchingError(MatchingError):
    """A selection rule was asked to pick from an empty stable set."""


class Side(Enum):
    FIRM = "firm"
    WORKER = "worker"

    @property
    def opposite(self) -> "Side":
        return Side.WORKER if self is Side.FIRM else Side.FIRM


@dataclass(frozen=True)
class AgentId:
    """Identity of one agent: which side it is on, and its index there."""

    side: Side
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"agent index must be non-negative, got {self.index}")

    def __str__(self) -> str:
        return f"{self.side.value} {self.index}"

    def __hash__(self) -> int:
        return hash((self.side is Side.WORKER, self.index))


@dataclass(frozen=True)
class PreferenceRelation:
    """One agent's strict ranking of acceptable partner sets, best first,
    each a mask over the opposite side.

    The empty set never appears in ``ranked``: it is implicitly ranked just
    below the last entry, and every unlisted nonempty set is unacceptable.
    """

    owner: AgentId
    ranked: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranked", tuple(self.ranked))
        for entry in self.ranked:
            if not 0 < entry < 1 << MAX_SIDE:
                raise ValueError(f"partner mask {entry} out of range in preference of "
                                 f"{self.owner} (nonempty, capacity {MAX_SIDE} per side)")
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"duplicate entry in preference of {self.owner}")

    __hash__ = _hash_once(lambda pref: (pref.owner, pref.ranked))

    def rank_of(self, subset: int) -> int | None:
        """Position of the mask ``subset`` in the order; len(ranked) for the
        empty set, None for unlisted (unacceptable) sets."""
        if not subset:
            return len(self.ranked)
        return self.ranked.index(subset) if subset in self.ranked else None


def choice_mask(offer_mask: int, pref: PreferenceRelation) -> int:
    """The best subset of ``offer_mask`` under ``pref``: the first ranked
    entry contained in the offer, or 0 when none qualifies."""
    for entry in pref.ranked:
        if entry & ~offer_mask == 0:
            return entry
    return 0


@dataclass(frozen=True)
class Profile:
    """One preference relation per agent, firms first then workers."""

    firm_prefs: tuple[PreferenceRelation, ...]
    worker_prefs: tuple[PreferenceRelation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "firm_prefs", tuple(self.firm_prefs))
        object.__setattr__(self, "worker_prefs", tuple(self.worker_prefs))
        if len(self.firm_prefs) > MAX_SIDE or len(self.worker_prefs) > MAX_SIDE:
            raise UnsupportedSizeError(f"at most {MAX_SIDE} agents per side")
        for side, prefs, opp_count in (
            (Side.FIRM, self.firm_prefs, len(self.worker_prefs)),
            (Side.WORKER, self.worker_prefs, len(self.firm_prefs)),
        ):
            for i, pref in enumerate(prefs):
                if pref.owner.side is not side or pref.owner.index != i:
                    raise ValueError(f"preference at {side.value} slot {i} owned by {pref.owner}")
                # exact: an entry names an unknown partner iff it is >= 1 << opp_count
                if max(pref.ranked, default=0) >> opp_count:
                    raise ValueError(f"preference of {pref.owner} references unknown partners")

    __hash__ = _hash_once(lambda p: (p.firm_prefs, p.worker_prefs))

    @property
    def num_firms(self) -> int:
        return len(self.firm_prefs)

    @property
    def num_workers(self) -> int:
        return len(self.worker_prefs)

    def side_count(self, side: Side) -> int:
        return len(self.firm_prefs if side is Side.FIRM else self.worker_prefs)

    def agents(self) -> Iterator[AgentId]:
        """Every agent, firms first: the relations' owners, each at its own slot."""
        for prefs in (self.firm_prefs, self.worker_prefs):
            for pref in prefs:
                yield pref.owner

    def __getitem__(self, agent: AgentId) -> PreferenceRelation:
        prefs = self.firm_prefs if agent.side is Side.FIRM else self.worker_prefs
        try:
            return prefs[agent.index]
        except IndexError:
            raise ValueError(f"no {agent} in the profile") from None


def replace_preference(profile: Profile, pref: PreferenceRelation) -> Profile:
    """A new profile identical to ``profile`` except at ``pref.owner``; only ``pref`` is checked."""
    sides = [profile.firm_prefs, profile.worker_prefs]
    s, i = int(pref.owner.side is Side.WORKER), pref.owner.index
    if i >= len(sides[s]):
        raise ValueError(f"no {pref.owner} in the profile")
    if max(pref.ranked, default=0) >> len(sides[1 - s]):
        raise ValueError(f"preference of {pref.owner} references unknown partners")
    sides[s] = sides[s][:i] + (pref,) + sides[s][i + 1:]
    return unchecked(Profile, firm_prefs=sides[0], worker_prefs=sides[1])


@dataclass(frozen=True)
class Matching:
    """A set of (firm index, worker index) edges, stored as firm rows.

    ``rows[f]`` is the worker bitmask of firm f.  Trailing empty rows are
    dropped on construction, so two matchings are equal exactly when their
    edge sets are equal.  Any edge subset is a matching in this model.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if any(row < 0 for row in rows):
            raise ValueError(f"matching rows must be non-negative, got {rows}")
        while rows and not rows[-1]:
            rows = rows[:-1]
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        rows: list[int] = []
        for f, w in pairs:
            if f < 0 or w < 0:
                raise ValueError(f"edge ({f}, {w}) has a negative index")
            rows.extend([0] * (f + 1 - len(rows)))
            rows[f] |= 1 << w
        return cls(tuple(rows))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(())

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((f, w) for f, row in enumerate(self.rows) for w in bits(row))

    def row(self, f: int) -> int:
        """Worker bitmask of firm ``f``; 0 for firms past the stored rows."""
        return self.rows[f] if f < len(self.rows) else 0


def matched_set(mu: Matching, agent: AgentId) -> int:
    """The partners of ``agent`` under ``mu``, a mask over the opposite
    side; 0 for single agents."""
    if agent.side is Side.FIRM:
        return mu.row(agent.index)
    return sum((row >> agent.index & 1) << f for f, row in enumerate(mu.rows))


@dataclass(frozen=True)
class MarketInstance:
    """Named agents plus their preference profile: the unit of parsing and solving."""

    firm_names: tuple[str, ...]
    worker_names: tuple[str, ...]
    profile: Profile

    def __post_init__(self) -> None:
        for side in Side:
            if len(set(self.side_names(side))) != len(self.side_names(side)):
                raise ValueError(f"duplicate {side.value} names")
        for side in Side:
            if len(self.side_names(side)) != self.profile.side_count(side):
                raise ValueError(f"{side.value} name count does not match profile")

    def agent_id(self, name: str) -> AgentId:
        for side in Side:
            if name in self.side_names(side):
                return AgentId(side, self.side_names(side).index(name))
        raise MatchingError(f"unknown agent name {name!r}")

    def name_of(self, agent: AgentId) -> str:
        return self.side_names(agent.side)[agent.index]

    def side_names(self, side: Side) -> tuple[str, ...]:
        return self.firm_names if side is Side.FIRM else self.worker_names
