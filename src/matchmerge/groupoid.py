"""Partial groupoids: explicit composition tables and black-box match/merge rules.

The central object is a non-empty carrier with a composition defined only on
some ordered pairs (its domain).  ``FiniteGroupoid`` stores the table
explicitly, which is what the exhaustive audits in the rest of the library
work on; ``BlackBoxGroupoid`` wraps a match predicate and a merge function
over an open universe and is bridged to explicit tables by budgeted closure.
Both are hosts: they answer ``match``, ``merge``, ``key`` and ``features``.
Resolution, and closure of black-box rules, read only those four names;
closure on a table reads the table's defined entries directly.

All operations here are pure functions of immutable inputs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExhaustedError,
    ForeignElementError,
    NotGeneratingSetError,
    NotHomomorphismError,
)

ElementId = str
Pair = tuple[ElementId, ElementId]
Line = dict[ElementId, ElementId]  # a row's y -> x o y, or a column's x -> x o y

CLOSED = "closed"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single law check, with a replayable witness on failure."""

    holds: bool
    witness: tuple[ElementId, ...] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class FiniteGroupoid:
    """Explicit partial groupoid: an ordered carrier plus a composition table.

    The table's key set *is* the composition domain; pairs absent from the
    table are undefined.  Every table value must belong to the carrier.
    """

    elements: tuple[ElementId, ...]
    table: Mapping[Pair, ElementId]
    _position: Mapping[ElementId, int] = field(
        init=False, repr=False, compare=False, default=None
    )
    # Results stored on first request: property verdicts from
    # ``properties.check_property`` (keyed by ``Property``, or ``(Property,
    # bound)`` for NR), ``order.natural_order`` relations (keyed by
    # ``OrderVariant``) and ``quotient.quotient`` results (keyed by
    # ``("quotient", bound)``).  Each is read only by the module that stores
    # it.  Valid only because ``table`` never changes.
    _derived: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # The defined entries filed by operand, ``rows[x] = {y: x o y}`` and
    # ``columns[y] = {x: x o y}``, with every carrier element keyed and each
    # line in carrier order: the entries are bucketed by column, the buckets
    # walked in carrier order to fill the rows, and the rows walked in
    # carrier order to fill the columns, so no pass sorts.  Made on the
    # first request of a line or a closure over the table, and kept for the
    # table's life, which is valid only because ``table`` never changes.
    @cached_property
    def _filing(self) -> tuple[dict[ElementId, Line], dict[ElementId, Line]]:
        elements = self.elements
        buckets: dict[ElementId, list] = {e: [] for e in elements}  # y -> [(x, x o y)]
        for (x, y), xy in self.table.items():
            buckets[y].append((x, xy))
        rows: dict[ElementId, Line] = {e: {} for e in elements}
        for y, bucket in buckets.items():
            for x, xy in bucket:
                rows[x][y] = xy
        columns: dict[ElementId, Line] = {e: {} for e in elements}
        for x, row in rows.items():
            for y, xy in row.items():
                columns[y][x] = xy
        return rows, columns

    _rows = property(lambda self: self._filing[0])
    _columns = property(lambda self: self._filing[1])

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("carrier must be non-empty")
        position = {}
        for i, e in enumerate(elements):
            if not isinstance(e, str):
                raise ValueError(f"element ids must be strings, got {e!r}")
            if e in position:
                raise ValueError(f"duplicate element {e!r} in carrier")
            position[e] = i
        table = dict(self.table)
        for (x, y), v in table.items():
            for e in (x, y, v):
                if e not in position:
                    raise ValueError(
                        f"composition ({x!r}, {y!r}) -> {v!r} mentions {e!r},"
                        " which is outside the carrier"
                    )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_position", position)

    # -- carrier -----------------------------------------------------------
    def __contains__(self, element: ElementId) -> bool:
        return element in self._position

    def __len__(self) -> int:
        return len(self.elements)

    def require(self, element: ElementId) -> ElementId:
        if element not in self._position:
            raise ForeignElementError(element)
        return element

    def require_all(self, elements: Iterable[ElementId]) -> tuple[ElementId, ...]:
        return tuple(self.require(e) for e in elements)

    # -- the host protocol shared with BlackBoxGroupoid --------------------
    def match(self, x: ElementId, y: ElementId) -> bool:
        """Is (x, y) in the domain?  Ids outside the carrier never match.

        Reads through ``table.get``, so a table that counts its lookups
        counts every match.  ``r_swoosh`` asks it; closure does not, since
        it reads a table's defined entries directly."""
        return self.table.get((x, y)) is not None

    def merge(self, x: ElementId, y: ElementId) -> ElementId:
        """The table entry of a matching pair."""
        return self.table[(x, y)]

    key = require  # an element is its own id; a foreign one raises
    features = None  # for ``r_swoosh`` every pair is a candidate for a match

    # -- composition -------------------------------------------------------
    @property
    def domain(self) -> frozenset[Pair]:
        return frozenset(self.table)

    def compose(self, x: ElementId, y: ElementId) -> ElementId | None:
        """Composition of x and y, or None when the pair is undefined.

        Unknown elements raise ForeignElementError; an undefined composition
        is a normal outcome, never an error and never a fabricated value.
        """
        self.require(x)
        self.require(y)
        return self.table.get((x, y))

    def pairs(self) -> Iterator[Pair]:
        """All ordered carrier pairs in carrier order."""
        return itertools.product(self.elements, repeat=2)

    def defined_pairs(self) -> Iterator[Pair]:
        """The composition domain, enumerated in carrier order."""
        return ((x, y) for x, row in self._rows.items() for y in row)

    def restrict(self, subset: Iterable[ElementId]) -> FiniteGroupoid:
        """Partial subgroupoid on ``subset``: compositions whose operands and
        value all stay inside.  Carrier order follows ``subset``'s order.

        Reads only the filed rows of the kept elements, so once the table
        is filed a restriction costs the entries of those rows."""
        kept = self.require_all(subset)
        inside = set(kept)
        rows = self._rows
        table = {(x, y): v for x in kept for y, v in rows[x].items() if y in inside and v in inside}
        return FiniteGroupoid(kept, table)


@dataclass(frozen=True)
class BlackBoxGroupoid:
    """Match/merge rules over an open universe of values.

    ``merge`` must be defined exactly where ``match`` holds and be
    deterministic.  ``key`` canonically serializes a value; two values are
    the same element exactly when their keys are byte-identical, which is
    what makes merge outputs deduplicable during closure.

    ``features``, when given, lists hashable features of a value such that
    ``match(x, y)`` implies ``features(x)`` and ``features(y)`` intersect.
    Closure and ``r_swoosh`` then ask ``match`` only of pairs that share a
    feature, the per-feature value index of F-Swoosh.  Without it every pair
    is a candidate.
    """

    match: Callable[[object, object], bool]
    merge: Callable[[object, object], object]
    key: Callable[[object], ElementId]
    declares_icar: bool = False
    features: Callable[[object], Iterable] | None = None

    def compose(self, x, y):
        """Merge of x and y when they match, else None."""
        if self.match(x, y):
            return self.merge(x, y)
        return None


@dataclass(frozen=True)
class Budget:
    """Caps for closure computations.

    Closures of finite instances can be infinite, so unbounded iteration is
    never acceptable; these defaults are generous for desk-scale inputs.
    """

    max_elements: int = 10_000
    max_rounds: int = 1_000


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of closing a seed set under all defined compositions.

    ``status`` is ``"closed"`` when a fixed point was reached, or
    ``"budget_exhausted"`` with the partial carrier otherwise.  ``objects``
    maps every carrier id back to its value: a black-box value, or the id
    itself on an explicit host.

    Every host's table is the one the closure recorded as it composed, each
    ordered pair at most once.  When closed, that is every pair of the
    carrier, so the table is the host's restriction to the carrier.  On
    budget exhaustion it holds the compositions evaluated before the stop
    whose value lies in the partial carrier; pairs never composed, and the
    composition that broke the budget, are absent.  An explicit host's own
    restriction to a partial carrier is ``host.restrict(result.carrier)``.
    """

    status: str
    carrier: tuple[ElementId, ...]
    groupoid: FiniteGroupoid
    iterations: int
    budget: Budget
    objects: Mapping[ElementId, object]

    @property
    def closed(self) -> bool:
        return self.status == CLOSED


def _keyed_members(host, members) -> dict[ElementId, object]:
    """Each member under its key, in key order; the first of equal keys wins.

    Keys each member once.  Closure and ``r_swoosh`` take their members from
    here; a foreign id on an explicit host raises ``ForeignElementError``."""
    keyed: dict[ElementId, object] = {}
    for m in members:
        keyed.setdefault(host.key(m), m)
    return dict(sorted(keyed.items()))  # keys are distinct, so values never compare


def _closed_groupoid(closure: ClosureResult) -> FiniteGroupoid:
    """The closure's table, or ``BudgetExhaustedError`` carrying the closure."""
    if not closure.closed:
        raise BudgetExhaustedError(
            f"closure exceeded the budget after {closure.iterations} rounds"
            f" ({len(closure.carrier)} elements)",
            closure,
        )
    return closure.groupoid


def _feature_tuple(features, value) -> tuple:
    """The distinct features of ``value``, in the order ``features`` gives
    them; ``features`` is a host's, or None for one feature shared by all."""
    return tuple(dict.fromkeys(features(value))) if features else (None,)


def _close_under_composition(host, items, budget):
    """Fixed-point worklist of ``generated_subgroupoid``.

    ``items`` are the seeds by key, from ``_keyed_members``.  Each round
    composes every defined pair with at least one operand discovered in the
    previous round (all pairs in round one), in carrier order of the pair,
    so no pair is composed twice.  A new element that would push the
    carrier past ``max_elements`` is dropped and the run reports
    exhaustion.  Returns the status, the carrier's items by id, the rounds
    run, and the table ``(xid, yid) -> zid`` of the compositions evaluated
    whose value is in the carrier.

    The round's compositions come from ``_table_compositions`` on an
    explicit host and from ``_rule_compositions`` otherwise; both skip
    exactly the pairs that compose to nothing, so the carrier order, the
    table and the point where the budget stops the run do not depend on
    which one runs.
    """
    table: dict[Pair, ElementId] = {}
    if len(items) > budget.max_elements:
        return BUDGET_EXHAUSTED, items, 0, table
    if isinstance(host, FiniteGroupoid):
        compositions = _table_compositions(host, items)
    else:
        compositions = _rule_compositions(host, items)
    rounds = 0
    start = 0  # the first carrier position found in the previous round
    while True:
        if rounds >= budget.max_rounds:
            return BUDGET_EXHAUSTED, items, rounds, table
        rounds += 1
        fresh: dict[ElementId, object] = {}
        for xid, yid, zid, z in compositions(start):
            if zid not in items and zid not in fresh:
                if len(items) + len(fresh) >= budget.max_elements:
                    items.update(fresh)
                    return BUDGET_EXHAUSTED, items, rounds, table
                fresh[zid] = z
            table[(xid, yid)] = zid
        if not fresh:
            return CLOSED, items, rounds, table
        start = len(items)
        items.update(fresh)


def _table_compositions(g: FiniteGroupoid, items):
    """A closure round on an explicit host: ``compositions(start)`` yields
    ``(xid, yid, z, z)`` for each defined pair of ``items`` with an operand
    at carrier position ``start`` or later, ascending by the pair's
    positions.

    Those pairs are the keys of the new elements' rows, and of their
    columns restricted to older elements, from the table's filing, sorted
    here by closure position, which need not be carrier order.  Each value
    is read through ``g.table.get``, so a table that counts its lookups
    counts every composition.
    """
    rows, columns = g._filing
    position: dict[ElementId, int] = {}  # carrier id -> closure position

    def compositions(start):
        ids = list(items)
        n = len(ids)
        for i in range(len(position), n):
            position[ids[i]] = i
        pairs = []  # i * n + j for the pair at closure positions (i, j)
        for i in range(start, n):
            e = ids[i]
            for y in rows[e]:
                j = position.get(y)
                if j is not None:
                    pairs.append(i * n + j)
            for x in columns[e]:
                h = position.get(x)
                if h is not None and h < start:
                    pairs.append(h * n + i)
        pairs.sort()
        get = g.table.get
        for ij in pairs:
            i, j = divmod(ij, n)
            xid, yid = ids[i], ids[j]
            z = get((xid, yid))
            yield xid, yid, z, z

    return compositions


def _rule_compositions(host, items):
    """A closure round on match/merge rules: ``compositions(start)`` yields
    ``(xid, yid, zid, z)`` for each matching pair of ``items`` with an
    operand at carrier position ``start`` or later, in carrier order.

    Only pairs that share a feature can match, so each ``x`` is offered the
    carrier positions listed under its features, ascending; without
    ``features`` every pair is a candidate.
    """
    match, merge, key, features = host.match, host.merge, host.key, host.features
    index: dict[object, list[int]] = {}  # feature -> carrier positions, ascending
    buckets: list[list[list[int]]] = []  # carrier position -> its features' lists

    def compositions(start):
        snapshot = list(items.items())
        for _, value in snapshot[len(buckets):]:
            lists = [index.setdefault(f, []) for f in _feature_tuple(features, value)]
            for positions in lists:
                positions.append(len(buckets))
            buckets.append(lists)
        for i, (xid, x) in enumerate(snapshot):
            lo = 0 if i >= start else start  # an old x pairs with recent y only
            lists = buckets[i]
            if len(lists) == 1:
                positions = lists[0]
                candidates = positions[bisect_left(positions, lo):]
            else:
                candidates = sorted(
                    {j for positions in lists for j in positions[bisect_left(positions, lo):]}
                )
            for j in candidates:
                yid, y = snapshot[j]
                if match(x, y):
                    z = merge(x, y)
                    yield xid, yid, key(z), z

    return compositions


def generated_subgroupoid(
    groupoid: FiniteGroupoid | BlackBoxGroupoid,
    seeds: Iterable,
    budget: Budget = Budget(),
) -> ClosureResult:
    """Smallest composition-closed superset of ``seeds``, budget-guarded.

    For an explicit groupoid ``seeds`` are element ids; for a black-box one
    they are universe values; seeds with equal keys count once.  Budget
    exhaustion is a structured outcome carrying the partial carrier, not an
    exception.
    """
    items = _keyed_members(groupoid, seeds)
    if not items:
        raise ValueError("seed set must be non-empty")
    status, items, rounds, table = _close_under_composition(groupoid, items, budget)
    carrier = tuple(items)
    return ClosureResult(
        status, carrier, FiniteGroupoid(carrier, table), rounds, budget, items
    )


def _subset_product(
    groupoid: FiniteGroupoid, factors: Sequence[Iterable[ElementId]]
) -> set[ElementId]:
    """Product of ``factors`` by an interval dynamic program, unchecked.

    The product of a span is the set of values reachable by composing one
    element from each of its factors under every binary grouping; undefined
    groupings contribute nothing.  Spans are filled one end column at a
    time, up to the span of all the factors, whose product is returned.
    Factors are not validated, and there must be at least one.
    """
    table = groupoid.table
    rows: list[list] = []  # rows[i][j - i]: product of factors i..j
    for j, factor in enumerate(factors):
        rows.append([factor])
        for i in range(j - 1, -1, -1):
            acc = set()
            for k in range(i, j):
                right = rows[k + 1][j - k - 1]
                for y in rows[i][k - i]:
                    for z in right:
                        v = table.get((y, z))
                        if v is not None:
                            acc.add(v)
            rows[i].append(acc)
    return rows[0][-1]


def irreducible_generating_set(
    groupoid: FiniteGroupoid,
    generators: Iterable[ElementId],
    budget: Budget = Budget(),
) -> tuple[ElementId, ...]:
    """Shrink ``generators`` to a subset that still generates the carrier but
    has no generating proper subset.

    Greedy removal in carrier order, so the result is deterministic; any
    irreducible subset would be acceptable.
    """
    seen = set(groupoid.require_all(generators))
    ordered = [e for e in groupoid.elements if e in seen]
    if not ordered:
        raise ValueError("generator set must be non-empty")

    def generates(candidate):
        result = generated_subgroupoid(groupoid, candidate, budget)
        return result.closed and set(result.carrier) == set(groupoid.elements)

    if not generates(ordered):
        raise NotGeneratingSetError(
            f"{tuple(ordered)!r} does not generate the carrier within budget"
        )
    current = list(ordered)
    for e in ordered:
        trial = [x for x in current if x != e]
        if trial and generates(trial):
            current = trial
    return tuple(current)


def null_extension(groupoid: FiniteGroupoid) -> FiniteGroupoid:
    """Totalize by adjoining a fresh absorbing element.

    Every previously undefined composition, and every composition involving
    the new element, yields the new element.  The extension is associative
    exactly when the source is strongly associative, which the property
    checkers can confirm.
    """
    bottom = "⊥"
    while bottom in groupoid:
        bottom += "'"
    elements = groupoid.elements + (bottom,)
    table = {}
    for x in elements:
        for y in elements:
            table[(x, y)] = groupoid.table.get((x, y), bottom)
    return FiniteGroupoid(elements, table)


@dataclass(frozen=True)
class Homomorphism:
    """A total map between carriers, candidate structure-preserving."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    mapping: Mapping[ElementId, ElementId]

    def __post_init__(self):
        mapping = dict(self.mapping)
        for e in self.source.elements:
            if e not in mapping:
                raise ValueError(f"mapping is not total: no image for {e!r}")
            self.target.require(mapping[e])
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, element: ElementId) -> ElementId:
        return self.mapping[self.source.require(element)]


def check_homomorphism(h: Homomorphism) -> Verdict:
    """Does the map preserve definedness and compositions?

    Holds when for every defined source pair (x, y), the image pair is
    defined and f(x o y) = f(x) o f(y); on failure the witness is the first
    violating source pair in carrier order.
    """
    for x, y in h.source.defined_pairs():
        fx, fy = h(x), h(y)
        value = h.target.compose(fx, fy)
        if value is None:
            return Verdict(False, (x, y), f"({fx!r}, {fy!r}) undefined in target")
        if value != h(h.source.table[(x, y)]):
            return Verdict(False, (x, y), "images compose to a different value")
    return Verdict(True)


def image(h: Homomorphism) -> FiniteGroupoid:
    """The image groupoid: mapped carrier with the mapped domain."""
    verdict = check_homomorphism(h)
    if not verdict.holds:
        raise NotHomomorphismError(
            f"not a homomorphism: witness {verdict.witness!r} ({verdict.detail})",
            verdict.witness,
        )
    carrier = tuple(dict.fromkeys(map(h, h.source.elements)))
    table = {}
    for x, y in h.source.defined_pairs():
        fx, fy = h(x), h(y)
        table[(fx, fy)] = h.target.table[(fx, fy)]
    return FiniteGroupoid(carrier, table)
