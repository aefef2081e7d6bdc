"""Partial groupoids: explicit composition tables and black-box match/merge rules.

The central object is a non-empty carrier with a composition defined only on
some ordered pairs (its domain).  ``FiniteGroupoid`` stores the table
explicitly, which is what the exhaustive audits in the rest of the library
work on; ``BlackBoxGroupoid`` wraps a match predicate and a merge function
over an open universe and is bridged to explicit tables by budgeted closure.
Both are hosts: they answer ``match``, ``merge`` and ``key``, and closure
and resolution read only those three names.

All operations here are pure functions of immutable inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExhaustedError,
    ForeignElementError,
    NotGeneratingSetError,
    NotHomomorphismError,
)

ElementId = str
Pair = tuple[ElementId, ElementId]

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

    def position(self, element: ElementId) -> int:
        self.require(element)
        return self._position[element]

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
        counts every match."""
        return self.table.get((x, y)) is not None

    def merge(self, x: ElementId, y: ElementId) -> ElementId:
        """The table entry of a matching pair."""
        return self.table[(x, y)]

    key = require  # an element is its own id; a foreign one raises

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

    def triples(self) -> Iterator[tuple[ElementId, ElementId, ElementId]]:
        return itertools.product(self.elements, repeat=3)

    def defined_pairs(self) -> Iterator[Pair]:
        """The composition domain, enumerated in carrier order."""
        for x, y in self.pairs():
            if (x, y) in self.table:
                yield (x, y)

    def restrict(self, subset: Iterable[ElementId]) -> FiniteGroupoid:
        """Partial subgroupoid on ``subset``: compositions whose operands and
        value all stay inside.  Carrier order follows ``subset``'s order."""
        kept = self.require_all(subset)
        inside = set(kept)
        table = {
            (x, y): v
            for (x, y), v in self.table.items()
            if x in inside and y in inside and v in inside
        }
        return FiniteGroupoid(kept, table)


@dataclass(frozen=True)
class BlackBoxGroupoid:
    """Match/merge rules over an open universe of values.

    ``merge`` must be defined exactly where ``match`` holds and be
    deterministic.  ``key`` canonically serializes a value; two values are
    the same element exactly when their keys are byte-identical, which is
    what makes merge outputs deduplicable during closure.
    """

    match: Callable[[object, object], bool]
    merge: Callable[[object, object], object]
    key: Callable[[object], ElementId]
    seed: tuple = ()
    declares_icar: bool = False

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


def _close_under_composition(host, items, budget):
    """Fixed-point worklist of ``generated_subgroupoid``.

    ``items`` are the seeds by key, from ``_keyed_members``.  Each round
    composes every pair with at least one operand discovered in the previous
    round (all pairs in round one), so no pair is composed twice.  A new
    element that would push the carrier past ``max_elements`` is dropped and
    the run reports exhaustion.  Returns the status, the carrier's items by id, the rounds
    run, and the table ``(xid, yid) -> zid`` of the compositions evaluated
    whose value is in the carrier.
    """
    match, merge, key = host.match, host.merge, host.key
    table: dict[Pair, ElementId] = {}
    if len(items) > budget.max_elements:
        return BUDGET_EXHAUSTED, items, 0, table

    rounds = 0
    previous_new = list(items)
    while True:
        if rounds >= budget.max_rounds:
            return BUDGET_EXHAUSTED, items, rounds, table
        rounds += 1
        recent = set(previous_new)
        fresh: dict[ElementId, object] = {}
        exhausted = False
        snapshot = list(items.items())
        for xid, x in snapshot:
            for yid, y in snapshot:
                if rounds > 1 and xid not in recent and yid not in recent:
                    continue
                if not match(x, y):
                    continue
                z = merge(x, y)
                zid = key(z)
                if zid not in items and zid not in fresh:
                    if len(items) + len(fresh) >= budget.max_elements:
                        exhausted = True
                        break
                    fresh[zid] = z
                table[(xid, yid)] = zid
            if exhausted:
                break
        if exhausted:
            items.update(fresh)
            return BUDGET_EXHAUSTED, items, rounds, table
        if not fresh:
            return CLOSED, items, rounds, table
        items.update(fresh)
        previous_new = list(fresh)


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


def _prefix_products(
    groupoid: FiniteGroupoid, factors: Sequence[Iterable[ElementId]]
) -> Iterator[set[ElementId]]:
    """Interval dynamic program over ``factors``, one end column at a time.

    The product of a span is the set of values reachable by composing one
    element from each of its factors under every binary grouping; undefined
    groupings contribute nothing.  After filling column ``j`` (every span
    ending at factor ``j``) this yields the product of ``factors[:j + 1]``,
    so a caller that stops early never computes the later columns.  Factors
    are not validated.
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
        yield rows[0][j]


def product_of_subsets(
    groupoid: FiniteGroupoid, factors: Sequence[Iterable[ElementId]]
) -> frozenset[ElementId]:
    """Set product of carrier subsets under all binary groupings.

    Every factor is checked against the carrier first; zero factors raise
    ``ValueError``.  The empty set plays the role of a fully undefined
    product; definedness of an expression is exactly non-emptiness of its
    product.
    """
    spans = [frozenset(groupoid.require_all(s)) for s in factors]
    if not spans:
        raise ValueError("product needs at least one factor")
    *_, product = _prefix_products(groupoid, spans)
    return frozenset(product)


def word_product(groupoid: FiniteGroupoid, word: Sequence[ElementId]) -> frozenset[ElementId]:
    """Product of a word of single elements (each factor a singleton)."""
    return product_of_subsets(groupoid, [{w} for w in word])


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
    carrier = []
    for e in h.source.elements:
        fe = h(e)
        if fe not in carrier:
            carrier.append(fe)
    table = {}
    for x, y in h.source.defined_pairs():
        fx, fy = h(x), h(y)
        table[(fx, fy)] = h.target.table[(fx, fy)]
    return FiniteGroupoid(tuple(carrier), table)
