"""Exhaustive axiom checkers for explicit partial groupoids.

Each family of laws is decided by one scan of the whole carrier (elements,
pairs, triples, or bounded words) in carrier order, which reports the first
violation of each law as a replayable witness, so two runs on the same input
always return the same verdict.

Idempotence and strong associativity together imply word idempotence (NR)
at every bound.  Under SA both groupings of any three factors are defined
and equal, or both undefined; rotating one subterm at a time turns any
bracketing of a word into the left-nested one without changing its value,
so a word's product is its left fold or nothing.  When the fold of w is v,
the bracketing (w)(w) of w ++ w gives v v = v by I.  NR is therefore
decided from I and SA first, and only the remaining tables pay for words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .groupoid import ElementId, FiniteGroupoid, _prefix_products

DEFAULT_WORD_BOUND = 3


class Property(str, Enum):
    """Closed enumeration of the audited axioms, in report order."""

    SYMMETRIC = "S"
    IDEMPOTENT = "I"
    COMMUTATIVE = "C"
    STRONGLY_COMMUTATIVE = "SC"
    LEFT_REPRESENTATIVE = "Rl"
    RIGHT_REPRESENTATIVE = "Rr"
    REPRESENTATIVE = "R"
    ASSOCIATIVE = "A"
    CATENARY_ASSOCIATIVE = "CA"
    STRONGLY_ASSOCIATIVE = "SA"
    WORD_IDEMPOTENT = "NR"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PropertyVerdict:
    property: Property
    holds: bool
    witness: tuple[ElementId, ...] | None
    checked_universe: str

    def __bool__(self) -> bool:
        return self.holds


ICAR = (
    Property.IDEMPOTENT,
    Property.STRONGLY_COMMUTATIVE,
    Property.ASSOCIATIVE,
    Property.REPRESENTATIVE,
)
"""Idempotent, strongly commutative, associative, representative: the
conjunction that licenses the efficient record-level resolver."""


@dataclass(frozen=True)
class PropertyReport:
    """All verdicts for one groupoid plus the derived headline flags."""

    verdicts: Mapping[Property, PropertyVerdict]

    @property
    def is_icar(self) -> bool:
        return all(self.verdicts[p].holds for p in ICAR)

    @property
    def is_partial_semigroup_ca(self) -> bool:
        return self.verdicts[Property.CATENARY_ASSOCIATIVE].holds


# Each scan decides a whole family of laws in one pass over the carrier and
# returns the first witness of each law in carrier order (None where the law
# holds), stopping once every law of the family has one.


def _scan_idempotence(g: FiniteGroupoid):
    """I: every element composes with itself and yields itself."""
    return (next(((p,) for p in g.elements if g.table.get((p, p)) != p), None),)


def _scan_pairs(g: FiniteGroupoid):
    """S: (x, y) defined iff (y, x) defined.  C: when both orders are
    defined, they agree.  SC: both at once.

    Each law fails at (x, y) exactly when it fails at (y, x), never at
    (x, x), so the first witness in carrier order has x before y and the
    scan visits only those pairs.
    """
    table, elements = g.table, g.elements
    s = c = sc = None
    for i, x in enumerate(elements):
        for y in elements[i + 1 :]:
            xy = table.get((x, y))
            yx = table.get((y, x))
            if xy != yx:
                if xy is None or yx is None:
                    s = s or (x, y)
                else:
                    c = c or (x, y)
                sc = sc or (x, y)
                if s and c:
                    return s, c, sc
    return s, c, sc


def _scan_representativity(g: FiniteGroupoid):
    """Rl: (p, p1) and (p1, p2) defined => (p, p1 o p2) defined.
    Rr, its dual: (p1, p2) and (p2, p) defined => (p1 o p2, p) defined.
    R: both; its witness is Rl's, else Rr's."""
    table = g.table
    left = right = None
    for p1, p2 in g.defined_pairs():
        c = table[(p1, p2)]
        for p in g.elements:
            if left is None and (p, p1) in table and (p, c) not in table:
                left = (p1, p2, p)
            if right is None and (p2, p) in table and (c, p) not in table:
                right = (p1, p2, p)
        if left and right:
            break
    return left, right, left or right


def _scan_triples(g: FiniteGroupoid):
    """With ab = p1 o p2 and bc = p2 o p3:
    A: when both full groupings are defined, they agree.
    CA: when ab and bc are defined, both groupings are defined and agree.
    SA: both groupings defined and equal, or both undefined."""
    table, elements = g.table, g.elements
    ca = sa = None
    for p1 in elements:
        for p2 in elements:
            ab = table.get((p1, p2))
            if ab is None and sa:
                continue  # only SA can fail here, and it already has a witness
            for p3 in elements:
                bc = table.get((p2, p3))
                left = None if ab is None else table.get((ab, p3))
                right = None if bc is None else table.get((p1, bc))
                if left == right and (left is not None or ab is None or bc is None):
                    continue
                w = (p1, p2, p3)
                if left is not None and right is not None:
                    # both groupings defined and different: A, CA and SA all fail
                    return w, ca or w, sa or w
                if left != right:
                    sa = sa or w
                if ab is not None and bc is not None:
                    ca = ca or w
    return None, ca, sa


def _triple_universe(n: int) -> str:
    return f"{n} elements, {n ** 3} triples"


# (laws, scan returning their witnesses in that order, universe of n elements)
_FAMILIES = (
    ((Property.IDEMPOTENT,), _scan_idempotence, lambda n: f"{n} elements"),
    (
        (Property.SYMMETRIC, Property.COMMUTATIVE, Property.STRONGLY_COMMUTATIVE),
        _scan_pairs,
        lambda n: f"{n} elements, {n * n} ordered pairs",
    ),
    (
        (Property.LEFT_REPRESENTATIVE, Property.RIGHT_REPRESENTATIVE, Property.REPRESENTATIVE),
        _scan_representativity,
        _triple_universe,
    ),
    (
        (Property.ASSOCIATIVE, Property.CATENARY_ASSOCIATIVE, Property.STRONGLY_ASSOCIATIVE),
        _scan_triples,
        _triple_universe,
    ),
)


def _word_idempotence_witness(g: FiniteGroupoid, bound: int):
    """NR: doubling a word does not change its (non-empty) product set.

    A word w violates the law when product(w) is non-empty but
    product(w ++ w) differs from it.  At length 1 the law is exactly I, so
    a failing I gives the first witness ``(p,)``; when SA holds as well NR
    holds at every bound (see the module docstring).  Otherwise each word
    of length 2 and up makes one pass over the factors of w ++ w:
    product(w) is the prefix product after k factors, the pass stops there
    when it is empty, and product(w ++ w) is the last.  This is an infinite
    scheme; a pass is always relative to the word-length bound.
    """
    if bound < 1:
        raise ValueError("word bound must be at least 1")
    idempotent = check_property(g, Property.IDEMPOTENT)
    if not idempotent.holds:
        return idempotent.witness
    if check_property(g, Property.STRONGLY_ASSOCIATIVE).holds:
        return None
    for k in range(2, bound + 1):
        for word in itertools.product(g.elements, repeat=k):
            products = _prefix_products(g, [{w} for w in word + word])
            once = next(itertools.islice(products, k - 1, None))
            if once and once != [*products][-1]:
                return word
    return None


def check_property(
    g: FiniteGroupoid, prop: Property, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> PropertyVerdict:
    """Exhaustively audit one axiom; deterministic first witness on failure.

    The laws are decided by family, one scan each: I over elements; S, C
    and SC over pairs; Rl, Rr and R over defined pairs and a third element;
    A, CA and SA over triples; NR from I and SA, else over words up to
    ``nr_word_bound``, per bound.  The first request for any law of a
    family runs its scan and stores every verdict of the family on ``g``;
    later requests on the same object read the stored verdict.  This relies on ``g.table`` never
    changing after construction.
    """
    prop = Property(prop)
    memo = g._derived
    if prop is Property.WORD_IDEMPOTENT:
        key = (prop, nr_word_bound)
        if key not in memo:
            witness = _word_idempotence_witness(g, nr_word_bound)
            universe = f"words of length <= {nr_word_bound} over {len(g)} elements"
            memo[key] = PropertyVerdict(prop, witness is None, witness, universe)
        return memo[key]
    if prop not in memo:
        laws, scan, universe = next(f for f in _FAMILIES if prop in f[0])
        for p, witness in zip(laws, scan(g)):
            memo[p] = PropertyVerdict(p, witness is None, witness, universe(len(g)))
    return memo[prop]


def property_report(
    g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> PropertyReport:
    """Every verdict, each family scanned at most once, plus the derived flags."""
    verdicts = {p: check_property(g, p, nr_word_bound) for p in Property}
    return PropertyReport(verdicts)


def implication_audit(g: FiniteGroupoid, report: PropertyReport) -> list[str]:
    """Cross-check the verdicts against the implications that must hold
    between the axioms.

    A non-empty result never means anything about the input groupoid; it
    means a checker is buggy, so callers should surface it loudly.
    """
    v = {p: report.verdicts[p].holds for p in Property}
    rules = [
        (
            "CA <=> A and R",
            v[Property.CATENARY_ASSOCIATIVE]
            == (v[Property.ASSOCIATIVE] and v[Property.REPRESENTATIVE]),
        ),
        ("SA => A", (not v[Property.STRONGLY_ASSOCIATIVE]) or v[Property.ASSOCIATIVE]),
        ("CA => A", (not v[Property.CATENARY_ASSOCIATIVE]) or v[Property.ASSOCIATIVE]),
        ("NR => I", (not v[Property.WORD_IDEMPOTENT]) or v[Property.IDEMPOTENT]),
        (
            "SC <=> C and S",
            v[Property.STRONGLY_COMMUTATIVE]
            == (v[Property.COMMUTATIVE] and v[Property.SYMMETRIC]),
        ),
        (
            "R <=> Rl and Rr",
            v[Property.REPRESENTATIVE]
            == (v[Property.LEFT_REPRESENTATIVE] and v[Property.RIGHT_REPRESENTATIVE]),
        ),
    ]
    return [name for name, ok in rules if not ok]
