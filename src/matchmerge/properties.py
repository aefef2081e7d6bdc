"""Exhaustive axiom checkers for explicit partial groupoids.

Each family of laws is decided by one scan (of elements, pairs, triples, or
bounded words), which reports the first violation of each law in carrier
order as a replayable witness, so two runs on the same input always return
the same verdict.  Each scan costs what can fail, not the carrier: the pair
scan is one pass over the defined entries; the other scans read the filing
each table keeps (one sorted pass over the table, on the first request,
lists every row and column in carrier order).  The representativity scan
decides each defined pair by two subset tests of line operand sets; the
triple scan walks the defined chains, two lookups each, and decides SA off
the chains by counting; NR builds its defined words from shorter defined
words one first letter at a time.

Idempotence and strong associativity together imply word idempotence (NR)
at every bound.  Under SA both groupings of any three factors are defined
and equal, or both undefined; rotating one subterm at a time turns any
bracketing of a word into the left-nested one without changing its value,
so a word's product is its left fold or nothing.  When the fold of w is v,
the bracketing (w)(w) of w ++ w gives v v = v by I.  NR is therefore
decided from I and SA first, and only the remaining tables pay for words.
Under I no constant word a...a can fail either: by induction on the top
split, every grouping of it evaluates to a, so it and its double both have
product {a}; the word scan skips their doubling pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .groupoid import ElementId, FiniteGroupoid, _subset_product

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


# Each scan decides a whole family of laws in one pass and returns the first
# witness of each law in carrier order (None where the law holds).


def _scan_idempotence(g: FiniteGroupoid):
    """I: every element composes with itself and yields itself."""
    return (next(((p,) for p in g.elements if g.table.get((p, p)) != p), None),)


def _scan_pairs(g: FiniteGroupoid):
    """S: (x, y) defined iff (y, x) defined.  C: when both orders are
    defined, they agree.  SC: both at once.

    Each law fails at (x, y) exactly when it fails at (y, x), never at
    (x, x), and only where one of the two orders is defined; so one pass
    over the defined entries, each against its mirror, finds every failing
    pair, and the first witness in carrier order is the least one with the
    earlier element first.
    """
    table, position = g.table, g._position
    s = c = None  # the least failing pair so far, as carrier positions
    for (x, y), xy in table.items():
        yx = table.get((y, x))
        if xy != yx:
            i, j = position[x], position[y]
            w = (i, j) if i < j else (j, i)
            if yx is None:
                if s is None or w < s:
                    s = w
            elif c is None or w < c:
                c = w
    sc = min(filter(None, (s, c)), default=None)
    elements = g.elements
    return tuple(None if w is None else (elements[w[0]], elements[w[1]]) for w in (s, c, sc))


class _OperandSets(dict):
    """The operands of each line of ``lines`` as a frozenset, each built
    from its line on first request."""

    def __init__(self, lines):
        self.lines = lines

    def __missing__(self, e):
        operands = self[e] = frozenset(x for x, _ in self.lines[e])
        return operands


def _scan_representativity(g: FiniteGroupoid):
    """Rl: (p, p1) and (p1, p2) defined => (p, p1 o p2) defined.
    Rr, its dual: (p1, p2) and (p2, p) defined => (p1 o p2, p) defined.
    R: both; its witness is Rl's, else Rr's.

    With c = p1 o p2, Rl holds at (p1, p2) exactly when the operands of
    p1's column are among those of c's column, and Rr exactly when the
    operands of p2's row are among those of c's row: one subset test each,
    for each defined (p1, p2) in carrier order, of operand sets built from
    the table's filing on first use.  Only a failing test walks its line,
    for the first p missing from c's, so the scan makes no table lookup."""
    rows, columns = g._filing
    row_operands, column_operands = _OperandSets(rows), _OperandSets(columns)
    left = right = None
    for p1 in g.elements:
        for p2, c in rows[p1]:
            if left is None and not column_operands[p1] <= column_operands[c]:
                missing = column_operands[c]
                left = next((p1, p2, p) for p, _ in columns[p1] if p not in missing)
            if right is None and not row_operands[p2] <= row_operands[c]:
                missing = row_operands[c]
                right = next((p1, p2, p) for p, _ in rows[p2] if p not in missing)
            if left and right:
                return left, right, left
    return left, right, left or right


def _scan_triples(g: FiniteGroupoid):
    """With ab = p1 o p2 and bc = p2 o p3:
    A: when both full groupings are defined, they agree.
    CA: when ab and bc are defined, both groupings are defined and agree.
    SA: both groupings defined and equal, or both undefined.

    A and CA can fail only on a chain, where ab and bc are defined: for each
    p1 the scan walks p1's row and, for each entry (p2, ab), p2's row, from
    the table's filing, with two lookups per chain.  SA can fail off the
    chains too, where one grouping is defined and the other is not, and is
    decided by counting.  The left grouping is defined at the p3 of ab's
    row, and the right one at the entries (p2, p3) whose value is an operand
    of p1's row; every chain on which both are defined and agree takes one
    of each, and SA holds at p1 exactly when those chains take them all.
    Only a p1 where the count falls short, or where A fails first, is
    searched for the least failing (p2, p3)."""
    rows, get = g._rows, g.table.get
    valued = Counter(g.table.values())
    ca = sa = None
    for p1 in g.elements:
        row, held = rows[p1], 0
        for p2, ab in row:
            for p3, bc in rows[p2]:
                left, right = get((ab, p3)), get((p1, bc))
                if left == right and left is not None:
                    held += 1
                    continue
                w = (p1, p2, p3)
                ca = ca or w
                if left is not None and right is not None:
                    # both groupings defined and different: A, CA and SA all fail
                    return w, ca, sa or _first_strong_failure(g, p1)
        if sa is None and 2 * held < sum(len(rows[ab]) + valued[p2] for p2, ab in row):
            sa = _first_strong_failure(g, p1)
    return None, ca, sa


def _first_strong_failure(g: FiniteGroupoid, p1):
    """The least (p1, p2, p3) in carrier order at which SA fails, for a p1
    where it fails.  A grouping is defined at (p2, p3) only when p3 is in
    the row of p1 o p2 (the left one) or in p2's row (the right one), so
    each p2 in carrier order tries the p3 of those lines, and the first p2
    with a failing p3 gives the witness."""
    rows, get, position = g._rows, g.table.get, g._position
    for p2 in g.elements:
        ab = get((p1, p2))
        failing = []
        for p3, _ in rows[p2] if ab is None else rows[p2] + rows[ab]:
            bc = get((p2, p3))
            left = None if ab is None else get((ab, p3))
            if left != (None if bc is None else get((p1, bc))):
                failing.append(p3)
        if failing:
            return p1, p2, min(failing, key=position.__getitem__)


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
    holds at every bound (see the module docstring).  Otherwise only the
    defined words (non-empty product) can fail, and only they are visited.

    product(w) is the union, over the top splits u | v of w, of every
    defined x o y with x in product(u) and y in product(v).  So the defined
    words of length k, with their products, come from the defined words of
    shorter lengths: each x in product(u) meets the row of x in the table,
    and each entry (y, x o y) of that row meets the words v whose product
    holds y.  Length k is built one first letter at a time, in carrier
    order, and that letter's words are checked in carrier order, each by one
    interval pass over w ++ w, except the constant word a...a, which I
    settles (see the module docstring); so the first mismatch is the first
    violating word in carrier order, and a table that fails early never
    builds the rest.  The words of the last length are not kept.  This is
    an infinite scheme; a pass is always relative to the word-length bound.
    """
    if bound < 1:
        raise ValueError("word bound must be at least 1")
    idempotent = check_property(g, Property.IDEMPOTENT)
    if not idempotent.holds:
        return idempotent.witness
    if check_property(g, Property.STRONGLY_ASSOCIATIVE).holds:
        return None
    row = g._rows
    # starting[m][a]: the defined words of length m that start with a, each
    # with its product; holding[m][y]: the defined words of length m whose
    # product holds y
    starting = {1: {a: {(a,): {a}} for a in g.elements}}
    holding = {1: {a: [(a,)] for a in g.elements}}
    position = g._position
    for k in range(2, bound + 1):
        starting[k], holding[k] = {}, {}
        for a in g.elements:
            products: dict[tuple[ElementId, ...], set[ElementId]] = {}
            for m in range(1, k):
                right = holding[k - m]
                for u, product in starting[m][a].items():
                    for x in product:
                        for y, xy in row[x]:
                            for v in right.get(y, ()):
                                products.setdefault(u + v, set()).add(xy)
            constant = (a,) * k
            for w in sorted(products, key=lambda word: [position[e] for e in word]):
                if w != constant and _subset_product(g, [{e} for e in w + w]) != products[w]:
                    return w
            if k < bound:
                starting[k][a] = products
                for w, product in products.items():
                    for y in product:
                        holding[k].setdefault(y, []).append(w)
    return None


def check_property(
    g: FiniteGroupoid, prop: Property, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> PropertyVerdict:
    """Exhaustively audit one axiom; deterministic first witness on failure.

    The laws are decided by family, one scan each: I over elements; S, C
    and SC over defined entries; Rl, Rr and R over defined pairs, by line
    operand sets; A, CA and SA over defined chains, with SA off the chains
    counted; NR from I and SA, else over words up to
    ``nr_word_bound``, per bound.  The first request for any law of a
    family runs its scan and stores every verdict of the family on ``g``;
    later requests on the same object read the stored verdict.  This relies
    on ``g.table`` never changing after construction.
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
