"""Exhaustive axiom checkers for explicit partial groupoids.

Each family of laws is decided by one scan (of elements, pairs, triples, or
bounded words), which reports the first violation of each law in carrier
order as a replayable witness, so two runs on the same input always return
the same verdict.  Each scan costs what can fail, not the carrier: the pair
scan is one pass over the defined entries; the other scans read the rows
each table files (on the first request, without a sort: every row
``{y: x o y}`` as a dict in carrier order).  One walk of the defined chains
decides Rl, Rr, R, A, CA and SA, two row lookups per chain, with SA off the
chains decided by counting; NR builds its defined words from shorter
defined words one first letter at a time.

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


def _scan_chains(g: FiniteGroupoid):
    """On a chain (p1, p2, p3), where ab = p1 o p2 and bc = p2 o p3 are
    defined, the left grouping is ab o p3 and the right one p1 o bc.
    Rl: (p, q) and (q, r) defined => (p, q o r) defined.  It fails on a
    chain whose right grouping is undefined, with witness (p2, p3, p1).
    Rr, its dual, fails on a chain whose left grouping is undefined.
    R: both; its witness is Rl's, else Rr's.
    A: when both full groupings are defined, they agree.
    CA: on every chain both groupings are defined and agree.
    SA: both groupings defined and equal, or both undefined.

    Every law but SA can fail only on a chain: for each p1 the scan walks
    p1's row and, for each entry (p2, ab), p2's row, and reads the two
    groupings off ab's row and p1's row, two lookups per chain.  The walk
    meets the chains in carrier order, which orders the witnesses of Rr, A
    and CA; Rl's is the least by the code pos(p2) * n + pos(p3), the first
    found on a tie.  SA can fail off the chains too, where one grouping is
    defined and the other is not, and is decided by counting.  The left
    grouping is defined at the p3 of ab's row, and the right one at the
    entries (p2, p3) whose value is an operand of p1's row; every chain on
    which both are defined and agree takes one of each, and SA holds at p1
    exactly when those chains take them all.  Only a p1 where the count
    falls short, or where A fails first, is searched for the least failing
    (p2, p3).

    Once A has failed only R is left, so the walk skips each (p1, p2) whose
    chains all have both groupings defined (p2's row keys are among ab's,
    and p2's row values among p1's row keys), and once Rr has failed too it
    stops each row after the p2 of Rl's least witness so far, past which no
    chain can give a lesser one."""
    rows, position, n = g._rows, g._position, len(g)
    valued = Counter(g.table.values())
    a = ca = sa = rl = rr = ranges = None
    least = last = n * n  # Rl's least code so far, and the last p2 a row walks to
    for p1, row in rows.items():
        held = 0
        for p2, ab in row.items():
            line, grouped = rows[p2], rows[ab]
            if a is not None:
                if position[p2] > last:
                    break
                if line.keys() <= grouped.keys() and row.keys() >= ranges[p2]:
                    continue
            for p3, bc in line.items():
                left, right = grouped.get(p3), row.get(bc)
                if left == right and left is not None:
                    held += 1
                    continue
                w = (p1, p2, p3)
                ca = ca or w
                if left is None:
                    rr = rr or w
                if right is None:
                    code = position[p2] * n + position[p3]
                    if code < least:
                        rl, least = (p2, p3, p1), code
                elif left is not None and a is None:
                    # both groupings defined and different: A, CA and SA all fail;
                    # from here on each row's values are tested as a set
                    a, sa = w, sa or _first_strong_failure(g, p1)
                    ranges = {x: set(r.values()) for x, r in rows.items()}
                if a is not None and rr is not None:
                    last = least // n
        if sa is None and 2 * held < sum(len(rows[ab]) + valued[p2] for p2, ab in row.items()):
            sa = _first_strong_failure(g, p1)
    return rl, rr, rl or rr, a, ca, sa


def _first_strong_failure(g: FiniteGroupoid, p1):
    """The least (p1, p2, p3) in carrier order at which SA fails, for a p1
    where it fails.  A grouping is defined at (p2, p3) only when p3 is in
    the row of p1 o p2 (the left one) or in p2's row (the right one), so
    each p2 in carrier order tries the p3 of those two lines' keys, and the
    first p2 with a failing p3 gives the witness."""
    rows, position = g._rows, g._position
    row = rows[p1]
    for p2 in g.elements:
        line = rows[p2]
        grouped = rows.get(row.get(p2), {})  # empty where p1 o p2 is undefined
        # row.get(None) is None, so an undefined p2 o p3 groups to nothing
        failing = [
            p3 for p3 in line.keys() | grouped.keys() if grouped.get(p3) != row.get(line.get(p3))
        ]
        if failing:
            return p1, p2, min(failing, key=position.__getitem__)


# (laws, scan returning their witnesses in that order, universe of n elements)
_FAMILIES = (
    ((Property.IDEMPOTENT,), _scan_idempotence, lambda n: f"{n} elements"),
    (
        (Property.SYMMETRIC, Property.COMMUTATIVE, Property.STRONGLY_COMMUTATIVE),
        _scan_pairs,
        lambda n: f"{n} elements, {n * n} ordered pairs",
    ),
    (
        (Property.LEFT_REPRESENTATIVE, Property.RIGHT_REPRESENTATIVE, Property.REPRESENTATIVE)
        + (Property.ASSOCIATIVE, Property.CATENARY_ASSOCIATIVE, Property.STRONGLY_ASSOCIATIVE),
        _scan_chains,
        lambda n: f"{n} elements, {n ** 3} triples",
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
                        for y, xy in row[x].items():
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
    and SC over defined entries; Rl, Rr, R, A, CA and SA over defined
    chains, with SA off the chains counted; NR from I and SA, else over
    words up to
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
