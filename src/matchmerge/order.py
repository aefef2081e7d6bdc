"""Natural orders on a partial groupoid, their law audits, and the
characterization of orders compatible with the composition.

The natural relations are defined pointwise from the table:

* ``p <=r q``  iff  ``p o q = q``
* ``p <=l q``  iff  ``q o p = q``
* ``p <= q``   iff  both hold.

They are genuine partial orders only under extra axioms (idempotence for
reflexivity, catenary associativity for transitivity), so audits come
first and everything downstream states its hypotheses.

The characterization of compatible orders (``order_characterization``)
reads: on a reflexive composition domain, a partial order satisfies the
least-upper-bound and both compatibility laws on a symmetric domain exactly
when the groupoid is idempotent, strongly commutative, associative and
representative and the order is the natural two-sided one.  Both the
symmetric domain and the strong form of commutativity are needed; each
weaker reading has counterexamples on three elements.  Since both sides ask
for a symmetric domain, the biconditional says something only on symmetric
domains; on every reflexive domain, symmetric or not, the laws still imply
idempotence, weak commutativity, associativity, representativity and that
the order is the natural one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import DomainNotReflexiveError, NotPartialOrderError
from .groupoid import ElementId, FiniteGroupoid, Pair, Verdict
from .properties import ICAR, Property, check_property


class OrderVariant(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class OrderRelation:
    """A materialized binary relation over a fixed carrier."""

    carrier: tuple[ElementId, ...]
    pairs: frozenset[Pair]
    provenance: str = "user"
    _sorted: tuple[Pair, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        carrier = tuple(self.carrier)
        members = set(carrier)
        for p, q in self.pairs:
            if p not in members or q not in members:
                raise ValueError(f"relation pair ({p!r}, {q!r}) leaves the carrier")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def sorted_pairs(self) -> tuple[Pair, ...]:
        """The pairs in carrier order, sorted on the first request and stored."""
        if self._sorted is None:
            index = {e: i for i, e in enumerate(self.carrier)}
            ordered = sorted(self.pairs, key=lambda pq: (index[pq[0]], index[pq[1]]))
            object.__setattr__(self, "_sorted", tuple(ordered))
        return self._sorted


@dataclass(frozen=True)
class OrderLawAudit:
    reflexive: Verdict
    antisymmetric: Verdict
    transitive: Verdict

    @property
    def is_partial_order(self) -> bool:
        return self.reflexive.holds and self.antisymmetric.holds and self.transitive.holds


@dataclass(frozen=True)
class OrderAxiomsReport:
    """Verdicts for least-upper-bound and the two compatibility laws."""

    lub: Verdict
    left_compat: Verdict
    right_compat: Verdict

    @property
    def all_hold(self) -> bool:
        return self.lub.holds and self.left_compat.holds and self.right_compat.holds


@dataclass(frozen=True)
class OrderCharacterization:
    """Two-sided verdict for the compatible-order characterization.

    ``axioms_hold`` is the order side: least upper bound, left and right
    compatibility for the given relation, and a symmetric composition domain
    (``failed_axioms`` names the failures among ``lub``, ``left_compat``,
    ``right_compat`` and ``symmetric``).  ``algebra_holds`` is the algebra
    side: idempotence, strong commutativity, associativity and
    representativity (``failed_properties`` names the failures among ``I``,
    ``SC``, ``A`` and ``R``) together with the relation coinciding with the
    natural order.  ``holds`` says the two sides agree, which the theorem
    guarantees for every partial order on a reflexive domain.  On an
    asymmetric domain both sides fail (``symmetric`` and ``SC``), so there
    ``holds`` is true without further content.
    """

    axioms_hold: bool
    algebra_holds: bool
    failed_axioms: tuple[str, ...]
    failed_properties: tuple[str, ...]
    relation_matches_natural: bool
    relation_discrepancy: Pair | None

    @property
    def holds(self) -> bool:
        return self.axioms_hold == self.algebra_holds


def natural_order(g: FiniteGroupoid, variant: OrderVariant) -> OrderRelation:
    """The chosen natural relation, read off the defined compositions.

    An entry ``p o q = q`` gives the right pair ``(p, q)`` and an entry
    ``q o p = q`` the left pair ``(p, q)``; ``BOTH`` is their intersection.
    The first request reads all three variants in one pass over ``g.table``
    and stores them on ``g``, which relies on the table never changing.
    """
    variant = OrderVariant(variant)
    memo = g._derived
    if variant not in memo:
        right, left = set(), set()
        for (p, q), v in g.table.items():
            if v == q:
                right.add((p, q))
            if v == p:
                left.add((q, p))
        for v, pairs in zip(OrderVariant, (left, right, left & right)):
            memo[v] = OrderRelation(g.elements, frozenset(pairs), f"natural:{v.value}")
    return memo[variant]


def _first_failure(witness, detail: str) -> Verdict:
    return Verdict(True) if witness is None else Verdict(False, witness, detail)


def order_law_audit(rel: OrderRelation) -> OrderLawAudit:
    """Check reflexivity, antisymmetry and transitivity with witnesses."""
    ordered = rel.sorted_pairs()
    loopless = next(((x,) for x in rel.carrier if (x, x) not in rel.pairs), None)
    both_ways = next(((x, y) for x, y in ordered if x != y and (y, x) in rel.pairs), None)
    # (x, y) breaks transitivity when y sits below some z that x does not
    up = {x: set() for x in rel.carrier}
    for x, z in rel.pairs:
        up[x].add(z)
    gap = None
    for x, y in ordered:
        if not up[y] <= up[x]:
            missing = up[y] - up[x]
            gap = (x, y, next(z for z in rel.carrier if z in missing))
            break
    return OrderLawAudit(
        _first_failure(loopless, "missing loop"),
        _first_failure(both_ways, "both directions related"),
        _first_failure(gap, "missing composite pair"),
    )


def maximal_elements(g: FiniteGroupoid, variant: OrderVariant) -> tuple[ElementId, ...]:
    """Elements m with: m related to n implies n related back to m.

    This phrasing behaves sanely even when the relation is not transitive,
    unlike "no strictly greater element".
    """
    pairs = natural_order(g, variant).pairs
    dominated = {m for m, n in pairs if (n, m) not in pairs}
    return tuple(m for m in g.elements if m not in dominated)


def full_elements(g: FiniteGroupoid, side: OrderVariant = OrderVariant.BOTH) -> tuple[ElementId, ...]:
    """Elements that absorb every defined composition on the given side(s).

    Left full: x o p defined implies x o p = p.  Right full: p o x defined
    implies p o x = p.  ``BOTH`` intersects the two.  So an entry
    ``x o p = v`` with ``v != p`` bars ``p`` from left-full, and an entry
    ``p o x = v`` with ``v != p`` bars ``p`` from right-full: one pass per side.
    """
    side = OrderVariant(side)
    barred = set()
    if side is not OrderVariant.RIGHT:
        barred.update(p for (_, p), v in g.table.items() if v != p)
    if side is not OrderVariant.LEFT:
        barred.update(p for (p, _), v in g.table.items() if v != p)
    return tuple(p for p in g.elements if p not in barred)


def dominates(g: FiniteGroupoid, lower: Iterable[ElementId], upper: Iterable[ElementId]) -> bool:
    """Every element of ``lower`` sits below some element of ``upper`` in the
    natural two-sided order."""
    lower = g.require_all(lower)
    upper = g.require_all(upper)
    rel = natural_order(g, OrderVariant.BOTH)
    return all(any((e, f) in rel.pairs for f in upper) for e in lower)


def check_order_axioms(g: FiniteGroupoid, rel: OrderRelation) -> OrderAxiomsReport:
    """Audit the interaction laws between a partial order and the table.

    * lub: each defined composition is the least upper bound of its operands.
    * left/right compatibility: relating p1 to p2 transports definedness and
      the relation through composition on that side.

    Raises NotPartialOrderError when ``rel`` fails its own law audit, since
    the laws below are only meaningful for genuine partial orders.
    """
    audit = order_law_audit(rel)
    if not audit.is_partial_order:
        raise NotPartialOrderError("relation is not a partial order", audit)
    g.require_all(rel.carrier)

    def lub() -> Verdict:
        for p1, row in g._rows.items():
            for p2, c in row.items():
                if (p1, c) not in rel.pairs or (p2, c) not in rel.pairs:
                    return Verdict(False, (p1, p2), "composition is not an upper bound")
                for x in g.elements:
                    if (p1, x) in rel.pairs and (p2, x) in rel.pairs and (c, x) not in rel.pairs:
                        return Verdict(False, (p1, p2, x), "composition is not least")
        return Verdict(True)

    # In g's carrier order, which a relation's own carrier need not follow.
    ordered = sorted(rel.pairs, key=lambda pq: (g._position[pq[0]], g._position[pq[1]]))

    def compat(lines) -> Verdict:
        # p1 <= p2 must carry each defined entry of p1's line to a defined,
        # related entry of p2's: columns for the left law, rows for the right
        for p1, p2 in ordered:
            line = lines[p2]
            for p, a in lines[p1].items():
                b = line.get(p)
                if b is None:
                    return Verdict(False, (p1, p2, p), "definedness not transported")
                if (a, b) not in rel.pairs:
                    return Verdict(False, (p1, p2, p), "compositions not related")
        return Verdict(True)

    return OrderAxiomsReport(lub(), compat(g._columns), compat(g._rows))


def order_characterization(g: FiniteGroupoid, rel: OrderRelation) -> OrderCharacterization:
    """Compare the order-side laws with the algebra-side axioms.

    For a reflexive composition domain, the least-upper-bound and both
    compatibility laws hold for ``rel`` on a symmetric domain exactly when
    the groupoid is idempotent, strongly commutative, associative and
    representative *and* ``rel`` is the natural two-sided order.  The report
    says which side failed and, if the relations differ, the first
    discrepant pair.

    Strong commutativity (commutativity plus a symmetric domain) is the
    Commutativity of the ICAR properties of Swoosh (Benjelloun et al., VLDB
    J. 2009).  With weak commutativity the algebra side does not force the
    laws: ``{aa=a, ab=a, ac=a, bb=b, cc=c}`` is idempotent, weakly
    commutative, associative and representative, yet ``a.b = a`` is no upper
    bound of ``b``.  Once the algebra side asks for a symmetric domain, the
    order side has to as well: the laws alone allow asymmetric domains, as in
    ``{aa=a, bb=b, cc=c, ac=c, ba=c, bc=c, ca=c, cb=c}``, where ``(a, b)``
    is undefined but ``(b, a)`` is not.  Hence the symmetric domain is part
    of the order side, reported as ``symmetric`` in ``failed_axioms``.

    Consequently, on an asymmetric domain both sides fail and the
    biconditional holds trivially; it tests something only on symmetric
    domains.  What holds on every reflexive domain is the one-way
    implication from the laws to idempotence, weak commutativity,
    associativity, representativity and naturality of ``rel``.  A
    least-upper-bound law read as "``(p, q)`` is defined iff ``p`` and ``q``
    have an upper bound" would force a symmetric domain by itself; the
    paper's abstract does not say which reading it uses, so the symmetric
    domain stays a separate conjunct and ``check_order_axioms`` keeps the
    weaker reading.
    """
    for p in g.elements:
        if (p, p) not in g.table:
            raise DomainNotReflexiveError(
                f"composition domain is not reflexive: ({p!r}, {p!r}) undefined",
                witness=(p, p),
            )
    return _characterization(g, rel, check_order_axioms(g, rel))


def _characterization(
    g: FiniteGroupoid, rel: OrderRelation, axioms: OrderAxiomsReport
) -> OrderCharacterization:
    """``order_characterization`` from the checked axioms of ``rel``, for a
    caller that already holds them and has checked the domain reflexive."""
    failed_axioms = tuple(
        name
        for name, verdict in (
            ("lub", axioms.lub),
            ("left_compat", axioms.left_compat),
            ("right_compat", axioms.right_compat),
            ("symmetric", check_property(g, Property.SYMMETRIC)),
        )
        if not verdict.holds
    )
    failed_properties = tuple(str(p) for p in ICAR if not check_property(g, p).holds)

    natural = natural_order(g, OrderVariant.BOTH)
    index = g._position
    discrepancy = min(
        rel.pairs ^ natural.pairs, key=lambda pq: (index[pq[0]], index[pq[1]]), default=None
    )
    matches = discrepancy is None

    return OrderCharacterization(
        axioms_hold=not failed_axioms,
        algebra_holds=not failed_properties and matches,
        failed_axioms=failed_axioms,
        failed_properties=failed_properties,
        relation_matches_natural=matches,
        relation_discrepancy=discrepancy,
    )
