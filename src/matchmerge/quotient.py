"""Mutual-absorption classes and the commutative quotient of a groupoid.

Two elements are mutually absorbing when each survives a sandwich by the
other: the word products p q p and q p q come out as exactly {p} and {q}.
Under word idempotence (each word's doubled product equals its product,
checked up to a bound) this relation is an equivalence compatible with
composition, so collapsing classes gives a well-defined quotient; when the
composition domain is symmetric the quotient is commutative.

Triple products are evaluated with set semantics and must be singletons:
requiring a single value surfaces hypothesis violations instead of silently
picking one grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian

from .errors import (
    CongruenceError,
    HypothesesNotSatisfiedError,
    InternalInvariantError,
    WellDefinednessError,
)
from .groupoid import (
    ElementId,
    FiniteGroupoid,
    Homomorphism,
    Verdict,
    check_homomorphism,
    word_product,
)
from .properties import DEFAULT_WORD_BOUND, Property, check_property


@dataclass(frozen=True)
class CongruenceClasses:
    """A verified partition of the carrier into mutual-absorption classes.

    ``representatives[i]`` is the minimum-index member of ``classes[i]``;
    ``word_bound`` records up to which word length the underlying
    hypothesis was verified, since every guarantee here is relative to it.
    """

    classes: tuple[tuple[ElementId, ...], ...]
    representatives: tuple[ElementId, ...]
    word_bound: int


@dataclass(frozen=True)
class QuotientGroupoid:
    groupoid: FiniteGroupoid
    projection: Homomorphism
    classes: CongruenceClasses


def mutually_absorbing(g: FiniteGroupoid, p: ElementId, q: ElementId) -> bool:
    """p q p collapses to exactly {p} and q p q to exactly {q}."""
    return (
        word_product(g, (p, q, p)) == frozenset({p})
        and word_product(g, (q, p, q)) == frozenset({q})
    )


def _require_word_idempotent(g: FiniteGroupoid, bound: int):
    verdict = check_property(g, Property.WORD_IDEMPOTENT, bound)
    if not verdict.holds:
        raise HypothesesNotSatisfiedError(
            f"word idempotence fails at bound {bound}: witness {verdict.witness!r}",
            (verdict,),
        )


def congruence_classes(
    g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> CongruenceClasses:
    """Partition the carrier by mutual absorption, verifying every law.

    Word idempotence up to the bound is a precondition.  The relation is
    symmetric by construction; reflexivity, transitivity and compatibility
    with composition are then checked exhaustively, and a failure is
    reported as a structured violation (it signals the bound was too low
    for this input, not a bug here).
    """
    _require_word_idempotent(g, nr_word_bound)
    # p survives the sandwich by q; each ordered pair's word is evaluated once
    absorbs = {(p, q) for p, q in g.pairs() if word_product(g, (p, q, p)) == frozenset({p})}
    related = {(p, q) for p, q in absorbs if (q, p) in absorbs}
    for p in g.elements:
        if (p, p) not in related:
            raise CongruenceError("reflexivity", (p,))
    for p, q, r in g.triples():
        if (p, q) in related and (q, r) in related and (p, r) not in related:
            raise CongruenceError("transitivity", (p, q, r))
    for (p, p2), (q, q2) in cartesian(sorted(related), sorted(related)):
        if (p, q) in g.table and (p2, q2) in g.table:
            if (g.table[(p, q)], g.table[(p2, q2)]) not in related:
                raise CongruenceError("compatibility", (p, p2, q, q2))

    classes = []
    assigned = set()
    for p in g.elements:
        if p in assigned:
            continue
        cls = tuple(q for q in g.elements if (p, q) in related)
        assigned.update(cls)
        classes.append(cls)
    representatives = tuple(cls[0] for cls in classes)
    return CongruenceClasses(tuple(classes), representatives, nr_word_bound)


def quotient(g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND) -> QuotientGroupoid:
    """Collapse each class to its representative and rebuild the table.

    Well-definedness is re-verified while building: if two members of the
    same class pair compose into different classes, that contradicts the
    congruence check and is a hard error.  When the source has a symmetric
    domain the quotient must come out commutative, and this is asserted.
    The first request per word bound stores the result on ``g`` and later
    ones return it, which relies on ``g.table`` never changing.
    """
    memo_key = ("quotient", nr_word_bound)
    if memo_key in g._derived:
        return g._derived[memo_key]
    classes = congruence_classes(g, nr_word_bound)
    rep = {e: r for cls, r in zip(classes.classes, classes.representatives) for e in cls}
    carrier = tuple(r for r in g.elements if rep[r] == r)
    table: dict[tuple[ElementId, ElementId], ElementId] = {}
    origin: dict[tuple[ElementId, ElementId], tuple[ElementId, ElementId]] = {}
    for x, y in g.defined_pairs():
        key = (rep[x], rep[y])
        value = rep[g.table[(x, y)]]
        if key in table and table[key] != value:
            raise WellDefinednessError(
                "class composition depends on representatives",
                witness=(origin[key], (x, y)),
            )
        table.setdefault(key, value)
        origin.setdefault(key, (x, y))
    quotient_groupoid = FiniteGroupoid(carrier, table)
    projection = Homomorphism(g, quotient_groupoid, rep)
    verdict = check_homomorphism(projection)
    if not verdict.holds:  # pragma: no cover - guarded by the checks above
        raise InternalInvariantError(
            f"projection failed the homomorphism check: {verdict.witness!r}"
        )
    if check_property(g, Property.SYMMETRIC).holds:
        comm = check_property(quotient_groupoid, Property.COMMUTATIVE)
        if not comm.holds:
            raise InternalInvariantError(
                "quotient of a symmetric-domain groupoid must be commutative;"
                f" witness {comm.witness!r}"
            )
    g._derived[memo_key] = QuotientGroupoid(quotient_groupoid, projection, classes)
    return g._derived[memo_key]


def quotient_idempotence_check(
    g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> Verdict:
    """Quotienting twice changes nothing.

    After one quotient every class must be a singleton, so the second
    quotient is the identity on representatives; the verdict carries the
    first non-singleton class otherwise.
    """
    first = quotient(g, nr_word_bound)
    second = quotient(first.groupoid, nr_word_bound)
    if second.groupoid == first.groupoid:
        return Verdict(True, detail="second quotient is the identity")
    offender = next(
        (cls for cls in second.classes.classes if len(cls) > 1), None
    )
    return Verdict(False, offender, "quotient carrier still collapses")


def class_semigroup_check(
    g: FiniteGroupoid,
    members: tuple[ElementId, ...],
    nr_word_bound: int = DEFAULT_WORD_BOUND,
) -> Verdict:
    """A mutual-absorption class must be a total associative sub-table in
    which every bounded word collapses to first-composed-with-last.
    """
    members = g.require_all(members)
    inside = set(members)
    for x, y in cartesian(members, repeat=2):
        v = g.table.get((x, y))
        if v is None:
            return Verdict(False, (x, y), "pair undefined inside the class")
        if v not in inside:
            return Verdict(False, (x, y), "composition escapes the class")
    for x, y, z in cartesian(members, repeat=3):
        if g.table[(g.table[(x, y)], z)] != g.table[(x, g.table[(y, z)])]:
            return Verdict(False, (x, y, z), "association fails in the class")
    for k in range(2, nr_word_bound + 1):
        for word in cartesian(members, repeat=k):
            expected = frozenset({g.table[(word[0], word[-1])]})
            if word_product(g, word) != expected:
                return Verdict(False, word, "word does not collapse to ends")
    return Verdict(True)
