"""Mutual-absorption classes and the commutative quotient of a groupoid.

Two elements are mutually absorbing when each survives a sandwich by the
other: the word products p q p and q p q come out as exactly {p} and {q}.
Under word idempotence (each word's doubled product equals its product,
checked up to a bound) this relation is an equivalence compatible with
composition, so collapsing classes gives a well-defined quotient; when the
composition domain is symmetric and catenary associativity holds, the
quotient is commutative.

A three-letter word has exactly two groupings, so a sandwich is read off
the table with four lookups, and its product must be a singleton:
requiring a single value surfaces hypothesis violations instead of silently
picking one grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian

from .errors import CongruenceError, HypothesesNotSatisfiedError, InternalInvariantError
from .groupoid import ElementId, FiniteGroupoid, Homomorphism, Verdict
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


def _sandwich(table, p: ElementId, q: ElementId) -> set[ElementId]:
    """The product of the word p q p: the defined values among its only two
    groupings, (p q) p and p (q p)."""
    groupings = (table.get((table.get((p, q)), p)), table.get((p, table.get((q, p)))))
    return {v for v in groupings if v is not None}


def congruence_classes(
    g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> CongruenceClasses:
    """Partition the carrier by mutual absorption, verifying every law.

    Word idempotence up to the bound is a precondition.  The relation is
    symmetric by construction, and reflexive by the precondition: at word
    length 1 it is I, so both groupings of p p p are p.  Transitivity and
    compatibility with composition are then checked exhaustively, and a
    failure is reported as a structured violation (it signals the bound was
    too low for this input, not a bug here).

    Each element's related set is listed in carrier order, and once the
    relation is an equivalence that list is the element's class.
    Transitivity walks p, then q related to p, then r related to q, which
    meets the candidate triples in carrier order.  Given the classes, the
    relation is compatible exactly when the defined pairs of each (class,
    class) cell compose into one class, which one pass over the table
    decides; only a failing pass searches the pairs of related pairs, in
    sorted id order, for the witness.
    """
    nr = check_property(g, Property.WORD_IDEMPOTENT, nr_word_bound)
    if not nr.holds:
        message = f"word idempotence fails at bound {nr_word_bound}: witness {nr.witness!r}"
        raise HypothesesNotSatisfiedError(message, (nr,))
    # p survives the sandwich by q; each ordered pair's word is evaluated once
    absorbs = {(p, q) for p, q in g.pairs() if _sandwich(g.table, p, q) == {p}}
    related = {(p, q) for p, q in absorbs if (q, p) in absorbs}
    up = {p: tuple(q for q in g.elements if (p, q) in related) for p in g.elements}
    for p in g.elements:
        for q in up[p]:
            for r in up[q]:
                if (p, r) not in related:
                    raise CongruenceError("transitivity", (p, q, r))
    rep = {p: cls[0] for p, cls in up.items()}
    cell, t = {}, g.table
    if any(cell.setdefault((rep[x], rep[y]), rep[v]) != rep[v] for (x, y), v in t.items()):
        ordered = sorted(related)
        for (p, p2), (q, q2) in cartesian(ordered, ordered):
            if (p, q) in t and (p2, q2) in t and (t[(p, q)], t[(p2, q2)]) not in related:
                raise CongruenceError("compatibility", (p, p2, q, q2))
    classes = tuple(dict.fromkeys(up.values()))
    return CongruenceClasses(classes, tuple(cls[0] for cls in classes), nr_word_bound)


def quotient(g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND) -> QuotientGroupoid:
    """Collapse each class to its representative and rebuild the table.

    ``congruence_classes`` has verified that each (class, class) cell
    composes into one class, so the table maps each defined pair to its
    representatives' cell without checking again, and the projection is a
    homomorphism.

    When the source has a symmetric domain and is catenary associative (CA)
    the quotient must come out commutative, and this is asserted.  For
    defined xy, S makes yx defined; with u = xy and v = yx, CA and I give
    xu = u = uy, ux = xv = uv and (ux)u = u(xu) = u, so both groupings of
    u v u are u, and symmetrically v u v = v: xy and yx absorb each other
    and share a class.  A symmetric domain alone is not enough: {aa=a, bb=b,
    cc=c, bc=a, cb=b} is its own quotient, and not commutative.

    The first request per word bound stores the result on ``g`` and later
    ones return it, which relies on ``g.table`` never changing.  When every
    class is a singleton the quotient is ``g`` itself, which is therefore its
    own quotient at this bound.
    """
    memo_key = ("quotient", nr_word_bound)
    if memo_key in g._derived:
        return g._derived[memo_key]
    classes = congruence_classes(g, nr_word_bound)
    rep = {e: r for cls, r in zip(classes.classes, classes.representatives) for e in cls}
    if len(classes.classes) == len(g):
        quotient_groupoid = g
    else:
        carrier = tuple(r for r in g.elements if rep[r] == r)
        table = {(rep[x], rep[y]): rep[v] for (x, y), v in g.table.items()}
        quotient_groupoid = FiniteGroupoid(carrier, table)
    projection = Homomorphism(g, quotient_groupoid, rep)
    if (
        check_property(g, Property.SYMMETRIC).holds
        and check_property(g, Property.CATENARY_ASSOCIATIVE).holds
    ):
        comm = check_property(quotient_groupoid, Property.COMMUTATIVE)
        if not comm.holds:
            raise InternalInvariantError(
                "quotient of a symmetric-domain CA groupoid must be commutative;"
                f" witness {comm.witness!r}"
            )
    g._derived[memo_key] = QuotientGroupoid(quotient_groupoid, projection, classes)
    return g._derived[memo_key]


def quotient_idempotence_check(
    g: FiniteGroupoid, nr_word_bound: int = DEFAULT_WORD_BOUND
) -> Verdict:
    """Quotienting twice changes nothing.

    The second quotient is built from the first, whose own word products
    need not satisfy the hypotheses again.  The verdict fails with the first
    non-singleton class of the second quotient, or with the quotient's NR or
    congruence witness when it cannot be quotiented at all.  Without CA the
    check can fail: {aa=a, bb=b, cc=c, ab=a, ba=b, bc=b, ca=c} passes NR,
    and its quotient on {a, c} is a left-zero band, one class.  With CA it
    held on every table that ``scripts/search_claims.py`` searches, at word
    bounds 2-4: the 273 CA tables among all 4,096 idempotent tables on three
    elements and 3,626 CA tables among 24,000 seeded idempotent tables of
    four and five elements, 147 of the 3,899 with a quotient that collapses.
    That is observed, not proved.
    """
    first = quotient(g, nr_word_bound)
    try:
        second = quotient(first.groupoid, nr_word_bound)
    except HypothesesNotSatisfiedError as exc:
        return Verdict(False, exc.verdicts[0].witness, "word idempotence fails on the quotient")
    except CongruenceError as exc:
        return Verdict(False, exc.witness, f"{exc.law} fails on the quotient")
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

    Once the members are total, closed and associative, a word's only value
    is its left fold.  Two-letter words always collapse, and if every x y z
    collapses to x z then by induction (w1 ... w(k-1)) wk = (w1 w(k-1)) wk
    = w1 wk, so one scan of the triples decides every word up to the bound.
    That scan checks both laws at each triple; a failing association is
    reported before any word that does not collapse, wherever it lies.
    """
    members = g.require_all(members)
    inside = set(members)
    t = g.table
    for x, y in cartesian(members, repeat=2):
        v = t.get((x, y))
        if v is None:
            return Verdict(False, (x, y), "pair undefined inside the class")
        if v not in inside:
            return Verdict(False, (x, y), "composition escapes the class")
    collapse = None
    for x, y, z in cartesian(members, repeat=3):
        xy_z = t[(t[(x, y)], z)]
        if xy_z != t[(x, t[(y, z)])]:
            return Verdict(False, (x, y, z), "association fails in the class")
        if collapse is None and nr_word_bound >= 3 and xy_z != t[(x, z)]:
            collapse = (x, y, z)
    if collapse:
        return Verdict(False, collapse, "word does not collapse to ends")
    return Verdict(True)
