from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchmerge import (
    DomainNotReflexiveError,
    FiniteGroupoid,
    NotPartialOrderError,
    OrderRelation,
    OrderVariant,
    Property,
    Verdict,
    builtin,
    check_order_axioms,
    check_property,
    dominates,
    full_elements,
    maximal_elements,
    natural_order,
    order_characterization,
    order_law_audit,
)
from conftest import cluster_records, finite_fixture_suite, materialized_records
from helpers import (
    first_order_axiom_violations,
    first_order_law_violations,
    first_violations,
    full_by_definition,
    idempotent_tables,
    maximal_by_definition,
    natural_relations,
    random_groupoid,
    random_relation,
)

L, R, B = OrderVariant.LEFT, OrderVariant.RIGHT, OrderVariant.BOTH


def icar_ca_fixtures():
    """Fixtures satisfying idempotence + catenary associativity."""
    out = {}
    for name, g in finite_fixture_suite().items():
        if (
            check_property(g, Property.IDEMPOTENT).holds
            and check_property(g, Property.CATENARY_ASSOCIATIVE).holds
        ):
            out[name] = g
    out["records"] = materialized_records(cluster_records())
    return out


# -- materialized relations ------------------------------------------------------


def test_right_order_of_p1(p1):
    rel = natural_order(p1, R)
    assert rel.pairs == {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}


def test_two_sided_order_of_p1_is_loops_only(p1):
    rel = natural_order(p1, B)
    assert rel.pairs == {("a", "a"), ("b", "b"), ("c", "c")}


def test_singleton_orders(unit):
    for v in OrderVariant:
        assert natural_order(unit, v).pairs == {("e", "e")}


def test_relation_rejects_foreign_pairs(p1):
    with pytest.raises(ValueError):
        OrderRelation(p1.elements, frozenset({("a", "zz")}))


def test_relation_contains_exactly_its_pairs(p1):
    relation = OrderRelation(p1.elements, frozenset({("a", "b")}))
    assert ("a", "b") in relation
    assert ("b", "a") not in relation


# -- law audits --------------------------------------------------------------------


def test_p1_right_order_fails_transitivity_with_exact_witness(p1):
    audit = order_law_audit(natural_order(p1, R))
    assert audit.reflexive.holds and audit.antisymmetric.holds
    assert not audit.transitive.holds
    assert audit.transitive.witness == ("a", "b", "c")


def test_natural_order_is_partial_order_on_i_ca_fixtures():
    for name, g in icar_ca_fixtures().items():
        audit = order_law_audit(natural_order(g, B))
        assert audit.is_partial_order, name


def test_empty_relation_fails_reflexivity(p1):
    audit = order_law_audit(OrderRelation(p1.elements, frozenset()))
    assert not audit.reflexive.holds
    assert audit.reflexive.witness == ("a",)


@given(st.integers(0, 10**6))
def test_two_sided_order_is_always_antisymmetric(seed):
    rng = random.Random(seed)
    g = random_groupoid(rng, 4, rng.uniform(0.1, 0.95))
    assert order_law_audit(natural_order(g, B)).antisymmetric.holds


def test_composite_sits_above_operands_on_i_ca_fixtures():
    # whenever pq is defined: q is left-below pq and p is right-below pq
    for name, g in icar_ca_fixtures().items():
        left = natural_order(g, L).pairs
        right = natural_order(g, R).pairs
        for (p, q), c in g.table.items():
            assert (q, c) in left, (name, p, q)
            assert (p, c) in right, (name, p, q)


# -- maximal and full elements --------------------------------------------------------


def test_maximal_right_of_p1(p1):
    assert maximal_elements(p1, R) == ("c",)


def test_maximal_of_bounded_max(max10):
    assert maximal_elements(max10, B) == ("9",)


def test_antichain_everything_maximal(twoblock):
    for v in OrderVariant:
        assert maximal_elements(twoblock, v) == ("u", "v")


def test_full_elements_of_bounded_max(max10):
    assert full_elements(max10, B) == ("9",)


def test_full_elements_of_q2(q2):
    assert full_elements(q2, L) == ("a",)
    assert full_elements(q2, R) == ("b",)
    assert full_elements(q2, B) == ()


def test_isolated_idempotent_is_full(twoblock):
    assert full_elements(twoblock, B) == ("u", "v")


def test_maximal_agreement_needs_symmetry_too():
    # under S + I + CA all three variants pick the same maximal elements
    for name, g in icar_ca_fixtures().items():
        if not check_property(g, Property.SYMMETRIC).holds:
            continue
        sets = {v: frozenset(maximal_elements(g, v)) for v in OrderVariant}
        assert sets[L] == sets[R] == sets[B], name


def test_full_equals_maximal_under_i_sc_ca():
    for name, g in icar_ca_fixtures().items():
        if not check_property(g, Property.STRONGLY_COMMUTATIVE).holds:
            continue
        for v in OrderVariant:
            assert frozenset(full_elements(g, v)) == frozenset(
                maximal_elements(g, v)
            ), (name, v)


def test_left_absorbing_band_separates_full_from_maximal(leftzero2):
    # I + CA (+S) hold but commutativity fails: every element is maximal
    # while nothing is full, so the two resolution notions disagree here.
    assert check_property(leftzero2, Property.IDEMPOTENT).holds
    assert check_property(leftzero2, Property.CATENARY_ASSOCIATIVE).holds
    assert check_property(leftzero2, Property.SYMMETRIC).holds
    assert not check_property(leftzero2, Property.COMMUTATIVE).holds
    assert maximal_elements(leftzero2, B) == ("p", "q")
    assert full_elements(leftzero2, B) == ()


# -- domination -------------------------------------------------------------------------


def test_domination_is_reflexive_under_idempotence(max10):
    assert dominates(max10, ["3", "5"], ["3", "5"])


def test_domination_example_bounded_max(max10):
    assert dominates(max10, ["3", "5"], ["9"])
    assert not dominates(max10, ["9"], ["3"])


def test_domination_fails_without_order_pair(p1):
    assert not dominates(p1, ["a"], ["c"])


def test_domination_transitive_under_catenary_associativity():
    for name, g in icar_ca_fixtures().items():
        rel = natural_order(g, B).pairs
        elements = g.elements
        for a in elements:
            for b in elements:
                for c in elements:
                    if (a, b) in rel and (b, c) in rel:
                        assert dominates(g, [a], [c]), (name, a, b, c)


# -- interaction axioms -------------------------------------------------------------------


def test_axioms_hold_for_bounded_max(max10):
    report = check_order_axioms(max10, natural_order(max10, B))
    assert report.all_hold


def test_lub_fails_for_p1(p1):
    report = check_order_axioms(p1, natural_order(p1, B))
    assert not report.lub.holds
    assert report.lub.witness == ("a", "b")


def test_axioms_hold_for_singleton(unit):
    assert check_order_axioms(unit, natural_order(unit, B)).all_hold


def test_axioms_refuse_non_orders(p1):
    with pytest.raises(NotPartialOrderError):
        check_order_axioms(p1, natural_order(p1, R))  # not transitive


# -- order characterization -----------------------------------------------------------------


def test_characterization_consistent_on_bounded_max(max10):
    result = order_characterization(max10, natural_order(max10, B))
    assert result.axioms_hold and result.algebra_holds and result.holds


def test_characterization_consistent_when_both_sides_fail(max10):
    loops = OrderRelation(
        max10.elements, frozenset((e, e) for e in max10.elements), "user"
    )
    result = order_characterization(max10, loops)
    assert not result.axioms_hold
    assert not result.algebra_holds
    assert not result.relation_matches_natural
    assert result.relation_discrepancy is not None
    assert result.holds


def test_characterization_requires_reflexive_domain(q2):
    with pytest.raises(DomainNotReflexiveError):
        order_characterization(
            q2, OrderRelation(q2.elements, frozenset((e, e) for e in q2.elements))
        )


def test_characterization_consistent_on_reflexive_fixtures():
    for name, g in finite_fixture_suite().items():
        if any((e, e) not in g.table for e in g.elements):
            continue
        rel = natural_order(g, B)
        if not order_law_audit(rel).is_partial_order:
            continue
        result = order_characterization(g, rel)
        assert result.holds, name
        # an asymmetric domain makes the line above trivial; the one-way
        # implication still applies there
        if check_order_axioms(g, rel).all_hold:
            _assert_weak_algebra_side(g, rel)


def _valid_order_samples(count, seed, size=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_groupoid(rng, size, rng.uniform(0.15, 0.95), reflexive=True)
        rel = natural_order(g, B)
        if order_law_audit(rel).is_partial_order:
            out.append((g, rel))
    return out


WEAK_ALGEBRA = (
    Property.IDEMPOTENT,
    Property.COMMUTATIVE,
    Property.ASSOCIATIVE,
    Property.REPRESENTATIVE,
)


def _assert_weak_algebra_side(g, rel):
    for p in WEAK_ALGEBRA:
        assert check_property(g, p).holds, (p, g.table)
    assert rel.pairs == natural_order(g, B).pairs, g.table


def test_axioms_imply_weak_algebra_side():
    # one true direction on every reflexive domain, symmetric or not: LU + CP
    # force idempotence, weak commutativity, associativity, representativity
    # and rel = natural
    for g, rel in _valid_order_samples(200, seed=5):
        if check_order_axioms(g, rel).all_hold:
            _assert_weak_algebra_side(g, rel)


def test_axioms_imply_weak_algebra_side_on_every_three_element_table():
    # the same direction over all 4096 reflexive idempotent 3-element tables
    # with their natural order, which meets asymmetric domains where the
    # laws hold (the characterization holds trivially there)
    asymmetric = 0
    for g in idempotent_tables():
        rel = natural_order(g, B)
        if not order_law_audit(rel).is_partial_order:
            continue
        if check_order_axioms(g, rel).all_hold:
            _assert_weak_algebra_side(g, rel)
            asymmetric += not check_property(g, Property.SYMMETRIC).holds
        assert order_characterization(g, rel).holds, g.table
    assert asymmetric == 6


def test_axioms_on_symmetric_domain_imply_strong_algebra_side():
    # the direction the characterization adds: LU + CP on a symmetric domain
    # force strong commutativity as well
    for g, rel in _valid_order_samples(200, seed=5):
        result = order_characterization(g, rel)
        if result.axioms_hold:
            assert result.algebra_holds


def test_strong_algebra_side_implies_axioms():
    # the other true direction needs strong commutativity, not the weak form
    for g, rel in _valid_order_samples(200, seed=6):
        strong = all(
            check_property(g, p).holds
            for p in (
                Property.IDEMPOTENT,
                Property.STRONGLY_COMMUTATIVE,
                Property.ASSOCIATIVE,
                Property.REPRESENTATIVE,
            )
        )
        if strong:
            assert check_order_axioms(g, rel).all_hold


def test_weak_algebra_side_does_not_imply_axioms():
    # idempotent + weakly commutative + associative + representative, natural
    # order valid, yet composition a.b = a is no upper bound of b; the
    # characterization stays true because it asks for strong commutativity
    g = FiniteGroupoid(
        ("a", "b", "c"),
        {
            ("a", "a"): "a",
            ("a", "b"): "a",
            ("a", "c"): "a",
            ("b", "b"): "b",
            ("c", "c"): "c",
        },
    )
    rel = natural_order(g, B)
    assert order_law_audit(rel).is_partial_order
    for p in (
        Property.IDEMPOTENT,
        Property.COMMUTATIVE,
        Property.ASSOCIATIVE,
        Property.REPRESENTATIVE,
    ):
        assert check_property(g, p).holds, p
    lub = check_order_axioms(g, rel).lub
    assert not lub.holds
    assert lub.witness == ("a", "b")
    result = order_characterization(g, rel)
    assert result.failed_properties == ("SC",)
    assert "lub" in result.failed_axioms
    assert result.holds


def test_axioms_do_not_imply_symmetry():
    # LU + CP can hold while the domain is asymmetric, so the strong
    # commutativity package is not forced either; the characterization
    # therefore puts the symmetric domain on the order side
    g = FiniteGroupoid(
        ("a", "b", "c"),
        {
            ("a", "a"): "a",
            ("b", "b"): "b",
            ("c", "c"): "c",
            ("a", "c"): "c",
            ("b", "a"): "c",
            ("b", "c"): "c",
            ("c", "a"): "c",
            ("c", "b"): "c",
        },
    )
    rel = natural_order(g, B)
    assert check_order_axioms(g, rel).all_hold
    assert not check_property(g, Property.SYMMETRIC).holds
    result = order_characterization(g, rel)
    assert result.failed_axioms == ("symmetric",)
    assert result.failed_properties == ("SC",)
    assert result.holds


# -- the order layer against its oracles --------------------------------------------


def _oracle_samples():
    """Fixtures, then 2,000 seeded tables of 1 to 6 elements: reflexive or
    not, idempotent or not, at densities 0, 0.1, ..., 1."""
    rng = random.Random(4040)
    for g in finite_fixture_suite().values():
        yield g, rng
    for i in range(2000):
        size = rng.randint(1, 6)
        density = (i % 11) / 10
        yield random_groupoid(
            rng, size, density, reflexive=i % 2 == 0, idempotent=i % 3 == 0
        ), rng


def _verdict(found, detail=None) -> Verdict:
    """The verdict an oracle result stands for: None holds; a witness, or a
    (witness, detail) pair, fails."""
    if found is None:
        return Verdict(True)
    if detail is None:
        found, detail = found
    return Verdict(False, tuple(found), detail)


def _assert_relation_matches_oracles(g, rel, natural_both, algebra_failures):
    laws = first_order_law_violations(rel.carrier, rel.pairs)
    audit = order_law_audit(rel)
    assert audit.reflexive == _verdict(laws["reflexive"], "missing loop")
    assert audit.antisymmetric == _verdict(laws["antisymmetric"], "both directions related")
    assert audit.transitive == _verdict(laws["transitive"], "missing composite pair")
    if not audit.is_partial_order:
        with pytest.raises(NotPartialOrderError):
            check_order_axioms(g, rel)
        return
    expected = {k: _verdict(v) for k, v in first_order_axiom_violations(g, rel.pairs).items()}
    report = check_order_axioms(g, rel)
    assert report.lub == expected["lub"], (g.table, rel.pairs)
    assert report.left_compat == expected["left_compat"], (g.table, rel.pairs)
    assert report.right_compat == expected["right_compat"], (g.table, rel.pairs)
    if any((p, p) not in g.table for p in g.elements):
        return
    symmetric = first_violations(g)["S"] is None
    failed_axioms = tuple(k for k, v in expected.items() if not v.holds)
    failed_axioms += () if symmetric else ("symmetric",)
    differ = [
        pq
        for pq in itertools.product(g.elements, repeat=2)
        if (pq in rel.pairs) != (pq in natural_both)
    ]
    result = order_characterization(g, rel)
    assert result.failed_axioms == failed_axioms
    assert result.failed_properties == algebra_failures
    assert result.relation_matches_natural == (not differ)
    assert result.relation_discrepancy == (differ[0] if differ else None)


def test_order_layer_matches_the_oracles():
    for g, rng in _oracle_samples():
        natural = natural_relations(g)
        full = full_by_definition(g)
        violations = first_violations(g)
        algebra_failures = tuple(p for p in ("I", "SC", "A", "R") if violations[p] is not None)
        for v in OrderVariant:
            rel = natural_order(g, v)
            assert rel.pairs == natural[v.value], (v, g.table)
            assert rel.provenance == f"natural:{v.value}"
            assert maximal_elements(g, v) == maximal_by_definition(g.elements, natural[v.value])
            assert full_elements(g, v) == full[v.value], (v, g.table)
        lower = rng.sample(g.elements, rng.randint(0, len(g)))
        upper = rng.sample(g.elements, rng.randint(0, len(g)))
        assert dominates(g, lower, upper) == all(
            any((e, f) in natural["both"] for f in upper) for e in lower
        )
        relations = [natural_order(g, v) for v in OrderVariant] + [
            OrderRelation(g.elements, random_relation(rng, g.elements)),
            OrderRelation(g.elements, random_relation(rng, g.elements, partial_order=True)),
            # a relation whose own carrier runs the other way round
            OrderRelation(g.elements[::-1], random_relation(rng, g.elements, partial_order=True)),
        ]
        for rel in relations:
            _assert_relation_matches_oracles(g, rel, natural["both"], algebra_failures)


class _CountingTable(dict):
    """A table that counts its ``get``, ``in`` and ``[]`` lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        self.lookups += 1
        return dict.__contains__(self, key)

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)


def test_order_axioms_read_lines_not_the_table():
    # under its natural order both compatibility laws hold on uchain:48, so
    # each walks the lines of every related pair in full, and lub fails at
    # the first successor entry; none of it looks up the table
    g = builtin("uchain", 48)
    rel = natural_order(g, B)
    table = _CountingTable(g.table)
    object.__setattr__(g, "table", table)
    report = check_order_axioms(g, rel)
    assert report.left_compat.holds and report.right_compat.holds
    assert report.lub.witness == ("a1", "a2")
    assert table.lookups == 0


def test_stored_relations_do_not_depend_on_request_order():
    requests = list(OrderVariant) + [p for p in Property if p is not Property.WORD_IDEMPOTENT]
    rng = random.Random(53)
    for i in range(200):
        g = random_groupoid(
            rng, rng.randint(1, 5), rng.random(), reflexive=i % 2 == 0, idempotent=i % 3 == 0
        )
        rng.shuffle(requests)
        for request in requests:
            fresh = FiniteGroupoid(g.elements, g.table)
            if isinstance(request, OrderVariant):
                assert natural_order(g, request) == natural_order(fresh, request)
                assert natural_order(g, request) is natural_order(g, request)
            else:
                assert check_property(g, request) == check_property(fresh, request)
