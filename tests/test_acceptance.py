"""End-to-end acceptance checks.

One test per criterion; each prints an ``ACCEPTANCE nn PASS/FAIL`` line
(run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing criteria too).  All assertions are exact: the checks are
property-based or fixture-exact, so there are no tolerances to tune.
"""

from __future__ import annotations

import functools
import random

from matchmerge import (
    Budget,
    Homomorphism,
    OrderVariant,
    Property,
    builtin,
    check_homomorphism,
    check_property,
    class_semigroup_check,
    clique_cover,
    congruence_classes,
    connected_components,
    domain_graph,
    er_bruteforce,
    er_full,
    er_maximal,
    image,
    implication_audit,
    is_total,
    merge_closure,
    natural_order,
    null_extension,
    order_characterization,
    order_law_audit,
    property_report,
    quotient,
    quotient_idempotence_check,
    r_swoosh,
    record_groupoid,
)
from conftest import cluster_records, finite_fixture_suite, materialized_records
from helpers import naive_merge_closure, random_groupoid, random_record_instance

P = Property
RECORD_INSTANCES = 200
RANDOM_ORDER_SAMPLES = 200
RANDOM_AUDIT_SAMPLES = 500


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS {description}")

        return wrapper

    return decorate


def reflexive_fixtures():
    return {
        name: g
        for name, g in finite_fixture_suite().items()
        if all((e, e) in g.table for e in g.elements)
    }


def i_ca_fixtures():
    out = {}
    for name, g in finite_fixture_suite().items():
        if (
            check_property(g, P.IDEMPOTENT).holds
            and check_property(g, P.CATENARY_ASSOCIATIVE).holds
        ):
            out[name] = g
    out["records"] = materialized_records(cluster_records())
    return out


def is_icar(g) -> bool:
    return all(
        check_property(g, p).holds
        for p in (P.IDEMPOTENT, P.STRONGLY_COMMUTATIVE, P.ASSOCIATIVE, P.REPRESENTATIVE)
    )


@criterion(1, "fixture regressions: chained idempotents, the 3-element "
              "counterexample, and bounded max report the exact verdicts")
def test_criterion_01_fixture_regressions():
    p1 = builtin("p1")
    assert check_property(p1, P.IDEMPOTENT).holds
    assert check_property(p1, P.ASSOCIATIVE).holds
    ca = check_property(p1, P.CATENARY_ASSOCIATIVE)
    assert not ca.holds and ca.witness == ("a", "b", "c")
    assert not check_property(p1, P.STRONGLY_ASSOCIATIVE).holds

    q2 = builtin("q2")
    assert not check_property(q2, P.IDEMPOTENT).holds
    # commutativity fails here in its strong form (the domain is asymmetric);
    # the weak form is vacuously true, which the suite records explicitly
    assert not check_property(q2, P.STRONGLY_COMMUTATIVE).holds
    assert check_property(q2, P.COMMUTATIVE).holds
    a = check_property(q2, P.ASSOCIATIVE)
    assert not a.holds and a.witness == ("a", "b", "c")
    assert not check_property(q2, P.REPRESENTATIVE).holds

    mx = builtin("maxnat", 10)
    for p in (
        P.IDEMPOTENT,
        P.STRONGLY_COMMUTATIVE,
        P.ASSOCIATIVE,
        P.CATENARY_ASSOCIATIVE,
        P.STRONGLY_ASSOCIATIVE,
        P.REPRESENTATIVE,
    ):
        assert check_property(mx, p).holds, p


@criterion(2, "resolution methods coincide: oracle = maximal = full = worklist "
              "on randomized record instances; oracle = maximal wherever the "
              "natural order is well-behaved")
def test_criterion_02_resolution_equivalences():
    bb = record_groupoid(["name"])
    rng = random.Random(1202)
    checked = 0
    attempts = 0
    while checked < RECORD_INSTANCES:
        attempts += 1
        assert attempts < 40 * RECORD_INSTANCES
        records = random_record_instance(rng)
        closure = merge_closure(bb, records, Budget(2000, 200))
        assert closure.closed
        if len(closure.carrier) > 20:
            continue
        checked += 1
        assert is_icar(closure.groupoid)
        expected = er_bruteforce(closure).as_set()
        assert er_maximal(closure).as_set() == expected
        assert er_full(closure).as_set() == expected
        assert r_swoosh(bb, records).as_set() == expected
    assert checked >= RECORD_INSTANCES

    for name, g in i_ca_fixtures().items():
        if len(g) > 20:
            continue
        closure = merge_closure(g, list(g.elements))
        assert closure.closed, name
        expected = er_bruteforce(closure).as_set()
        assert er_maximal(closure).as_set() == expected, name
        if is_icar(g):
            assert er_full(closure).as_set() == expected, name
            assert r_swoosh(g, list(g.elements)).as_set() == expected, name


@criterion(3, "natural-order law audits: reflexive/antisymmetric/transitive on "
              "every idempotent catenary fixture; the right order of the "
              "chained-idempotents fixture loses transitivity at (a, b, c)")
def test_criterion_03_order_laws():
    for name, g in i_ca_fixtures().items():
        audit = order_law_audit(natural_order(g, OrderVariant.BOTH))
        assert audit.is_partial_order, name
    p1 = builtin("p1")
    audit = order_law_audit(natural_order(p1, OrderVariant.RIGHT))
    assert not audit.transitive.holds
    assert audit.transitive.witness == ("a", "b", "c")


@criterion(4, "order characterization biconditional on random 3-element "
              "reflexive-domain groupoids and on all fixtures")
def test_criterion_04_order_characterization():
    # the fixture-exhaustive half
    for name, g in reflexive_fixtures().items():
        rel = natural_order(g, OrderVariant.BOTH)
        if not order_law_audit(rel).is_partial_order:
            continue
        assert order_characterization(g, rel).holds, name

    # the randomized half pins the biconditional itself: on a reflexive
    # domain, LU + left CP + right CP + symmetric domain hold exactly when
    # I + SC + A + R hold and rel is the natural order (tests/test_order.py
    # pins the two tables that force SC and the symmetric domain)
    rng = random.Random(1204)
    checked = 0
    attempts = 0
    violations = []
    while checked < RANDOM_ORDER_SAMPLES and attempts < 100 * RANDOM_ORDER_SAMPLES:
        attempts += 1
        g = random_groupoid(rng, 3, rng.uniform(0.15, 0.95), reflexive=True)
        rel = natural_order(g, OrderVariant.BOTH)
        if not order_law_audit(rel).is_partial_order:
            continue
        checked += 1
        result = order_characterization(g, rel)
        if not result.holds:
            violations.append(dict(g.table))
    assert checked >= RANDOM_ORDER_SAMPLES
    assert not violations, (
        f"{len(violations)} of {checked} valid-order samples violate the "
        f"biconditional; first: {violations[0]}"
    )


@criterion(5, "axiom-implication audit is clean on every fixture and on "
              "500 random 4-element groupoids")
def test_criterion_05_implication_audit():
    for name, g in finite_fixture_suite().items():
        assert implication_audit(g, property_report(g)) == [], name
    rng = random.Random(1205)
    for _ in range(RANDOM_AUDIT_SAMPLES):
        g = random_groupoid(rng, 4, rng.uniform(0.1, 0.95))
        assert implication_audit(g, property_report(g)) == []


@criterion(6, "properties held by a source survive into the image of every "
              "quotient projection and every identity/constant map")
def test_criterion_06_homomorphism_preservation():
    preserved = (
        P.SYMMETRIC,
        P.IDEMPOTENT,
        P.COMMUTATIVE,
        P.STRONGLY_COMMUTATIVE,
        P.REPRESENTATIVE,
        P.ASSOCIATIVE,
        P.CATENARY_ASSOCIATIVE,
        P.STRONGLY_ASSOCIATIVE,
    )

    def held_survive(source, img, label):
        for p in preserved:
            if check_property(source, p).holds:
                assert check_property(img, p).holds, (label, p)

    suite = finite_fixture_suite()
    suite["records"] = materialized_records(cluster_records())
    for name, g in suite.items():
        identity = Homomorphism(g, g, {e: e for e in g.elements})
        held_survive(g, image(identity), f"{name}/identity")
        for e in g.elements:
            if g.table.get((e, e)) == e:
                constant = Homomorphism(g, g, {x: e for x in g.elements})
                held_survive(g, image(constant), f"{name}/constant:{e}")
        if check_property(g, P.WORD_IDEMPOTENT).holds:
            q = quotient(g)
            held_survive(g, image(q.projection), f"{name}/projection")


@criterion(7, "quotient suite: verified classes, surjective projection, "
              "commutative quotient under symmetry, stability under "
              "re-quotienting, and semigroup classes on every word-idempotent fixture")
def test_criterion_07_quotient_suite():
    suite = finite_fixture_suite()
    suite["records"] = materialized_records(cluster_records())
    verified = {
        name: g
        for name, g in suite.items()
        if check_property(g, P.WORD_IDEMPOTENT).holds
    }
    assert {"p1", "max10", "twoblock", "leftzero2", "unit", "records"} <= set(verified)
    assert "q2" not in verified and "chain12" not in verified
    for name, g in verified.items():
        classes = congruence_classes(g)
        members = sorted(e for cls in classes.classes for e in cls)
        assert members == sorted(g.elements), name
        q = quotient(g)
        assert check_homomorphism(q.projection).holds, name
        assert {q.projection(e) for e in g.elements} == set(q.groupoid.elements), name
        if check_property(g, P.SYMMETRIC).holds:
            assert check_property(q.groupoid, P.COMMUTATIVE).holds, name
        assert quotient_idempotence_check(g).holds, name
        for cls in classes.classes:
            assert class_semigroup_check(g, cls).holds, (name, cls)


@criterion(8, "closure equals the naive add-all-pairs fixed point everywhere; "
              "the successor chain exhausts a 10-element budget from {a1, a2}")
def test_criterion_08_closure_semantics():
    rng = random.Random(1208)
    for name, g in finite_fixture_suite().items():
        seed_sets = [list(g.elements)]
        for _ in range(4):
            seed_sets.append(rng.sample(list(g.elements), rng.randint(1, len(g.elements))))
        for seeds in seed_sets:
            result = merge_closure(g, seeds, Budget(5000, 500))
            assert result.closed, name
            assert frozenset(result.carrier) == naive_merge_closure(g, seeds), name

    chain = builtin("chain", 50)
    result = merge_closure(chain, ["a1", "a2"], Budget(max_elements=10))
    assert result.status == "budget_exhausted"
    assert len(result.carrier) == 10


@criterion(9, "domain graphs: totality matches graph completeness both ways on "
              "symmetric fixtures, clique covers catch every node and mutual "
              "edge, and compositions never cross components")
def test_criterion_09_domain_graphs():
    suite = finite_fixture_suite()
    suite["records"] = materialized_records(cluster_records())
    suite["nullext_p1"] = null_extension(builtin("p1"))
    suite["nullext_q2"] = null_extension(builtin("q2"))
    for name, g in suite.items():
        dg = domain_graph(g)
        assert dg.edges == frozenset(g.table), name

        if check_property(g, P.SYMMETRIC).holds:
            report = is_total(g)
            every_pair = all((x, y) in g.table for x in g.elements for y in g.elements)
            assert report.total == every_pair, name
            assert report.total == (report.graph_complete and report.loops_complete), name

        cover = clique_cover(dg)
        assert cover.covered_nodes() == frozenset(g.elements), name
        mutual = {
            frozenset((x, y))
            for (x, y) in g.table
            if x != y and (y, x) in g.table
        }
        inside = {
            frozenset((a, b))
            for clique in cover.cliques
            for a in clique.nodes
            for b in clique.nodes
            if a != b
        }
        assert mutual <= inside, name

        components = connected_components(dg)
        nodes = [n for c in components for n in c.nodes]
        assert sorted(nodes) == sorted(g.elements), name
        placement = {n: i for i, c in enumerate(components) for n in c.nodes}
        for x, y in g.table:
            assert placement[x] == placement[y], name


@criterion(10, "null extension is associative exactly when the source is "
               "strongly associative; fails on the chained idempotents, holds "
               "on bounded max")
def test_criterion_10_null_extension():
    p1 = builtin("p1")
    mx = builtin("maxnat", 10)
    assert not check_property(null_extension(p1), P.STRONGLY_ASSOCIATIVE).holds
    assert check_property(null_extension(mx), P.STRONGLY_ASSOCIATIVE).holds
    for name, g in finite_fixture_suite().items():
        source = check_property(g, P.STRONGLY_ASSOCIATIVE).holds
        extension = check_property(null_extension(g), P.STRONGLY_ASSOCIATIVE).holds
        assert source == extension, name
