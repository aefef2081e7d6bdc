from __future__ import annotations

import importlib
import itertools
import json
import random

import pytest

from matchmerge import (
    CongruenceError,
    FiniteGroupoid,
    HypothesesNotSatisfiedError,
    Property,
    WellDefinednessError,
    check_homomorphism,
    check_property,
    class_semigroup_check,
    congruence_classes,
    mutually_absorbing,
    quotient,
    quotient_idempotence_check,
)
from conftest import cluster_records, finite_fixture_suite, materialized_records
from helpers import idempotent_tables, parenthesization_products, random_groupoid
from matchmerge.cli import run
from matchmerge.documents import groupoid_to_document


def nr_fixture_suite() -> dict:
    """Fixtures verified word-idempotent up to the default bound."""
    out = {
        name: g
        for name, g in finite_fixture_suite().items()
        if check_property(g, Property.WORD_IDEMPOTENT).holds
    }
    out["records"] = materialized_records(cluster_records())
    return out


# -- the absorption relation -----------------------------------------------------


def test_idempotent_element_absorbs_itself(p1):
    for e in p1.elements:
        assert mutually_absorbing(p1, e, e)


def test_p1_chain_neighbours_do_not_absorb(p1):
    assert not mutually_absorbing(p1, "a", "b")


def test_left_band_elements_absorb_each_other(leftzero2):
    assert mutually_absorbing(leftzero2, "p", "q")


def test_opposite_products_absorb_each_other_under_word_idempotence():
    # whenever pq and qp both exist in a word-idempotent fixture,
    # pq and qp are mutually absorbing
    for name, g in nr_fixture_suite().items():
        for p in g.elements:
            for q in g.elements:
                pq = g.table.get((p, q))
                qp = g.table.get((q, p))
                if pq is not None and qp is not None:
                    assert mutually_absorbing(g, pq, qp), (name, p, q)


# -- class computation -------------------------------------------------------------


def test_left_band_collapses_to_one_class(leftzero2):
    classes = congruence_classes(leftzero2)
    assert classes.classes == (("p", "q"),)
    assert classes.representatives == ("p",)


def test_bounded_max_classes_are_singletons(max10):
    classes = congruence_classes(max10)
    assert all(len(c) == 1 for c in classes.classes)


def test_singleton_class(unit):
    assert congruence_classes(unit).classes == (("e",),)


def test_classes_partition_the_carrier():
    for name, g in nr_fixture_suite().items():
        classes = congruence_classes(g)
        members = [e for cls in classes.classes for e in cls]
        assert sorted(members) == sorted(g.elements), name
        assert len(members) == len(set(members)), name


def test_word_idempotence_is_a_precondition(q2, chain12):
    for g in (q2, chain12):
        with pytest.raises(HypothesesNotSatisfiedError):
            congruence_classes(g)


def test_domain_transfer_between_absorbing_pairs():
    # with a symmetric domain and representativity, absorption-related
    # elements are composable with exactly the same partners
    for name, g in nr_fixture_suite().items():
        if not (
            check_property(g, Property.SYMMETRIC).holds
            and check_property(g, Property.REPRESENTATIVE).holds
        ):
            continue
        classes = congruence_classes(g)
        for c1 in classes.classes:
            for c2 in classes.classes:
                defined = {(p, q) in g.table for p in c1 for q in c2}
                assert len(defined) == 1, (name, c1, c2)


# -- quotient construction ------------------------------------------------------------


def test_quotient_of_left_band_is_a_point(leftzero2):
    q = quotient(leftzero2)
    assert q.groupoid.elements == ("p",)
    assert q.groupoid.table == {("p", "p"): "p"}
    assert check_homomorphism(q.projection).holds


def test_quotient_of_bounded_max_is_the_same_groupoid(max10):
    q = quotient(max10)
    assert q.groupoid == max10


def test_quotient_projection_is_surjective():
    for name, g in nr_fixture_suite().items():
        q = quotient(g)
        images = {q.projection(e) for e in g.elements}
        assert images == set(q.groupoid.elements), name
        assert check_homomorphism(q.projection).holds, name


def test_quotient_commutative_when_domain_symmetric():
    for name, g in nr_fixture_suite().items():
        if check_property(g, Property.SYMMETRIC).holds:
            q = quotient(g)
            assert check_property(q.groupoid, Property.COMMUTATIVE).holds, name


def test_quotienting_twice_changes_nothing():
    for name, g in nr_fixture_suite().items():
        assert quotient_idempotence_check(g).holds, name


def test_quotient_stability_on_random_word_idempotent_groupoids():
    rng = random.Random(17)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 4000:
        attempts += 1
        g = random_groupoid(rng, 3, rng.uniform(0.3, 1.0), idempotent=True)
        if not check_property(g, Property.WORD_IDEMPOTENT).holds:
            continue
        try:
            verdict = quotient_idempotence_check(g)
        except (HypothesesNotSatisfiedError, CongruenceError):
            # bounded word-idempotence can pass on inputs whose word products
            # are multi-valued; the law audit flags those instead of building
            # a bogus quotient, which is the contract
            continue
        checked += 1
        assert verdict.holds
    assert checked >= 10


def test_bounded_word_idempotence_does_not_guarantee_transitivity():
    # passes the doubled-word law up to bound 6, yet b.a.b = {b, c} is
    # multi-valued and the absorption relation is not transitive; the class
    # computation must refuse with a replayable witness instead of
    # partitioning anyway
    g = FiniteGroupoid(
        ("a", "b", "c"),
        {
            ("a", "a"): "a",
            ("a", "b"): "a",
            ("a", "c"): "a",
            ("b", "a"): "c",
            ("b", "b"): "b",
            ("b", "c"): "c",
            ("c", "a"): "c",
            ("c", "b"): "b",
            ("c", "c"): "c",
        },
    )
    for bound in (3, 6):
        assert check_property(g, Property.WORD_IDEMPOTENT, bound).holds
    assert mutually_absorbing(g, "a", "c")
    assert mutually_absorbing(g, "c", "b")
    assert not mutually_absorbing(g, "a", "b")
    with pytest.raises(CongruenceError) as err:
        congruence_classes(g)
    assert err.value.law == "transitivity"
    assert err.value.witness == ("a", "c", "b")


# -- class structure ---------------------------------------------------------------------


def test_every_class_is_a_semigroup():
    for name, g in nr_fixture_suite().items():
        for cls in congruence_classes(g).classes:
            verdict = class_semigroup_check(g, cls)
            assert verdict.holds, (name, cls, verdict)


def test_left_band_class_closed_under_both_orders(leftzero2):
    verdict = class_semigroup_check(leftzero2, ("p", "q"))
    assert verdict.holds


def test_class_check_rejects_non_classes(p1):
    verdict = class_semigroup_check(p1, ("a", "b"))
    assert not verdict.holds
    assert verdict.witness == ("b", "a")


def test_class_words_collapse_to_endpoints(leftzero2):
    # inside a class every bounded word equals first-composed-with-last
    from matchmerge import word_product

    for word in (("p", "q", "p"), ("q", "p", "q"), ("p", "q", "q")):
        expected = leftzero2.table[(word[0], word[-1])]
        assert word_product(leftzero2, word) == {expected}


# -- stored quotients ----------------------------------------------------------------------


def test_quotient_is_built_once_per_table_and_bound(monkeypatch, capsys):
    # the package re-exports the function under the module's name
    quotient_module = importlib.import_module("matchmerge.quotient")

    calls = []
    original = quotient_module.congruence_classes

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quotient_module, "congruence_classes", counting)
    # the quotient of the input, then the quotient of that quotient
    assert run(["quotient", "leftzero2"]) == 0
    assert "stable under re-quotient: yes" in capsys.readouterr().out
    assert len(calls) == 2

    calls.clear()
    g = FiniteGroupoid(("e",), {("e", "e"): "e"})
    assert quotient(g) is quotient(g, 3)
    assert quotient(g, 2) is not quotient(g, 3)
    assert len(calls) == 2


def test_failed_quotient_is_not_stored(q2):
    for _ in range(2):
        with pytest.raises(HypothesesNotSatisfiedError):
            quotient(q2)
    assert not any(isinstance(key, tuple) and key[0] == "quotient" for key in q2._derived)


@pytest.mark.parametrize("spec, words", [(("maxnat", 10), 100), (("leftzero2", None), 4)])
def test_each_sandwich_is_evaluated_once(monkeypatch, spec, words):
    from matchmerge.adapters import builtin

    quotient_module = importlib.import_module("matchmerge.quotient")
    g = builtin(*spec)
    expected = tuple(
        tuple(q for q in g.elements if mutually_absorbing(g, p, q)) for p in g.elements
    )
    calls = []
    original = quotient_module._sandwich

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quotient_module, "_sandwich", counting)
    classes = congruence_classes(g)
    # one word p q p per ordered pair, not p q p and q p q for both orders
    assert len(calls) == words == len(g) ** 2
    assert classes.classes == tuple(dict.fromkeys(expected))


# -- words read off the table ------------------------------------------------------


def test_sandwich_is_the_product_of_the_word():
    from matchmerge.quotient import _sandwich

    rng = random.Random(23)
    tables = [*idempotent_tables()]
    tables += [random_groupoid(rng, rng.randint(2, 5), rng.uniform(0.2, 1.0)) for _ in range(200)]
    for g in tables:
        for p, q in g.pairs():
            assert _sandwich(g.table, p, q) == parenthesization_products(g, [{p}, {q}, {p}])


def _class_check_by_words(g, members, bound):
    """The class law read literally: total, closed and associative members,
    then every word of length 2 to ``bound`` collapses to its ends, each
    word's product taken from the grouping-tree oracle."""
    t = g.table
    for x, y in itertools.product(members, repeat=2):
        if (x, y) not in t:
            return False, (x, y), "pair undefined inside the class"
        if t[(x, y)] not in members:
            return False, (x, y), "composition escapes the class"
    for x, y, z in itertools.product(members, repeat=3):
        if t[(t[(x, y)], z)] != t[(x, t[(y, z)])]:
            return False, (x, y, z), "association fails in the class"
    for k in range(2, bound + 1):
        for word in itertools.product(members, repeat=k):
            if parenthesization_products(g, [{w} for w in word]) != {t[(word[0], word[-1])]}:
                return False, word, "word does not collapse to ends"
    return True, None, ""


def test_class_check_matches_a_word_scan():
    rng = random.Random(29)
    details = set()
    for _ in range(120):
        size = rng.randint(3, 4)
        g = random_groupoid(rng, size, rng.uniform(0.6, 1.0), idempotent=rng.random() < 0.7)
        for r in range(1, size + 1):
            for members in itertools.combinations(g.elements, r):
                for bound in (1, 2, 3, 4):
                    verdict = class_semigroup_check(g, members, bound)
                    want = _class_check_by_words(g, members, bound)
                    assert (verdict.holds, verdict.witness, verdict.detail) == want
                    details.add(want[2])
    assert details == {
        "",
        "pair undefined inside the class",
        "composition escapes the class",
        "association fails in the class",
        "word does not collapse to ends",
    }


def test_class_words_need_no_interval_pass(monkeypatch, p1):
    import matchmerge.groupoid as groupoid

    calls = []
    original = groupoid._prefix_products

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groupoid, "_prefix_products", counting)
    quotient(p1)
    elements = tuple("abcde")
    band = FiniteGroupoid(elements, {(x, y): x for x in elements for y in elements})
    assert class_semigroup_check(band, elements, 6).holds
    assert calls == []


# -- commutativity needs catenary associativity ------------------------------------


def test_symmetric_domain_without_ca_keeps_a_noncommutative_quotient(capsys, tmp_path):
    # symmetric, I and A, NR at bounds 3-6, but CA fails at (b, b, c): the
    # classes are singletons, so the quotient is the table itself
    g = FiniteGroupoid(
        ("a", "b", "c"),
        {("a", "a"): "a", ("b", "b"): "b", ("c", "c"): "c", ("b", "c"): "a", ("c", "b"): "b"},
    )
    assert check_property(g, Property.SYMMETRIC).holds
    assert check_property(g, Property.CATENARY_ASSOCIATIVE).witness == ("b", "b", "c")
    for bound in (3, 6):
        assert check_property(g, Property.WORD_IDEMPOTENT, bound).holds
    q = quotient(g)
    assert q.groupoid == g
    assert not check_property(q.groupoid, Property.COMMUTATIVE).holds
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(groupoid_to_document(g)), encoding="utf-8")
    assert run(["quotient", str(path)]) == 0
    assert "classes (3):" in capsys.readouterr().out


def test_no_idempotent_three_element_table_breaks_the_quotient_invariants():
    built = 0
    for g in idempotent_tables():
        try:
            quotient(g)
        except (HypothesesNotSatisfiedError, CongruenceError, WellDefinednessError):
            continue
        built += 1
    assert built
