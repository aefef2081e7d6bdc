from __future__ import annotations

import importlib
import itertools
import json
import random
from collections import Counter

import pytest

from matchmerge import (
    CongruenceError,
    FiniteGroupoid,
    HypothesesNotSatisfiedError,
    Property,
    Verdict,
    check_homomorphism,
    check_property,
    class_semigroup_check,
    congruence_classes,
    quotient,
    quotient_idempotence_check,
)
from conftest import cluster_records, finite_fixture_suite, materialized_records
from helpers import (
    absorption_oracle,
    idempotent_tables,
    mutually_absorbing,
    parenthesization_products,
    random_banded_groupoid,
    random_groupoid,
    requotient_oracle,
    word_products,
)
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


def _requotient_samples():
    """(source is CA, re-quotient verdict) for seeded random idempotent tables
    of 2-5 elements that pass NR and whose first quotient is built."""
    rng = random.Random(17)
    samples = []
    for _ in range(600):
        g = random_groupoid(rng, rng.randint(2, 5), 0.6, idempotent=True)
        if not check_property(g, Property.WORD_IDEMPOTENT).holds:
            continue
        try:
            quotient(g)
        except CongruenceError:
            # bounded word idempotence does not make the relation a
            # congruence; the law audit refuses the input instead
            continue
        ca = check_property(g, Property.CATENARY_ASSOCIATIVE).holds
        samples.append((ca, quotient_idempotence_check(g)))
    return samples


def test_requotient_stable_on_random_ca_sources():
    stable_ca = [verdict.holds for ca, verdict in _requotient_samples() if ca]
    assert len(stable_ca) >= 100
    assert all(stable_ca)


def test_requotient_not_stable_on_some_random_non_ca_source():
    assert any(not verdict.holds for ca, verdict in _requotient_samples() if not ca)


def _idempotent_table(n: int, entries: str) -> FiniteGroupoid:
    """``e0``..``e(n-1)``, each idempotent, plus ``entries`` like ``e0e1=e2``."""
    elements = tuple(f"e{i}" for i in range(n))
    table = {(e, e): e for e in elements}
    for entry in entries.split(", "):
        pair, value = entry.split("=")
        table[(pair[:2], pair[2:])] = value
    return FiniteGroupoid(elements, table)


REQUOTIENT_NR = _idempotent_table(
    5, "e0e3=e1, e1e4=e1, e2e0=e2, e2e4=e2, e3e0=e3, e4e1=e4, e4e2=e3"
)
REQUOTIENT_COMPATIBILITY = _idempotent_table(
    4, "e0e1=e1, e0e2=e1, e0e3=e1, e1e0=e0, e2e0=e2, e2e3=e3, e3e0=e2"
)


def test_requotient_of_a_non_ca_source_can_collapse_again():
    g = _idempotent_table(3, "e0e1=e0, e1e0=e1, e1e2=e1, e2e0=e2")
    assert check_property(g, Property.WORD_IDEMPOTENT).holds
    assert not check_property(g, Property.CATENARY_ASSOCIATIVE).holds
    assert quotient(g).groupoid.elements == ("e0", "e2")
    assert quotient_idempotence_check(g) == Verdict(
        False, ("e0", "e2"), "quotient carrier still collapses"
    )


@pytest.mark.parametrize(
    "g, verdict",
    [
        (
            REQUOTIENT_NR,
            Verdict(False, ("e0", "e1", "e2"), "word idempotence fails on the quotient"),
        ),
        (
            REQUOTIENT_COMPATIBILITY,
            Verdict(False, ("e0", "e2", "e3", "e3"), "compatibility fails on the quotient"),
        ),
    ],
    ids=["nr", "compatibility"],
)
def test_requotient_failing_the_hypotheses_is_a_verdict(g, verdict):
    # the source passes NR and its congruence laws; only its quotient fails
    assert check_property(g, Property.WORD_IDEMPOTENT).holds
    first = quotient(g)
    assert quotient_idempotence_check(g) == verdict
    with pytest.raises((HypothesesNotSatisfiedError, CongruenceError)):
        quotient(first.groupoid)


@pytest.mark.parametrize(
    "g, classes",
    [
        (REQUOTIENT_NR, "  [e0] -> e0 (semigroup: yes)\n  [e1, e4] -> e1 (semigroup: yes)\n"),
        (REQUOTIENT_COMPATIBILITY, "  [e0, e1] -> e0 (semigroup: yes)\n"),
    ],
    ids=["nr", "compatibility"],
)
def test_cli_quotient_reports_an_unstable_requotient(capsys, tmp_path, g, classes):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(groupoid_to_document(g)), encoding="utf-8")
    assert run(["quotient", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert classes in captured.out
    assert "stable under re-quotient: no\n" in captured.out
    assert run(["quotient", str(path), "--format", "machine"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["stable_under_requotient"] is False
    assert payload["quotient"] == groupoid_to_document(quotient(g).groupoid)


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


def _incompatible_cell():
    """Classes {c, b} and {a}: in the cell ({c, b}, {c, b}) c.c = c and
    b.b = b stay in the class but b.c = a leaves it."""
    return FiniteGroupoid(
        ("c", "b", "a"),
        {
            ("c", "c"): "c",
            ("b", "b"): "b",
            ("a", "a"): "a",
            ("c", "a"): "c",
            ("b", "c"): "a",
            ("a", "b"): "b",
        },
    )


def test_compatibility_witness_is_the_first_pair_of_related_pairs_in_id_order():
    # in sorted id order the first pair of related pairs that shows the
    # broken cell is ((b, b), (b, c)); a carrier-order search would name
    # (c, b, c, c) instead
    with pytest.raises(CongruenceError) as err:
        congruence_classes(_incompatible_cell())
    assert err.value.law == "compatibility"
    assert err.value.witness == ("b", "b", "b", "c")


def test_classes_and_witnesses_match_a_brute_force_oracle():
    rng = random.Random(41)
    tables = [*idempotent_tables()]
    tables += [random_banded_groupoid(rng, rng.randint(1, 9)) for _ in range(10_000)]
    seen = set()
    for g in tables:
        want = None
        for bound in (2, 3):
            if not check_property(g, Property.WORD_IDEMPOTENT, bound).holds:
                with pytest.raises(HypothesesNotSatisfiedError):
                    congruence_classes(g, bound)
                seen.add("nr")
                continue
            try:
                classes = congruence_classes(g, bound)
            except CongruenceError as err:
                got = (err.law, err.witness)
            else:
                got = ("classes", classes.classes)
                assert classes.representatives == tuple(cls[0] for cls in classes.classes)
                if any(len(cls) > 2 for cls in classes.classes):
                    seen.add("large class")
            want = want or absorption_oracle(g)
            assert got == want, (g, bound)
            seen.add(got[0])
    assert seen == {"nr", "classes", "large class", "transitivity", "compatibility"}


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


def test_class_check_reports_association_before_an_earlier_collapse():
    # a b b does not collapse to its ends: (a b) b = b b = a, while a b = b;
    # association fails only later in triple order, at (b a) b = a b = b
    # against b (a b) = b b = a, and it is the failure reported
    table = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "a"}
    g = FiniteGroupoid(("a", "b"), table)
    verdict = class_semigroup_check(g, ("a", "b"))
    assert (verdict.holds, verdict.witness, verdict.detail) == (
        False, ("b", "a", "b"), "association fails in the class"
    )
    verdict = class_semigroup_check(g, ("a", "b"), 2)
    assert (verdict.holds, verdict.witness) == (False, ("b", "a", "b"))


def test_class_words_collapse_to_endpoints(leftzero2):
    # inside a class every bounded word equals first-composed-with-last
    for word in (("p", "q", "p"), ("q", "p", "q"), ("p", "q", "q")):
        expected = leftzero2.table[(word[0], word[-1])]
        assert word_products(leftzero2, word) == {expected}


# -- stored quotients ----------------------------------------------------------------------


def test_quotient_is_built_once_per_table_and_bound(monkeypatch, capsys, tmp_path):
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

    # every class a singleton: the quotient is its own, and is not built again
    sparse = tmp_path / "sparse.json"
    compositions = [[p, p, p] for p in "abcdefgh"] + [["a", "b", "b"], ["c", "d", "d"]]
    sparse.write_text(json.dumps({"elements": list("abcdefgh"), "compositions": compositions}))
    for spec, size in (("maxnat:4", 4), (str(sparse), 8)):
        calls.clear()
        assert run(["quotient", spec, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["classes"]) == size and payload["stable_under_requotient"]
        assert len(calls) == 1, spec

    calls.clear()
    g = FiniteGroupoid(("e",), {("e", "e"): "e"})
    assert quotient(g) is quotient(g, 3)
    assert quotient(g, 2) is not quotient(g, 3)
    assert len(calls) == 2


def test_requotient_verdict_matches_an_explicit_second_quotient():
    details = Counter()
    for g in idempotent_tables():
        if not check_property(g, Property.WORD_IDEMPOTENT, 3).holds:
            continue
        expected = requotient_oracle(g, 3)
        if expected is None:
            with pytest.raises(CongruenceError):
                quotient_idempotence_check(g, 3)
            continue
        verdict = quotient_idempotence_check(g, 3)
        assert (verdict.holds, verdict.witness, verdict.detail) == expected, g.table
        details[verdict.detail, len(quotient(g, 3).groupoid) == len(g)] += 1
    # discrete and collapsing partitions, stable and unstable quotients all occur
    assert {
        ("second quotient is the identity", True),
        ("second quotient is the identity", False),
        ("quotient carrier still collapses", False),
    } <= set(details)


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


def test_only_a_failing_compatibility_pass_searches_pairs_of_related_pairs(monkeypatch):
    from matchmerge.adapters import builtin

    quotient_module = importlib.import_module("matchmerge.quotient")
    calls = []
    original = quotient_module.cartesian

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quotient_module, "cartesian", counting)
    elements = tuple(f"e{i}" for i in range(50))
    band = FiniteGroupoid(elements, {(x, y): x for x in elements for y in elements})
    assert len(quotient(band).groupoid) == 1
    assert quotient(builtin("maxnat", 30)).groupoid == builtin("maxnat", 30)
    assert calls == []
    with pytest.raises(CongruenceError):
        quotient(_incompatible_cell())
    assert calls


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
    original = groupoid._subset_product

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groupoid, "_subset_product", counting)
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
        except (HypothesesNotSatisfiedError, CongruenceError):
            continue
        built += 1
    assert built
