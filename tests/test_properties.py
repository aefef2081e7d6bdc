from __future__ import annotations

import itertools
import random

import pytest

from matchmerge import (
    FiniteGroupoid,
    Homomorphism,
    Property,
    PropertyVerdict,
    builtin,
    check_property,
    image,
    implication_audit,
    property_report,
    quotient,
    word_product,
)
from conftest import chaining_records, finite_fixture_suite, materialized_records
from helpers import (
    first_nr_violation,
    first_violations,
    idempotent_tables,
    parenthesization_products,
    random_groupoid,
)

P = Property


def verdict_map(g, bound=3):
    return {p: check_property(g, p, bound) for p in Property}


# -- fixture regressions -------------------------------------------------------


def test_p1_verdicts(p1):
    v = verdict_map(p1)
    assert v[P.IDEMPOTENT].holds
    assert v[P.ASSOCIATIVE].holds
    assert not v[P.CATENARY_ASSOCIATIVE].holds
    assert v[P.CATENARY_ASSOCIATIVE].witness == ("a", "b", "c")
    assert not v[P.STRONGLY_ASSOCIATIVE].holds
    assert v[P.STRONGLY_ASSOCIATIVE].witness == ("a", "b", "c")
    assert not v[P.SYMMETRIC].holds
    assert v[P.COMMUTATIVE].holds  # vacuous beyond loops
    assert not v[P.STRONGLY_COMMUTATIVE].holds
    assert not v[P.REPRESENTATIVE].holds
    assert v[P.RIGHT_REPRESENTATIVE].holds
    assert not v[P.LEFT_REPRESENTATIVE].holds


def test_q2_verdicts(q2):
    v = verdict_map(q2)
    assert not v[P.IDEMPOTENT].holds and v[P.IDEMPOTENT].witness == ("a",)
    assert not v[P.STRONGLY_COMMUTATIVE].holds
    assert not v[P.ASSOCIATIVE].holds
    assert v[P.ASSOCIATIVE].witness == ("a", "b", "c")
    assert not v[P.REPRESENTATIVE].holds
    # the weak form is vacuously true: only (c, c) is defined in both orders
    assert v[P.COMMUTATIVE].holds


def test_bounded_max_verdicts(max10):
    v = verdict_map(max10)
    for p in (
        P.IDEMPOTENT,
        P.STRONGLY_COMMUTATIVE,
        P.ASSOCIATIVE,
        P.CATENARY_ASSOCIATIVE,
        P.STRONGLY_ASSOCIATIVE,
        P.REPRESENTATIVE,
        P.SYMMETRIC,
        P.COMMUTATIVE,
        P.WORD_IDEMPOTENT,
    ):
        assert v[p].holds, p


def test_chain_verdicts():
    ch = builtin("chain", 6)
    v = verdict_map(ch)
    assert v[P.ASSOCIATIVE].holds
    for p in (
        P.IDEMPOTENT,
        P.STRONGLY_COMMUTATIVE,
        P.REPRESENTATIVE,
        P.CATENARY_ASSOCIATIVE,
        P.STRONGLY_ASSOCIATIVE,
    ):
        assert not v[p].holds, p
    assert v[P.COMMUTATIVE].holds  # no pair is defined in both orders


def test_chain_strong_associativity_witness_needs_five_elements():
    # a1 a2 = a3 composes with a4, but a2 a4 is undefined
    ch = builtin("chain", 5)
    v = check_property(ch, P.STRONGLY_ASSOCIATIVE)
    assert not v.holds and v.witness == ("a1", "a2", "a4")


def test_singleton_satisfies_everything(unit):
    assert all(v.holds for v in verdict_map(unit).values())


def test_record_closure_is_icar():
    g = materialized_records(chaining_records())
    assert len(g) == 6
    report = property_report(g)
    assert report.is_icar


# -- witnesses replay -----------------------------------------------------------


def replay(g: FiniteGroupoid, verdict) -> bool:
    """Re-check the axiom at the witness only; True means the violation is real."""
    w = verdict.witness
    t = g.table
    p = verdict.property
    if p is P.SYMMETRIC:
        x, y = w
        return ((x, y) in t) != ((y, x) in t)
    if p is P.IDEMPOTENT:
        (x,) = w
        return t.get((x, x)) != x
    if p in (P.COMMUTATIVE, P.STRONGLY_COMMUTATIVE):
        x, y = w
        if p is P.COMMUTATIVE:
            return (x, y) in t and (y, x) in t and t[(x, y)] != t[(y, x)]
        return ((x, y) in t) != ((y, x) in t) or (
            (x, y) in t and t[(x, y)] != t[(y, x)]
        )
    if p in (P.LEFT_REPRESENTATIVE, P.REPRESENTATIVE):
        p1, p2, q = w
        if (p1, p2) in t and (q, p1) in t and (q, t[(p1, p2)]) not in t:
            return True
        # the combined form may carry a right-side witness instead
        if p is P.REPRESENTATIVE:
            return (p1, p2) in t and (p2, q) in t and (t[(p1, p2)], q) not in t
        return False
    if p is P.RIGHT_REPRESENTATIVE:
        p1, p2, q = w
        return (p1, p2) in t and (p2, q) in t and (t[(p1, p2)], q) not in t
    if p in (P.ASSOCIATIVE, P.CATENARY_ASSOCIATIVE, P.STRONGLY_ASSOCIATIVE):
        x, y, z = w
        xy = t.get((x, y))
        yz = t.get((y, z))
        left = t.get((xy, z)) if xy is not None else None
        right = t.get((x, yz)) if yz is not None else None
        if p is P.ASSOCIATIVE:
            return left is not None and right is not None and left != right
        if p is P.CATENARY_ASSOCIATIVE:
            return (
                xy is not None
                and yz is not None
                and (left is None or right is None or left != right)
            )
        return (left is None) != (right is None) or (
            left is not None and left != right
        )
    if p is P.WORD_IDEMPOTENT:
        once = word_product(g, w)
        return bool(once) and word_product(g, w + w) != once
    raise AssertionError(p)


def test_every_failed_verdict_witness_replays():
    for g in finite_fixture_suite().values():
        for verdict in verdict_map(g).values():
            if not verdict.holds:
                assert replay(g, verdict), (verdict.property, verdict.witness)


def test_check_property_is_deterministic(q2):
    for p in Property:
        assert check_property(q2, p) == check_property(q2, p)


# -- first witnesses and stored verdicts ------------------------------------------


def _universe(g, p):
    n = len(g)
    if p is P.IDEMPOTENT:
        return f"{n} elements"
    if p in (P.SYMMETRIC, P.COMMUTATIVE, P.STRONGLY_COMMUTATIVE):
        return f"{n} elements, {n * n} ordered pairs"
    return f"{n} elements, {n ** 3} triples"


def _oracle_samples():
    """Fixtures, then 2,200 seeded tables of 1 to 6 elements, alternately
    with and without a reflexive domain, at densities 0, 0.1, ..., 1."""
    yield from finite_fixture_suite().values()
    rng = random.Random(2026)
    for i in range(2200):
        size = rng.randint(1, 6)
        yield random_groupoid(rng, size, density=(i % 11) / 10, reflexive=i % 2 == 0)


def test_witnesses_are_the_first_violations_in_carrier_order():
    laws = [p for p in Property if p is not P.WORD_IDEMPOTENT]
    for g in _oracle_samples():
        expected = first_violations(g)
        report = property_report(FiniteGroupoid(g.elements, g.table))
        for p in laws:
            witness = expected[str(p)]
            want = PropertyVerdict(p, witness is None, witness, _universe(g, p))
            assert check_property(g, p) == want, (p, g.table)
            assert report.verdicts[p] == want, (p, g.table)


def test_stored_verdicts_do_not_depend_on_request_order():
    requests = [(p, 3) for p in Property if p is not P.WORD_IDEMPOTENT]
    requests += [(P.WORD_IDEMPOTENT, bound) for bound in (1, 2, 3)]
    rng = random.Random(31)
    for i in range(150):
        g = random_groupoid(
            rng, rng.randint(1, 4), rng.random(), reflexive=i % 2 == 0, idempotent=i % 3 == 0
        )
        rng.shuffle(requests)
        for p, bound in requests:
            fresh = FiniteGroupoid(g.elements, g.table)
            assert check_property(g, p, bound) == check_property(fresh, p, bound), (p, bound)
        for p, bound in requests:
            assert check_property(g, p, bound) is check_property(g, p, bound)


# -- word idempotence specifics ---------------------------------------------------


def test_word_idempotence_at_bound_one_is_exactly_idempotence():
    rng = random.Random(11)
    for _ in range(60):
        g = random_groupoid(rng, 4, rng.uniform(0.2, 0.9))
        assert (
            check_property(g, P.WORD_IDEMPOTENT, 1).holds
            == check_property(g, P.IDEMPOTENT).holds
        )


def test_word_idempotence_matches_the_parenthesization_oracle():
    """Verdict, first witness and universe at bounds 1 to 3, on the fixtures
    and 500 seeded tables of 1 to 4 elements, three in four idempotent."""
    samples = list(finite_fixture_suite().values())
    rng = random.Random(2027)
    samples += [
        random_groupoid(
            rng, rng.randint(1, 4), rng.random(), reflexive=i % 2 == 0, idempotent=i % 4 != 0
        )
        for i in range(500)
    ]
    lengths = set()
    for g in samples:
        for bound in (1, 2, 3):
            witness = first_nr_violation(g, bound)
            universe = f"words of length <= {bound} over {len(g)} elements"
            want = PropertyVerdict(P.WORD_IDEMPOTENT, witness is None, witness, universe)
            assert check_property(g, P.WORD_IDEMPOTENT, bound) == want, (bound, g.table)
            lengths.add(len(witness) if witness else None)
    assert lengths == {None, 1, 2, 3}


def _assert_nr_matches_oracle(g, bound):
    witness = first_nr_violation(g, bound)
    verdict = check_property(g, P.WORD_IDEMPOTENT, bound)
    assert (verdict.holds, verdict.witness) == (witness is None, witness), (bound, g.table)


def test_word_idempotence_on_every_idempotent_three_element_table():
    # I holds on each, so the verdict comes from SA or from words of length 2
    sa_tables = []
    for g in idempotent_tables():
        _assert_nr_matches_oracle(g, 2)
        if check_property(g, P.STRONGLY_ASSOCIATIVE).holds:
            sa_tables.append(g)
    assert len(sa_tables) == 51
    for g in sa_tables:
        _assert_nr_matches_oracle(g, 3)
        assert check_property(g, P.WORD_IDEMPOTENT, 3).holds
        # the interval pass gives each word the values of all its groupings
        for word in itertools.product(g.elements, repeat=3):
            assert word_product(g, word) == parenthesization_products(g, [{w} for w in word])


def test_word_idempotence_needs_strong_associativity_not_associativity():
    # I and A but not SA: (a d) b = d b = c, while a (d b) = a c is undefined,
    # so the word a d b has product {c} and its doubling's differs
    g = FiniteGroupoid(
        ("a", "b", "c", "d"),
        {
            ("a", "a"): "a", ("a", "d"): "d", ("b", "b"): "b", ("b", "d"): "b",
            ("c", "a"): "b", ("c", "c"): "c", ("d", "b"): "c", ("d", "d"): "d",
        },
    )
    assert check_property(g, P.IDEMPOTENT).holds
    assert check_property(g, P.ASSOCIATIVE).holds
    assert not check_property(g, P.STRONGLY_ASSOCIATIVE).holds
    _assert_nr_matches_oracle(g, 3)
    assert check_property(g, P.WORD_IDEMPOTENT, 3).witness == ("a", "d", "b")
    # d (c a) = d b = c although d c is undefined: not a left fold
    assert word_product(g, ("d", "c", "a")) == parenthesization_products(g, [{"d"}, {"c"}, {"a"}])
    assert word_product(g, ("d", "c", "a")) == {"c"}


def test_word_idempotence_makes_one_pass_per_word(monkeypatch):
    import matchmerge.properties as properties

    calls = []
    original = properties._prefix_products

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(properties, "_prefix_products", counting)
    # I and not SA: length 1 is settled by I, then one pass per longer word,
    # not one per word and one per doubling
    assert check_property(builtin("uchain", 4), P.WORD_IDEMPOTENT, 3).holds
    assert len(calls) == 4**2 + 4**3
    # I and SA settle NR at every bound without a pass
    calls.clear()
    assert check_property(builtin("maxnat", 4), P.WORD_IDEMPOTENT, 3).holds
    assert calls == []


def test_word_idempotence_universe_mentions_bound(p1):
    verdict = check_property(p1, P.WORD_IDEMPOTENT, 2)
    assert "length <= 2" in verdict.checked_universe


def test_word_idempotence_rejects_silly_bound(p1):
    with pytest.raises(ValueError):
        check_property(p1, P.WORD_IDEMPOTENT, 0)


# -- report and audit ---------------------------------------------------------------


def test_report_flags(p1, max10):
    assert not property_report(p1).is_icar
    assert not property_report(p1).is_partial_semigroup_ca
    assert property_report(max10).is_icar
    assert property_report(max10).is_partial_semigroup_ca


def test_implication_audit_clean_on_fixtures():
    for name, g in finite_fixture_suite().items():
        assert implication_audit(g, property_report(g)) == [], name


def test_implication_audit_clean_on_random_groupoids():
    rng = random.Random(23)
    for _ in range(120):
        g = random_groupoid(rng, 4, rng.uniform(0.1, 0.95))
        assert implication_audit(g, property_report(g)) == []


def test_implication_audit_flags_inconsistent_report(p1):
    report = property_report(p1)
    # break the CA verdict on purpose: the audit must scream
    verdicts = dict(report.verdicts)
    good = verdicts[P.CATENARY_ASSOCIATIVE]
    verdicts[P.CATENARY_ASSOCIATIVE] = type(good)(
        good.property, True, None, good.checked_universe
    )
    broken = type(report)(verdicts)
    assert implication_audit(p1, broken) != []


# -- preservation under homomorphisms -------------------------------------------------

PRESERVED = (
    P.SYMMETRIC,
    P.IDEMPOTENT,
    P.COMMUTATIVE,
    P.STRONGLY_COMMUTATIVE,
    P.REPRESENTATIVE,
    P.ASSOCIATIVE,
    P.CATENARY_ASSOCIATIVE,
    P.STRONGLY_ASSOCIATIVE,
)


def _assert_preserved(source, img):
    for p in PRESERVED:
        if check_property(source, p).holds:
            assert check_property(img, p).holds, p


def test_identity_maps_preserve_properties():
    for g in finite_fixture_suite().values():
        h = Homomorphism(g, g, {e: e for e in g.elements})
        _assert_preserved(g, image(h))


def test_constant_maps_preserve_properties():
    for g in finite_fixture_suite().values():
        idempotents = [e for e in g.elements if g.table.get((e, e)) == e]
        for e in idempotents:
            h = Homomorphism(g, g, {x: e for x in g.elements})
            _assert_preserved(g, image(h))


def test_quotient_projections_preserve_properties(leftzero2, max10, twoblock, unit):
    for g in (leftzero2, max10, twoblock, unit):
        q = quotient(g)
        _assert_preserved(g, image(q.projection))
