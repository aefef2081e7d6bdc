from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchmerge import (
    Budget,
    FiniteGroupoid,
    ForeignElementError,
    Homomorphism,
    NotGeneratingSetError,
    NotHomomorphismError,
    Property,
    Verdict,
    builtin,
    check_homomorphism,
    check_property,
    generated_subgroupoid,
    image,
    irreducible_generating_set,
    null_extension,
    property_report,
)
from matchmerge.groupoid import _subset_product
from helpers import (
    brute_force_generates,
    closure_by_rounds,
    naive_merge_closure,
    parenthesization_products,
    random_groupoid,
    random_sparse_shaped,
    successor_chain,
)
import random
from itertools import chain, combinations


@st.composite
def groupoids(draw, max_size=4, idempotent=False, reflexive=False):
    n = draw(st.integers(1, max_size))
    elements = tuple("abcd"[:n])
    table = {}
    for x in elements:
        for y in elements:
            if x == y and idempotent:
                table[(x, y)] = x
            elif (reflexive and x == y) or draw(st.booleans()):
                table[(x, y)] = draw(st.sampled_from(elements))
    return FiniteGroupoid(elements, table)


# -- construction and composition ---------------------------------------------


def test_carrier_must_be_nonempty():
    with pytest.raises(ValueError):
        FiniteGroupoid((), {})


def test_table_values_must_stay_in_carrier():
    with pytest.raises(ValueError):
        FiniteGroupoid(("a",), {("a", "a"): "z"})


def test_first_foreign_operand_or_value_in_table_order_is_named():
    cases = (
        ({("a", "a"): "x", ("y", "a"): "a"}, "composition ('a', 'a') -> 'x' mentions 'x'"),
        ({("y", "a"): "a", ("a", "a"): "x"}, "composition ('y', 'a') -> 'a' mentions 'y'"),
        ({("a", "x"): "y"}, "composition ('a', 'x') -> 'y' mentions 'x'"),
        ({("a", "a"): "a", ("b", "a"): "zz"}, "composition ('b', 'a') -> 'zz' mentions 'zz'"),
    )
    for table, message in cases:
        with pytest.raises(ValueError) as err:
            FiniteGroupoid(("a", "b"), table)
        assert str(err.value) == message + ", which is outside the carrier"


def test_unhashable_table_value_raises_type_error_in_table_order():
    with pytest.raises(TypeError):
        FiniteGroupoid(("a",), {("a", "a"): ["a"]})
    with pytest.raises(TypeError):
        FiniteGroupoid(("a", "b"), {("a", "a"): ["a"], ("b", "a"): "zz"})
    # a foreign id met first is named, as it is met first
    with pytest.raises(ValueError, match="mentions 'zz'"):
        FiniteGroupoid(("a", "b"), {("b", "a"): "zz", ("a", "a"): ["a"]})


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        FiniteGroupoid(("a", "a"), {})


def test_non_string_element_ids_rejected():
    with pytest.raises(ValueError, match="element ids must be strings, got 1"):
        FiniteGroupoid(("a", 1), {})


def test_compose_p1_defined_pair(p1):
    assert p1.compose("a", "b") == "b"


def test_compose_p1_undefined_pair_is_absent_not_error(p1):
    assert p1.compose("a", "c") is None


def test_compose_idempotent_loops(p1):
    for e in p1.elements:
        assert p1.compose(e, e) == e


def test_compose_foreign_element_is_a_distinct_error(p1):
    with pytest.raises(ForeignElementError):
        p1.compose("a", "zz")
    with pytest.raises(ForeignElementError):
        p1.compose("zz", "a")


def test_domain_equals_table_keys(p1):
    assert p1.domain == frozenset(p1.table)


class _CountingTable(dict):
    """A composition table that logs each entry it hands out: ``(x, y)``
    for an entry of an ``items()`` pass, ``("get", x, y)`` for a ``get``."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def get(self, key, default=None):
        self.log.append(("get", *key))
        return dict.get(self, key, default)

    def items(self):
        for key, value in dict.items(self):
            self.log.append(key)
            yield key, value


def _filed_by_definition(g: FiniteGroupoid):
    """The rows and columns of ``g``, each a list of its (operand, value)
    entries in carrier order, from a comprehension over ``g.table``."""
    e, table = g.elements, g.table
    rows = {x: [(y, table[x, y]) for y in e if (x, y) in table] for x in e}
    columns = {y: [(x, table[x, y]) for x in e if (x, y) in table] for y in e}
    return rows, columns


def _listed(lines):
    """Filed lines as lists of their (operand, value) items, in dict order."""
    return {k: list(line.items()) for k, line in lines.items()}


def test_every_row_and_column_costs_its_entries_not_the_carrier():
    # a successor chain of 48 elements has 46 entries among 2,304 pairs
    g = builtin("chain", 48)
    log = []
    object.__setattr__(g, "table", _CountingTable(g.table, log))
    rows, columns = g._filing
    # all the lines together read each defined entry once, and no other pair
    assert sorted(log) == sorted(g.table)
    # the lines are plain dicts of the table's entries, keyed in carrier order
    assert all(type(line) is dict for line in [*rows.values(), *columns.values()])
    assert (_listed(rows), _listed(columns)) == _filed_by_definition(g)


def test_filing_matches_a_comprehension_over_the_table_order_included():
    # seeded random and sparse-shaped tables on shuffled carriers, their
    # entries inserted in random order, plus a restriction of each: every
    # line holds the table's entries in carrier order, whatever the table's
    # insertion order
    rng = random.Random(29)
    tables = []
    for i in range(60):
        size = rng.randint(1, 14)
        g = random_groupoid(rng, size, rng.uniform(0.05, 0.9), idempotent=i % 2 == 0)
        tables.append(FiniteGroupoid(tuple(rng.sample(g.elements, size)), g.table))
    tables += [random_sparse_shaped(rng, rng.randint(8, 40)) for _ in range(20)]
    unordered = 0
    for g in tables:
        entries = list(g.table.items())
        rng.shuffle(entries)
        scrambled = FiniteGroupoid(g.elements, dict(entries))
        subset = rng.sample(g.elements, rng.randint(1, len(g)))
        for h in (scrambled, scrambled.restrict(subset)):
            rows, columns = h._filing
            assert list(rows) == list(columns) == list(h.elements)
            assert (_listed(rows), _listed(columns)) == _filed_by_definition(h)
            unordered += list(h.table) != [(x, y) for x, y in h.pairs() if (x, y) in h.table]
    # the tables' own entry order is almost never carrier order
    assert unordered > len(tables)


def test_restrict_matches_a_comprehension_over_the_table():
    # seeded sparse tables and successor chains on shuffled carriers, each
    # restricted to subsets given in random order: the result's carrier
    # follows the subset, and its table holds the entries whose operands
    # and value all lie inside
    rng = random.Random(27)
    tables = [successor_chain(rng, rng.randint(5, 30), loops=i % 2 == 0) for i in range(6)]
    for _ in range(150):
        size = rng.randint(1, 12)
        g = random_groupoid(rng, size, rng.uniform(0.05, 0.5), idempotent=rng.random() < 0.5)
        tables.append(FiniteGroupoid(tuple(rng.sample(g.elements, size)), g.table))
    unordered = dropped = 0
    for g in tables:
        for _ in range(4):
            subset = rng.sample(g.elements, rng.randint(1, len(g)))
            inside = set(subset)
            sub = g.restrict(subset)
            assert sub.elements == tuple(subset)
            assert sub.table == {
                (x, y): v for (x, y), v in g.table.items() if {x, y, v} <= inside
            }
            unordered += subset != sorted(subset, key=g.elements.index)
            dropped += any(
                x in inside and y in inside and v not in inside for (x, y), v in g.table.items()
            )
    # most subsets are out of carrier order, and some drop an entry whose
    # value escapes
    assert unordered > 0 and dropped > 0


def test_restrict_refuses_foreign_duplicate_and_empty_subsets(p1):
    with pytest.raises(ForeignElementError):
        p1.restrict(["a", "zz"])
    with pytest.raises(ValueError, match="duplicate element"):
        p1.restrict(["a", "b", "a"])
    with pytest.raises(ValueError, match="non-empty"):
        p1.restrict([])


class _CountingRows(dict):
    """A table's filed rows that log each row handed out, and ``"walk"``
    for any pass over all of them."""

    def __init__(self, rows, log):
        super().__init__(rows)
        self.log = log

    def __getitem__(self, x):
        self.log.append(x)
        return dict.__getitem__(self, x)

    def __iter__(self):
        self.log.append("walk")
        return dict.__iter__(self)

    def items(self):
        self.log.append("walk")
        return dict.items(self)

    def values(self):
        self.log.append("walk")
        return dict.values(self)


def test_a_restriction_reads_only_its_rows_once_the_table_is_filed():
    g = builtin("uchain", 48)
    log = []
    object.__setattr__(g, "table", _CountingTable(g.table, log))
    rows, columns = g._filing
    log.clear()
    vars(g)["_filing"] = (_CountingRows(rows, log), columns)
    kept = ("a30", "a7", "a8", "a9")
    sub = g.restrict(kept)
    # the k kept rows, in the subset's order, and no entry of the table
    assert log == list(kept)
    assert sub.table == {
        ("a30", "a30"): "a30", ("a7", "a7"): "a7", ("a7", "a8"): "a9",
        ("a8", "a8"): "a8", ("a9", "a9"): "a9",
    }


def test_a_report_files_a_table_once_and_a_closure_after_it_files_nothing(monkeypatch):
    filed = []
    original = FiniteGroupoid._filing.func
    monkeypatch.setattr(FiniteGroupoid._filing, "func", lambda g: filed.append(g) or original(g))
    g = builtin("uchain", 12)
    property_report(g, 3)  # reads rows and columns
    assert filed == [g]
    closure = generated_subgroupoid(g, ["a1", "a2"])
    assert closure.closed and set(closure.carrier) == set(g.elements)
    assert filed == [g]


class _CountingPasses(_CountingTable):
    """A ``_CountingTable`` that also logs ``"pass"`` for each pass over
    its keys."""

    def __iter__(self):
        self.log.append("pass")
        return dict.__iter__(self)

    def keys(self):
        self.log.append("pass")
        return dict.keys(self)


def test_a_closure_on_an_unfiled_table_files_nothing_and_passes_over_it_once():
    g = builtin("uchain", 48)
    log = []
    object.__setattr__(g, "table", _CountingPasses(g.table, log))
    closure = generated_subgroupoid(g, ["a1", "a2"])
    assert closure.closed and set(closure.carrier) == set(g.elements)
    assert "_filing" not in vars(g)
    # one pass over the keys, then one lookup per composition, each pair once
    assert log[0] == "pass"
    assert sorted(log[1:]) == sorted(("get", x, y) for x, y in dict.keys(g.table))


# -- subset products ------------------------------------------------------------


def test_product_p1_three_singletons(p1):
    assert _subset_product(p1, [{"a"}, {"b"}, {"c"}]) == {"c"}


def test_product_single_factor_is_identity(p1):
    assert _subset_product(p1, [{"b"}]) == {"b"}


def test_product_q2_collects_both_groupings(q2):
    assert _subset_product(q2, [{"a"}, {"b"}, {"c"}]) == {"b", "c"}


def test_product_empty_when_all_groupings_undefined(p1):
    assert _subset_product(p1, [{"c"}, {"a"}]) == frozenset()


def test_product_matches_grouping_tree_oracle_on_fixtures(p1, q2):
    for g in (p1, q2):
        for factors in (
            [{"a"}, {"b"}, {"c"}],
            [{"a", "b"}, {"b"}, {"c"}],
            [{"a"}, {"b"}, {"c"}, {"a"}],
            [{"a", "c"}, {"b", "c"}],
        ):
            assert _subset_product(g, factors) == parenthesization_products(g, factors)


@given(groupoids(), st.integers(0, 10**6))
def test_product_matches_grouping_tree_oracle_random(g, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    factors = [
        {rng.choice(g.elements) for _ in range(rng.randint(1, 2))} for _ in range(n)
    ]
    assert _subset_product(g, factors) == parenthesization_products(g, factors)


@given(groupoids())
def test_product_of_two_singletons_agrees_with_compose(g):
    for x in g.elements:
        for y in g.elements:
            got = _subset_product(g, [{x}, {y}])
            composed = g.compose(x, y)
            assert got == (frozenset({composed}) if composed is not None else frozenset())


# -- generated subgroupoids ------------------------------------------------------


def test_closure_of_chain_exhausts_small_budget():
    ch = builtin("chain", 50)
    result = generated_subgroupoid(ch, ["a1", "a2"], Budget(max_elements=10))
    assert result.status == "budget_exhausted"
    assert len(result.carrier) == 10
    assert {"a1", "a2"}.issubset(result.carrier)


def test_closure_of_p1_full_carrier_is_closed(p1):
    result = generated_subgroupoid(p1, ["a", "b", "c"])
    assert result.closed
    assert set(result.carrier) == {"a", "b", "c"}


def test_closure_of_idempotent_singleton(unit):
    result = generated_subgroupoid(unit, ["e"])
    assert result.closed
    assert result.carrier == ("e",)
    assert result.iterations == 1


def test_closure_matches_naive_oracle_on_fixtures():
    for name, seeds in (
        ("p1", ["a", "b"]),
        ("q2", ["a", "b"]),
        ("maxnat", ["2", "5", "7"]),
        ("uchain", ["a1", "a2"]),
    ):
        g = builtin(name) if name != "maxnat" else builtin(name, 10)
        result = generated_subgroupoid(g, seeds)
        assert result.closed
        assert frozenset(result.carrier) == naive_merge_closure(g, seeds)


@given(groupoids(), st.data())
def test_closure_matches_naive_oracle_random(g, data):
    seeds = data.draw(
        st.lists(st.sampled_from(g.elements), min_size=1, max_size=len(g.elements))
    )
    result = generated_subgroupoid(g, seeds)
    assert result.closed
    assert frozenset(result.carrier) == naive_merge_closure(g, seeds)


@given(groupoids(), st.data())
def test_closure_monotone_and_idempotent(g, data):
    members = sorted(set(data.draw(st.lists(st.sampled_from(g.elements), min_size=1, max_size=3))))
    bigger = sorted(set(members + data.draw(st.lists(st.sampled_from(g.elements), max_size=2))))
    small = generated_subgroupoid(g, members)
    large = generated_subgroupoid(g, bigger)
    assert small.closed and large.closed
    assert set(small.carrier) <= set(large.carrier)
    again = generated_subgroupoid(g, small.carrier)
    assert set(again.carrier) == set(small.carrier)
    assert again.groupoid.table == small.groupoid.table


def test_closure_restriction_is_merge_closed(q2):
    result = generated_subgroupoid(q2, ["a", "b"])
    inside = set(result.carrier)
    for (x, y), v in result.groupoid.table.items():
        assert {x, y, v} <= inside


def test_closure_requires_nonempty_seed(p1):
    with pytest.raises(ValueError):
        generated_subgroupoid(p1, [])


def _closure_cases(rng):
    """Seeded (table, seeds) pairs: successor chains with and without loops,
    seeded with an operand pair at several offsets along the chain, and
    sparse-shaped tables with their entries inserted in shuffled order,
    seeded with random elements; every carrier is shuffled."""
    for i in range(6):
        g = successor_chain(rng, rng.randint(20, 48), loops=i % 2 == 0)
        links = [(x, y) for x, y in g.table if x != y]  # along the chain, in order
        for at in (0, len(links) // 4, len(links) // 2, len(links) - 1):
            yield g, list(links[at])
        yield g, rng.sample(g.elements, 3)
    for _ in range(6):
        g = random_sparse_shaped(rng, rng.randint(20, 48))
        entries = list(g.table.items())
        rng.shuffle(entries)
        g = FiniteGroupoid(g.elements, dict(entries))
        for k in (2, 4, 8):
            yield g, rng.sample(g.elements, k)


def _closure_outcome(g, seeds, budget=Budget()):
    result = generated_subgroupoid(g, seeds, budget)
    table = list(result.groupoid.table.items())
    return result.status, result.carrier, table, result.iterations


def test_closure_matches_the_round_oracle_under_every_budget():
    # status, carrier order, the table in the order composed, and the round
    # count agree with the oracle, closed and stopped at every element
    # budget up to the closure's size and at one to three rounds
    stopped = grown = 0
    for g, seeds in _closure_cases(random.Random(30)):
        full = closure_by_rounds(g, seeds)
        assert full[0] == "closed"
        assert _closure_outcome(g, seeds) == full
        size = len(full[1])
        grown += size > len(set(seeds))
        for m in range(1, size + 1):
            expected = closure_by_rounds(g, seeds, max_elements=m)
            assert _closure_outcome(g, seeds, Budget(max_elements=m)) == expected
            stopped += expected[0] == "budget_exhausted"
        for r in (1, 2, 3):
            expected = closure_by_rounds(g, seeds, max_rounds=r)
            assert _closure_outcome(g, seeds, Budget(max_rounds=r)) == expected
            stopped += expected[0] == "budget_exhausted"
    # most instances grow, and most budgets stop the run
    assert grown > 30 and stopped > 500


# -- irreducible generating sets --------------------------------------------------


def _powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_irreducible_set_of_p1_is_everything(p1):
    result = irreducible_generating_set(p1, ["a", "b", "c"])
    assert result == ("a", "b", "c")
    # brute force: no proper subset generates
    for subset in _powerset(p1.elements):
        if set(subset) < {"a", "b", "c"}:
            assert not brute_force_generates(p1, subset)


def test_irreducible_singleton(unit):
    assert irreducible_generating_set(unit, ["e"]) == ("e",)


def test_irreducible_two_disjoint_idempotents(twoblock):
    assert irreducible_generating_set(twoblock, ["u", "v"]) == ("u", "v")


def test_irreducible_drops_redundant_generators():
    mx = builtin("maxnat", 4)
    result = irreducible_generating_set(mx, ["0", "1", "2", "3"])
    assert brute_force_generates(mx, result)
    for e in result:
        assert not brute_force_generates(mx, [x for x in result if x != e])


def test_irreducible_rejects_non_generating_set(p1):
    with pytest.raises(NotGeneratingSetError):
        irreducible_generating_set(p1, ["a", "b"])


def test_irreducible_rejects_an_empty_generator_set(p1):
    with pytest.raises(ValueError, match="generator set must be non-empty"):
        irreducible_generating_set(p1, [])


@given(groupoids(idempotent=True), st.data())
def test_irreducible_result_generates_and_is_minimal(g, data):
    full = list(g.elements)
    result = irreducible_generating_set(g, full)
    assert brute_force_generates(g, result)
    for e in result:
        assert not brute_force_generates(g, [x for x in result if x != e])


# -- null extension ----------------------------------------------------------------


def test_null_extension_of_p1(p1):
    ext = null_extension(p1)
    bottom = ext.elements[-1]
    assert len(ext) == 4
    assert ext.compose("a", "c") == bottom
    for e in ext.elements:
        assert ext.compose(bottom, e) == bottom
        assert ext.compose(e, bottom) == bottom
    assert ext.compose("a", "b") == "b"


def test_null_extension_is_total(p1, q2, chain12):
    for g in (p1, q2, chain12):
        ext = null_extension(g)
        assert set(ext.table) == {(x, y) for x in ext.elements for y in ext.elements}


def test_null_extension_of_total_groupoid_adds_absorbing_row(max10):
    ext = null_extension(max10)
    bottom = ext.elements[-1]
    for (x, y), v in max10.table.items():
        assert ext.compose(x, y) == v
    assert ext.compose(bottom, "3") == bottom


def test_null_extension_q2_breaks_associativity(q2):
    ext = null_extension(q2)
    left = ext.compose(ext.compose("a", "b"), "c")
    right = ext.compose("a", ext.compose("b", "c"))
    assert left == "b" and right == "c"
    verdict = check_property(ext, Property.STRONGLY_ASSOCIATIVE)
    assert not verdict.holds and verdict.witness == ("a", "b", "c")


def test_null_extension_associative_iff_source_strongly_associative():
    rng = random.Random(4)
    cases = [builtin("p1"), builtin("q2"), builtin("maxnat", 6), builtin("chain", 6)]
    cases += [random_groupoid(rng, 3, rng.uniform(0.2, 0.9)) for _ in range(40)]
    for g in cases:
        source_sa = check_property(g, Property.STRONGLY_ASSOCIATIVE).holds
        ext_assoc = check_property(null_extension(g), Property.STRONGLY_ASSOCIATIVE).holds
        assert ext_assoc == source_sa


def test_null_extension_idempotent_iff_source_idempotent(p1, q2):
    for g, expected in ((p1, True), (q2, False)):
        ext = null_extension(g)
        bottom = ext.elements[-1]
        source_idem = check_property(g, Property.IDEMPOTENT).holds
        ext_idem = all(ext.compose(e, e) == e for e in ext.elements)
        assert source_idem is expected
        assert ext_idem == source_idem
        assert ext.compose(bottom, bottom) == bottom


def test_null_extension_avoids_name_clash():
    g = FiniteGroupoid(("⊥",), {("⊥", "⊥"): "⊥"})
    ext = null_extension(g)
    assert len(set(ext.elements)) == 2


# -- homomorphisms -------------------------------------------------------------------


def test_identity_is_a_homomorphism(p1):
    h = Homomorphism(p1, p1, {e: e for e in p1.elements})
    assert check_homomorphism(h).holds
    assert image(h) == p1


def test_failing_map_carries_first_witness(p1):
    h = Homomorphism(p1, p1, {"a": "c", "b": "b", "c": "c"})
    verdict = check_homomorphism(h)
    assert not verdict.holds
    assert verdict.witness == ("a", "b")
    with pytest.raises(NotHomomorphismError):
        image(h)


def test_map_whose_images_compose_to_another_value_carries_first_witness():
    # the identity into a copy of maxnat where 1 2 is 1, not 2
    source = builtin("maxnat", 3)
    target = FiniteGroupoid(source.elements, {**source.table, ("1", "2"): "1"})
    identity = {e: e for e in source.elements}
    verdict = check_homomorphism(Homomorphism(source, target, identity))
    assert verdict == Verdict(False, ("1", "2"), "images compose to a different value")
    assert not verdict
    assert check_homomorphism(Homomorphism(source, source, identity))


def test_constant_map_into_idempotent_is_a_homomorphism(q2, unit):
    target = FiniteGroupoid(
        q2.elements + ("e",),
        {**q2.table, ("e", "e"): "e"},
    )
    h = Homomorphism(q2, target, {e: "e" for e in q2.elements})
    assert check_homomorphism(h).holds
    img = image(h)
    assert img.elements == ("e",)
    assert img.table == {("e", "e"): "e"}


def test_partial_map_rejected(p1):
    with pytest.raises(ValueError):
        Homomorphism(p1, p1, {"a": "a"})


def test_map_outside_target_rejected(p1, unit):
    with pytest.raises(ForeignElementError):
        Homomorphism(unit, p1, {"e": "zz"})


@given(groupoids(idempotent=True))
def test_image_of_constant_map_is_well_formed(g):
    # constant maps to an idempotent element are always homomorphisms
    target = g
    for e in g.elements:
        h = Homomorphism(g, target, {x: e for x in g.elements})
        if check_homomorphism(h).holds:
            img = image(h)
            assert set(img.elements) <= set(g.elements)
            for (x, y), v in img.table.items():
                assert {x, y, v} <= set(img.elements)
