from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest

from matchmerge import (
    FiniteGroupoid,
    Homomorphism,
    Property,
    PropertyVerdict,
    Record,
    builtin,
    check_property,
    image,
    implication_audit,
    property_report,
    quotient,
)
from matchmerge.groupoid import _subset_product
from conftest import chaining_records, finite_fixture_suite, materialized_records
from helpers import (
    first_nr_violation,
    first_violations,
    idempotent_tables,
    parenthesization_products,
    random_groupoid,
    random_sparse_shaped,
    successor_chain,
    word_products,
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


def test_a_verdict_is_true_exactly_when_its_law_holds(p1):
    verdicts = [check_property(p1, p) for p in Property]
    assert [bool(v) for v in verdicts] == [v.holds for v in verdicts]
    assert {bool(v) for v in verdicts} == {True, False}


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
        once = word_products(g, w)
        return bool(once) and word_products(g, w + w) != once
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


_TRIPLE_LAWS = (P.ASSOCIATIVE, P.CATENARY_ASSOCIATIVE, P.STRONGLY_ASSOCIATIVE)


def _scrambled(g: FiniteGroupoid, rng: random.Random) -> FiniteGroupoid:
    """``g`` with its table entries inserted in random order, so a row read
    in insertion order is not in carrier order."""
    entries = list(g.table.items())
    rng.shuffle(entries)
    return FiniteGroupoid(g.elements, dict(entries))


_ENTRY_LAWS = (
    P.LEFT_REPRESENTATIVE, P.RIGHT_REPRESENTATIVE, P.REPRESENTATIVE,
    P.SYMMETRIC, P.COMMUTATIVE, P.STRONGLY_COMMUTATIVE,
)


def _assert_triple_laws_match_oracle(g: FiniteGroupoid) -> dict:
    """A, CA and SA, and the laws whose scans read the defined entries (Rl,
    Rr and R through the table's rows and columns, S, C and SC in the
    table's insertion order), against the oracle; returns the first three."""
    expected = first_violations(g)
    for p in _TRIPLE_LAWS + _ENTRY_LAWS:
        witness = expected[str(p)]
        want = PropertyVerdict(p, witness is None, witness, _universe(g, p))
        assert check_property(g, p) == want, (p, g.elements, g.table)
    return {str(p): expected[str(p)] for p in _TRIPLE_LAWS}


def test_triple_scan_matches_the_oracle_on_large_sparse_tables():
    """Successor chains of 20 to 48 elements with and without loops, in
    their own and in a shuffled carrier order, and seeded random tables of
    7 to 30 elements at densities up to 0.15, each with its entries
    inserted in random order; every law checked holds on some and fails on
    others."""
    rng = random.Random(15)
    tables = []
    for n in (20, 33, 48):
        for name in ("chain", "uchain"):
            g = builtin(name, n)
            tables.append(g)
            tables.append(FiniteGroupoid(tuple(rng.sample(g.elements, n)), g.table))
    for i in range(60):
        size = rng.randint(7, 30)
        tables.append(random_groupoid(rng, size, rng.uniform(0.01, 0.15), reflexive=i % 2 == 0))
    laws = _TRIPLE_LAWS + _ENTRY_LAWS
    seen = set()
    for g in tables:
        scrambled = _scrambled(g, rng)
        _assert_triple_laws_match_oracle(scrambled)
        seen.update((p, check_property(scrambled, p).holds) for p in laws)
    assert seen == {(p, holds) for p in laws for holds in (True, False)}


def test_triple_scan_matches_the_oracle_on_record_closures():
    """Closure tables of seeded record instances, with one or two names per
    record, so bridges break SA while A and CA hold."""
    rng = random.Random(41)
    sa_failed = 0
    for _ in range(30):
        pool = ["k1", "k2", "k3", "k4"]
        records = [
            Record.of(name=set(rng.sample(pool, rng.randint(1, 2))), src={f"r{i}"})
            for i in range(rng.randint(2, 5))
        ]
        g = materialized_records(records)
        found = _assert_triple_laws_match_oracle(g)
        assert found["A"] is None and found["CA"] is None
        sa_failed += found["SA"] is not None
    assert sa_failed >= 5


def test_triple_scan_finds_strong_associativity_in_an_undefined_cell():
    # b b is undefined while b (b d) = b d = d: the first SA witness, though
    # the cell (b, d) before it is defined; b's row holds d and c, inserted
    # c first, and the carrier puts d first
    g = FiniteGroupoid(
        ("d", "b", "a", "c"),
        {("c", "c"): "c", ("a", "d"): "d", ("b", "c"): "c", ("b", "d"): "d"},
    )
    assert _assert_triple_laws_match_oracle(g) == {"A": None, "CA": None, "SA": ("b", "b", "d")}


def test_triple_scan_finds_catenary_associativity_after_strong_associativity():
    # SA fails first at (d, b, a): d b is undefined and d (b a) = d a = c.
    # CA fails later in carrier order, at (d, a, b): d a = c and a b = a,
    # while (d a) b = c b is undefined; a's row holds c and b, inserted c
    # first, and (d, a, c) fails CA too
    g = FiniteGroupoid(
        ("d", "b", "a", "c"),
        {("a", "c"): "d", ("a", "b"): "a", ("b", "a"): "a", ("d", "a"): "c"},
    )
    assert _assert_triple_laws_match_oracle(g) == {
        "A": None, "CA": ("d", "a", "b"), "SA": ("d", "b", "a")
    }


def _count_filings(monkeypatch) -> list:
    """Patch the filing of every table; returns the list of the tables
    filed, in filing order."""
    filed = []
    original = FiniteGroupoid._filing.func
    monkeypatch.setattr(FiniteGroupoid._filing, "func", lambda g: filed.append(g) or original(g))
    return filed


def _record_cluster_closure(*blocks) -> FiniteGroupoid:
    """The materialized closure of clustered records: the records of a
    cluster share a name, a block of one size is a lone cluster, and a block
    of two sizes is two clusters plus a bridge record that carries both
    names.  Every record has its own ``src``, so every union is distinct."""
    records = []
    for b, block in enumerate(blocks):
        names = [f"n{b}.{k}" for k in range(len(block))]
        for name, size in zip(names, block):
            records += [Record.of(name={name}, src={f"{name}.{i}"}) for i in range(size)]
        if len(block) == 2:
            records.append(Record.of(name=set(names), src={f"n{b}.bridge"}))
    return materialized_records(records)


def _is_chain(g: FiniteGroupoid, w) -> bool:
    return (w[0], w[1]) in g.table and (w[1], w[2]) in g.table


def test_law_scans_match_the_oracle_beyond_the_three_element_sweep():
    """Rl, Rr, R, A, CA and SA against the oracle on 300 seeded sparse
    idempotent tables of 10 to 22 elements at densities 0.02 to 0.3, on
    shuffled carriers with their entries inserted in random order, and on
    two record-cluster closures: one where SA holds, and one where a bridge
    record breaks SA while every other law holds."""
    rng = random.Random(25)
    tables = []
    for _ in range(300):
        size = rng.randint(10, 22)
        g = random_groupoid(rng, size, rng.uniform(0.02, 0.3), idempotent=True)
        tables.append(_scrambled(FiniteGroupoid(tuple(rng.sample(g.elements, size)), g.table), rng))
    holding = _record_cluster_closure((1,), (1,), (2,), (1,), (3,))
    bridged = _record_cluster_closure((2, 1), (1,))
    tables += [holding, bridged]
    laws = _TRIPLE_LAWS + _ENTRY_LAWS[:3]
    seen, off_chain = set(), 0
    for g in tables:
        expected = first_violations(g)
        for p in laws:
            witness = expected[str(p)]
            want = PropertyVerdict(p, witness is None, witness, _universe(g, p))
            assert check_property(g, p) == want, (p, g.elements, g.table)
            seen.add((p, witness is None))
        sa = expected["SA"]
        off_chain += sa is not None and not _is_chain(g, sa)
    assert seen == {(p, holds) for p in laws for holds in (True, False)}
    # SA fails off the chains, where only the counts can see it
    assert off_chain >= 30
    assert all(check_property(holding, p).holds for p in laws)
    assert [p for p in laws if not check_property(bridged, p).holds] == [P.STRONGLY_ASSOCIATIVE]


class _CountingTable(dict):
    """A table that counts its ``get`` and ``in`` lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)

    def __contains__(self, key):
        self.lookups += 1
        return dict.__contains__(self, key)


def _counting(g: FiniteGroupoid) -> _CountingTable:
    table = _CountingTable(g.table)
    object.__setattr__(g, "table", table)
    return table


class _CountingLine(dict):
    """A filed line that counts its ``get`` calls on a shared tally."""

    def __init__(self, line, tally):
        super().__init__(line)
        self.tally = tally

    def get(self, key, default=None):
        self.tally[0] += 1
        return dict.get(self, key, default)


def test_triple_scan_makes_two_lookups_per_defined_chain():
    # SA holds on this 13-element closure with 61 entries, so no witness is
    # searched for: the scan reads ab o p3 off ab's row and p1 o bc off p1's
    # row once per chain, counts the rest off the filing, and makes no table
    # lookup (the cell loop it replaced made 2,548)
    g = _record_cluster_closure((1,), (1,), (2,), (1,), (3,))
    rows, columns = g._filing
    chains = sum(len(rows[p2]) for row in rows.values() for p2 in row)
    tally = [0]
    vars(g)["_filing"] = {x: _CountingLine(row, tally) for x, row in rows.items()}, columns
    table = _counting(g)
    assert all(check_property(g, p).holds for p in _TRIPLE_LAWS)
    assert (len(g), len(table), chains) == (13, 61, 373)
    assert (tally[0], table.lookups) == (2 * chains, 0)


def test_representativity_scan_makes_no_table_lookup():
    # each law is a subset test of two operand sets built from the filing,
    # and a failing line is walked against such a set too: R holds on the
    # record closure, and Rl, Rr and R all fail on uchain
    tables = ((_record_cluster_closure((2, 1), (3,)), True), (builtin("uchain", 12), False))
    for g, holds in tables:
        table = _counting(g)
        assert [check_property(g, p).holds for p in _ENTRY_LAWS[:3]] == [holds] * 3
        assert table.lookups == 0


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
            witness = _assert_nr_matches_oracle(g, bound)
            lengths.add(len(witness) if witness else None)
    assert lengths == {None, 1, 2, 3}


def _assert_nr_verdict(g, bound, witness):
    """NR at ``bound`` has exactly this first witness (None: it holds), and
    its universe names the bound; returns the witness."""
    universe = f"words of length <= {bound} over {len(g)} elements"
    want = PropertyVerdict(P.WORD_IDEMPOTENT, witness is None, witness, universe)
    assert check_property(g, P.WORD_IDEMPOTENT, bound) == want, (bound, g.table)
    return witness


def _assert_nr_matches_oracle(g, bound):
    return _assert_nr_verdict(g, bound, first_nr_violation(g, bound))


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
            assert _subset_product(g, [{w} for w in word]) == word_products(g, word)


def test_word_idempotence_on_a_sample_of_idempotent_three_element_tables_at_bound_three():
    # the full sweep of all 4,096 at bound 3 agrees too, but takes ~14 s
    rng = random.Random(14)
    sample = [g for g in idempotent_tables() if rng.randrange(8) == 0]
    lengths = [len(w) if w else None for w in (_assert_nr_matches_oracle(g, 3) for g in sample)]
    assert (len(sample), lengths.count(None), lengths.count(2), lengths.count(3)) == (514, 219, 294, 1)


def test_word_idempotence_on_sparse_idempotent_tables_up_to_bound_four():
    """Seeded idempotent tables of 6 to 10 elements with density at most 0.2,
    where few words are defined, at bounds 2 to 4."""
    rng = random.Random(20)
    lengths = set()
    for _ in range(6):
        g = random_groupoid(rng, rng.randint(6, 10), rng.uniform(0.05, 0.2), idempotent=True)
        witness = first_nr_violation(g, 4)
        lengths.add(len(witness) if witness else None)
        for bound in (2, 3, 4):
            # the oracle scans by length, so at a lower bound it answers this
            # witness when it is short enough, else None
            _assert_nr_verdict(g, bound, witness if witness and len(witness) <= bound else None)
    assert lengths == {None, 2, 3, 4}


def test_word_idempotence_stops_at_an_early_witness_of_a_dense_table():
    # the max chain h < g < ... < a in carrier order, except g o d = a and
    # f o d = b: every word starting with h, g, f or e passes, and d g has
    # product {d} while d (g (d g)) = d (g d) = d a = a; d f fails too, after
    # d g in carrier order though before it in the alphabet
    elements = tuple("hgfedcba")
    table = {(x, y): max(x, y, key=elements.index) for x in elements for y in elements}
    table[("g", "d")] = "a"
    table[("f", "d")] = "b"
    g = FiniteGroupoid(elements, table)
    for bound in (2, 3, 4):
        assert _assert_nr_matches_oracle(g, bound) == ("d", "g")


def test_word_idempotence_matches_the_oracle_beyond_the_three_element_sweep():
    """NR at bounds 2 and 3 against the oracle, each table on a shuffled
    carrier: 24 seeded sparse idempotent tables of 10 to 16 elements at
    densities 0.02 to 0.15, 6 successor chains with loops of 20 to 48
    elements, and 2 tables of 20 to 24 elements shaped like the benchmark's
    random sparse tables (a quarter of them sinks)."""
    rng = random.Random(26)
    tables = []
    for _ in range(24):
        size = rng.randint(10, 16)
        g = random_groupoid(rng, size, rng.uniform(0.02, 0.15), idempotent=True)
        tables.append(FiniteGroupoid(tuple(rng.sample(g.elements, size)), g.table))
    tables += [successor_chain(rng, rng.randint(20, 48), loops=True) for _ in range(6)]
    tables += [random_sparse_shaped(rng, rng.randint(20, 24)) for _ in range(2)]
    lengths, words = [], 0
    for g in tables:
        witness = first_nr_violation(g, 3)
        lengths.append(len(witness) if witness else None)
        for bound in (2, 3):
            _assert_nr_verdict(g, bound, witness if witness and len(witness) <= bound else None)
        words += not check_property(g, P.STRONGLY_ASSOCIATIVE).holds
    # every table reaches the word scan, and both lengths of witness occur
    assert words == len(tables) and set(lengths) == {None, 2, 3}


class _CountingRows(dict):
    """A row map that lists the element of every row read, in read order."""

    def __init__(self, rows, read):
        super().__init__(rows)
        self.read = read

    def __getitem__(self, x):
        self.read.append(x)
        return dict.__getitem__(self, x)


def test_word_idempotence_reads_only_the_rows_it_needs():
    # a total idempotent table that fails SA, and NR at its second word (a, b)
    rng = random.Random(3)
    elements = tuple("abcdefghijkl")
    table = {(x, y): x if x == y else rng.choice(elements) for x in elements for y in elements}
    g = FiniteGroupoid(elements, table)
    assert not check_property(g, P.STRONGLY_ASSOCIATIVE).holds
    read = []
    rows, columns = g._filing
    vars(g)["_filing"] = _CountingRows(rows, read), columns
    assert _assert_nr_matches_oracle(g, 3) == ("a", "b")
    # the words of length 2 that start with a need a's row only
    assert read == ["a"]


def test_a_property_report_builds_each_row_of_a_table_once(monkeypatch):
    # a successor chain with loops: I holds and SA fails, so the triple
    # scan, the representativity scan and NR all read rows of the one table
    filed = _count_filings(monkeypatch)
    g = builtin("uchain", 12)
    property_report(g, 3)
    assert filed == [g]


def test_a_reported_table_is_freed_with_its_last_reference():
    # nothing the report stores on the table refers back to it, so the
    # table needs no cycle collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = builtin("uchain", 12)
        property_report(g, 3)
        assert "_filing" in vars(g) and g._derived
        freed = weakref.ref(g)
        del g
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


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
    assert _subset_product(g, [{"d"}, {"c"}, {"a"}]) == word_products(g, ("d", "c", "a")) == {"c"}


def test_word_idempotence_makes_one_pass_per_word(monkeypatch):
    import matchmerge.properties as properties

    calls = []
    original = properties._subset_product

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(properties, "_subset_product", counting)
    # I and not SA: length 1 is settled by I, then one pass over w ++ w per
    # defined word w of length 2 and 3 that is not constant, in carrier
    # order.  An undefined word cannot violate the law, and under I a
    # constant word a...a and its double both have product {a}; neither
    # gets a pass
    g = builtin("uchain", 4)
    assert check_property(g, P.WORD_IDEMPOTENT, 3).holds
    defined = [
        word
        for k in (2, 3)
        for word in itertools.product(g.elements, repeat=k)
        if parenthesization_products(g, [{w} for w in word])
    ]
    assert len(defined) == 19
    mixed = [w for w in defined if len(set(w)) > 1]
    assert len(mixed) == 11
    assert [tuple(e for (e,) in factors) for _, factors in calls] == [w + w for w in mixed]
    # I and SA settle NR at every bound without a pass
    calls.clear()
    assert check_property(builtin("maxnat", 4), P.WORD_IDEMPOTENT, 3).holds
    assert calls == []
    # on a table defined only on the diagonal every defined word is
    # constant, so the word scan makes no pass even when it runs: SA holds
    # there, and a stored failing SA verdict sends NR to the words anyway
    elements = tuple("abcdef")
    for sa in (None, PropertyVerdict(P.STRONGLY_ASSOCIATIVE, False, ("a", "a", "b"), "")):
        g = FiniteGroupoid(elements, {(a, a): a for a in elements})
        if sa is not None:
            g._derived[P.STRONGLY_ASSOCIATIVE] = sa
        assert check_property(g, P.WORD_IDEMPOTENT, 4).holds
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
