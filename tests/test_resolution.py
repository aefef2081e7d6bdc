from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from matchmerge import (
    BlackBoxGroupoid,
    Budget,
    BudgetExhaustedError,
    ERResult,
    FiniteGroupoid,
    ForeignElementError,
    HypothesesNotSatisfiedError,
    IcarViolationError,
    Property,
    Record,
    SizeGuardError,
    builtin,
    check_property,
    er_bruteforce,
    er_full,
    er_maximal,
    generated_subgroupoid,
    materialize,
    merge_closure,
    path_groupoid,
    property_report,
    r_swoosh,
    record_groupoid,
)
from matchmerge.cli import run as run_cli
from conftest import (
    cluster_records,
    finite_fixture_suite,
    materialized_records,
    two_cluster_records,
)
from helpers import (
    clustered_records,
    naive_merge_closure,
    random_groupoid,
    random_paths,
    random_record_instance,
)


# -- merge closure -----------------------------------------------------------------


def test_closure_of_all_matching_records_has_all_unions(record_bb):
    closure = merge_closure(record_bb, cluster_records())
    assert closure.closed
    assert len(closure.carrier) == 7


def _asking(bb):
    """The same rules, with every match call logged as (x id, y id, merged id
    or None)."""
    asked = []

    def match(x, y):
        hit = bb.match(x, y)
        asked.append((bb.key(x), bb.key(y), bb.key(bb.merge(x, y)) if hit else None))
        return hit

    return replace(bb, match=match), asked


def test_record_closure_matches_each_ordered_pair_once(record_bb):
    records = cluster_records() + two_cluster_records()
    # without a feature index every ordered carrier pair is a candidate
    counted, asked = _asking(replace(record_bb, features=None))
    closure = merge_closure(counted, records)
    assert closure.closed
    carrier = closure.carrier
    per_pair = Counter((x, y) for x, y, _ in asked)
    assert set(per_pair) == {(x, y) for x in carrier for y in carrier}
    assert set(per_pair.values()) == {1}
    objects = closure.objects
    assert closure.groupoid.table == {
        (x, y): record_bb.key(record_bb.merge(objects[x], objects[y]))
        for x in carrier
        for y in carrier
        if record_bb.match(objects[x], objects[y])
    }
    # with it, only pairs sharing a key value are asked: each at most once,
    # every pair that matches among them, and the closure is the same
    indexed, asked = _asking(record_bb)
    same = merge_closure(indexed, records)
    per_pair = Counter((x, y) for x, y, _ in asked)
    assert set(per_pair.values()) == {1}
    every_pair = {(x, y) for x in carrier for y in carrier}
    assert set(closure.groupoid.table) <= set(per_pair) < every_pair
    assert (same.carrier, same.iterations, same.groupoid.table) == (
        closure.carrier, closure.iterations, closure.groupoid.table
    )


class _LoggingTable(dict):
    """A composition table that logs each ``get`` as (x, y, value or None)."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self.log.append((*key, value))
        return value


def test_exhausted_record_closure_keeps_the_compositions_it_evaluated(record_bb):
    # five records sharing a key value close to 31 unions; ten fit the budget
    records = [Record.of(name={"ann"}, **{f"src{i}": {f"r{i}"}}) for i in range(5)]
    counted, asked = _asking(record_bb)
    runs = [(counted, records, asked)]
    # explicit hosts keep the same table, logged through the reads of the
    # host's table, which closure makes once per composition
    table_asked = []
    for name in ("chain", "uchain"):
        g = builtin(name, 50)
        object.__setattr__(g, "table", _LoggingTable(g.table, table_asked))
        runs.append((g, ["a1", "a2"], table_asked))

    for host, seeds, log in runs:
        log.clear()
        closure = merge_closure(host, seeds, Budget(max_elements=10))
        assert closure.status == "budget_exhausted"
        inside = set(closure.carrier)
        assert len(inside) == 10
        assert len({(x, y) for x, y, _ in log}) == len(log)
        table = closure.groupoid.table
        assert table == {(x, y): z for x, y, z in log if z is not None and z in inside}
        # the composition that broke the budget was evaluated but is not kept
        assert any(z is not None and z not in inside for _, _, z in log)
        # late elements have no loop in the table, though every record and
        # every uchain element composes with itself: the closure stopped
        # before composing them
        assert any((x, x) not in table for x in inside)


def _as_blackbox(g, declares_icar=False):
    """A table behind black-box rules: match is membership, merge the lookup
    and key the identity."""
    return BlackBoxGroupoid(
        match=lambda x, y: (x, y) in g.table,
        merge=lambda x, y: g.table[(x, y)],
        key=lambda e: e,
        declares_icar=declares_icar,
    )


def _random_tables(rng):
    return [random_groupoid(rng, rng.randint(2, 8), rng.choice((0.2, 0.4))) for _ in range(40)]


def test_tables_and_blackbox_rules_close_alike():
    rng = random.Random(8)
    hosts = list(finite_fixture_suite().values())
    hosts += _random_tables(rng)
    outcomes = set()
    for g in hosts:
        seeds = rng.sample(g.elements, rng.randint(1, len(g)))
        budgets = (Budget(), Budget(max_elements=len(seeds) + 1), Budget(max_rounds=1))
        for kind, budget in enumerate(budgets):
            direct = merge_closure(g, seeds, budget)
            assert direct == merge_closure(_as_blackbox(g), seeds, budget)
            assert direct.objects == {e: e for e in direct.carrier}
            if direct.closed:
                assert direct.groupoid == g.restrict(direct.carrier)
            outcomes.add((kind, direct.status))
    # both tight budgets run out on some hosts and not on others
    closed, exhausted = "closed", "budget_exhausted"
    assert outcomes == {(0, closed), (1, closed), (1, exhausted), (2, closed), (2, exhausted)}


def test_tables_close_over_their_defined_entries_as_rules_do():
    """An explicit host composes only its defined entries, while the same
    table behind rules without features is offered every carrier pair; both
    close alike, down to the carrier order and the table's insertion order.
    Chains get a shuffled carrier and their entries in random order."""
    rng = random.Random(21)
    runs = []
    for g in _random_tables(random.Random(8)):
        runs.append((g, rng.sample(g.elements, rng.randint(1, len(g)))))
    for n in (20, 33, 48):
        for name in ("chain", "uchain"):
            chain = builtin(name, n)
            entries = list(chain.table.items())
            rng.shuffle(entries)
            g = FiniteGroupoid(tuple(rng.sample(chain.elements, n)), dict(entries))
            runs += [(g, ["a1", "a2"]), (g, rng.sample(g.elements, 3))]
    statuses = set()
    for g, members in runs:
        for budget in (Budget(), Budget(max_elements=len(members) + 2), Budget(max_rounds=1)):
            direct = merge_closure(g, members, budget)
            ruled = merge_closure(_as_blackbox(g), members, budget)
            assert direct == ruled  # the carrier tuple included
            assert list(direct.groupoid.table.items()) == list(ruled.groupoid.table.items())
            statuses.add(direct.status)
    assert statuses == {"closed", "budget_exhausted"}


def _table_features(g):
    """Each element with every element it composes with on either side, so
    a pair in the domain shares a feature."""
    neighbours = {e: set() for e in g.elements}
    for x, y in g.table:
        neighbours[x].add(y)
        neighbours[y].add(x)
    return lambda e: [e, *neighbours[e]]


def _resolution(host, members):
    """What ``r_swoosh`` resolves, or the error it stops with."""
    try:
        return r_swoosh(host, members)
    except IcarViolationError as error:
        return type(error), str(error), getattr(error, "witness", None)


def test_feature_index_changes_no_closure_and_no_resolution():
    rng = random.Random(13)
    runs = [(record_groupoid(["name"]), random_record_instance(rng)) for _ in range(20)]
    for _ in range(20):  # records with one or two names: several features each
        pool = ["k1", "k2", "k3", "k4", "k5"]
        records = [
            Record.of(name=set(rng.sample(pool, rng.randint(1, 2))), src={f"r{i}"})
            for i in range(6)
        ]
        runs.append((record_groupoid(["name"]), records))
    for _ in range(20):
        digraph, paths = random_paths(rng)
        runs.append((replace(path_groupoid(digraph), declares_icar=True), paths))
    for g in _random_tables(random.Random(8)):
        bb = replace(_as_blackbox(g, declares_icar=True), features=_table_features(g))
        runs.append((bb, rng.sample(g.elements, rng.randint(1, len(g)))))
    statuses, outcomes = set(), set()
    for host, members in runs:
        indexed, asked = _asking(host)
        plain, asked_all = _asking(replace(host, features=None))
        for budget in (Budget(), Budget(max_elements=len(members) + 2), Budget(max_rounds=1)):
            closure = merge_closure(indexed, members, budget)
            assert closure == merge_closure(plain, members, budget)
            statuses.add(closure.status)
        resolution = _resolution(indexed, members)
        assert resolution == _resolution(plain, members)
        outcomes.add(type(resolution) if isinstance(resolution, ERResult) else resolution[0])
        # the index skips only pairs that do not match: the same matches,
        # in the same order
        assert [a for a in asked if a[2] is not None] == [a for a in asked_all if a[2] is not None]
        assert len(asked) <= len(asked_all)
    assert statuses == {"closed", "budget_exhausted"}
    assert outcomes == {ERResult, IcarViolationError}


def _merge_without_interning(r1, r2):
    """The record merge, building a new record for every new union."""
    a, b = r1.attributes, r2.attributes
    union = {n: a.get(n, frozenset()) | b.get(n, frozenset()) for n in a.keys() | b.keys()}
    return r1 if union == a else r2 if union == b else Record(union)


def _match_attribute_wise(keys):
    def match(r1, r2):
        return any(r1.attributes.get(k, set()) & r2.attributes.get(k, set()) for k in keys)

    return match


def _multi_key_instance(rng):
    """Records with a name, and with or without a phone and a city."""
    records = []
    for i in range(rng.randint(2, 9)):
        attributes = {"name": {f"n{rng.randint(1, 6)}"}, "src": {i}}
        for n in ("phone", "city"):
            if rng.random() < 0.5:
                attributes[n] = {f"{n}{rng.randint(1, 3)}"}
        records.append(Record(attributes))
    return records


def test_interned_merges_change_no_closure_and_no_resolution():
    # the record rule against the attribute-wise one, which builds a new
    # record for every new union
    rng = random.Random(15)
    instances = [(["name"], clustered_records(rng, n)) for n in (6, 12, 24)]
    instances += [(["name"], random_record_instance(rng)) for _ in range(10)]
    instances += [(["name", "phone"], _multi_key_instance(rng)) for _ in range(10)]
    statuses = set()
    for keys, members in instances:
        host = record_groupoid(keys)
        plain = replace(host, match=_match_attribute_wise(keys), merge=_merge_without_interning)
        for budget in (Budget(), Budget(max_elements=len(members) + 3), Budget(max_rounds=2)):
            closure = merge_closure(host, members, budget)
            assert closure == merge_closure(plain, members, budget)
            statuses.add(closure.status)
        assert _resolution(host, members) == _resolution(plain, members)
    assert statuses == {"closed", "budget_exhausted"}


def test_tables_and_blackbox_rules_resolve_alike(max10, twoblock, unit):
    rng = random.Random(5)
    tables = [max10, twoblock, unit]
    tables += [materialized_records(random_record_instance(rng, 4)) for _ in range(12)]
    for g in tables:
        assert property_report(g).is_icar
        members = rng.sample(g.elements, rng.randint(1, len(g)))
        direct = r_swoosh(g, members)
        assert direct == r_swoosh(_as_blackbox(g, declares_icar=True), members)


def test_r_swoosh_rejects_an_empty_instance(max10, record_bb):
    for host in (max10, record_bb):
        with pytest.raises(ValueError, match="instance must be non-empty"):
            r_swoosh(host, [])


def test_foreign_ids_on_a_table_raise(max10, p1):
    calls = (
        lambda: generated_subgroupoid(max10, ["2", "zz"]),
        lambda: merge_closure(max10, ["2", "zz"]),
        lambda: r_swoosh(max10, ["2", "zz"]),
        # p1 is not ICAR: the members are keyed before the precondition
        lambda: r_swoosh(p1, ["a", "zz"]),
    )
    for call in calls:
        with pytest.raises(ForeignElementError, match="'zz'"):
            call()


def test_closure_of_chain_instance_exhausts_budget():
    ch = builtin("chain", 50)
    result = merge_closure(ch, ["a1", "a2"], Budget(max_elements=10))
    assert result.status == "budget_exhausted"
    assert len(result.carrier) == 10


def test_closure_round_budget_exhaustion():
    ch = builtin("chain", 50)
    result = merge_closure(ch, ["a1", "a2"], Budget(max_elements=10_000, max_rounds=3))
    assert result.status == "budget_exhausted"
    assert result.iterations == 3
    # three completed rounds have discovered exactly three new elements
    assert len(result.carrier) == 5


def test_closure_of_already_closed_instance_is_one_round(max10):
    result = merge_closure(max10, ["2", "5", "7"])
    assert result.closed
    assert set(result.carrier) == {"2", "5", "7"}
    assert result.iterations == 1


def test_closure_agrees_with_naive_oracle_on_fixtures():
    rng = random.Random(2)
    for name, g in finite_fixture_suite().items():
        for _ in range(5):
            k = rng.randint(1, len(g.elements))
            seeds = rng.sample(list(g.elements), k)
            result = merge_closure(g, seeds, Budget(5000, 500))
            if result.closed:
                assert frozenset(result.carrier) == naive_merge_closure(g, seeds), name


def test_closure_minimality_on_small_instances(record_bb):
    # dropping any non-instance element of a closed carrier loses either
    # closedness or reachability from the instance
    records = cluster_records()
    instance_ids = {r.canonical_id for r in records}
    result = merge_closure(record_bb, records)
    g = result.groupoid
    carrier = frozenset(result.carrier)
    derived = carrier - instance_ids
    assert derived  # the fixture must actually grow under closure
    for e in derived:
        smaller = carrier - {e}
        closed = all(
            g.table[(x, y)] in smaller
            for x in smaller
            for y in smaller
            if (x, y) in g.table
        )
        regenerates = naive_merge_closure(g, instance_ids) <= smaller
        assert not (closed and regenerates)


def test_instances_deduplicate_by_canonical_id(record_bb):
    r = Record.of(name={"ann"})
    members = [r, Record.of(name={"ann"})]
    closure = merge_closure(record_bb, members)
    assert closure.carrier == (r.canonical_id,)
    result = r_swoosh(record_bb, members)
    assert result.resolved == (r.canonical_id,)
    assert result.certificate == "0 merges"


def _counting(bb):
    """The same rules, with key and merge calls counted."""
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    return replace(bb, key=counted("key", bb.key), merge=counted("merge", bb.merge)), calls


def test_each_member_is_keyed_once(record_bb):
    # duplicates included: every member passed is keyed exactly once
    members = cluster_records() + two_cluster_records()
    n = len(members)
    for close in (merge_closure, generated_subgroupoid):
        counted, calls = _counting(record_bb)
        assert close(counted, members).closed
        assert calls["key"] == n + calls["merge"]
    # r_swoosh keys each merge and its idempotent re-merge
    counted, calls = _counting(record_bb)
    merges = int(r_swoosh(counted, members).certificate.split()[0])
    assert merges > 0
    assert calls["merge"] == 2 * merges
    assert calls["key"] == n + 2 * merges


def test_finite_closure_under_i_sc_a_r_fixtures():
    # fixtures with the idempotent/strongly-commutative/associative/
    # representative package always close within a generous budget
    rng = random.Random(3)
    for name, g in finite_fixture_suite().items():
        report = property_report(g)
        if not report.is_icar:
            continue
        for _ in range(5):
            seeds = rng.sample(list(g.elements), rng.randint(1, len(g.elements)))
            assert merge_closure(g, seeds).closed, name


# -- brute-force oracle ---------------------------------------------------------------


def test_bruteforce_resolves_matching_records_to_single_merge(record_bb):
    closure = merge_closure(record_bb, cluster_records())
    result = er_bruteforce(closure)
    assert len(result.resolved) == 1
    merged = Record.of(name={"ann"}, phone={"p1"}, mail={"m1"}, home={"h1"})
    assert result.resolved[0] == merged.canonical_id
    assert "unique" in result.certificate


def test_bruteforce_on_antichain_returns_everything(twoblock):
    closure = merge_closure(twoblock, ["u", "v"])
    result = er_bruteforce(closure)
    assert result.resolved == ("u", "v")


def test_bruteforce_on_bounded_max(max10):
    closure = merge_closure(max10, ["2", "5", "7"])
    assert er_bruteforce(closure).resolved == ("7",)


def test_bruteforce_reports_missing_domination(q2):
    closure = merge_closure(q2, ["a", "b", "c"])
    result = er_bruteforce(closure)
    assert result.resolved == ()
    assert "no dominating subset" in result.certificate


def test_bruteforce_reports_tied_minimal_subsets():
    # loops plus a<=b and b<=c without a<=c: both {a, c} and {b, c} are
    # minimal dominating subsets, which the certificate must disclose
    from matchmerge import FiniteGroupoid

    g = FiniteGroupoid(
        ("a", "b", "c"),
        {
            ("a", "a"): "a",
            ("b", "b"): "b",
            ("c", "c"): "c",
            ("a", "b"): "b",
            ("b", "a"): "b",
            ("b", "c"): "c",
            ("c", "b"): "c",
        },
    )
    closure = merge_closure(g, list(g.elements))
    result = er_bruteforce(closure)
    assert result.resolved == ("a", "c")
    assert "2 minimal dominating subsets" in result.certificate
    assert "not unique" in result.certificate


def test_bruteforce_size_guard():
    mx = builtin("maxnat", 25)
    closure = merge_closure(mx, list(mx.elements))
    with pytest.raises(SizeGuardError):
        er_bruteforce(closure)


@pytest.mark.parametrize(
    "method", [er_bruteforce, er_full, er_maximal], ids=lambda m: m.__name__
)
def test_bruteforce_requires_closed_closure(method):
    ch = builtin("chain", 50)
    result = merge_closure(ch, ["a1", "a2"], Budget(max_elements=10))
    with pytest.raises(BudgetExhaustedError) as err:
        method(result)
    assert err.value.result is result
    # the message materialize gives, which the CLI prints
    with pytest.raises(BudgetExhaustedError) as materialized:
        materialize(_as_blackbox(ch), ["a1", "a2"], Budget(max_elements=10))
    assert str(err.value) == str(materialized.value)
    assert str(err.value) == "closure exceeded the budget after 9 rounds (10 elements)"


# -- full and maximal methods -----------------------------------------------------------


def test_full_method_on_q2_closure(q2):
    closure = merge_closure(q2, ["a", "b", "c"])
    assert er_full(closure).resolved == ()


def test_full_method_on_singleton(unit):
    closure = merge_closure(unit, ["e"])
    assert er_full(closure).resolved == ("e",)


def test_maximal_matches_oracle_on_bounded_max(max10):
    closure = merge_closure(max10, ["2", "5", "7"])
    assert er_maximal(closure).resolved == ("7",)


def test_maximal_refuses_p1_for_missing_catenary_associativity(p1):
    closure = merge_closure(p1, ["a", "b", "c"])
    with pytest.raises(HypothesesNotSatisfiedError) as err:
        er_maximal(closure)
    assert str(err.value) == "er_maximal requires I and CA; failing: CA"
    (verdict,) = err.value.verdicts
    assert verdict.property is Property.CATENARY_ASSOCIATIVE
    assert verdict.witness == ("a", "b", "c")


def test_full_agrees_with_bruteforce_on_icar_records(record_bb):
    closure = merge_closure(record_bb, two_cluster_records())
    assert er_full(closure).as_set() == er_bruteforce(closure).as_set()


# -- worklist resolver --------------------------------------------------------------------


def test_rswoosh_merges_matching_records_to_one(record_bb):
    result = r_swoosh(record_bb, cluster_records())
    assert len(result.resolved) == 1
    assert result.resolved[0] == Record.of(
        name={"ann"}, phone={"p1"}, mail={"m1"}, home={"h1"}
    ).canonical_id


def test_rswoosh_keeps_non_matching_instance_unchanged(record_bb):
    records = [Record.of(name={"ann"}), Record.of(name={"bob"})]
    result = r_swoosh(record_bb, records)
    assert set(result.resolved) == {r.canonical_id for r in records}


def test_rswoosh_never_leaves_the_closure(record_bb):
    records = two_cluster_records()
    closure = merge_closure(record_bb, records)
    result = r_swoosh(record_bb, records)
    assert set(result.resolved) <= set(closure.carrier)


def test_icar_dispatch_evaluates_no_word_products(monkeypatch, capsys):
    import matchmerge.properties as properties

    calls = []
    original = properties._subset_product

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(properties, "_subset_product", counting)
    assert run_cli(["er", "maxnat:5", "--method", "auto"]) == 0
    assert "method: rswoosh (ICAR verified)" in capsys.readouterr().out
    g = builtin("maxnat", 5)
    assert r_swoosh(g, g.elements).resolved == ("4",)
    assert calls == []
    # NR on this I and SA table needs no word products either
    assert check_property(g, Property.WORD_IDEMPOTENT).holds
    assert calls == []
    # the counter sees the word products that NR evaluates on a table that is not SA
    assert check_property(builtin("uchain", 4), Property.WORD_IDEMPOTENT).holds
    assert calls


def test_rswoosh_lists_failing_properties_in_icar_order(q2):
    with pytest.raises(HypothesesNotSatisfiedError, match="failing: I, SC, A, R$") as err:
        r_swoosh(q2, q2.elements)
    assert str(err.value) == "r_swoosh requires I, SC, A and R; failing: I, SC, A, R"
    assert [str(v.property) for v in err.value.verdicts] == ["I", "SC", "A", "R"]


def test_rswoosh_refuses_non_icar_finite_groupoid(p1):
    with pytest.raises(HypothesesNotSatisfiedError):
        r_swoosh(p1, ["a", "b", "c"])


def test_rswoosh_refuses_undeclared_blackbox():
    bb = BlackBoxGroupoid(
        match=lambda x, y: False,
        merge=lambda x, y: x,
        key=lambda x: str(x),
    )
    with pytest.raises(HypothesesNotSatisfiedError):
        r_swoosh(bb, ["x"])


def test_rswoosh_aborts_on_lying_declaration():
    # merge result does not re-merge idempotently: the declared package is false
    bb = BlackBoxGroupoid(
        match=lambda x, y: True,
        merge=lambda x, y: x + y if x != y else x + "!",
        key=lambda x: x,
        declares_icar=True,
    )
    with pytest.raises(IcarViolationError):
        r_swoosh(bb, ["x", "y"])


def test_rswoosh_resolves_a_chain_of_more_records_than_the_default_budget():
    # each record shares a name with the next: the chain merges into one
    # record, in one merge fewer than it has records
    records = [Record.of(name={f"k{i}", f"k{i + 1}"}, src={str(i)}) for i in range(10_003)]
    result = r_swoosh(record_groupoid(["name"]), records)
    assert len(result.resolved) == 1
    assert result.certificate == "10002 merges"


def test_rswoosh_merges_at_most_one_less_than_its_distinct_members():
    # each merge turns two live records into one, whatever the rules do:
    # random tables that declare ICAR, mostly falsely, and are idempotent on
    # the diagonal so that no merge result is refused
    rng = random.Random(21)
    runs = [(record_groupoid(["name"]), random_record_instance(rng)) for _ in range(30)]
    runs += [(record_groupoid(["name"]), clustered_records(rng, n)) for n in (6, 12, 24)]
    for _ in range(200):
        g = random_groupoid(rng, rng.randint(2, 8), rng.choice((0.2, 0.5, 0.9)), idempotent=True)
        members = [rng.choice(g.elements) for _ in range(rng.randint(1, 12))]
        runs.append((_as_blackbox(g, declares_icar=True), members))
    for host, members in runs:
        result = r_swoosh(host, members)
        merges = int(result.certificate.removesuffix(" merges"))
        assert merges <= len({host.key(m) for m in members}) - 1


def test_rswoosh_on_finite_icar_groupoid(max10):
    result = r_swoosh(max10, ["2", "5", "7"])
    assert result.resolved == ("7",)


# -- cross-method equality ---------------------------------------------------------------


def test_all_methods_agree_on_randomized_record_instances(record_bb):
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        records = random_record_instance(rng)
        closure = merge_closure(record_bb, records, Budget(500, 100))
        assert closure.closed
        if len(closure.carrier) > 20:
            continue
        checked += 1
        assert property_report(closure.groupoid).is_icar
        expected = er_bruteforce(closure).as_set()
        assert er_maximal(closure).as_set() == expected
        assert er_full(closure).as_set() == expected
        assert r_swoosh(record_bb, records).as_set() == expected


def test_bruteforce_equals_maximal_on_i_ca_fixtures():
    # provable whenever the natural order is reflexive and transitive,
    # commutativity or not
    for name, g in finite_fixture_suite().items():
        if not (
            check_property(g, Property.IDEMPOTENT).holds
            and check_property(g, Property.CATENARY_ASSOCIATIVE).holds
        ):
            continue
        if len(g) > 20:
            continue
        closure = merge_closure(g, list(g.elements))
        assert closure.closed, name
        assert er_bruteforce(closure).as_set() == er_maximal(closure).as_set(), name


def test_full_method_disagrees_on_noncommutative_band(leftzero2):
    # the documented divergence: without commutativity the full-element
    # notion is strictly smaller than the minimal dominating subset
    closure = merge_closure(leftzero2, ["p", "q"])
    assert er_bruteforce(closure).as_set() == er_maximal(closure).as_set() == {"p", "q"}
    assert er_full(closure).as_set() == frozenset()
    with pytest.raises(HypothesesNotSatisfiedError):
        r_swoosh(leftzero2, ["p", "q"])
