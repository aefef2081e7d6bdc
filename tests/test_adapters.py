from __future__ import annotations

import copy
import json
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchmerge import adapters
from matchmerge import (
    Budget,
    BudgetExhaustedError,
    Digraph,
    DiPath,
    Property,
    Record,
    UnknownFixtureError,
    builtin,
    check_property,
    materialize,
    merge_closure,
    path_groupoid,
    property_report,
    record_groupoid,
)
from conftest import chaining_records, cluster_records, two_cluster_records
from helpers import clustered_records, random_paths, random_record_instance


# -- records -------------------------------------------------------------------


def test_record_canonical_form_is_sorted_and_stable():
    r1 = Record.of(name={"bob", "ann"}, phone={"p1"})
    r2 = Record({"phone": frozenset({"p1"}), "name": frozenset({"ann", "bob"})})
    assert r1 == r2
    assert r1.canonical_id == r2.canonical_id
    assert r1.canonical_id == '{"name":["ann","bob"],"phone":["p1"]}'


def test_record_rejects_empty_value_sets():
    with pytest.raises(ValueError):
        Record.of(name=set())


def test_record_rejects_a_string_as_a_value_set():
    # a string is iterable, and would otherwise split into its characters
    for make in (
        lambda: Record({"name": "ann"}),
        lambda: Record.of(name="ann"),
        lambda: Record.from_dict({"name": "ann"}),
        lambda: Record({"name": b"ann"}),
    ):
        with pytest.raises(ValueError, match="'ann'"):
            make()


def test_record_rejects_no_attributes():
    with pytest.raises(ValueError, match="record must have at least one attribute"):
        Record({})


def test_record_rejects_names_that_collide_as_strings():
    with pytest.raises(ValueError, match="duplicate attribute '1'"):
        Record({1: ["a"], "1": ["b"]})


def test_record_attributes_are_read_only():
    r = Record.of(name={"ann"})
    with pytest.raises(TypeError):
        r.attributes["name"] = frozenset({"bob"})
    assert r.canonical_id == '{"name":["ann"]}'


def test_record_survives_pickle_and_deepcopy():
    r = Record.of(name={"ann", "bob"}, phone={"p1"})
    merged = record_groupoid(["name"]).merge(r, Record.of(name={"ann"}, mail={"m1"}))
    for original in (r, merged):
        for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert twin == original and hash(twin) == hash(original)
            assert twin.canonical_id == original.canonical_id
            assert twin._facts == original._facts


@given(
    st.dictionaries(
        st.text(max_size=4), st.frozensets(st.text(max_size=4), min_size=1), min_size=1
    )
)
def test_record_id_is_the_json_of_its_dict(attributes):
    # hypothesis's text reaches well past ASCII
    r = Record(attributes)
    assert r.canonical_id == json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
    assert r._facts == {(n, v) for n, values in attributes.items() for v in values}
    # a merge builds its union without validation, and the same record
    other = Record({"k": {"v"}})
    built, union = record_groupoid(["k"]).merge(r, other), _union(r, other)
    assert built.canonical_id == union.canonical_id and built._facts == union._facts
    assert dict(built.attributes) == dict(union.attributes)
    assert r == Record(dict(r.attributes)) and hash(r) == hash(Record(dict(r.attributes)))
    assert repr(r) == f"Record({r.canonical_id})"


def _assert_feature_contract(host, values, exact=False):
    """A match shares a feature (with ``exact``, only a match does), and a
    merge has exactly its operands' features."""
    features = {host.key(v): set(host.features(v)) for v in values}
    for x in values:
        for y in values:
            fx, fy = features[host.key(x)], features[host.key(y)]
            if host.match(x, y):
                assert fx & fy
                assert set(host.features(host.merge(x, y))) == fx | fy
            elif exact:
                assert not fx & fy


def test_record_and_path_features_keep_the_contract():
    rng = random.Random(21)
    for keys in (["name"], ["name", "src0"]):
        host = record_groupoid(keys)
        for _ in range(15):
            closure = merge_closure(host, random_record_instance(rng, 6))
            _assert_feature_contract(host, list(closure.objects.values()), exact=True)
    for _ in range(30):
        digraph, paths = random_paths(rng)
        host = path_groupoid(digraph)
        closure = merge_closure(host, paths, Budget(max_elements=200))
        _assert_feature_contract(host, list(closure.objects.values()))


def test_match_on_shared_key_value(record_bb):
    r1 = Record.of(name={"ann"}, phone={"p1"})
    r2 = Record.of(name={"ann"}, mail={"m1"})
    assert record_bb.match(r1, r2)
    merged = record_bb.merge(r1, r2)
    assert merged == Record.of(name={"ann"}, phone={"p1"}, mail={"m1"})


def test_merge_is_idempotent(record_bb):
    r = Record.of(name={"ann"}, phone={"p1"})
    assert record_bb.merge(r, r) == r


def _union(r1: Record, r2: Record) -> Record:
    a, b = r1.attributes, r2.attributes
    return Record({n: set(a.get(n, ())) | set(b.get(n, ())) for n in {*a, *b}})


def test_record_closure_builds_each_new_record_once(monkeypatch):
    records = clustered_records(random.Random(1), 24)
    builds = []
    validated, unchecked = Record.__post_init__, adapters._record

    def counting_validated(self):
        builds.append(self)
        validated(self)

    def counting_unchecked(attributes, facts):
        builds.append(facts)
        return unchecked(attributes, facts)

    # a record is built either through validation or from known-good parts
    monkeypatch.setattr(Record, "__post_init__", counting_validated)
    monkeypatch.setattr(adapters, "_record", counting_unchecked)
    closure = merge_closure(record_groupoid(["name"]), records)
    assert closure.closed and len(closure.carrier) == 58
    # no union of records is a record, so every build is a new element
    assert len(builds) == len(closure.carrier) - len(records) == 34


def test_merge_returns_the_record_it_built_for_a_union(record_bb):
    closure = merge_closure(record_bb, clustered_records(random.Random(6), 10))
    values = list(closure.objects.values())
    merged = {}
    for r1 in values:
        for r2 in values:
            if record_bb.match(r1, r2):
                z = record_bb.merge(r1, r2)
                assert z == _union(r1, r2)
                # every merge to the same union returns the same record
                assert merged.setdefault(z.canonical_id, z) is z
    assert len(merged) > 10


def test_record_hosts_share_no_merged_records():
    r1 = Record.of(name={"ann"}, phone={"p1"})
    r2 = Record.of(name={"ann"}, mail={"m1"})
    first, second = record_groupoid(["name"]), record_groupoid(["name"])
    z = first.merge(r1, r2)
    assert second.merge(r1, r2) == z and second.merge(r1, r2) is not z
    assert first.merge(r2, r1) is z


def test_merge_returns_an_operand_that_holds_the_other(record_bb):
    ann, twin = Record.of(name={"ann"}), Record.of(name={"ann"})
    more = Record.of(name={"ann"}, phone={"p1"})
    assert record_bb.merge(ann, twin) is ann and record_bb.merge(twin, ann) is twin
    assert record_bb.merge(more, ann) is more
    assert record_bb.merge(ann, more) is more
    one = Record.of(name={1})  # 1 and "1" are one value
    assert record_bb.merge(one, Record.of(name={"1"})) is one


def test_record_rule_agrees_with_the_attribute_wise_rule():
    rng = random.Random(16)
    pool = [1, "1", 2, "2", "x", "y"]
    raws = []
    for _ in range(40):
        raw = {
            n: {rng.choice(pool) for _ in range(rng.randint(1, 2))}
            for n in ("name", "phone", "city")
            if rng.random() < 0.6
        }
        raws.append(raw or {"city": {rng.choice(pool)}})
    records = [Record(raw) for raw in raws]
    seen = set()
    for keys in (["name"], ["name", "phone"], ["phone", "city"]):
        host = record_groupoid(keys)
        for raw1, r1 in zip(raws, records):
            for raw2, r2 in zip(raws, records):

                def common(n):  # the values both hold on n, as strings
                    return {str(v) for v in raw1.get(n, ())} & {str(v) for v in raw2.get(n, ())}

                on_keys = [k for k in keys if common(k)]
                assert host.match(r1, r2) == bool(on_keys)
                z, union = host.merge(r1, r2), _union(r1, r2)
                assert z.canonical_id == union.canonical_id and z._facts == union._facts
                assert dict(z.attributes) == dict(union.attributes)
                if on_keys:
                    if any(k not in raw1 or k not in raw2 for k in keys):
                        seen.add("a key attribute missing")
                    if not any(raw1.get(k, set()) & raw2.get(k, set()) for k in keys):
                        seen.add("only through normalization")
                    if keys[0] not in on_keys:
                        seen.add("not through the first key")
                elif any(map(common, ("name", "phone", "city"))):
                    seen.add("only non-key overlap")
    assert seen == {
        "a key attribute missing",
        "only through normalization",
        "not through the first key",
        "only non-key overlap",
    }


def test_no_match_on_disjoint_key_values(record_bb):
    assert not record_bb.match(Record.of(name={"ann"}), Record.of(name={"bob"}))


def test_match_ignores_non_key_overlap(record_bb):
    r1 = Record.of(name={"ann"}, phone={"p1"})
    r2 = Record.of(name={"bob"}, phone={"p1"})
    assert not record_bb.match(r1, r2)


def test_record_groupoid_requires_keys():
    with pytest.raises(ValueError):
        record_groupoid([])


def test_cluster_fixtures_satisfy_the_full_property_list(record_bb):
    # single-cluster and two-cluster closures: every axiom holds
    for records in (cluster_records(), two_cluster_records()):
        g = materialize(record_bb, records)
        report = property_report(g)
        for p in (
            Property.IDEMPOTENT,
            Property.STRONGLY_COMMUTATIVE,
            Property.ASSOCIATIVE,
            Property.CATENARY_ASSOCIATIVE,
            Property.STRONGLY_ASSOCIATIVE,
            Property.REPRESENTATIVE,
            Property.WORD_IDEMPOTENT,
        ):
            assert report.verdicts[p].holds, p
        assert report.is_icar


def test_bridge_record_breaks_strong_associativity_but_not_icar(record_bb):
    # outer records only meet through the middle one: grouping through the
    # bridge is defined while the direct grouping is not
    g = materialize(record_bb, chaining_records())
    report = property_report(g)
    assert report.is_icar
    assert report.verdicts[Property.CATENARY_ASSOCIATIVE].holds
    assert not report.verdicts[Property.STRONGLY_ASSOCIATIVE].holds


# -- paths ---------------------------------------------------------------------


def host() -> Digraph:
    return Digraph(("w", "x", "y", "z"), (("w", "x"), ("x", "y"), ("y", "z")))


def test_paths_compose_by_overlap():
    h = host()
    pg = path_groupoid(h)
    p = h.path(("w", "x"), ("x", "y"))
    q = h.path(("x", "y"), ("y", "z"))
    merged = pg.compose(p, q)
    assert merged == h.path(("w", "x"), ("x", "y"), ("y", "z"))


def test_path_composes_with_itself_to_itself():
    h = host()
    pg = path_groupoid(h)
    p = h.path(("w", "x"), ("x", "y"))
    assert pg.compose(p, p) == p


def test_paths_without_overlap_do_not_compose():
    h = host()
    pg = path_groupoid(h)
    p = h.path(("w", "x"))
    q = h.path(("y", "z"))
    assert pg.compose(p, q) is None


def test_overlap_uses_smallest_index():
    # [wx, xy] against [xy, yz]: the overlap starts at the second arc
    h = host()
    pg = path_groupoid(h)
    p = h.path(("w", "x"), ("x", "y"))
    q = h.path(("x", "y"), ("y", "z"))
    assert pg.match(p, q)
    assert pg.compose(p, q).arcs == (("w", "x"), ("x", "y"), ("y", "z"))


def test_composition_violating_distinct_heads_is_undefined():
    # loop back to an already-visited head
    h = Digraph(("u", "v"), (("u", "v"), ("v", "u")))
    pg = path_groupoid(h)
    p = h.path(("u", "v"))
    q = h.path(("v", "u"), ("u", "v"))
    # composing walks through v twice as a head
    assert pg.compose(p, q) is None


def test_dipath_invariants():
    with pytest.raises(ValueError):
        DiPath((("w", "x"), ("y", "z")))  # no chaining
    with pytest.raises(ValueError):
        DiPath((("w", "x"), ("x", "w"), ("w", "x")))  # repeated arc
    with pytest.raises(ValueError):
        DiPath(())


def test_host_rejects_foreign_arcs():
    with pytest.raises(ValueError):
        host().path(("w", "z"))


@given(st.data())
def test_defined_path_compositions_are_valid_paths(data):
    h = host()
    pg = path_groupoid(h)
    arcs = list(h.arcs)
    start1 = data.draw(st.integers(0, len(arcs) - 1))
    end1 = data.draw(st.integers(start1, len(arcs) - 1))
    start2 = data.draw(st.integers(0, len(arcs) - 1))
    end2 = data.draw(st.integers(start2, len(arcs) - 1))
    p = DiPath(tuple(arcs[start1 : end1 + 1]))
    q = DiPath(tuple(arcs[start2 : end2 + 1]))
    merged = pg.compose(p, q)
    if merged is not None:
        DiPath(merged.arcs)  # re-validates all path invariants


def test_single_arcs_only_compose_with_themselves():
    # overlap needs a shared arc, so distinct single-arc paths never compose
    h = host()
    pg = path_groupoid(h)
    g = materialize(pg, [h.path(a) for a in h.arcs])
    assert len(g) == 3
    assert all(x == y for (x, y) in g.table)


def test_materialized_path_closure_contains_the_long_path():
    h = host()
    pg = path_groupoid(h)
    seed = [h.path(("w", "x"), ("x", "y")), h.path(("x", "y"), ("y", "z"))]
    g = materialize(pg, seed)
    assert h.path(("w", "x"), ("x", "y"), ("y", "z")).canonical_id in g.elements


# -- builtins --------------------------------------------------------------------


def test_builtin_p1_table():
    g = builtin("p1")
    assert g.elements == ("a", "b", "c")
    assert g.table == {
        ("a", "a"): "a",
        ("b", "b"): "b",
        ("c", "c"): "c",
        ("a", "b"): "b",
        ("b", "c"): "c",
    }


def test_builtin_q2_table():
    g = builtin("q2")
    assert g.table == {("a", "b"): "c", ("b", "c"): "b", ("c", "c"): "b"}


def test_builtin_max_is_total_max():
    g = builtin("maxnat", 10)
    assert len(g.table) == 100
    assert g.compose("3", "7") == "7"
    assert g.compose("7", "3") == "7"


def test_builtin_chain_truncation_leaves_boundary_undefined():
    g = builtin("chain", 5)
    assert g.compose("a1", "a2") == "a3"
    assert g.compose("a3", "a4") == "a5"
    assert g.compose("a4", "a5") is None


def test_builtin_uchain_adds_loops():
    g = builtin("uchain", 5)
    assert g.compose("a2", "a2") == "a2"
    assert g.compose("a1", "a2") == "a3"


def test_builtin_names_are_case_insensitive():
    assert builtin("P1") == builtin("p1")


def test_unknown_builtin_errors():
    with pytest.raises(UnknownFixtureError):
        builtin("nope")
    with pytest.raises(UnknownFixtureError):
        builtin("p1", 5)


# -- materialization ----------------------------------------------------------------


def test_materialize_record_cluster(record_bb):
    g = materialize(record_bb, cluster_records())
    assert len(g) == 7


def test_materialize_non_matching_seed_keeps_loops_only(record_bb):
    records = [Record.of(name={"ann"}), Record.of(name={"bob"})]
    g = materialize(record_bb, records)
    assert len(g) == 2
    assert len(g.table) == 2  # the two self-matches


def test_materialize_singleton(record_bb):
    g = materialize(record_bb, [Record.of(name={"ann"})])
    assert len(g) == 1


def test_materialize_raises_on_budget(record_bb):
    ch = builtin("chain", 50)
    from matchmerge import BlackBoxGroupoid

    bb = BlackBoxGroupoid(
        match=lambda x, y: (x, y) in ch.table,
        merge=lambda x, y: ch.table[(x, y)],
        key=lambda e: e,
    )
    with pytest.raises(BudgetExhaustedError) as err:
        materialize(bb, ["a1", "a2"], Budget(max_elements=10))
    assert err.value.result is not None
    assert len(err.value.result.carrier) == 10


def test_chain_reproduces_the_associative_only_pattern():
    for size in (5, 8, 12):
        g = builtin("chain", size)
        assert check_property(g, Property.ASSOCIATIVE).holds
        for p in (
            Property.IDEMPOTENT,
            Property.STRONGLY_COMMUTATIVE,
            Property.REPRESENTATIVE,
            Property.CATENARY_ASSOCIATIVE,
            Property.STRONGLY_ASSOCIATIVE,
        ):
            assert not check_property(g, p).holds, (size, p)
