from __future__ import annotations

import random

import pytest

from matchmerge import (
    DomainGraph,
    DomainNotSymmetricError,
    FiniteGroupoid,
    builtin,
    clique_cover,
    connected_components,
    domain_graph,
    is_total,
    null_extension,
    to_dot,
)
from matchmerge import cli
from conftest import finite_fixture_suite
from helpers import (
    naive_clique_cover,
    naive_components,
    random_groupoid,
    random_sparse_shaped,
    successor_chain,
)


def symmetrized_p1() -> FiniteGroupoid:
    # add the reversed pairs with the same values; (a, c) stays undefined
    p1 = builtin("p1")
    table = dict(p1.table)
    table[("b", "a")] = "b"
    table[("c", "b")] = "c"
    return FiniteGroupoid(p1.elements, table)


def square_cycle() -> FiniteGroupoid:
    # 4-cycle of mutual edges: a-b, b-c, c-d, d-a, loops everywhere
    els = ("a", "b", "c", "d")
    table = {(e, e): e for e in els}
    for u, v in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        table[(u, v)] = u
        table[(v, u)] = v
    return FiniteGroupoid(els, table)


# -- graph construction ------------------------------------------------------------


def test_edges_mirror_the_domain_exactly():
    for name, g in finite_fixture_suite().items():
        assert domain_graph(g).edges == frozenset(g.table), name


def test_p1_graph_edges(p1):
    dg = domain_graph(p1)
    assert dg.edges == {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}


def test_chain_graph_is_a_path():
    ch = builtin("chain", 5)
    dg = domain_graph(ch)
    assert dg.edges == {("a1", "a2"), ("a2", "a3"), ("a3", "a4")}


def test_total_groupoid_graph_is_full(max10):
    assert len(domain_graph(max10).edges) == 100


# -- connected components ----------------------------------------------------------


def test_two_disjoint_idempotents_have_two_components(twoblock):
    components = connected_components(domain_graph(twoblock))
    assert [c.nodes for c in components] == [("u",), ("v",)]


def test_p1_is_connected(p1):
    assert len(connected_components(domain_graph(p1))) == 1


def test_singleton_component(unit):
    components = connected_components(domain_graph(unit))
    assert len(components) == 1


def test_components_partition_and_never_compose_across():
    for name, g in finite_fixture_suite().items():
        components = connected_components(domain_graph(g))
        seen = [n for c in components for n in c.nodes]
        assert sorted(seen) == sorted(g.elements), name
        assert len(seen) == len(set(seen)), name
        for i, ci in enumerate(components):
            for j, cj in enumerate(components):
                if i == j:
                    continue
                for s in ci.nodes:
                    for t in cj.nodes:
                        assert (s, t) not in g.table, name


def test_component_subgroupoids_keep_internal_table(twoblock):
    components = connected_components(domain_graph(twoblock))
    assert twoblock.restrict(components[0].nodes).table == {("u", "u"): "u"}


# -- totality ------------------------------------------------------------------------


def test_null_extension_is_reported_total(p1):
    report = is_total(null_extension(p1))
    assert report.total and report.graph_complete and report.loops_complete


def test_symmetrized_p1_is_not_total():
    report = is_total(symmetrized_p1())
    assert not report.total
    assert report.missing == ("a", "c")
    assert not report.graph_complete


def test_singleton_with_loop_is_total(unit):
    assert is_total(unit).total


def test_totality_requires_symmetric_domain(p1):
    with pytest.raises(DomainNotSymmetricError):
        is_total(p1)


def test_totality_iff_complete_with_loops():
    missing_loop = FiniteGroupoid(
        ("a", "b"),
        {("a", "b"): "a", ("b", "a"): "b", ("a", "a"): "a"},
    )
    report = is_total(missing_loop)
    assert not report.total
    assert report.graph_complete
    assert not report.loops_complete
    for g in (builtin("maxnat", 5), null_extension(builtin("q2"))):
        report = is_total(g)
        assert report.total == (report.graph_complete and report.loops_complete)
        assert report.total


# -- clique covers ----------------------------------------------------------------------


def _assert_cover_invariants(g, cover):
    covered = cover.covered_nodes()
    assert covered == frozenset(g.elements)
    mutual = {
        frozenset((x, y))
        for (x, y) in g.table
        if x != y and (y, x) in g.table
    }
    in_cliques = {
        frozenset((a, b))
        for clique in cover.cliques
        for a in clique.nodes
        for b in clique.nodes
        if a != b
    }
    assert mutual <= in_cliques


def test_complete_symmetric_fixture_is_one_clique():
    mx = builtin("maxnat", 3)
    cover = clique_cover(domain_graph(mx))
    assert len(cover.cliques) == 1
    assert cover.cliques[0].nodes == ("0", "1", "2")
    assert cover.cliques[0].is_total


def test_symmetrized_p1_cover_is_two_overlapping_cliques():
    g = symmetrized_p1()
    cover = clique_cover(domain_graph(g))
    assert [c.nodes for c in cover.cliques] == [("a", "b"), ("b", "c")]
    _assert_cover_invariants(g, cover)
    assert all(c.is_total for c in cover.cliques)


def test_square_cycle_cover_catches_the_last_edge():
    g = square_cycle()
    cover = clique_cover(domain_graph(g))
    _assert_cover_invariants(g, cover)


def test_cover_invariants_on_all_fixtures():
    for name, g in finite_fixture_suite().items():
        cover = clique_cover(domain_graph(g))
        _assert_cover_invariants(g, cover)


def test_clique_restriction_flags_leaks():
    # u and v are mutually composable but compose out of the pair
    g = FiniteGroupoid(
        ("u", "v", "w"),
        {
            ("u", "u"): "u",
            ("v", "v"): "v",
            ("w", "w"): "w",
            ("u", "v"): "w",
            ("v", "u"): "w",
        },
    )
    cover = clique_cover(domain_graph(g))
    leaky = next(c for c in cover.cliques if set(c.nodes) == {"u", "v"})
    assert not leaky.is_total
    assert ("u", "v") in leaky.leaks


def test_chain_cover_is_singletons():
    # no mutual non-loop edges and no loops: every node its own clique
    ch = builtin("chain", 4)
    cover = clique_cover(domain_graph(ch))
    assert [c.nodes for c in cover.cliques] == [("a1",), ("a2",), ("a3",), ("a4",)]
    assert not any(c.is_total for c in cover.cliques)


def _oracle_samples() -> list[FiniteGroupoid]:
    # fixtures, then 2,000 seeded tables of 1 to 6 elements: reflexive or not,
    # idempotent or not, at densities 0, 0.1, ..., 1
    rng = random.Random(77)
    return list(finite_fixture_suite().values()) + [
        random_groupoid(
            rng, rng.randint(1, 6), (i % 11) / 10, reflexive=i % 2 == 0, idempotent=i % 3 == 0
        )
        for i in range(2000)
    ]


def test_cover_matches_the_naive_greedy_oracle():
    escapes = 0
    for g in _oracle_samples():
        cover = clique_cover(domain_graph(g))
        assert [(c.nodes, c.is_total, c.leaks) for c in cover.cliques] == naive_clique_cover(g)
        for c in cover.cliques:
            # total exactly when the sub-table is full; a leak is a defined
            # internal pair the sub-table drops
            sub = g.restrict(c.nodes).table
            assert c.is_total == (len(sub) == len(c.nodes) ** 2)
            assert set(c.leaks) == {
                (x, y) for x in c.nodes for y in c.nodes if (x, y) in g.table
            } - set(sub)
        components = connected_components(domain_graph(g))
        assert [(c.nodes, g.restrict(c.nodes).table) for c in components] == naive_components(g)
        component_of = {n: c.nodes for c in components for n in c.nodes}
        escapes += any(component_of[v] != component_of[x] for (x, _), v in g.table.items())
    # some entry's value lies in another component, so its drop is exercised
    assert escapes > 0


def test_cover_and_components_match_the_oracles_on_larger_tables():
    """Successor chains of 20 to 60 elements with and without loops, seeded
    tables of 10 to 30 elements at densities 0.02 to 0.8, and tables of 20
    to 40 elements shaped like the benchmark's random sparse tables, each
    on a shuffled carrier."""
    rng = random.Random(26)
    tables = [successor_chain(rng, rng.randint(20, 60), loops=i % 2 == 0) for i in range(8)]
    for _ in range(60):
        size = rng.randint(10, 30)
        g = random_groupoid(rng, size, rng.uniform(0.02, 0.8), idempotent=rng.random() < 0.5)
        tables.append(FiniteGroupoid(tuple(rng.sample(g.elements, size)), g.table))
    tables += [random_sparse_shaped(rng, rng.randint(20, 40)) for _ in range(4)]
    largest = 0
    for g in tables:
        dg = domain_graph(g)
        cover = clique_cover(dg)
        assert [(c.nodes, c.is_total, c.leaks) for c in cover.cliques] == naive_clique_cover(g)
        components = connected_components(dg)
        assert [(c.nodes, g.restrict(c.nodes).table) for c in components] == naive_components(g)
        largest = max(largest, *(len(c.nodes) for c in cover.cliques))
    assert largest >= 4


class _CountingIndex(dict):
    """A carrier-position map that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


class _CountingNodes(tuple):
    """A node tuple that counts the nodes its iterations yield."""

    visits = 0

    def __iter__(self):
        for n in tuple.__iter__(self):
            self.visits += 1
            yield n


def test_cover_of_a_chain_costs_its_length():
    # a successor chain with loops has no mutual edge, so its cover is n
    # singletons; each costs a constant number of node visits and position
    # lookups, not a walk of the carrier
    work = {}
    for n in (25, 50, 100):
        g = builtin("uchain", n)
        index = _CountingIndex(g._position)
        object.__setattr__(g, "_position", index)
        nodes = _CountingNodes(g.elements)
        cover = clique_cover(DomainGraph(g, nodes, frozenset(g.table)))
        assert [c.nodes for c in cover.cliques] == [(e,) for e in g.elements]
        work[n] = nodes.visits + index.lookups
    assert work[50] == 2 * work[25] and work[100] == 2 * work[50]


def test_components_and_covers_never_call_restrict(monkeypatch):
    samples = _oracle_samples()

    def forbidden(self, subset):
        raise AssertionError("restrict called")

    monkeypatch.setattr(FiniteGroupoid, "restrict", forbidden)
    for g in samples:
        dg = domain_graph(g)
        connected_components(dg)
        clique_cover(dg)


def test_graph_views_build_no_table(monkeypatch):
    # the CLI's graph command reads nodes, totality and leaks: the input is
    # the only table it builds
    built = []
    original = FiniteGroupoid.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(FiniteGroupoid, "__post_init__", counting)
    argv = ["graph", "uchain:48", "--components", "--clique-cover", "--format", "machine"]
    assert cli.run(argv) == 0
    assert len(built) == 1 and len(built[0]) == 48


# -- dot rendering -------------------------------------------------------------------------


def test_dot_output_for_p1(p1):
    text = to_dot(domain_graph(p1))
    assert "a -> b;" in text
    assert "b -> c;" in text
    assert text.startswith("digraph domain {")


def test_dot_output_no_edges():
    g = FiniteGroupoid(("x", "y"), {})
    text = to_dot(domain_graph(g))
    assert "x;" in text and "y;" in text and "->" not in text


def test_dot_output_quotes_awkward_names():
    g = FiniteGroupoid(("a b",), {("a b", "a b"): "a b"})
    text = to_dot(domain_graph(g))
    assert '"a b" -> "a b";' in text
    # DOT keywords are reserved in any case, and a numeral is ASCII digits only
    names = ("node", "Edge", "GRAPH", "strict", "1²", "42", "a_b")
    g = FiniteGroupoid(names, {("node", "Edge"): "node"})
    lines = to_dot(domain_graph(g)).splitlines()
    for quoted in ("node", "Edge", "GRAPH", "strict", "1²"):
        assert f'  "{quoted}";' in lines
    assert '  "node" -> "Edge";' in lines
    assert "  42;" in lines and "  a_b;" in lines


def test_dot_output_deterministic(twoblock):
    dg = domain_graph(twoblock)
    assert to_dot(dg) == to_dot(dg)
