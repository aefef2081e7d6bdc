"""The domain graph of a partial groupoid and partiality-reducing covers.

Nodes are the carrier and directed edges are exactly the defined pairs, so
the graph is a faithful picture of where the composition is defined.
Connected components split a groupoid into independent parts; clique covers
of the symmetric view carve out locally total sub-tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainNotSymmetricError
from .groupoid import ElementId, FiniteGroupoid, Pair
from .properties import Property, check_property


@dataclass(frozen=True)
class DomainGraph:
    groupoid: FiniteGroupoid
    nodes: tuple[ElementId, ...]
    edges: frozenset[Pair]


@dataclass(frozen=True)
class Component:
    """A connected component's nodes, in carrier order; its sub-table is
    ``g.restrict(nodes)``."""

    nodes: tuple[ElementId, ...]


@dataclass(frozen=True)
class Clique:
    """A mutually-composable node set, in carrier order, with its totality
    and leaks; its sub-table is ``g.restrict(nodes)``.

    ``is_total``: every ordered pair inside (loops included) is defined and
    no composition leaks outside.  ``leaks`` lists defined internal pairs
    whose value escapes the clique; such restrictions are kept but flagged
    as non-closed rather than forbidden.
    """

    nodes: tuple[ElementId, ...]
    is_total: bool
    leaks: tuple[Pair, ...]


@dataclass(frozen=True)
class CliqueCover:
    cliques: tuple[Clique, ...]

    def covered_nodes(self) -> frozenset[ElementId]:
        return frozenset(n for c in self.cliques for n in c.nodes)


def domain_graph(g: FiniteGroupoid) -> DomainGraph:
    """Directed graph with an edge p1 -> p2 for each defined (p1, p2)."""
    return DomainGraph(g, g.elements, frozenset(g.table))


def connected_components(dg: DomainGraph) -> list[Component]:
    """Components of the symmetric view, in carrier order of their first node.

    Union-find over the edges groups the nodes; no sub-table is built.
    """
    parent = {n: n for n in dg.nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p, q in dg.edges:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rq] = rp

    groups: dict[ElementId, list[ElementId]] = {}
    for n in dg.nodes:
        groups.setdefault(find(n), []).append(n)
    return [Component(tuple(nodes)) for nodes in groups.values()]


@dataclass(frozen=True)
class TotalityReport:
    total: bool
    missing: Pair | None
    graph_complete: bool
    loops_complete: bool


def is_total(g: FiniteGroupoid) -> TotalityReport:
    """Is every ordered pair defined?  Requires a symmetric domain.

    With a symmetric domain, totality is the graph criterion: the symmetric
    view is complete (every ``(x, y)`` with ``x`` before ``y`` is defined) and
    has a loop on every node.  Both halves are read off the table.
    """
    symmetric = check_property(g, Property.SYMMETRIC)
    if not symmetric.holds:
        x, y = symmetric.witness
        raise DomainNotSymmetricError(
            f"domain is not symmetric: ({x!r}, {y!r}) vs ({y!r}, {x!r})",
            witness=(x, y),
        )
    missing = next((pq for pq in g.pairs() if pq not in g.table), None)
    graph_complete = all(
        (x, y) in g.table for i, x in enumerate(g.elements) for y in g.elements[i + 1 :]
    )
    loops_complete = all((x, x) in g.table for x in g.elements)
    return TotalityReport(missing is None, missing, graph_complete, loops_complete)


def _grow_clique(index: dict, neighbours: dict, start: list) -> tuple[ElementId, ...]:
    members = list(start)
    candidates = set.intersection(*(neighbours[s] for s in start))
    for w in sorted(candidates, key=index.__getitem__):
        if w in candidates:
            members.append(w)
            candidates &= neighbours[w]
    return tuple(sorted(members, key=index.__getitem__))


def _build_clique(g: FiniteGroupoid, nodes: tuple[ElementId, ...]) -> Clique:
    inside = set(nodes)
    internal = 0
    leaks = []
    for x in nodes:
        for y in nodes:
            v = g.table.get((x, y))
            if v in inside:
                internal += 1
            elif v is not None:
                leaks.append((x, y))
    return Clique(nodes, internal == len(nodes) ** 2, tuple(leaks))


def clique_cover(dg: DomainGraph) -> CliqueCover:
    """Greedy clique cover of the mutual-definedness view.

    Each node's mutual neighbours (the other nodes it composes with both
    ways) are read off ``dg.edges`` once.  A clique is seeded at the
    lowest-index uncovered node, then at each mutual edge still uncovered
    (overlapping cliques are allowed), and grows by each node, in carrier
    order, in the intersection of its members' neighbour sets; an isolated
    node stays a singleton.  Only the seed's candidates (the intersection
    at the seed) are walked, since candidates only shrink, so a clique
    costs its candidates, not the carrier, and the cover of a chain is
    linear in its length.  Minimum covers are intractable in general; any
    cover whose cliques catch every node and every mutual edge is
    acceptable.
    """
    g = dg.groupoid
    index = g._position
    neighbours = {n: set() for n in dg.nodes}
    for x, y in dg.edges:
        if x != y and (y, x) in dg.edges:
            neighbours[x].add(y)
    mutual_edges = [
        (x, y) for x in dg.nodes for y in sorted(neighbours[x], key=index.get) if index[x] < index[y]
    ]
    cliques: list[tuple[ElementId, ...]] = []
    covered_nodes: set[ElementId] = set()
    covered_edges: set[Pair] = set()

    def mark(clique: tuple[ElementId, ...]):
        cliques.append(clique)
        covered_nodes.update(clique)
        for a in clique:
            for b in clique:
                if index[a] <= index[b]:
                    covered_edges.add((a, b))

    for n in dg.nodes:
        if n not in covered_nodes:
            mark(_grow_clique(index, neighbours, [n]))
    for edge in mutual_edges:
        if edge not in covered_edges:
            mark(_grow_clique(index, neighbours, list(edge)))
    return CliqueCover(tuple(_build_clique(g, c) for c in cliques))


_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_identifier(name: str) -> str:
    """``name`` bare where DOT reads it as an ID, else double-quoted.

    Keywords are reserved in any case, and a numeral is ASCII digits only."""
    word = name.replace("_", "").isalnum() and not name[0].isdigit()
    numeral = name.isascii() and name.isdigit()
    if (word or numeral) and name.lower() not in _DOT_KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_dot(dg: DomainGraph) -> str:
    """Deterministic dot rendering: nodes then edges, each sorted by name."""
    lines = ["digraph domain {"]
    for n in sorted(dg.nodes):
        lines.append(f"  {_dot_identifier(n)};")
    for p, q in sorted(dg.edges):
        lines.append(f"  {_dot_identifier(p)} -> {_dot_identifier(q)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
