"""Plain-definition oracles for the benchmark's known answers.

Nothing here imports matchmerge.  Tables are plain dicts mapping a defined
pair ``(x, y)`` to its value; every function follows the written definition
of the axiom or construction it checks, walking only the pairs and triples
where something is defined so that it stays cheap on sparse tables.  The
benchmark calls these while building its inputs, never inside a timed region.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from itertools import combinations

PROPERTIES = ("S", "I", "C", "SC", "Rl", "Rr", "R", "A", "CA", "SA", "NR")


def _adjacency(table):
    right = defaultdict(list)  # x -> [(y, x o y)]
    left = defaultdict(list)  # y -> [x] with x o y defined
    for (x, y), z in table.items():
        right[x].append((y, z))
        left[y].append(x)
    return right, left


def word_products(table, word) -> frozenset:
    """Values of a word under every binary grouping (set semantics)."""

    @lru_cache(maxsize=None)
    def span(i, j):
        if i == j:
            return frozenset((word[i],))
        out = set()
        for k in range(i, j):
            for y in span(i, k):
                for z in span(k + 1, j):
                    v = table.get((y, z))
                    if v is not None:
                        out.add(v)
        return frozenset(out)

    return span(0, len(word) - 1)


def _defined_words(elements, table, right, left, bound):
    """Words of length <= bound whose product can be non-empty."""
    words = [(e,) for e in elements]
    if bound >= 2:
        words.extend(table)
    if bound >= 3:
        longer = set()
        for (x, y), xy in table.items():
            for z, _ in right[xy]:
                longer.add((x, y, z))
        for (y, z), yz in table.items():
            for x in left[yz]:
                longer.add((x, y, z))
        words.extend(sorted(longer))
    if bound >= 4:
        raise ValueError("the oracle enumerates words up to length 3")
    return words


def verdicts(elements, table, nr_bound: int) -> dict[str, bool]:
    """Which of the eleven audited axioms hold on ``table``."""
    right, left = _adjacency(table)
    v = {}
    v["S"] = all((y, x) in table for (x, y) in table)
    v["I"] = all(table.get((e, e)) == e for e in elements)
    v["C"] = all(table.get((y, x), z) == z for (x, y), z in table.items())
    v["SC"] = v["S"] and v["C"]
    # (p, p1) and (p1, p2) defined => (p, p1 o p2) defined, and its mirror.
    v["Rl"] = all((p, c) in table for (p1, _), c in table.items() for p in left[p1])
    v["Rr"] = all((c, p) in table for (_, p2), c in table.items() for p, _ in right[p2])
    v["R"] = v["Rl"] and v["Rr"]
    a = ca = True
    for (x, y), xy in table.items():
        for z, yz in right[y]:
            lhs, rhs = table.get((xy, z)), table.get((x, yz))
            if lhs is None or rhs is None:
                ca = False
            elif lhs != rhs:
                a = ca = False
    v["A"], v["CA"] = a, ca
    # Both groupings undefined, or both defined and equal.  A grouping is
    # defined only where its inner pair is, so walk those triples.
    sa = True
    for (x, y), xy in table.items():
        for z in elements:
            yz = table.get((y, z))
            if table.get((xy, z)) != (None if yz is None else table.get((x, yz))):
                sa = False
    for (y, z), yz in table.items():
        for x in elements:
            xy = table.get((x, y))
            if (None if xy is None else table.get((xy, z))) != table.get((x, yz)):
                sa = False
    v["SA"] = sa
    nr = True
    for word in _defined_words(elements, table, right, left, nr_bound):
        once = word_products(table, word)
        if once and word_products(table, word + word) != once:
            nr = False
            break
    v["NR"] = nr
    return v


def closure(table, seeds) -> frozenset:
    """Smallest superset of ``seeds`` closed under the defined compositions."""
    right, _ = _adjacency(table)
    members = set(seeds)
    changed = True
    while changed:
        changed = False
        for x in list(members):
            for y, z in right[x]:
                if y in members and z not in members:
                    members.add(z)
                    changed = True
    return frozenset(members)


def components(elements, table) -> list[list[str]]:
    """Connected components of the domain graph, as sorted node lists."""
    parent = {e: e for e in elements}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for x, y in table:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups = defaultdict(list)
    for e in elements:
        groups[find(e)].append(e)
    return sorted(sorted(g) for g in groups.values())


def natural_pairs(elements, table, variant: str) -> set:
    """p <=r q iff p q = q; p <=l q iff q p = q; both: the two together."""
    out = set()
    for p in elements:
        for q in elements:
            r = table.get((p, q)) == q
            lft = table.get((q, p)) == q
            if (variant == "right" and r) or (variant == "left" and lft) or (
                variant == "both" and r and lft
            ):
                out.add((p, q))
    return out


def order_laws(elements, pairs) -> tuple[bool, bool, bool]:
    reflexive = all((e, e) in pairs for e in elements)
    antisymmetric = all(p == q or (q, p) not in pairs for p, q in pairs)
    above = defaultdict(set)
    for p, q in pairs:
        above[p].add(q)
    transitive = all(above[q] <= above[p] for p, q in pairs)
    return reflexive, antisymmetric, transitive


def maximal(elements, pairs) -> list:
    """m with: m related to n implies n related back to m."""
    return [
        m for m in elements if all((n, m) in pairs for n in elements if (m, n) in pairs)
    ]


def full(elements, table, side: str) -> list:
    """Left full: x p defined => x p = p.  Right full: p x defined => p x = p."""

    def left_full(p):
        return all(table.get((x, p), p) == p for x in elements)

    def right_full(p):
        return all(table.get((p, x), p) == p for x in elements)

    test = {"left": left_full, "right": right_full}.get(
        side, lambda p: left_full(p) and right_full(p)
    )
    return [p for p in elements if test(p)]


def valid_clique_cover(elements, table, cliques) -> bool:
    """Every node and every mutual edge is covered; each clique is mutually
    composable, and its total flag and leaks follow their definitions."""
    covered_nodes = set()
    covered_edges = set()
    for clique in cliques:
        nodes = clique["nodes"]
        inside = set(nodes)
        for a, b in combinations(nodes, 2):
            if (a, b) not in table or (b, a) not in table:
                return False
            covered_edges.add(frozenset((a, b)))
        leaks = sorted(
            [x, y] for x in nodes for y in nodes if table.get((x, y), x) not in inside
        )
        total = not leaks and all((x, y) in table for x in nodes for y in nodes)
        if sorted(clique["leaks"]) != leaks or clique["total"] != total:
            return False
        covered_nodes |= inside
    mutual = {
        frozenset((x, y)) for (x, y) in table if x != y and (y, x) in table
    }
    return covered_nodes == set(elements) and mutual <= covered_edges


# -- records ------------------------------------------------------------------


def canonical_id(record: dict) -> str:
    """Sorted attributes, sorted values, compact JSON."""
    return json.dumps(
        {k: sorted(record[k]) for k in sorted(record)}, sort_keys=True, separators=(",", ":")
    )


def union(records) -> dict:
    out = defaultdict(set)
    for r in records:
        for k, values in r.items():
            out[k].update(values)
    return dict(out)


def record_components(records, keys) -> list[list[int]]:
    """Indices of records grouped by union-find over shared key values."""
    parent = list(range(len(records)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    owner = {}
    for i, r in enumerate(records):
        for k in keys:
            for value in r.get(k, ()):
                j = owner.setdefault((k, value), i)
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = defaultdict(list)
    for i in range(len(records)):
        groups[find(i)].append(i)
    return list(groups.values())


def _shares(a, b, keys) -> bool:
    return any(set(a.get(k, ())) & set(b.get(k, ())) for k in keys)


def connected_subsets(records, keys, members) -> list[tuple[int, ...]]:
    """Every non-empty subset of ``members`` that is connected in the
    shared-key-value graph; brute force over subsets, so keep components small."""
    out = []
    for size in range(1, len(members) + 1):
        for subset in combinations(members, size):
            reached = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                i = frontier.pop()
                for j in subset:
                    if j not in reached and _shares(records[i], records[j], keys):
                        reached.add(j)
                        frontier.append(j)
            if len(reached) == size:
                out.append(subset)
    return out


def resolved_ids(records, keys) -> list[str]:
    """One merged record per component: the entities."""
    return sorted(
        canonical_id(union(records[i] for i in group))
        for group in record_components(records, keys)
    )


def closure_ids(records, keys) -> list[str]:
    """Merge closure of union-merge records: the unions of connected subsets."""
    ids = set()
    for group in record_components(records, keys):
        for subset in connected_subsets(records, keys, group):
            ids.add(canonical_id(union(records[i] for i in subset)))
    return sorted(ids)
