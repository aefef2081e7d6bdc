"""Shared test utilities: independent oracles and seeded random generators.

The oracles here deliberately do not share code paths with the library:
products are evaluated by enumerating explicit grouping trees (Catalan
style) instead of interval dynamic programming, and closures by a naive
add-all-pairs loop instead of the round-based worklist.
"""

from __future__ import annotations

import random
import string
from itertools import product as cartesian

from matchmerge import FiniteGroupoid, Record


# -- parenthesization oracle ---------------------------------------------------


def _grouping_trees(n: int):
    """All full binary trees with n leaves, as nested ('node', L, R) tuples."""
    if n == 1:
        yield "leaf"
        return
    for k in range(1, n):
        for left in _grouping_trees(k):
            for right in _grouping_trees(n - k):
                yield ("node", left, right)


def _eval_tree(table, tree, leaves, start=0):
    """Value of one grouping over one leaf assignment, or None; returns
    (value, next_leaf_index)."""
    if tree == "leaf":
        return leaves[start], start + 1
    _, left, right = tree
    lv, mid = _eval_tree(table, left, leaves, start)
    if lv is None:
        # still consume the right subtree's leaves to keep indices aligned
        rv, end = _eval_tree(table, right, leaves, mid)
        return None, end
    rv, end = _eval_tree(table, right, leaves, mid)
    if rv is None:
        return None, end
    return table.get((lv, rv)), end


def parenthesization_products(g: FiniteGroupoid, factors) -> frozenset:
    """Oracle for subset products: enumerate every grouping tree and every
    choice of one element per factor, collect the defined values."""
    factors = [sorted(f) for f in factors]
    out = set()
    for tree in _grouping_trees(len(factors)):
        for leaves in cartesian(*factors):
            value, _ = _eval_tree(g.table, tree, list(leaves))
            if value is not None:
                out.add(value)
    return frozenset(out)


# -- naive closure oracle ------------------------------------------------------


def naive_merge_closure(g: FiniteGroupoid, seeds) -> frozenset:
    """Oracle for closures: keep adding all defined pairwise compositions
    until nothing changes.  No budgets; finite fixtures only."""
    members = set(seeds)
    changed = True
    while changed:
        changed = False
        for x in list(members):
            for y in list(members):
                z = g.table.get((x, y))
                if z is not None and z not in members:
                    members.add(z)
                    changed = True
    return frozenset(members)


def brute_force_generates(g: FiniteGroupoid, candidate) -> bool:
    return naive_merge_closure(g, candidate) == frozenset(g.elements)


# -- first-violation oracle ----------------------------------------------------


def first_violations(g: FiniteGroupoid) -> dict:
    """Oracle for the ten laws other than NR: for each law (keyed by its
    short name), the first violating tuple in carrier order, or None.

    Every law is checked on its own, straight from its definition, by brute
    force over ``itertools.product`` of the carrier.  R is Rl and Rr
    together; its witness is Rl's when Rl fails, else Rr's.
    """
    el, t = g.elements, g.table

    def first(arity, violated):
        return next((w for w in cartesian(el, repeat=arity) if violated(*w)), None)

    def s(x, y):
        return ((x, y) in t) != ((y, x) in t)

    def c(x, y):
        return (x, y) in t and (y, x) in t and t[(x, y)] != t[(y, x)]

    def rl(p1, p2, p):
        return (p1, p2) in t and (p, p1) in t and (p, t[(p1, p2)]) not in t

    def rr(p1, p2, p):
        return (p1, p2) in t and (p2, p) in t and (t[(p1, p2)], p) not in t

    def groupings(p1, p2, p3):
        """(p1 p2) p3 and p1 (p2 p3), each None when undefined."""
        left = t.get((t[(p1, p2)], p3)) if (p1, p2) in t else None
        right = t.get((p1, t[(p2, p3)])) if (p2, p3) in t else None
        return left, right

    def a(*w):
        left, right = groupings(*w)
        return left is not None and right is not None and left != right

    def ca(p1, p2, p3):
        left, right = groupings(p1, p2, p3)
        catenary = (p1, p2) in t and (p2, p3) in t
        return catenary and (left is None or right is None or left != right)

    def sa(*w):
        left, right = groupings(*w)
        return (left is None) != (right is None) or (left is not None and left != right)

    out = {
        "I": next(((p,) for p in el if t.get((p, p)) != p), None),
        "S": first(2, s),
        "C": first(2, c),
        "SC": first(2, lambda x, y: s(x, y) or c(x, y)),
        "Rl": first(3, rl),
        "Rr": first(3, rr),
        "A": first(3, a),
        "CA": first(3, ca),
        "SA": first(3, sa),
    }
    out["R"] = out["Rl"] or out["Rr"]
    return out


# -- random generators ---------------------------------------------------------


def random_groupoid(
    rng: random.Random,
    size: int,
    density: float = 0.5,
    reflexive: bool = False,
    idempotent: bool = False,
) -> FiniteGroupoid:
    elements = tuple(string.ascii_letters[:size])
    table = {}
    for x in elements:
        for y in elements:
            if x == y and idempotent:
                table[(x, y)] = x
            elif (reflexive and x == y) or rng.random() < density:
                table[(x, y)] = rng.choice(elements)
    return FiniteGroupoid(elements, table)


def random_record_instance(rng: random.Random, max_records: int = 8) -> list[Record]:
    """Records with one name value from a small pool plus a unique marker
    attribute, so every union in the closure is distinct."""
    count = rng.randint(2, max_records)
    names = ["k1", "k2", "k3", "k4", "k5"]
    records = []
    for i in range(count):
        records.append(
            Record.of(name={rng.choice(names)}, **{f"src{i}": {f"r{i}"}})
        )
    return records
