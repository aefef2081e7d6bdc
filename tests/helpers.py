"""Shared test utilities: independent oracles and seeded random generators.

The oracles here deliberately do not share code paths with the library:
products are evaluated by enumerating explicit grouping trees (Catalan
style) instead of interval dynamic programming, and closures by a naive
add-all-pairs loop, or, where the order and the budget stop matter, by
rounds that walk every pair of closure positions instead of each new
element's partners.
"""

from __future__ import annotations

import random
import string
from itertools import product as cartesian

from matchmerge import Digraph, DiPath, FiniteGroupoid, Record


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


def word_products(g: FiniteGroupoid, word) -> frozenset:
    """Oracle for the product of a word of single elements, from
    ``parenthesization_products``."""
    return parenthesization_products(g, [{w} for w in word])


def first_nr_violation(g: FiniteGroupoid, bound: int):
    """Oracle for NR: the first word, by length and then in carrier order,
    of length at most ``bound`` whose product is non-empty and differs from
    the product of the word written twice; None when every word passes.
    Both products come from ``word_products``."""
    for k in range(1, bound + 1):
        for word in cartesian(g.elements, repeat=k):
            once = word_products(g, word)
            if once and word_products(g, word * 2) != once:
                return word
    return None


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


def closure_by_rounds(g: FiniteGroupoid, seeds, max_elements=10_000, max_rounds=1_000):
    """Oracle for ``generated_subgroupoid`` on a table, from ``g.table``
    alone: ``(status, carrier, table items, rounds)``.

    The carrier starts as the distinct seeds in id order.  Each round
    walks every pair of closure positions (i, j) in order, and composes
    the defined ones with i or j at a position found in the previous round
    (every pair in round one).  A value outside the carrier is new; the
    round's new values join the carrier after the round, in the order
    found.  The run stops exhausted before a round past ``max_rounds``, or
    at the new value that would make the carrier larger than
    ``max_elements`` (that pair is not recorded, and the round's earlier
    new values are kept), and closed after a round that finds nothing."""
    carrier = sorted(set(seeds))
    table = []
    if len(carrier) > max_elements:
        return "budget_exhausted", tuple(carrier), table, 0
    rounds = start = 0
    while rounds < max_rounds:
        rounds += 1
        n, fresh = len(carrier), []
        for i in range(n):
            for j in range(n):
                z = g.table.get((carrier[i], carrier[j]))
                if z is None or max(i, j) < start:
                    continue
                if z not in carrier and z not in fresh:
                    if n + len(fresh) >= max_elements:
                        return "budget_exhausted", tuple(carrier + fresh), table, rounds
                    fresh.append(z)
                table.append(((carrier[i], carrier[j]), z))
        if not fresh:
            return "closed", tuple(carrier), table, rounds
        start = n
        carrier += fresh
    return "budget_exhausted", tuple(carrier), table, rounds


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


# -- order oracles -------------------------------------------------------------


def natural_relations(g: FiniteGroupoid) -> dict:
    """Oracle for the natural relations, keyed ``left``, ``right`` and
    ``both``: every ordered carrier pair tested against the definitions
    ``p <=r q`` iff ``pq = q`` and ``p <=l q`` iff ``qp = q``."""
    el, t = g.elements, g.table
    right = {(p, q) for p, q in cartesian(el, repeat=2) if t.get((p, q)) == q}
    left = {(p, q) for p, q in cartesian(el, repeat=2) if t.get((q, p)) == q}
    return {"left": left, "right": right, "both": left & right}


def maximal_by_definition(elements, pairs) -> tuple:
    """Elements m such that m related to n implies n related back to m."""
    return tuple(
        m for m in elements if all((n, m) in pairs for n in elements if (m, n) in pairs)
    )


def full_by_definition(g: FiniteGroupoid) -> dict:
    """Left full: every defined x p equals p; right full: every defined p x
    equals p; ``both``: the two at once.  Keyed like ``natural_relations``."""
    el, t = g.elements, g.table
    left = tuple(p for p in el if all(t.get((x, p), p) == p for x in el))
    right = tuple(p for p in el if all(t.get((p, x), p) == p for x in el))
    return {"left": left, "right": right, "both": tuple(p for p in left if p in right)}


def first_order_law_violations(carrier, pairs) -> dict:
    """Oracle for the partial-order laws of a relation: for each law, the
    first violating tuple in the order of ``carrier``, or None."""

    def first(arity, violated):
        return next((w for w in cartesian(carrier, repeat=arity) if violated(*w)), None)

    return {
        "reflexive": first(1, lambda x: (x, x) not in pairs),
        "antisymmetric": first(2, lambda x, y: x != y and (x, y) in pairs and (y, x) in pairs),
        "transitive": first(
            3, lambda x, y, z: (x, y) in pairs and (y, z) in pairs and (x, z) not in pairs
        ),
    }


def first_order_axiom_violations(g: FiniteGroupoid, pairs) -> dict:
    """Oracle for the least-upper-bound and the two compatibility laws of a
    relation on ``g``: for each law, ``(witness, detail)`` of the first
    violation in the carrier order of ``g``, or None.

    lub fails at a defined ``(p1, p2)`` whose value is no upper bound of
    both operands, else at ``(p1, p2, x)`` for the first upper bound ``x``
    that the value is not below.  Compatibility fails at ``(p1, p2, p)``
    with ``p1`` related to ``p2`` when ``p p1`` is defined but ``p p2`` is
    not (left; ``p1 p`` and ``p2 p`` on the right), or when the two values
    are not related.
    """
    el, t = g.elements, g.table

    def lub(p1, p2):
        if (p1, p2) not in t:
            return None
        c = t[(p1, p2)]
        if (p1, c) not in pairs or (p2, c) not in pairs:
            return (p1, p2), "composition is not an upper bound"
        for x in el:
            if (p1, x) in pairs and (p2, x) in pairs and (c, x) not in pairs:
                return (p1, p2, x), "composition is not least"
        return None

    def compat(left_side):
        def violation(p1, p2, p):
            if (p1, p2) not in pairs:
                return None
            a, b = ((p, p1), (p, p2)) if left_side else ((p1, p), (p2, p))
            if a not in t:
                return None
            if b not in t:
                return (p1, p2, p), "definedness not transported"
            if (t[a], t[b]) not in pairs:
                return (p1, p2, p), "compositions not related"
            return None

        return violation

    def first(arity, violation):
        found = (violation(*w) for w in cartesian(el, repeat=arity))
        return next((v for v in found if v is not None), None)

    return {
        "lub": first(2, lub),
        "left_compat": first(3, compat(True)),
        "right_compat": first(3, compat(False)),
    }


def random_relation(rng: random.Random, elements, partial_order: bool = False) -> set:
    """A random relation on ``elements``.  With ``partial_order`` it is
    reflexive, antisymmetric and transitive: each element sits below itself
    and below everything above a random choice of elements ranked after it
    in a random ranking."""
    if not partial_order:
        return {(p, q) for p, q in cartesian(elements, repeat=2) if rng.random() < 0.4}
    ranked = rng.sample(list(elements), len(elements))
    above = {}
    for i in reversed(range(len(ranked))):
        above[ranked[i]] = {ranked[i]}
        for q in ranked[i + 1 :]:
            if rng.random() < 0.4:
                above[ranked[i]] |= above[q]
    return {(p, q) for p in elements for q in above[p]}


# -- clique-cover oracle -------------------------------------------------------


def naive_clique_cover(g: FiniteGroupoid) -> list:
    """Oracle for the greedy clique cover, as ``(nodes, is_total, leaks)``.

    A clique is seeded at the first uncovered node, then at the first
    uncovered pair of distinct nodes that compose both ways; it grows by each
    node, in carrier order, that composes both ways with every member so
    far, each candidate checked against every member.
    """
    el, t = g.elements, g.table

    def mutual(a, b):
        return a != b and (a, b) in t and (b, a) in t

    def grow(start):
        members = list(start)
        for w in el:
            if w not in members and all(mutual(w, m) for m in members):
                members.append(w)
        return tuple(e for e in el if e in members)

    cliques = []
    while True:
        covered = {n for c in cliques for n in c}
        seed = next(([n] for n in el if n not in covered), None)
        if seed is None:
            seed = next(
                (
                    [a, b]
                    for i, a in enumerate(el)
                    for b in el[i + 1 :]
                    if mutual(a, b) and not any(a in c and b in c for c in cliques)
                ),
                None,
            )
        if seed is None:
            break
        cliques.append(grow(seed))
    out = []
    for nodes in cliques:
        leaks = tuple(pq for pq in cartesian(nodes, repeat=2) if pq in t and t[pq] not in nodes)
        total = all(pq in t for pq in cartesian(nodes, repeat=2)) and not leaks
        out.append((nodes, total, leaks))
    return out


# -- mutual-absorption oracle --------------------------------------------------


def mutually_absorbing(g: FiniteGroupoid, p, q) -> bool:
    """Oracle for mutual absorption: the products of the words p q p and
    q p q, from ``word_products``, are {p} and {q}."""
    return word_products(g, (p, q, p)) == {p} and word_products(g, (q, p, q)) == {q}


def absorption_oracle(g: FiniteGroupoid):
    """Oracle for ``congruence_classes`` once NR holds: ``("classes",
    classes)``, or the first failing law and its witness.

    p and q are related when ``mutually_absorbing`` holds.
    Reflexivity is checked in carrier order, transitivity over every triple
    in carrier order, and compatibility over every pair of related pairs in
    sorted id order.  Classes are seeded at each element not yet placed, in
    carrier order.
    """
    el, t = g.elements, g.table
    related = {(p, q) for p, q in cartesian(el, repeat=2) if mutually_absorbing(g, p, q)}
    for p in el:
        if (p, p) not in related:
            return ("reflexivity", (p,))
    for p, q, r in cartesian(el, repeat=3):
        if (p, q) in related and (q, r) in related and (p, r) not in related:
            return ("transitivity", (p, q, r))
    for (p, p2), (q, q2) in cartesian(sorted(related), repeat=2):
        if (p, q) in t and (p2, q2) in t and (t[(p, q)], t[(p2, q2)]) not in related:
            return ("compatibility", (p, p2, q, q2))
    classes, placed = [], set()
    for p in el:
        if p not in placed:
            classes.append(tuple(q for q in el if (p, q) in related))
            placed.update(classes[-1])
    return ("classes", tuple(classes))


def requotient_oracle(g: FiniteGroupoid, bound: int):
    """Oracle for ``quotient_idempotence_check`` once NR holds on ``g`` at
    ``bound``: ``(holds, witness, detail)``, or None when ``g`` itself has
    no quotient.

    Both quotients are built from ``absorption_oracle`` classes, the second
    one always.  NR on the first comes from ``first_nr_violation``, unless
    every class is a singleton: the first then has ``g``'s table, on which
    NR holds by the precondition.
    """
    law, classes = absorption_oracle(g)
    if law != "classes":
        return None
    rep = {e: cls[0] for cls in classes for e in cls}
    table = {(rep[x], rep[y]): rep[v] for (x, y), v in g.table.items()}
    first = FiniteGroupoid(tuple(cls[0] for cls in classes), table)
    witness = None if len(first) == len(g) else first_nr_violation(first, bound)
    if witness is not None:
        return False, witness, "word idempotence fails on the quotient"
    law, second = absorption_oracle(first)
    if law != "classes":
        return False, second, f"{law} fails on the quotient"
    offender = next((cls for cls in second if len(cls) > 1), None)
    if offender is None:
        return True, None, "second quotient is the identity"
    return False, offender, "quotient carrier still collapses"


# -- connected-components oracle -----------------------------------------------


def naive_components(g: FiniteGroupoid) -> list:
    """Oracle for ``connected_components``, as ``(nodes, table)`` pairs.

    A breadth-first search over defined pairs, followed both ways, from each
    node not yet reached in carrier order; each component's nodes are in
    carrier order, and its table holds the entries whose operands and value
    all lie inside it.
    """
    el, t = g.elements, g.table
    reached = set()
    out = []
    for start in el:
        if start in reached:
            continue
        members, frontier = {start}, [start]
        while frontier:
            a = frontier.pop(0)
            for b in el:
                if b not in members and ((a, b) in t or (b, a) in t):
                    members.add(b)
                    frontier.append(b)
        reached |= members
        nodes = tuple(e for e in el if e in members)
        table = {
            (x, y): t[(x, y)]
            for x in nodes
            for y in nodes
            if (x, y) in t and t[(x, y)] in members
        }
        out.append((nodes, table))
    return out


# -- generators ----------------------------------------------------------------


def idempotent_tables(elements=("a", "b", "c")):
    """Every table on ``elements`` with ``p.p = p`` and any off-diagonal
    entries, each undefined or one of the elements (4096 on three)."""
    off = [(p, q) for p in elements for q in elements if p != q]
    for values in cartesian((None, *elements), repeat=len(off)):
        table = {(p, p): p for p in elements}
        table.update((pq, v) for pq, v in zip(off, values) if v is not None)
        yield FiniteGroupoid(elements, table)


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


def random_banded_groupoid(rng: random.Random, size: int) -> FiniteGroupoid:
    """A table on a shuffled carrier whose elements fall into random blocks:
    inside a block most entries are a left-zero, right-zero or mixed band
    entry (x.y in {x, y}), elsewhere a few random entries, and every element
    is idempotent, so large mutual-absorption classes are common."""
    elements = tuple(rng.sample(string.ascii_letters[:size], size))
    block = {e: rng.randrange(rng.randint(1, size)) for e in elements}
    kind = rng.random()
    table = {}
    for x, y in cartesian(elements, repeat=2):
        r = rng.random()
        if x == y:
            table[(x, y)] = x
        elif block[x] == block[y] and r < 0.8:
            table[(x, y)] = x if kind < 0.5 else y if kind < 0.8 else rng.choice((x, y))
        elif r < 0.3:
            table[(x, y)] = rng.choice(elements)
    return FiniteGroupoid(elements, table)


def successor_chain(rng: random.Random, size: int, loops: bool) -> FiniteGroupoid:
    """e_i e_{i+1} = e_{i+2} along a random order of a shuffled carrier,
    with an idempotent loop on every element when ``loops``."""
    labels = [f"e{i}" for i in range(size)]
    elements = tuple(rng.sample(labels, size))
    path = rng.sample(labels, size)
    table = {(path[i], path[i + 1]): path[i + 2] for i in range(size - 2)}
    if loops:
        table.update({(e, e): e for e in elements})
    return FiniteGroupoid(elements, table)


def random_sparse_shaped(rng: random.Random, size: int) -> FiniteGroupoid:
    """An idempotent table on a shuffled carrier where a quarter of the
    elements are sinks (loop only) and each other element, a source,
    composes with 1 to 3 other sources into a random sink."""
    labels = [f"s{i}" for i in range(size)]
    sinks, sources = labels[: size // 4], labels[size // 4 :]
    table = {(e, e): e for e in labels}
    for x in sources:
        for y in rng.sample(sources, rng.randint(1, 3)):
            if y != x:
                table[(x, y)] = rng.choice(sinks)
    return FiniteGroupoid(tuple(rng.sample(labels, size)), table)


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


def clustered_records(rng: random.Random, n: int) -> list[Record]:
    """``n`` records, shuffled, in clusters that share a name value.  Cluster
    sizes cycle through 1, 1, 2, 1, 3, (2, 2), 1, 4, 1, 2, where (2, 2) is two
    clusters and a bridge record that carries both names.  Each record has a
    unique ``src`` marker, so no union of two or more records is a record."""
    blocks = ((1,), (1,), (2,), (1,), (3,), (2, 2), (1,), (4,), (1,), (2,))
    names: list[set[str]] = []
    k = 0
    while len(names) < n:
        block = blocks[k % len(blocks)]
        labels = [f"n{k}.{i}" for i in range(len(block))]
        for label, size in zip(labels, block):
            names.extend({label} for _ in range(size))
        if len(block) == 2:
            names.append(set(labels))
        k += 1
    records = [Record.of(name=name, src={f"r{i}"}) for i, name in enumerate(names[:n])]
    rng.shuffle(records)
    return records


def random_paths(rng: random.Random, max_nodes: int = 6) -> tuple[Digraph, list[DiPath]]:
    """A random digraph and a few pieces of random walks in it, each a
    valid path (arcs distinct, heads pairwise distinct); pieces of one walk
    often overlap."""
    nodes = tuple(string.ascii_lowercase[: rng.randint(2, max_nodes)])
    arcs = [(u, v) for u in nodes for v in nodes if rng.random() < 0.4]
    if not arcs:
        arcs = [(nodes[0], nodes[1])]
    paths = []
    for _ in range(rng.randint(1, 2)):
        walk = [rng.choice(arcs)]
        for _ in range(5):
            heads = {v for _, v in walk}
            steps = [a for a in arcs if a[0] == walk[-1][1] and a[1] not in heads]
            if not steps:
                break
            walk.append(rng.choice(steps))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(walk))
            paths.append(DiPath(tuple(walk[i : rng.randint(i + 1, len(walk))])))
    return Digraph(nodes, tuple(arcs)), paths
