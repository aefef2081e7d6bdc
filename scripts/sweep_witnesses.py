#!/usr/bin/env python3
"""Check every law's verdict and first witness against the brute-force oracle.

The tables swept are every partial table on three elements (each of the 9
pairs undefined or one of the 3 values: 262,144 tables), each built twice,
with its entries inserted in carrier order and in reverse, and then
``SCRAMBLED`` seeded tables of 1 to 9 elements on a shuffled carrier with
their entries inserted in random order, and then ``SPARSE`` seeded
idempotent tables of 10 to 16 elements at densities up to 0.05, likewise
scrambled.  Few scrambled tables hold SA across many cells; of the sparse
ones about one in eight holds it with most cells undefined, and more than
a third fail it only where one grouping is undefined: the cases in which
the chain walk decides SA by counting.  On each table, every law but NR is
checked on a fresh ``FiniteGroupoid`` and must give the verdict and the
witness of ``tests/helpers.first_violations``, and NR at word bound
``NR_BOUND`` those of ``tests/helpers.first_nr_violation``.  On the
scrambled and sparse tables, ``clique_cover`` and ``connected_components``
of the domain graph must also give the cliques (nodes, totality and leaks)
of ``tests/helpers.naive_clique_cover`` and the components (nodes and
table) of ``tests/helpers.naive_components``, and ``generated_subgroupoid``
from three seeded instances must give the status, the carrier in order,
the table in the order composed and the round count of
``tests/helpers.closure_by_rounds``; the third instance runs under an
element budget below its closure's size, which stops the run wherever the
closure has more than one element.  Where NR holds at ``NR_BOUND`` on a
scrambled or sparse table, ``quotient_idempotence_check`` must give the
verdict, the witness and the detail of ``tests/helpers.requotient_oracle``,
which always builds the second quotient, or raise ``CongruenceError`` where
the oracle finds no first quotient.  On every scrambled and sparse table,
each natural order's ``sorted_pairs()`` must be the relation of
``tests/helpers.natural_relations`` in carrier order, its
``order_law_audit`` must give the verdicts and witnesses of
``tests/helpers.first_order_law_violations``, ``maximal_elements`` must give
``tests/helpers.maximal_by_definition`` and ``full_elements``
``tests/helpers.full_by_definition``; and ``load_groupoid`` of the table's
``groupoid_to_document``, written to a file, must give back its carrier in
order and its table.  The first mismatch is printed and the sweep exits 1;
otherwise it prints what it checked and exits 0.

It takes a few minutes on one core, so it is not part of the test suite
(CI runs it as a job of its own): run it after changing a law scan, how a
table's rows are built, the order in which a scan reads the table, how the domain graph is
covered or split, how a closure is computed, how a quotient is built or
checked, how a natural order is built or audited, or how a groupoid
document is loaded.

  PYTHONPATH=src python3 scripts/sweep_witnesses.py
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import (
    closure_by_rounds,
    first_nr_violation,
    first_order_law_violations,
    first_violations,
    full_by_definition,
    maximal_by_definition,
    naive_clique_cover,
    naive_components,
    natural_relations,
    random_groupoid,
    requotient_oracle,
)

from matchmerge import (
    Budget,
    CongruenceError,
    FiniteGroupoid,
    OrderVariant,
    Property,
    Verdict,
    check_property,
    clique_cover,
    connected_components,
    domain_graph,
    full_elements,
    generated_subgroupoid,
    groupoid_to_document,
    load_groupoid,
    maximal_elements,
    natural_order,
    order_law_audit,
    quotient_idempotence_check,
)

LAWS = [p for p in Property if p is not Property.WORD_IDEMPOTENT]
NR_BOUND = 3
SCRAMBLED = 20_000
SPARSE = 600
SEED = 2026


def three_element_tables():
    elements = ("a", "b", "c")
    pairs = list(product(elements, repeat=2))
    for values in product((None, *elements), repeat=len(pairs)):
        entries = [(pair, v) for pair, v in zip(pairs, values) if v is not None]
        yield FiniteGroupoid(elements, dict(entries))
        yield FiniteGroupoid(elements, dict(reversed(entries)))


def scrambled_tables():
    rng = random.Random(SEED)
    for i in range(SCRAMBLED):
        size = rng.randint(1, 9)
        g = random_groupoid(rng, size, rng.random(), reflexive=i % 2 == 0)
        entries = list(g.table.items())
        rng.shuffle(entries)
        yield FiniteGroupoid(tuple(rng.sample(g.elements, size)), dict(entries))


def sparse_tables():
    rng = random.Random(SEED)
    for _ in range(SPARSE):
        size = rng.randint(10, 16)
        g = random_groupoid(rng, size, rng.uniform(0, 0.05), idempotent=True)
        entries = list(g.table.items())
        rng.shuffle(entries)
        yield FiniteGroupoid(tuple(rng.sample(g.elements, size)), dict(entries))


def closure_mismatch(g: FiniteGroupoid, rng: random.Random) -> tuple[str | None, int]:
    """The first of three seeded closures of ``g`` that differs from
    ``closure_by_rounds``, described, or None; and how many of the three
    the budget stopped."""
    stopped = 0
    for k in range(3):
        seeds = rng.sample(g.elements, rng.randint(1, len(g)))
        budget = Budget()
        if k == 2:
            size = len(closure_by_rounds(g, seeds)[1])
            budget = Budget(max_elements=rng.randint(1, max(1, size - 1)))
        expected = closure_by_rounds(g, seeds, budget.max_elements, budget.max_rounds)
        result = generated_subgroupoid(g, seeds, budget)
        got = result.status, result.carrier, list(result.groupoid.table.items()), result.iterations
        if got != expected:
            described = f"closure of {seeds} under {budget} on {g.elements} {g.table}"
            return f"{described}: {got}, oracle {expected}", stopped
        stopped += got[0] == "budget_exhausted"
    return None, stopped


def requotient_mismatch(g: FiniteGroupoid) -> str | None:
    """``quotient_idempotence_check`` at ``NR_BOUND`` against
    ``requotient_oracle`` (None for a ``CongruenceError`` on both sides),
    described if they differ; ``g`` must hold NR at that bound."""
    expected = requotient_oracle(g, NR_BOUND)
    try:
        verdict = quotient_idempotence_check(g, NR_BOUND)
        got = verdict.holds, verdict.witness, verdict.detail
    except CongruenceError:
        got = None
    if got != expected:
        return f"re-quotient of {g.elements} {g.table}: {got}, oracle {expected}"
    return None


LAW_DETAILS = (
    ("reflexive", "missing loop"),
    ("antisymmetric", "both directions related"),
    ("transitive", "missing composite pair"),
)


def order_mismatch(g: FiniteGroupoid) -> str | None:
    """The first of the natural orders of ``g``, their law audits, maximal
    elements and full elements that differs from the oracles, described; or
    None when they all agree."""
    natural = natural_relations(g)
    full = full_by_definition(g)
    for v in OrderVariant:
        pairs = natural[v.value]
        expected = tuple(pq for pq in product(g.elements, repeat=2) if pq in pairs)
        described = f"the natural {v} order of {g.elements} {g.table}"
        rel = natural_order(g, v)
        if rel.sorted_pairs() != expected:
            return f"{described}: {rel.sorted_pairs()}, oracle {expected}"
        laws = first_order_law_violations(g.elements, pairs)
        audit = order_law_audit(rel)
        for law, detail in LAW_DETAILS:
            witness = laws[law]
            want = Verdict(True) if witness is None else Verdict(False, witness, detail)
            if getattr(audit, law) != want:
                return f"{law} audit of {described}: {getattr(audit, law)}, oracle {want}"
        maximal = maximal_by_definition(g.elements, pairs)
        if maximal_elements(g, v) != maximal:
            return f"maximal elements of {described}: {maximal_elements(g, v)}, oracle {maximal}"
        if full_elements(g, v) != full[v.value]:
            got = full_elements(g, v)
            return f"{v}-full elements of {g.elements} {g.table}: {got}, oracle {full[v.value]}"
    return None


def round_trip_mismatch(g: FiniteGroupoid, path: Path) -> str | None:
    """``load_groupoid`` of ``g``'s document, written to ``path``, unless it
    gives back ``g``'s carrier and table, described; else None."""
    path.write_text(json.dumps(groupoid_to_document(g)), encoding="utf-8")
    back = load_groupoid(path).groupoid
    if back.elements != g.elements or back.table != g.table:
        return f"round trip of {g.elements} {g.table}: {back.elements} {back.table}"
    return None


def mismatch(g: FiniteGroupoid, graphs: bool) -> str | None:
    """The first law on which the checker and the oracle differ, then, when
    ``graphs``, the clique cover or the components if they differ from
    theirs, described; or None when they all agree."""
    expected = first_violations(g)
    for p in LAWS:
        verdict, witness = check_property(g, p), expected[str(p)]
        if verdict.holds != (witness is None) or verdict.witness != witness:
            return (
                f"{p} on {g.elements} {g.table}: checker {verdict.holds} {verdict.witness},"
                f" oracle {witness}"
            )
    verdict = check_property(g, Property.WORD_IDEMPOTENT, NR_BOUND)
    witness = first_nr_violation(g, NR_BOUND)
    if verdict.holds != (witness is None) or verdict.witness != witness:
        return (
            f"NR at bound {NR_BOUND} on {g.elements} {g.table}: checker {verdict.holds}"
            f" {verdict.witness}, oracle {witness}"
        )
    if graphs:
        dg = domain_graph(g)
        cover = [(c.nodes, c.is_total, c.leaks) for c in clique_cover(dg).cliques]
        oracle = naive_clique_cover(g)
        if cover != oracle:
            return f"clique cover of {g.elements} {g.table}: {cover}, oracle {oracle}"
        components = [(c.nodes, g.restrict(c.nodes).table) for c in connected_components(dg)]
        oracle = naive_components(g)
        if components != oracle:
            return f"components of {g.elements} {g.table}: {components}, oracle {oracle}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        return sweep(Path(tmp) / "table.json")


def sweep(document: Path) -> int:
    """Run every batch, writing round-trip documents to ``document``."""
    batches = (
        ("three-element", three_element_tables(), False),
        ("scrambled", scrambled_tables(), True),
        ("sparse", sparse_tables(), True),
    )
    rng = random.Random(SEED)  # the closures' seeds and budgets
    for name, tables, graphs in batches:
        count = stopped = requotients = 0
        for g in tables:
            count += 1
            found = mismatch(g, graphs)
            if graphs and not found:
                found = order_mismatch(g) or round_trip_mismatch(g, document)
            if graphs and not found:
                found, k = closure_mismatch(g, rng)
                stopped += k
            if graphs and not found and check_property(g, Property.WORD_IDEMPOTENT, NR_BOUND).holds:
                requotients += 1
                found = requotient_mismatch(g)
            if found:
                print(f"mismatch in {name} table {count}: {found}")
                return 1
        extra = (
            ", natural orders with their audits, maximal and full elements, a document"
            " round trip, clique cover, components and 3 closures"
            if graphs
            else ""
        )
        print(
            f"{name}: {count} tables, {len(LAWS)} laws and NR at bound {NR_BOUND}{extra}"
            " each, all agree"
            + (
                f" ({stopped} closures stopped by the budget; {requotients} tables"
                " hold NR, and their re-quotient verdicts agree)"
                if graphs
                else ""
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
