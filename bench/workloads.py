"""Seeded inputs, known answers and job lists for the benchmark workloads.

A workload is a fixed list of jobs.  A job is one CLI call
(``matchmerge.cli.run(argv)`` in process) or one library call, plus a check
of its result against an answer known without matchmerge: from how the input
was built (dense families, record clusters) or from the plain-definition
oracle in ``oracle.py`` (sparse tables).  Answers are computed here, before
any timing starts.

The seed picks labels, carrier order, random table entries and record order;
sizes and structure are fixed per workload, so every seed costs about the
same.  ``smoke`` shrinks every workload to a handful of tiny jobs.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

VARIANTS = ("left", "right", "both")
ALL_TRUE = {p: True for p in oracle.PROPERTIES}


@dataclass
class Job:
    """One timed call.  ``expect(exit_code, result)`` returns None when the
    result is right, else a one-line reason."""

    kind: str
    doc: str
    expect: Callable[[int, object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


@dataclass
class Table:
    """An explicit groupoid plus its known answers."""

    elements: list[str]
    table: dict
    verdicts: dict
    classes: list[list[str]] | None = None  # mutual-absorption classes
    rep_table: dict | None = None  # quotient table on representatives
    orders: dict = field(default_factory=dict)  # variant -> (pairs, laws, maximal)
    full: dict = field(default_factory=dict)  # side -> full elements


def _labels(rng: random.Random, count: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        token = "".join(rng.choices(string.ascii_lowercase, k=6))
        if token not in seen:
            seen.add(token)
            out.append(token)
    return out


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _groupoid_doc(t: Table) -> dict:
    return {
        "elements": t.elements,
        "compositions": sorted([x, y, v] for (x, y), v in t.table.items()),
    }


# -- dense families: every answer follows from the construction ---------------


def _singleton_answers(elements, table, below, top) -> Table:
    """A total semilattice: every axiom holds, classes are singletons, the
    three natural orders are ``below``, and ``top`` is the only maximal and
    full element."""
    return Table(
        elements,
        table,
        dict(ALL_TRUE),
        classes=[[e] for e in elements],
        rep_table=table,
        orders={v: (below, (True, True, True), [top]) for v in VARIANTS},
        full={s: [top] for s in VARIANTS},
    )


def maxnat(n: int, rng: random.Random) -> Table:
    """Total max on n ranked labels, carrier order shuffled."""
    labels = _labels(rng, n)
    rank = {e: i for i, e in enumerate(labels)}
    elements = labels[:]
    rng.shuffle(elements)
    table = {(x, y): x if rank[x] >= rank[y] else y for x in elements for y in elements}
    below = {(p, q) for p in elements for q in elements if rank[p] <= rank[q]}
    return _singleton_answers(elements, table, below, labels[-1])


def union_family(n: int, rng: random.Random) -> Table:
    """n subsets of an 8-item universe, closed under union; x y = x | y."""
    family: set[frozenset] = set()
    while len(family) < n:
        s = frozenset(rng.sample(range(8), rng.randint(1, 3)))
        family |= {s} | {s | f for f in family}
    while len(family) > n:
        # A minimal member is never the union of two others, so dropping it
        # keeps the family union-closed.
        minimal = sorted(
            (f for f in family if not any(g < f for g in family)), key=sorted
        )
        family.discard(rng.choice(minimal))
    members = sorted(family, key=lambda f: (len(f), sorted(f)))
    labels = dict(zip(members, _labels(rng, n)))
    name = {f: labels[f] for f in members}
    sets = {labels[f]: f for f in members}
    elements = [name[f] for f in members]
    rng.shuffle(elements)
    table = {(x, y): name[sets[x] | sets[y]] for x in elements for y in elements}
    below = {(p, q) for p in elements for q in elements if sets[p] <= sets[q]}
    return _singleton_answers(elements, table, below, name[members[-1]])


def left_zero_chain(n: int, rng: random.Random) -> Table:
    """Ordinal sum of left-zero bands: blocks of sizes 1, 2, 3, ... stacked
    in levels; x y = x within a block, else the operand on the higher level.
    A band, so every axiom but C and SC holds; the blocks are the
    mutual-absorption classes and the quotient is the chain of levels."""
    sizes, total, k = [], 0, 0
    while total < n:
        size = min(1 + k % 3, n - total)
        sizes.append(size)
        total += size
        k += 1
    labels = _labels(rng, n)
    level, blocks, start = {}, [], 0
    for lvl, size in enumerate(sizes):
        block = labels[start : start + size]
        blocks.append(block)
        level.update((e, lvl) for e in block)
        start += size
    elements = labels[:]
    rng.shuffle(elements)
    pos = {e: i for i, e in enumerate(elements)}
    table = {
        (x, y): x if level[x] >= level[y] else y for x in elements for y in elements
    }
    wide = any(len(b) > 1 for b in blocks)
    verdicts = dict(ALL_TRUE, C=not wide, SC=not wide)
    classes = sorted((sorted(b, key=pos.get) for b in blocks), key=lambda c: pos[c[0]])
    rep = {e: c[0] for c in classes for e in c}
    reps = [c[0] for c in classes]
    rep_table = {(x, y): rep[table[(x, y)]] for x in reps for y in reps}
    strict = {
        (p, q) for p in elements for q in elements if p == q or level[p] < level[q]
    }
    weak = {(p, q) for p in elements for q in elements if level[p] <= level[q]}
    top = sorted(blocks[-1], key=pos.get)
    left_full = top if len(top) == 1 else []
    return Table(
        elements,
        table,
        verdicts,
        classes=classes,
        rep_table=rep_table,
        orders={
            "right": (strict, (True, True, True), top),
            "both": (strict, (True, True, True), top),
            "left": (weak, (True, not wide, True), top),
        },
        full={"left": left_full, "right": top, "both": left_full},
    )


# -- sparse tables: answers from the plain-definition oracle ------------------


def _oracle_answers(elements, table, nr_bound: int) -> Table:
    t = Table(elements, table, oracle.verdicts(elements, table, nr_bound))
    for v in VARIANTS:
        pairs = oracle.natural_pairs(elements, table, v)
        t.orders[v] = (
            pairs,
            oracle.order_laws(elements, pairs),
            oracle.maximal(elements, pairs),
        )
        t.full[v] = oracle.full(elements, table, v)
    return t


def successor_chain(n: int, rng: random.Random, loops: bool) -> Table:
    """e_i e_{i+1} = e_{i+2}, optionally with idempotent loops."""
    elements = _labels(rng, n)
    table = {(elements[i], elements[i + 1]): elements[i + 2] for i in range(n - 2)}
    if loops:
        table.update({(e, e): e for e in elements})
    return _oracle_answers(elements, table, 3)


def random_sparse(n: int, rng: random.Random) -> Table:
    """Idempotent table where a quarter of the elements are sinks (loop only)
    and each source composes with 1 to 3 other sources into a random sink."""
    labels = _labels(rng, n)
    sinks, sources = labels[: n // 4], labels[n // 4 :]
    table = {(e, e): e for e in labels}
    for x in sources:
        for y in rng.sample(sources, rng.randint(1, 3)):
            if y != x:
                table[(x, y)] = rng.choice(sinks)
    elements = labels[:]
    rng.shuffle(elements)
    return _oracle_answers(elements, table, 2)


# -- checks of CLI machine output ---------------------------------------------


def _cli_json(code: int, out: str):
    """Every benchmark job expects success, so exit code 0."""
    if code != 0:
        raise _Mismatch(f"exit code {code}, expected 0")
    return json.loads(out)


class _Mismatch(Exception):
    pass


def _checked(check):
    """Turn a check that raises _Mismatch (or fails to parse) into an
    ``expect`` callable returning the reason."""

    def expect(code, result):
        try:
            check(code, result)
        except _Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable result: {exc!r}"
        return None

    return expect


def _same(label, got, want):
    if got != want:
        raise _Mismatch(f"{label}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def expect_check(t: Table):
    def check(code, out):
        data = _cli_json(code, out)
        got = {p["property"]: p["holds"] for p in data["properties"]}
        _same("verdicts", got, t.verdicts)
        v = t.verdicts
        _same("is_icar", data["is_icar"], v["I"] and v["SC"] and v["A"] and v["R"])
        _same("CA flag", data["is_partial_semigroup_ca"], v["CA"])
        _same("implication violations", data["implication_violations"], [])

    return _checked(check)


def expect_quotient(t: Table, bound: int):
    reps = [c[0] for c in t.classes]
    doc = {
        "elements": reps,
        "compositions": sorted([x, y, v] for (x, y), v in t.rep_table.items()),
    }

    def check(code, out):
        data = _cli_json(code, out)
        _same("word bound", data["word_bound"], bound)
        _same("classes", data["classes"], t.classes)
        _same("representatives", data["representatives"], reps)
        _same("quotient", data["quotient"], doc)
        _same("stable", data["stable_under_requotient"], True)
        _same("classes are semigroups", data["classes_are_semigroups"], True)

    return _checked(check)


def expect_order(t: Table):
    def check(code, out):
        data = _cli_json(code, out)
        for v in VARIANTS:
            pairs, laws, maximal = t.orders[v]
            got = data["natural"][v]
            _same(f"{v} pairs", {tuple(p) for p in got["pairs"]}, pairs)
            _same(
                f"{v} laws",
                (got["reflexive"], got["antisymmetric"], got["transitive"]),
                laws,
            )
            _same(f"{v} maximal", got["maximal"], maximal)
            _same(f"{v} full", data["full"][v], t.full[v])

    return _checked(check)


def expect_graph(t: Table):
    symmetric = t.verdicts["S"]
    total = len(t.table) == len(t.elements) ** 2 if symmetric else None
    comps = oracle.components(t.elements, t.table)
    edges = sorted([x, y] for x, y in t.table)

    def check(code, out):
        data = _cli_json(code, out)
        _same("nodes", data["nodes"], sorted(t.elements))
        _same("edges", data["edges"], edges)
        _same("total", data["total"], total)
        _same("components", sorted(data["components"]), comps)
        if not oracle.valid_clique_cover(t.elements, t.table, data["cliques"]):
            raise _Mismatch("clique cover misses a node or edge, or misreports a clique")

    return _checked(check)


def expect_table_closure(t: Table, instance: list[str]):
    want = sorted(oracle.closure(t.table, instance))

    def check(code, out):
        data = _cli_json(code, out)
        _same("status", data["status"], "closed")
        _same("carrier", data["carrier"], want)

    return _checked(check)


# -- records: answers by union-find and connected-subset counting ------------


@dataclass
class Records:
    path: str
    keys: list[str]
    closure: list[str]
    resolved: list[str]


def record_clusters(n: int, rng: random.Random, blocks) -> tuple[dict, list[dict]]:
    """``n`` records in clusters; the records of a cluster share a name value.
    Cluster sizes cycle through ``blocks``: a block of one size is a lone
    cluster, a block of two sizes is two clusters plus one bridge record that
    carries both names.  Every record also has a unique ``src`` marker, so
    every union of records is a distinct element."""
    names = iter(_labels(rng, n + 1))
    markers = _labels(rng, n)
    cities = _labels(rng, 8)
    records: list[dict] = []
    k = 0
    while len(records) < n:
        block = blocks[k % len(blocks)]
        k += 1
        block_names = []
        for size in block:
            block_names.append(next(names))
            records.extend({"name": {block_names[-1]}} for _ in range(size))
        if len(block) == 2:
            records.append({"name": set(block_names)})
    records = records[:n]
    for record, marker in zip(records, markers):
        record["src"] = {marker}
        record["city"] = {rng.choice(cities)}
    rng.shuffle(records)
    doc = {
        "key_attributes": ["name"],
        "records": [{k: sorted(v) for k, v in sorted(r.items())} for r in records],
    }
    return doc, records


def make_records(workdir, name, n, rng) -> Records:
    doc, records = record_clusters(n, rng, RECORD_BLOCKS)
    keys = doc["key_attributes"]
    return Records(
        _write(workdir, name, doc),
        keys,
        oracle.closure_ids(records, keys),
        oracle.resolved_ids(records, keys),
    )


def expect_er(r: Records, method: str, note: str = ""):
    trail = [f"{note} -> {method}"] if note else []

    def check(code, out):
        data = _cli_json(code, out)
        _same("closure status", data["closure"]["status"], "closed")
        _same("closure", data["closure"]["carrier"], r.closure)
        _same("method", data["method"], method)
        _same("decision trail", data["decision_trail"], trail)
        _same("resolved", data["resolved"], r.resolved)

    return _checked(check)


def expect_table_er(t: Table):
    top = t.orders["both"][2]

    def check(code, out):
        data = _cli_json(code, out)
        _same("closure", data["closure"]["carrier"], sorted(t.elements))
        _same("method", data["method"], "rswoosh")
        _same("decision trail", data["decision_trail"], ["ICAR verified -> rswoosh"])
        _same("resolved", data["resolved"], top)

    return _checked(check)


def expect_records_closure(r: Records):
    def check(code, out):
        data = _cli_json(code, out)
        _same("status", data["status"], "closed")
        _same("carrier", data["carrier"], r.closure)

    return _checked(check)


def expect_rswoosh(r: Records):
    def check(code, result):
        _same("method", result.method, "rswoosh")
        _same("resolved", list(result.resolved), r.resolved)

    return _checked(check)


def library_rswoosh(path: str):
    """Load a records document and resolve it with R-Swoosh, through the
    public API, looking each function up at call time."""
    from matchmerge import adapters, documents, resolution

    def call():
        doc = documents.load_records(path)
        return resolution.r_swoosh(adapters.record_groupoid(doc.key_attributes), doc.records)

    return call


# -- workloads ----------------------------------------------------------------

M = "--format", "machine"

# Each table is (n, jobs): "c" check, "q" quotient, "o" order.  Every job
# stays short, so a run times each job many times (see run.py).
DENSE = {
    "full": {
        "families": ("maxnat", "union", "lzchain"),
        "tables": (
            (3, "cqo"), (3, "cqo"), (3, "co"), (3, "co"), (4, "cqo"), (4, "co"),
            (4, "co"), (5, "co"), (5, "co"), (6, "co"), (6, "co"), (7, "co"),
            (8, "o"), (9, "o"), (10, "o"), (11, "o"), (12, "o"), (13, "o"), (14, "o"),
        ),
    },
    "smoke": {"families": ("maxnat", "union", "lzchain"), "tables": ((4, "cqo"),)},
}

SPARSE = {
    "full": {
        "docs": (
            ("uchain", 48), ("chain", 44), ("uchain", 40), ("chain", 36),
            ("uchain", 32), ("uchain", 28), ("chain", 24),
            ("random", 40), ("random", 36), ("random", 32), ("random", 28),
            ("random", 24), ("random", 20),
        ),
    },
    "smoke": {"docs": (("uchain", 6), ("chain", 6), ("random", 8))},
}

RECORDS = {
    "full": {
        "rswoosh_lib": (150, 300),
        "closure": (16, 24),
        "er_full": (16, 24),
        "er_maximal": (10, 20),
        "er_rswoosh": (16, 24),
        "er_auto": (6, 8),
        "er_auto_table": (("maxnat", 4), ("union", 4), ("maxnat", 5), ("union", 5)),
        "small": 86,
    },
    "smoke": {
        "rswoosh_lib": (12,),
        "closure": (8,),
        "er_full": (8,),
        "er_maximal": (8,),
        "er_rswoosh": (8,),
        "er_auto": (6,),
        "er_auto_table": (("maxnat", 4),),
        "small": 2,
    },
}

# Per cycle of 21 records: 16 share a name with another record (a 76% key
# collision rate), 1 bridges two clusters, and the closure has 55 elements.
RECORD_BLOCKS = ((1,), (1,), (2,), (1,), (3,), (2, 2), (1,), (4,), (1,), (2,))


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def audit_dense(seed: int, workdir: Path, scale: str = "full") -> list[Job]:
    spec = DENSE[scale]
    build = {"maxnat": maxnat, "union": union_family, "lzchain": left_zero_chain}
    jobs = []
    for family in spec["families"]:
        for i, (n, kinds) in enumerate(spec["tables"]):
            name = f"{family}-{n}-{i}"
            t = build[family](n, _rng(seed, name))
            path = _write(workdir, name, _groupoid_doc(t))
            if "c" in kinds:
                jobs.append(
                    Job("check", name, expect_check(t), ["check", path, "--nr-bound", "3", *M])
                )
            if "q" in kinds:
                jobs.append(
                    Job("quotient", name, expect_quotient(t, 3),
                        ["quotient", path, "--nr-bound", "3", *M])
                )
            if "o" in kinds:
                jobs.append(Job("order", name, expect_order(t), ["order", path, *M]))
    return jobs


def audit_sparse(seed: int, workdir: Path, scale: str = "full") -> list[Job]:
    jobs = []
    for i, (family, n) in enumerate(SPARSE[scale]["docs"]):
        name = f"{family}-{n}-{i}"
        rng = _rng(seed, name)
        if family == "random":
            t = random_sparse(n, rng)
            bound = 2
            sources = [e for e in t.elements if any((e, y) in t.table for y in t.elements if y != e)]
            instances = [sources[:4], sources[-8:], sources[4:20], sources[20:26], sources[-3:]]
        else:
            t = successor_chain(n, rng, loops=family == "uchain")
            bound = 3
            e = t.elements
            instances = [
                e[:2], e[n // 4 : n // 4 + 2], e[n // 2 : n // 2 + 2],
                e[3 * n // 4 : 3 * n // 4 + 3], [e[n // 3], e[2 * n // 3]],
            ]
        instances = [inst for inst in instances if inst]
        path = _write(workdir, name, _groupoid_doc(t))
        jobs.append(
            Job("check", name, expect_check(t), ["check", path, "--nr-bound", str(bound), *M])
        )
        jobs.append(
            Job("graph", name, expect_graph(t),
                ["graph", path, "--components", "--clique-cover", *M])
        )
        jobs.append(Job("order", name, expect_order(t), ["order", path, *M]))
        for inst in instances:
            jobs.append(
                Job("closure", name, expect_table_closure(t, inst),
                    ["closure", path, "--instance", ",".join(inst), *M])
            )
    return jobs


def resolve_records(seed: int, workdir: Path, scale: str = "full") -> list[Job]:
    spec = RECORDS[scale]
    jobs = []

    def doc(kind, n, i=0):
        name = f"records-{kind}-{n}-{i}"
        return make_records(workdir, name, n, _rng(seed, name))

    for n in spec["rswoosh_lib"]:
        r = doc("lib", n)
        jobs.append(Job("rswoosh-lib", f"records-{n}", expect_rswoosh(r), call=library_rswoosh(r.path)))
    for n in spec["closure"]:
        r = doc("closure", n)
        jobs.append(Job("closure", f"records-{n}", expect_records_closure(r), ["closure", r.path, *M]))
    for method, resolved_by, note in (
        ("full", "full", ""),
        ("maximal", "maximal", ""),
        ("rswoosh", "rswoosh", ""),
        ("auto", "rswoosh", "ICAR verified"),
    ):
        for n in spec[f"er_{method}"]:
            r = doc(method, n)
            jobs.append(
                Job(f"er-{method}", f"records-{n}", expect_er(r, resolved_by, note),
                    ["er", r.path, "--method", method, *M])
            )
    # On an explicit table the auto method verifies ICAR on the closure, then
    # r_swoosh verifies it again; a semilattice resolves to its top element.
    for family, n in spec["er_auto_table"]:
        name = f"{family}-{n}"
        t = {"maxnat": maxnat, "union": union_family}[family](n, _rng(seed, name))
        path = _write(workdir, name, _groupoid_doc(t))
        jobs.append(
            Job("er-auto-table", name, expect_table_er(t), ["er", path, "--method", "auto", *M])
        )
    # Many small documents: parsing and output formatting show in p50.
    for i in range(spec["small"]):
        n = 4 + i % 5
        r = doc("small", n, i)
        if i % 2 == 0:
            job = Job("closure", f"records-{n}-{i}", expect_records_closure(r),
                      ["closure", r.path, *M])
        else:
            job = Job("er-full", f"records-{n}-{i}", expect_er(r, "full"),
                      ["er", r.path, "--method", "full", *M])
        jobs.append(job)
    return jobs


WORKLOADS = {
    "audit-dense": audit_dense,
    "audit-sparse": audit_sparse,
    "resolve-records": resolve_records,
}
