"""Tests of the benchmark itself: deterministic inputs, known answers that
agree with brute force at tiny sizes, the tracer, and smoke mode.

  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- inputs --------------------------------------------------------------------


def _documents(tmp_path, name, seed, scale):
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    workloads.WORKLOADS[name](seed, workdir, scale)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_documents(tmp_path, name):
    first = _documents(tmp_path, name, 7, "full")
    assert first == _documents(tmp_path, name, 7, "full")
    assert first != _documents(tmp_path, name, 8, "full")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_has_at_least_100_jobs(tmp_path, name):
    assert len(workloads.WORKLOADS[name](1, tmp_path)) >= 100


# -- brute force ------------------------------------------------------------------


def _groupings(word, table):
    """Every grouping tree of a word, evaluated; undefined ones drop out."""
    if len(word) == 1:
        return {word[0]}
    out = set()
    for k in range(1, len(word)):
        for y in _groupings(word[:k], table):
            for z in _groupings(word[k:], table):
                if (y, z) in table:
                    out.add(table[(y, z)])
    return out


def brute_verdicts(elements, table, bound):
    """Every axiom over all pairs, triples and words, straight from the
    definitions, with no shortcut for undefined entries."""
    g = table.get
    pairs = list(product(elements, repeat=2))
    triples = list(product(elements, repeat=3))
    v = {
        "S": all(((x, y) in table) == ((y, x) in table) for x, y in pairs),
        "I": all(g((e, e)) == e for e in elements),
        "C": all(g((x, y)) is None or g((y, x)) is None or g((x, y)) == g((y, x))
                 for x, y in pairs),
    }
    v["SC"] = v["S"] and v["C"]
    v["Rl"] = all(
        not ((a, b) in table and (c, a) in table) or (c, table[(a, b)]) in table
        for a, b, c in triples
    )
    v["Rr"] = all(
        not ((a, b) in table and (b, c) in table) or (table[(a, b)], c) in table
        for a, b, c in triples
    )
    v["R"] = v["Rl"] and v["Rr"]

    def groupings(a, b, c):
        ab, bc = g((a, b)), g((b, c))
        return (None if ab is None else g((ab, c))), (None if bc is None else g((a, bc)))

    v["A"] = all(
        None in groupings(*t) or groupings(*t)[0] == groupings(*t)[1] for t in triples
    )
    v["CA"] = all(
        g(t[:2]) is None or g(t[1:]) is None
        or (None not in groupings(*t) and groupings(*t)[0] == groupings(*t)[1])
        for t in triples
    )
    v["SA"] = all(groupings(*t)[0] == groupings(*t)[1] for t in triples)
    words = [w for k in range(1, bound + 1) for w in product(elements, repeat=k)]
    v["NR"] = all(
        not _groupings(w, table) or _groupings(w + w, table) == _groupings(w, table)
        for w in words
    )
    return v


def random_table(rng, n):
    elements = [f"e{i}" for i in range(n)]
    density = rng.uniform(0.1, 0.9)
    table = {
        (x, y): rng.choice(elements)
        for x in elements
        for y in elements
        if rng.random() < density
    }
    return elements, table


def test_oracle_verdicts_match_brute_force_on_random_tables():
    rng = random.Random(2024)
    for _ in range(300):
        elements, table = random_table(rng, rng.randint(1, 4))
        bound = rng.choice((2, 3))
        assert oracle.verdicts(elements, table, bound) == brute_verdicts(
            elements, table, bound
        ), (elements, table, bound)


def absorption_classes(elements, table) -> list[list[str]]:
    """Classes of p ~ q iff the word products p q p = {p} and q p q = {q},
    each in carrier order, listed by their first member."""
    classes, seen = [], set()
    for p in elements:
        if p in seen:
            continue
        cls = [
            q
            for q in elements
            if oracle.word_products(table, (p, q, p)) == {p}
            and oracle.word_products(table, (q, p, q)) == {q}
        ]
        seen.update(cls)
        classes.append(cls)
    return classes


def _brute_orders(t):
    for side in workloads.VARIANTS:
        pairs = set()
        for p, q in product(t.elements, repeat=2):
            right, left = t.table.get((p, q)) == q, t.table.get((q, p)) == q
            if {"right": right, "left": left, "both": right and left}[side]:
                pairs.add((p, q))
        assert t.orders[side][0] == pairs
        reflexive = all((e, e) in pairs for e in t.elements)
        antisymmetric = all(p == q or (q, p) not in pairs for p, q in pairs)
        transitive = all(
            (p, r) in pairs for p, q in pairs for q2, r in pairs if q == q2
        )
        assert t.orders[side][1] == (reflexive, antisymmetric, transitive)
        assert t.orders[side][2] == [
            m for m in t.elements
            if all((n, m) in pairs for n in t.elements if (m, n) in pairs)
        ]
        absorbs = {
            "left": lambda p: all(t.table.get((x, p), p) == p for x in t.elements),
            "right": lambda p: all(t.table.get((p, x), p) == p for x in t.elements),
        }
        expected_full = [
            p for p in t.elements
            if (side == "right" or absorbs["left"](p))
            and (side == "left" or absorbs["right"](p))
        ]
        assert t.full[side] == expected_full


@pytest.mark.parametrize("build", [workloads.maxnat, workloads.union_family,
                                   workloads.left_zero_chain])
def test_dense_constructions_agree_with_brute_force(build):
    for n in range(1, 8):
        for seed in range(3):
            t = build(n, random.Random(seed))
            assert t.verdicts == brute_verdicts(t.elements, t.table, 3)
            assert t.classes == absorption_classes(t.elements, t.table)
            rep = {e: cls[0] for cls in t.classes for e in cls}
            assert t.rep_table == {
                (rep[x], rep[y]): rep[v] for (x, y), v in t.table.items()
            }
            _brute_orders(t)


def test_sparse_answers_agree_with_brute_force():
    for n in range(3, 9):
        for seed in range(3):
            rng = random.Random(seed)
            for t, bound in (
                (workloads.successor_chain(n, rng, loops=False), 3),
                (workloads.successor_chain(n, rng, loops=True), 3),
                (workloads.random_sparse(n + 4, rng), 2),
            ):
                assert t.verdicts == brute_verdicts(t.elements, t.table, bound)
                _brute_orders(t)


def _brute_closure(table, seeds):
    members = set(seeds)
    while True:
        new = {table[(x, y)] for x in members for y in members if (x, y) in table}
        if new <= members:
            return members
        members |= new


def test_table_closure_and_components_match_brute_force():
    rng = random.Random(5)
    for _ in range(100):
        elements, table = random_table(rng, rng.randint(1, 6))
        seeds = rng.sample(elements, rng.randint(1, len(elements)))
        assert oracle.closure(table, seeds) == _brute_closure(table, seeds)
        linked = {e: {e} for e in elements}
        for x, y in table:
            merged = linked[x] | linked[y]
            for e in merged:
                linked[e] = merged
        assert oracle.components(elements, table) == sorted(
            sorted(c) for c in {frozenset(c) for c in linked.values()}
        )


def _as_key(record):
    return tuple(sorted((k, tuple(sorted(v))) for k, v in record.items()))


def test_record_answers_match_brute_force_closure():
    for n in range(1, 13):
        for seed in range(3):
            _, records = workloads.record_clusters(
                n, random.Random(seed), workloads.RECORD_BLOCKS
            )
            keys = ["name"]
            # Close under merge-when-a-key-value-is-shared, pair by pair.
            items = {_as_key(r): r for r in records}
            while True:
                fresh = {}
                for a, b in combinations(list(items.values()), 2):
                    if any(set(a.get(k, ())) & set(b.get(k, ())) for k in keys):
                        m = oracle.union([a, b])
                        if _as_key(m) not in items:
                            fresh[_as_key(m)] = m
                if not fresh:
                    break
                items.update(fresh)
            closure = sorted(oracle.canonical_id(r) for r in items.values())
            assert oracle.closure_ids(records, keys) == closure

            def below(a, b):
                return a is not b and all(set(v) <= set(b.get(k, ())) for k, v in a.items())

            top = [r for r in items.values() if not any(below(r, o) for o in items.values())]
            assert oracle.resolved_ids(records, keys) == sorted(
                oracle.canonical_id(r) for r in top
            )


# -- tracer and smoke mode --------------------------------------------------------


def test_tracer_reports_every_per_layer_metric_and_restores_originals(tmp_path):
    from matchmerge import cli, properties

    original = properties.property_report
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.property_report is not original
        for name, build in workloads.WORKLOADS.items():
            workdir = tmp_path / name
            workdir.mkdir()
            for job in build(3, workdir, "smoke"):
                _, reason = run.timed_job(cli, job)
                assert reason is None, (job.kind, job.doc, reason)
    finally:
        tracer.uninstall()
    assert cli.property_report is original
    metrics = tracer.layer_metrics(1)
    metrics["trace.overhead_s"] = (0.0, "s")
    assert {m["name"] for m in declared} == set(metrics)
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert metrics["documents.load_calls"][0] > 0
    assert metrics["adapters.match_calls"][0] > 0
    assert metrics["quotient.quotient_calls"][0] == 3 * 3  # three per quotient job


def test_smoke_mode_runs_every_job_kind():
    assert run.main(["--smoke"]) == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "audit-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
