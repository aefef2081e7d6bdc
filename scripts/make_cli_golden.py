#!/usr/bin/env python3
"""Regenerate tests/cli_golden.json: the CLI's stdout, stderr and exit code
on a fixed set of argument lists.

Each run is one in-process ``matchmerge.cli.run(argv)`` in a scratch
directory that holds a copy of fixtures/ and the documents in ``FILES``, with
``COLUMNS`` fixed so argparse wraps its help the same way everywhere.  A
deliberate output change shows up as a diff of the corpus.  The usage and
help text in it is the argparse of ``PYTHON``, which writes the corpus.

  PYTHONPATH=src python3 scripts/make_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from matchmerge import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_golden.json"
COLUMNS = "100"
PYTHON = (3, 11)

FIXTURES = [
    "chain12", "clicks", "leftzero2", "max10", "p1", "q2", "records",
    "records_two_clusters", "twoblock", "uchain12", "unit",
]
# the unsized built-ins and the default sizes repeat fixture documents, so
# they run two commands; the small sized ones run every command
BUILTINS = ["p1", "q2", "maxnat", "chain", "uchain", "twoblock", "leftzero2", "unit"]
SIZED = ["maxnat:4", "chain:5", "uchain:6"]

# Every subcommand and every er method; each runs in text and machine format.
SURFACE = [
    ["check"],
    ["check", "--nr-bound", "2"],
    ["closure"],
    ["closure", "--budget-elements", "3"],
    *(["er", "--method", m] for m in ("auto", "bruteforce", "full", "maximal", "rswoosh")),
    ["er", "--budget-elements", "3"],
    ["graph"],
    ["graph", "--components", "--clique-cover"],
    ["quotient"],
    ["order"],
    ["order", "--variant", "left"],
]


def _seeded_records(seed: int, n: int) -> dict:
    """``n`` records over two key attributes whose values collide."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        record = {"name": [rng.choice("abcd")]}
        if rng.random() < 0.4:
            record["mail"] = [f"m{rng.randint(1, 3)}"]
        record["note"] = [f"r{i}"]
        records.append(record)
    return {"key_attributes": ["name", "mail"], "records": records}


def _doc(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


FILES = {
    "docs/seeded2.json": _doc(_seeded_records(2, 7)),
    "docs/seeded6.json": _doc(_seeded_records(6, 7)),
    "docs/ordered.json": _doc(
        {
            "elements": ["u", "v"],
            "compositions": [["u", "u", "u"], ["v", "v", "v"]],
            "order": [["u", "u"], ["v", "v"]],
        }
    ),
    "docs/notorder.json": _doc(
        {
            "elements": ["p", "q"],
            "compositions": [["p", "p", "p"], ["p", "q", "p"], ["q", "p", "q"], ["q", "q", "q"]],
            "order": [["p", "q"], ["q", "p"]],
        }
    ),
    "docs/ids.json": _doc({"instance": ["a1", "a2"]}),
    "docs/recinst.json": _doc({"instance": [{"name": ["ann"], "mail": ["m9"]}]}),
    "docs/keyless_inst.json": _doc({"instance": [{"mail": ["m9"]}]}),
    "docs/outside.json": _doc({"instance": ["a1", "zz"]}),
    "bad/broken.json": b'{"elements": [,]}',
    "bad/array.json": b"[]",
    "bad/nokey.json": _doc({"elements": ["a"]}),
    "bad/unknown.json": _doc({"things": []}),
    "bad/outside.json": _doc({"elements": ["a"], "compositions": [["a", "b", "a"]]}),
    "bad/repeat.json": _doc(
        {"elements": ["a"], "compositions": [["a", "a", "a"], ["a", "a", "a"]]}
    ),
    "bad/keyless.json": _doc(
        {"key_attributes": ["name"], "records": [{"name": ["ann"]}, {"phone": ["9"]}]}
    ),
    "bad/values.json": _doc({"key_attributes": ["name"], "records": [{"name": "ann"}]}),
    "bad/empty_record.json": _doc({"key_attributes": ["name"], "records": [{}]}),
    "bad/not_utf8.json": b"\xff\xfe\x00\x00{}",
}

M = "--format", "machine"


def cases() -> list[list[str]]:
    runs = []
    inputs = [f"fixtures/{name}" for name in FIXTURES] + SIZED
    inputs.append("docs/seeded2")
    for spec in inputs:
        for command, *rest in SURFACE:
            runs.append([command, spec, *rest])
            runs.append([command, spec, *rest, *M])
    for spec in BUILTINS:
        for command in ("check", "er"):
            runs.append([command, spec])
            runs.append([command, spec, *M])
    for method in ("auto", "bruteforce", "full", "maximal", "rswoosh"):
        runs.append(["er", "docs/seeded6.json", "--method", method])
        runs.append(["er", "docs/seeded6.json", "--method", method, *M])
    runs += [["fixtures"], ["fixtures", *M]]
    # instances, documents with a user order, the dot file and path spellings
    runs += [
        ["closure", "chain:6", "--instance", "a1,a2"],
        ["closure", "chain:6", "--instance", ",a1,,a2,", *M],
        ["er", "chain:6", "--instance", "docs/ids"],
        ["er", "chain:6", "--instance", "docs/ids.json", *M],
        ["closure", "chain:6", "--instance", "docs/outside"],
        ["closure", "chain:6", "--instance", "a1,zz"],
        ["closure", "chain:6", "--instance", ","],
        ["er", "fixtures/records", "--instance", ",,"],
        ["er", "fixtures/records", "--instance", "docs/recinst"],
        ["er", "fixtures/records", "--instance", "docs/recinst", *M],
        ["er", "fixtures/records", "--instance", "docs/keyless_inst"],
        ["er", "p1", "--instance", "docs/recinst"],
        ["er", "fixtures/records", "--instance", '{"name":["ann"]}'],
        [
            "er", "fixtures/records", "--instance",
            '{"mail":["m1"],"name":["ann"]},{"name":["ann"],"phone":["p1"]}',
        ],
        ["order", "docs/ordered"],
        ["order", "docs/ordered", *M],
        ["order", "docs/notorder"],
        ["order", "docs/notorder", *M],
        ["graph", "p1", "--dot", "out.dot"],
        ["graph", "p1", "--dot", "out.dot", *M],
        ["graph", "p1", "--dot", "nodir/out.dot"],
        ["check", "fixtures/p1.json"],
        ["check", "./fixtures/p1"],
        ["check", "fixtures//p1.json"],
        ["check", "fixtures/p1.json/"],
        ["check", "fixtures/p1/"],
        ["check", "fixtures/"],
        ["check", "fixtures"],
        ["check", "MAXNAT:3"],
    ]
    # load errors
    for spec in (
        "no/such/file", "nosuch", "chain:2", "uchain:0", "maxnat:0", "maxnat:-1",
        "maxnat:huge", "maxnat:", "p1:3", "", *(f"bad/{name}" for name in sorted(
            Path(name).stem for name in FILES if name.startswith("bad/")
        )),
    ):
        runs.append(["check", spec])
        runs.append(["er", spec, *M])
    # argparse: help, usage errors and option spellings
    runs += [
        [], ["-h"], ["--help"], ["-h", "check"], ["frobnicate"], ["frobnicate", "p1"],
        ["--format", "machine", "check", "p1"], ["--", "check", "p1"],
        *([command, "-h"] for command in
          ("check", "closure", "er", "graph", "quotient", "order", "fixtures")),
        ["check", "p1", "-h"], ["check", "p1", "--he"],
        ["check"], ["check", "p1", "extra"], ["check", "p1", "--bogus"],
        ["check", "p1", "--bogus", "x", "y"], ["fixtures", "p1"],
        ["check", "p1", "--form", "machine"], ["check", "p1", "--format=machine"],
        ["check", "p1", "--nr=2"], ["check", "p1", "--nr-bound", "0"],
        ["quotient", "p1", "--nr-bound", "x"], ["check", "p1", "--format", "json"],
        ["er", "p1", "--method", "nope"], ["er", "p1", "--method"],
        ["closure", "p1", "--budget-elements", "0"], ["closure", "p1", "--budget-rounds=-4"],
        ["closure", "p1", "--budget", "3"], ["check", "--", "p1"], ["check", "p1", "--"],
        ["check", "--", "--format"], ["graph", "p1", "--comp", "--cl"],
        ["check", "--format", "machine", "p1"],
    ]
    return runs


def replay(runs, workdir: Path) -> list[dict]:
    """Run each argument list in ``workdir``; one record per run."""
    shutil.copytree(ROOT / "fixtures", workdir / "fixtures")
    for name, content in FILES.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        records = []
        with mock.patch.dict(os.environ, COLUMNS=COLUMNS):
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(list(argv))
                records.append(
                    {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
                )
        return records
    finally:
        os.chdir(here)


def main() -> None:
    if sys.version_info[:2] != PYTHON:
        sys.exit(f"write the corpus with Python {'.'.join(map(str, PYTHON))}")
    with tempfile.TemporaryDirectory() as workdir:
        records = replay(cases(), Path(workdir))
    CORPUS.write_text(
        "[\n" + ",\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n]\n",
        encoding="utf-8",
    )
    print(f"wrote {len(records)} runs to {CORPUS}")


if __name__ == "__main__":
    main()
