#!/usr/bin/env python3
"""Search for counterexamples to two claims that rest on samples, not proofs.

1. Idempotence (I) and catenary associativity (CA) imply word idempotence
   (NR): every I and CA table holds NR at word bounds 2, 3 and 4.
2. Under CA the mutual-absorption quotient is stable: on every I and CA
   table that has a quotient, quotienting that quotient again changes
   nothing, at each of those bounds.

The tables are every idempotent partial table on three elements
(``tests/helpers.idempotent_tables``: 4,096 tables), then ``SAMPLE`` seeded
idempotent tables of four and five elements whose off-diagonal entries are
each defined with a probability drawn per table from ``DENSITIES``.  Only
the CA tables are kept, as ``tests/helpers.first_violations`` finds them.
NR comes from ``tests/helpers.first_nr_violation`` and the second quotient
from ``tests/helpers.requotient_oracle``, whose classes come from
``tests/helpers.absorption_oracle``; no library verdict is read.  The
search prints its counts and exits 0, or prints the first counterexample
and exits 1.

It takes a few minutes on one core, so it is not part of the test suite:

  PYTHONPATH=src python3 scripts/search_claims.py
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import (
    absorption_oracle,
    first_nr_violation,
    first_violations,
    idempotent_tables,
    random_groupoid,
    requotient_oracle,
)

BOUNDS = (2, 3, 4)
SAMPLE = 24_000
DENSITIES = (0.1, 0.2, 0.3, 0.5)
SEED = 2026


def tables():
    """``(batch, table)`` for every table searched, batch by batch."""
    for g in idempotent_tables():
        yield "three-element", g
    rng = random.Random(SEED)
    for _ in range(SAMPLE):
        yield "four-and-five", random_groupoid(
            rng, rng.choice((4, 5)), rng.choice(DENSITIES), idempotent=True
        )


def counterexample(g, kinds: Counter) -> str | None:
    """The first claim that the I and CA table ``g`` breaks, described, or
    None; ``g``'s kind of quotient is counted in ``kinds``."""
    word = first_nr_violation(g, max(BOUNDS))
    if word is not None:  # idempotence passes every word of length 1
        return f"I and CA without NR at bound {len(word)}: word {word}"
    law, classes = absorption_oracle(g)
    if law != "classes":
        kinds["no quotient"] += 1
        return None
    kinds["collapsing" if len(classes) < len(g) else "discrete"] += 1
    for bound in BOUNDS:
        holds, witness, detail = requotient_oracle(g, bound)
        if not holds:
            return f"unstable quotient at bound {bound}: {detail}, witness {witness}"
    return None


def main() -> int:
    searched, kept, kinds = Counter(), Counter(), Counter()
    for batch, g in tables():
        searched[batch] += 1
        if first_violations(g)["CA"] is not None:
            continue
        kept[batch] += 1
        found = counterexample(g, kinds)
        if found:
            print(f"counterexample in {batch} table {searched[batch]}: {found}")
            print(f"  elements {g.elements}, table {g.table}")
            return 1
    for batch, count in searched.items():
        print(f"{batch}: {count} idempotent tables, {kept[batch]} of them CA")
    bounds = ", ".join(map(str, BOUNDS))
    print(
        f"all {sum(kept.values())} I and CA tables hold NR at bounds {bounds};"
        f" {kinds['discrete']} have a discrete quotient, {kinds['collapsing']} a"
        f" collapsing one and {kinds['no quotient']} none, and every quotient"
        f" is stable at bounds {bounds}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
