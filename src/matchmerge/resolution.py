"""Merge closure of instances and the entity-resolution methods.

An instance is just its members: element ids of an explicit groupoid, or
values of a black-box one.  Its merge closure is the subgroupoid [I] it
generates, so ``merge_closure`` is ``generated_subgroupoid``; members with
equal keys count once.  Four routes from the closure to a resolved set,
ordered by how much they assume:

* ``er_bruteforce`` — subset scan straight from the definition of a minimal
  dominating subset; exponential, guarded, the oracle the others are
  compared against.
* ``er_full`` — full elements of the closure; assumes nothing.
* ``er_maximal`` — maximal elements under the natural order; requires
  idempotence and catenary associativity.
* ``r_swoosh`` — the record-at-a-time worklist resolver; requires the
  idempotent/strongly-commutative/associative/representative package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BudgetExhaustedError,
    HypothesesNotSatisfiedError,
    IcarViolationError,
    SizeGuardError,
)
from .groupoid import (
    BlackBoxGroupoid,
    Budget,
    ClosureResult,
    ElementId,
    FiniteGroupoid,
    _closed_groupoid,
    _feature_tuple,
    _keyed_members,
    generated_subgroupoid,
)
from .order import OrderVariant, full_elements, maximal_elements, natural_order
from .properties import ICAR, Property, check_property

BRUTEFORCE_CARRIER_GUARD = 20


@dataclass(frozen=True)
class ERResult:
    method: str
    resolved: tuple[ElementId, ...]
    certificate: str = ""

    def as_set(self) -> frozenset[ElementId]:
        return frozenset(self.resolved)


# The merge closure of an instance I is the subgroupoid [I] it generates.
merge_closure = generated_subgroupoid


def _require(g: FiniteGroupoid, laws, requirement: str):
    """Raise ``HypothesesNotSatisfiedError`` with the failing verdicts of
    ``laws`` on ``g``, in the order given, unless every law holds."""
    failing = [v for v in (check_property(g, p) for p in laws) if not v.holds]
    if failing:
        names = ", ".join(str(v.property) for v in failing)
        raise HypothesesNotSatisfiedError(f"{requirement}; failing: {names}", failing)


def er_bruteforce(closure: ClosureResult) -> ERResult:
    """Minimal dominating subset of the closure, by exhaustive subset scan.

    Scans subsets in increasing cardinality and returns the first that
    dominates the whole carrier; the scan of the winning cardinality
    continues so non-uniqueness can be reported instead of silently picking
    one.  Guarded to small carriers: this is an oracle, not a production
    path.
    """
    g = _closed_groupoid(closure)
    carrier = g.elements
    if len(carrier) > BRUTEFORCE_CARRIER_GUARD:
        raise SizeGuardError(
            f"carrier has {len(carrier)} elements (guard {BRUTEFORCE_CARRIER_GUARD});"
            " use er_maximal instead"
        )
    above = {e: set() for e in carrier}
    for e, q in natural_order(g, OrderVariant.BOTH).pairs:
        above[e].add(q)
    for k in range(1, len(carrier) + 1):
        found = []
        for combo in itertools.combinations(carrier, k):
            members = frozenset(combo)
            if all(above[e] & members for e in carrier):
                found.append(combo)
        if found:
            if len(found) == 1:
                cert = f"unique minimal dominating subset (size {k})"
            else:
                cert = (
                    f"{len(found)} minimal dominating subsets of size {k};"
                    " resolution is not unique on this input"
                )
            return ERResult("bruteforce", tuple(sorted(found[0])), cert)
    return ERResult("bruteforce", (), "no dominating subset exists")


def er_full(closure: ClosureResult) -> ERResult:
    """Full elements of the closure; no hypotheses needed."""
    g = _closed_groupoid(closure)
    resolved = tuple(sorted(full_elements(g, OrderVariant.BOTH)))
    return ERResult("full", resolved, "left-and-right full elements of the closure")


def er_maximal(closure: ClosureResult) -> ERResult:
    """Maximal elements of the closure under the natural two-sided order.

    Refuses to run unless idempotence and catenary associativity hold, since
    those are what make the natural order reflexive and transitive.
    """
    g = _closed_groupoid(closure)
    laws = (Property.IDEMPOTENT, Property.CATENARY_ASSOCIATIVE)
    _require(g, laws, "er_maximal requires I and CA")
    resolved = tuple(sorted(maximal_elements(g, OrderVariant.BOTH)))
    return ERResult("maximal", resolved, "maximal elements under the natural order")


def r_swoosh(
    groupoid: FiniteGroupoid | BlackBoxGroupoid,
    instance: Iterable,
    budget: Budget = Budget(),
) -> ERResult:
    """Record-at-a-time worklist resolver.

    Pops a record; if it matches anything already resolved, the partner is
    un-resolved and their merge is queued, otherwise the record is resolved.
    The partner is the first resolved record, in insertion order, that
    matches; with the host's ``features`` only those sharing a feature with
    the record are asked.
    Sequential by design (its correctness argument is sequential), FIFO over
    ids sorted lexicographically, so runs are reproducible.  ``instance`` is
    the members themselves, as for ``merge_closure``.

    Requires the idempotent/strongly-commutative/associative/representative
    package: verified on explicit groupoids, or declared by construction by
    the adapter.  A merge result that fails idempotent re-merge contradicts
    the declaration and aborts with a witness.  ``budget.max_elements``
    bounds the total number of merges.
    """
    members = _keyed_members(groupoid, instance)
    if not members:
        raise ValueError("instance must be non-empty")
    if isinstance(groupoid, FiniteGroupoid):
        _require(groupoid, ICAR, "r_swoosh requires I, SC, A and R")
    elif not groupoid.declares_icar:
        raise HypothesesNotSatisfiedError(
            "black-box groupoid does not declare the required properties;"
            " materialize a finite closure and verify them first"
        )
    match, merge, key = groupoid.match, groupoid.merge, groupoid.key
    features = groupoid.features  # None: every resolved record is a candidate

    queue: list[tuple[ElementId, object]] = list(members.items())
    # resolved id -> (record, insertion number, features); the cursor only
    # grows, so it numbers the insertions
    resolved: dict[ElementId, tuple[object, int, tuple]] = {}
    # F-Swoosh's feature index: feature -> {insertion number: resolved id} in
    # ascending numbers, so the first candidate that matches is the first
    # match in ``resolved``'s own order
    index: dict[object, dict[int, ElementId]] = {}
    merges = 0
    cursor = 0
    while cursor < len(queue):
        rid, record = queue[cursor]
        cursor += 1
        if rid in resolved:
            continue
        feats = _feature_tuple(features, record)
        hits = [ids for ids in map(index.get, feats) if ids]
        if len(hits) == 1:
            candidates = hits[0].values()
        else:
            union = {n: pid for ids in hits for n, pid in ids.items()}
            candidates = [union[n] for n in sorted(union)]
        partner = next(
            (pid for pid in candidates if match(record, resolved[pid][0])), None
        )
        if partner is None:
            resolved[rid] = (record, cursor, feats)
            for f in feats:
                index.setdefault(f, {})[cursor] = rid
            continue
        buddy, number, partner_feats = resolved.pop(partner)
        for f in partner_feats:
            del index[f][number]
        merged = merge(record, buddy)
        merges += 1
        if merges > budget.max_elements:
            raise BudgetExhaustedError(
                f"merge budget of {budget.max_elements} exhausted"
            )
        mid = key(merged)
        if not match(merged, merged) or key(merge(merged, merged)) != mid:
            raise IcarViolationError(
                "merge result fails idempotent re-merge, contradicting the"
                " declared properties",
                witness=(rid, partner, mid),
            )
        queue.append((mid, merged))
    return ERResult("rswoosh", tuple(sorted(resolved)), f"{merges} merges")
