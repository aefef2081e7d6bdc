"""Concrete groupoids: union-merge records, paths in a digraph, and the
built-in finite fixtures used throughout the test suite and CLI.

Black-box adapters must be deterministic: equal operands merge to equal
values (the record host even returns the record it built before).  Their
elements carry a canonical serialization so merge outputs deduplicate
during closure.  A record also carries its facts, the set of its
(attribute, value) pairs: the record rule matches, merges and keeps its
merged records on those sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import UnknownFixtureError
from .groupoid import (
    BlackBoxGroupoid,
    Budget,
    ElementId,
    FiniteGroupoid,
    Pair,
    _closed_groupoid,
    generated_subgroupoid,
)


@dataclass(frozen=True, eq=False)
class Record:
    """An entity record: attribute names mapped to finite value sets.

    Names and values are stringified; a value set must be a collection, not
    a string (or bytes) that would split into characters.  Equality and
    hashing go through the canonical serialization (sorted attributes,
    sorted values), computed once, so equal records are byte-identical; the
    attributes are a read-only view, so it never goes stale.  A record also
    holds its facts, the set of its (attribute, value) pairs, computed once:
    equal records have equal facts.
    """

    attributes: Mapping[str, frozenset[str]]
    canonical_id: ElementId = field(init=False, repr=False)
    _facts: frozenset[tuple[str, str]] = field(init=False, repr=False)

    def __post_init__(self):
        normalized = {}
        for name, values in self.attributes.items():
            if isinstance(values, (str, bytes)):
                raise ValueError(
                    f"attribute {name!r} has the string {values!r} as its value"
                    " set; give a collection of values"
                )
            values = frozenset(map(str, values))
            if not values:
                raise ValueError(f"attribute {name!r} has an empty value set")
            label = str(name)
            if label in normalized:
                raise ValueError(f"duplicate attribute {label!r}")
            normalized[label] = values
        if not normalized:
            raise ValueError("record must have at least one attribute")
        self._settle(normalized, frozenset((n, v) for n, vs in normalized.items() for v in vs))

    def _settle(self, attributes: dict[str, frozenset[str]], facts: frozenset) -> None:
        object.__setattr__(self, "attributes", MappingProxyType(attributes))
        # json.dumps({k: sorted(v)}, sort_keys=True, separators=(",", ":"))
        canonical = ",".join(
            [
                f'{_string(k)}:[{",".join(map(_string, sorted(attributes[k])))}]'
                for k in sorted(attributes)
            ]
        )
        object.__setattr__(self, "canonical_id", "{" + canonical + "}")
        object.__setattr__(self, "_facts", facts)

    @classmethod
    def of(cls, **attributes) -> "Record":
        return cls(attributes)

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[str]]) -> "Record":
        return cls(data)

    def to_dict(self) -> dict[str, list[str]]:
        return {k: sorted(self.attributes[k]) for k in sorted(self.attributes)}

    def __reduce__(self):  # the read-only view itself does not pickle
        return (Record, (dict(self.attributes),))

    def __eq__(self, other) -> bool:
        return isinstance(other, Record) and self.canonical_id == other.canonical_id

    def __hash__(self) -> int:
        return hash(self.canonical_id)

    def __repr__(self) -> str:
        return f"Record({self.canonical_id})"


def _record(
    attributes: dict[str, frozenset[str]], facts: frozenset[tuple[str, str]]
) -> Record:
    """A record from parts that need no validation: non-empty sets of string
    values by string name, and the facts they hold, such as a union of
    records or a document entry already checked."""
    record = object.__new__(Record)
    record._settle(attributes, facts)
    return record


def record_groupoid(key_attributes: Sequence[str]) -> BlackBoxGroupoid:
    """Union-merge records with overlap matching on the key attributes.

    Two records match when they share at least one value on at least one key
    attribute; their merge is the record holding the union of their facts,
    so it unions every attribute's value set.  Provided all records carry a
    key value, the rule is idempotent, strongly commutative, associative and
    representative, which the adapter declares (and the test suite verifies
    on materialized fixtures rather than assuming).  The features of a
    record are its (key attribute, value) pairs: two records match exactly
    when they share one.

    The host keeps every record its merge built, by its facts, for as long
    as the host lives, and returns that record for the same union again; so
    a closure builds each merged record once.
    """
    keys = tuple(key_attributes)
    if not keys:
        raise ValueError("need at least one key attribute")
    empty: frozenset[str] = frozenset()

    def match(r1: Record, r2: Record) -> bool:
        a, b = r1.attributes, r2.attributes
        for k in keys:
            if not a.get(k, empty).isdisjoint(b.get(k, empty)):
                return True
        return False

    built: dict[frozenset, Record] = {}  # facts of a union -> the record built for them

    def merge(r1: Record, r2: Record) -> Record:
        f1, f2 = r1._facts, r2._facts
        # an operand holding the other is already the union
        if f2 <= f1:
            return r1
        if f1 <= f2:
            return r2
        union = f1 | f2
        record = built.get(union)
        if record is None:
            a, b = r1.attributes, r2.attributes
            values = {n: a.get(n, empty) | b.get(n, empty) for n in a.keys() | b.keys()}
            record = built[union] = _record(values, union)
        return record

    return BlackBoxGroupoid(
        match=match,
        merge=merge,
        key=lambda r: r.canonical_id,
        declares_icar=True,
        features=lambda r: [(k, v) for k in keys for v in r.attributes.get(k, ())],
    )


@dataclass(frozen=True)
class Digraph:
    nodes: tuple[str, ...]
    arcs: tuple[Pair, ...]

    def __post_init__(self):
        nodes = tuple(str(n) for n in self.nodes)
        members = set(nodes)
        arcs = []
        for u, v in self.arcs:
            u, v = str(u), str(v)
            if u not in members or v not in members:
                raise ValueError(f"arc ({u!r}, {v!r}) mentions an unknown node")
            arcs.append((u, v))
        if len(set(arcs)) != len(arcs):
            raise ValueError("duplicate arcs")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arcs", tuple(arcs))

    def path(self, *arcs: Pair) -> "DiPath":
        known = set(self.arcs)
        for arc in arcs:
            if tuple(arc) not in known:
                raise ValueError(f"arc {arc!r} is not in the digraph")
        return DiPath(tuple(tuple(a) for a in arcs))


@dataclass(frozen=True)
class DiPath:
    """A path: consecutive arcs chain, arcs are distinct, and the arc heads
    are pairwise distinct."""

    arcs: tuple[Pair, ...]

    def __post_init__(self):
        arcs = tuple((str(u), str(v)) for u, v in self.arcs)
        if not arcs:
            raise ValueError("path must contain at least one arc")
        for (_, head), (tail, _) in zip(arcs, arcs[1:]):
            if head != tail:
                raise ValueError("consecutive arcs do not chain")
        if len(set(arcs)) != len(arcs):
            raise ValueError("arcs repeat")
        heads = [v for _, v in arcs]
        if len(set(heads)) != len(heads):
            raise ValueError("arc heads repeat")
        object.__setattr__(self, "arcs", arcs)

    @property
    def canonical_id(self) -> ElementId:
        return "|".join(f"{u}>{v}" for u, v in self.arcs)


def _overlap_concat(p: DiPath, q: DiPath) -> DiPath | None:
    """Smallest-index suffix/prefix overlap, then concatenation.

    The first path's tail starting at position i must equal the second's
    prefix; only the smallest such i counts.  Results breaking the path
    invariants are rejected (undefined composition).
    """
    m, n = len(p.arcs), len(q.arcs)
    for i in range(1, min(m, n) + 1):
        overlap = m - i + 1
        if overlap > n:
            continue
        if p.arcs[i - 1 :] == q.arcs[:overlap]:
            try:
                return DiPath(p.arcs + q.arcs[overlap:])
            except ValueError:
                return None
    return None


def path_groupoid(host: Digraph) -> BlackBoxGroupoid:
    """Paths of ``host`` under overlap concatenation.  A path's features are
    its arcs: an overlap shares at least one."""
    return BlackBoxGroupoid(
        match=lambda p, q: _overlap_concat(p, q) is not None,
        merge=lambda p, q: _overlap_concat(p, q),
        key=lambda p: p.canonical_id,
        features=lambda p: p.arcs,
    )


def materialize(
    blackbox: BlackBoxGroupoid, seed: Iterable, budget: Budget = Budget()
) -> FiniteGroupoid:
    """Close a seed set under the black-box rules into an explicit table.

    This is the bridge from open-universe adapters to the exhaustive finite
    checkers; exhaustion of the budget is an error here because the caller
    asked for the complete table.
    """
    return _closed_groupoid(generated_subgroupoid(blackbox, seed, budget))


# -- built-in fixtures -------------------------------------------------------


def _fixture_p1() -> FiniteGroupoid:
    # Three idempotents chained a -> b -> c; associativity holds but the
    # catenary and strong forms fail on (a, b, c).
    return FiniteGroupoid(
        ("a", "b", "c"),
        {
            ("a", "a"): "a",
            ("b", "b"): "b",
            ("c", "c"): "c",
            ("a", "b"): "b",
            ("b", "c"): "c",
        },
    )


def _fixture_q2() -> FiniteGroupoid:
    # Finite yet fails idempotence, strong commutativity, associativity and
    # representativity all at once.
    return FiniteGroupoid(
        ("a", "b", "c"),
        {("a", "b"): "c", ("b", "c"): "b", ("c", "c"): "b"},
    )


def _fixture_maxnat(size: int) -> FiniteGroupoid:
    elements = tuple(str(i) for i in range(size))
    table = {
        (str(i), str(j)): str(max(i, j))
        for i in range(size)
        for j in range(size)
    }
    return FiniteGroupoid(elements, table)


def _fixture_chain(size: int, loops: bool = False) -> FiniteGroupoid:
    # a_i composed with a_{i+1} gives a_{i+2}; the truncation leaves
    # out-of-range compositions undefined instead of wrapping.  ``uchain``
    # adds the loop e e = e on every element.
    elements = tuple(f"a{i}" for i in range(1, size + 1))
    table = {(x, y): z for x, y, z in zip(elements, elements[1:], elements[2:])}
    if loops:
        table.update(((e, e), e) for e in elements)
    return FiniteGroupoid(elements, table)


def _fixture_twoblock() -> FiniteGroupoid:
    return FiniteGroupoid(("u", "v"), {("u", "u"): "u", ("v", "v"): "v"})


def _fixture_leftzero2() -> FiniteGroupoid:
    # Total, idempotent, catenary associative, not commutative: the two
    # elements absorb each other, so they form one mutual-absorption class.
    return FiniteGroupoid(
        ("p", "q"),
        {("p", "p"): "p", ("p", "q"): "p", ("q", "p"): "q", ("q", "q"): "q"},
    )


def _fixture_unit() -> FiniteGroupoid:
    return FiniteGroupoid(("e",), {("e", "e"): "e"})


# name -> (description, default size or None when unsized, factory)
BUILTINS: dict[str, tuple[str, int | None, Callable[..., FiniteGroupoid]]] = {
    "p1": ("three chained idempotents; associative but not catenary", None, _fixture_p1),
    "q2": ("three elements failing I, SC, A and R", None, _fixture_q2),
    "maxnat": ("total max on {0..n-1}", 10, _fixture_maxnat),
    "chain": ("successor chain a_i a_{i+1} = a_{i+2}, no loops", 12, _fixture_chain),
    "uchain": (
        "successor chain with idempotent loops", 12, lambda size: _fixture_chain(size, True)
    ),
    "twoblock": ("two disjoint idempotents", None, _fixture_twoblock),
    "leftzero2": ("two-element left-absorbing band", None, _fixture_leftzero2),
    "unit": ("a single idempotent", None, _fixture_unit),
}

# The largest element count a sized fixture takes.  ``maxnat`` builds n²
# entries, so an unbounded size from the command line would allocate
# without bound; the largest size in use is 60.
MAX_FIXTURE_SIZE = 100


def builtin(name: str, size: int | None = None) -> FiniteGroupoid:
    """Construct a built-in fixture; sized families take an element count
    of at most ``MAX_FIXTURE_SIZE``."""
    key = name.lower()
    if key not in BUILTINS:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    _, default_size, factory = BUILTINS[key]
    if default_size is None:
        if size is not None:
            raise UnknownFixtureError(f"fixture {name!r} does not take a size")
        return factory()
    if size is None:
        size = default_size
    if size < 3 and key in ("chain", "uchain"):
        raise UnknownFixtureError(f"fixture {name!r} needs size >= 3")
    if size < 1:
        raise UnknownFixtureError("size must be positive")
    if size > MAX_FIXTURE_SIZE:
        raise UnknownFixtureError(f"size must be at most {MAX_FIXTURE_SIZE}")
    return factory(size)
