"""Text document formats: groupoid, record, digraph and instance files.

All documents are UTF-8 JSON with fixed key names.  The CLI's ``quotient``
command writes its quotient in the groupoid syntax, so it loads back as an input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat

from .adapters import Digraph, Record, _record
from .errors import LoadError
from .groupoid import FiniteGroupoid, Pair


@dataclass(frozen=True)
class GroupoidDocument:
    groupoid: FiniteGroupoid
    order_pairs: tuple[Pair, ...] | None = None


@dataclass(frozen=True)
class RecordsDocument:
    records: tuple[Record, ...]
    key_attributes: tuple[str, ...]


@dataclass(frozen=True)
class InstanceDocument:
    element_ids: tuple[str, ...] | None = None
    records: tuple[Record, ...] | None = None


def _read_json(path) -> object:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(path, str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(path, exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise LoadError(path, "JSON nested too deeply") from exc


def _expect(condition: bool, path, message: str):
    if not condition:
        raise LoadError(path, message)


def _members(data, path, *keys) -> list:
    """The values of ``keys`` in ``data``, once ``data`` is checked to be an
    object and then to hold each key, in the order given."""
    _expect(isinstance(data, dict), path, "top-level value must be an object")
    for key in keys:
        if key not in data:
            raise LoadError(path, f"missing key '{key}'")
    return [data[key] for key in keys]


def _pairs(raw, path, array: str, names: str, carrier=None) -> tuple[Pair, ...]:
    """The document's ``array`` of ``[names]`` pairs of strings, as tuples.
    With ``carrier``, each pair must also lie in it; entries are checked in
    order, each for its shape and then for the carrier."""
    _expect(isinstance(raw, list), path, f"'{array}' must be an array of [{names}] pairs")
    for i, entry in enumerate(raw):
        if not (
            isinstance(entry, list) and len(entry) == 2 and all(isinstance(e, str) for e in entry)
        ):
            raise LoadError(path, f"{array}[{i}] must be a [{names}] pair of strings")
        if carrier is not None and not (entry[0] in carrier and entry[1] in carrier):
            raise LoadError(path, f"{array}[{i}] leaves the carrier")
    return tuple(map(tuple, raw))


def load_document(path) -> GroupoidDocument | RecordsDocument:
    """Parse a groupoid document (an ``elements`` key) or a records document
    (a ``records`` key), reading the file once."""
    data = _read_json(path)
    if isinstance(data, dict) and "elements" in data:
        return _groupoid_document(data, path)
    if isinstance(data, dict) and "records" in data:
        return _records_document(data, path)
    raise LoadError(path, "unrecognized document: expected 'elements' or 'records'")


def load_groupoid(path) -> GroupoidDocument:
    """Parse an explicit groupoid document.

    Keys: ``elements`` (array of strings) and ``compositions`` (array of
    ``[x, y, result]`` triples).  A pair occurring twice is a load error;
    pairs absent from ``compositions`` are undefined.  An optional ``order``
    key supplies a user relation as an array of ``[p, q]`` pairs.
    """
    return _groupoid_document(_read_json(path), path)


def _groupoid_document(data, path) -> GroupoidDocument:
    elements, compositions = _members(data, path, "elements", "compositions")
    _expect(
        isinstance(elements, list) and all(isinstance(e, str) for e in elements),
        path,
        "'elements' must be an array of strings",
    )
    _expect(isinstance(compositions, list), path, "'compositions' must be an array")
    # Whole-array checks first: every entry a list of three, no pair twice,
    # and (in FiniteGroupoid) every id in the carrier, so a string.  When a
    # check fails, ``_checked_groupoid`` names the first bad entry.
    groupoid = None
    try:
        table = {(x, y): v for x, y, v in compositions}
        if len(table) == len(compositions) and set(map(type, compositions)) <= {list}:
            groupoid = FiniteGroupoid(tuple(elements), table)
    except (TypeError, ValueError):
        pass
    if groupoid is None:
        groupoid = _checked_groupoid(elements, compositions, path)
    order_pairs = None
    if "order" in data:
        order_pairs = _pairs(data["order"], path, "order", "p, q", groupoid)
    return GroupoidDocument(groupoid, order_pairs)


def _checked_groupoid(elements, compositions, path) -> FiniteGroupoid:
    """The groupoid of ``compositions``, checked entry by entry: the first
    malformed or repeated entry is a load error, and then whatever
    ``FiniteGroupoid`` refuses."""
    table = {}
    for i, entry in enumerate(compositions):
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
            and isinstance(entry[2], str)
        ):
            raise LoadError(path, f"compositions[{i}] must be a [x, y, result] triple of strings")
        x, y, value = entry
        if (x, y) in table:
            raise LoadError(path, f"compositions[{i}] repeats the pair ({x!r}, {y!r})")
        table[(x, y)] = value
    try:
        return FiniteGroupoid(tuple(elements), table)
    except ValueError as exc:
        raise LoadError(path, str(exc)) from exc


def groupoid_to_document(g: FiniteGroupoid, order_pairs=None) -> dict:
    doc = {
        "elements": list(g.elements),
        "compositions": sorted([x, y, v] for (x, y), v in g.table.items()),
    }
    if order_pairs:
        doc["order"] = sorted([p, q] for p, q in order_pairs)
    return doc


def dump_groupoid(g: FiniteGroupoid, order_pairs=None) -> str:
    return json.dumps(groupoid_to_document(g, order_pairs), indent=2) + "\n"


def _parse_record(obj, path, array: str, i: int) -> Record:
    """Entry ``i`` of the document's ``array`` as a record."""
    if not isinstance(obj, dict):
        raise LoadError(path, f"{array}[{i}] must be an attribute object")
    if not obj:
        raise LoadError(path, f"{array}[{i}]: record must have at least one attribute")
    attributes, facts = {}, set()
    for name, values in obj.items():
        if not (isinstance(values, list) and values and all(map(isinstance, values, repeat(str)))):
            raise LoadError(path, f"{array}[{i}].{name} must be a non-empty array of strings")
        attributes[name] = frozenset(values)
        facts.update(zip(repeat(name), values))
    # a JSON object repeats no name and every value is a string, so nothing
    # is left for Record's own checks
    return _record(attributes, frozenset(facts))


def load_records(path) -> RecordsDocument:
    """Parse a records document: ``records`` plus ``key_attributes``.

    Every record needs a value on at least one key attribute: a record
    without one matches nothing, not even itself, which breaks the ICAR that
    the record rule declares."""
    return _records_document(_read_json(path), path)


def _records_document(data, path) -> RecordsDocument:
    raw, keys = _members(data, path, "records", "key_attributes")
    _expect(
        isinstance(keys, list) and keys and all(isinstance(k, str) for k in keys),
        path,
        "'key_attributes' must be a non-empty array of strings",
    )
    _expect(isinstance(raw, list) and raw, path, "'records' must be a non-empty array")
    records = tuple(_parse_record(entry, path, "records", i) for i, entry in enumerate(raw))
    for i, record in enumerate(records):
        if not any(k in record.attributes for k in keys):
            raise LoadError(path, f"records[{i}] has no key attribute")
    return RecordsDocument(records, tuple(keys))


def load_digraph(path) -> Digraph:
    """Parse a digraph document: ``nodes`` plus ``arcs``."""
    nodes, arcs = _members(_read_json(path), path, "nodes", "arcs")
    _expect(
        isinstance(nodes, list) and all(isinstance(n, str) for n in nodes),
        path,
        "'nodes' must be an array of strings",
    )
    parsed = _pairs(arcs, path, "arcs", "u, v")
    try:
        return Digraph(tuple(nodes), parsed)
    except ValueError as exc:
        raise LoadError(path, str(exc)) from exc


def load_instance(path) -> InstanceDocument:
    """Parse an instance document: ids for explicit groupoids, or inline
    record objects for the record adapter."""
    (members,) = _members(_read_json(path), path, "instance")
    _expect(isinstance(members, list) and members, path, "'instance' must be a non-empty array")
    if all(isinstance(m, str) for m in members):
        return InstanceDocument(element_ids=tuple(members))
    records = tuple(
        _parse_record(entry, path, "instance", i) for i, entry in enumerate(members)
    )
    return InstanceDocument(records=records)
