from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from matchmerge import (
    GroupoidDocument,
    LoadError,
    Record,
    RecordsDocument,
    builtin,
    dump_groupoid,
    load_digraph,
    load_document,
    load_groupoid,
    load_instance,
    load_records,
)


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_groupoid_round_trip(tmp_path):
    g = builtin("p1")
    path = write(tmp_path, "g.json", dump_groupoid(g))
    doc = load_groupoid(path)
    assert doc.groupoid == g
    assert doc.order_pairs is None


def test_duplicate_composition_pair_is_a_load_error(tmp_path):
    path = write(
        tmp_path,
        "dup.json",
        {"elements": ["a"], "compositions": [["a", "a", "a"], ["a", "a", "a"]]},
    )
    with pytest.raises(LoadError) as err:
        load_groupoid(path)
    assert "repeats" in str(err.value)


def assert_load_error(tmp_path, loader, payload, message):
    # a payload of None writes no file
    path = str(tmp_path / "doc.json") if payload is None else write(tmp_path, "doc.json", payload)
    with pytest.raises(LoadError) as err:
        loader(path)
    assert str(err.value) == f"{path}: {message.format(path=path)}"


@pytest.mark.parametrize(
    "loader, payload, message",
    [
        (
            load_groupoid,
            {"elements": ["a"], "compositions": [["a", "a", "a"], ["a", "a"]]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
        (
            load_groupoid,
            {"elements": ["a"], "compositions": [["a", "a", "a"], ["a", "a", 1]]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
        (
            load_groupoid,
            {"elements": ["a", "b"], "compositions": [["a", "b", "a"], ["a", "b", "b"]]},
            "compositions[1] repeats the pair ('a', 'b')",
        ),
        (
            load_groupoid,
            {
                "elements": ["a"],
                "compositions": [["a", "a", "a"], ["a", "a", "a"], [], "a"],
            },
            "compositions[1] repeats the pair ('a', 'a')",
        ),
        (
            load_groupoid,
            {"elements": ["a"], "compositions": [], "order": [["a", "a"], ["a"]]},
            "order[1] must be a [p, q] pair of strings",
        ),
        (
            load_groupoid,
            {"elements": ["a"], "compositions": [], "order": [["a", "a"], ["zz", "a"]]},
            "order[1] leaves the carrier",
        ),
        (
            load_records,
            {"key_attributes": ["name"], "records": [{"name": ["ann"]}, {"name": "bo"}]},
            "records[1].name must be a non-empty array of strings",
        ),
        (
            load_records,
            {"key_attributes": ["name"], "records": [{"name": ["ann"], "tel": []}]},
            "records[0].tel must be a non-empty array of strings",
        ),
        (
            load_records,
            {
                "key_attributes": ["name"],
                "records": [{"name": ["ann"]}, {"phone": ["9"]}, {"tel": ["1"]}],
            },
            "records[1] has no key attribute",
        ),
        (
            load_records,
            {"key_attributes": ["name"], "records": [{"name": ["ann"]}, {}]},
            "records[1]: record must have at least one attribute",
        ),
        (
            load_records,
            {"key_attributes": ["name"], "records": [["name", "ann"]]},
            "records[0] must be an attribute object",
        ),
        (
            load_instance,
            {"instance": [{"name": ["ann"]}, {}]},
            "instance[1]: record must have at least one attribute",
        ),
        (load_groupoid, [], "top-level value must be an object"),
        (
            load_groupoid,
            {"elements": ["a", 1], "compositions": []},
            "'elements' must be an array of strings",
        ),
        (load_groupoid, {"elements": ["a"], "compositions": {}}, "'compositions' must be an array"),
        (
            load_groupoid,
            {"elements": ["a"], "compositions": [], "order": "a"},
            "'order' must be an array of [p, q] pairs",
        ),
        (
            load_records,
            {"key_attributes": [], "records": [{"name": ["ann"]}]},
            "'key_attributes' must be a non-empty array of strings",
        ),
        (
            load_records,
            {"key_attributes": ["name"], "records": []},
            "'records' must be a non-empty array",
        ),
        (load_digraph, {"nodes": "u", "arcs": []}, "'nodes' must be an array of strings"),
        (load_digraph, {"nodes": ["u"], "arcs": {}}, "'arcs' must be an array of [u, v] pairs"),
        (
            load_digraph,
            {"nodes": ["u", "v"], "arcs": [["u", "v"], ["v"]]},
            "arcs[1] must be a [u, v] pair of strings",
        ),
        (
            load_digraph,
            {"nodes": ["u", "v"], "arcs": [["u", "v"], ["u", "v"]]},
            "duplicate arcs",
        ),
        (load_instance, {"instance": []}, "'instance' must be a non-empty array"),
        (load_groupoid, None, "[Errno 2] No such file or directory: '{path}'"),
    ],
)
def test_load_error_messages(tmp_path, loader, payload, message):
    assert_load_error(tmp_path, loader, payload, message)


# entry shapes that unpack, or fail, differently in a comprehension
@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"elements": ["a", "b", "c"], "compositions": [["a", "a", "a"], "abc"]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a", "b", "c"], "compositions": [{"a": 1, "b": 2, "c": 3}]},
            "compositions[0] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a"], "compositions": [["a", "a", "a"], [1, 2, 3]]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a"], "compositions": [["a", "a"], ["a", "a", "a"]]},
            "compositions[0] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a"], "compositions": [["a", "a", "a"], [["a"], "a", "a"]]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a"], "compositions": [["a", "a", ["a"]]]},
            "compositions[0] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a"], "compositions": [["a", "a", "a"], ["a", "a", "a"], [1, 2, 3]]},
            "compositions[1] repeats the pair ('a', 'a')",
        ),
        (
            {"elements": ["a"], "compositions": [["a", "zz", "a"], "abc"]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
        (
            {"elements": ["a", "b"], "compositions": [["a", "a", "b"], ["a", "b", "zz"]]},
            "composition ('a', 'b') -> 'zz' mentions 'zz', which is outside the carrier",
        ),
        (
            {"elements": ["a"], "compositions": [["yy", "a", "zz"], ["a", "xx", "a"]]},
            "composition ('yy', 'a') -> 'zz' mentions 'yy', which is outside the carrier",
        ),
        (
            {"elements": ["a", ["b"]], "compositions": [["a", "a", "a"]]},
            "'elements' must be an array of strings",
        ),
        (
            {"elements": ["a", "a"], "compositions": [["a", "a", "a"]]},
            "duplicate element 'a' in carrier",
        ),
        (
            {"elements": [], "compositions": [["a", "a", "a"], [1, 2, 3]]},
            "compositions[1] must be a [x, y, result] triple of strings",
        ),
    ],
)
def test_composition_entry_error_messages(tmp_path, payload, message):
    assert_load_error(tmp_path, load_groupoid, payload, message)


def test_composition_outside_carrier_is_a_load_error(tmp_path):
    path = write(
        tmp_path, "bad.json", {"elements": ["a"], "compositions": [["a", "b", "a"]]}
    )
    with pytest.raises(LoadError):
        load_groupoid(path)


def test_missing_keys_are_load_errors(tmp_path):
    path = write(tmp_path, "none.json", {"elements": ["a"]})
    with pytest.raises(LoadError) as err:
        load_groupoid(path)
    assert "compositions" in str(err.value)


def test_malformed_json_reports_position(tmp_path):
    path = write(tmp_path, "broken.json", '{"elements": [,]}')
    with pytest.raises(LoadError) as err:
        load_groupoid(path)
    assert err.value.line == 1
    assert err.value.column is not None
    assert ":1:" in str(err.value)


def test_every_load_error_names_the_document_as_the_caller_spelled_it(tmp_path, monkeypatch):
    # read, JSON and validation errors alike: "./broken.json" is not
    # shortened to "broken.json" while "./nokey.json" keeps its "./"
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "broken.json", "{,}")
    write(tmp_path, "nokey.json", {"elements": ["a"]})
    cases = (
        ("./broken.json", "./broken.json:1:2: "),
        ("./nokey.json", "./nokey.json: missing key 'compositions'"),
        ("./absent.json", "./absent.json: "),
    )
    for spelling, start in cases:
        with pytest.raises(LoadError) as err:
            load_groupoid(spelling)
        assert str(err.value).startswith(start), str(err.value)
        assert err.value.path == spelling


def test_order_key_round_trip(tmp_path):
    g = builtin("twoblock")
    path = write(tmp_path, "o.json", dump_groupoid(g, [("u", "u"), ("v", "v")]))
    doc = load_groupoid(path)
    assert doc.order_pairs == (("u", "u"), ("v", "v"))


def test_order_key_must_stay_in_carrier(tmp_path):
    path = write(
        tmp_path,
        "o.json",
        {"elements": ["a"], "compositions": [], "order": [["a", "zz"]]},
    )
    with pytest.raises(LoadError):
        load_groupoid(path)


def test_records_document(tmp_path):
    path = write(
        tmp_path,
        "r.json",
        {
            "key_attributes": ["name"],
            "records": [{"name": ["ann"], "phone": ["p1"]}],
        },
    )
    doc = load_records(path)
    assert doc.key_attributes == ("name",)
    assert doc.records[0].attributes["name"] == {"ann"}


def test_loaded_records_equal_validated_records(tmp_path):
    entries = [{"name": ["bob", "ann", "ann"], "été": ["z", "ä", "Z"]}, {"name": [""]}]
    path = write(tmp_path, "r.json", {"key_attributes": ["name"], "records": entries})
    for loaded, entry in zip(load_records(path).records, entries):
        record = Record.from_dict(entry)
        assert loaded == record and loaded.canonical_id == record.canonical_id
        assert dict(loaded.attributes) == dict(record.attributes)
        assert loaded._facts == record._facts


def test_records_document_rejects_empty_value_arrays(tmp_path):
    path = write(
        tmp_path,
        "r.json",
        {"key_attributes": ["name"], "records": [{"name": []}]},
    )
    with pytest.raises(LoadError):
        load_records(path)


def test_digraph_document(tmp_path):
    path = write(
        tmp_path, "d.json", {"nodes": ["u", "v"], "arcs": [["u", "v"]]}
    )
    dg = load_digraph(path)
    assert dg.nodes == ("u", "v")
    assert dg.arcs == (("u", "v"),)


def test_digraph_document_rejects_unknown_nodes(tmp_path):
    path = write(tmp_path, "d.json", {"nodes": ["u"], "arcs": [["u", "v"]]})
    with pytest.raises(LoadError):
        load_digraph(path)


def test_instance_document_with_ids(tmp_path):
    path = write(tmp_path, "i.json", {"instance": ["a1", "a2"]})
    doc = load_instance(path)
    assert doc.element_ids == ("a1", "a2")
    assert doc.records is None


def test_instance_document_with_records(tmp_path):
    path = write(tmp_path, "i.json", {"instance": [{"name": ["ann"]}]})
    doc = load_instance(path)
    assert doc.element_ids is None
    assert doc.records[0].attributes["name"] == {"ann"}


def test_shipped_fixture_files_parse():
    assert load_groupoid("fixtures/p1.json").groupoid == builtin("p1")
    assert load_groupoid("fixtures/max10.json").groupoid == builtin("maxnat", 10)
    records = load_records("fixtures/records.json")
    assert len(records.records) == 3
    load_digraph("fixtures/clicks.json")


def test_load_document_tells_the_two_kinds_apart(tmp_path):
    groupoid = load_document("fixtures/p1.json")
    assert isinstance(groupoid, GroupoidDocument)
    assert groupoid == load_groupoid("fixtures/p1.json")
    records = load_document("fixtures/records.json")
    assert isinstance(records, RecordsDocument)
    assert records == load_records("fixtures/records.json")
    for payload in ([1, 2], {"nodes": []}):
        with pytest.raises(LoadError, match="unrecognized document"):
            load_document(write(tmp_path, "other.json", payload))


def test_fixtures_match_their_generator(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", root / "scripts" / "make_fixtures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.FIXTURES = tmp_path
    script.main()
    capsys.readouterr()
    generated = sorted(p.name for p in tmp_path.iterdir())
    assert generated == sorted(p.name for p in (root / "fixtures").iterdir())
    for name in generated:
        assert (tmp_path / name).read_bytes() == (root / "fixtures" / name).read_bytes(), name
