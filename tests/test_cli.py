from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchmerge import FiniteGroupoid, cli, domaingraph, load_groupoid
from matchmerge.cli import run
from matchmerge.errors import InternalInvariantError, LoadError
from matchmerge.order import OrderRelation
from helpers import full_by_definition


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_p1_report(capsys):
    code, out, _ = invoke(capsys, "check", "fixtures/p1")
    assert code == 0
    assert "A         yes" in out
    assert "CA        no     (a, b, c)" in out
    assert "implication audit: ok" in out


def test_check_machine_format_parses(capsys):
    code, out, _ = invoke(capsys, "check", "fixtures/p1", "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    verdicts = {row["property"]: row for row in payload["properties"]}
    assert verdicts["CA"]["holds"] is False
    assert verdicts["CA"]["witness"] == ["a", "b", "c"]
    assert payload["implication_violations"] == []


def test_check_accepts_builtin_names(capsys):
    code, out, _ = invoke(capsys, "check", "q2")
    assert code == 0
    assert "builtin:q2" in out


def test_check_materializes_record_documents(capsys):
    code, out, _ = invoke(capsys, "check", "fixtures/records")
    assert code == 0
    assert "ICAR (I, SC, A, R): yes" in out


def test_closure_budget_exhaustion_exits_one(capsys):
    code, out, _ = invoke(
        capsys,
        "closure",
        "fixtures/chain12",
        "--instance",
        "a1,a2",
        "--budget-elements",
        "10",
    )
    assert code == 1
    assert "status: budget_exhausted" in out
    assert "carrier: 10 elements" in out


def test_closure_closed_exits_zero(capsys):
    code, out, _ = invoke(capsys, "closure", "fixtures/p1", "--instance", "a,b")
    assert code == 0
    assert "status: closed" in out


def test_closure_machine_format(capsys):
    code, out, _ = invoke(
        capsys, "closure", "fixtures/p1", "--instance", "a,b", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "closed"
    assert payload["carrier"] == ["a", "b"]


def test_er_auto_on_records_uses_the_worklist_resolver(capsys):
    code, out, _ = invoke(capsys, "er", "fixtures/records", "--method", "auto")
    assert code == 0
    assert "method: rswoosh (ICAR verified)" in out
    assert "resolved (1):" in out
    assert '"name":["ann"]' in out


def test_er_auto_decision_trail_printed(capsys):
    _, out, _ = invoke(capsys, "er", "fixtures/records")
    assert "decision: ICAR verified -> rswoosh" in out


def test_er_auto_falls_back_to_bruteforce_on_p1(capsys):
    code, out, _ = invoke(capsys, "er", "fixtures/p1")
    assert code == 0
    assert "decision: carrier <= 20 -> bruteforce" in out


def test_er_auto_picks_maximal_on_noncommutative_band(capsys):
    code, out, _ = invoke(capsys, "er", "fixtures/leftzero2")
    assert code == 0
    assert "decision: I and CA verified -> maximal" in out
    assert "resolved (2):" in out


def test_er_auto_falls_back_to_full_on_large_carrier_without_hypotheses(capsys):
    code, out, _ = invoke(capsys, "er", "chain:25")
    assert code == 0
    assert "decision: no hypotheses verified -> full" in out
    # only the last element absorbs every defined composition around it
    assert "resolved (1):\n  a25" in out


def test_er_explicit_method_error_exits_one(capsys):
    code, _, err = invoke(capsys, "er", "fixtures/p1", "--method", "maximal")
    assert code == 1
    assert "er_maximal requires" in err


def test_er_machine_format(capsys):
    code, out, _ = invoke(
        capsys, "er", "fixtures/max10", "--instance", "2,5,7", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["resolved"] == ["7"]


def test_er_instance_document(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"instance": ["2", "5", "7"]}), encoding="utf-8")
    code, out, _ = invoke(capsys, "er", "fixtures/max10", "--instance", str(inst))
    assert code == 0
    assert "resolved (1):\n  7" in out


def test_graph_flags(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = invoke(
        capsys,
        "graph",
        "fixtures/p1",
        "--components",
        "--clique-cover",
        "--dot",
        str(dot),
    )
    assert code == 0
    assert "nodes: 3, edges: 5" in out
    assert "components (1):" in out
    assert "cliques" in out
    text = dot.read_text(encoding="utf-8")
    assert "a -> b;" in text


def test_graph_machine_format_schema(capsys):
    code, out, _ = invoke(
        capsys,
        "graph",
        "fixtures/twoblock",
        "--components",
        "--clique-cover",
        "--format",
        "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == ["u", "v"]
    assert payload["components"] == [["u"], ["v"]]
    assert [c["nodes"] for c in payload["cliques"]] == [["u"], ["v"]]
    assert payload["total"] is False


def test_er_on_two_cluster_records(capsys):
    code, out, _ = invoke(capsys, "er", "fixtures/records_two_clusters")
    assert code == 0
    assert "resolved (2):" in out


def test_graph_totality_na_for_asymmetric_domain(capsys):
    _, out, _ = invoke(capsys, "graph", "fixtures/p1")
    assert "total: n/a (domain not symmetric)" in out


def test_graph_reports_a_checker_bug_as_an_error(capsys, monkeypatch):
    def broken(g):
        raise InternalInvariantError("totality and graph completeness disagree")

    monkeypatch.setattr(domaingraph, "is_total", broken)
    code, out, err = invoke(capsys, "graph", "fixtures/max10")
    assert code == 1
    assert out == ""
    assert err == "error: totality and graph completeness disagree\n"


def test_graph_totality_for_symmetric_fixture(capsys):
    _, out, _ = invoke(capsys, "graph", "fixtures/max10")
    assert "total: yes" in out


def test_quotient_round_trips_through_the_groupoid_format(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "quotient", "fixtures/leftzero2", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == [["p", "q"]]
    doc = tmp_path / "quot.json"
    doc.write_text(json.dumps(payload["quotient"]), encoding="utf-8")
    code2, out2, _ = invoke(capsys, "check", str(doc))
    assert code2 == 0


def test_quotient_requires_word_idempotence(capsys):
    code, _, err = invoke(capsys, "quotient", "fixtures/q2")
    assert code == 1
    assert "word idempotence" in err


def test_order_output_sections(capsys):
    code, out, _ = invoke(capsys, "order", "fixtures/p1")
    assert code == 0
    assert "natural right: 5 pairs" in out
    assert "transitive=no (a, b, c)" in out
    assert "maximal: [c]" in out
    assert "full: left=" in out


def test_order_with_user_relation(capsys, tmp_path):
    doc = {
        "elements": ["u", "v"],
        "compositions": [["u", "u", "u"], ["v", "v", "v"]],
        "order": [["u", "u"], ["v", "v"]],
    }
    path = tmp_path / "ord.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "order", str(path), "--variant", "both")
    assert code == 0
    assert "user order: 2 pairs" in out
    assert "characterization:" in out
    assert "consistent=yes" in out


def test_order_characterization_names_the_asymmetric_domain(capsys, tmp_path):
    # the laws hold for the natural order, but (a, b) is undefined while
    # (b, a) is not, so the characterization fails on both sides
    doc = {
        "elements": ["a", "b", "c"],
        "compositions": [
            ["a", "a", "a"], ["b", "b", "b"], ["c", "c", "c"],
            ["a", "c", "c"], ["b", "a", "c"], ["b", "c", "c"],
            ["c", "a", "c"], ["c", "b", "c"],
        ],
        "order": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "c"], ["b", "c"]],
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "order", str(path), "--variant", "both")
    assert code == 0
    assert "axioms: lub=yes left_compat=yes right_compat=yes" in out
    assert (
        "characterization: axioms=no algebra=no consistent=yes"
        " failed_axioms=[symmetric] failed_properties=[SC] natural=yes"
    ) in out
    code, out, _ = invoke(capsys, "order", str(path), "--format", "machine")
    assert code == 0
    charac = json.loads(out)["user_order"]["characterization"]
    assert charac["failed_axioms"] == ["symmetric"]
    assert charac["failed_properties"] == ["SC"]
    assert charac["relation_matches_natural"] is True


SEMILATTICE = {
    "elements": ["a", "b", "c"],
    "compositions": [[x, y, max(x, y)] for x in "abc" for y in "abc"],
}


@pytest.mark.parametrize(
    "doc, tail",
    [
        (
            {**SEMILATTICE, "order": [[x, y] for x in "abc" for y in "abc" if x <= y]},
            [
                "user order: 6 pairs",
                "  axioms: lub=yes left_compat=yes right_compat=yes",
                "  characterization: axioms=yes algebra=yes consistent=yes"
                " failed_axioms=[] failed_properties=[] natural=yes",
            ],
        ),
        (
            {**SEMILATTICE, "order": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"], ["b", "c"]]},
            ["user order: 5 pairs", "  axioms: skipped (not a partial order)"],
        ),
        (
            {
                "elements": ["a", "b"],
                "compositions": [["a", "b", "b"], ["b", "a", "b"], ["b", "b", "b"]],
                "order": [["a", "a"], ["b", "b"], ["a", "b"]],
            },
            ["user order: 3 pairs", "  axioms: lub=yes left_compat=yes right_compat=yes"],
        ),
    ],
    ids=["partial-order", "not-partial-order", "non-reflexive-domain"],
)
def test_user_order_is_audited_once(capsys, monkeypatch, tmp_path, doc, tail):
    import matchmerge.order as order_module

    audits, axiom_checks = [], []

    def counting(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    # the command looks both names up on the order module, as check_order_axioms does
    monkeypatch.setattr(
        order_module, "order_law_audit", counting(audits, order_module.order_law_audit)
    )
    monkeypatch.setattr(
        order_module, "check_order_axioms", counting(axiom_checks, order_module.check_order_axioms)
    )
    path = tmp_path / "ord.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "order", str(path), "--variant", "both")
    assert code == 0
    assert out.splitlines()[-len(tail):] == tail
    assert sorted(rel.provenance for (rel,) in audits) == ["natural:both", "user"]
    assert len(axiom_checks) == 1


def test_dot_into_a_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = invoke(capsys, "graph", "fixtures/p1", "--dot", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: {target}: No such file or directory\n"


def _instance_doc(tmp_path, members):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"instance": members}), encoding="utf-8")
    return str(path)


def test_instance_document_ids_name_input_records(capsys, tmp_path):
    from matchmerge.documents import load_records

    ids = [r.canonical_id for r in load_records("fixtures/records.json").records][:2]
    path = _instance_doc(tmp_path, ids)
    code, out, _ = invoke(capsys, "er", "fixtures/records", "--instance", path)
    assert code == 0
    assert "resolved (1):" in out
    path = _instance_doc(tmp_path, ids + ["zz"])
    code, out, err = invoke(capsys, "er", "fixtures/records", "--instance", path)
    assert code == 2
    assert err == f"error: {path}: instance ids not among the input records: ['zz']\n"


def test_record_instance_document_on_a_groupoid_exits_two(capsys, tmp_path):
    path = _instance_doc(tmp_path, [{"name": ["ann"]}, {"name": ["bob"]}])
    code, out, err = invoke(capsys, "er", "fixtures/p1", "--instance", path)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: record instance given for a groupoid input\n"


def test_record_instance_without_a_key_attribute_exits_two(capsys, tmp_path):
    # a record with no "name" value matches nothing, not even itself, so
    # neither rswoosh nor auto may run on it; a records document refuses it too
    path = _instance_doc(tmp_path, [{"name": ["ann"]}, {"mail": ["m9"]}])
    for method in ("rswoosh", "auto", "full"):
        code, out, err = invoke(
            capsys, "er", "fixtures/records", "--instance", path, "--method", method
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: instance[1] has no key attribute\n"
    code, _, err = invoke(capsys, "closure", "fixtures/records", "--instance", path)
    assert code == 2
    assert err == f"error: {path}: instance[1] has no key attribute\n"


def test_record_instance_document_resolves_records_outside_the_input(capsys, tmp_path):
    # instance records are taken as given: the second is in no input record
    path = _instance_doc(
        tmp_path, [{"name": ["ann"], "phone": ["p1"]}, {"name": ["ann"], "tel": ["t9"]}]
    )
    merged = '{"name":["ann"],"phone":["p1"],"tel":["t9"]}'
    code, out, err = invoke(capsys, "closure", "fixtures/records", "--instance", path)
    assert (code, err) == (0, "")
    assert out.endswith(
        f'elements:\n  {merged}\n  {{"name":["ann"],"phone":["p1"]}}\n'
        '  {"name":["ann"],"tel":["t9"]}\n'
    )
    code, out, err = invoke(
        capsys, "er", "fixtures/records", "--instance", path, "--format", "machine"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["resolved"] == [merged]
    assert payload["closure"]["status"] == "closed"


def test_empty_inline_instance_exits_two(capsys):
    for source in ("fixtures/p1", "fixtures/records"):
        for command in ("er", "closure"):
            for instance in (",", ",,"):
                code, out, err = invoke(capsys, command, source, "--instance", instance)
                assert (code, out) == (2, "")
                assert err == f"error: {instance}: empty instance\n"


def test_instance_document_ids_outside_the_carrier_exit_two(capsys, tmp_path):
    path = _instance_doc(tmp_path, ["zz"])
    for command in ("er", "closure"):
        code, _, err = invoke(capsys, command, "fixtures/p1", "--instance", path)
        assert code == 2
        assert err == f"error: {path}: instance ids outside the carrier: ['zz']\n"
        code, _, err = invoke(capsys, command, "fixtures/p1", "--instance", "zz")
        assert code == 2
        assert err == "error: zz: instance ids outside the carrier: ['zz']\n"


def test_a_table_instance_is_checked_without_a_call_per_carrier_member(monkeypatch):
    loaded = cli._resolve_input("uchain:48")
    calls = []
    for name in ("require", "key"):
        original = getattr(FiniteGroupoid, name)
        monkeypatch.setattr(
            FiniteGroupoid, name, lambda g, e, f=original, name=name: calls.append(name) or f(g, e)
        )
    assert cli._parse_instance("a30,a7", loaded) == ["a30", "a7"]
    with pytest.raises(LoadError, match=r"outside the carrier: \['zz', 'a'\]"):
        cli._parse_instance("a7,zz,a", loaded)
    assert calls == []


def test_fixtures_listing(capsys):
    code, out, _ = invoke(capsys, "fixtures")
    assert code == 0
    for name in ("p1", "q2", "maxnat", "chain", "uchain", "twoblock", "leftzero2"):
        assert name in out


def test_missing_input_exits_two(capsys):
    # a known fixture with a bad size says what is wrong with the size
    for spec, message in (
        ("no/such/file", "no such file or fixture"),
        ("nosuch", "no such file or fixture"),
        ("a" * 5000, "no such file or fixture"),  # too long a name for the file system
        ("chain:2", "fixture 'chain' needs size >= 3"),
        ("maxnat:0", "size must be positive"),
        ("maxnat:99999999999999999999999", "size must be at most 100"),
        ("chain:101", "size must be at most 100"),
        ("p1:3", "fixture 'p1' does not take a size"),
    ):
        for command in ("check", "closure"):
            code, out, err = invoke(capsys, command, spec)
            assert code == 2
            assert out == ""
            assert err == f"error: {spec}: {message}\n"


def test_malformed_document_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = invoke(capsys, "check", str(path))
    assert code == 2
    assert ":1:" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe\x00\x00{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 200_000, "JSON nested too deeply"),
    ],
    ids=["not-utf8", "nested"],
)
def test_unreadable_document_exits_two(capsys, tmp_path, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = invoke(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("method", ["rswoosh", "full", "bruteforce", "auto", "maximal"])
def test_keyless_record_exits_two(capsys, tmp_path, method):
    # a record without a key value matches nothing, not even itself
    path = tmp_path / "records.json"
    doc = {
        "key_attributes": ["name"],
        "records": [{"name": ["ann"]}, {"name": ["ann"], "phone": ["1"]}, {"phone": ["9"]}],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, "er", str(path), "--method", method)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: records[2] has no key attribute\n"


@pytest.mark.parametrize("command", ["check", "quotient"])
def test_word_bound_below_one_exits_two(capsys, command):
    code, out, err = invoke(capsys, command, "p1", "--nr-bound", "0")
    assert code == 2
    assert out == ""
    assert "argument --nr-bound: word bound must be at least 1, got 0" in err


def test_each_document_is_parsed_once(capsys, monkeypatch):
    parsed = []
    loads = json.loads

    def counting_loads(*args, **kwargs):
        parsed.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    for argv in (["check", "fixtures/p1"], ["er", "fixtures/records"]):
        parsed.clear()
        code, _, _ = invoke(capsys, *argv)
        assert code == 0
        assert len(parsed) == 1, argv


def test_order_builds_each_natural_relation_once(capsys, monkeypatch):
    built = []
    post_init = OrderRelation.__post_init__

    def counting_post_init(self):
        post_init(self)
        built.append(self.provenance)

    monkeypatch.setattr(OrderRelation, "__post_init__", counting_post_init)
    code, _, _ = invoke(capsys, "order", "fixtures/p1")
    assert code == 0
    assert sorted(p for p in built if p.startswith("natural:")) == [
        "natural:both",
        "natural:left",
        "natural:right",
    ]


def test_order_sorts_each_relation_once_and_scans_each_side_once(capsys, monkeypatch):
    import matchmerge.order as order_module

    sorts, scans = [], []
    full_elements = order_module.full_elements

    def counting_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    def counting_full(g, side):
        scans.append(side)
        return full_elements(g, side)

    monkeypatch.setattr(order_module, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(order_module, "full_elements", counting_full)
    code, out, _ = invoke(capsys, "order", "fixtures/twoblock", "--format", "machine")
    assert code == 0
    # one sort of integer codes per side, left and right; the two-sided
    # relation keeps the left codes in order, and each section and law
    # audit reads the stored pairs
    assert len(sorts) == 2
    assert all(set(map(type, *args)) == {int} for args in sorts)
    # both-full is the intersection of the left and right scans
    assert [str(side) for side in scans] == ["left", "right"]
    full = full_by_definition(load_groupoid("fixtures/twoblock.json").groupoid)
    assert json.loads(out)["full"] == {side: list(members) for side, members in full.items()}
    assert full["both"] == ("u", "v")


def test_sized_builtin_spec(capsys):
    code, out, _ = invoke(capsys, "check", "maxnat:5")
    assert code == 0
    assert "5 elements" in out


def test_bad_size_exits_two(capsys):
    code, _, err = invoke(capsys, "check", "maxnat:huge")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_output_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "er", "fixtures/records")
    _, second, _ = invoke(capsys, "er", "fixtures/records")
    assert first == second
    _, third, _ = invoke(capsys, "order", "fixtures/max10", "--format", "machine")
    _, fourth, _ = invoke(capsys, "order", "fixtures/max10", "--format", "machine")
    assert third == fourth


# -- one result per command ----------------------------------------------------


def test_er_on_an_exhausted_closure_prints_one_json_object(capsys):
    argv = ["er", "fixtures/records", "--budget-elements", "3"]
    code, out, _ = invoke(capsys, *argv, "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["input"] == "fixtures/records.json"
    assert payload["closure"]["status"] == "budget_exhausted"
    assert payload["closure"]["iterations"] == 1
    assert len(payload["closure"]["carrier"]) == 3
    assert payload["closure"]["carrier"] == sorted(payload["closure"]["carrier"])
    code, out, _ = invoke(capsys, *argv)
    assert code == 1
    assert out == (
        "input: fixtures/records.json\n"
        "closure: budget_exhausted after 1 iterations (3 elements)\n"
    )


def test_inline_instance_names_multi_attribute_records(capsys, tmp_path):
    from matchmerge.documents import load_records

    ids = [r.canonical_id for r in load_records("fixtures/records.json").records][:2]
    assert all("," in i for i in ids)
    code, inline, _ = invoke(capsys, "er", "fixtures/records", "--instance", ",".join(ids))
    assert code == 0
    path = _instance_doc(tmp_path, ids)
    code, from_doc, _ = invoke(capsys, "er", "fixtures/records", "--instance", path)
    assert code == 0
    assert inline == from_doc
    assert "resolved (1):" in inline


def test_inline_instance_ids_may_hold_the_record_separator(capsys, tmp_path):
    # a value holding "},{" is no boundary between two record ids
    path = tmp_path / "records.json"
    records = [{"name": ["x},{y"]}, {"name": ["z"]}]
    path.write_text(json.dumps({"key_attributes": ["name"], "records": records}), encoding="utf-8")
    code, out, _ = invoke(capsys, "closure", str(path), "--format", "machine")
    ids = json.loads(out)["carrier"]
    assert (code, ids) == (0, ['{"name":["x},{y"]}', '{"name":["z"]}'])
    for instance, carrier in (
        (ids[0], ids[:1]),
        (",".join(ids), ids),
        ("," + ",,".join(ids) + ",", ids),
    ):
        argv = ("closure", str(path), "--instance", instance, "--format", "machine")
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["carrier"] == carrier
    # text that starts no JSON value, or one nested too deeply, is one id
    for instance in ("zz," + ids[1], "[" * 5000):
        code, _, err = invoke(capsys, "closure", str(path), "--instance", instance)
        assert code == 2
        assert err == f"error: {instance}: instance ids not among the input records: [{instance!r}]\n"


def test_check_reports_a_violated_implication_as_a_checker_bug(capsys, monkeypatch):
    monkeypatch.setattr(cli, "implication_audit", lambda g, report: ["I and SA => NR", "SC => S"])
    code, out, _ = invoke(capsys, "check", "fixtures/p1")
    assert code == 1
    assert out.splitlines()[-1] == "implication audit: CHECKER BUG, violated: I and SA => NR; SC => S"
    code, out, _ = invoke(capsys, "check", "fixtures/p1", "--format", "machine")
    assert code == 1
    assert json.loads(out)["implication_violations"] == ["I and SA => NR", "SC => S"]


def test_machine_output_rejects_a_key_that_is_not_a_string():
    with pytest.raises(TypeError, match="keys must be str, not int"):
        cli._json({"counts": {1: "a"}})


@pytest.mark.parametrize("flag", ["--budget-elements", "--budget-rounds"])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_budget_below_one_exits_two(capsys, flag, value):
    code, out, err = invoke(capsys, "closure", "fixtures/chain12", flag, value)
    assert code == 2
    assert out == ""
    assert err.endswith(f"argument {flag}: budget must be at least 1, got {value}\n")


def test_budget_that_is_not_an_int_exits_two(capsys):
    code, out, err = invoke(capsys, "closure", "fixtures/chain12", "--budget-elements", "x")
    assert (code, out) == (2, "")
    assert err.endswith("argument --budget-elements: invalid int value: 'x'\n")


SURFACE = [
    ["check"],
    ["closure"],
    ["closure", "--budget-elements", "3"],
    *(["er", "--method", m] for m in ("auto", "bruteforce", "full", "maximal", "rswoosh")),
    ["er", "--budget-elements", "3"],
    ["graph", "--components", "--clique-cover"],
    ["quotient"],
    ["order"],
]


def _surface_runs():
    """Every SURFACE command on every fixture document, then ``fixtures``."""
    fixtures = sorted(str(p.with_suffix("")) for p in Path("fixtures").glob("*.json"))
    assert len(fixtures) == 11
    runs = [[command, fixture, *rest] for command, *rest in SURFACE for fixture in fixtures]
    return runs + [["fixtures"]]


def test_every_command_prints_one_result(capsys):
    domain_errors = 0
    for argv in _surface_runs():
        code, out, err = invoke(capsys, *argv, "--format", "machine")
        text_code, text_out, text_err = invoke(capsys, *argv)
        assert code == text_code and err == text_err, argv
        if code == 2:
            # malformed input: reported on stderr only
            assert out == text_out == "" and err.startswith("error: "), argv
            continue
        assert code in (0, 1), argv
        payload = json.loads(out)
        assert isinstance(payload, dict), argv
        if err:
            # a domain error: on stderr, and as one error object in machine output
            assert err.startswith("error: ") and text_out == "", argv
            assert code == 1 and set(payload) == {"error"}, argv
            assert err == f"error: {payload['error']['message']}\n", argv
            domain_errors += 1
        else:
            assert text_out != "", argv
    assert domain_errors == 12


def test_machine_output_builds_no_text(capsys, monkeypatch, tmp_path):
    # the text helpers raise, so a machine run that built a line would fail
    orders = {
        "partial": [[x, y] for x in "abc" for y in "abc" if x <= y],
        "not-partial": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"], ["b", "c"]],
    }
    for name, pairs in orders.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**SEMILATTICE, "order": pairs}), encoding="utf-8")
    argvs = _surface_runs() + [["order", str(tmp_path / name)] for name in orders]
    expected = [invoke(capsys, *argv, "--format", "machine") for argv in argvs]

    def no_text(*args, **kwargs):
        raise AssertionError("text built under --format machine")

    for name in ("_yesno", "_bracketed", "_fmt_witness", "_law"):
        monkeypatch.setattr(cli, name, no_text)
    monkeypatch.setattr(json, "dumps", no_text)  # the indented quotient document
    for argv, before in zip(argvs, expected):
        assert invoke(capsys, *argv, "--format", "machine") == before, argv


@pytest.mark.parametrize(
    "argv, error",
    [
        (["quotient", "fixtures/q2"], "HypothesesNotSatisfiedError"),
        (["er", "fixtures/p1", "--method", "maximal"], "HypothesesNotSatisfiedError"),
    ],
)
def test_domain_error_is_one_machine_result(capsys, argv, error):
    code, out, err = invoke(capsys, *argv, "--format", "machine")
    assert code == 1
    assert err.startswith("error: ")
    assert json.loads(out) == {"error": {"type": error, "message": err[len("error: ") : -1]}}


def test_run_builds_no_parser(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["fixtures"]) == 0
    assert run(["check", "unit", "--format", "machine"]) == 0
    assert built == []


# each subcommand's options, with a value to give them (None: a flag)
_OPTIONS = {
    "check": {"--nr-bound": "2"},
    "closure": {"--instance": "a1,a2"},
    "er": {"--instance": "a1,a2", "--method": "full"},
    "graph": {"--dot": "g.dot", "--components": None, "--clique-cover": None},
    "quotient": {"--nr-bound": "2"},
    "order": {"--variant": "left"},
}
_COMMON = {"--format": "machine", "--budget-elements": "5", "--budget-rounds": "2"}


def _argv_corpus():
    corpus = [
        [], ["-h"], ["--help"], ["-h", "check"], ["--format", "machine", "check", "p1"],
        ["frobnicate"], ["frobnicate", "p1"], ["--", "check", "p1"], ["fixtures"],
        ["fixtures", "--format", "machine"], ["fixtures", "--format=text"], ["fixtures", "-h"],
        ["fixtures", "p1"], ["fixtures", "--form", "machine"],
    ]
    for command, options in _OPTIONS.items():
        corpus += [
            [command], [command, "p1"], [command, "-h"], [command, "p1", "-h"],
            [command, "p1", "--help"], [command, "p1", "--he"], [command, "p1", "extra"],
            [command, "p1", "--bogus"], [command, "p1", "--bogus", "x", "y"],
            [command, "--", "p1"], [command, "p1", "--"], [command, "--", "--format"],
            [command, "p1", "--format", "json"], [command, "p1", "--budget", "3"],
            [command, "p1", "--budget-elements", "0"], [command, "p1", "--budget-rounds=-4"],
            [command, "p1", "--budget-elements", "x"], [command, "p1", "--format"],
        ]
        for option, value in {**_COMMON, **options}.items():
            given = [option] if value is None else [option, value]
            joined = option if value is None else f"{option}={value}"
            corpus += [
                [command, "p1", *given], [command, *given, "p1"], [command, "p1", joined],
                [command, "p1", option[:6], *given[1:]], [command, "p1", *given, *given],
            ]
    corpus += [
        ["er", "p1", "--method", "nope"], ["er", "p1", "--method"], ["order", "p1", "--variant=up"],
        ["check", "p1", "--nr-bound", "0"], ["quotient", "p1", "--nr", "x"],
        ["graph", "p1", "--comp", "--cl"], ["graph", "p1", "--c"], ["er", "p1", "--m", "auto"],
        ["closure", "p1", "--instance", "-x"], ["closure", "p1", "--instance=-x"],
        ["check", "p1", "q2"], ["check", "-5"], ["check", "p1", "-f"],
        # the argv shapes the benchmark runs
        ["graph", "p1", "--components", "--clique-cover", "--format", "machine"],
        ["closure", "p1", "--instance", "a1,a2", "--format", "machine"],
        ["er", "p1", "--method", "full", "--format", "machine"],
        # the last repeat wins, and a flag may repeat
        ["check", "p1", "--nr-bound", "2", "--nr-bound", "5"],
        ["er", "p1", "--method", "full", "--instance", "a", "--method", "maximal", "--instance", "b"],
        ["graph", "p1", "--components", "--clique-cover", "--components"],
        # empty, dash-led and padded values
        ["check", ""], ["closure", "p1", "--instance", ""], ["closure", "p1", "--instance", "--format"],
        ["check", "p1", "--budget-elements", "-3"], ["check", "p1", "--nr-bound", " 2"],
        ["fixtures", "--format", "machine", "extra"],
    ]
    # every option of a subcommand at once, in two orders
    for command, options in _OPTIONS.items():
        given = [
            [option] if value is None else [option, value]
            for option, value in {**_COMMON, **options}.items()
        ]
        corpus += [[command, "p1", *sum(given, [])], [command, *sum(given[::-1], []), "p1"]]
    return corpus


# one canonical argv per subcommand, and every argv shape bench/workloads.py runs
_CANONICAL = [
    ["check", "fixtures/p1", "--nr-bound", "3", "--format", "machine"],
    ["quotient", "fixtures/leftzero2", "--nr-bound", "3", "--format", "machine"],
    ["order", "fixtures/p1", "--format", "machine"],
    ["graph", "fixtures/max10", "--components", "--clique-cover", "--format", "machine"],
    ["closure", "fixtures/chain12", "--instance", "a1,a2", "--format", "machine"],
    ["closure", "fixtures/records", "--format", "machine"],
    ["er", "fixtures/records", "--method", "full", "--format", "machine"],
    ["er", "fixtures/p1", "--instance", "a,b", "--budget-elements", "50", "--budget-rounds", "9"],
    ["fixtures", "--format", "machine"],
    ["fixtures"],
]


def test_canonical_argv_skips_argparse(capsys, monkeypatch):
    import argparse

    calls = []
    for name in ("parse_known_args", "parse_args"):
        method = getattr(argparse.ArgumentParser, name)

        def counting(self, *args, _method=method, **kwargs):
            calls.append(args)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, name, counting)
    for argv in _CANONICAL:
        assert run(list(argv)) in (0, 1), argv
        assert calls == [], argv
    capsys.readouterr()
    # any other spelling is argparse's to read
    for argv in (
        ["fixtures", "--format=machine"],
        ["check", "fixtures/p1", "--form", "machine"],
        ["check", "-h"],
        ["check", "fixtures/p1", "--nr-bound", "0"],
    ):
        calls.clear()
        run(list(argv))
        assert calls, argv
    capsys.readouterr()


def test_parse_matches_the_top_level_parser(capsys, monkeypatch):
    # help and usage lines wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "100")
    outcomes = set()
    for argv in _argv_corpus():
        results = []
        for parse in (cli._parse, cli._PARSER.parse_args):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
            results.append((result, capsys.readouterr()))
        assert results[0] == results[1], argv
        outcomes.add(type(results[0][0]).__name__ if results[0][1].err == "" else "error")
    assert outcomes == {"dict", "int", "error"}


def test_emitter_matches_json_dumps_on_every_machine_payload(capsys, monkeypatch):
    payloads = []
    emit = cli._json
    monkeypatch.setattr(cli, "_json", lambda payload: payloads.append(payload) or emit(payload))
    for argv in _surface_runs():
        invoke(capsys, *argv, "--format", "machine")
    assert len(payloads) > 100
    for payload in payloads:
        assert emit(payload) == json.dumps(payload, indent=2, sort_keys=True)


_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud7ff\U0001f600') | st.characters())
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _TEXT
    | st.lists(_TEXT)
    | st.lists(st.booleans() | st.integers())
    | st.lists(_TEXT | st.integers() | st.none())
    | st.lists(st.lists(_TEXT, max_size=3), max_size=4)
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@given(_PAYLOADS)
def test_emitter_matches_json_dumps_on_nested_payloads(payload):
    assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [{"a": {1, 2}}, [object()], {"a": b"x"}])
def test_emitter_rejects_what_json_cannot_write(payload):
    with pytest.raises(TypeError):
        cli._json(payload)


def test_machine_output_is_sorted_indented_json(capsys):
    for argv in _surface_runs():
        code, out, _ = invoke(capsys, *argv, "--format", "machine")
        if code != 2:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
