"""Command-line interface.

Subcommands: check, closure, er, graph, quotient, order, fixtures.
Inputs are groupoid or records documents (paths, with or without the .json
suffix) or built-in fixture names like ``p1`` or ``chain:12``.  Output is
deterministic byte-for-byte for identical inputs and flags.  ``run`` alone
does a call's input and output: it resolves the input, hands it to the
command, labels the payload with it and prints the format asked for.  Each
command computes one result: an exit code, a machine payload and a function
that builds the text lines, called only under ``--format text``.
``--format machine`` prints the payload as one JSON object, budget
exhaustion and domain errors (``{"error": {"type", "message"}}``) included.
Only ``quotient``'s ``quotient`` member is a groupoid document the loaders
accept.

Exit codes: 0 success, 1 structured domain outcomes (budget exhaustion,
unmet hypotheses), 2 malformed input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from . import adapters
from .errors import (
    DomainNotSymmetricError,
    LoadError,
    MatchMergeError,
    NotPartialOrderError,
    UnknownFixtureError,
)
from .groupoid import BlackBoxGroupoid, Budget, FiniteGroupoid
from .properties import ICAR, Property, check_property, implication_audit, property_report
from .quotient import class_semigroup_check, quotient, quotient_idempotence_check

# documents, domaingraph, order and resolution are imported by the commands
# that use them, so a cold start loads only what its command runs.


@dataclass
class CliInput:
    label: str
    host: FiniteGroupoid | BlackBoxGroupoid
    members: tuple  # the carrier ids, or the records of a records document
    order_pairs: tuple | None = None

    @property
    def records(self) -> bool:
        return isinstance(self.host, BlackBoxGroupoid)

    def finite(self, budget: Budget) -> FiniteGroupoid:
        if self.records:
            return adapters.materialize(self.host, self.members, budget)
        return self.host


def _find_file(spec: str) -> Path | None:
    """The file ``spec`` names, with or without the .json suffix."""
    for name in (spec, spec + ".json"):
        # Path drops a trailing "/" or "/." that the file system would read
        # as "a directory"; test those spellings the way Path reads them
        if os.path.isfile(name) or (name.endswith(("/", "/.")) and Path(name).is_file()):
            return Path(name)
    return None


def _resolve_input(spec: str) -> CliInput:
    path = _find_file(spec)
    if path is not None:
        from . import documents

        doc = documents.load_document(path)
        label = str(path)
        if isinstance(doc, documents.GroupoidDocument):
            g = doc.groupoid
            return CliInput(label, g, g.elements, doc.order_pairs)
        host = adapters.record_groupoid(doc.key_attributes)
        return CliInput(label, host, doc.records)
    name, _, size = spec.partition(":")
    try:
        fixture = adapters.builtin(name, int(size) if size else None)
    except ValueError as exc:
        raise LoadError(spec, f"bad fixture size {size!r}") from exc
    except UnknownFixtureError as exc:
        # a known name with a wrong size says what is wrong with the size
        message = str(exc) if name.lower() in adapters.BUILTINS else "no such file or fixture"
        raise LoadError(spec, message) from None
    return CliInput(f"builtin:{spec}", fixture, fixture.elements)


def _parse_instance(arg: str | None, loaded: CliInput):
    """Instance members: a comma-separated id list, an instance document
    path, or (by default) everything in the input."""
    if arg is None:
        return list(loaded.members)
    path = _find_file(arg)
    if path is not None:
        from . import documents

        doc = documents.load_instance(path)
        if doc.records is None:
            ids = list(doc.element_ids)
        elif not loaded.records:
            raise LoadError(arg, "record instance given for a groupoid input")
        else:
            for i, record in enumerate(doc.records):
                if not loaded.host.features(record):
                    raise LoadError(arg, f"instance[{i}] has no key attribute")
            return list(doc.records)
    else:
        ids = _record_ids(arg) if loaded.records else [i for i in arg.split(",") if i]
        if not ids:
            raise LoadError(arg, "empty instance")
    # a table's members are its ids, so only records are looked up by key
    known = {loaded.host.key(m): m for m in loaded.members} if loaded.records else loaded.host
    missing = [i for i in ids if i not in known]
    if missing:
        where = "not among the input records" if loaded.records else "outside the carrier"
        raise LoadError(arg, f"instance ids {where}: {missing}")
    return [known[i] for i in ids] if loaded.records else ids


def _record_ids(text: str) -> list[str]:
    """The ids of a comma-separated list of record ids.  A record id is
    compact JSON, which may hold commas, so each id ends where its JSON
    value does; text that starts no JSON value is one id to the end."""
    decode = json.JSONDecoder().raw_decode
    ids, i = [], 0
    while i < len(text):
        if text[i] == ",":
            i += 1
            continue
        try:
            end = decode(text, i)[1]
        except (ValueError, RecursionError):
            end = len(text)
        ids.append(text[i:end])
        i = end
    return ids


def _fmt_witness(witness) -> str:
    if witness is None:
        return "-"
    return "(" + ", ".join(str(w) for w in witness) + ")"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _bracketed(names) -> str:
    return "[" + ", ".join(names) + "]"


def _law(name: str, verdict) -> str:
    """`` name=yes`` or `` name=no (witness)`` for one law of an order."""
    witness = "" if verdict.holds else f" {_fmt_witness(verdict.witness)}"
    return f" {name}={_yesno(verdict.holds)}{witness}"


# -- check -------------------------------------------------------------------


def _cmd_check(args, loaded):
    g = loaded.finite(_budget(args))
    report = property_report(g, args.nr_bound)
    violations = implication_audit(g, report)
    verdicts = report.verdicts.items()  # in Property order
    payload = {
        "elements": len(g),
        "properties": [
            {
                "property": str(p), "holds": v.holds, "universe": v.checked_universe,
                "witness": list(v.witness) if v.witness else None,
            }
            for p, v in verdicts
        ],
        "is_icar": report.is_icar,
        "is_partial_semigroup_ca": report.is_partial_semigroup_ca,
        "implication_violations": violations,
    }
    return (1 if violations else 0), payload, lambda: [
        f"input: {loaded.label} ({len(g)} elements, {len(g.table)} compositions)",
        f"{'property':<9} {'holds':<6} {'witness':<18} universe",
        *(
            f"{p!s:<9} {_yesno(v.holds):<6} {_fmt_witness(v.witness):<18} {v.checked_universe}"
            for p, v in verdicts
        ),
        f"ICAR (I, SC, A, R): {_yesno(report.is_icar)}",
        f"partial semigroup (CA): {_yesno(report.is_partial_semigroup_ca)}",
        "implication audit: "
        + ("CHECKER BUG, violated: " + "; ".join(violations) if violations else "ok"),
    ]


# -- closure -----------------------------------------------------------------


def _cmd_closure(args, loaded):
    from . import resolution

    members = _parse_instance(args.instance, loaded)
    result = resolution.merge_closure(loaded.host, members, _budget(args))
    carrier = sorted(result.carrier)
    budget = result.budget
    payload = {
        "status": result.status,
        "iterations": result.iterations,
        "budget": {"max_elements": budget.max_elements, "max_rounds": budget.max_rounds},
        "carrier": carrier,
    }
    return (0 if result.closed else 1), payload, lambda: [
        f"input: {loaded.label}",
        f"status: {result.status}",
        f"carrier: {len(carrier)} elements",
        f"iterations: {result.iterations}",
        f"budget: max_elements={budget.max_elements} max_rounds={budget.max_rounds}",
        "elements:",
        *(f"  {e}" for e in carrier),
    ]


# -- er ----------------------------------------------------------------------


def _cmd_er(args, loaded):
    from . import resolution

    budget = _budget(args)
    members = _parse_instance(args.instance, loaded)
    closure = resolution.merge_closure(loaded.host, members, budget)
    payload = {"closure": {"status": closure.status, "carrier": sorted(closure.carrier)}}
    if not closure.closed:
        payload["closure"]["iterations"] = closure.iterations
        return 1, payload, lambda: [
            f"input: {loaded.label}",
            f"closure: {closure.status} after {closure.iterations} iterations"
            f" ({len(closure.carrier)} elements)",
        ]

    method = args.method
    note = ""
    trail = []
    if method == "auto":
        g = closure.groupoid
        guard = resolution.BRUTEFORCE_CARRIER_GUARD
        if all(check_property(g, p).holds for p in ICAR):
            method, note = "rswoosh", "ICAR verified"
        elif all(
            check_property(g, p).holds
            for p in (Property.IDEMPOTENT, Property.CATENARY_ASSOCIATIVE)
        ):
            method, note = "maximal", "I and CA verified"
        elif len(closure.carrier) <= guard:
            method, note = "bruteforce", f"carrier <= {guard}"
        else:
            method, note = "full", "no hypotheses verified"
        trail.append(f"{note} -> {method}")

    if method == "rswoosh":
        # a table input is resolved over its closure, and ICAR is checked there
        host = loaded.host if loaded.records else closure.groupoid
        result = resolution.r_swoosh(host, members, budget)
    else:
        result = getattr(resolution, f"er_{method}")(closure)

    payload.update(
        decision_trail=trail,
        method=result.method,
        note=note,
        resolved=list(result.resolved),
        certificate=result.certificate,
    )
    return 0, payload, lambda: [
        f"input: {loaded.label}",
        f"closure: {closure.status}, {len(closure.carrier)} elements",
        *(f"decision: {t}" for t in trail),
        f"method: {result.method}" + (f" ({note})" if note else ""),
        f"resolved ({len(result.resolved)}):",
        *(f"  {e}" for e in result.resolved),
        f"certificate: {result.certificate}",
    ]


# -- graph -------------------------------------------------------------------


def _cmd_graph(args, loaded):
    from . import domaingraph

    g = loaded.finite(_budget(args))
    dg = domaingraph.domain_graph(g)
    try:
        totality = domaingraph.is_total(g)
    except DomainNotSymmetricError:
        totality = None
    payload = {
        "nodes": sorted(dg.nodes),
        "edges": sorted([p, q] for p, q in dg.edges),
        "total": None if totality is None else totality.total,
    }
    if args.components:
        payload["components"] = [sorted(c.nodes) for c in domaingraph.connected_components(dg)]
    if args.clique_cover:
        cliques = domaingraph.clique_cover(dg).cliques
        payload["cliques"] = [
            {"nodes": sorted(c.nodes), "total": c.is_total, "leaks": sorted(map(list, c.leaks))}
            for c in cliques
        ]
    if args.dot:
        try:
            Path(args.dot).write_text(domaingraph.to_dot(dg), encoding="utf-8")
        except OSError as exc:
            raise LoadError(args.dot, exc.strerror) from exc
        payload["dot"] = args.dot

    def text():
        lines = [f"input: {loaded.label}", f"nodes: {len(dg.nodes)}, edges: {len(dg.edges)}"]
        if totality is None:
            lines.append("total: n/a (domain not symmetric)")
        else:
            missing = f" (missing {_fmt_witness(totality.missing)})" if totality.missing else ""
            lines.append(f"total: {_yesno(totality.total)}{missing}")
        if args.components:
            lines.append(f"components ({len(payload['components'])}):")
            lines.extend(f"  {_bracketed(nodes)}" for nodes in payload["components"])
        if args.clique_cover:
            lines.append(f"cliques ({len(cliques)}):")
            lines.extend(
                f"  {_bracketed(c.nodes)} total={_yesno(c.is_total)}"
                + (f" leaks={len(c.leaks)}" if c.leaks else "")
                for c in cliques
            )
        if args.dot:
            lines.append(f"dot written: {args.dot}")
        return lines

    return 0, payload, text


# -- quotient ----------------------------------------------------------------


def _cmd_quotient(args, loaded):
    from . import documents

    g = loaded.finite(_budget(args))
    q = quotient(g, args.nr_bound)
    stable = quotient_idempotence_check(g, args.nr_bound)
    classes = q.classes
    checks = [class_semigroup_check(g, cls, args.nr_bound) for cls in classes.classes]
    doc = documents.groupoid_to_document(q.groupoid)
    payload = {
        "word_bound": classes.word_bound,
        "classes": [list(cls) for cls in classes.classes],
        "representatives": list(classes.representatives),
        "quotient": doc,
        "stable_under_requotient": stable.holds,
        "classes_are_semigroups": all(v.holds for v in checks),
    }
    return 0, payload, lambda: [
        f"input: {loaded.label}",
        f"word bound: {classes.word_bound}",
        f"classes ({len(classes.classes)}):",
        *(
            f"  {_bracketed(cls)} -> {rep} (semigroup: {_yesno(check.holds)})"
            for cls, rep, check in zip(classes.classes, classes.representatives, checks)
        ),
        f"stable under re-quotient: {_yesno(stable.holds)}",
        "quotient groupoid document:",
        json.dumps(doc, indent=2),
    ]


# -- order -------------------------------------------------------------------


def _cmd_order(args, loaded):
    from . import order

    g = loaded.finite(_budget(args))
    variants = (
        list(order.OrderVariant) if args.variant == "all" else [order.OrderVariant(args.variant)]
    )
    payload = {"natural": {}}
    naturals = []  # (variant, pairs, laws, maximal elements), for the text
    for variant in variants:
        rel = order.natural_order(g, variant)
        ordered = rel.sorted_pairs()
        audit = order.order_law_audit(rel)
        maximal = order.maximal_elements(g, variant)
        laws = [
            (name, getattr(audit, name)) for name in ("reflexive", "antisymmetric", "transitive")
        ]
        naturals.append((variant, ordered, laws, maximal))
        section = payload["natural"][variant.value] = {"pairs": ordered, "maximal": maximal}
        section.update((name, verdict.holds) for name, verdict in laws)
    # both-full is left-full and right-full, so two passes give all three
    left = order.full_elements(g, order.OrderVariant.LEFT)
    right = order.full_elements(g, order.OrderVariant.RIGHT)
    both = set(left).intersection(right)
    payload["full"] = {
        "left": list(left), "right": list(right), "both": [p for p in left if p in both]
    }
    user = axioms = charac = None
    if loaded.order_pairs is not None:
        user_rel = order.OrderRelation(g.elements, frozenset(loaded.order_pairs), "user")
        try:
            axioms = order.check_order_axioms(g, user_rel)  # audits the partial-order laws first
        except NotPartialOrderError:
            pass
        user = payload["user_order"] = {
            "pairs": user_rel.sorted_pairs(),
            "is_partial_order": axioms is not None,
        }
        if axioms is not None:
            user["axioms"] = {
                "lub": axioms.lub.holds,
                "left_compat": axioms.left_compat.holds,
                "right_compat": axioms.right_compat.holds,
            }
            if all((p, p) in g.table for p in g.elements):
                charac = order._characterization(g, user_rel, axioms)
                user["characterization"] = {
                    "axioms_hold": charac.axioms_hold,
                    "algebra_holds": charac.algebra_holds,
                    "consistent": charac.holds,
                    "failed_axioms": list(charac.failed_axioms),
                    "failed_properties": list(charac.failed_properties),
                    "relation_matches_natural": charac.relation_matches_natural,
                }

    def text():
        lines = [f"input: {loaded.label}"]
        for variant, ordered, laws, maximal in naturals:
            lines.append(f"natural {variant.value}: {len(ordered)} pairs")
            lines.extend(f"  {p} <= {q}" for p, q in ordered)
            lines.append("  laws:" + "".join(_law(name, verdict) for name, verdict in laws))
            lines.append(f"  maximal: {_bracketed(maximal)}")
        full = payload["full"].items()
        lines.append("full: " + " ".join(f"{v}={_bracketed(names)}" for v, names in full))
        if user is None:
            return lines
        lines.append(f"user order: {len(user['pairs'])} pairs")
        if axioms is None:
            lines.append("  axioms: skipped (not a partial order)")
            return lines
        lines.append("  axioms:" + "".join(f" {k}={_yesno(v)}" for k, v in user["axioms"].items()))
        if charac is not None:
            lines.append(
                f"  characterization: axioms={_yesno(charac.axioms_hold)}"
                f" algebra={_yesno(charac.algebra_holds)}"
                f" consistent={_yesno(charac.holds)}"
                f" failed_axioms={_bracketed(charac.failed_axioms)}"
                f" failed_properties={_bracketed(charac.failed_properties)}"
                f" natural={_yesno(charac.relation_matches_natural)}"
            )
        return lines

    return 0, payload, text


# -- fixtures ----------------------------------------------------------------


def _cmd_fixtures(args, loaded):
    fixtures = sorted(adapters.BUILTINS.items())
    payload = {
        name: {"description": desc, "default_size": size} for name, (desc, size, _) in fixtures
    }
    return 0, payload, lambda: [
        f"{name:<10} {desc}" + ("" if size is None else f" (sized, default {size})")
        for name, (desc, size, _) in fixtures
    ]


# -- machine output ----------------------------------------------------------


def _json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, so
    this walks the payload itself and leaves the per-string work to the C
    string encoder.  Dict keys must be strings; a value that is not a
    string, int, bool, None, list, tuple or dict raises ``TypeError``.
    """
    pieces = []
    _emit(payload, pieces, "\n")
    return "".join(pieces)


def _emit(value, pieces: list, indent: str) -> None:
    """Append the pieces of ``value``, whose line breaks are ``indent``."""
    if isinstance(value, str):
        pieces.append(_string(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = indent + "  "
        if set(map(type, value)) == {str}:
            pieces.append("[" + inner + ("," + inner).join(map(_string, value)))
        elif _rows_of_strings(value):
            deeper = inner + "  "
            rows = map(("," + deeper).join, map(partial(map, _string), value))
            start, end = "[" + deeper, inner + "]"
            pieces.append("[" + inner + start + (end + "," + inner + start).join(rows) + end)
        else:
            separator = "[" + inner
            for item in value:
                pieces.append(separator)
                separator = "," + inner
                _emit(item, pieces, inner)
        pieces.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append(separator + _string(key) + ": ")
            separator = "," + inner
            _emit(value[key], pieces, inner)
        pieces.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _rows_of_strings(value) -> bool:
    """Is ``value`` a non-empty sequence of non-empty lists or tuples of
    plain strings?"""
    return (
        set(map(type, value)) <= {list, tuple}
        and all(value)
        and set(map(type, itertools.chain.from_iterable(value))) == {str}
    )


# -- wiring ------------------------------------------------------------------


def _budget(args) -> Budget:
    return Budget(args.budget_elements, args.budget_rounds)


def _at_least_one(quantity: str):
    """An argparse type: an int of at least 1, named ``quantity`` in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{quantity} must be at least 1, got {value}")
        return value

    return parse


class _Subcommand:
    """A subcommand's parser, and the actions it declares, read without it.

    ``read`` turns a canonical argv into the namespace the parser would
    build.  Canonical means that each token is an exact option string
    followed by one value that does not start with ``-``, an exact
    ``store_true`` flag, or a positional that does not start with ``-``;
    that the positionals are exactly those declared; and that every value
    passes its action's ``type`` and ``choices``.  The last repeat of an
    option wins, as in argparse.  Defaults are taken as declared: argparse
    would pass a string default through ``type``, and no typed option here
    has one (``test_parse_matches_the_top_level_parser`` would catch the
    first that does).
    """

    def __init__(self, parser: argparse.ArgumentParser, func, shared=()):
        parser.set_defaults(func=func)
        self.parser = parser
        self.options, self.positionals, self.defaults = {}, [], {"func": func}
        for action in shared:  # the actions ``parser`` takes from its parents
            self._record(action)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        """``parser.add_argument``, keeping the action for ``read``."""
        action = self.parser.add_argument(*args, **kwargs)
        self._record(action)
        return action

    def _record(self, action: argparse.Action) -> None:
        self.options.update(dict.fromkeys(action.option_strings, action))
        if not action.option_strings:
            self.positionals.append(action)
        self.defaults[action.dest] = action.default

    def read(self, tokens: list[str]) -> argparse.Namespace | None:
        """The namespace of ``tokens``, or None if they are not canonical."""
        values = dict(self.defaults)
        positionals = iter(self.positionals)
        tokens = iter(tokens)
        for token in tokens:
            if token.startswith("-"):
                action = self.options.get(token)
                if action is None:
                    return None
                if action.nargs == 0:  # a store_true flag
                    values[action.dest] = action.const
                    continue
                token = next(tokens, None)
                if token is None or token.startswith("-"):
                    return None
            else:
                action = next(positionals, None)
                if action is None:
                    return None
            try:
                value = token if action.type is None else action.type(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        if next(positionals, None) is not None:
            return None
        return argparse.Namespace(**values)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Subcommand]]:
    """The top-level parser, and each subcommand by name."""
    parser = argparse.ArgumentParser(
        prog="matchmerge",
        description="Audit match/merge systems modeled as partial groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = _at_least_one("budget")
    word_bound = _at_least_one("word bound")

    # a parent's actions are shared, not copied, by the parsers built from it
    common = argparse.ArgumentParser(add_help=False)
    shared = (
        common.add_argument("input", help="groupoid/records document path or builtin fixture name"),
        common.add_argument("--format", choices=("text", "machine"), default="text"),
        common.add_argument("--budget-elements", type=budget, default=Budget().max_elements),
        common.add_argument("--budget-rounds", type=budget, default=Budget().max_rounds),
    )
    commands = {}

    def command(name: str, func, help: str, shared=shared) -> _Subcommand:
        p = sub.add_parser(name, parents=[common] if shared else [], help=help)
        commands[name] = _Subcommand(p, func, shared)
        return commands[name]

    p = command("check", _cmd_check, "property report and implication audit")
    p.add_argument("--nr-bound", type=word_bound, default=3)

    p = command("closure", _cmd_closure, "merge closure of an instance")
    p.add_argument("--instance", help="comma-separated ids, or an instance document path")

    p = command("er", _cmd_er, "entity resolution of an instance")
    p.add_argument("--instance", help="comma-separated ids, or an instance document path")
    p.add_argument(
        "--method",
        choices=("auto", "bruteforce", "full", "maximal", "rswoosh"),
        default="auto",
    )

    p = command("graph", _cmd_graph, "domain graph views")
    p.add_argument("--dot", help="write a dot rendering to this path")
    p.add_argument("--components", action="store_true")
    p.add_argument("--clique-cover", action="store_true")

    p = command("quotient", _cmd_quotient, "mutual-absorption quotient")
    p.add_argument("--nr-bound", type=word_bound, default=3)

    p = command("order", _cmd_order, "natural orders, audits, maximal and full sets")
    p.add_argument("--variant", choices=("left", "right", "both", "all"), default="all")

    p = command("fixtures", _cmd_fixtures, "list builtin fixtures", shared=())
    p.add_argument("--format", choices=("text", "machine"), default="text")

    return parser, commands


_PARSER, _SUBCOMMANDS = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with the same namespace and messages.

    When ``argv`` starts with a subcommand, the top-level parser would only
    hand the rest to that subcommand's parser.  A canonical rest (see
    ``_Subcommand``) is read straight off the subcommand's declared actions;
    any other spelling goes to the subcommand's parser, and an argument it
    leaves over to the top-level parser, so help, usage and error messages
    come from argparse alone.  Anything else (no arguments, ``-h``, an
    unknown command) goes to the top-level parser, which alone prints the
    top-level usage.
    """
    sub = _SUBCOMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args = sub.read(argv[1:])
    if args is None:
        args, extras = sub.parser.parse_known_args(argv[1:])
        if extras:
            _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        loaded = _resolve_input(args.input) if hasattr(args, "input") else None
        code, payload, text = args.func(args, loaded)
    except MatchMergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, LoadError):
            return 2
        # a domain error is still one result in machine output; text stays empty
        code, payload, text = 1, {"error": {"type": type(exc).__name__, "message": str(exc)}}, None
    else:
        if loaded is not None:
            payload["input"] = loaded.label
    if args.format == "machine":
        sys.stdout.write(_json(payload) + "\n")
    elif text is not None:
        sys.stdout.write("\n".join(text()) + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
