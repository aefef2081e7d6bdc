"""The package's public surface, and which modules each entry point loads.

The package resolves its public names on first access, and the CLI imports
documents, domaingraph, order and resolution only in the commands that use
them, so a cold start loads only what its command runs.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchmerge
from matchmerge import cli

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "adapters": (
        "BUILTINS", "Digraph", "DiPath", "Record", "builtin", "materialize",
        "path_groupoid", "record_groupoid",
    ),
    "documents": (
        "GroupoidDocument", "InstanceDocument", "RecordsDocument", "dump_groupoid",
        "groupoid_to_document", "load_digraph", "load_document", "load_groupoid",
        "load_instance", "load_records",
    ),
    "domaingraph": (
        "Clique", "CliqueCover", "Component", "DomainGraph", "TotalityReport",
        "clique_cover", "connected_components", "domain_graph", "is_total", "to_dot",
    ),
    "errors": (
        "BudgetExhaustedError", "CongruenceError", "DomainNotReflexiveError",
        "DomainNotSymmetricError", "ForeignElementError", "HypothesesNotSatisfiedError",
        "IcarViolationError", "InternalInvariantError", "LoadError", "MatchMergeError",
        "NotGeneratingSetError", "NotHomomorphismError", "NotPartialOrderError",
        "SizeGuardError", "UnknownFixtureError",
    ),
    "groupoid": (
        "BUDGET_EXHAUSTED", "CLOSED", "BlackBoxGroupoid", "Budget", "ClosureResult",
        "ElementId", "FiniteGroupoid", "Homomorphism", "Verdict", "check_homomorphism",
        "generated_subgroupoid", "image", "irreducible_generating_set", "null_extension",
    ),
    "order": (
        "OrderAxiomsReport", "OrderCharacterization", "OrderLawAudit", "OrderRelation",
        "OrderVariant", "check_order_axioms", "dominates", "full_elements",
        "maximal_elements", "natural_order", "order_characterization", "order_law_audit",
    ),
    "properties": (
        "Property", "PropertyReport", "PropertyVerdict", "check_property",
        "implication_audit", "property_report",
    ),
    "quotient": (
        "CongruenceClasses", "QuotientGroupoid", "class_semigroup_check",
        "congruence_classes", "quotient", "quotient_idempotence_check",
    ),
    "resolution": (
        "ERResult", "er_bruteforce", "er_full", "er_maximal", "merge_closure", "r_swoosh",
    ),
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


# -- public surface ------------------------------------------------------------


def test_all_lists_the_public_names():
    assert len(NAMES) == 87
    assert sorted(matchmerge.__all__) == NAMES
    assert len(matchmerge.__all__) == len(NAMES)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_defining_modules_object(module):
    source = importlib.import_module(f"matchmerge.{module}")
    for name in PUBLIC[module]:
        assert getattr(matchmerge, name) is getattr(source, name), name


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(matchmerge))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        matchmerge.no_such_name
    assert not hasattr(matchmerge, "WellDefinednessError")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from matchmerge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_a_name_patched_on_its_module_reads_patched_through_the_package(monkeypatch):
    import matchmerge.order as order

    def patched(*args):
        return ()

    monkeypatch.setattr(order, "natural_order", patched)
    assert matchmerge.natural_order is patched
    monkeypatch.undo()
    assert matchmerge.natural_order is order.natural_order
    assert "natural_order" not in vars(matchmerge)


def test_quotient_stays_the_function(capsys):
    import matchmerge.quotient  # noqa: F401

    assert matchmerge.quotient is sys.modules["matchmerge.quotient"].quotient
    assert cli.run(["quotient", "maxnat"]) == 0
    capsys.readouterr()
    assert matchmerge.quotient is sys.modules["matchmerge.quotient"].quotient


# -- modules each entry point loads --------------------------------------------


def _loaded(*argv) -> set[str]:
    """The matchmerge modules a fresh interpreter imports running ``argv``,
    read from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {n for n in names if n == "matchmerge" or n.startswith("matchmerge.")}


PACKAGE = {
    "matchmerge",
    "matchmerge.errors",
    "matchmerge.groupoid",
    "matchmerge.properties",
    "matchmerge.quotient",
}
LAZY = {"matchmerge.order", "matchmerge.resolution", "matchmerge.domaingraph"}


def test_import_loads_only_the_quotient_and_what_it_needs():
    assert _loaded("-c", "import matchmerge") == PACKAGE


def test_fixtures_adds_only_the_adapters_and_the_cli():
    # ``-m`` runs the cli module as __main__, so it is not imported by name
    assert _loaded("-m", "matchmerge.cli", "fixtures") == PACKAGE | {"matchmerge.adapters"}
    assert _loaded("-c", "from matchmerge.cli import run; run(['fixtures'])") == (
        PACKAGE | {"matchmerge.adapters", "matchmerge.cli"}
    )


def test_check_loads_no_order_resolution_or_domaingraph():
    loaded = _loaded("-m", "matchmerge.cli", "check", "fixtures/p1.json")
    assert "matchmerge.documents" in loaded
    assert not loaded & LAZY


def test_order_loads_no_resolution_or_domaingraph():
    loaded = _loaded("-m", "matchmerge.cli", "order", "fixtures/p1.json")
    assert "matchmerge.order" in loaded
    assert not loaded & {"matchmerge.resolution", "matchmerge.domaingraph"}
