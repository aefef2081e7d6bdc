"""matchmerge: algebraic audits and entity resolution for match/merge systems
modeled as partial groupoids.

The public names are resolved on first access (PEP 562): reading
``matchmerge.natural_order`` imports ``matchmerge.order`` then, not before,
so a process loads only the modules it uses.  ``import matchmerge`` itself
loads ``errors``, ``groupoid``, ``properties`` and ``quotient``.  Each access
returns the defining module's current object and nothing is cached here, so
a name patched on its defining module reads patched through the package too.
"""

from importlib import import_module as _import_module

# ``quotient`` is the one name imported eagerly: it is also the name of its
# submodule, and the import system binds ``matchmerge.quotient`` to the module
# when the submodule is first imported.  Importing the function here, after
# that, makes the function the binding that stays.
from .quotient import quotient

_PUBLIC = {
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
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
