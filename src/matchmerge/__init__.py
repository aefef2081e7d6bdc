"""matchmerge: algebraic audits and entity resolution for match/merge systems
modeled as partial groupoids."""

from .adapters import (
    BUILTINS,
    Digraph,
    DiPath,
    Record,
    builtin,
    materialize,
    path_groupoid,
    record_groupoid,
)
from .documents import (
    GroupoidDocument,
    InstanceDocument,
    RecordsDocument,
    dump_groupoid,
    groupoid_to_document,
    load_digraph,
    load_document,
    load_groupoid,
    load_instance,
    load_records,
)
from .domaingraph import (
    Clique,
    CliqueCover,
    Component,
    DomainGraph,
    TotalityReport,
    clique_cover,
    connected_components,
    domain_graph,
    is_total,
    to_dot,
)
from .errors import (
    BudgetExhaustedError,
    CongruenceError,
    DomainNotReflexiveError,
    DomainNotSymmetricError,
    ForeignElementError,
    HypothesesNotSatisfiedError,
    IcarViolationError,
    InternalInvariantError,
    LoadError,
    MatchMergeError,
    NotGeneratingSetError,
    NotHomomorphismError,
    NotPartialOrderError,
    SizeGuardError,
    UnknownFixtureError,
)
from .groupoid import (
    BUDGET_EXHAUSTED,
    CLOSED,
    BlackBoxGroupoid,
    Budget,
    ClosureResult,
    ElementId,
    FiniteGroupoid,
    Homomorphism,
    Verdict,
    check_homomorphism,
    generated_subgroupoid,
    image,
    irreducible_generating_set,
    null_extension,
    product_of_subsets,
    word_product,
)
from .order import (
    OrderAxiomsReport,
    OrderCharacterization,
    OrderLawAudit,
    OrderRelation,
    OrderVariant,
    check_order_axioms,
    dominates,
    full_elements,
    maximal_elements,
    natural_order,
    order_characterization,
    order_law_audit,
)
from .properties import (
    Property,
    PropertyReport,
    PropertyVerdict,
    check_property,
    implication_audit,
    property_report,
)
from .quotient import (
    CongruenceClasses,
    QuotientGroupoid,
    class_semigroup_check,
    congruence_classes,
    mutually_absorbing,
    quotient,
    quotient_idempotence_check,
)
from .resolution import (
    ERResult,
    er_bruteforce,
    er_full,
    er_maximal,
    merge_closure,
    r_swoosh,
)

__version__ = "0.1.0"
