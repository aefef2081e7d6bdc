"""Exception types shared across the library.

Structured domain outcomes (budget exhaustion, unmet hypotheses, congruence
failures) are exceptions carrying their evidence, so callers can render the
witness instead of a bare message.
"""

from __future__ import annotations


class MatchMergeError(Exception):
    """Base class for all structured library errors."""


class _WitnessError(MatchMergeError):
    """An error whose evidence is one replayable witness (``.witness``)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ForeignElementError(MatchMergeError):
    """An element id is not a member of the groupoid's carrier."""

    def __init__(self, element):
        super().__init__(f"element {element!r} is not in the carrier")
        self.element = element


class NotGeneratingSetError(MatchMergeError):
    """The given set does not generate the whole carrier."""


class NotHomomorphismError(_WitnessError):
    """The mapping fails the homomorphism condition; carries the witness pair."""


class NotPartialOrderError(MatchMergeError):
    """A relation failed the reflexive/antisymmetric/transitive audit."""

    def __init__(self, message, audit=None):
        super().__init__(message)
        self.audit = audit


class DomainNotSymmetricError(_WitnessError):
    """An operation requiring a symmetric composition domain was refused."""


class DomainNotReflexiveError(_WitnessError):
    """An operation requiring (p, p) in the domain for every p was refused."""


class HypothesesNotSatisfiedError(MatchMergeError):
    """A method's algebraic preconditions failed; carries the failing verdicts."""

    def __init__(self, message, verdicts=()):
        super().__init__(message)
        self.verdicts = tuple(verdicts)


class BudgetExhaustedError(MatchMergeError):
    """A closure or merge budget ran out; carries the partial result if any."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class IcarViolationError(_WitnessError):
    """A merge rule declared idempotent/commutative/associative/representative
    produced a value contradicting that declaration at runtime."""


class CongruenceError(MatchMergeError):
    """The mutual-absorption relation failed an equivalence or compatibility
    law; usually means the word-idempotence bound was too low."""

    def __init__(self, law, witness):
        super().__init__(f"mutual-absorption relation violates {law}: witness {witness!r}")
        self.law = law
        self.witness = witness


class InternalInvariantError(MatchMergeError):
    """A consequence that should follow from verified hypotheses failed;
    indicates a checker bug rather than bad input."""


class SizeGuardError(MatchMergeError):
    """An oracle-grade exhaustive method was refused on an oversized input."""


class UnknownFixtureError(MatchMergeError):
    """No built-in fixture with the requested name."""


class LoadError(MatchMergeError):
    """A document failed to parse or validate; carries file position context."""

    def __init__(self, path, message, line=None, column=None):
        where = str(path)
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line
        self.column = column
