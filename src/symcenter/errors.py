"""Exception hierarchy for symcenter.

Exit-code mapping used by the CLI: SymcenterError subclasses are user/input
errors (exit 2); InternalCheckError signals a broken internal invariant and
is never converted into a verdict.
"""


class SymcenterError(Exception):
    """Base class for all user-facing errors."""


# -- field layer -------------------------------------------------------------

class FieldMismatch(SymcenterError):
    """Operands live in different fields."""


class DivisionByZero(SymcenterError):
    """Division by the zero scalar."""


class NoSuchOrder(SymcenterError):
    """No element of the requested multiplicative order exists."""


class InvalidField(SymcenterError):
    """Bad field parameters: composite characteristic, reducible or
    non-monic modulus, or a size beyond the desk-scale caps."""


class ScalarFormatError(SymcenterError):
    """A scalar literal does not parse in the field's syntax, or an encoded
    value lies outside the field."""


# -- linear algebra ----------------------------------------------------------

class AmbientMismatch(SymcenterError):
    """Subspace operands have different ambient dimensions."""


# -- algebras ----------------------------------------------------------------

class AlgebraMismatch(SymcenterError):
    """Elements of different algebras were combined."""


class AlgebraValidationError(SymcenterError):
    """Structure constants fail associativity or the unit law."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotNilpotent(SymcenterError):
    """A subspace expected to be nilpotent is not."""


class NotAnIdeal(SymcenterError):
    """A subspace expected to be a two-sided ideal is not."""


class ImproperIdeal(SymcenterError):
    """Quotient by the whole algebra was requested."""


# -- symmetrizing forms ------------------------------------------------------

class NotSymmetricForm(SymcenterError):
    """The Gram matrix of the proposed form is not symmetric."""


class Degenerate(SymcenterError):
    """The Gram matrix of the proposed form is singular."""


class CentralityViolated(SymcenterError):
    """An element required to be central is not."""


# -- constructions -----------------------------------------------------------

class BasisClaimFailed(SymcenterError):
    """A claimed monomial basis is dependent or does not span."""


# -- suites and CLI ----------------------------------------------------------

class UnknownCase(SymcenterError):
    """A suite filter names no corpus entry, lemma or sweep."""


class FileFormatError(SymcenterError):
    """An algebra definition file is malformed, or its radical hint names a
    span that is not the computed J(A).

    ``location`` is a line number (parse errors) or a path such as
    ``presentation.table[2][1]`` (semantic errors).
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class InternalCheckError(AssertionError):
    """An internal cross-check failed; indicates a bug, not an input error."""


class CriterionDisagreement(InternalCheckError):
    """The two independent ideal criteria disagreed on a verdict."""
