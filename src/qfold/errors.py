"""Exception hierarchy for qfold.

Every failure mode that callers are expected to handle gets its own class;
all of them inherit from QfoldError so a CLI can map them to exit code 1
(input problems) or 2 (verified property violated) uniformly.
"""


class QfoldError(Exception):
    """Base class for all qfold errors.  Keyword arguments are context
    fields kept in `context` (a `TooLarge` from a size cap states its
    `estimate` and `cap`, a `RelationViolation` its `vertex`); the CLI adds
    them to its --json error object."""

    def __init__(self, *args, **context):
        super().__init__(*args)
        self.context = context


class InputError(QfoldError):
    """Malformed or inconsistent input data."""


class PropertyViolation(QfoldError):
    """A checked mathematical property failed; signals a bug or bad data."""


# linalg and module_lab
class MixedCharacteristics(InputError, ValueError):
    """Matrices over two different fields met in one operation or one
    module; a ValueError too, as it was before it had a class."""


class MalformedEntry(InputError, ValueError):
    """A matrix entry string that `Fraction` cannot read, with Fraction's
    own message; a ValueError too, as Fraction's error is."""


# quiver_core
class NotAPermutation(InputError):
    pass


class IncompatibleWithIncidence(InputError):
    """Automorphism does not commute with edge incidence; names the edge."""


class SelfLoop(InputError):
    pass


class AmbiguousEdgeMap(InputError):
    """Edge permutation cannot be derived (parallel edges)."""


# split_quotient
class NotAdmissible(InputError):
    pass


class IsoNotFound(PropertyViolation):
    """The natural map from s(s(Q)) to Q is no isomorphism of the pair."""


class UnknownVertex(InputError):
    pass


class NotOrbitConstant(InputError):
    pass


class SigmaConstraintViolated(InputError):
    pass


class NotDiagonalizableOverCyclotomicEigenvalues(PropertyViolation):
    pass


# lie_fold
class UnsupportedFamily(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class NotSymmetrizable(InputError):
    pass


# rep_branch
class NotFiniteType(InputError):
    pass


class NotDominant(InputError):
    pass


class CharacterMismatch(PropertyViolation):
    """Weyl's dimension formula and the Freudenthal recursion disagree."""


class IndexMismatch(InputError):
    pass


# module_lab
class ShapeMismatch(InputError):
    pass


class RelationViolation(InputError):
    pass


class TooLarge(InputError):
    pass


class NotStable(InputError):
    pass


class NotInvertible(InputError):
    pass


class PreconditionViolation(InputError):
    pass


class WitnessVerificationFailed(PreconditionViolation):
    """The twisted double's witness fails: the construction needs an involution."""
