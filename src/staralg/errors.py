"""Exception hierarchy for the workbench."""


class StarAlgError(Exception):
    """Base class for all workbench errors. ``residual``, appended to the message when given, is the
    failed certificate's residual; NaN when the failure measured none."""

    def __init__(self, message, residual=None):
        super().__init__(message if residual is None else f"{message} (residual {residual:.3e})")
        self.residual = float("nan") if residual is None else residual


class MalformedInput(StarAlgError):
    """Input tensors/tables have inconsistent shapes or invalid entries."""


class ValidationFailed(StarAlgError):
    """An algebra failed the axiom validation; carries the report."""

    def __init__(self, report):
        super().__init__(f"algebra validation failed: {report}")
        self.report = report


class ParentMismatch(StarAlgError):
    """Operation on elements of different parent algebras."""


class IllConditioned(StarAlgError):
    """A rank/root decision was numerically ambiguous at the given tolerance."""


class DecompositionFailed(StarAlgError):
    """Orthogonal-projection decomposition could not be certified: on a non-proper algebra, where
    such decompositions need not exist, the expected outcome, not a bug."""


class NotPositive(StarAlgError):
    """Square root requested of an element that is not positive."""


class DegenerateInput(StarAlgError):
    """Operation undefined on this input (e.g. zero element)."""


class NoCStarNorm(StarAlgError):
    """The algebra admits no C*-norm (involution not proper)."""


class NotARightIdeal(StarAlgError):
    """Subspace handed to the projection-generator search is not a right ideal."""


class GroupTableError(StarAlgError):
    """A Cayley table is not a group table."""


class ClosureCapExceeded(StarAlgError):
    """Permutation closure exceeded the cap; the generated group may be infinite."""


class DegenerateRandomness(StarAlgError):
    """A randomized refinement failed to make progress; retry with a new seed."""


class InternalInconsistency(StarAlgError):
    """Checks that must agree by theorem disagreed; tolerance too loose/tight."""
