"""Exception types shared across the library."""


class DefectcaError(Exception):
    """Base class for all library-specific errors."""


class EmptySubshiftError(DefectcaError):
    """Raised when pruning leaves a subshift with no usable symbols."""


class NoChoicePointError(DefectcaError):
    """Raised when a cycle-pair construction is attempted on a zero-entropy shift."""


class ConvergenceError(DefectcaError):
    """Raised when an iterative numerical routine fails to converge."""


class MultipleDefectsError(DefectcaError):
    """Raised when a configuration contains more than one separated defect."""


class InvalidMachineError(DefectcaError):
    """Raised when a tape rule output would violate background admissibility."""
