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


class NotAFunctionError(DefectcaError):
    """Raised when empirical automaton extraction sees two outputs for one input.

    Usually means the tracking width cap was too small, so distinct internal
    states were collapsed onto the same padded key.
    """


class InvalidMachineError(DefectcaError):
    """Raised when a tape rule output would violate background admissibility."""
