"""Exception hierarchy.

The CLI maps these onto exit codes: validation problems exit 2,
undefined-precondition outcomes exit 3, numerical failures exit 4. A
simulation that trips the overflow guard is not an error: simulate returns
its partial trajectory with diverged_at set.
"""


class PinnetError(Exception):
    """Base class for all library errors."""


class ValidationError(PinnetError):
    """Input violates a documented invariant (bad dimensions, bad indices, ...)."""


class GraphParseError(ValidationError):
    """Edge-list text could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class PreconditionError(PinnetError):
    """An operation's precondition does not hold; the result would be meaningless."""


class DegenerateGapError(PreconditionError):
    """Gap |c - lambda_r| is numerically zero, so the quotient bound is vacuous."""


class ThresholdUndefinedError(PreconditionError):
    """No feedback multiplier satisfies the certificate inequality."""

    def __init__(self, message: str, failing_inequality: str):
        super().__init__(message)
        self.failing_inequality = failing_inequality


class CombinatorialGuardError(PreconditionError):
    """Exhaustive search refused: subset count exceeds the guard."""

    def __init__(self, message: str, subset_count: int):
        super().__init__(message)
        self.subset_count = subset_count


class NumericalError(PinnetError):
    """An eigensolver or downstream numerical routine failed to converge."""


class NoNonzeroEigenvalueError(PreconditionError):
    """All eigenvalues fall below the rank tolerance, so lambda_min>0 is undefined."""


class NotPSDError(PreconditionError):
    """Matrix has an eigenvalue below -rank_tol where PSD was required."""

