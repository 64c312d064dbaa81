"""Exception hierarchy shared by all modules.

Each CLI-visible failure class maps onto one process exit code, see cli.py:
config/argument problems exit with 2, divergence with 3, numerical or
structural failures with 4.
"""


class MarkosparseError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(MarkosparseError):
    """A function argument violates its documented precondition."""


class InfeasibleSampleError(InvalidArgumentError):
    """Fewer positive-probability coordinates than the requested mask size."""


class ConfigError(MarkosparseError):
    """Experiment configuration is invalid. Carries the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class ParseError(MarkosparseError):
    """Malformed input data. Carries the 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class NonErgodicError(MarkosparseError):
    """Chain is reducible or periodic; names the failing property."""


class TooLargeError(MarkosparseError):
    """A computation exceeds its cap. Carries the computed size; `what`
    names what was counted."""

    def __init__(self, size, cap, what):
        self.size = size
        self.cap = cap
        super().__init__(f"{what}, exceeds cap {cap}")


class NumericalError(MarkosparseError):
    """An iterative routine failed to converge within its cap."""


class DivergenceError(MarkosparseError):
    """Training produced a non-finite value. Carries the iteration and,
    once run_training attaches it, the partial trace up to that point."""

    def __init__(self, t, message=None):
        self.t = t
        self.trace = None
        super().__init__(message or f"non-finite value at iteration {t}")
