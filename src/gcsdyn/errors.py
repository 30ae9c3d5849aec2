"""Exception hierarchy shared by all modules.

Every error raised on purpose by this package derives from GcsdynError so
callers (and the CLI exit-code mapping) can tell domain failures apart from
genuine bugs.
"""


class GcsdynError(Exception):
    """Base class for all errors raised by gcsdyn."""


class InvalidFieldError(GcsdynError):
    """A field contains non-finite samples or has the wrong length."""


class NormalizationError(GcsdynError):
    """A wavefunction or density violates its normalization precondition."""

    def __init__(self, norm: float, tol: float, what: str = "field"):
        self.norm = float(norm)
        super().__init__(
            f"{what} norm is {norm:.12g}, outside 1 +/- {tol:g}"
        )


class CoverageError(GcsdynError):
    """A packet (or its translated reference) carries mass at the grid edge."""


class NodeError(GcsdynError):
    """Density has interior zeros; curvature is undefined across a node."""


class PhaseUnwrapError(GcsdynError):
    """Phase jump between adjacent valid samples too large to unwrap safely."""

    def __init__(self, index: int, jump: float):
        self.index = int(index)
        self.jump = float(jump)
        super().__init__(
            f"ambiguous phase jump {jump:.6g} rad at sample {index}"
        )


class DisplacementError(GcsdynError):
    """A constructed displaced state is off its label point (Q, P)."""


class ExtractionError(GcsdynError):
    """Linear-coefficient extraction failed (degenerate window or fit)."""


class EscapeError(GcsdynError):
    """Classical trajectory left the representable region."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message if step is None else f"{message} (step {step})")


class PropagationError(GcsdynError):
    """Quantum step failed (non-finite potential, solver breakdown)."""


class UnitarityError(GcsdynError):
    """Norm drift during propagation exceeded the alarm threshold."""


class DiagnosticsError(GcsdynError):
    """Inconsistent inputs handed to the diagnostics recorder."""


class ConfigError(GcsdynError):
    """Run configuration unreadable, malformed, or violating preconditions."""


class OptionalDependencyError(GcsdynError):
    """A feature needs an optional extra that is not installed."""
