"""Exception hierarchy shared across shlab modules.

The exit-code policy of the command line lives here.  Each of the three bases
carries the exit code and the stderr label that `shlab.cli.main` reports, and
every other shlab error subclasses exactly one of them.
"""


class ShlabError(Exception):
    """Base class for all shlab errors."""

    exit_code: int
    label: str


class ValidationError(ShlabError):
    """Scenario contents violate a physical or numerical requirement."""

    exit_code, label = 2, "validation error"


class NumericalAbort(ShlabError):
    """The computation had to stop (e.g. positivity failure)."""

    exit_code, label = 3, "numerical abort"


class FormatError(ShlabError):
    """A file is malformed or inconsistent with its header."""

    exit_code, label = 4, "io error"


class InvalidValueError(ValidationError):
    """Non-finite or otherwise malformed numeric input."""


class PositivityError(ValidationError):
    """A field that must be strictly positive is not."""


class ParseError(ValidationError):
    """Scenario file is syntactically or structurally invalid."""


class SolvabilityError(NumericalAbort):
    """An elliptic right-hand side violates the torus compatibility condition."""


class EnergyPositivityError(NumericalAbort):
    """Kinetic energy dropped below the admissible floor."""


class DesignError(NumericalAbort):
    """Height design could not satisfy its constraints."""


class ConstraintError(NumericalAbort):
    """A pointwise subsolution-type constraint is violated on input data."""
