"""Typed errors shared across the package.

One class per command-line exit status: every raise names one of the five
categories below, its message says what went wrong, and the class's
exit_code is the status cli.main returns for it.
"""


class FemSurrogateError(Exception):
    """Base class for all package errors; only the categories set
    exit_code."""

    exit_code: int


class ConfigError(FemSurrogateError, ValueError):
    """Invalid user-supplied parameters, specs, damping or architecture."""

    exit_code = 2


class DataError(FemSurrogateError, ValueError):
    """Malformed or unusable input data: shapes, sample counts, CSV rows."""

    exit_code = 3


class SolverError(FemSurrogateError, RuntimeError):
    """Numerical solver failure: a singular system, an unbounded resonance
    or a result out of double range."""

    exit_code = 3


class TrainingError(FemSurrogateError, RuntimeError):
    """Training-time failure: a non-finite loss or parameter."""

    exit_code = 4


class ModelFileError(FemSurrogateError, ValueError):
    """Unreadable, corrupt or incompatible model file."""

    exit_code = 5
