"""Typed errors shared across the package.

Every error derives from one category base, and the base's exit_code is
the command line's exit status for it.
"""


class FemSurrogateError(Exception):
    """Base class for all package errors; only its category bases set
    exit_code."""

    exit_code: int


class ConfigError(FemSurrogateError, ValueError):
    """Invalid user-supplied parameters or specs."""

    exit_code = 2


class DataError(FemSurrogateError, ValueError):
    """Malformed or unusable input data."""

    exit_code = 3


class SolverError(FemSurrogateError, RuntimeError):
    """Numerical solver failure."""

    exit_code = 3


class TrainingError(FemSurrogateError, RuntimeError):
    """Training-time failure."""

    exit_code = 4


class ModelFileError(FemSurrogateError, ValueError):
    """Unreadable or incompatible model file."""

    exit_code = 5


# --- configuration ---------------------------------------------------------

class InvalidParams(ConfigError):
    pass


class InvalidSpec(ConfigError):
    pass


class InvalidDamping(ConfigError):
    pass


class InvalidArchitecture(ConfigError):
    pass


# --- data ------------------------------------------------------------------

class DimensionMismatch(DataError):
    pass


class TooFewSamples(DataError):
    pass


class MalformedRow(DataError):
    pass


class EmptyBatch(DataError):
    pass


# --- solvers ---------------------------------------------------------------

class Singular(SolverError):
    pass


class UnboundedResonance(SolverError):
    pass


# --- training --------------------------------------------------------------

class NanLoss(TrainingError):
    pass


# --- model files -----------------------------------------------------------

class VersionMismatch(ModelFileError):
    pass


class CorruptModel(ModelFileError):
    pass

