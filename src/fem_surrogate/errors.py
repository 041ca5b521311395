"""Typed errors shared across the package.

The category bases map onto the CLI exit codes: ConfigError -> 2,
DataError / SolverError -> 3, TrainingError -> 4, ModelFileError -> 5.
"""


class FemSurrogateError(Exception):
    """Base class for all package errors."""


class ConfigError(FemSurrogateError, ValueError):
    """Invalid user-supplied parameters or specs."""


class DataError(FemSurrogateError, ValueError):
    """Malformed or unusable input data."""


class SolverError(FemSurrogateError, RuntimeError):
    """Numerical solver failure."""


class TrainingError(FemSurrogateError, RuntimeError):
    """Training-time failure."""


class ModelFileError(FemSurrogateError, ValueError):
    """Unreadable or incompatible model file."""


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


class NonPositiveForLog(DataError):
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


class NonConvergent(SolverError):
    pass


# --- training --------------------------------------------------------------

class NanLoss(TrainingError):
    pass


# --- model files -----------------------------------------------------------

class VersionMismatch(ModelFileError):
    pass


class CorruptModel(ModelFileError):
    pass


class ModelNotTrained(ModelFileError):
    pass
