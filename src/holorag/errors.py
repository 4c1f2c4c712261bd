"""Exception types shared across the package.

Data/usage problems inherit from ValueError, backend/transport problems from
RuntimeError; the CLI maps the two families to exit codes 1 and 2.
"""


class HoloRagError(Exception):
    """Base class for all holorag-specific errors."""


class ZeroVectorError(HoloRagError, ValueError):
    """An all-zero vector was given where a direction is required."""


class DimensionMismatchError(HoloRagError, ValueError):
    """Vectors, pools, or records with incompatible dimensions were combined."""


class PartitionTooFineError(HoloRagError, ValueError):
    """More submask parts were requested than the mask has nonzero coordinates."""


class TemperatureNonPositiveError(HoloRagError, ValueError):
    """The contrastive temperature must be strictly positive."""


class EmptySequenceError(HoloRagError, ValueError):
    """An operation that needs at least one element received none."""


class ProbabilityOutOfRangeError(HoloRagError, ValueError):
    """A token log-probability was not a finite number <= 0."""


class CorpusParseError(HoloRagError, ValueError):
    """An input file (corpus, snapshot, dataset or fixtures) failed to parse."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class DuplicateIdError(HoloRagError, ValueError):
    """A (pool, doc_id) key appeared more than once."""


class FormatVersionMismatchError(HoloRagError, ValueError):
    """A snapshot file carries an unknown or missing format version."""


class MissingGoldDocumentError(HoloRagError, ValueError):
    """An evaluation example references a document absent from the pools."""


class ConfigError(HoloRagError, ValueError):
    """Invalid or incomplete run configuration."""


class BackendUnavailableError(HoloRagError, RuntimeError):
    """The model backend could not serve a request."""


class FixtureMissError(BackendUnavailableError):
    """The scripted mock backend has no fixture for a request (strict mode)."""


class MissingLogprobsError(HoloRagError, RuntimeError):
    """The backend response carried no per-token log-probabilities."""


class UnparseableVerdictError(HoloRagError, RuntimeError):
    """A sufficiency response did not start with a clear yes or no."""


class UnparseableScoreError(HoloRagError, RuntimeError):
    """A judge response did not end with a bare integer score in 1..5."""
