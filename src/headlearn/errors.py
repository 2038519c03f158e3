"""Package exception types.

Plain ``ValueError`` is used for simple argument validation (bad ranges,
shape mismatches).  The classes below mark failure modes callers are
expected to branch on.
"""


class HeadLearnError(Exception):
    """Base class for all package-specific errors."""


class InvalidCommandError(HeadLearnError, ValueError):
    """An actuator command violates the channel set or value range."""


class ConfigError(HeadLearnError, ValueError):
    """A head/AU/pipeline configuration is inconsistent or incomplete."""


class ProtocolError(HeadLearnError, ValueError):
    """A collection protocol cannot produce a valid dataset."""


class AlignmentDegenerateError(HeadLearnError, ValueError):
    """Rigid alignment is underdetermined (rank-deficient point set).

    ``index`` is the first such set of a stack (0 for a single set).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class OpenFaceFormatError(HeadLearnError, ValueError):
    """An OpenFace CSV is missing columns or contains unparsable cells."""


class DatasetCorruptError(HeadLearnError, RuntimeError):
    """A persisted dataset is truncated or internally inconsistent."""


class UnsupportedVersionError(HeadLearnError, RuntimeError):
    """A persisted file declares a format version this build cannot read."""


class SingularFitError(HeadLearnError, RuntimeError):
    """Least-squares fit on rank-deficient inputs; use ridge_fit instead."""


class TrainingDivergedError(HeadLearnError, RuntimeError):
    """MLP training produced a non-finite loss."""


class CalibrationRequiredError(HeadLearnError, RuntimeError):
    """Human-side MinMax stats are missing; run calibration first."""


class ProvenanceWarning(UserWarning):
    """Loaded data was produced under a different head configuration."""
