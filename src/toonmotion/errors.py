"""Exception hierarchy.

Two families matter for the CLI exit code: validation problems (bad data,
bad config, broken invariants) and environment problems (network, disk,
unreachable providers).
"""

from __future__ import annotations

from pathlib import Path


class ToonmotionError(Exception):
    """Base class for all package errors."""


class ValidationError(ToonmotionError):
    """Input data or configuration violates a documented contract."""


class ProviderError(ToonmotionError):
    """A remote provider or the transport layer failed."""


class ProviderUnavailable(ProviderError):
    """Provider did not return a usable response after all retries."""


class DimensionMismatch(ProviderError):
    """Embedding provider returned vectors of an unexpected dimension."""


class MalformedEntry(ValidationError):
    """A dataset record is invalid.

    Carries the dataset file, the 1-based line number and the offending
    field when known; a loader that catches the error may fill in ``file``.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None,
                 file: str | Path | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.field = field
        self.file = file

    def __str__(self) -> str:
        where = f"{self.file}: " if self.file is not None else ""
        if self.line is not None:
            where += f"line {self.line}: "
        what = f" (field: {self.field})" if self.field else ""
        return f"{where}{self.message}{what}"


class NoNeutralGesture(ValidationError):
    """Gesture dataset has no neutral entry, so fallback is impossible."""


class MissingClip(ValidationError):
    """A gesture entry references a clip file that does not exist."""


class BvhSyntaxError(ValidationError):
    """BVH input could not be parsed. Carries line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


class UnsupportedChannelLayout(ValidationError):
    """Joint channel layout outside the supported set."""


class FrameCountMismatch(ValidationError):
    """Declared BVH frame count differs from the number of data rows."""


class SkeletonMismatch(ValidationError):
    """A skeleton's joint hierarchy is malformed."""


class InvalidLandmarks(ValidationError):
    """Landmark geometry is degenerate (zero eye width, out-of-box points)
    or overflows."""


class UnknownOption(ValidationError):
    """A multiple-choice answer is outside its question's option set."""


class EmptyEmotionResponse(ValidationError):
    """Emotion annotation produced no usable categories for an entry."""


class EmptyDataset(ValidationError):
    """A dataset holds no entries."""


class OverlappingPhonemes(ValidationError):
    """Phoneme events overlap or are out of order."""


class DurationMismatch(ValidationError):
    """A phoneme timeline runs past the end of the speech."""


class ConfigError(ValidationError):
    """Configuration file is missing, malformed, or out of range."""
