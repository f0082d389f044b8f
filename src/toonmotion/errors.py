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
    """Input data or configuration violates a documented contract.

    Carries where the fault is, when known: the ``file``, the 1-based
    ``line`` and ``column`` and the offending ``field``. Every error prints
    as ``<file>: line L, col C: <message> (field: f)``, each part only when
    it is known.
    """

    def __init__(self, message: str, *, file: str | Path | None = None,
                 line: int | None = None, column: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.file = file
        self.line = line
        self.column = column
        self.field = field

    def __str__(self) -> str:
        where = "" if self.file is None else f"{self.file}: "
        if self.line is not None:
            col = "" if self.column is None else f", col {self.column}"
            where += f"line {self.line}{col}: "
        what = f" (field: {self.field})" if self.field else ""
        return f"{where}{super().__str__()}{what}"


class ProviderError(ToonmotionError):
    """A remote provider or the transport layer failed."""


class ProviderUnavailable(ProviderError):
    """Provider did not return a usable response after all retries."""


class DimensionMismatch(ProviderError):
    """Embedding provider returned vectors of an unexpected dimension."""


class MalformedEntry(ValidationError):
    """A dataset record is invalid."""


class NoNeutralGesture(ValidationError):
    """Gesture dataset has no neutral entry, so fallback is impossible."""


class MissingClip(ValidationError):
    """A gesture entry references a clip file that does not exist."""


class BvhSyntaxError(ValidationError):
    """BVH input could not be parsed. Carries line and column."""


class UnsupportedChannelLayout(ValidationError):
    """Joint channel layout outside the supported set."""


class FrameCountMismatch(ValidationError):
    """Declared BVH frame count differs from the number of data rows, or a
    clip has fewer than 2 frames."""


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
    """Phoneme events start before 0 s, overlap or are out of order."""


class DurationMismatch(ValidationError):
    """A phoneme timeline runs past the end of the speech."""


class ConfigError(ValidationError):
    """Configuration file is missing, malformed, or out of range."""
