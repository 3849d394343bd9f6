"""Exception hierarchy shared by all mathcontrast modules."""

from __future__ import annotations


class MathContrastError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MathContrastError):
    """Expression text could not be parsed; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MergeError(MathContrastError):
    """No step in a merge request could be parsed."""


class DegenerateInput(MathContrastError):
    """A similarity operation received empty operands it cannot score."""


class DimensionMismatch(MathContrastError):
    """Cosine similarity over vectors of different lengths."""


class ZeroVector(MathContrastError):
    """Cosine similarity is undefined for an all-zero vector."""


class ProviderError(MathContrastError):
    """The semantic provider failed to produce a similarity."""


class SchemaError(MathContrastError):
    """A persisted record is malformed; names the line and field."""

    def __init__(self, message: str, line: int, field: str | None = None):
        loc = f"line {line}" + (f", field '{field}'" if field else "")
        super().__init__(f"{message} ({loc})")
        self.message = message
        self.line = line
        self.field = field


class ExtractionError(MathContrastError):
    """No parseable formula was found in a model response.

    ``partial`` keeps whatever was recovered so callers can inspect the
    raw texts and fall back gracefully.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class MissingGold(MathContrastError):
    """A trace submitted for evaluation has no gold answer."""


class UnknownKind(MathContrastError):
    """An error annotation uses a kind outside the built-in taxonomy."""


class GatewayError(MathContrastError):
    """Base class for chat-backend failures."""


class AuthError(GatewayError):
    """The backend rejected the configured credential."""


class RateLimited(GatewayError):
    """The backend throttled the request; ``retry_after`` is in seconds."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class TransportError(GatewayError):
    """The backend was unreachable after all retries."""


class BackendError(GatewayError):
    """The backend answered with an error payload."""


class UnknownPrompt(GatewayError):
    """A strict mock backend received a prompt it has no script for."""
