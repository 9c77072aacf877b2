"""Exception types shared across the package."""


class CitefitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CitefitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SupportRangeError(CitefitError, ValueError):
    """A support point exceeds the truncated normalization range.

    Callers that hit this must re-evaluate with a larger truncation length.
    """


class ParseError(CitefitError, ValueError):
    """Malformed input text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SchemaVersionError(CitefitError, ValueError):
    """A persisted document declares a schema version this build cannot read."""

    def __init__(self, source: str, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(
            f"{source}: unsupported document schema version {found!r} "
            f"(supported: {supported!r})"
        )


class ConfigError(CitefitError, ValueError):
    """Conflicting or invalid command-line configuration."""


class OutputError(CitefitError, OSError):
    """An output file could not be written; message includes the path."""
