"""Exception types shared across the package.

Every error raised on purpose by this package derives from either ValueError
or RuntimeError so that callers who do not care about the fine-grained
category can still catch something sane.
"""


class ParseError(ValueError):
    """A session or manifest file could not be parsed."""


class SchemaVersionError(ValueError):
    """A file declares a schema version this build does not understand."""


class TrackValidationError(ValueError):
    """A parsed track violates an ordering, range, or norm constraint."""


class InsufficientDataError(ValueError):
    """Fewer samples or rows than the operation needs."""


class IntegrityError(ValueError):
    """A stored artifact fails its self-consistency check."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class ProtocolError(RuntimeError):
    """A robot command is not valid in the robot's current phase."""
