"""Exception types shared across the package."""


class MddaError(Exception):
    """Base class for all library errors."""


class ShapeError(MddaError, ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(MddaError, FloatingPointError):
    """An operation produced NaN or infinity."""


class DataFormatError(MddaError, ValueError):
    """A dataset or checkpoint file is malformed."""


class ConfigError(MddaError, ValueError):
    """A configuration value is invalid or inconsistent."""


class DivergenceError(MddaError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


_REQUIRED = object()


def json_field(data, key: str, convert, default=_REQUIRED):
    """``convert(data[key])``, or ``default`` when the key is absent.

    Parsed JSON is untrusted: a container that is not an object, a missing
    required key, or a value that ``convert`` rejects raises DataFormatError
    naming the key.  A DataFormatError from a nested reader gains the key as
    a prefix, so its message reads as a path into the file.
    """
    if not isinstance(data, dict):
        raise DataFormatError(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise DataFormatError(f"missing field {key!r}")
        return default
    try:
        return convert(data[key])
    except DataFormatError as exc:
        raise DataFormatError(f"field {key!r}: {exc}") from None
    except MddaError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"field {key!r}: {exc}") from None
