"""Exception types shared across the package, and the one JSON codec for
its config and report dataclasses."""
from __future__ import annotations

import dataclasses
import functools
import math
import typing


class MddaError(Exception):
    """Base class for all library errors."""


class ShapeError(MddaError, ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(MddaError, FloatingPointError):
    """An operation produced NaN or infinity; ``source`` is the index of the
    source it arose in when several train in lockstep."""

    source = 0


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


# Readers for scalar JSON values, passed to json_field as ``convert``.  They
# check the JSON type instead of coercing: bool("false") is True and
# int(2.9) is 2, and Python counts True as an int.


def json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise DataFormatError(f"expected true or false, got {value!r}")
    return value


def json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataFormatError(f"expected an integer, got {value!r}")
    return value


def json_float(value) -> float:
    # json.load reads NaN and Infinity, which no field takes
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DataFormatError(f"expected a finite number, got {value!r}")
    return float(value)


def json_str(value) -> str:
    if not isinstance(value, str):
        raise DataFormatError(f"expected a string, got {value!r}")
    return value


# The JSON form of a dataclass is an object with one key per field: the
# field's name, or ``metadata["json"]`` where the file uses another key.
# Tuples and lists are JSON lists, and a dict is an object.


def to_json(obj):
    """The JSON form of a dataclass, or of a value held in one."""
    if dataclasses.is_dataclass(obj):
        return {f.metadata.get("json", f.name): to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj


def from_json(tp, data):
    """Read a value of the annotated type ``tp`` from its JSON form.

    A dataclass reads each field through json_field, with the field's
    default when its key is absent, so every error names the path to it.
    A key that names no field is an error, not a silent default.
    """
    if dataclasses.is_dataclass(tp):
        if isinstance(data, dict):
            keys = {f.metadata.get("json", f.name) for f in dataclasses.fields(tp)}
            for key in data:
                if key not in keys:
                    raise DataFormatError(f"unknown field {key!r}")
        hints = typing.get_type_hints(tp)
        return tp(**{
            f.name: json_field(
                data,
                f.metadata.get("json", f.name),
                functools.partial(from_json, hints[f.name]),
                _REQUIRED if f.default is dataclasses.MISSING else f.default,
            )
            for f in dataclasses.fields(tp)
        })
    if tp in _SCALARS:
        return _SCALARS[tp](data)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, list):
        if not isinstance(data, list):
            raise DataFormatError(f"expected a JSON list, got {data!r}")
        return origin(from_json(args[0], v) for v in data)
    if tp is dict or origin is dict:
        if not isinstance(data, dict):
            raise DataFormatError(f"expected a JSON object, got {data!r}")
        if tp is dict:
            return data
        return {k: json_field(data, k, functools.partial(from_json, args[1])) for k in data}
    raise TypeError(f"no JSON form for {tp!r}")


_SCALARS = {bool: json_bool, int: json_int, float: json_float, str: json_str}
