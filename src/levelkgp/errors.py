"""Exception types shared across the package, and the input-file helpers
that raise them."""

import contextlib
import json


class LevelkgpError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(LevelkgpError, ValueError):
    """Invalid kernel or model parameter (non-positive variance, etc.)."""


class ConfigurationError(LevelkgpError, ValueError):
    """Inconsistent configuration, e.g. mismatched bank dimensions."""


class InputError(LevelkgpError, ValueError):
    """Invalid operation input (NaN logits, empty counts, ...)."""


class SchemaError(InputError):
    """Input file does not match the expected schema."""


class NumericalError(LevelkgpError, RuntimeError):
    """Numerical failure that survived all recovery attempts."""


class MissingStateError(LevelkgpError, KeyError):
    """A state id is absent from a trained table and no fallback applies."""


class StageError(LevelkgpError, RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


def read_json(path):
    """The document in the JSON file at ``path``; malformed JSON is a SchemaError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def file_section(name: str):
    """Raise a missing or malformed part of an input file as a SchemaError
    naming it; package errors raised inside pass through unchanged."""
    try:
        yield
    except LevelkgpError:
        raise
    except KeyError as exc:
        raise SchemaError(f"malformed {name}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {name}: {exc}") from exc


# the JSON types of a strict reader, keyed by the name its errors give them
JSON_TYPES = {
    "an integer": (int,),
    "a number": (int, float),
    "a boolean": (bool,),
    "a string": (str,),
}


def json_value(value, name: str, kind: str):
    """``value`` when its type is the JSON type ``kind``, a key of JSON_TYPES,
    so a boolean is no number and a fraction no integer.  Otherwise a
    TypeError, which ``file_section`` reports as a SchemaError naming the
    section."""
    if type(value) not in JSON_TYPES[kind]:
        raise TypeError(f"{name} must be {kind}, got {value!r}")
    return value
