"""Exception taxonomy shared across the package, and the JSON input boundary.

Two families, matching the CLI exit-code contract: configuration problems
(bad registry/config files, incoherent flag combinations) exit with 2,
data/validation problems (bad numbers, malformed series) exit with 3.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")


class ConfigurationError(Exception):
    """A registry, config file, or run request is malformed or incoherent."""


class DataValidationError(ValueError):
    """A numeric input or data file violates a domain invariant."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def number(value: object, what: str) -> float:
    """A JSON number as a float; a string, a bool or any other value raises."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def string(value: object, what: str) -> str:
    """A JSON string as it is; a number or any other value raises."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {value!r}")
    return value


def read_json(path: Path, what: str, parse: Callable[[Any], _T]) -> _T:
    """Read the JSON file ``path`` and ``parse`` it; every bad input raises
    a :class:`ConfigurationError` naming ``what`` and the file.

    ``NaN``, ``Infinity`` and out-of-range numbers are rejected.  A missing
    field, a wrong type, a value ``float``/``int`` cannot read and a domain
    violation (:class:`DataValidationError`) raised by ``parse`` are all
    configuration errors.
    """
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"), parse_float=_finite, parse_constant=_finite
        )
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{what} {path}: invalid JSON ({exc})") from None
    try:
        return parse(raw)
    except KeyError as exc:
        raise ConfigurationError(f"{what} {path}: missing field {exc}") from None
    except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{what} {path}: {exc}") from None
