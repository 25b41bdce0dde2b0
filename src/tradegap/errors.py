"""Exception taxonomy, the number rule, the JSON input boundary and the frozen value base.

Two families, matching the CLI exit-code contract: configuration problems
(bad registry/config files, incoherent flag combinations) exit with 2,
data/validation problems (bad numbers, malformed series) exit with 3.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from operator import attrgetter
from typing import Any, Callable, Iterable, TypeVar

_T = TypeVar("_T")
#: The largest float: a number is finite as a float if it is no larger in size.
_FLOAT_MAX = sys.float_info.max


class ConfigurationError(Exception):
    """A registry, config file, or run request is malformed or incoherent."""


class DataValidationError(ValueError):
    """A numeric input or data file violates a domain invariant."""


def number(value: object, what: str, error: type[Exception] = ConfigurationError,
           *args: object) -> float:
    """The number rule: ``value`` as a float if it is an ``int`` or a ``float``, not a bool,
    and finite as a float.  Otherwise raise ``error`` naming ``what``, formatted with
    ``args`` (only then) if any are given; an int beyond float range is shown by its bit length."""
    if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:  # a bool; nan, inf
        shown = f"an int of {value.bit_length()} bits" if type(value) is int else repr(value)
        raise error(f"{what.format(*args) if args else what} must be a finite number, got {shown}")
    return float(value)


def string(value: object, what: str) -> str:
    """A JSON string as it is; a number or any other value raises."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {value!r}")
    return value


def known(value: dict, fields: tuple[str, ...], where: str, index: int | None = None) -> None:
    """Raise on the first key of the JSON object ``value`` that is not one of
    ``fields``; ``where.format(index)`` is the object's path."""
    for key in value:
        if key not in fields:
            raise ConfigurationError(f"{where.format(index)}unknown field {key!r}")


#: A sweep rereads one registry, one config and a pair of series: a few entries
#: serve it, and the bound keeps a process from holding every file it ever read.
_PARSED_FILES = 32


@functools.lru_cache(maxsize=_PARSED_FILES)
def _parsed(parse: Callable[..., _T], path: str, data: bytes, *rest: object) -> _T:
    """``parse(path, data, *rest)``, once per distinct key; an exception is never kept."""
    return parse(path, data, *rest)


def read_json(path: str | os.PathLike[str], what: str, parse: Callable[[Any], _T]) -> _T:
    """Read the JSON file ``path`` and ``parse`` it; every bad input raises
    a :class:`ConfigurationError` naming ``what`` and the file as given.

    ``parse`` checks every number by :func:`number`, so ``NaN``, ``Infinity``
    and ``1e400`` are named by their field.  A missing or unknown field, a
    wrong type, a value ``float``/``int`` cannot read and a domain violation
    (:class:`DataValidationError`) raised by ``parse`` are all configuration errors.
    """
    name = os.fspath(path)
    try:
        with open(name, "rb") as file:
            data = file.read()
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {name or repr(name)}") from None
    except OSError as exc:  # a directory, or unreadable
        raise ConfigurationError(f"{what} not readable: {name} ({exc.strerror})") from None
    return _parsed(_from_json, name, data, what, parse)


def _from_json(path: str, data: bytes, what: str, parse: Callable[[Any], _T]) -> _T:
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{what} {path}: invalid JSON ({exc})") from None
    try:
        return parse(raw)
    except KeyError as exc:
        raise ConfigurationError(f"{what} {path}: missing field {exc}") from None
    except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{what} {path}: {exc}") from None


class _Fields:
    """``__dataclass_fields__``, the field table that ``dataclasses.fields``,
    ``replace`` and ``asdict`` read: built on first use, then kept on the
    class, so that importing the package does not load ``dataclasses``."""

    def __get__(self, obj: object, cls: type[_Value]) -> dict:
        import dataclasses

        names = cls.__slots__
        defaults = dict(zip(names[len(names) - len(cls._defaults):], cls._defaults))
        made = dataclasses.make_dataclass(cls.__name__, names, namespace=defaults)
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return made.__dataclass_fields__


def _compiled_init(cls: type[_Value]) -> Callable[..., None]:
    """An ``__init__`` that takes the fields of ``cls`` by position or by name,
    sets them, each of ``_collections`` as a tuple, and runs ``__post_init__``.
    It is compiled, as a dataclass's is: a generic one that binds ``*args``
    costs more per object than a dataclass's, and ``load_series`` builds one per row."""
    names, defaults = cls.__slots__, cls._defaults
    required = len(names) - len(defaults)
    params = [*names[:required], *(f"{n}=_defaults[{i}]" for i, n in enumerate(names[required:]))]
    stored = [f"tuple({n})" if n in cls._collections else n for n in names]
    body = [f"_setters[{i}](self, {value})" for i, value in enumerate(stored)]
    body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    namespace = {"__name__": cls.__module__, "_setters": cls._setters, "_defaults": defaults}
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return namespace["__init__"]


class _Value:
    """The base of the frozen value classes: a subclass names its fields in
    ``__slots__``, its trailing fields' defaults in ``_defaults``, the fields it
    stores as tuples in ``_collections``, and may check a new object in
    ``__post_init__``.  Objects act as frozen dataclasses, ``dataclasses`` helpers included."""

    __slots__ = ()
    _defaults: tuple = ()
    _collections: tuple = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        cls._setters = tuple(vars(cls)[name].__set__ for name in names)
        get = attrgetter(*names)  # a bare value for one field, so wrap it in a tuple
        cls._values = get if len(names) > 1 else staticmethod(lambda self: (get(self),))
        cls.__dataclass_fields__ = _Fields()
        if "__init__" not in vars(cls):  # a class with its own sets its fields by __setstate__
            cls.__init__ = _compiled_init(cls)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded on this error path only
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __getstate__(self) -> tuple:
        return self._values(self)

    def __setstate__(self, values: Iterable[object]) -> None:
        """Set the fields to ``values`` past the frozen ``__setattr__``."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
