"""Trade-income elasticity specifications and conversions between them.

The literature reports the income effect of trade openness in three
incompatible shapes:

* growth regressions with convergence, ``g_t = alpha0 + alpha1*ln(y) +
  alpha2*lambda`` (openness raises the *growth rate*, convergence damps it),
* log-linear level equations, ``ln(y) = ... + s*lambda`` (semi-elasticity
  ``s`` in log-points per unit openness share), and
* log-log level equations, ``ln(y) = ... + e*ln(lambda)`` (elasticity ``e``).

This module houses a registry of named estimates seeded from six
well-known studies, each model one row of ``data/registry.json`` (name,
form, coefficient, horizon years, short-run epsilon, note), and the small
conversions that move between the forms (steady-state limit of the growth
form, Feyrer's first-difference conversion, point elasticity of a
semi-elasticity).

Unit convention
---------------
Level-form coefficients are per *unit share* of openness (lambda on [0, 1]).
The short-run growth coefficient ``short_run_epsilon`` is per *percentage
point* of openness, as conventionally quoted (0.018 growth points per
point).  Mixing the two silently is the classic bug in this domain, so the
normalisation happens in exactly one place: :func:`tradegap.effects.effect_row`.
"""

from __future__ import annotations

import enum
import functools
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (_FLOAT_MAX, ConfigurationError, DataValidationError, _Value, known,
                     number, read_json, string)

REGISTRY_SCHEMA_VERSION = 1

_SEED_RESOURCE = Path(__file__).parent / "data" / "registry.json"


class FormKind(enum.Enum):
    """Functional form of an elasticity specification."""

    GROWTH_WITH_CONVERGENCE = "growth_with_convergence"
    LOG_LINEAR_LEVEL = "log_linear_level"
    LOG_LOG_LEVEL = "log_log_level"


class ElasticityModel(_Value):
    """A named elasticity estimate from the literature: one registry row.

    ``name`` is unique within a registry.  ``coefficient`` is the pair
    ``(alpha1, alpha2)`` of a growth form (convergence, strictly negative,
    and growth points per unit share), or a level form's ``s`` or ``e``.
    ``years`` is the default horizon, None for the long run; a finite one
    requires ``short_run_epsilon``, in growth points per percentage point
    of openness.  ``source_note`` is the estimate's provenance.

    >>> m = seed_registry().get("yanikkaya")
    >>> m.form.value, m.coefficient, m.years, m.short_run_epsilon
    ('log_linear_level', 0.41, 12, 0.018)
    """

    __slots__ = ("name", "form", "coefficient", "years", "short_run_epsilon", "source_note")
    _defaults = (None, None, "")

    def __post_init__(self) -> None:
        if type(self.form) is not FormKind:
            raise DataValidationError(f"model {self.name!r}: unknown functional form {self.form!r}")
        c, epsilon = self.coefficient, self.short_run_epsilon
        if self.form is FormKind.GROWTH_WITH_CONVERGENCE and not (type(c) is tuple and len(c) == 2):
            raise DataValidationError(
                f"model {self.name!r}: coefficient of a {self.form.value} form must be the pair "
                f"(alpha1, alpha2), got {c!r}"
            )
        try:
            self.level_coefficient()  # a finite number, and a growth form's alpha1 < 0
        except DataValidationError as exc:
            raise DataValidationError(f"model {self.name!r}: {exc}") from None
        if self.years is not None:
            _check_years(self.years)
        if not self.name:
            raise DataValidationError("model name must be non-empty")
        if self.years is not None and epsilon is None:
            raise DataValidationError(
                f"model {self.name!r}: finite horizon requires short_run_epsilon"
            )
        if epsilon is not None:
            number(epsilon, f"model {self.name!r}: short_run_epsilon", DataValidationError)

    def level_coefficient(self) -> float:
        """Reduce the model to a steady-state level coefficient.

        Returns ``s`` for log-linear, ``e`` for log-log, and the implied
        steady-state semi-elasticity ``-alpha2/alpha1`` for the growth form.
        """
        if self.form is FormKind.GROWTH_WITH_CONVERGENCE:
            return steady_state_semi_elasticity(*self.coefficient)
        return number(self.coefficient, "coefficient", DataValidationError)


def _check_years(years: int | None) -> int:
    """``years``, if it keeps the rule of a finite horizon: a whole number >= 1 in float range."""
    if years is not None and type(years) is not int:  # not a bool, not a float
        raise DataValidationError(f"finite horizon requires a whole number of years, got {years!r}")
    if years is None or years < 1:
        raise DataValidationError("finite horizon requires years >= 1")
    if years > _FLOAT_MAX:  # compounding runs on floats
        raise DataValidationError("years beyond float range")
    return years


class ElasticityRegistry(_Value):
    """Ordered, name-unique, non-empty collection of elasticity models.

    ``models`` holds the models as given, and ``levels`` each one's
    steady-state level coefficient, derived once because every table reads it.
    """

    __slots__ = ("models", "levels")

    def __init__(self, models: Iterable[ElasticityModel]) -> None:
        models = tuple(models)
        levels = tuple(m.level_coefficient() for m in models)
        if not models:
            raise ConfigurationError("empty selection: no models in registry")
        seen: set[str] = set()
        for m in models:
            if m.name in seen:
                raise ConfigurationError(f"duplicate model name {m.name!r} in registry")
            seen.add(m.name)
        self.__setstate__((models, levels))

    def get(self, name: str) -> ElasticityModel:
        for m in self.models:
            if m.name == name:
                return m
        raise ConfigurationError(f"no model named {name!r} in registry")

    def __iter__(self) -> Iterator[ElasticityModel]:
        return iter(self.models)


# --------------------------------------------------------------------------
# conversions
# --------------------------------------------------------------------------

def steady_state_semi_elasticity(alpha1: float, alpha2: float) -> float:
    """Steady-state level semi-elasticity implied by a growth regression.

    Setting the growth rate of ``g = alpha0 + alpha1*ln(y) + alpha2*lambda``
    to zero and solving for ``ln(y)`` gives a steady-state response of
    ``-alpha2/alpha1`` log-points of income per unit openness share.

    Parameters
    ----------
    alpha1:
        Convergence coefficient; must be strictly negative, otherwise the
        difference equation has no stable steady state.
    alpha2:
        Openness coefficient, growth points per unit share.

    Examples
    --------
    >>> round(steady_state_semi_elasticity(-0.0439, 0.018), 2)
    0.41
    """
    if not number(alpha1, "alpha1", DataValidationError) < 0:
        raise DataValidationError(
            f"no stable steady state: convergence coefficient must be negative, got {alpha1}"
        )
    level = -number(alpha2, "alpha2", DataValidationError) / alpha1
    return number(level, "steady-state level -alpha2/alpha1", DataValidationError)


def feyrer_elasticity(beta: float) -> float:
    """Level elasticity implied by a first-difference trade coefficient.

    A coefficient ``beta`` on the *change* in the trade share in a
    first-difference income regression implies a level elasticity of
    ``beta / (1 - beta)`` once the induced income growth feeds back into
    trade.  Undefined at ``beta >= 1``.

    >>> round(feyrer_elasticity(0.558), 4)
    1.2624
    """
    if not number(beta, "beta", DataValidationError) < 1.0:
        raise DataValidationError(f"elasticity undefined for beta >= 1, got {beta}")
    return beta / (1.0 - beta)


def implied_point_elasticity(semi_elasticity: float, lam: float) -> float:
    """Point elasticity of income to openness at openness level ``lam``.

    A log-linear semi-elasticity ``s`` (log-points per unit share) implies
    a local elasticity of ``s * lam`` when evaluated at share ``lam``:
    d ln y / d ln lambda = s * lambda.

    >>> implied_point_elasticity(0.41, 0.55)
    0.2255
    """
    if not 0 < number(lam, "openness share lam", DataValidationError) <= 2:
        raise DataValidationError(f"openness share out of domain (0, 2]: {lam}")
    point = number(semi_elasticity, "semi-elasticity", DataValidationError) * lam
    return number(point, "point elasticity", DataValidationError)


# --------------------------------------------------------------------------
# registry loading — the registry is data, not code, and is read as written
# --------------------------------------------------------------------------

def load_registry(path: str | Path) -> ElasticityRegistry:
    """Load a registry from a versioned JSON file.

    The file is an object ``{"schema_version": 1, "models": [...]}``; each
    model is ``{name, form, coefficient, horizon, short_run_epsilon?,
    source_note?}``, where ``coefficient`` is a number, or ``{alpha1,
    alpha2}`` for a growth form, and ``horizon`` is ``{kind, years?}``; a
    field marked ``?`` may be left out.  A missing or unsupported schema
    version is rejected, and so is any other field, named by its path.
    Unchanged bytes at one path are parsed once per process.
    """
    return read_json(path, "registry", _registry_from_json)


_MODEL_FIELDS = ("name", "form", "coefficient", "horizon", "short_run_epsilon", "source_note")


def _registry_from_json(raw: object) -> ElasticityRegistry:
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise ConfigurationError("missing mandatory schema_version")
    if type(raw["schema_version"]) is not int or raw["schema_version"] != REGISTRY_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported schema_version {raw['schema_version']!r}")
    models = raw.get("models")
    if not isinstance(models, list):
        raise ConfigurationError("'models' must be an array")
    known(raw, ("schema_version", "models"), "")
    return ElasticityRegistry([_model_row(i, row) for i, row in enumerate(models)])


def _model_row(i: int, row: dict) -> ElasticityModel:
    """Model ``i`` of the file.  Its fields are checked in turn and its
    unknown fields last; an error names its JSON path."""
    try:
        name = string(row["name"], "name")
        try:
            form = FormKind(row["form"])
        except ValueError:
            raise ConfigurationError(f"form: unknown functional form {row['form']!r}") from None
        coefficient = row.get("coefficient")
        if form is FormKind.GROWTH_WITH_CONVERGENCE:
            if not isinstance(coefficient, dict):
                raise ConfigurationError("coefficient of a growth form must be {alpha1, alpha2}")
            value = (
                number(coefficient["alpha1"], "coefficient.alpha1"),
                number(coefficient["alpha2"], "coefficient.alpha2"),
            )
            steady_state_semi_elasticity(*value)  # its steady state, checked before the horizon
        else:
            value = number(coefficient, "coefficient")
        horizon = row["horizon"]
        if not isinstance(horizon, dict) or "kind" not in horizon:
            raise ConfigurationError(f"horizon must be an object with a 'kind': {horizon!r}")
        kind, years = horizon["kind"], horizon.get("years")
        if kind not in ("finite", "steady_state"):
            raise ConfigurationError(f"horizon.kind: unknown horizon kind {kind!r}")
        if years is not None:
            if type(years) not in (int, float) or not number(years, "horizon.years").is_integer():
                raise ConfigurationError(f"horizon.years must be a whole number, got {years!r}")
            years = int(years)
        if kind == "finite":
            _check_years(years)
        elif years is not None:
            raise DataValidationError("steady-state horizon takes no years")
        epsilon = row.get("short_run_epsilon")
        if epsilon is not None:
            epsilon = number(epsilon, "short_run_epsilon")
        note = string(row.get("source_note", ""), "source_note")
        model = ElasticityModel(name, form, value, years, epsilon, note)
    except KeyError as exc:
        raise ConfigurationError(f"models[{i}] missing field {exc}") from None
    except ConfigurationError as exc:  # its message starts with the field's path
        raise ConfigurationError(f"models[{i}].{exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"models[{i}]: {exc}") from None
    if form is FormKind.GROWTH_WITH_CONVERGENCE:
        known(coefficient, ("alpha1", "alpha2"), "models[{}].coefficient: ", i)
    known(horizon, ("kind", "years"), "models[{}].horizon: ", i)
    known(row, _MODEL_FIELDS, "models[{}]: ", i)
    return model


@functools.cache
def seed_registry() -> ElasticityRegistry:
    """The packaged six-study registry (see ``data/registry.json``), parsed
    once: the registry is immutable, so every call returns the same one."""
    return load_registry(_SEED_RESOURCE)
