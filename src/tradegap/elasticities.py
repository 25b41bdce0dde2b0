"""Trade-income elasticity specifications and conversions between them.

The literature reports the income effect of trade openness in three
incompatible shapes:

* growth regressions with convergence, ``g_t = alpha0 + alpha1*ln(y) +
  alpha2*lambda`` (openness raises the *growth rate*, convergence damps it),
* log-linear level equations, ``ln(y) = ... + s*lambda`` (semi-elasticity
  ``s`` in log-points per unit openness share), and
* log-log level equations, ``ln(y) = ... + e*ln(lambda)`` (elasticity ``e``).

This module houses those forms, a registry of named estimates seeded from
six well-known studies, and the small conversions that move between the
forms (steady-state limit of the growth form, Feyrer's first-difference
conversion, point elasticity of a semi-elasticity).

Unit convention
---------------
Level-form coefficients are per *unit share* of openness (lambda on [0, 1]).
The short-run growth coefficient ``short_run_epsilon`` is per *percentage
point* of openness, as conventionally quoted (0.018 growth points per
point).  Mixing the two silently is the classic bug in this domain, so the
normalisation happens in exactly one place: :func:`tradegap.effects.effect_columns`.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import ConfigurationError, DataValidationError, number, read_json, string

REGISTRY_SCHEMA_VERSION = 1

_SEED_RESOURCE = Path(__file__).parent / "data" / "registry.json"


class FormKind(enum.Enum):
    """Functional form of an elasticity specification."""

    GROWTH_WITH_CONVERGENCE = "growth_with_convergence"
    LOG_LINEAR_LEVEL = "log_linear_level"
    LOG_LOG_LEVEL = "log_log_level"


@dataclass(frozen=True)
class FunctionalForm:
    """A functional form plus its coefficient payload.

    Exactly the fields demanded by ``kind`` are set:

    * ``GROWTH_WITH_CONVERGENCE`` — ``alpha1`` (per-period convergence,
      strictly negative) and ``alpha2`` (growth points per unit share);
    * ``LOG_LINEAR_LEVEL`` — ``s`` (log-points per unit share);
    * ``LOG_LOG_LEVEL`` — ``e`` (log-points per log-point of openness).
    """

    kind: FormKind
    alpha1: float | None = None
    alpha2: float | None = None
    s: float | None = None
    e: float | None = None

    def __post_init__(self) -> None:
        if self.kind is FormKind.GROWTH_WITH_CONVERGENCE:
            if self.alpha1 is None or self.alpha2 is None:
                raise DataValidationError(
                    "growth form requires alpha1 and alpha2 coefficients"
                )
            steady_state_semi_elasticity(self.alpha1, self.alpha2)
            if self.s is not None or self.e is not None:
                raise DataValidationError("growth form takes no level coefficient")
        elif self.kind is FormKind.LOG_LINEAR_LEVEL:
            if self.s is None or (self.alpha1, self.alpha2, self.e) != (None, None, None):
                raise DataValidationError("log-linear form carries exactly one coefficient s")
        elif self.kind is FormKind.LOG_LOG_LEVEL:
            if self.e is None or (self.alpha1, self.alpha2, self.s) != (None, None, None):
                raise DataValidationError("log-log form carries exactly one coefficient e")

    @classmethod
    def growth_with_convergence(cls, alpha1: float, alpha2: float) -> "FunctionalForm":
        return cls(FormKind.GROWTH_WITH_CONVERGENCE, alpha1=alpha1, alpha2=alpha2)

    @classmethod
    def log_linear(cls, s: float) -> "FunctionalForm":
        return cls(FormKind.LOG_LINEAR_LEVEL, s=s)

    @classmethod
    def log_log(cls, e: float) -> "FunctionalForm":
        return cls(FormKind.LOG_LOG_LEVEL, e=e)

    def level_coefficient(self) -> float:
        """Reduce the form to a steady-state level coefficient.

        Returns ``s`` for log-linear, ``e`` for log-log, and the implied
        steady-state semi-elasticity ``-alpha2/alpha1`` for the growth form.
        """
        if self.kind is FormKind.LOG_LINEAR_LEVEL:
            return float(self.s)  # type: ignore[arg-type]
        if self.kind is FormKind.LOG_LOG_LEVEL:
            return float(self.e)  # type: ignore[arg-type]
        return steady_state_semi_elasticity(self.alpha1, self.alpha2)  # type: ignore[arg-type]


class HorizonKind(enum.Enum):
    FINITE = "finite"
    STEADY_STATE = "steady_state"


@dataclass(frozen=True)
class Horizon:
    """Evaluation horizon: compound for ``years`` periods, or the long run."""

    kind: HorizonKind
    years: int | None = None

    def __post_init__(self) -> None:
        if self.kind is HorizonKind.FINITE:
            if self.years is None or self.years < 1:
                raise DataValidationError("finite horizon requires years >= 1")
            if self.years > sys.float_info.max:  # compounding runs on floats
                raise DataValidationError("years beyond float range")
        elif self.years is not None:
            raise DataValidationError("steady-state horizon takes no years")

    @classmethod
    def finite(cls, years: int) -> "Horizon":
        return cls(HorizonKind.FINITE, years=years)

    @classmethod
    def steady_state(cls) -> "Horizon":
        return cls(HorizonKind.STEADY_STATE)

    def describe(self) -> str:
        if self.kind is HorizonKind.FINITE:
            return f"{self.years}-year"
        return "long-run"


@dataclass(frozen=True)
class ElasticityModel:
    """A named elasticity estimate from the literature.

    Parameters
    ----------
    name:
        Unique key within a registry (snake_case study name).
    form:
        Functional form and coefficient(s).
    horizon:
        Default evaluation horizon.  FINITE requires ``short_run_epsilon``.
    short_run_epsilon:
        Growth points per percentage point of openness, used only by
        finite-horizon compounding.
    source_note:
        Free-text provenance of the estimate.
    """

    name: str
    form: FunctionalForm
    horizon: Horizon
    short_run_epsilon: float | None = None
    source_note: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise DataValidationError("model name must be non-empty")
        if self.horizon.kind is HorizonKind.FINITE and self.short_run_epsilon is None:
            raise DataValidationError(
                f"model {self.name!r}: finite horizon requires short_run_epsilon"
            )


@dataclass
class ElasticityRegistry:
    """Ordered, name-unique, non-empty collection of :class:`ElasticityModel`."""

    entries: list[ElasticityModel]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("empty selection: no models in registry")
        seen: set[str] = set()
        for m in self.entries:
            if m.name in seen:
                raise ConfigurationError(f"duplicate model name {m.name!r} in registry")
            seen.add(m.name)

    def get(self, name: str) -> ElasticityModel:
        for m in self.entries:
            if m.name == name:
                return m
        raise ConfigurationError(f"no model named {name!r} in registry")

    def __iter__(self) -> Iterator[ElasticityModel]:
        return iter(self.entries)


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
    if alpha1 >= 0:
        raise DataValidationError(
            f"no stable steady state: convergence coefficient must be negative, got {alpha1}"
        )
    return -alpha2 / alpha1


def feyrer_elasticity(beta: float) -> float:
    """Level elasticity implied by a first-difference trade coefficient.

    A coefficient ``beta`` on the *change* in the trade share in a
    first-difference income regression implies a level elasticity of
    ``beta / (1 - beta)`` once the induced income growth feeds back into
    trade.  Undefined at ``beta >= 1``.

    >>> round(feyrer_elasticity(0.558), 4)
    1.2624
    """
    if beta >= 1.0:
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
    if lam <= 0 or lam > 2:
        raise DataValidationError(f"openness share out of domain (0, 2]: {lam}")
    return semi_elasticity * lam


# --------------------------------------------------------------------------
# registry loading — the registry is data, not code, and is read as written
# --------------------------------------------------------------------------

def _form_from_json(kind: str, coefficient: object) -> FunctionalForm:
    try:
        k = FormKind(kind)
    except ValueError:
        raise ConfigurationError(f"unknown functional form {kind!r}") from None
    if k is FormKind.GROWTH_WITH_CONVERGENCE:
        if not isinstance(coefficient, dict):
            raise ConfigurationError("growth form coefficient must be {alpha1, alpha2}")
        return FunctionalForm.growth_with_convergence(
            number(coefficient["alpha1"], "alpha1"), number(coefficient["alpha2"], "alpha2")
        )
    coefficient = number(coefficient, f"coefficient for {kind}")
    if k is FormKind.LOG_LINEAR_LEVEL:
        return FunctionalForm.log_linear(coefficient)
    return FunctionalForm.log_log(coefficient)


def _horizon_from_json(obj: object) -> Horizon:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError(f"horizon must be an object with a 'kind': {obj!r}")
    try:
        kind = HorizonKind(obj["kind"])
    except ValueError:
        raise ConfigurationError(f"unknown horizon kind {obj['kind']!r}") from None
    years = obj.get("years")
    if years is not None and (isinstance(years, bool) or int(years) != years):
        raise ConfigurationError(f"horizon years must be a whole number, got {years!r}")
    return Horizon(kind, None if years is None else int(years))


def load_registry(path: str | Path) -> ElasticityRegistry:
    """Load a registry from a versioned JSON file.

    The file is an object ``{"schema_version": 1, "models": [...]}``; each
    model is ``{name, form, coefficient, short_run_epsilon?, horizon,
    source_note}``.  A missing or unsupported schema version is rejected.
    """
    return read_json(Path(path), "registry", _registry_from_json)


def _registry_from_json(raw: object) -> ElasticityRegistry:
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise ConfigurationError("missing mandatory schema_version")
    if raw["schema_version"] != REGISTRY_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported schema_version {raw['schema_version']!r}")
    models = raw.get("models")
    if not isinstance(models, list):
        raise ConfigurationError("'models' must be an array")
    entries = []
    for i, row in enumerate(models):
        try:
            entries.append(
                ElasticityModel(
                    name=string(row["name"], "name"),
                    form=_form_from_json(row["form"], row.get("coefficient")),
                    horizon=_horizon_from_json(row["horizon"]),
                    short_run_epsilon=(
                        None if row.get("short_run_epsilon") is None
                        else number(row["short_run_epsilon"], "short_run_epsilon")
                    ),
                    source_note=string(row.get("source_note", ""), "source_note"),
                )
            )
        except KeyError as exc:
            raise ConfigurationError(f"model #{i} missing field {exc}") from None
        except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"model #{i}: {exc}") from None
    return ElasticityRegistry(entries)


def seed_registry() -> ElasticityRegistry:
    """The packaged six-study registry (see ``data/registry.json``)."""
    return load_registry(_SEED_RESOURCE)
