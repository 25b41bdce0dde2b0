"""Counterfactual growth accounting for a trade embargo.

Given an elasticity of income to trade openness, a trade-shock scenario,
and a measured income gap against a synthetic comparator, compute the
income the embargoed economy forewent and the share of its total
underperformance the embargo explains.
"""

from .decomposition import (
    DecompositionResult,
    GapDenominator,
    GapKind,
    additive_log_share,
    backout_gap,
    geometric_share,
    geometric_share_from_levels,
    geometric_share_of_gap,
    linear_levels_share,
    policy_growth_residual,
)
from .effects import (
    GrowthEffect,
    evaluate,
    finite_horizon_effect,
    steady_state_effect_loglinear,
    steady_state_effect_loglog,
)
from .elasticities import (
    ElasticityModel,
    ElasticityRegistry,
    FormKind,
    feyrer_elasticity,
    implied_point_elasticity,
    load_registry,
    seed_registry,
    steady_state_semi_elasticity,
)
from .errors import ConfigurationError, DataValidationError
from .report import (
    ResultTable,
    build_gap_audit,
    build_grid,
    build_replication_table,
    build_table2,
    build_table_a3,
    render,
    render_csv,
    render_markdown,
)
from .scenarios import (
    ScenarioConfig,
    ShockInputs,
    TradeShockScenario,
    build_scenarios,
    custom_scenario,
    default_scenario_config,
    load_scenario_config,
)
from .series import GdpSeries, Observation, load_series, log_gap, splice

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DataValidationError",
    "DecompositionResult",
    "ElasticityModel",
    "ElasticityRegistry",
    "FormKind",
    "GapDenominator",
    "GapKind",
    "GdpSeries",
    "GrowthEffect",
    "Observation",
    "ResultTable",
    "ScenarioConfig",
    "ShockInputs",
    "TradeShockScenario",
    "additive_log_share",
    "backout_gap",
    "build_gap_audit",
    "build_grid",
    "build_replication_table",
    "build_scenarios",
    "build_table2",
    "build_table_a3",
    "custom_scenario",
    "default_scenario_config",
    "evaluate",
    "feyrer_elasticity",
    "finite_horizon_effect",
    "geometric_share",
    "geometric_share_from_levels",
    "geometric_share_of_gap",
    "implied_point_elasticity",
    "linear_levels_share",
    "load_registry",
    "load_scenario_config",
    "load_series",
    "log_gap",
    "policy_growth_residual",
    "render",
    "render_csv",
    "render_markdown",
    "seed_registry",
    "splice",
    "steady_state_effect_loglinear",
    "steady_state_effect_loglog",
    "steady_state_semi_elasticity",
    "__version__",
]
