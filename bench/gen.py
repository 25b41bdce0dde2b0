"""Seeded input generator for the benchmark workloads.

Every file the program reads during a run is written here, into a work
directory, in the formats the README documents: GDP series CSVs
(``year,value,source_tag``), registry JSON (``{"schema_version": 1,
"models": [...]}``) and scenario config JSON.  The same seed always gives
the same bytes.  Alongside the paths, the generator returns the parsed
values the output checks recompute cells from, so the checks never read
anything back through the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: The packaged dollar magnitudes (1957 USD millions).
DEFAULT_INPUTS = {
    "trade_gap_vs_synthetic_1972": 530.0,
    "trade_with_us_1958": 1122.0,
    "synthetic_export_excess_1972": 244.0,
    "gdp_1958": 3105.0,
}

FIRST_YEAR, LAST_YEAR = 1950, 2024  # 75-row series

#: Seed of the fixed cli_cold inputs; the run seed only shuffles argv order
#: there, so the recorded output bytes stay valid for every run.
CLI_INPUT_SEED = 1958

_FORMS = ("log_linear_level", "log_log_level", "growth_with_convergence")


@dataclass(frozen=True)
class Model:
    """What the checks need to know about one registry entry."""

    name: str
    display: str
    form: str
    level_coefficient: float
    epsilon: float | None = None
    years: int | None = None  # finite default horizon, None for steady state


@dataclass
class SeriesPair:
    synthetic: Path
    historical: Path
    synthetic_values: dict[int, float]
    historical_values: dict[int, float]

    def gap(self, year: int) -> float:
        return math.log(self.synthetic_values[year] / self.historical_values[year])


@dataclass
class Inputs:
    work: Path
    series: list[SeriesPair] = field(default_factory=list)
    registry_path: Path | None = None
    registry_models: list[Model] = field(default_factory=list)
    config_path: Path | None = None
    config_inputs: dict[str, float] = field(default_factory=dict)
    config_lambda: float = 0.0
    custom_scenarios: list[tuple[str, float]] = field(default_factory=list)


def _series_pair(rng: random.Random, work: Path, tag: str) -> SeriesPair:
    """Historical GDP with noisy growth; synthetic above it by a rising log gap."""
    hist: dict[int, float] = {}
    syn: dict[int, float] = {}
    level = rng.uniform(1500.0, 3000.0)
    gap = rng.uniform(0.02, 0.08)
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        # values are rounded as written, so the checks use the written ones
        hist[year] = float(f"{level:.3f}")
        syn[year] = float(f"{level * math.exp(gap):.3f}")
        level *= 1.0 + rng.uniform(-0.03, 0.05)
        gap += rng.uniform(0.005, 0.03)
    paths = []
    for label, values in (("synthetic", syn), ("historical", hist)):
        path = work / f"{tag}_{label}.csv"
        lines = ["year,value,source_tag"]
        lines += [f"{y},{v:.3f},generated" for y, v in values.items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return SeriesPair(paths[0], paths[1], syn, hist)


def _registry(rng: random.Random, work: Path, n_models: int) -> tuple[Path, list[Model]]:
    """``n_models`` entries cycling through the three forms; every fourth is finite."""
    rows, models = [], []
    for i in range(n_models):
        name = f"gen{i:03d}"
        form = _FORMS[i % 3]
        if form == "log_linear_level":
            coefficient: object = round(rng.uniform(0.1, 2.5), 4)
            level = coefficient
        elif form == "log_log_level":
            coefficient = round(rng.uniform(0.1, 1.5), 4)
            level = coefficient
        else:
            alpha1 = -round(rng.uniform(0.01, 0.08), 4)
            alpha2 = round(rng.uniform(0.005, 0.03), 4)
            coefficient = {"alpha1": alpha1, "alpha2": alpha2}
            level = -alpha2 / alpha1
        row: dict[str, object] = {
            "name": name,
            "form": form,
            "coefficient": coefficient,
            "source_note": f"generated model {i}",
        }
        epsilon = years = None
        if i % 4 == 0:
            years = rng.randint(5, 25)
            epsilon = round(rng.uniform(0.005, 0.03), 4)
            row["horizon"] = {"kind": "finite", "years": years}
            row["short_run_epsilon"] = epsilon
        else:
            row["horizon"] = {"kind": "steady_state"}
        rows.append(row)
        models.append(Model(name, name, form, level, epsilon, years))
    path = work / "registry.json"
    path.write_text(
        json.dumps({"schema_version": 1, "models": rows}, indent=1) + "\n", encoding="utf-8"
    )
    return path, models


def _config(
    work: Path,
    name: str,
    inputs: dict[str, float],
    lam0: float,
    custom: list[tuple[str, float]],
) -> Path:
    payload = {
        "inputs": inputs,
        "lambda_baseline": lam0,
        "custom_scenarios": [{"id": sid, "delta_lambda": dl} for sid, dl in custom],
    }
    path = work / name
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def generate(workload: str, seed: int, work: Path, scale: float = 1.0) -> Inputs:
    """Write the workload's input files into ``work``.

    ``scale`` shrinks the generated registry and grid config (the smoke
    test uses a small one); the benchmark itself always runs at 1.
    """
    out = Inputs(work)
    if workload == "cli_cold":
        rng = random.Random(CLI_INPUT_SEED)
        out.series.append(_series_pair(rng, work, "cli"))
        out.config_path = _config(
            work, "config.json", dict(DEFAULT_INPUTS, gdp_1958=3200.0), 0.58,
            [("half", 0.29), ("quarter", 0.145), ("deep", 0.5), ("tiny", 0.01)],
        )
        return out
    rng = random.Random(seed)
    if workload == "tables_sweep":
        out.series = [_series_pair(rng, work, f"pair{k}") for k in range(4)]
        out.registry_path, out.registry_models = _registry(
            rng, work, max(4, round(200 * scale))
        )
        return out
    if workload == "grid_sweep":
        lam0 = round(rng.uniform(0.45, 0.65), 4)
        n = max(3, round(2000 * scale))
        custom = [(f"S{i:05d}", round(rng.uniform(0.001, lam0 - 0.001), 6)) for i in range(n)]
        out.config_inputs = dict(DEFAULT_INPUTS)
        out.config_lambda = lam0
        out.custom_scenarios = custom
        out.config_path = _config(work, "grid_config.json", out.config_inputs, lam0, custom)
        return out
    raise ValueError(f"unknown workload {workload!r}")
