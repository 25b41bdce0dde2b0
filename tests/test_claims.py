"""The abstract's three claims, checked at every corner of the calibration box.

The goldens pin the tables' bytes at one calibration.  These tests state
which conclusions hold across its uncertainty: the gap between the `gap`
audit's printed bounds, the baseline openness, the calibrated C1 change and
the 1972 relative gap.  Each share is monotone in each of them, so the
corners bound the box.  The last two are module constants, patched here, so
the tests also show that no table keeps a constant it read earlier.
"""

import itertools
import statistics

import pytest

from tradegap import (
    FormKind,
    GapDenominator,
    build_table2,
    build_table_a3,
    decomposition,
    implied_point_elasticity,
    report,
    seed_registry,
)

CORNERS = list(itertools.product(
    (1.0809, 1.0972),  # gap, log points: the span of the gap audit's implied gaps
    (0.540, 0.570),  # baseline openness
    (0.1727, 0.1761),  # the calibrated C1 openness change
    (1.235, 1.249),  # the 1972 gap, relative
))
SCENARIOS = ("C1", "C2", "C3")


@pytest.fixture(params=CORNERS, ids=lambda c: "gap{}-lam{}-c1{}-g72{}".format(*c))
def tables(request, monkeypatch):
    """Table 2 and Table A3 at one corner, each as {row label: {scenario: share %}}."""
    gap, lam0, c1, gap_1972 = request.param
    monkeypatch.setattr(report, "TABLE_C1_DELTA_LAMBDA", c1)
    monkeypatch.setattr(decomposition, "DEFAULT_GAP_1972_RELATIVE", gap_1972)
    built = {}
    for scheme, build in (("additive", build_table2), ("geometric", build_table_a3)):
        table = build(gap=GapDenominator.explicit(gap), lambda_baseline=lam0)
        # the patched constants reach the table, through any rows derived before
        assert f"({gap_1972:.4f} relative)" in table.footnotes[1]
        assert f"C1 = {c1:.4f}," in table.footnotes[2]
        shares = [table.columns.index(f"share_{s}_pct") for s in SCENARIOS]
        built[scheme] = {row[0]: dict(zip(SCENARIOS, map(row.__getitem__, shares)))
                         for row in table.rows}
    return lam0, built


def test_the_original_elasticity_explains_less_than_one_tenth(tables):
    """"Less than one-tenth": the original study's 12-year row."""
    _lam0, built = tables
    for shares in built.values():
        assert all(share < 10.0 for share in shares["Yanikkaya (2003), 12-year"].values())


def test_the_original_elasticity_is_neither_representative_nor_an_upper_bound(tables):
    """Its point elasticity at the baseline is below the registry's median and maximum."""
    lam0, _built = tables
    registry = seed_registry()
    points = {
        model.name: level if model.form is FormKind.LOG_LOG_LEVEL
        else implied_point_elasticity(level, lam0)
        for model, level in zip(registry.models, registry.levels)
    }
    original = points["yanikkaya"]
    assert original < statistics.median(points.values()) and original < max(points.values())


def test_the_embargo_accounts_for_all_of_the_gap_in_some_cases(tables):
    """"In some cases all": over 100 % in C2 and C3 under both schemes, below it in C1."""
    _lam0, built = tables
    for shares in built.values():
        for study in ("Alcala and Ciccone (2004)", "Feyrer (2019)"):
            assert shares[study]["C1"] < 100.0 < min(shares[study]["C2"], shares[study]["C3"])
