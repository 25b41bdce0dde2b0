import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradegap import (
    DataValidationError,
    GdpSeries,
    Observation,
    load_series,
    log_gap,
    splice,
)
from tradegap.decomposition import GapKind


def series(label, *pairs):
    return GdpSeries(tuple(Observation(y, v) for y, v in pairs), label=label)


def write_csv(s, path):
    """Write ``s`` as series CSV, each value as its repr, and return ``path``."""
    rows = [f"{o.year},{o.value!r},{o.source_tag}" for o in s.observations]
    path.write_text("\n".join(["year,value,source_tag", *rows]) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------- invariants

def test_series_invariants():
    with pytest.raises(DataValidationError, match="empty"):
        GdpSeries((), label="x")
    with pytest.raises(DataValidationError, match="strictly increasing"):
        series("x", (2000, 1.0), (2000, 2.0))
    with pytest.raises(DataValidationError, match="strictly increasing"):
        series("x", (2001, 1.0), (2000, 2.0))
    with pytest.raises(DataValidationError, match="non-positive"):
        series("x", (2000, 0.0))


def test_series_lookup():
    s = series("cuba", (1958, 3105.0), (1959, 3200.0))
    assert [o.year for o in s.observations] == [1958, 1959]
    assert s.value(1958) == 3105.0
    assert s.has_year(1959) and not s.has_year(1960)
    with pytest.raises(DataValidationError, match="no observation"):
        s.value(1971)


# ----------------------------------------------------------------- file I/O

def test_load_minimal_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("year,value\n1958,3105\n1959,3200\n", encoding="utf-8")
    s = load_series(p)
    assert [o.year for o in s.observations] == [1958, 1959]
    assert s.label == "s"
    assert s.value(1959) == 3200.0


def test_load_skips_blank_rows(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("year,value\n1958,3105\n\n , \n1959,3200\n", encoding="utf-8")
    assert load_series(p).observations == (Observation(1958, 3105.0), Observation(1959, 3200.0))


def test_load_rejects_malformed_row_with_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("year,value\n1958,3105\nnineteen,60\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match=r"bad\.csv:3"):
        load_series(p)


def test_load_rejects_duplicate_year(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("year,value\n1958,3105\n1958,3105\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match="strictly increasing"):
        load_series(p)


def test_load_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataValidationError, match="empty series"):
        load_series(p)
    p.write_text("year,value\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match="empty series"):
        load_series(p)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("anno,valore\n1958,3105\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match="header"):
        load_series(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataValidationError, match="not found"):
        load_series(tmp_path / "nope.csv")


def test_round_trip_is_identity(tmp_path):
    s = GdpSeries(
        (
            Observation(1958, 3105.0, "nat-accounts"),
            Observation(1959, 3200.5, ""),
            Observation(1961, 2975.25, "devereux"),
        ),
        label="cuba",
    )
    assert load_series(write_csv(s, tmp_path / "cuba.csv")) == s


@given(
    values=st.lists(
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=20,
    )
)
def test_round_trip_arbitrary_values(tmp_path_factory, values):
    s = GdpSeries(
        tuple(Observation(1900 + i, v) for i, v in enumerate(values)), label="w"
    )
    path = tmp_path_factory.mktemp("rt") / "w.csv"
    assert load_series(write_csv(s, path), label="w") == s


# -------------------------------------------------------------------- splice

def test_splice_growth_transfer():
    base = series("hist", (2000, 100.0))
    ext = series("wdi", (2000, 50.0), (2001, 55.0))
    out = splice(base, ext, 2000)
    assert out.value(2001) == pytest.approx(110.0, rel=1e-12)
    assert out.observations[1].source_tag == "spliced:wdi"


def test_splice_constant_extension_stays_flat():
    base = series("hist", (2000, 100.0))
    for years in (3, 4000):
        ext = series("wdi", *((2000 + i, 7.0) for i in range(years)))
        out = splice(base, ext, 2000)
        assert [o.value for o in out.observations] == [100.0] * years


def test_splice_chained_ratio_oracle():
    base = series("hist", (1990, 200.0))
    ext = series("wdi", (1990, 80.0), (1991, 72.0), (1992, 90.0))
    out = splice(base, ext, 1990)
    assert out.value(1991) == pytest.approx(180.0, rel=1e-12)
    assert out.value(1992) == pytest.approx(225.0, rel=1e-12)


def test_splice_preserves_base_before_cut():
    base = series("hist", (1999, 90.0), (2000, 100.0), (2001, 123.0))
    ext = series("wdi", (2000, 10.0), (2001, 20.0))
    out = splice(base, ext, 2000)
    assert out.value(1999) == 90.0
    assert out.value(2001) == pytest.approx(200.0)  # base's own 2001 replaced


def test_splice_requires_year_in_both():
    base = series("hist", (2000, 100.0))
    ext = series("wdi", (2001, 50.0))
    with pytest.raises(DataValidationError, match="splice year"):
        splice(base, ext, 2001)
    with pytest.raises(DataValidationError, match="splice year"):
        splice(base, ext, 2000)


def test_splice_missing_growth_link():
    base = series("hist", (2000, 100.0))
    ext = series("wdi", (2000, 50.0), (2002, 60.0))
    with pytest.raises(DataValidationError, match="missing growth link"):
        splice(base, ext, 2000)


@given(
    base_value=st.floats(1.0, 1e6),
    growth=st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=8),
    cut=st.integers(1, 3),
)
def test_splice_two_step_equals_one_pass(base_value, growth, cut):
    """Consecutive splices compose: A->B at t1 then ->C at t2 == one pass."""
    y0 = 2000
    levels = [100.0]
    for g in growth:
        levels.append(levels[-1] * (1 + g + 1e-9))
    years = [y0 + i for i in range(len(levels))]
    b = GdpSeries(tuple(Observation(y, v) for y, v in zip(years, levels)), label="b")
    # c has genuinely different growth rates than b
    c_levels = [v * (1.0 + 0.17 * i) for i, v in enumerate(levels)]
    c = GdpSeries(tuple(Observation(y, v) for y, v in zip(years, c_levels)), label="c")
    a = GdpSeries((Observation(y0, base_value),), label="a")
    t2 = y0 + cut
    two_step = splice(splice(a, b, y0), c, t2)
    one_pass = splice(a, splice(b, c, t2), y0)
    for ours, theirs in zip(two_step.observations, one_pass.observations):
        assert ours.year == theirs.year
        assert ours.value == pytest.approx(theirs.value, rel=1e-12)


# ------------------------------------------------------------------- log gap

@pytest.mark.parametrize(
    "year,shown",
    [
        pytest.param(10**5000, "a finite number, got an int of 16610 bits", id="huge"),
        (2000.0, "an int, got 2000.0"),
        (True, "an int, got True"),
    ],
)
def test_year_arguments_follow_the_year_rule(year, shown):
    """A calendar year is an int, not a bool, within float range."""
    syn = series("synthetic", (2000, 296.0))
    hist = series("historical", (2000, 100.0))
    with pytest.raises(DataValidationError, match=f"^year must be {shown}$"):
        log_gap(syn, hist, year)
    with pytest.raises(DataValidationError, match=f"^splice_year must be {shown}$"):
        splice(hist, syn, year)

def test_log_gap_matches_calibrated_default():
    syn = series("synthetic", (2024, 296.0))
    hist = series("historical", (2024, 100.0))
    gap = log_gap(syn, hist, 2024)
    assert gap.kind is GapKind.EXPLICIT
    assert gap.log_points == pytest.approx(1.085, abs=1e-3)
    assert gap.log_points == math.log(2.96)


def test_log_gap_trivia():
    a = series("a", (2024, 123.0))
    b = series("b", (2024, 123.0))
    assert log_gap(a, b, 2024).log_points == 0.0
    double = series("d", (2024, 246.0))
    assert log_gap(double, b, 2024).log_points == pytest.approx(math.log(2), rel=1e-12)


@given(va=st.floats(0.1, 1e6), vb=st.floats(0.1, 1e6))
def test_log_gap_antisymmetric(va, vb):
    a = series("a", (2024, va))
    b = series("b", (2024, vb))
    assert log_gap(a, b, 2024).log_points == pytest.approx(
        -log_gap(b, a, 2024).log_points, rel=1e-12, abs=1e-12
    )


def test_log_gap_missing_year():
    a = series("a", (2024, 100.0))
    b = series("b", (2023, 100.0))
    with pytest.raises(DataValidationError, match="no observation"):
        log_gap(a, b, 2024)
