"""The file readers parse each distinct (path, bytes) once per process: a
repeated read of unchanged bytes returns the object the first parse built,
a changed byte is read anew, and a bad file raises on every read."""

import os

import pytest

from tradegap import (
    ConfigurationError,
    DataValidationError,
    build_table2,
    load_registry,
    load_scenario_config,
    load_series,
    log_gap,
    render,
)
from tradegap.elasticities import _SEED_RESOURCE
from tradegap.errors import _PARSED_FILES
from tradegap.scenarios import _CONFIG_RESOURCE

REGISTRY = ('{"schema_version": 1, "models": [{"name": "m", "form": "log_linear_level", '
            '"coefficient": %s, "horizon": {"kind": "steady_state"}}]}')
CONFIG = ('{"inputs": {"trade_gap_vs_synthetic_1972": 530, "trade_with_us_1958": 1122, '
          '"synthetic_export_excess_1972": 244, "gdp_1958": %s}}')
SERIES = "year,value\n2000,%s\n2001,250\n"
#: Each reader, the error it raises, a file text with one value left open,
#: and how to read that value back from what the reader returns.
READERS = {
    "registry": (load_registry, ConfigurationError, REGISTRY, lambda r: r.levels[0]),
    "config": (load_scenario_config, ConfigurationError, CONFIG, lambda c: c.inputs.gdp_1958),
    "series": (load_series, DataValidationError, SERIES, lambda s: s.value(2000)),
}


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _inputs(folder):
    """A registry, a config and two series files under ``folder``."""
    return (
        _write(folder / "registry.json", _SEED_RESOURCE.read_text(encoding="utf-8")),
        _write(folder / "config.json", _CONFIG_RESOURCE.read_text(encoding="utf-8")),
        _write(folder / "syn.csv", SERIES % 300),
        _write(folder / "hist.csv", SERIES % 100),
    )


def _table2(registry, config, syn, hist, fmt):
    return render(build_table2(registry, config, log_gap(syn, hist, 2000)), fmt)


def test_a_hit_is_the_first_parse_and_renders_as_a_fresh_one(tmp_path):
    loads = (load_registry, load_scenario_config, load_series, load_series)
    paths = _inputs(tmp_path / "a")
    first = [load(p) for load, p in zip(loads, paths)]
    again = [load(str(p)) for load, p in zip(loads, paths)]
    assert all(a is b for a, b in zip(first, again))
    # the same bytes at other paths are other keys, so each is a full parse
    fresh = [load(p) for load, p in zip(loads, _inputs(tmp_path / "b"))]
    assert all(a is not b and a == b for a, b in zip(first, fresh))
    for fmt in ("csv", "md"):
        assert _table2(*again, fmt) == _table2(*fresh, fmt)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_same_size_rewrite_with_the_old_mtime_is_read_anew(tmp_path, reader):
    load, _error, text, read = READERS[reader]
    path = _write(tmp_path / "input", text % "3105")
    assert read(load(path)) == 3105
    stat = os.stat(path)
    _write(path, text % "3106")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert read(load(path)) == 3106


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_bad_file_raises_on_every_read_until_it_is_fixed(tmp_path, reader):
    load, error, text, read = READERS[reader]
    path = _write(tmp_path / "input", text % "x")
    messages = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            load(path)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] and str(path) in messages[0]
    _write(path, text % "7")
    assert read(load(path)) == 7


def test_identical_series_at_two_paths_keep_their_own_stems(tmp_path):
    syn = _write(tmp_path / "a" / "syn.csv", SERIES % 300)
    hist = _write(tmp_path / "b" / "hist.csv", SERIES % 300)
    assert (load_series(syn).label, load_series(hist).label) == ("syn", "hist")
    assert load_series(syn).observations == load_series(hist).observations


def test_more_files_than_the_bound_each_read_their_own_values(tmp_path):
    count = _PARSED_FILES + 8
    paths = [_write(tmp_path / f"s{i}.csv", SERIES % (i + 1)) for i in range(count)]
    for _ in range(2):  # the second pass meets files the first pushed out
        assert [load_series(p).value(2000) for p in paths] == [i + 1 for i in range(count)]
