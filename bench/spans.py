"""Span recorder for the traced run.

``Recorder.install()`` replaces each public function in ``TRACED`` with a
wrapper at every ``tradegap.*`` module attribute bound to it (``report`` and
``cli`` import functions by name, so patching the defining module alone
would miss their calls); ``restore()`` puts the originals back.  Each call
records a span (id, name, start, end, parent, operation).  Self time is a
span's duration minus the time its child spans cover; it is accumulated
exactly for every call, while raw spans are kept in memory only up to a
cap and written out at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: (module, function) pairs wrapped in the traced run.
TRACED = (
    ("cli", "main"),
    ("elasticities", "load_registry"),
    ("elasticities", "seed_registry"),
    ("scenarios", "load_scenario_config"),
    ("scenarios", "custom_scenario"),
    ("scenarios", "build_scenarios"),
    ("scenarios", "default_scenario_config"),
    ("series", "load_series"),
    ("series", "log_gap"),
    ("effects", "evaluate"),
    ("effects", "finite_horizon_effect"),
    ("decomposition", "additive_log_share"),
    ("decomposition", "geometric_share_of_gap"),
    ("decomposition", "backout_gap"),
    ("report", "build_grid"),
    ("report", "build_table2"),
    ("report", "build_table_a3"),
    ("report", "build_replication_table"),
    ("report", "build_gap_audit"),
    ("report", "expand_rows"),
    ("report", "render_csv"),
    ("report", "render_markdown"),
)

_BUILDERS = {
    "report.build_grid", "report.build_table2", "report.build_table_a3",
    "report.build_replication_table", "report.build_gap_audit",
}
_RENDERERS = ("report.render_csv", "report.render_markdown")
_PARSERS = {"elasticities.load_registry": "elasticities", "scenarios.load_scenario_config": "scenarios"}

SPAN_CAP = 50_000


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.rows_rendered: dict[str, int] = defaultdict(int)
        self.rows_out = 0
        self.bytes_out = 0
        self.parses: dict[str, int] = defaultdict(int)
        self.reparses: dict[str, int] = defaultdict(int)
        self._seen_files: set[tuple[str, int, int]] = set()
        self._stack: list[list] = []  # [span id, children ns]
        self._next_id = 0
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        originals = {}
        for mod, fn in TRACED:
            module = importlib.import_module(f"tradegap.{mod}")
            originals[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        wrappers = {key: self._wrap(name, f) for key, (name, f) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if not (modname == "tradegap" or modname.startswith("tradegap.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)][1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        rec = self

        def wrapper(*args, **kwargs):
            if name in _PARSERS:
                rec._count_parse(name, args[0] if args else kwargs["path"])
            stack = rec._stack
            sid = rec._next_id
            rec._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                rec.calls[name] += 1
                rec.self_ns[name] += duration - frame[1]
                rec._keep((sid, name, start, end, parent, rec._op))
            if name in _BUILDERS:
                rec.rows_out += len(result.rows)
            elif name in _RENDERERS:
                table = args[0] if args else kwargs["table"]
                rec.rows_rendered[name] += len(table.rows)
                rec.bytes_out += len(result.encode("utf-8"))
            return result

        return functools.wraps(fn)(wrapper)

    def _count_parse(self, name: str, path) -> None:
        layer = _PARSERS[name]
        self.parses[layer] += 1
        try:
            st = os.stat(path)
        except OSError:
            return
        key = (os.path.realpath(path), st.st_mtime_ns, st.st_size)
        if key in self._seen_files:
            self.reparses[layer] += 1
        self._seen_files.add(key)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; yields the span's id.

        Spans recorded inside it have it as parent (directly or through
        other spans) and carry ``op_id``.
        """
        sid = self._next_id
        self._next_id += 1
        self._op = op_id
        self._stack.append([sid, 0])
        start = perf_counter_ns()
        try:
            yield sid
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._op = None
            self._keep((sid, "op", start, end, None, op_id))

    def _keep(self, span: tuple) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1

    # -- merging child processes and output -------------------------------

    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "rows_rendered": dict(self.rows_rendered),
            "rows_out": self.rows_out,
            "bytes_out": self.bytes_out,
            "parses": dict(self.parses),
            "reparses": dict(self.reparses),
            "spans": self.spans,
            "dropped": self.dropped,
            "next_id": self._next_id,
        }

    def merge(self, state: dict, op_span: int, op_id: int) -> None:
        """Fold in a traced child's state under the parent's op span.

        Child span ids are shifted past this recorder's; the child's
        top-level spans get ``op_span`` as parent.  Both processes read the
        same monotonic clock, so start and end times stay comparable.
        """
        for key in ("calls", "self_ns", "rows_rendered", "parses", "reparses"):
            target = getattr(self, key)
            for k, v in state[key].items():
                target[k] += v
        self.rows_out += state["rows_out"]
        self.bytes_out += state["bytes_out"]
        offset = self._next_id
        for sid, name, start, end, parent, _ in state["spans"]:
            parent = op_span if parent is None else parent + offset
            self._keep((sid + offset, name, start, end, parent, op_id))
        self._next_id += state["next_id"]
        self.dropped += state["dropped"]

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per benchmark operation."""
        per_op = max(n_ops, 1)
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (self.calls[name] / per_op, "calls/op")

        def self_ms(name):
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6 / per_op, "ms/op")

        def us_per(name, key, count):
            out[f"{name}.{key}"] = (self.self_ns[name] / 1e3 / count if count else 0.0, "us")

        calls("cli.main"), self_ms("cli.main")
        calls("elasticities.load_registry"), self_ms("elasticities.load_registry")
        calls("elasticities.seed_registry")
        out["elasticities.reparse_ratio"] = (self._ratio("elasticities"), "ratio")
        for fn in ("load_scenario_config", "custom_scenario", "build_scenarios"):
            calls(f"scenarios.{fn}"), self_ms(f"scenarios.{fn}")
        calls("scenarios.default_scenario_config")
        out["scenarios.reparse_ratio"] = (self._ratio("scenarios"), "ratio")
        for fn in ("load_series", "log_gap"):
            calls(f"series.{fn}"), self_ms(f"series.{fn}")
        for name in (
            "effects.evaluate", "decomposition.additive_log_share",
            "decomposition.geometric_share_of_gap", "decomposition.backout_gap",
        ):
            calls(name), self_ms(name), us_per(name, "us_per_call", self.calls[name])
        calls("effects.finite_horizon_effect")
        for fn in (
            "build_grid", "build_table2", "build_table_a3", "build_replication_table",
            "build_gap_audit", "expand_rows",
        ):
            calls(f"report.{fn}"), self_ms(f"report.{fn}")
        out["report.rows_out"] = (self.rows_out / per_op, "rows/op")
        for name in _RENDERERS:
            self_ms(name), us_per(name, "us_per_row", self.rows_rendered[name])
        out["report.bytes_out"] = (self.bytes_out / per_op, "bytes/op")
        return out

    def _ratio(self, layer: str) -> float:
        parses = self.parses[layer]
        return self.reparses[layer] / parses if parses else 0.0

    def write(self, path: Path, extra: dict) -> None:
        layers = sorted(self.self_ns)
        payload = dict(
            extra,
            self_ms_total={k: self.self_ns[k] / 1e6 for k in layers},
            calls_total={k: self.calls[k] for k in layers},
            spans_recorded=len(self.spans),
            spans_dropped=self.dropped,
            span_fields=["id", "name", "start_ns", "end_ns", "parent", "op"],
            spans=self.spans,
        )
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
