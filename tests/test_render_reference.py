"""The column-block renderers against a literal reference of the per-cell ones.

The reference below restates, cell by cell, what a rendered table is: its
rows run block by block, a block's shared text standing in every one of its
rows; every cell passes through one formatting rule (a float must be finite and prints
at ``decimals`` places, anything else prints as ``str``), CSV rows go
through ``csv.writer`` one at a time, and Markdown pads each cell to its
column's width.  It is written out here rather than imported, so that the
renderers are compared with an independent transcription and not with
themselves.  Output must be equal with ``==``; a table that cannot be
rendered must raise the same exception class and message as the reference,
which names the first bad cell in row-major order.  The renderers format a
block's rows in %-calls of at most ``report._PASS_CELLS`` rows each; the
tests also run them with calls of two rows, so that a block spans several.
"""

import csv
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradegap import DataValidationError, report
from tradegap.report import ResultTable, render_csv, render_markdown


# ------------------------------------------------------------- the reference

def ref_rows(table):
    rows = []
    for block in table.blocks:
        lists = [col for col in block if not isinstance(col, str)]
        for i in range(len(lists[0]) if lists else 0):
            rows.append(tuple(col if isinstance(col, str) else col[i] for col in block))
    return rows


def ref_cell(cell, decimals):
    if isinstance(cell, float):
        if not math.isfinite(cell):
            raise DataValidationError(
                f"table cell out of float range ({cell}): check input magnitudes"
            )
        return f"{cell:.{decimals}f}"
    return str(cell)


def ref_csv(table, decimals):
    buf = io.StringIO()
    buf.write(f"# {table.caption}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in ref_rows(table):
        writer.writerow([ref_cell(c, decimals) for c in row])
    for note in table.footnotes:
        buf.write(f"# {note}\n")
    return buf.getvalue()


def ref_markdown(table, decimals):
    cells = [[ref_cell(c, decimals) for c in row] for row in ref_rows(table)]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(table.columns)
    ]

    def fmt_row(values):
        return "| " + " | ".join(v.ljust(w) for v, w in zip(values, widths)) + " |"

    lines = [f"**{table.caption}**", ""]
    lines.append(fmt_row(list(table.columns)))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt_row(r) for r in cells)
    lines.append("")
    lines.extend(f"- {note}" for note in table.footnotes)
    return "\n".join(lines) + "\n"


def outcome(render_fn, table, decimals, rows_per_call=None):
    """The rendered text, or the (class, message) of what rendering raised,
    with %-calls of at most ``rows_per_call`` rows if given."""
    default = report._PASS_CELLS
    report._PASS_CELLS = rows_per_call or default
    try:
        return render_fn(table, decimals)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    finally:
        report._PASS_CELLS = default


# ----------------------------------------------------------------- the draws

TEXT = st.text(st.sampled_from('ab Z,"\n\r{}:|-é'), max_size=8)
FLOATS = st.one_of(
    st.floats(-1e6, 1e6), st.floats(), st.sampled_from([-0.0, 0.05, 0.25, 1e300, 1e308])
)
CELLS = {
    "str": TEXT,
    "float": FLOATS,
    "int": st.integers(-(10**20), 10**20),
    "mixed": st.one_of(TEXT, FLOATS, st.integers(-99, 99), st.booleans(), st.none()),
}


@st.composite
def tables(draw):
    """Up to four blocks over one set of columns.  In each block a column
    holds cells of its kind, or one text shared by the block's rows, or the
    same cells object as an earlier block of as many rows, as the grid
    shares its scenario columns."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n_rows = draw(st.integers(0, 4))
        block = []
        for j, kind in enumerate(kinds):
            how = draw(st.sampled_from(["cells", "cells", "shared", "earlier"]))
            earlier = [b[j] for b in blocks if not isinstance(b[j], str) and len(b[j]) == n_rows]
            if how == "shared":
                block.append(draw(TEXT))
            elif how == "earlier" and earlier:
                block.append(draw(st.sampled_from(earlier)))
            else:
                block.append(draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)))
        blocks.append(tuple(block))
    return ResultTable(
        caption=draw(TEXT),
        columns=tuple(draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))),
        blocks=tuple(blocks),
        footnotes=tuple(draw(st.lists(TEXT, max_size=2))),
    )


def _table(columns, *rows):
    return ResultTable("caption", columns, footnotes=("note",), rows=rows)


def _blocks(columns, *blocks):
    return ResultTable("caption", columns, blocks, ("note",))


SCENARIOS = ["C1", "C2", "C3"]
SHOCKS = ["0.174000", "0.361353", "0.439936"]
SHARED = [1.0, math.inf]


@settings(max_examples=300, deadline=None)
@given(table=tables(), decimals=st.sampled_from([1, 6]))
@example(table=_table(("x", "y")), decimals=1)  # no rows
@example(table=_table(("n", "v"), (1, 0.25), (22, -0.0)), decimals=1)  # the per-cell branch
# column-major order would meet the nan first; row-major meets the inf
@example(table=_table(("a", "b"), (1.0, math.inf), (math.nan, 2.0)), decimals=1)
@example(table=_table(("a", "b"), ("s", 1.5), (None, math.inf), (math.nan, 2.0)), decimals=6)
# the edges of the %-templates: a cell csv.writer may quote sends CSV through
# it, and a Markdown float column's width comes from its formatted min and max
@example(table=_table(("s", "x"), ("a\rb", 1.5), ("c", 2.0)), decimals=1)
@example(table=_table(("s",), ("a",), ("",)), decimals=1)
@example(table=_table(("x",), (0.0,), (-0.0,), (0.04,)), decimals=1)
@example(table=_table(("x", "s"), (1.0, "a"), (9.96, "b")), decimals=1)
@example(
    table=_table(
        ("model", "elasticity", "share_C1_pct"),
        ("Yanikkaya (2003), 12-year", "0.018/pp", 2.0491),
        ("Frankel and Romer (1999)", "1.97", 31.5),
    ),
    decimals=1,
)
# non-finite cells in block 2, column 5 and in block 3, column 1: the first in
# row-major order is named, though block 3's sits in an earlier column
@example(
    table=_blocks(
        ("model", "horizon", "scenario", "delta_lambda", "effect_pct"),
        ("Yanikkaya (2003)", "12-year", SCENARIOS, SHOCKS, [1.0, 2.0, 3.0]),
        ("Feyrer (2019)", "long-run", SCENARIOS, SHOCKS, [4.0, 5.0, math.nan]),
        ([math.inf, 1.0, 2.0], "long-run", SCENARIOS, SHOCKS, [6.0, 7.0, 8.0]),
    ),
    decimals=1,
)
# shared text with a %, a comma or nothing at all; a block of shared text
# alone has no rows, so its text sets no width
@example(
    table=_blocks(
        ("model", "share"),
        ("100% open", [1.25, -0.0]),
        ("a,b", [2.0]),
        ("", [-3.5]),
        ("a block with no rows", "-"),
    ),
    decimals=1,
)
# every cell finite, but their sum is not
@example(table=_table(("x", "y"), (1e308, "a"), (1e308, "b")), decimals=1)
# one column object in blocks 1 and 3, checked once: its inf is still named,
# as the first bad cell in row-major order, before block 2's nan
@example(
    table=_blocks(
        ("model", "x", "y"),
        ("a", SHARED, [1.0, 2.0]), ("b", [math.nan, 1.0], SHOCKS[:2]), ("c", SHARED, [5.0, 6.0]),
    ),
    decimals=1,
)
# ... and named after a bad cell of an earlier block that it is not in
@example(
    table=_blocks(("model", "x"), ("a", [1.0, -math.inf]), ("b", SHARED), ("c", SHARED)),
    decimals=1,
)
# a block of five rows: %-calls of two, two and one row
@example(
    table=_blocks(("s", "x"), (SCENARIOS + SHOCKS[:2], [0.5, -0.0, 2.0, 3.0, 4.25])), decimals=6
)
def test_renderers_match_the_per_cell_reference(table, decimals):
    assert table.rows == tuple(ref_rows(table))
    for render_fn, ref_fn in ((render_csv, ref_csv), (render_markdown, ref_markdown)):
        expected = outcome(ref_fn, table, decimals)
        assert outcome(render_fn, table, decimals) == expected
        assert outcome(render_fn, table, decimals, rows_per_call=2) == expected

