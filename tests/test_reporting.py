"""The table renderer against ``_fmt`` applied cell by cell.

``_write_table`` renders a column at a time, in chunks of ``_TABLE_ROWS``
rows; the reference below renders every cell through ``_fmt`` in one piece,
as a row-by-row writer would. Both must give the same bytes.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ersim.reporting import _TABLE_ROWS, _column, _fmt, _write_table

MAX = sys.float_info.max
SPECIAL_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308, MAX, -MAX,
]
ROW_COUNTS = [0, 1, _TABLE_ROWS - 1, _TABLE_ROWS, _TABLE_ROWS + 1]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans().map(np.bool_),
)
#: kind -> (cell strategy, how a list of cells becomes a column)
KINDS = {
    "float64 array": (floats, lambda v: np.array(v, dtype=np.float64)),
    "int64 array": (st.integers(-(2**63), 2**63 - 1), lambda v: np.array(v, dtype=np.int64)),
    "uint64 array": (st.integers(0, 2**64 - 1), lambda v: np.array(v, dtype=np.uint64)),
    "bool array": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "float32 array": (st.floats(width=32), lambda v: np.array(v, dtype=np.float32)),
    "int list": (st.integers(), list),
    "float list": (floats, list),
    "str list": (st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), list),
    "numpy scalar list": (numpy_scalars, list),
}


def reference_table(comments, columns) -> bytes:
    """Every cell through ``_fmt``, row by row, in one piece."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in comments.items()]
    lines.append(",".join(columns))
    lines += [",".join(map(_fmt, row)) for row in zip(*columns.values(), strict=True)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def tables(draw):
    """Columns of one row count, each cycling a short pool of drawn cells."""
    n = draw(st.sampled_from(ROW_COUNTS))
    columns = {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))):
        cells, make = KINDS[kind]
        pool = draw(st.lists(cells, min_size=1, max_size=7))
        columns[f"c{i}"] = make((pool * (n // len(pool) + 1))[:n])
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=tables(), comment=st.one_of(floats, st.integers(), st.text(max_size=4)))
def test_columns_render_as_fmt_per_cell(tmp_path_factory, columns, comment):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    comments = {"value": comment}
    _write_table(path, comments, columns)
    assert path.read_bytes() == reference_table(comments, columns)
    for values in columns.values():
        assert _column(values) == list(map(_fmt, values))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_special_floats_at_every_row_count(tmp_path, n):
    pool = SPECIAL_FLOATS
    values = np.array((pool * (n // len(pool) + 1))[:n])
    columns = {"x": values, "i": np.arange(n, dtype=np.int64) - n // 2, "b": values > 0, "r": range(n)}
    _write_table(tmp_path / "t.csv", {}, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_table({}, columns)


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        _write_table(tmp_path / "t.csv", {}, {"a": np.zeros(_TABLE_ROWS + 1), "b": np.zeros(_TABLE_ROWS)})
