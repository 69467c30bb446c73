import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_write_csv

from emsdeploy.errors import write_csv

# fields csv.writer must quote, or must not, and the empty field
TEXT = st.text(alphabet=st.sampled_from(["a", " ", ",", '"', "\r", "\n", "é", "0"]), max_size=4)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 0.1]
)
INTS = st.integers(-(2**63), 2**63 - 1)


def column(n: int):
    """A column of ``n`` fields: Python values of one or several kinds, or a
    float64, int64, str or bool numpy array."""
    return st.one_of(
        st.lists(TEXT, min_size=n, max_size=n),
        st.lists(st.just(""), min_size=n, max_size=n),
        st.lists(st.none() | INTS | FLOATS | TEXT, min_size=n, max_size=n),
        st.lists(st.none() | INTS, min_size=n, max_size=n),
        st.lists(FLOATS, min_size=n, max_size=n),
        st.lists(FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(INTS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(TEXT, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=str)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    )


@st.composite
def tables(draw):
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    header = draw(st.none() | st.lists(TEXT | st.none(), min_size=n_cols, max_size=n_cols))
    return header, [draw(column(n_rows)) for _ in range(n_cols)]


@settings(max_examples=300, deadline=None)
@given(tables())
def test_write_csv_writes_csv_writers_bytes(tmp_path_factory, table):
    # a numpy column is written as its tolist() values, so no byte depends on
    # numpy's scalar repr
    header, columns = table
    path = tmp_path_factory.mktemp("csv")
    write_csv(path / "columns.csv", header, columns)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    reference_write_csv(path / "rows.csv", header, rows)
    assert (path / "columns.csv").read_bytes() == (path / "rows.csv").read_bytes()


def test_write_csv_refuses_columns_of_unequal_lengths(tmp_path):
    with pytest.raises(ValueError, match="unequal"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
