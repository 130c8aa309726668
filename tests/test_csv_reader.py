"""The load_csv contract: what the reader accepts, what it rejects, and how.

``load_csv`` reads well-formed files with numpy's C reader and hands every
other file to a per-row loop. The cases here pin the results and the error
texts, whichever path a file takes; the property test checks that the two
paths agree on generated files.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecast import data
from phasecast.data import DatasetSpec, load_csv
from phasecast.errors import DataError


def write_lines(path, lines, newline="\n"):
    path.write_bytes((newline.join(lines) + newline).encode())
    return path


def load(path, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a stray warning fails the test
        return load_csv(DatasetSpec(path=str(path), **kwargs))


class TestAccepted:
    def test_quoted_timestamp_with_a_comma(self, tmp_path):
        path = write_lines(tmp_path / "q.csv", [
            "date,a,b", '"Jul 1, 2016",1.0,2.0', '"Jul 2, 2016",3.0,4.0'])
        ds = load(path)
        assert ds.timestamps == ["Jul 1, 2016", "Jul 2, 2016"]
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4]])

    def test_numbers_padded_with_whitespace(self, tmp_path):
        path = write_lines(tmp_path / "pad.csv", ["timestamp,a,b", "0, 1.5 ,\t2", "1,  -3e2,4.25  "])
        ds = load(path)
        np.testing.assert_array_equal(ds.values, [[1.5, 2.0], [-300.0, 4.25]])
        assert ds.timestamps == [0.0, 1.0]

    def test_crlf_line_endings_read_like_lf(self, tmp_path):
        lines = ["timestamp,a,b", "0,1.0,2.0", "1,3.0,4.0"]
        crlf = load(write_lines(tmp_path / "crlf.csv", lines, newline="\r\n"))
        lf = load(write_lines(tmp_path / "lf.csv", lines))
        assert crlf.values.tobytes() == lf.values.tobytes()
        assert crlf.timestamps == lf.timestamps and crlf.names == lf.names == ["a", "b"]

    def test_non_numeric_cell_in_a_column_left_out(self, tmp_path):
        path = write_lines(tmp_path / "skip.csv", ["timestamp,a,b", "0,oops,2.0", "1,,4.0"])
        ds = load(path, columns=["b"])
        assert ds.names == ["b"]
        np.testing.assert_array_equal(ds.values, [[2.0], [4.0]])

    def test_consecutive_gaps_forward_filled(self, tmp_path):
        path = write_lines(tmp_path / "gaps.csv",
                           ["timestamp,a,b", "0,1.0,2.0", "1,,3.0", "2,,", "3,5.0,"])
        ds = load(path, forward_fill=True)
        np.testing.assert_array_equal(ds.values, [[1, 2], [1, 3], [1, 3], [5, 3]])

    def test_values_are_contiguous_float64(self, tmp_path):
        path = write_lines(tmp_path / "toy.csv", ["timestamp,a,b,c", "0,1,2,3", "1,4,5,6"])
        for columns in (None, ["c", "a"]):
            values = load(path, columns=columns).values
            assert values.dtype == np.float64 and values.flags.c_contiguous

    def test_column_subset_of_a_wide_file_matches_the_row_loop(self, tmp_path, monkeypatch):
        values = np.random.default_rng(6).standard_normal((40, 50))
        path = tmp_path / "wide.csv"
        with open(path, "w") as fh:
            fh.write("timestamp," + ",".join(f"v{j}" for j in range(50)) + "\n")
            for i, row in enumerate(values):
                fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")
        spec = DatasetSpec(path=str(path), columns=["v31", "v2", "v31", "v49"])
        expected = _row_loop_only(spec)
        monkeypatch.setattr(data, "_read_rows", None)  # the C reader must take it
        assert _outcome(spec) == expected
        np.testing.assert_array_equal(load_csv(spec).values, values[:, [31, 2, 31, 49]])


class TestRejected:
    def test_nan_or_inf_cell_rejected_as_non_finite(self, tmp_path):
        for cell in ("nan", "inf", "-Infinity"):
            path = write_lines(tmp_path / "nf.csv", ["timestamp,a,b", "0,1.0,2.0", f"1,{cell},4.0"])
            with pytest.raises(DataError, match="contains non-finite values"):
                load(path)

    def test_blank_line_mid_file(self, tmp_path):
        path = write_lines(tmp_path / "blank.csv", ["timestamp,a,b", "0,1.0,2.0", "", "1,3.0,4.0"])
        with pytest.raises(DataError, match=r"blank\.csv:3 has 0 cells, expected 3"):
            load(path)

    def test_ragged_row(self, tmp_path):
        path = write_lines(tmp_path / "ragged.csv", ["timestamp,a,b", "0,1.0,2.0", "1,3.0,4.0,5.0"])
        with pytest.raises(DataError, match=r"ragged\.csv:3 has 4 cells, expected 3"):
            load(path)

    @pytest.mark.parametrize("row, cells", [("1,3.0,4.0,5.0,6.0", 5), ("1,3.0,4.0", 3)],
                             ids=["wider", "narrower"])
    def test_ragged_row_with_a_column_subset(self, tmp_path, row, cells):
        # The C reader reads only the kept columns, so it cannot see a row's
        # width; the row loop must still name the line.
        path = write_lines(tmp_path / "ragged.csv", ["timestamp,a,b,c", "0,1.0,2.0,3.0", row])
        with pytest.raises(DataError, match=rf"ragged\.csv:3 has {cells} cells, expected 4"):
            load(path, columns=["a"])

    def test_every_row_wider_than_the_header(self, tmp_path):
        path = write_lines(tmp_path / "wide.csv", ["timestamp,a", "0,1.0,2.0", "1,3.0,4.0"])
        with pytest.raises(DataError, match=r"wide\.csv:2 has 3 cells, expected 2"):
            load(path)

    def test_header_only_file(self, tmp_path):
        path = write_lines(tmp_path / "header.csv", ["timestamp,a,b"])
        with pytest.raises(DataError, match="has a header but no data rows"):
            load(path)

    def test_gap_in_the_first_row_cannot_be_filled(self, tmp_path):
        path = write_lines(tmp_path / "first.csv", ["timestamp,a,b", "0,,2.0", "1,3.0,4.0"])
        with pytest.raises(DataError, match=r"first\.csv:2 column 'a' is missing a value"):
            load(path, forward_fill=True)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write_lines(tmp_path / "word.csv", ["timestamp,a,b", "0,1.0,2.0", "1,3.0,1_0x"])
        with pytest.raises(DataError, match=r"word\.csv:3 column 'b' is not numeric: '1_0x'"):
            load(path)


def _row_loop_only(spec):
    """load_csv with the C reader refusing every file, so the row loop reads it."""
    fast = data._read_table
    data._read_table = lambda *args: None
    try:
        return _outcome(spec)
    finally:
        data._read_table = fast


def _outcome(spec):
    """What load_csv does with ``spec``: its result or error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_csv(spec)
            result = ("ok", ds.names, repr(ds.timestamps), ds.values.dtype, ds.values.shape,
                      ds.values.tobytes(), ds.values.flags.c_contiguous)
        except Exception as err:  # the loop's error, whatever its type, is the contract
            result = ("error", type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr) | \
    st.integers(-10**6, 10**6).map(str)
PAD = st.sampled_from(["", " ", "\t", "  ", "\x0b", "\x1f"])
WELL_FORMED_CELL = st.tuples(PAD, NUMBER, PAD).map("".join) | NUMBER.map(lambda s: f'"{s}"')
MALFORMED_CELL = st.sampled_from(["", " ", "nan", "inf", "-Infinity", "oops", "1_0", '1"2"',
                                  ' "1"', '"1"2', '"1" ', "1e999", '"', "1,2"]) | \
    st.text(alphabet='0123456789.-+eE naifx"\t,_\r\n\x0b', max_size=6)
STAMP = st.integers(0, 50).map(str) | st.sampled_from(
    ['"Jul 1, 2016"', "2016-07-01 00:00:00", ' 7 ', '"a""b"', '"ab"cd', "", "x"])


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 4))
    header = ["timestamp"] + [f"v{j}" for j in range(width)]
    malformed = draw(st.booleans())
    lines = [",".join(header)]
    stamps = sorted(draw(st.lists(st.integers(0, 10**6), min_size=0, max_size=8)))
    for stamp in stamps:
        cells = [str(stamp) if not malformed else draw(STAMP)]
        cells += [draw(WELL_FORMED_CELL) for _ in range(width)]
        if malformed and draw(st.integers(0, 3)) == 0:
            where = draw(st.integers(0, width))
            cells[where] = draw(MALFORMED_CELL)
        if malformed and draw(st.integers(0, 7)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + [draw(NUMBER)]
        lines.append(",".join(cells))
        if malformed and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ","])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    columns = None
    if draw(st.booleans()):
        columns = draw(st.lists(st.sampled_from(header[1:]), min_size=1, max_size=width))
    return text, columns, draw(st.booleans()), draw(st.booleans())


class TestAgainstTheRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=csv_files())
    def test_same_values_timestamps_and_errors(self, tmp_path_factory, case):
        text, columns, forward_fill, sort_on_disorder = case
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes(text.encode())
        spec = DatasetSpec(path=str(path), columns=columns, forward_fill=forward_fill,
                           sort_on_disorder=sort_on_disorder)
        assert _outcome(spec) == _row_loop_only(spec)

    @pytest.mark.parametrize("row", [
        "x" * 140_000 + ",1.0",
        '"' + "a," * 70_000 + '",1.0',
        "0," + " " * 140_000 + "1.0",
    ], ids=["timestamp", "quoted-timestamp", "padded-value"])
    def test_cell_over_the_csv_field_limit(self, tmp_path, row):
        path = write_lines(tmp_path / "long.csv", ["timestamp,a", row, "1,2.0"])
        outcome = _outcome(DatasetSpec(path=str(path)))
        assert outcome == _row_loop_only(DatasetSpec(path=str(path)))
        assert "field larger than field limit" in outcome[0][2]


def test_peak_memory_bounded_by_the_values(tmp_path):
    values = np.random.default_rng(5).standard_normal((2000, 64))
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write("timestamp," + ",".join(f"v{j}" for j in range(64)) + "\n")
        for i, row in enumerate(values):
            fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")
    tracemalloc.start()
    try:
        ds = load_csv(DatasetSpec(path=str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.values.tobytes() == values.tobytes()
    assert peak < 3 * values.nbytes, f"peak {peak} B for {values.nbytes} B of values"
