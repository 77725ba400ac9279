"""CSV ingestion, validation errors, and round-tripping."""

import errno
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalefree import data
from scalefree.data import Dataset, load_csv, save_csv
from scalefree.errors import (
    EmptyDataset,
    EmptyFile,
    MissingLabelColumn,
    NonFiniteValue,
    ParseError,
)
from scalefree.model_io import save_model
from scalefree.report import EvaluationReport, write_report
from scalefree.transforms import fit_transformer


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_small_numeric_file(self, tmp_path):
        path = _write(tmp_path, "a,b\n1.5,2\n-3,4.25\n")
        ds = load_csv(path)
        assert ds.n_rows == 2 and ds.n_features == 2
        assert ds.name == "data"
        assert ds.feature_names == ["a", "b"]
        assert np.array_equal(ds.features, [[1.5, 2.0], [-3.0, 4.25]])
        assert ds.labels is None

    def test_label_by_name(self, tmp_path):
        path = _write(tmp_path, "x,cls,y\n1,a,2\n3,b,4\n")
        ds = load_csv(path, label_column="cls")
        assert ds.feature_names == ["x", "y"]
        assert ds.labels.tolist() == ["a", "b"]
        assert ds.label_name == "cls"

    def test_label_by_index(self, tmp_path):
        path = _write(tmp_path, "x,cls,y\n1,a,2\n3,b,4\n")
        ds = load_csv(path, label_column=1)
        assert ds.labels.tolist() == ["a", "b"]
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_unparseable_cell_reports_coordinates(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,abc\n")
        with pytest.raises(ParseError) as exc_info:
            load_csv(path)
        assert exc_info.value.row == 3
        assert exc_info.value.column == "b"
        assert "abc" in str(exc_info.value)

    @pytest.mark.parametrize("raw", [b"a,b\n1,\xff\n", b"a,\xff\n1,2\n"])
    def test_invalid_utf8_is_a_parse_error(self, raw, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            # an unclosed quote runs to the end of the file, past csv's field limit
            (
                "a,b\n" + "1.5,2.5\n" * 7 + '1.5,"2.5\n' + "1.5,2.5\n" * 19992,
                "field larger than field limit (131072)",
            ),
            ("a,b\n1," + "2" * 140_000 + "\n", "field larger than field limit (131072)"),
            # in a short file it reaches the end: not one row whose label is the rest
            ('a,label\n1,"x\n2,y\n3,z\n', "unexpected end of data"),
            # not the cell 23
            ('a,label\n1,"2"3\n', "',' expected after '\"'"),
        ],
        ids=["stray-quote", "over-long-cell", "unclosed-quote", "text-after-quote"],
    )
    def test_unreadable_csv_field_is_a_parse_error(self, text, reason, tmp_path):
        path = _write(tmp_path, text)
        with pytest.raises(ParseError) as exc_info:
            load_csv(path, label_column="label" if text.startswith("a,label") else None)
        assert str(exc_info.value) == f"{path}: not readable as CSV ({reason})"

    @pytest.mark.parametrize(
        "cell, error, fault",
        [
            ("x" * 10_000, ParseError, "cannot parse {} as a number"),
            ("9" * 10_000, NonFiniteValue, "non-finite value {}"),
        ],
        ids=["unparseable", "non-finite"],
    )
    def test_long_bad_cell_is_quoted_by_its_prefix(self, cell, error, fault, tmp_path):
        path = _write(tmp_path, f"a,b\n1,{cell}\n")
        with pytest.raises(error) as exc_info:
            load_csv(path)
        quoted = repr(cell[:40]) + "... (10000 characters)"
        assert str(exc_info.value) == f"{path}: row 2, column 'b': " + fault.format(quoted)

    @pytest.mark.parametrize(
        "text, label_column, error, message",
        [
            (
                "a,b\n1,2\n",
                "x" * 5000,
                MissingLabelColumn,
                f"no column named {'x' * 40!r}... (5000 characters) in header ['a', 'b']",
            ),
            (
                "h" * 5000 + ",b\n1,2\n",
                "nope",
                MissingLabelColumn,
                "no column named 'nope' in header " + repr("['" + "h" * 38) + "... (5009 characters)",
            ),
            (
                "a,b\n1,2\n",
                10**4000,
                MissingLabelColumn,
                f"label column index '1{'0' * 39}'... (4001 characters) out of range for 2 columns",
            ),
            (
                "a," + "h" * 5000 + "\n1,x\n",
                None,
                ParseError,
                f"{{path}}: row 2, column {'h' * 40!r}... (5000 characters): "
                "cannot parse 'x' as a number",
            ),
        ],
        ids=["label-name", "header-cell", "label-index", "column-name"],
    )
    def test_long_names_are_quoted_by_their_prefix(
        self, text, label_column, error, message, tmp_path
    ):
        path = _write(tmp_path, text)
        with pytest.raises(error) as exc_info:
            load_csv(path, label_column=label_column)
        assert str(exc_info.value) == message.format(path=path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a BOM."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfcls,a,b\nx,1,2\ny,3,4\n")
        ds = load_csv(path, label_column="cls")
        assert ds.feature_names == ["a", "b"]
        assert ds.label_name == "cls"
        assert ds.labels.tolist() == ["x", "y"]
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2,3\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_nan_and_inf_rejected(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            load_csv(_write(tmp_path, "a\nnan\n", "n.csv"))
        with pytest.raises(NonFiniteValue):
            load_csv(_write(tmp_path, "a\n1e999\n", "i.csv"))

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingLabelColumn):
            load_csv(path, label_column="target")
        with pytest.raises(MissingLabelColumn):
            load_csv(path, label_column=5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_blank_header_is_an_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile, match="empty header row"):
            load_csv(_write(tmp_path, " , \n1,2\n"))

    def test_label_only_header_has_no_features(self, tmp_path):
        with pytest.raises(ParseError, match="no feature columns besides the label"):
            load_csv(_write(tmp_path, "y\n1\n"), label_column="y")

    def test_boolean_label_column_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="label_column must be a name or integer index"):
            load_csv(_write(tmp_path, "a,b\n1,2\n"), label_column=True)

    def test_header_only_loads_zero_rows(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,b\n"))
        assert ds.n_rows == 0
        with pytest.raises(EmptyDataset):
            fit_transformer(ds.features, "minmax")

    def test_class_count_preserved(self, tmp_path):
        """A file shaped like a small multi-class set keeps all its labels."""
        rng = np.random.default_rng(81)
        lines = ["f1,f2,f3,f4,f5,f6,f7,f8,f9,type"]
        for i in range(214):
            values = ",".join(repr(float(v)) for v in rng.normal(size=9))
            lines.append(f"{values},{i % 6}")
        path = _write(tmp_path, "\n".join(lines) + "\n")
        ds = load_csv(path, label_column="type")
        assert ds.n_rows == 214 and ds.n_features == 9
        assert len(np.unique(ds.labels)) == 6


# (file text, label column): the ways a cell or row can be read or rejected
LOAD_CORPUS = [
    ("cls,a,b\nx,1,2\ny,3,4\n", "cls"),
    ("a,cls,b\n1,x,2\n3,y,4\n", 1),
    ("a,b,cls\n1,2,x\n3,4,y\n", "cls"),
    ("a,b\n1,2\n3,4\n", None),
    ('a,cls\n1,"x,y"\n2,"q""z"\n', "cls"),
    ("a,cls\n1,nan\n2,-inf\n", "cls"),
    ("a,b\n", None),
    ("a,cls\n", "cls"),
    ("a,b\n1,2\n\n3,4\n", None),
    ("a,b\n 1.5 ,2\n", None),
    ("a,b\n1_0,2\n", None),
    ("a,b\n-0.0,5e-324\n1e308,-1e308\n", None),
    ("a,b\n1,nan\n", None),
    ("a,b\n1,-inf\n", None),
    ("a,b\n1e309,2\n", None),
    ("a,b\n1,abc\n", None),
    ("a,b\n1,\n", None),
    ("a,b\n1,2,3\n", None),
    ("a,cls\nx,1\n", "cls"),
    # a short row lacks the label cell: its width is reported before any label is read
    ("a,b,cls\n1,2,x\n3,4\n", "cls"),
    ("a,cls,b\n1,x,2\n3\n", 1),
    # several faults: the first one in file order is reported
    ("a,b\n1,2\n1,nan\n3,4\n5\n", None),
    ("a,b\n1,2\n5\n3,4\n1,nan\n", None),
    ("a,b\n1,2\nx,inf\n", None),
    ("a,b\n1,2\ninf,x\n", None),
    # syntax only float reads: numpy's reader refuses it, and csv's path reads it
    ("a,b\n\u0661,2\n", None),
    ("a,b\n\xa01.5\u3000,2\n", None),
    # float does not strip \x1f, numpy would: not plain, so csv's path rejects it
    ("a,b\n1\x1f,2\n", None),
    ("a,cls\r\n1,x\r\n2,y\r\n", "cls"),
    ("a,cls\r1,x\r2,y", "cls"),
    # line breaks to str.splitlines, not to csv
    ("a,cls\n1,x\x0b2,y\n", "cls"),
    ("a,cls\n1,x\x852,y\n", "cls"),
    ("a,cls\n1,x\u20282,y\n", "cls"),
    ("\ufeffcls,a\nx,1\n", "cls"),
    ("a,b\n1,2\n \n", None),
    # NUL: csv's reader refuses it before Python 3.11, so it is never plain
    ("a,cls\n1,x\x00\n", "cls"),
    ("a,b\n1\x00,2\n", None),
]


def _outcome(path, label_column):
    try:
        ds = load_csv(path, label_column=label_column)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tolist())
    return ds.features.shape, ds.features.tobytes(), labels, ds.feature_names, ds.label_name


def _outcomes(path, label_column):
    """`_outcome` two ways: as load_csv reads the file, and with the plain
    path off, so csv's reader splits every text and the cell-by-cell scan
    parses every cell."""
    plain = _outcome(path, label_column)
    with mock.patch.object(data, "_plain_lines", lambda text: None):
        return plain, _outcome(path, label_column)


class TestLoadPaths:
    """numpy's reader of plain text and the cell-by-cell scan must agree on
    every file."""

    @pytest.mark.parametrize("text, label_column", LOAD_CORPUS)
    def test_fast_path_matches_scan(self, text, label_column, tmp_path):
        plain, scan = _outcomes(_write(tmp_path, text), label_column)
        assert plain == scan

    def test_clean_file_takes_fast_path(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "a,cls,b\n1,x,2\n3,y,4\n")

        def no_scan(*args):
            raise AssertionError("clean file sent to the cell-by-cell scan")

        monkeypatch.setattr(data, "_scan", no_scan)
        ds = load_csv(path, label_column="cls")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == ["x", "y"]

    @pytest.mark.parametrize("text", ["a,cls\n1,x\x00\n", "a,b\n1\x00,2\n"])
    def test_nul_text_is_not_plain(self, text):
        """csv's reader refuses NUL before Python 3.11, so NUL text must
        take csv's reader, whatever the interpreter."""
        assert data._plain_lines(text) is None
        assert data._plain_lines(text.replace("\x00", "")) is not None

    def test_cell_over_the_field_limit_is_a_parse_error(self, tmp_path):
        """A finite cell whose line is longer than csv's field limit is not
        plain: csv's reader refuses it, as before."""
        path = _write(tmp_path, "a,b\n1,0." + "0" * 131_072 + "1\n")
        with pytest.raises(ParseError, match=r"field larger than field limit \(131072\)"):
            load_csv(path)

    def test_non_finite_before_ragged_row(self, tmp_path):
        with pytest.raises(NonFiniteValue, match="row 3, column 'b'"):
            load_csv(_write(tmp_path, "a,b\n1,2\n1,nan\n3,4\n5\n"))

    def test_ragged_row_before_non_finite(self, tmp_path):
        with pytest.raises(ParseError) as exc_info:
            load_csv(_write(tmp_path, "a,b\n1,2\n5\n3,4\n1,nan\n"))
        assert exc_info.value.row == 3 and exc_info.value.column is None


TINY = float(np.finfo(np.float64).smallest_normal)
# cells whose syntax or value the two parsers might treat apart
CELL_TEXTS = [
    " 1.5", "+1", ".5", "5.", "1e5", "1_0", "\u0661", "\xa01", "nan", "inf", "1e999", "",
    "1\x1f", "1\x00", " ", "0x10", "x", "0." + "0" * 131_072 + "1",
]  # fmt: skip
CELL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1e308, -1e308]
CELLS = st.one_of(
    st.sampled_from(CELL_TEXTS),
    st.sampled_from(CELL_FLOATS).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# labels: one with a quote is a quoted field; \v and \x85 break a line for
# str.splitlines only, and before a comma they leave lines of equal width
LABELS = st.sampled_from(
    ["x", "", "a b", '"q"', '"a,b"', "a\vb", "a\x85b", "\v1,x", "\x851,x", "1.5"]
)


@st.composite
def csv_texts(draw):
    """A CSV text and its label column: a header, rows of drawn cells with
    a label cell or none, then faults mixed in: a ragged row, a blank line,
    lone CR or CRLF line ends, a byte-order mark."""
    width = draw(st.integers(1, 4))
    label_idx = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    header = [f"c{i}" for i in range(width)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(LABELS) if c == label_idx else draw(CELLS) for c in range(width)]
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else [*row, draw(CELLS)]
        lines.append(",".join(row))
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    if draw(st.integers(0, 7)) == 0:
        text = "\ufeff" + text
    return text, label_idx


@settings(max_examples=300, deadline=None)
@given(case=csv_texts())
@example(case=("c0,c1\n1_0,\u0661\n", None))
@example(case=("c0,c1\n1,x\x0b2,y\n", 1))
@example(case=("c0,c1\n1," + "0." + "0" * 131_072 + "1\n", None))
@example(case=("c0\n", None))
# a line of exactly csv's field limit is plain, one character more is not
@example(case=("c0\n0." + "0" * 131_069 + "1\n", None))
@example(case=("c0\n0." + "0" * 131_070 + "1\n", None))
def test_generated_texts_read_alike_on_every_path(case):
    text, label_column = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        plain, scan = _outcomes(path, label_column)
    assert plain == scan


class TestSaveCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(82)
        ds = Dataset(
            "rt",
            rng.normal(scale=1e7, size=(25, 3)) * 10.0 ** rng.integers(-12, 12, size=3),
            feature_names=["p", "q", "r"],
            labels=rng.integers(0, 3, size=25),
            label_name="cls",
        )
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, label_column="cls")
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tolist() == [str(v) for v in ds.labels]
        assert back.feature_names == ds.feature_names

    def test_round_trip_without_labels(self, tmp_path):
        ds = Dataset("plain", np.array([[0.1, 0.2], [0.3, 0.4]]))
        path = tmp_path / "plain.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels is None

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        save_csv(Dataset("old", np.ones((3, 2))), path)
        before = path.read_bytes()
        # formatting fails in the second block of rows, after the header and
        # the first block are written
        blocks, reprs = [], data._reprs

        def failing_reprs(values):
            blocks.append(len(values))
            if len(blocks) == 2:
                raise RuntimeError("cannot format the second block")
            return reprs(values)

        monkeypatch.setattr(data, "_reprs", failing_reprs)
        n = 3 * data._WRITE_BLOCK_ROWS
        with pytest.raises(RuntimeError, match="second block"):
            save_csv(Dataset("new", np.zeros((n, 2)), labels=np.arange(n) % 4), path)
        assert blocks == [data._WRITE_BLOCK_ROWS] * 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_write_through_symlink(self, tmp_path):
        (tmp_path / "real").mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "real" / "out.csv")
        ds = Dataset("plain", np.array([[0.5, -0.0]]))
        save_csv(ds, link)
        assert link.is_symlink()
        assert load_csv(tmp_path / "real" / "out.csv").features.tobytes() == ds.features.tobytes()

    def test_fifo_is_written_in_place(self, tmp_path):
        ds = Dataset("small", np.array([[0.5, -0.0], [1e-310, 3.0]]), labels=np.array([1, 2]))
        (tmp_path / "ref").mkdir()
        save_csv(ds, tmp_path / "ref" / "out.csv")
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        # A reader opened first lets the writer's open return at once; the
        # file is smaller than the pipe buffer, so the write never blocks.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            save_csv(ds, fifo)
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert got == (tmp_path / "ref" / "out.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "ref"]

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_pipe_named_by_fd_is_written_in_place(self, tmp_path):
        # The same kind of path as /dev/stdout when standard output is a pipe.
        ds = Dataset("small", np.array([[0.25, 7.0]]))
        save_csv(ds, tmp_path / "ref.csv")
        r, w = os.pipe()
        try:
            save_csv(ds, f"/proc/self/fd/{w}")
            os.close(w)
            w = None
            got = os.read(r, 1 << 16)
        finally:
            os.close(r)
            if w is not None:
                os.close(w)
        assert got == (tmp_path / "ref.csv").read_bytes()

    def test_write_is_deterministic(self, tmp_path):
        ds = Dataset("det", np.random.default_rng(83).normal(size=(10, 2)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, p1)
        save_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_path_through_a_file_is_named(self, tmp_path):
        # stat fails with an error other than "not found": written in place,
        # and the open names the path
        (tmp_path / "file.csv").write_bytes(b"a\n1\n")
        target = tmp_path / "file.csv" / "out.csv"
        with pytest.raises(NotADirectoryError) as exc_info:
            save_csv(Dataset("d", np.ones((2, 1))), target)
        assert exc_info.value.filename == str(target)
        assert (tmp_path / "file.csv").read_bytes() == b"a\n1\n"

    def test_failed_rename_names_the_target_and_keeps_it(self, tmp_path, monkeypatch):
        def cross_device(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

        path = tmp_path / "out.csv"
        save_csv(Dataset("old", np.ones((3, 2))), path)
        before = path.read_bytes()
        monkeypatch.setattr(data.os, "replace", cross_device)
        with pytest.raises(OSError) as exc_info:
            save_csv(Dataset("new", np.zeros((3, 2))), path)
        assert exc_info.value.errno == errno.EXDEV and exc_info.value.filename == path
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_closed_stdout_still_replaces_by_rename(self, tmp_path):
        # With fd 1 closed, the check for the file standard output is open on
        # cannot stat it, and a regular file is still replaced, not appended to.
        path = tmp_path / "out.csv"
        path.write_bytes(b"OLD\n")
        old_inode = path.stat().st_ino
        code = (
            "import os\n"
            "import numpy as np\n"
            "from scalefree.data import Dataset, save_csv\n"
            "os.close(1)\n"
            f"save_csv(Dataset('d', np.array([[0.5, 2.0]])), {str(path)!r})\n"
        )
        path_dirs = [str(Path(data.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_dirs))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes() == b"f0,f1\r\n0.5,2.0\r\n"
        assert path.stat().st_ino != old_inode


def test_unstatable_standard_streams_still_replace_by_rename(tmp_path, monkeypatch):
    """When descriptors 1 and 2 cannot be stat'ed, `_same` reads them as
    not the target, and a regular file is still replaced by a rename."""
    path = tmp_path / "out.csv"
    path.write_bytes(b"OLD\n")
    old_inode = path.stat().st_ino
    real_stat = os.stat

    def stat(file, *args, **kwargs):
        if isinstance(file, int) and file in (1, 2):
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return real_stat(file, *args, **kwargs)

    monkeypatch.setattr(data.os, "stat", stat)
    save_csv(Dataset("d", np.array([[0.5, 2.0]])), path)
    monkeypatch.undo()
    assert path.read_bytes() == b"f0,f1\r\n0.5,2.0\r\n"
    assert path.stat().st_ino != old_inode
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


_WRITERS = {
    "save_csv": lambda path: save_csv(Dataset("d", np.array([[0.5, 2.0]])), path),
    "save_model": lambda path: save_model(fit_transformer(np.array([[0.5, 2.0]]), "rank"), path),
    "write_report": lambda path: write_report(
        [EvaluationReport("d", "rank", "identity", "auc", 0.5, 1.0, 7)], path
    ),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_replaced_file_keeps_its_permission_bits(writer, tmp_path):
    """A writer replaces a regular file by renaming a new sibling over it;
    the sibling takes the old file's mode, and a new file the umask's."""
    write = _WRITERS[writer]
    fresh, kept = tmp_path / "fresh.out", tmp_path / "kept.out"
    kept.write_bytes(b"OLD\n")
    kept.chmod(0o600)
    old_inode = kept.stat().st_ino
    write(fresh)
    write(kept)
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert kept.stat().st_ino != old_inode and kept.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.out", "kept.out"]


class TestDatasetValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            Dataset("bad", np.array([[1.0, np.nan]]))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.ones((3, 2)), labels=np.arange(2))

    @pytest.mark.parametrize("labels", [5, np.zeros((2, 2)), np.zeros((2, 1))])
    def test_labels_that_are_not_one_dimensional_rejected(self, labels):
        with pytest.raises(ValueError, match="^labels must be a 1-D array, one label per row$"):
            Dataset("bad", np.ones((2, 2)), labels=labels)

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match="features must be a 2-D array"):
            Dataset("bad", np.ones(3))

    def test_feature_names_length_mismatch(self):
        with pytest.raises(ValueError, match="feature_names length does not match column count"):
            Dataset("bad", np.ones((2, 3)), feature_names=["a", "b"])

    def test_default_feature_names(self):
        ds = Dataset("d", np.ones((2, 3)))
        assert ds.feature_names == ["f0", "f1", "f2"]
