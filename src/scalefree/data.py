"""Dataset container and strict CSV ingestion/emission.

CSV contract: UTF-8, one header row, comma separated, '.' decimal point; a
leading byte-order mark is dropped. Every non-label cell must parse as a
finite real, by Python's `float`; missing or malformed cells are rejected
with 1-based file coordinates rather than imputed, because silently filled
values would contaminate the scale-invariance guarantees downstream.

A plain text (`_plain_lines`) has its feature cells parsed by numpy's C
reader, which accepts a subset of `float`'s syntax with the same bits; any
other text, and any plain one that reader refuses, goes through `csv`.
The writers format each distinct float once (`_reprs`) and write a block
of rows, or one model column, at a time.
"""

import csv
import io
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import EmptyFile, MissingLabelColumn, NonFiniteValue, ParseError


@dataclass
class Dataset:
    """Column-oriented numeric matrix with an optional label column.

    Treated as immutable after construction.
    """

    name: str
    features: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    labels: np.ndarray | None = None
    label_name: str | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array (rows x columns)")
        if not np.isfinite(self.features).all():
            raise NonFiniteValue(f"dataset {self.name!r} contains non-finite feature values")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.features.shape[1])]
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length does not match column count")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.ndim != 1:
                raise ValueError("labels must be a 1-D array, one label per row")
            if len(self.labels) != self.features.shape[0]:
                raise ValueError("labels length does not match row count")
            if self.label_name is None:
                self.label_name = "label"

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Copy of this dataset with replaced feature matrix, labels untouched."""
        return replace(self, features=features, feature_names=list(self.feature_names))


def _resolve_label_index(header: list[str], label_column) -> int:
    if isinstance(label_column, bool):
        raise TypeError("label_column must be a name or integer index")
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise MissingLabelColumn(
                f"label column index {_quoted(label_column)} out of range for {len(header)} columns"
            )
        return label_column
    if label_column in header:
        return header.index(label_column)
    raise MissingLabelColumn(f"no column named {_quoted(label_column)} in header {_quoted(header)}")


# Characters that make a text not plain: the quote, which starts a csv
# field that may hold commas and line breaks; \v \f \x1c \x1d \x1e \x85
# \u2028 \u2029, where str.splitlines breaks a line and csv does not; \x1f,
# which numpy strips from a number as whitespace and float does not; and
# NUL, which csv's reader refuses before Python 3.11.
_NOT_PLAIN = '"\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029\x00'


def _plain_lines(text):
    """The text's lines if it is plain, else None.

    Plain: no quote and no `_NOT_PLAIN` character, at least one data line,
    no empty line, no line longer than csv's field size limit, and every
    line has as many commas as the header. csv's records of a plain text are
    then exactly `line.split(",")` for each of its lines.
    """
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.splitlines()
    if len(lines) < 2:
        return None
    commas, limit = lines[0].count(","), csv.field_size_limit()
    if all(line and len(line) <= limit and line.count(",") == commas for line in lines):
        return lines
    return None


def _loadtxt(lines, feature_idx):
    """The feature matrix of a plain text's data lines, parsed in C by
    np.loadtxt; None if a cell is not a number it reads or not finite.

    Outside `_NOT_PLAIN`, numpy strips the same whitespace as float and
    calls the same PyOS_string_to_double, so every value it returns is
    float's, bit for bit; it refuses what only float reads, such as `1_0`
    and non-ASCII digits, and those cells go through _scan.
    """
    try:
        values = np.loadtxt(
            lines, delimiter=",", comments=None, usecols=feature_idx, dtype=np.float64, ndmin=2
        )
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


# characters of a bad value that an error message quotes
_QUOTED_CHARS = 40


def _quoted(value) -> str:
    """The value's repr; a str (or other value's repr) longer than _QUOTED_CHARS
    is cut to that many characters and its length, so no one-line error floods."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTED_CHARS:
        return repr(value)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def _scan(path, header, rows, feature_idx):
    """The feature matrix checked cell by cell; raises at the first fault in
    file order, with its 1-based row and column name."""
    features = np.empty((len(rows), len(feature_idx)), dtype=np.float64)
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {r} has {len(row)} cells, header has {len(header)}",
                row=r,
            )
        for out_c, c in enumerate(feature_idx):
            cell = row[c]
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}, column {_quoted(header[c])}: "
                    f"cannot parse {_quoted(cell)} as a number",
                    row=r,
                    column=header[c],
                ) from None
            if not np.isfinite(value):
                raise NonFiniteValue(
                    f"{path}: row {r}, column {_quoted(header[c])}: "
                    f"non-finite value {_quoted(cell)}"
                )
            features[r - 2, out_c] = value
    return features


def _records(path, text):
    """The header and the rows of csv's strict reader over `text`."""
    # strict: an unclosed quote or text after a closing quote is an error,
    # not a field that swallows the rest of the file or the quote
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        return next(reader), list(reader)
    except StopIteration:
        raise EmptyFile(f"{path}: no header row") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: not readable as CSV ({exc})") from None


def load_csv(path, label_column=None) -> Dataset:
    """Read a CSV file into a Dataset named after the file's stem.

    label_column selects the label column by header name or zero-based index;
    None means every column is a feature. Parse failures report the 1-based
    file row (header is row 1) and the offending column name. The file is
    decoded in one read. A plain text (`_plain_lines`) has all its feature
    cells parsed by one np.loadtxt call. Any other text is split by csv's
    reader; it, and a plain one with a cell np.loadtxt refuses or a
    non-finite value, is parsed cell by cell by float, and the first fault
    is reported. The label column is read once, as text, after the features
    parse, when every row is known to have the header's width. A field csv
    cannot read (a quote left open at the end of the file, text after a
    closing quote, a cell over csv's field size limit) is a ParseError.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that Excel writes before the header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc})") from None
    lines = _plain_lines(text)
    if lines is None:
        header, rows = _records(path, text)
    else:
        header, rows = lines[0].split(","), lines[1:]

    if not header or all(h.strip() == "" for h in header):
        raise EmptyFile(f"{path}: empty header row")

    label_idx = None
    if label_column is not None:
        label_idx = _resolve_label_index(header, label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if not feature_idx:
        raise ParseError(f"{path}: no feature columns besides the label", row=1)

    labels = None
    features = None if lines is None else _loadtxt(rows, feature_idx)
    if features is None:
        if lines is not None:
            rows = [line.split(",") for line in rows]  # csv's records of a plain text
        features = _scan(path, header, rows, feature_idx)
        # every row now has the header's width, so each has a label cell
        if label_idx is not None:
            labels = [row[label_idx] for row in rows]
    elif label_idx is not None:
        # a plain line's label, split off with the `after` fields that follow it
        after = len(header) - 1 - label_idx
        labels = [line.rsplit(",", after + 1)[-after - 1] for line in rows]

    return Dataset(
        name=path.stem,
        features=features,
        feature_names=[header[i] for i in feature_idx],
        labels=None if labels is None else np.array(labels),
        label_name=header[label_idx] if label_idx is not None else None,
    )


def _same(st, file) -> bool:
    """Whether `file`, a path or an open descriptor, is the file `st` describes."""
    try:
        return os.path.samestat(st, os.stat(file))
    except OSError:
        return False


def _replaceable(path) -> tuple[Path, int | None] | None:
    """The resolved target of `path` and its permission bits if it may be
    replaced by a rename: it does not exist yet (no bits), or it is a
    regular file. None for anything else (a device such as /dev/null, a
    FIFO, a terminal, a directory), which must be opened and written in
    place."""
    target = Path(path).resolve()
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return target, None
    except OSError:
        return None
    # The resolved name must reach the same file: /dev/stdout resolves to a
    # pseudo-name such as "pipe:[123]" under /proc. The file standard output
    # or error is open on, as after `>> log`, is written in place too.
    if stat.S_ISREG(st.st_mode) and _same(st, target) and not (_same(st, 1) or _same(st, 2)):
        return target, stat.S_IMODE(st.st_mode)
    return None


@contextmanager
def replacing(path):
    """Open `path` for writing UTF-8 text, newlines untranslated, so that a
    failed write leaves it intact.

    A regular or new file is written as a new sibling file that replaces
    `path` on exit; if the body raises, the sibling is removed and `path`
    keeps its old contents. The sibling takes a replaced file's permission
    bits, and a new file's are the umask default. A symlink at `path` is
    followed, as opening it would. An OSError from creating, chmodding or
    renaming the sibling names `path`, as opening it would. Any other target
    (`_replaceable`) is opened in append mode and written in place, so it is
    never truncated.
    """
    replaceable = _replaceable(path)
    if replaceable is None:
        with open(path, "a", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target, mode = replaceable
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            if mode is not None:
                os.chmod(tmp, mode)
            os.replace(tmp, target)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# rows that save_csv formats and writes at a time
_WRITE_BLOCK_ROWS = 2048


def _reprs(values: np.ndarray) -> list:
    """The `repr` text of every float64 in `values`, as nested lists of its
    shape. Each distinct bit pattern is formatted once; the patterns are
    found over the int64 view, so -0.0 and 0.0 stay apart."""
    bits, inverse = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return table[inverse.reshape(values.shape)].tolist()


def _label_ends(labels, after_cells: bool) -> list[str]:
    """Each label as the end of its CSV row: a comma if feature cells come
    before it, the label's field and the line terminator. csv's writer
    quotes each distinct label once, as it would inside the row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    lead = [""] if after_cells else []
    ends = {}
    texts = list(map(str, labels))
    for text in dict.fromkeys(texts):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([*lead, text])
        ends[text] = buffer.getvalue()
    return [ends[text] for text in texts]


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV, label column (if any) last.

    Feature values render with shortest round-trip precision (`repr`), so
    load_csv(save_csv(ds)) reproduces every value bit for bit. The bytes
    are those of csv's writer given each row as floats and a label string.
    Rows are formatted and written `_WRITE_BLOCK_ROWS` at a time, so no
    whole-file copy is held.
    """
    header = list(dataset.feature_names)
    ends = ["\r\n"] * dataset.n_rows
    if dataset.labels is not None:
        header.append(dataset.label_name)
        ends = _label_ends(dataset.labels, dataset.n_features > 0)
    with replacing(path) as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, dataset.n_rows, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            texts = _reprs(dataset.features[start:stop])
            fh.write("".join([",".join(row) + end for row, end in zip(texts, ends[start:stop])]))
