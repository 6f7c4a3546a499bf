"""Text tables shared by the ``ndcorr`` file and the CLI's CSV files.

A table is a few head lines, then one row per row of a 2D float array:
one key token per key axis, the rows running over the axes' product with
the first slowest, then the row's values in shortest round-trip form
with negative zero as 0.0, and for the match CSV one text column; each
line is ended by a newline. It is written to a UTF-8 file or standard
output _BLOCK_ROWS rows at a time. Each axis's tokens are formatted
once; a block's key tokens, value strings, separators and newlines are
slice-interleaved into one list of parts and joined once, so the writer
holds one block of text, never the table's.

A table is read as UTF-8 from one open file: its head lines by
readline, blank and whitespace-only lines skipped, and the rest by one
np.loadtxt call into records whose fields fix every row's column count,
after which each row is scattered into its own cell. When that parse
raises (a whitespace-only line that the delimiter makes a row, a
malformed row, a non-UTF-8 byte), or the head or the row count is
refused, the file is read again whole: blank and whitespace-only lines
are dropped, the head and row count checked, and the rows scanned for
the first refused line. Every accepted table thus gives the array of
one whole-text parse, and every refusal that parse's message, in the
same check order.
"""

from __future__ import annotations

import re
import sys
import warnings

import numpy as np

from .errors import FileFormatError

# Rows per formatted block of a written table: about 0.5 MB of text for
# the spectrum CSV, a few ms of formatting per block.
_BLOCK_ROWS = 4096
# A line of whitespace only, with the line break before it. np.loadtxt skips
# empty lines but refuses whitespace-only ones under a delimiter, which the
# text formats treat as blank.
_BLANK_LINE = re.compile(r"\n\s*\n")
# Lines per np.loadtxt call when a refused table is searched for its first
# refused line: the search then costs about two parses of the table.
_SCAN_LINES = 256


def _lag_keys(gamma, sep: str) -> list[list[str]]:
    """Key tokens of the lag box: per axis the integer lag components
    1 - g .. g - 1, each followed by ``sep``."""
    return [[f"{t}{sep}" for t in range(1 - g, g)] for g in gamma]


def _table_text(head, values, keys=(), sep: str = ",", tail=None):
    """The text of a table, one string for ``head`` and one per block of
    rows.

    Row i is its key tokens, one from each list of ``keys`` (tokens that
    end with their own separator) by the C-order index of i in their
    product, then row i of the 2D float array ``values`` joined by
    ``sep``, then, when ``tail`` (an array of str, one per row) is given,
    ``sep`` and tail[i]; every line of the head and every row is ended by
    a newline.
    """
    if head:
        yield "\n".join(head) + "\n"
    values = np.asarray(values, dtype=float)
    rows, width = values.shape
    counts = tuple(len(tokens) for tokens in keys)
    keys = [np.array(tokens, dtype=object) for tokens in keys]
    template = [None] * len(keys) + [None, sep] * (width - 1) + [None]
    if tail is not None:
        template += [sep, None]
    template.append("\n")
    step, first = len(template), len(keys)
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        parts = template * (stop - start)
        if keys:
            for j, index in enumerate(np.unravel_index(np.arange(start, stop), counts)):
                parts[j::step] = keys[j][index].tolist()
        texts = list(map(repr, (values[start:stop] + 0.0).ravel().tolist()))
        for column in range(width):
            parts[first + 2 * column::step] = texts[column::width]
        if tail is not None:
            parts[step - 2::step] = tail[start:stop].tolist()
        yield "".join(parts)


def _write_text(path, chunks) -> None:
    """Each string of ``chunks`` to the UTF-8 file ``path`` with LF line
    ends, or to standard output when ``path`` is None."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _read_table(path, n_head: int, delimiter, layout, malformed) -> np.ndarray:
    """The records of the UTF-8 text table ``path``, one per data row.

    ``layout(head, rows)`` checks the table's first ``n_head`` non-blank
    lines, stripped, and its count of data rows (None while unknown), and
    returns the dtype of one record, whose fields fix the column count of
    every row; it refuses a table by raising FileFormatError. A table
    that the whole-text parse refuses raises FileFormatError with
    ``malformed(head, line)`` for its first line that np.loadtxt refuses
    on its own.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            head = []
            while len(head) < n_head and (line := fh.readline()):
                if not line.isspace():
                    head.append(line.strip())
            dtype = layout(head, None)
            with warnings.catch_warnings():
                # an empty table warns; its refusal is named below
                warnings.simplefilter("error", UserWarning)
                table = np.loadtxt(fh, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
            layout(head, len(table))
            return table
        except (FileFormatError, ValueError, UserWarning):
            fh.seek(0)
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    body = _BLANK_LINE.sub("\n", "\n" + text + "\n").strip()
    lines = body.split("\n") if body else []
    del text, body
    head, rows = [line.strip() for line in lines[:n_head]], lines[n_head:]
    return _parse_rows(path, rows, layout(head, len(rows)), delimiter,
                       lambda line: malformed(head, line))


def _parse_rows(path, rows: list[str], dtype: np.dtype, delimiter, malformed) -> np.ndarray:
    """``rows`` parsed by one np.loadtxt call into a 1D array of ``dtype``
    records, whose fields fix the column count of every row.

    A refused table raises FileFormatError with ``malformed(line)`` for its
    first line that np.loadtxt refuses on its own.
    """
    def parse(lines):
        return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)

    def refused(lines) -> bool:
        try:
            parse(lines)
        except ValueError:
            return True
        return False

    try:
        return parse(rows)
    except ValueError as exc:
        # a table is refused only when one of its lines is
        line = rows[0]
        for start in range(0, len(rows), _SCAN_LINES):
            block = rows[start:start + _SCAN_LINES]
            if refused(block):
                line = next(ln for ln in block if refused([ln]))
                break
        raise FileFormatError(f"{path}: {malformed(line.strip())}") from exc


def _scatter(path, index, shape, values: np.ndarray, duplicate) -> np.ndarray:
    """``values``, one row per cell, with row i placed in cell (index[0][i],
    index[1][i], ...) of an array of ``shape`` and the trailing axes of
    ``values``; ``index`` yields one integer array per axis, as
    np.ravel_multi_index takes them. A cell listed more than once raises
    FileFormatError with ``duplicate(cell, times)``: the first such cell
    in C order, as a tuple of ints, and its row count."""
    cells = np.ravel_multi_index(tuple(index), shape)
    listed = np.bincount(cells)
    if listed.max() > 1:
        first = int(np.argmax(listed > 1))
        cell = tuple(map(int, np.unravel_index(first, shape)))
        raise FileFormatError(f"{path}: {duplicate(cell, int(listed[first]))}")
    filled = np.empty_like(values)
    filled[cells] = values
    return filled.reshape(shape + values.shape[1:])
