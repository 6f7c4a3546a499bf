"""Text tables shared by the ``ndcorr`` file and the CLI's CSV files.

Numbers are written in shortest round-trip form with negative zero as
0.0, and rows in lexicographic order of their leading integer or grid
columns, each line ended by a newline, to a UTF-8 file or standard
output. A table is read as UTF-8, with blank and whitespace-only lines
dropped, its rows parsed by one np.loadtxt call into records whose fields
fix every row's column count, and each row scattered into its own cell.
"""

from __future__ import annotations

import re
import sys

import numpy as np

from .errors import FileFormatError

# A line of whitespace only, with the line break before it. np.loadtxt skips
# empty lines but refuses whitespace-only ones under a delimiter, which the
# text formats treat as blank.
_BLANK_LINE = re.compile(r"\n\s*\n")
# Lines per np.loadtxt call when a refused table is searched for its first
# refused line: the search then costs about two parses of the table.
_SCAN_LINES = 256


def _csv_rows(table, sep: str = ",") -> list[str]:
    """Rows of a 2D float array joined by ``sep``, each value in shortest
    round-trip form, negative zero as 0.0."""
    table = np.asarray(table, dtype=float)
    values = map(repr, (table + 0.0).ravel().tolist())
    return [sep.join(row) for row in zip(*[values] * table.shape[1])]


def _prefixes(columns, sep: str) -> list[str]:
    """One string per tuple of the product of ``columns`` (lists of tokens,
    first column slowest), each token followed by ``sep``."""
    prefixes = [""]
    for tokens in columns:
        tokens = [token + sep for token in tokens]
        prefixes = [p + token for p in prefixes for token in tokens]
    return prefixes


def _lag_prefixes(gamma, sep: str) -> list[str]:
    """The integer components of every lag of the box, in lexicographic
    order, each followed by ``sep``."""
    return _prefixes([[str(t) for t in range(1 - g, g)] for g in gamma], sep)


def _write_lines(path, lines) -> None:
    """``lines``, each ended by a newline, to the UTF-8 file ``path``, or to
    standard output when ``path`` is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _read_table(path, n_head: int) -> tuple[list[str], list[str]]:
    """(head, rows) of a UTF-8 text table with blank and whitespace-only
    lines dropped: up to ``n_head`` first lines, stripped, then the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    body = _BLANK_LINE.sub("\n", "\n" + text + "\n").strip()
    lines = body.split("\n") if body else []
    return [line.strip() for line in lines[:n_head]], lines[n_head:]


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
