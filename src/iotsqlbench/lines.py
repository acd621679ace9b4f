"""The line rule of every text file the toolkit reads, and the CSV form that
keeps to it: one record per line.  A file is read as bytes and decoded as
UTF-8 here, never in text mode, whose universal newlines would also end a
line at a lone "\r"."""

import csv
import io
import os
from pathlib import Path
from typing import Iterable, Iterator


class NotUtf8(ValueError):
    """A file holds bytes that are not UTF-8; the message names its file and line."""


def _not_utf8(path, line_no: int, exc: UnicodeDecodeError) -> NotUtf8:
    return NotUtf8(f"{path}:{line_no}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})")


def split_lines(text: str) -> list[str]:
    """Lines end at "\\n" alone, each losing one trailing "\\r"; str.splitlines would also
    end one at "\\r", "\\v", "\\f", "\\x1c"-"\\x1e", U+0085, U+2028 or U+2029 in a value."""
    lines = text.split("\n")
    return [line.removesuffix("\r") for line in lines] if "\r" in text else lines


def read_text(path: str | os.PathLike) -> str:
    """The text of the UTF-8 file at ``path``, decoded from its bytes, for
    split_lines to split.  A byte that is not UTF-8 is a NotUtf8 naming its
    line, the count of "\\n" before it plus one."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data.count(b"\n", 0, exc.start) + 1, exc) from exc


def read_lines(path: str | os.PathLike) -> Iterator[str]:
    """The lines of the UTF-8 file at ``path``, split by split_lines' rule and
    decoded one at a time, so that one line of the file is held at once (the
    empty line split_lines gives after a last "\\n" is not read).  A line
    that is not UTF-8 is a NotUtf8 naming it."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                text = line.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _not_utf8(path, line_no, exc) from exc
            yield text


def csv_text(rows: Iterable[Iterable]) -> str:
    """Rows as CSV text, one "\\n"-ended line each, quoted by ``csv.writer``
    only where a value needs it.  A value holding "\\n", "\\r" or NUL is a
    ValueError: split_lines would end a line inside its quotes or drop its
    last "\\r", and Python 3.10's csv reader refuses NUL."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        for value in row:
            if isinstance(value, str) and ("\n" in value or "\r" in value or "\0" in value):
                raise ValueError(f"a CSV value cannot hold a line break or NUL: {value!r}")
        writer.writerow(row)
    return out.getvalue()


def csv_rows(lines: list[str], first_line_no: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, values) of each line that is not blank, read alone by a
    strict ``csv.reader``, numbered from ``first_line_no``.  A quoted value
    still open at the end of its line, or quoting the reader refuses (such as
    ``"a"b``), is a csv.Error naming the line."""
    for line_no, line in enumerate(lines, first_line_no):
        if line.strip():
            try:
                values = next(csv.reader([line], strict=True))
            except csv.Error as exc:
                raise csv.Error(f"line {line_no}: {exc}") from exc
            yield line_no, values
