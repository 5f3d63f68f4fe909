"""Small shared helpers."""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Callable, Iterator


def format_so(value: float) -> str:
    """Render a score for output with binary float noise suppressed.

    Twelve significant digits: enough to round-trip any humanly meaningful
    score while printing 1.87 * 1.25 as "2.3375" rather than
    "2.3375000000000004". Output is a pure function of the value, so files
    built from it are byte-stable across runs and platforms.
    """
    if value == 0:
        return "0"  # also for -0.0; most rendered scores are zero
    return format(float(value), ".12g")


def parse_number(text: str, kind: type[float] | type[int] = float) -> float | int:
    """``kind(text)`` for a number written in ASCII without ``_`` or whitespace
    around it.

    ``float()`` and ``int()`` also take "0_5" as 5, "\u0663" or "\uff13" as 3
    and " 1" as 1; the numbers of every input file are plain ASCII. Other text
    raises the ``ValueError`` that ``kind`` raises for non-numeric text.
    """
    if text.isascii() and "_" not in text and text == text.strip():
        return kind(text)
    if kind is int:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    raise ValueError(f"could not convert string to float: {text!r}")


def utf8_error(exc: UnicodeDecodeError) -> str:
    """Describe the first byte a UTF-8 decoder rejected."""
    return f"not valid UTF-8: {exc.reason} 0x{exc.object[exc.start]:02x}"


def utf8_error_line(exc: UnicodeDecodeError, lines_read: int) -> int:
    """The 1-based line of the first byte a UTF-8 decoder rejected.

    ``lines_read`` lines were returned before the failing decode, and none
    of them reaches into the bytes it was given. A text file decodes ahead
    in chunks, so the bad byte lies on the next line plus one line per
    newline in the failing chunk before it.
    """
    return lines_read + 1 + exc.object.count(b"\n", 0, exc.start)


def read_records(
    path: Path, error: Callable[[str, str, int], Exception], field: str = "entry"
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, fields)`` for each record of a tab-separated file.

    The UTF-8 file is read line by line; a line ends at ``\\n`` only, and one
    byte order mark opening line 1 is ignored. Lines are stripped, blank and
    ``#`` lines skipped, the rest split at tabs. A tab in a line's indent
    opens an empty first field, which raises ``error(f"empty {field}",
    str(path), line_no)``; a byte that is not UTF-8 raises ``error(message,
    str(path), line_no)``.
    """
    line_no = 0
    try:
        with open(path, encoding="utf-8", newline="\n") as file:
            first = file.readline().removeprefix("\ufeff")
            for line_no, raw in enumerate(chain((first,), file), 1):
                line = raw.strip()
                if line and line[0] != "#":
                    if raw[0] != line[0] and "\t" in raw[: len(raw) - len(raw.lstrip())]:
                        raise error(f"empty {field}", str(path), line_no)
                    yield line_no, line.split("\t")
    except UnicodeDecodeError as exc:
        raise error(utf8_error(exc), str(path), utf8_error_line(exc, line_no)) from None
