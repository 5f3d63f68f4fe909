"""Small shared helpers."""

from __future__ import annotations

from pathlib import Path
from typing import Callable


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


def utf8_error(exc: UnicodeDecodeError) -> str:
    """Describe the first byte a UTF-8 decoder rejected."""
    return f"not valid UTF-8: {exc.reason} 0x{exc.object[exc.start]:02x}"


def utf8_error_line(exc: UnicodeDecodeError, lines_read: int) -> int:
    """The 1-based line of the first byte a UTF-8 decoder rejected.

    ``lines_read`` lines were returned before the failing decode, and none
    of them reaches into the bytes it was given. A text file decodes ahead
    in chunks, so the bad byte lies on the next line plus one line per
    newline in the failing chunk before it; a whole-file decode has read no
    line.
    """
    return lines_read + 1 + exc.object.count(b"\n", 0, exc.start)


def read_utf8(path: Path, error: Callable[[str, int], Exception]) -> str:
    """Read a UTF-8 text file whole, its line ends untranslated.

    Every input file ends a line only at ``\\n``; readers drop a line's
    trailing ``\\r``. A byte that is not UTF-8 raises ``error(message,
    line_no)``; the line is counted only then.
    """
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(utf8_error(exc), utf8_error_line(exc, 0)) from None
