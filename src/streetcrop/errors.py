"""Shared exception bases and the one reader of input files.

Every error a pipeline stage can raise on bad data or violated
preconditions derives from :class:`DataValidationError`, so callers
(notably the CLI) can distinguish "your inputs are wrong" from genuine
bugs. The CLI maps :class:`UsageError` to exit 1, :class:`DataValidationError`
to exit 2 and anything else to exit 3.

Every input file (config, grids, manifests, CSVs, legends, images and
models) is read through :func:`read_input` or
:func:`read_input_text`. A file that is missing, a directory or otherwise
unreadable, and text that is not UTF-8, raise the caller's error class
naming the file, never a bare ``OSError`` or ``UnicodeDecodeError``.

Numbers and dates in input text follow one ASCII grammar (:data:`INT`,
:data:`FLOAT`, :func:`parse_date`): Python's ``int``, ``float``, ``\\d``
and ``date.fromisoformat`` also accept other scripts' digits, ``_``
separators, surrounding whitespace or ISO basic and week dates, which no
file this package reads may use.
"""

from __future__ import annotations

import datetime
import re
from pathlib import Path

#: An integer: optional sign, then ASCII digits.
INT = r"[+-]?[0-9]+"
#: A decimal number with an optional exponent, in ASCII digits; no inf or nan.
FLOAT = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_INT = re.compile(INT)
_FLOAT = re.compile(FLOAT)
_FLOATS = re.compile(f"(?:{FLOAT} )*")
_DATE = re.compile(r"([0-9]{4})-([0-9]{2})(?:-([0-9]{2}))?")
# date form -> whether its text may carry a day
_HAS_DAY = {"YYYY-MM": (False,), "YYYY-MM-DD": (True,), "YYYY-MM[-DD]": (False, True)}


class StreetCropError(Exception):
    """Base class for all package-specific errors."""


class DataValidationError(StreetCropError):
    """Invalid input data or a violated operation precondition."""


class UsageError(StreetCropError):
    """Malformed invocation: unknown command, bad flag, unparsable config."""


def read_input(path: str | Path, what: str, error=DataValidationError) -> bytes:
    """The bytes of input file ``path``.

    Any ``OSError``, and the ``ValueError`` of a path holding a NUL byte,
    becomes ``error``.
    """
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"{path}: cannot read {what}: {reason}") from None


def read_input_text(path: str | Path, what: str, error=DataValidationError) -> str:
    """:func:`read_input` decoded as strict UTF-8; a bad byte raises ``error`` too."""
    data = read_input(path, what, error)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 text: {exc}") from None


def parse_int(text: str) -> int:
    """``text`` as an int; ``ValueError`` unless it matches :data:`INT`."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not an ASCII integer")
    return int(text)


def parse_float(text: str) -> float:
    """``text`` as a float; ``ValueError`` unless it matches :data:`FLOAT`."""
    if _FLOAT.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not an ASCII number")
    return float(text)


def check_floats(tokens: list[str]):
    """``ValueError`` naming the first of ``tokens`` (none holding a space)
    that does not match :data:`FLOAT`; one regex pass over all of them."""
    if _FLOATS.fullmatch(" ".join(tokens) + " ") is None:
        parse_float(next(t for t in tokens if _FLOAT.fullmatch(t) is None))


def parse_date(text: str, form: str) -> datetime.date:
    """``text`` as a date in ``form``: ``"YYYY-MM"`` (read as the month's
    first day), ``"YYYY-MM-DD"`` or ``"YYYY-MM[-DD]"``, in ASCII digits.
    ``ValueError`` for any other text and for a month or day out of range."""
    match = _DATE.fullmatch(text)
    if match is None or (match[3] is not None) not in _HAS_DAY[form]:
        raise ValueError(f"{text!r} is not an ASCII {form} date")
    return datetime.date(int(match[1]), int(match[2]), int(match[3] or 1))
