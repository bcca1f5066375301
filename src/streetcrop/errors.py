"""Shared exception bases and the one reader of input files.

Every error a pipeline stage can raise on bad data or violated
preconditions derives from :class:`DataValidationError`, so callers
(notably the CLI) can distinguish "your inputs are wrong" from genuine
bugs. The CLI maps :class:`UsageError` to exit 1, :class:`DataValidationError`
to exit 2 and anything else to exit 3.

Every input file (config, grids, manifests, CSVs, legends, sidecars,
images and models) is read through :func:`read_input` or
:func:`read_input_text`. A file that is missing, a directory or otherwise
unreadable, and text that is not UTF-8, raise the caller's error class
naming the file, never a bare ``OSError`` or ``UnicodeDecodeError``.
"""

from __future__ import annotations

from pathlib import Path


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
