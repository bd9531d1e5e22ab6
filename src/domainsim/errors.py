"""Exception types shared across the package, and ``read_lines``, which every loader reads
its file through, so an input that is missing, unreadable or not UTF-8 is an ``InputError``."""

from collections.abc import Iterator
from pathlib import Path


class InputError(Exception):
    """Bad user input: malformed files, missing inputs, out-of-range arguments.

    The CLI maps this to exit code 1. Anything else that escapes is treated
    as an internal error (exit code 2).
    """


class UnrankablePairError(Exception):
    """A domain pair for which a metric has no defined value.

    Raised when a pairwise metric cannot be computed, e.g. no common polar
    words for the divergence metrics, or zero baseline entropy for the
    entropy-change metric. Callers ranking many pairs catch this and record
    the pair as having no value.
    """


def read_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of a UTF-8 file, from 1, ends kept (``newline=""``,
    as ``csv`` needs). A missing, unreadable or non-UTF-8 file is an ``InputError`` naming it;
    a decode error names no line, as text-mode buffering decodes ahead of the line read.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from enumerate(fh, 1)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise InputError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
