"""Exception types shared across the package, and the one reader of each input syntax:
``read_lines`` opens every input file, ``read_csv`` parses CSV and ``parse_json`` JSON, so an
input that is missing, unreadable, not UTF-8 or malformed is an ``InputError`` naming it."""

import csv
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


def read_csv(path: str | Path, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` for each record, blank ones too, ``line`` the one it starts on.
    Strict, so an unterminated quote is an error, not a field that runs to the end of the file."""
    reader = csv.reader((line for _, line in read_lines(path, what)), strict=True)
    end = 0  # the line the last record read ended on
    try:
        for fields in reader:
            yield end + 1, fields
            end = reader.line_num
    except csv.Error as exc:
        raise InputError(f"{path}, line {end + 1}: malformed CSV ({exc})") from exc


def parse_json(text: str, path: str | Path, line: int | None = None, kind="JSON", hook=None):
    """``json.loads(text, object_pairs_hook=hook)``; bad syntax is an ``InputError``, ``<path>:
    malformed <kind> (<reason>)``, or ``<path>, line <line>: ...`` when ``line`` is given."""
    import json  # here, so only the commands that read JSON load it

    try:
        return json.loads(text, object_pairs_hook=hook)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; so is an integer past Python's digit limit.
        where = path if line is None else f"{path}, line {line}"
        raise InputError(f"{where}: malformed {kind} ({getattr(exc, 'msg', exc)})") from exc
