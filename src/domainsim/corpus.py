"""Labelled review corpora: loading, normalization, token and n-gram statistics.

A corpus file holds one domain's reviews, either as JSONL (one object per
line with keys ``domain``, ``label``, ``text``) or as CSV with a
``domain,label,text`` header. Text is normalized on ingestion: lowercased,
non-alphabetic characters stripped from tokens, purely numeric tokens and
stopwords removed. Reviews that normalize to zero tokens are dropped with a
warning so that ingestion stays total over dirty data. A review is a plain
``(label, tokens)`` tuple; its id is not stored but given by its position
(see ``load_corpus``).
"""

from __future__ import annotations

import functools
import sys
import warnings
from collections import Counter
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from ._numpy import np
from .errors import InputError, parse_json, read_csv, read_lines
from .pairs import mirrored

POSITIVE = "positive"
NEGATIVE = "negative"
LABELS = (POSITIVE, NEGATIVE)
# Maps a record's label to the shared constant.
_LABEL_CONSTANTS = {label: label for label in LABELS}

NGRAM_ORDERS = (1, 2, 3, 4)
# The values of a record's keys that count as missing: an empty text is dropped like a blank one.
_MISSING = {"domain": (None, ""), "label": (None, ""), "text": (None,)}


@functools.cache
def bundled_stopwords() -> frozenset[str]:
    """The fixed English stopword list shipped with the package."""
    text = resources.files("domainsim.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a custom stopword list, one word per line.

    Each word is normalized as review text is (lowercased, non-alphabetic
    characters stripped), so ``don't`` stops the token ``dont``; a word
    with no letters left, such as ``123``, is dropped.
    """
    text = "".join(line for _, line in read_lines(path, "stopword"))
    return frozenset(normalize(text, frozenset()))


def normalize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Normalize raw text to a token list.

    Splits on whitespace, lowercases, strips every non-alphabetic character
    from each token (which also removes purely numeric tokens), and drops
    stopwords. Token order is preserved; the result may be empty. A token
    that is all letters skips the per-character strip, since it would change
    nothing. Tokens are ``sys.intern``ed, so each distinct word is one
    ``str`` object across all reviews and corpora.
    """
    if stopwords is None:
        stopwords = bundled_stopwords()
    words = [
        raw if raw.isalpha() else "".join(ch for ch in raw if ch.isalpha())
        for raw in text.lower().split()
    ]
    return [sys.intern(word) for word in words if word and word not in stopwords]


class Corpus:
    """A domain's reviews with their per-polarity token counts.

    ``reviews`` is a tuple of ``(label, tokens)`` pairs, ``label`` one of
    ``LABELS`` and ``tokens`` a non-empty tuple of strings; the callers
    check both (``load_corpus`` for file input). Immutable after
    construction; safe to share across threads. ``counts`` maps each word
    to its (positive, negative) occurrence counts, in the order of each
    word's first occurrence over the reviews. N-gram counts live in an
    ``NgramIndex`` over one or more corpora.
    """

    def __init__(self, domain_id: str, reviews: Sequence[tuple[str, tuple[str, ...]]]):
        if not reviews:
            raise InputError(f"domain {domain_id!r}: corpus has no reviews")
        self.domain_id = domain_id
        self.reviews: tuple[tuple[str, tuple[str, ...]], ...] = tuple(reviews)
        totals = Counter(chain.from_iterable(tokens for _, tokens in self.reviews))
        positive = Counter(chain.from_iterable(
            tokens for label, tokens in self.reviews if label == POSITIVE))
        self.counts: dict[str, tuple[int, int]] = {
            w: (positive[w], n - positive[w]) for w, n in totals.items()
        }

    def __len__(self) -> int:
        return len(self.reviews)

    def label_counts(self) -> tuple[int, int]:
        """(positive, negative) review counts."""
        pos = sum(1 for label, _ in self.reviews if label == POSITIVE)
        return pos, len(self.reviews) - pos

    def token_count(self) -> int:
        return sum(c_p + c_n for c_p, c_n in self.counts.values())

    def ngram_counts(self, order: int) -> Counter:
        """Counter of the n-gram tuples of the given order (1..4), by first occurrence."""
        _check_order(order)
        index = NgramIndex([self])
        ids, counts = index.grams[order][0]
        return Counter(dict(zip(index.tuples(order, ids), counts.tolist())))


def _check_order(order: int) -> None:
    if order not in NGRAM_ORDERS:
        raise InputError(f"n-gram order must be in 1..4, got {order}")


class NgramIndex:
    """The n-grams (orders 1..4) of a set of corpora, numbered once for all of them.

    Token ids follow sorted order (``words[t]`` is token ``t``), and per
    order n-gram ids follow the sorted order of the string tuples;
    ``tokens[order][g]`` holds n-gram ``g``'s token ids. ``grams[order][c]``
    is corpus ``c``'s ``(ids, counts)`` in first-occurrence order, as a
    ``Counter`` of its n-grams lists them. N-grams never cross reviews.

    An n-gram's id numbers the pair (id of its first n-1 tokens, last token),
    packed as ``prefix * len(words) + last``: both factors are at most the
    corpora's token count, so the key fits int64 for any vocabulary.
    """

    def __init__(self, corpora: Sequence[Corpus]):
        self.domain_ids = [c.domain_id for c in corpora]
        self.words = sorted(set().union(*(c.counts for c in corpora)))
        self.vocabulary = {w: t for t, w in enumerate(self.words)}
        lengths = np.array([len(tokens) for c in corpora for _, tokens in c.reviews],
                           dtype=np.int64)
        stream = np.fromiter((self.vocabulary[w] for c in corpora for _, tokens in c.reviews
                              for w in tokens), dtype=np.int64, count=int(lengths.sum()))
        # left[p]: the tokens from position p to the end of its review.
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(stream))
        bounds = np.cumsum([0, *(c.token_count() for c in corpora)])
        vocab = len(self.words)
        # at[p]: id of the n-gram at p for the last order n done, where left[p] >= n.
        at = np.zeros_like(stream)
        rows = np.empty((1, 0), dtype=np.int64)  # the one 0-gram
        self.tokens: dict[int, np.ndarray] = {}
        self.grams: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for order in NGRAM_ORDERS:
            starts = np.flatnonzero(left >= order)
            packed, inverse = np.unique(
                at[starts] * vocab + stream[starts + order - 1], return_inverse=True)
            at[starts] = inverse
            rows = np.column_stack([rows[packed // vocab], packed % vocab])
            self.tokens[order] = rows
            self.grams[order] = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                ids, first, counts = np.unique(
                    at[lo:hi][left[lo:hi] >= order], return_index=True, return_counts=True)
                by_first = np.argsort(first)
                self.grams[order].append((ids[by_first], counts[by_first]))

    def tuples(self, order: int, ids: np.ndarray) -> list[tuple[str, ...]]:
        """The string tuples of the n-grams ``ids`` of the given order."""
        return [tuple(self.words[t] for t in row) for row in self.tokens[order][ids].tolist()]


def _records_from_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    for lineno, line in read_lines(path, "corpus"):
        if not line.strip():
            continue
        record = parse_json(line, path, lineno)
        if not isinstance(record, dict):
            raise InputError(f"{path}, line {lineno}: expected a JSON object")
        yield lineno, record


def _records_from_csv(path: Path) -> Iterable[tuple[int, dict]]:
    records = read_csv(path, "corpus")
    header = next(records, (0, None))[1]
    if header is None:
        return
    missing = {"domain", "label", "text"} - set(header)
    if missing:
        raise InputError(f"{path}: CSV header missing columns {sorted(missing)}")
    if len(set(header)) < len(header):
        raise InputError(f"{path}, line 1: CSV header {','.join(header)} repeats a column")
    for lineno, fields in records:
        if len(fields) > len(header):
            raise InputError(f"{path}, line {lineno}: more fields than the header")
        if fields:
            yield lineno, dict(zip(header, fields))


def load_corpus(
    path: str | Path,
    format: str = "jsonl",
    stopwords: frozenset[str] | None = None,
) -> Corpus:
    """Load one domain's labelled reviews from a JSONL or CSV file.

    Every record needs ``domain``, ``label`` (positive/negative) and ``text``,
    each a string, the first two non-empty. Records must all carry the same
    domain, and a CSV header names each column once. Record order is preserved.
    Reviews whose text normalizes to zero tokens, as an empty text does, are
    dropped with a single aggregated warning. Each kept review is a
    ``(label, tokens)`` tuple holding the ``POSITIVE``/``NEGATIVE`` constant
    and interned tokens (see ``normalize``).

    A review's id is ``<domain>:<i>``, ``i`` its position among the kept
    reviews, not its line in the file; sentence-vector files are keyed by
    these ids.
    """
    path = Path(path)
    if format == "jsonl":
        records = _records_from_jsonl(path)
    elif format == "csv":
        records = _records_from_csv(path)
    else:
        raise InputError(f"unknown corpus format {format!r} (expected jsonl or csv)")

    domain_id: str | None = None
    reviews: list[tuple[str, tuple[str, ...]]] = []
    dropped: list[int] = []
    for lineno, record in records:
        for key, missing in _MISSING.items():
            if record.get(key) in missing:
                raise InputError(f"{path}, line {lineno}: record is missing {key!r}")
        for key in _MISSING:
            if not isinstance(record[key], str):
                raise InputError(
                    f"{path}, line {lineno}: {key!r} is not a string ({record[key]!r})"
                )
        domain = record["domain"]
        label = _LABEL_CONSTANTS.get(record["label"])
        if label is None:
            raise InputError(f"{path}, line {lineno}: unknown label {record['label']!r}")
        if domain_id is None:
            domain_id = domain
        elif domain != domain_id:
            raise InputError(
                f"{path}, line {lineno}: mixed domains in one file ({domain!r} vs {domain_id!r})"
            )
        tokens = normalize(record["text"], stopwords)
        if not tokens:
            dropped.append(lineno)
            continue
        reviews.append((label, tuple(tokens)))
    if domain_id is None:
        raise InputError(f"{path}: file contains no records")
    if dropped:
        head = ", ".join(str(n) for n in dropped[:5])
        warnings.warn(
            f"{path}: dropped {len(dropped)} review(s) that normalized to zero tokens"
            f" (lines {head}{'...' if len(dropped) > 5 else ''})",
            stacklevel=2,
        )
    return Corpus(domain_id, reviews)


def top_k_ngrams(corpus: Corpus, order: int, k: int) -> list[tuple[str, ...]]:
    """The k most frequent n-grams of the given order.

    Ties break lexicographically ascending; fewer than k are returned when
    the corpus has fewer distinct n-grams.
    """
    _check_order(order)
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    index = NgramIndex([corpus])
    return index.tuples(order, _top_k(index, order, 0, k))


def _top_k(index: NgramIndex, order: int, position: int, k: int) -> np.ndarray:
    # Ties break by id, which orders as the n-grams do.
    ids, counts = index.grams[order][position]
    return ids[np.lexsort((ids, -counts))[:k]]


def _overlap(tops1: list[frozenset], tops2: list[frozenset]) -> float:
    matched = 0
    available = 0
    for top1, top2 in zip(tops1, tops2):
        matched += len(top1 & top2)
        available += max(len(top1), len(top2))
    if available == 0:
        return 1.0
    return matched / available


def ngram_overlap_matrix(index: NgramIndex) -> list[list[float]]:
    """N rows of N overlaps of the corpora's top-10 bigrams, trigrams and 4-grams.

    NaN on the diagonal. Each corpus's top lists are taken once, not once per pair.
    """
    tops = [[frozenset(_top_k(index, order, c, 10).tolist()) for order in (2, 3, 4)]
            for c in range(len(index.domain_ids))]
    return mirrored(tops, _overlap)
