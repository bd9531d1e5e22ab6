"""Labelled review corpora: loading, normalization, token and n-gram statistics.

A corpus file holds one domain's reviews, either as JSONL (one object per
line with keys ``domain``, ``label``, ``text``) or as CSV with a
``domain,label,text`` header. Text is normalized on ingestion: lowercased,
non-alphabetic characters stripped from tokens, purely numeric tokens and
stopwords removed. Reviews that normalize to zero tokens are dropped with a
warning so that ingestion stays total over dirty data.
"""

from __future__ import annotations

import csv
import json
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .pairs import PairMatrix, mirrored

POSITIVE = "positive"
NEGATIVE = "negative"
LABELS = (POSITIVE, NEGATIVE)
# Maps a record's label to the shared constant.
_LABEL_CONSTANTS = {label: label for label in LABELS}

NGRAM_ORDERS = (1, 2, 3, 4)

_bundled_stopwords: frozenset[str] | None = None


def bundled_stopwords() -> frozenset[str]:
    """The fixed English stopword list shipped with the package."""
    global _bundled_stopwords
    if _bundled_stopwords is None:
        text = resources.files("domainsim.data").joinpath("stopwords_en.txt").read_text("utf-8")
        _bundled_stopwords = frozenset(w.strip() for w in text.splitlines() if w.strip())
    return _bundled_stopwords


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a custom stopword list, one word per line.

    Each word is normalized as review text is (lowercased, non-alphabetic
    characters stripped), so ``don't`` stops the token ``dont``; a word
    with no letters left, such as ``123``, is dropped.
    """
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read stopword file {path}: {exc}") from exc
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


@dataclass(frozen=True, slots=True)
class Review:
    """One labelled review: normalized tokens plus its polarity label.

    Slotted, so a review holds no per-instance ``__dict__``. Reviews made by
    ``load_corpus`` share their corpus's one domain string and the
    ``POSITIVE``/``NEGATIVE`` constants.
    """

    domain_id: str
    label: str
    tokens: tuple[str, ...]
    review_id: str

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise InputError(f"unknown label {self.label!r} (expected one of {LABELS})")
        if not self.tokens:
            raise InputError("review has no tokens after normalization")


class Corpus:
    """A domain's reviews with cached per-polarity token and n-gram counts.

    Immutable after construction; safe to share across threads. ``counts``
    maps each word to its (positive, negative) occurrence counts, in the
    order of each word's first occurrence over the reviews. N-gram counters
    (orders 1..4) are built lazily per order and cached.
    """

    def __init__(self, domain_id: str, reviews: Sequence[Review]):
        if not reviews:
            raise InputError(f"domain {domain_id!r}: corpus has no reviews")
        self.domain_id = domain_id
        self.reviews: tuple[Review, ...] = tuple(reviews)
        totals = Counter(chain.from_iterable(r.tokens for r in self.reviews))
        positive = Counter(
            chain.from_iterable(r.tokens for r in self.reviews if r.label == POSITIVE)
        )
        self.counts: dict[str, tuple[int, int]] = {
            w: (positive[w], n - positive[w]) for w, n in totals.items()
        }
        self._ngram_cache: dict[int, Counter] = {}

    def __len__(self) -> int:
        return len(self.reviews)

    def label_counts(self) -> tuple[int, int]:
        """(positive, negative) review counts."""
        pos = sum(1 for r in self.reviews if r.label == POSITIVE)
        return pos, len(self.reviews) - pos

    def token_count(self) -> int:
        return sum(c_p + c_n for c_p, c_n in self.counts.values())

    def vocabulary(self) -> set[str]:
        return set(self.counts)

    def ngram_counts(self, order: int) -> Counter:
        """Counter of n-gram tuples of the given order (1..4), cached.

        N-grams never cross review boundaries.
        """
        _check_order(order)
        cached = self._ngram_cache.get(order)
        if cached is None:
            cached = Counter()
            for review in self.reviews:
                toks = review.tokens
                for i in range(len(toks) - order + 1):
                    cached[toks[i : i + order]] += 1
            self._ngram_cache[order] = cached
        return cached


def _check_order(order: int) -> None:
    if order not in NGRAM_ORDERS:
        raise InputError(f"n-gram order must be in 1..4, got {order}")


def _records_from_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}, line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise InputError(f"{path}, line {lineno}: expected a JSON object")
            yield lineno, record


def _records_from_csv(path: Path) -> Iterable[tuple[int, dict]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        missing = {"domain", "label", "text"} - set(reader.fieldnames)
        if missing:
            raise InputError(f"{path}: CSV header missing columns {sorted(missing)}")
        for record in reader:
            yield reader.line_num, record


def load_corpus(
    path: str | Path,
    format: str = "jsonl",
    stopwords: frozenset[str] | None = None,
) -> Corpus:
    """Load one domain's labelled reviews from a JSONL or CSV file.

    Every record needs ``domain``, ``label`` (positive/negative) and
    ``text``, each a string. Records must all carry the same domain. Record
    order is preserved; review ids are assigned as ``<domain>:<index>`` over
    the kept reviews. Reviews whose text normalizes to zero tokens are
    dropped with a single aggregated warning. Every review shares the first
    record's domain string and the ``POSITIVE``/``NEGATIVE`` constants, and
    its tokens are interned (see ``normalize``).
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")
    if format == "jsonl":
        records = _records_from_jsonl(path)
    elif format == "csv":
        records = _records_from_csv(path)
    else:
        raise InputError(f"unknown corpus format {format!r} (expected jsonl or csv)")

    domain_id: str | None = None
    reviews: list[Review] = []
    dropped: list[int] = []
    for lineno, record in records:
        for key in ("domain", "label", "text"):
            if record.get(key) in (None, ""):
                raise InputError(f"{path}, line {lineno}: record is missing {key!r}")
        for key in ("domain", "label", "text"):
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
        reviews.append(
            Review(domain_id=domain_id, label=label, tokens=tuple(tokens),
                   review_id=f"{domain_id}:{len(reviews)}")
        )
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
    grams = corpus.ngram_counts(order)
    return sorted(grams, key=lambda g: (-grams[g], g))[:k]


def _top_k_sets(
    corpus: Corpus, k: int, orders: Iterable[int]
) -> list[frozenset[tuple[str, ...]]]:
    # One top-k set per order, orders sorted and de-duplicated.
    orders = sorted(set(orders))
    for order in orders:
        _check_order(order)
    if not orders:
        raise InputError("orders must be non-empty")
    return [frozenset(top_k_ngrams(corpus, order, k)) for order in orders]


def _overlap(tops1: list[frozenset], tops2: list[frozenset]) -> float:
    matched = 0
    available = 0
    for top1, top2 in zip(tops1, tops2):
        matched += len(top1 & top2)
        available += max(len(top1), len(top2))
    if available == 0:
        return 1.0
    return matched / available


def ngram_overlap_matrix(
    corpora: Sequence[Corpus],
    k: int = 10,
    orders: Iterable[int] = (2, 3, 4),
) -> np.ndarray:
    """N×N overlap fractions for a set of corpora; NaN on the diagonal.

    Each corpus's top-k lists are computed once, not once per pair.
    """
    orders = tuple(orders)
    return mirrored([_top_k_sets(c, k, orders) for c in corpora], _overlap)


def write_overlap_matrix_csv(matrix: PairMatrix, path: str | Path) -> None:
    """Write the overlap matrix as CSV, upper triangle only, 2 decimals."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["domain", *matrix.domains])
        for i, name in enumerate(matrix.domains):
            row: list[str] = [name]
            for j, v in enumerate(matrix.values[i]):
                row.append(f"{v:.2f}" if j > i and not np.isnan(v) else "")
            writer.writerow(row)
