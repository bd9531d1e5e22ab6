"""Per-domain word-level sentiment statistics.

Covers polarity probabilities per word, polar-word extraction, chi-square
word significance, and lexicon-based review scoring used to filter reviews
for the sentence-vector metrics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Review
from .errors import InputError

# Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any
# logarithm; common polar words can have a zero count on one side in a
# domain, which would otherwise make the divergences infinite.
PROB_FLOOR = 1e-6

POLAR_THRESHOLD = 0.5


def clamp_probability(p: float) -> float:
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


@dataclass(frozen=True)
class PolarityTable:
    """Per-word (P, N) probabilities for one domain, with P + N = 1.

    P is the fraction of the word's occurrences that fall in positive
    reviews.
    """

    domain_id: str
    entries: dict[str, tuple[float, float]]

    def __getitem__(self, word: str) -> tuple[float, float]:
        return self.entries[word]


def polarity_table(corpus: Corpus) -> PolarityTable:
    """Build the per-word polarity table for a corpus from raw token occurrences per label."""
    entries = {}
    for word, (c_p, c_n) in corpus.counts.items():
        total = c_p + c_n
        entries[word] = (c_p / total, c_n / total)
    return PolarityTable(corpus.domain_id, entries)


def polar_words(table: PolarityTable, threshold: float = POLAR_THRESHOLD) -> set[str]:
    """Words whose positive/negative probabilities differ by at least the threshold."""
    return {w for w, (p, n) in table.entries.items() if abs(p - n) >= threshold}


def chi_square(c_p: int, c_n: int) -> float:
    """Chi-square statistic of a word's positive/negative occurrence counts.

    The expected count is half the total, so balanced words score 0 and
    fully one-sided words score their total count.
    """
    total = c_p + c_n
    if total <= 0:
        raise InputError("chi_square requires at least one occurrence")
    mu = total / 2.0
    return ((c_p - mu) ** 2 + (c_n - mu) ** 2) / mu


def significant_words(corpus: Corpus, min_count: int = 10, min_chi2: float = 1.0) -> frozenset[str]:
    """Words with at least ``min_count`` occurrences and chi-square >= ``min_chi2``.

    Both thresholds are inclusive.
    """
    words = set()
    for word, (c_p, c_n) in corpus.counts.items():
        if c_p + c_n >= min_count and chi_square(c_p, c_n) >= min_chi2:
            words.add(word)
    return frozenset(words)


@dataclass(frozen=True)
class SentimentLexicon:
    """Word -> (pos_score, neg_score) in [0, 1], aggregated over senses."""

    entries: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("sentiment lexicon has no entries")
        for word, (pos, neg) in self.entries.items():
            if not (0.0 <= pos <= 1.0 and 0.0 <= neg <= 1.0):
                raise InputError(f"lexicon scores for {word!r} outside [0, 1]: ({pos}, {neg})")

    def signed_score(self, word: str) -> float | None:
        """pos_score - neg_score, or None for words not in the lexicon."""
        entry = self.entries.get(word)
        if entry is None:
            return None
        return entry[0] - entry[1]


def load_sentiment_lexicon_tsv(path: str | Path) -> SentimentLexicon:
    """Load a pre-aggregated lexicon: TSV columns word, pos_score, neg_score."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"lexicon file not found: {path}")
    entries: dict[str, tuple[float, float]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(f"{path}, line {lineno}: expected 3 tab-separated columns")
            word = parts[0].strip().lower()
            try:
                pos, neg = float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InputError(f"{path}, line {lineno}: non-numeric score") from exc
            entries[word] = (pos, neg)
    return SentimentLexicon(entries)


def load_sentiwordnet(path: str | Path) -> SentimentLexicon:
    """Load the standard SentiWordNet 3.0 distribution format.

    Lines are ``POS<TAB>ID<TAB>PosScore<TAB>NegScore<TAB>SynsetTerms<TAB>Gloss``
    with ``#`` comment lines; synset terms carry ``#<sense-rank>`` suffixes.
    Scores are averaged over every sense of a word regardless of part of
    speech.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"lexicon file not found: {path}")
    sums: dict[str, list[float]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 5:
                raise InputError(f"{path}, line {lineno}: expected at least 5 tab-separated columns")
            try:
                pos, neg = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise InputError(f"{path}, line {lineno}: non-numeric score") from exc
            for term in parts[4].split():
                word = term.rsplit("#", 1)[0].strip().lower()
                if not word:
                    continue
                acc = sums.setdefault(word, [0.0, 0.0, 0.0])
                acc[0] += pos
                acc[1] += neg
                acc[2] += 1.0
    entries = {w: (s[0] / s[2], s[1] / s[2]) for w, s in sums.items()}
    return SentimentLexicon(entries)


def _harmonic_mean(values: list[float]) -> float:
    # Defined as 0 for an empty set; inputs are strictly positive.
    if not values:
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def review_score(tokens: tuple[str, ...] | list[str], lexicon: SentimentLexicon) -> float:
    """Sentiment score in [-1, 1] for a token list.

    Each lexicon-covered word gets a signed score (pos - neg); the review
    score is the harmonic mean of the positive word scores minus the
    harmonic mean of the magnitudes of the negative ones. Words scoring 0 or
    absent from the lexicon contribute nothing; a review with no
    contributing words scores 0.
    """
    positives: list[float] = []
    negatives: list[float] = []
    for token in tokens:
        s = lexicon.signed_score(token)
        if s is None or s == 0.0:
            continue
        if s > 0:
            positives.append(s)
        else:
            negatives.append(-s)
    return _harmonic_mean(positives) - _harmonic_mean(negatives)


def filter_reviews(
    corpus: Corpus,
    lexicon: SentimentLexicon,
    threshold: float = 0.01,
    max_len: int = 100,
) -> list[tuple[Review, float]]:
    """``(review, review_score)`` pairs, in corpus order, of the reviews that qualify.

    Keeps reviews with at most ``max_len`` tokens and ``|score| >
    threshold``; longer reviews are not scored. May return an empty list.
    """
    kept = []
    for review in corpus.reviews:
        if len(review.tokens) > max_len:
            continue
        score = review_score(review.tokens, lexicon)
        if abs(score) > threshold:
            kept.append((review, score))
    return kept
