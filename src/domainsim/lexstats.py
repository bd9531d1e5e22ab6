"""Per-domain word-level sentiment statistics.

Covers polarity probabilities per word, polar-word extraction, chi-square
word significance, and lexicon-based review scoring used to filter reviews
for the sentence-vector metrics. A polarity table is a dict word -> (P, N);
a sentiment lexicon is a dict word -> pos_score - neg_score, made at load.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, read_lines

if TYPE_CHECKING:
    from .corpus import Corpus

# Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any
# logarithm; common polar words can have a zero count on one side in a
# domain, which would otherwise make the divergences infinite.
PROB_FLOOR = 1e-6

POLAR_THRESHOLD = 0.5


def clamp_probability(p: float) -> float:
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def polarity_table(corpus: Corpus) -> dict[str, tuple[float, float]]:
    """Per-word (P, N) probabilities from raw token occurrences per label, with P + N = 1.

    P is the fraction of the word's occurrences that fall in positive
    reviews.
    """
    entries = {}
    for word, (c_p, c_n) in corpus.counts.items():
        total = c_p + c_n
        entries[word] = (c_p / total, c_n / total)
    return entries


def polar_words(table: dict[str, tuple[float, float]]) -> set[str]:
    """Words whose positive/negative probabilities differ by at least ``POLAR_THRESHOLD``."""
    return {w for w, (p, n) in table.items() if abs(p - n) >= POLAR_THRESHOLD}


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


def significant_words(corpus: Corpus) -> frozenset[str]:
    """Words with at least 10 occurrences and a chi-square of at least 1.0.

    Both thresholds are inclusive.
    """
    words = set()
    for word, (c_p, c_n) in corpus.counts.items():
        if c_p + c_n >= 10 and chi_square(c_p, c_n) >= 1.0:
            words.add(word)
    return frozenset(words)


def _scores(pos: str, neg: str, where: str) -> tuple[float, float]:
    """A lexicon line's (pos_score, neg_score), each a number in [0, 1]."""
    try:
        scores = float(pos), float(neg)
    except ValueError:
        raise InputError(f"{where}: non-numeric score") from None
    if not all(0.0 <= score <= 1.0 for score in scores):
        raise InputError(f"{where}: scores ({pos}, {neg}) outside [0, 1]")
    return scores


def load_sentiment_lexicon_tsv(path: str | Path) -> dict[str, float]:
    """Load a pre-aggregated lexicon: TSV columns word, pos_score, neg_score.

    Returns word -> pos_score - neg_score; a repeated word keeps its last line.
    """
    path = Path(path)
    lexicon: dict[str, float] = {}
    for lineno, line in read_lines(path, "lexicon"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"{path}, line {lineno}: expected 3 tab-separated columns")
        pos, neg = _scores(parts[1], parts[2], f"{path}, line {lineno}")
        lexicon[parts[0].strip().lower()] = pos - neg
    if not lexicon:
        raise InputError(f"{path}: sentiment lexicon has no entries")
    return lexicon


def load_sentiwordnet(path: str | Path) -> dict[str, float]:
    """Load the standard SentiWordNet 3.0 distribution format.

    Lines are ``POS<TAB>ID<TAB>PosScore<TAB>NegScore<TAB>SynsetTerms<TAB>Gloss``
    with ``#`` comment lines; synset terms carry ``#<sense-rank>`` suffixes.
    Scores are averaged over every sense of a word regardless of part of
    speech; returns word -> mean pos_score - mean neg_score.
    """
    path = Path(path)
    sums: dict[str, list[float]] = {}
    for lineno, line in read_lines(path, "lexicon"):
        line = line.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 5:
            raise InputError(f"{path}, line {lineno}: expected at least 5 tab-separated columns")
        pos, neg = _scores(parts[2], parts[3], f"{path}, line {lineno}")
        for term in parts[4].split():
            word = term.rsplit("#", 1)[0].strip().lower()
            if not word:
                continue
            acc = sums.setdefault(word, [0.0, 0.0, 0.0])
            acc[0] += pos
            acc[1] += neg
            acc[2] += 1.0
    if not sums:
        raise InputError(f"{path}: sentiment lexicon has no entries")
    return {w: s[0] / s[2] - s[1] / s[2] for w, s in sums.items()}


def load_sentiment_lexicon(path: str | Path) -> dict[str, float]:
    """Load a lexicon in either format: SentiWordNet, unless a ``.tsv`` or ``.txt`` file's first
    line that is not blank or a ``#`` comment has the TSV format's 3 tab-separated columns."""
    path = Path(path)
    if path.suffix.lower() in (".tsv", ".txt"):
        # A file with no such line has no entries in either format, which both loaders reject.
        first = next((line for _, line in read_lines(path, "lexicon")
                      if line.strip() and not line.startswith("#")), "")
        if len(first.rstrip("\r\n").split("\t")) == 3:
            return load_sentiment_lexicon_tsv(path)
    return load_sentiwordnet(path)


def review_score(tokens: tuple[str, ...] | list[str], lexicon: dict[str, float]) -> float:
    """Sentiment score in [-1, 1] for a token list.

    Each lexicon-covered word has a signed score (pos - neg); the review
    score is the harmonic mean of the positive word scores minus the
    harmonic mean of the magnitudes of the negative ones. Words scoring 0 or
    absent from the lexicon contribute nothing; a side with none has mean 0.
    The reciprocals add in token order as they are read, not by ``sum``.
    """
    n_pos = n_neg = 0
    inv_pos = inv_neg = 0.0
    for token in tokens:
        s = lexicon.get(token, 0.0)
        if s > 0:
            n_pos += 1
            inv_pos += 1.0 / s
        elif s < 0:
            n_neg += 1
            inv_neg += 1.0 / -s
    return (n_pos / inv_pos if n_pos else 0.0) - (n_neg / inv_neg if n_neg else 0.0)


def filter_reviews(corpus: Corpus, lexicon: dict[str, float]) -> list[tuple[int, float]]:
    """``(position, review_score)`` pairs, in corpus order, of the reviews that qualify.

    ``position`` indexes ``corpus.reviews``. Keeps reviews with at most 100
    tokens and a score magnitude above 0.01; longer reviews are not scored.
    Each review's stored token tuple is scored as it is, not a copy. May
    return an empty list.
    """
    kept = []
    for position, (_, tokens) in enumerate(corpus.reviews):
        if len(tokens) > 100:
            continue
        score = review_score(tokens, lexicon)
        if abs(score) > 0.01:
            kept.append((position, score))
    return kept
