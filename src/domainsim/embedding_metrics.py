"""Similarity metrics over externally trained word and sentence vectors.

The seven unlabelled-data metrics reduce to two computations: average
angular similarity of word vectors over common adjectives plus a Jaccard
term (ULM1/ULM3/ULM4/ULM6, depending only on which embedding trainer
produced the vector file), and angular similarity of averaged sentence
vectors over sentiment-filtered reviews (ULM2/ULM5/ULM7). Vector files are
plain text: an optional ``<count> <dims>`` header line, then one entry per
line as a key followed by whitespace-separated floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, Review
from .errors import InputError, UnrankablePairError
# Not called here: the CLI calls filter_reviews, and the benchmark traces both, by these names.
from .lexstats import filter_reviews, review_score  # noqa: F401
from .pairs import mirrored


@dataclass(frozen=True)
class WordVectorTable:
    """One domain's word vectors; uniform dimensionality, no zero vectors."""

    domain_id: str
    dims: int
    entries: dict[str, np.ndarray]

    def __getitem__(self, word: str) -> np.ndarray:
        return self.entries[word]


@dataclass(frozen=True)
class SentenceVectorSet:
    """Per-review vectors for one domain, keyed by review id."""

    domain_id: str
    dims: int
    vectors: tuple[tuple[str, np.ndarray], ...]

    def mean_vector(self) -> np.ndarray:
        if not self.vectors:
            raise InputError(f"sentence vector set for {self.domain_id} is empty")
        return np.mean([vec for _, vec in self.vectors], axis=0)


@dataclass(frozen=True)
class AdjectiveLexicon:
    """Word forms treated as adjectives when comparing word-vector tables."""

    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise InputError("adjective lexicon is empty")


def load_adjectives(path: str | Path) -> AdjectiveLexicon:
    """Load an adjective list, one lowercase word per line; # starts a comment."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"adjective file not found: {path}")
    words = set()
    for line in path.read_text("utf-8").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return AdjectiveLexicon(frozenset(words))


def _parse_vector_file(path: Path) -> tuple[int, list[tuple[str, np.ndarray]]]:
    if not path.is_file():
        raise InputError(f"vector file not found: {path}")
    dims: int | None = None
    entries: list[tuple[str, np.ndarray]] = []
    linenos: list[int] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    dims = int(parts[1])
                    continue
            key = parts[0]
            if len(parts) < 2:
                raise InputError(f"{path}, line {lineno}: entry has no vector components")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise InputError(f"{path}, line {lineno}: non-numeric vector component") from exc
            if dims is None:
                dims = vec.shape[0]
            elif vec.shape[0] != dims:
                raise InputError(
                    f"{path}, line {lineno}: expected {dims} components, got {vec.shape[0]}"
                )
            if key in seen:
                raise InputError(f"{path}, line {lineno}: duplicate entry {key!r}")
            seen.add(key)
            entries.append((key, vec))
            linenos.append(lineno)
    if not entries:
        raise InputError(f"{path}: no vector entries")
    # Checked once per file: np.isfinite on every line would add ~8% to parsing.
    finite = np.isfinite(np.array([vec for _, vec in entries])).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise InputError(f"{path}, line {lineno}: non-finite vector component")
    assert dims is not None
    return dims, entries


def load_word_vectors(path: str | Path, domain_id: str | None = None) -> WordVectorTable:
    """Load a word-vector table; the domain defaults to the file stem."""
    path = Path(path)
    dims, entries = _parse_vector_file(path)
    for lineno_key, vec in entries:
        if not np.any(vec):
            raise InputError(f"{path}: zero vector for {lineno_key!r}")
    return WordVectorTable(domain_id or path.stem, dims, dict(entries))


def load_sentence_vectors(path: str | Path, domain_id: str | None = None) -> SentenceVectorSet:
    """Load per-review sentence vectors keyed by ``<domain>:<index>`` ids."""
    path = Path(path)
    dims, entries = _parse_vector_file(path)
    return SentenceVectorSet(domain_id or path.stem, dims, tuple(entries))


def angular_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    """1 - angle/pi, in [0, 1], with angle = 2*atan2(|u - v|, |u + v|).

    ``u`` and ``v`` are the unit vectors of ``v1`` and ``v2``. This form
    (Kahan, "How Futile are Mindless Assessments of Roundoff in
    Floating-Point Computation?", 2006) is well-conditioned at both ends,
    where ``arccos`` of the rounded cosine loses half the digits: parallel
    inputs give exactly 1, antiparallel inputs exactly 0, and small angles
    keep full relative accuracy. Separates nearly parallel vectors better
    than the raw cosine. Invariant under positive scaling of either argument.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if v1.shape != v2.shape:
        raise InputError(f"vector dimensions differ: {v1.shape} vs {v2.shape}")
    n1 = math.sqrt(float(np.dot(v1, v1)))
    n2 = math.sqrt(float(np.dot(v2, v2)))
    if n1 == 0.0 or n2 == 0.0:
        raise InputError("angular similarity undefined for zero vectors")
    u = v1 / n1
    v = v2 / n2
    diff = u - v
    total = u + v
    angle = 2.0 * math.atan2(math.sqrt(float(np.dot(diff, diff))),
                             math.sqrt(float(np.dot(total, total))))
    return 1.0 - angle / math.pi


def word_metric(
    tab_s: WordVectorTable,
    tab_t: WordVectorTable,
    adjectives: AdjectiveLexicon,
) -> float:
    """Average angular similarity over common adjectives, plus the Jaccard term.

    The Jaccard coefficient is over the two domains' adjective vocabularies
    (table words intersected with the adjective lexicon). Symmetric; higher
    values mean more similar domains.
    """
    adj_s = set(tab_s.entries) & adjectives.words
    adj_t = set(tab_t.entries) & adjectives.words
    common = adj_s & adj_t
    if not common:
        raise UnrankablePairError(
            f"no common adjectives between {tab_s.domain_id} and {tab_t.domain_id}"
        )
    j = len(common) / len(adj_s | adj_t)
    avg = sum(angular_similarity(tab_s[w], tab_t[w]) for w in sorted(common)) / len(common)
    return avg + j


def sentence_metric(set_s: SentenceVectorSet, set_t: SentenceVectorSet) -> float:
    """Angular similarity between the mean vectors of two sentence-vector sets."""
    return _mean_similarity((set_s.domain_id, set_s.mean_vector()),
                            (set_t.domain_id, set_t.mean_vector()))


def _mean_similarity(mean_s: tuple[str, np.ndarray], mean_t: tuple[str, np.ndarray]) -> float:
    # Each argument is a (domain id, mean sentence vector) pair.
    (domain_s, v1), (domain_t, v2) = mean_s, mean_t
    if float(np.linalg.norm(v1)) < 1e-12 or float(np.linalg.norm(v2)) < 1e-12:
        raise UnrankablePairError(
            f"mean sentence vector numerically zero for pair ({domain_s}, {domain_t})"
        )
    return angular_similarity(v1, v2)


def select_test_vectors(
    corpus: Corpus,
    qualifying: Sequence[tuple[Review, float]],
    vecs: SentenceVectorSet,
    count: int = 500,
    mode: str = "heldout",
) -> SentenceVectorSet:
    """Pick the sentence vectors of the reviews used for a pair comparison.

    ``qualifying`` is ``filter_reviews(corpus, lexicon)``: the
    ``(review, score)`` pairs passing the sentiment filter (score magnitude
    above 0.01, at most 100 tokens), in corpus order. ``top`` mode ranks
    them by score magnitude descending (ties by corpus order) and takes
    ``count``; ``heldout`` mode takes the last ``count`` in corpus order. If
    fewer than ``count`` qualify, all are used and a warning is emitted.
    """
    if mode not in ("top", "heldout"):
        raise InputError(f"unknown selection mode {mode!r} (expected top or heldout)")
    by_id = {rid: vec for rid, vec in vecs.vectors}
    missing = [r.review_id for r in corpus.reviews if r.review_id not in by_id]
    if missing:
        raise InputError(
            f"sentence vectors for {corpus.domain_id} miss {len(missing)} review id(s),"
            f" e.g. {missing[:3]}"
        )
    if mode == "top":
        # The sort is stable, so equal magnitudes keep corpus order.
        selected = sorted(qualifying, key=lambda scored: -abs(scored[1]))[:count]
    else:
        selected = qualifying[-count:]
    if len(qualifying) < count:
        warnings.warn(
            f"{corpus.domain_id}: only {len(qualifying)} of {count} requested reviews"
            f" qualify; using all of them",
            stacklevel=2,
        )
    return SentenceVectorSet(
        corpus.domain_id,
        vecs.dims,
        tuple((r.review_id, by_id[r.review_id]) for r, _ in selected),
    )


def word_metric_matrix(
    tables: Sequence[WordVectorTable],
    adjectives: AdjectiveLexicon,
) -> np.ndarray:
    """N×N word-vector metric values, mirrored; NaN for unrankable pairs."""
    return mirrored(tables, lambda a, b: word_metric(a, b, adjectives))


def sentence_metric_matrix(sets: Sequence[SentenceVectorSet]) -> np.ndarray:
    """N×N sentence-vector metric values, mirrored; NaN for unrankable pairs.

    Equal to ``sentence_metric`` on every pair, with each set's mean taken once.
    """
    return mirrored([(s.domain_id, s.mean_vector()) for s in sets], _mean_similarity)
