"""Similarity metrics over externally trained word and sentence vectors.

The seven unlabelled-data metrics reduce to two computations: mean angular
similarity of word vectors over common adjectives plus their Jaccard term, as
``pairs.shared_mean`` gives both (ULM1/ULM3/ULM4/ULM6, depending only on which
embedding trainer produced the vector file), and angular similarity of averaged
sentence vectors over sentiment-filtered reviews (ULM2/ULM5/ULM7). Vector files
are plain text: an optional ``<count> <dims>`` header, whose count must match
the entries, then per line a key and its floats. Each loads as one float64
matrix, word vectors as its rows by word, sentence vectors as its rows by
review. The pair functions compare what ``word_metric_matrix`` and
``sentence_metric_matrix`` build once per domain: ``word_metric`` two word
tables cut to the adjective lexicon, ``_mean_similarity`` two mean vectors.
"""

from __future__ import annotations

import math
import warnings
from array import array
from pathlib import Path
from typing import Sequence

from ._numpy import np
from .corpus import Corpus
from .errors import InputError, UnrankablePairError, read_lines
# Not called here: the CLI calls filter_reviews, and the benchmark traces both, by these names.
from .lexstats import filter_reviews, review_score  # noqa: F401
from .pairs import mirrored, shared_mean


class AdjectiveLexicon:
    """Word forms treated as adjectives when comparing word-vector tables."""

    __slots__ = ("words",)

    def __init__(self, words: frozenset[str]) -> None:
        if not words:
            raise InputError("adjective lexicon is empty")
        self.words = words


def load_adjectives(path: str | Path) -> AdjectiveLexicon:
    """Load an adjective list, one lowercase word per line; # starts a comment."""
    words = set()
    for _, line in read_lines(Path(path), "adjective"):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return AdjectiveLexicon(frozenset(words))


def _parse_vector_file(path: Path) -> tuple[list[str], np.ndarray, list[int]]:
    """The file's keys, their float64 matrix (a row per key) and each key's line, in file order."""
    # Each line's key-level checks run as it is read, and each component is
    # converted once, into the buffer the matrix views; the matrix is checked
    # as finite once, after the last line.
    count: int | None = None
    dims: int | None = None
    line_of: dict[str, int] = {}
    components = array("d")
    for lineno, line in read_lines(path, "vector"):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                count, dims = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                continue
        key = parts[0]
        if len(parts) < 2:
            raise InputError(f"{path}, line {lineno}: entry has no vector components")
        try:
            components.extend(map(float, parts[1:]))
        except ValueError as exc:
            raise InputError(f"{path}, line {lineno}: non-numeric vector component") from exc
        if dims is None:
            dims = len(parts) - 1
        elif len(parts) - 1 != dims:
            raise InputError(
                f"{path}, line {lineno}: expected {dims} components, got {len(parts) - 1}"
            )
        if key in line_of:
            raise InputError(f"{path}, line {lineno}: duplicate entry {key!r}")
        line_of[key] = lineno
    if not line_of:
        raise InputError(f"{path}: no vector entries")
    if count is not None and count != len(line_of):
        raise InputError(f"{path}, line 1: header gives {count} entries,"
                         f" the file has {len(line_of)}")
    linenos = list(line_of.values())
    matrix = np.frombuffer(components).reshape(len(line_of), dims)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise InputError(f"{path}, line {linenos[np.argmin(finite)]}: non-finite vector component")
    return list(line_of), matrix, linenos


def load_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Load a domain's word vectors by word, in file order; none may have a zero squared norm."""
    path = Path(path)
    words, matrix, linenos = _parse_vector_file(path)
    zero = np.flatnonzero(~(matrix * matrix).any(axis=1))
    if len(zero):
        raise InputError(f"{path}, line {linenos[zero[0]]}: zero vector for {words[zero[0]]!r}")
    return dict(zip(words, matrix))


def load_sentence_vectors(path: str | Path, corpus: Corpus) -> np.ndarray:
    """Load ``corpus``'s sentence vectors, row ``i`` from the entry keyed ``<domain>:<i>``.

    No other ``<domain>:<digits>`` key may appear; keys of other forms are ignored.
    """
    ids, matrix, _ = _parse_vector_file(Path(path))
    prefix = f"{corpus.domain_id}:"
    numbered = {rid: row for row, rid in enumerate(ids)
                if rid.startswith(prefix) and rid[len(prefix):].isdigit()}
    wanted = [f"{prefix}{i}" for i in range(len(corpus))]
    missing = [rid for rid in wanted if rid not in numbered]
    if missing:
        raise InputError(f"sentence vectors for {corpus.domain_id} miss {len(missing)}"
                         f" review id(s), e.g. {missing[:3]}")
    rows = [numbered.pop(rid) for rid in wanted]  # leaves the ids that name no review
    if numbered:
        raise InputError(f"sentence vectors for {corpus.domain_id}: {len(numbered)} id(s) name no"
                         f" kept review, e.g. {list(numbered)[:3]}; ids number kept reviews,"
                         f" not file lines")
    return matrix[rows]


def angular_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    """1 - angle/pi, in [0, 1], with angle = 2*atan2(|u - v|, |u + v|).

    ``u`` and ``v`` are the unit vectors of ``v1`` and ``v2``. This form
    (Kahan, "How Futile are Mindless Assessments of Roundoff in
    Floating-Point Computation?", 2006) is well-conditioned at both ends,
    where ``arccos`` of the rounded cosine loses half the digits: parallel
    inputs give exactly 1, antiparallel inputs exactly 0, and small angles
    keep full relative accuracy. Separates nearly parallel vectors better
    than the raw cosine. Invariant under positive scaling of either argument.
    Callers pass two vectors of one length, each with a non-zero squared norm.
    """
    n1 = math.sqrt(float(np.dot(v1, v1)))
    n2 = math.sqrt(float(np.dot(v2, v2)))
    u = v1 / n1
    v = v2 / n2
    diff = u - v
    total = u + v
    angle = 2.0 * math.atan2(math.sqrt(float(np.dot(diff, diff))),
                             math.sqrt(float(np.dot(total, total))))
    return 1.0 - angle / math.pi


def word_metric(adj_s: dict[str, np.ndarray], adj_t: dict[str, np.ndarray]) -> float:
    """Mean angular similarity over common adjectives, plus their Jaccard (``pairs.shared_mean``).

    Each argument is a domain's word vectors cut to the adjective lexicon,
    as ``word_metric_matrix`` cuts them, so the Jaccard coefficient is over
    the two tables' keys. Symmetric; higher values mean more similar domains.
    """
    mean, j = shared_mean(adj_s, adj_t, angular_similarity, "adjectives")
    return mean + j


def _mean_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    if float(np.linalg.norm(v1)) < 1e-12 or float(np.linalg.norm(v2)) < 1e-12:
        raise UnrankablePairError("mean sentence vector numerically zero")
    return angular_similarity(v1, v2)


def select_test_vectors(
    corpus: Corpus,
    qualifying: Sequence[tuple[int, float]],
    vectors: np.ndarray,
    count: int = 500,
    mode: str = "heldout",
) -> np.ndarray:
    """Pick the sentence vectors of the reviews used for a pair comparison.

    ``qualifying`` is ``filter_reviews(corpus, lexicon)``: the
    ``(position, score)`` pairs of the reviews passing the sentiment filter
    (score magnitude above 0.01, at most 100 tokens), in corpus order.
    ``top`` mode ranks them by score magnitude descending (ties by corpus
    order) and takes ``count``; ``heldout`` mode takes the last ``count`` in
    corpus order. If fewer than ``count`` qualify, all are used and a
    warning is emitted; if none qualifies, the domain is an ``InputError``.
    ``vectors`` is ``load_sentence_vectors(path, corpus)``. Returns a copy
    of the picked rows, in the order picked.
    """
    if mode not in ("top", "heldout"):
        raise InputError(f"unknown selection mode {mode!r} (expected top or heldout)")
    if count < 1:
        raise InputError(f"count must be positive, got {count}")
    if mode == "top":
        # The sort is stable, so equal magnitudes keep corpus order.
        selected = sorted(qualifying, key=lambda scored: -abs(scored[1]))[:count]
    else:
        selected = qualifying[-count:]
    if not selected:
        raise InputError(f"sentence vector set for {corpus.domain_id} is empty")
    if len(qualifying) < count:
        warnings.warn(
            f"{corpus.domain_id}: only {len(qualifying)} of {count} requested reviews"
            f" qualify; using all of them",
            stacklevel=2,
        )
    return vectors[[i for i, _ in selected]]


def word_metric_matrix(
    tables: Sequence[dict[str, np.ndarray]],
    adjectives: AdjectiveLexicon,
) -> list[list[float]]:
    """N rows of N ``word_metric`` values of the tables cut to ``adjectives``; NaN if unrankable."""
    return mirrored([{w: t[w] for w in t.keys() & adjectives.words} for t in tables], word_metric)


def sentence_metric_matrix(sets: Sequence[np.ndarray]) -> list[list[float]]:
    """N rows of N angular similarities of the sets' mean vectors, mirrored.

    Each set is a non-empty ``select_test_vectors`` result, one vector per
    row, and its mean is taken once. A pair whose mean vector is numerically
    zero on either side is unrankable and left NaN.
    """
    return mirrored([np.mean(s, axis=0) for s in sets], _mean_similarity)
