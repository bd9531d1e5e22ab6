"""Similarity metrics over externally trained word and sentence vectors.

The seven unlabelled-data metrics reduce to two computations: average
angular similarity of word vectors over common adjectives plus a Jaccard
term (ULM1/ULM3/ULM4/ULM6, depending only on which embedding trainer
produced the vector file), and angular similarity of averaged sentence
vectors over sentiment-filtered reviews (ULM2/ULM5/ULM7). Vector files are
plain text: an optional ``<count> <dims>`` header line, whose count must be
the number of entries, then one entry per line as a key followed by
whitespace-separated floats. The loaders return a dict of vectors by key.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Sequence

from ._numpy import np
from .corpus import Corpus
from .errors import InputError, UnrankablePairError, read_lines
# Not called here: the CLI calls filter_reviews, and the benchmark traces both, by these names.
from .lexstats import filter_reviews, review_score  # noqa: F401
from .pairs import mirrored


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


def _parse_vector_file(path: Path) -> tuple[dict[str, np.ndarray], list[int]]:
    """The file's vectors by key, in file order, and the line of each entry."""
    count: int | None = None
    dims: int | None = None
    entries: dict[str, np.ndarray] = {}
    linenos: list[int] = []
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
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{path}, line {lineno}: non-numeric vector component") from exc
        if dims is None:
            dims = vec.shape[0]
        elif vec.shape[0] != dims:
            raise InputError(
                f"{path}, line {lineno}: expected {dims} components, got {vec.shape[0]}"
            )
        if key in entries:
            raise InputError(f"{path}, line {lineno}: duplicate entry {key!r}")
        entries[key] = vec
        linenos.append(lineno)
    if not entries:
        raise InputError(f"{path}: no vector entries")
    if count is not None and count != len(entries):
        raise InputError(f"{path}, line 1: header gives {count} entries,"
                         f" the file has {len(entries)}")
    # Checked once per file: np.isfinite on every line would add ~8% to parsing.
    finite = np.isfinite(np.array(list(entries.values()))).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise InputError(f"{path}, line {lineno}: non-finite vector component")
    return entries, linenos


def load_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Load a domain's word vectors by word, in file order; none may be zero."""
    path = Path(path)
    entries, linenos = _parse_vector_file(path)
    for (key, vec), lineno in zip(entries.items(), linenos):
        if not np.any(vec):
            raise InputError(f"{path}, line {lineno}: zero vector for {key!r}")
    return entries


def load_sentence_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Load a domain's sentence vectors by ``<domain>:<index>`` review id, in file order."""
    return _parse_vector_file(Path(path))[0]


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
    tab_s: dict[str, np.ndarray],
    tab_t: dict[str, np.ndarray],
    adjectives: AdjectiveLexicon,
) -> float:
    """Average angular similarity over common adjectives, plus the Jaccard term.

    The Jaccard coefficient is over the two domains' adjective vocabularies
    (table words intersected with the adjective lexicon). Symmetric; higher
    values mean more similar domains.
    """
    adj_s = set(tab_s) & adjectives.words
    adj_t = set(tab_t) & adjectives.words
    common = adj_s & adj_t
    if not common:
        raise UnrankablePairError("no common adjectives")
    j = len(common) / len(adj_s | adj_t)
    avg = sum(angular_similarity(tab_s[w], tab_t[w]) for w in sorted(common)) / len(common)
    return avg + j


def _mean_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    if float(np.linalg.norm(v1)) < 1e-12 or float(np.linalg.norm(v2)) < 1e-12:
        raise UnrankablePairError("mean sentence vector numerically zero")
    return angular_similarity(v1, v2)


def select_test_vectors(
    corpus: Corpus,
    qualifying: Sequence[tuple[int, float]],
    vecs: dict[str, np.ndarray],
    count: int = 500,
    mode: str = "heldout",
) -> list[tuple[str, np.ndarray]]:
    """Pick the sentence vectors of the reviews used for a pair comparison.

    ``qualifying`` is ``filter_reviews(corpus, lexicon)``: the
    ``(position, score)`` pairs of the reviews passing the sentiment filter
    (score magnitude above 0.01, at most 100 tokens), in corpus order.
    ``top`` mode ranks them by score magnitude descending (ties by corpus
    order) and takes ``count``; ``heldout`` mode takes the last ``count`` in
    corpus order. If fewer than ``count`` qualify, all are used and a
    warning is emitted; if none qualifies, the domain is an ``InputError``.
    The review at position ``i`` has the id ``<domain>:<i>``. ``vecs`` must
    hold a vector for every review, and no other ``<domain>:<i>`` key, such
    as one that numbers a dropped line. Returns the ``(id, vector)`` pairs.
    """
    if mode not in ("top", "heldout"):
        raise InputError(f"unknown selection mode {mode!r} (expected top or heldout)")
    if count < 1:
        raise InputError(f"count must be positive, got {count}")
    prefix = f"{corpus.domain_id}:"
    ids = [f"{prefix}{i}" for i in range(len(corpus))]
    missing = [rid for rid in ids if rid not in vecs]
    if missing:
        raise InputError(
            f"sentence vectors for {corpus.domain_id} miss {len(missing)} review id(s),"
            f" e.g. {missing[:3]}"
        )
    kept = set(ids)
    stray = [rid for rid in vecs
             if rid.startswith(prefix) and rid[len(prefix):].isdigit() and rid not in kept]
    if stray:
        raise InputError(f"sentence vectors for {corpus.domain_id}: {len(stray)} id(s) name no"
                         f" kept review, e.g. {stray[:3]}; ids number kept reviews, not file lines")
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
    return [(ids[i], vecs[ids[i]]) for i, _ in selected]


def word_metric_matrix(
    tables: Sequence[dict[str, np.ndarray]],
    adjectives: AdjectiveLexicon,
) -> list[list[float]]:
    """N rows of N word-vector metric values, mirrored; NaN for unrankable pairs."""
    return mirrored(tables, lambda a, b: word_metric(a, b, adjectives))


def sentence_metric_matrix(sets: Sequence[Sequence[tuple[str, np.ndarray]]]) -> list[list[float]]:
    """N rows of N angular similarities of the sets' mean vectors, mirrored.

    Each set is a non-empty ``select_test_vectors`` result, and its mean is
    taken once. A pair whose mean vector is numerically zero on either side
    is unrankable and left NaN.
    """
    return mirrored([np.mean([vec for _, vec in s], axis=0) for s in sets], _mean_similarity)
