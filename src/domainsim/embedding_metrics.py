"""Similarity metrics over externally trained word and sentence vectors.

The seven unlabelled-data metrics reduce to two computations: mean angular
similarity of word vectors over common adjectives plus their Jaccard term, as
``pairs.shared_mean`` gives both (ULM1/ULM3/ULM4/ULM6, depending only on which
embedding trainer produced the vector file), and angular similarity of averaged
sentence vectors over sentiment-filtered reviews (ULM2/ULM5/ULM7). Vector files
are plain text: an optional ``<count> <dims>`` header, whose count must match
the entries, then per line a key and its numbers. A number is what ``float``
reads, less ``_`` between digits and non-ASCII digits; a file's numbers all
convert in one ``np.loadtxt`` call, by the routine ``float`` uses, so each has
the bits ``float`` gives it. Each file loads as one float64 matrix, word
vectors as its rows by word, sentence vectors as its rows by review. The pair
functions compare what ``word_metric_matrix`` and ``sentence_metric_matrix``
build once per domain: ``_word_value`` two matrices of unit vectors of words
cut to the adjective lexicon, every common adjective's angle in one array
pass, ``_mean_similarity`` two mean vectors. Every squared norm, mean and
angle adds left to right (``_numpy.sequential_sum``), never through BLAS, so a
ULM value has the same bits on every CPU.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path
from typing import Sequence

from ._numpy import np, sequential_sum
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


def _read_rows(texts: list[str]) -> np.ndarray:
    """One float64 row per text, its whitespace-separated numbers read by one ``np.loadtxt`` call.

    A number is what ``PyOS_string_to_double`` reads, the routine behind
    ``float``, so each row has the bits ``float`` gives its numbers; unlike
    ``float``, it takes no ``_`` between digits and no non-ASCII digit.
    """
    return np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)


def _check_rows(path: Path, linenos: list[int], rests: list[str], dims: int | None) -> None:
    """Raise the error of the first of ``rests``, read one at a time, with a number that does not
    read or a count other than ``dims``, the header's, else the first entry's."""
    for lineno, rest in zip(linenos, rests):
        try:
            got = _read_rows([rest]).shape[1]
        except ValueError as exc:
            raise InputError(f"{path}, line {lineno}: non-numeric vector component") from exc
        if dims is None:
            dims = got
        elif got != dims:
            raise InputError(f"{path}, line {lineno}: expected {dims} components, got {got}")


def _parse_vector_file(path: Path) -> tuple[list[str], np.ndarray, list[int], np.ndarray]:
    """The file's keys, their float64 matrix (a row per key), lines and squared norms, in order.

    Every squared norm is finite. The key-level checks run line by line; the
    components of every line convert in one ``_read_rows`` call after the
    last line. A fault names the first faulty line in file order, each line
    checked for components, numbers, their count and its key, in that order;
    the header's count, the finite components and the squared norms are
    checked once every line has passed.
    """
    count: int | None = None
    dims: int | None = None
    line_of: dict[str, int] = {}
    rests: list[str] = []  # each entry's text after its key
    for lineno, line in read_lines(path, "vector"):
        parts = line.split(None, 1)
        if not parts:
            continue
        if lineno == 1 and len(header := line.split()) == 2:
            try:
                count, dims = int(header[0]), int(header[1])
            except ValueError:
                pass
            else:
                continue
        key = parts[0]
        if len(parts) < 2:
            _check_rows(path, list(line_of.values()), rests, dims)
            raise InputError(f"{path}, line {lineno}: entry has no vector components")
        rests.append(parts[1])
        if key in line_of:
            _check_rows(path, [*line_of.values(), lineno], rests, dims)
            raise InputError(f"{path}, line {lineno}: duplicate entry {key!r}")
        line_of[key] = lineno
    if not line_of:
        raise InputError(f"{path}: no vector entries")
    linenos = list(line_of.values())
    try:
        matrix = _read_rows(rests)
    except ValueError:
        matrix = None
    if matrix is None or dims not in (None, matrix.shape[1]):
        _check_rows(path, linenos, rests, dims)
    del rests  # before the squared norms' temporaries
    if count is not None and count != len(line_of):
        raise InputError(f"{path}, line 1: header gives {count} entries,"
                         f" the file has {len(line_of)}")
    with np.errstate(over="ignore"):
        squared = sequential_sum(matrix * matrix)
    finite = np.isfinite(squared)
    if not finite.all():
        row = np.argmin(finite)
        problem = ("squared norm overflows" if np.isfinite(matrix[row]).all()
                   else "non-finite vector component")
        raise InputError(f"{path}, line {linenos[row]}: {problem}")
    return list(line_of), matrix, linenos, squared


def load_word_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """Load a domain's word vectors by word, in file order.

    Each squared norm must be a normal float: zero, subnormal or overflowing,
    it would make the unit vector, and so every angle to it, wrong.
    """
    path = Path(path)
    words, matrix, linenos, squared = _parse_vector_file(path)
    small = np.flatnonzero(squared < sys.float_info.min)
    if len(small):
        row = small[0]
        problem = "zero vector" if squared[row] == 0.0 else "subnormal squared norm"
        raise InputError(f"{path}, line {linenos[row]}: {problem} for {words[row]!r}")
    return dict(zip(words, matrix))


def load_sentence_vectors(path: str | Path, corpus: Corpus) -> np.ndarray:
    """Load ``corpus``'s sentence vectors, row ``i`` from the entry keyed ``<domain>:<i>``.

    No other ``<domain>:<digits>`` key may appear; keys of other forms are ignored.
    No squared norm may overflow; a mean's is then at most its largest vector's.
    """
    ids, matrix, _, _ = _parse_vector_file(Path(path))
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


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(sequential_sum(x * x)))


def angular_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    """1 - angle/pi, in [0, 1], with angle = 2*atan2(|u - v|, |u + v|).

    ``u`` and ``v`` are the unit vectors of ``v1`` and ``v2``. This form
    (Kahan, "How Futile are Mindless Assessments of Roundoff in
    Floating-Point Computation?", 2006) is well-conditioned at both ends,
    where ``arccos`` of the rounded cosine loses half the digits: parallel
    inputs give exactly 1, antiparallel inputs exactly 0, and small angles
    keep full relative accuracy. Separates nearly parallel vectors better
    than the raw cosine. Invariant under positive scaling of either argument.
    Callers pass two vectors of one length, each with a squared norm that is
    a normal float, as the loaders check.
    """
    u = v1 / _norm(v1)
    v = v2 / _norm(v2)
    return _angular(_norm(u - v), _norm(u + v))


def _angular(diff: float, total: float) -> float:
    # 1 - angle/pi of unit vectors u and v with |u - v| = diff and |u + v| = total; math.atan2,
    # as np.arctan2's SIMD loops round some angles otherwise.
    return 1.0 - 2.0 * math.atan2(diff, total) / math.pi


def _unit_rows(table: dict[str, np.ndarray]) -> tuple[dict[str, int], np.ndarray]:
    """``table``'s words mapped to rows of one matrix of their unit vectors, in table order."""
    if not table:
        return {}, np.zeros((0, 0))
    m = np.array(list(table.values()))
    return {w: i for i, w in enumerate(table)}, m / np.sqrt(sequential_sum(m * m))[:, None]


def _word_value(
    a: tuple[dict[str, int], np.ndarray], b: tuple[dict[str, int], np.ndarray]
) -> float:
    """``word_metric`` of two ``_unit_rows`` results, every common word's angle in one array pass.

    Each angle has the bits of ``angular_similarity`` on the word's two vectors.
    """
    (rows_a, units_a), (rows_b, units_b) = a, b

    def angles(in_a: list[int], in_b: list[int]):
        u, v = units_a[in_a], units_b[in_b]
        diff, total = u - v, u + v
        return map(_angular, np.sqrt(sequential_sum(diff * diff)).tolist(),
                   np.sqrt(sequential_sum(total * total)).tolist())

    mean, j = shared_mean(rows_a, rows_b, angles, "adjectives")
    return mean + j


def word_metric(adj_s: dict[str, np.ndarray], adj_t: dict[str, np.ndarray]) -> float:
    """Mean angular similarity over common adjectives, plus their Jaccard (``pairs.shared_mean``).

    Each argument is a domain's word vectors cut to the adjective lexicon,
    as ``word_metric_matrix`` cuts them, so the Jaccard coefficient is over
    the two tables' keys. Symmetric; higher values mean more similar domains.
    """
    return _word_value(_unit_rows(adj_s), _unit_rows(adj_t))


def _mean_similarity(v1: np.ndarray, v2: np.ndarray) -> float:
    if _norm(v1) < 1e-12 or _norm(v2) < 1e-12:
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
    """N rows of N ``word_metric`` values of the tables cut to ``adjectives``; NaN if unrankable.

    Each table's unit vectors are computed once, not once per pair.
    """
    return mirrored([_unit_rows({w: t[w] for w in t.keys() & adjectives.words}) for t in tables],
                    _word_value)


def sentence_metric_matrix(sets: Sequence[np.ndarray]) -> list[list[float]]:
    """N rows of N angular similarities of the sets' mean vectors, mirrored.

    Each set is a non-empty ``select_test_vectors`` result, one vector per
    row, and its mean is taken once, adding the rows in order. A pair whose
    mean vector is numerically zero on either side is unrankable and left NaN.
    """
    return mirrored([sequential_sum(s.T) / len(s) for s in sets], _mean_similarity)
