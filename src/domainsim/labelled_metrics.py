"""Pairwise similarity metrics over labelled corpora.

Four metrics: significant-word overlap, symmetric KL divergence of polar word
distributions, polarity drift (L1 distance) of polar words, and weighted
entropy change under corpus mixing. The divergence and drift are means over
common polar words (``pairs.shared_mean``) plus the reciprocal of a Jaccard
confidence term, so that pairs sharing a large fraction of their polar
vocabulary rank ahead of pairs merely sharing many words. Natural logarithms
throughout; the base only rescales values and never changes a ranking.
"""

from __future__ import annotations

import math
from typing import Collection, Sequence

from ._numpy import np
from .corpus import Corpus, NgramIndex
from .errors import UnrankablePairError
from .lexstats import clamp_probability, polar_words, polarity_table
from .pairs import shared_mean

# Entropy weights per n-gram order: unigrams unweighted, higher orders
# weight polar-containing n-grams by 5 and the rest by 1/5.
ENTROPY_WEIGHTS: dict[int, float] = {1: 1.0, 2: 5.0, 3: 5.0, 4: 5.0}

# A polarity table cut to its polar words, as LM2 and LM3 take it: word -> (P, N).
PolarTable = dict[str, tuple[float, float]]


def lm1_overlap(sig_s: frozenset[str], sig_t: frozenset[str]) -> int:
    """Number of significant words shared by two domains. Symmetric."""
    return len(sig_s & sig_t)


def _skld(x: tuple[float, float], y: tuple[float, float]) -> float:
    # Symmetric KL divergence of two (P, N) pairs, each clamped away from 0 and 1.
    p1, n1 = (clamp_probability(v) for v in x)
    p2, n2 = (clamp_probability(v) for v in y)
    a = n1 * math.log(n1 / n2) + p1 * math.log(p1 / p2)
    b = n2 * math.log(n2 / n1) + p2 * math.log(p2 / p1)
    return (a + b) / 2.0


def _l1(x: tuple[float, float], y: tuple[float, float]) -> float:
    return abs(x[0] - y[0]) + abs(x[1] - y[1])


def lm2_skld(polar_s: PolarTable, polar_t: PolarTable) -> float:
    """Mean symmetric KL divergence over common polar words, plus 1/J.

    Takes two polar tables, each a polarity table cut to its ``polar_words``.
    Probabilities are clamped away from 0 and 1 before the logarithms.
    Lower values mean more similar domains; the minimum is 1.0, reached by
    identical polar distributions with full polar-vocabulary overlap.
    """
    mean, j = shared_mean(polar_s, polar_t, _skld, "polar words")
    return mean + 1.0 / j


def lm3_chameleon(polar_s: PolarTable, polar_t: PolarTable) -> float:
    """Mean L1 distance between (P, N) vectors of common polar words, plus 1/J.

    Takes two polar tables, as ``lm2_skld`` does. Captures words whose
    polarity orientation drifts between the domains. Lower values mean more
    similar domains.
    """
    mean, j = shared_mean(polar_s, polar_t, _l1, "polar words")
    return mean + 1.0 / j


def _order_entropy(
    counts: np.ndarray, polar: np.ndarray, log_table: np.ndarray, w: float, polar_only: bool
) -> float:
    # H over p = c / total, split into n-grams containing a polar word (X,
    # weighted by w) and the rest (Y, weighted by 1/w, skipped for unigrams).
    total = int(counts.sum())
    if total == 0:
        return 0.0
    log_total = math.log(total)
    clogc = counts * log_table[counts]
    count_x = int(counts[polar].sum())
    h_x = (log_total * count_x - _sequential_sum(clogc[polar])) / total
    if polar_only:
        return w * h_x
    h_y = (log_total * (total - count_x) - _sequential_sum(clogc[~polar])) / total
    return w * h_x + h_y / w


def _sequential_sum(values: np.ndarray) -> float:
    # Left to right, like a Python += loop; np.sum adds pairwise.
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _polar_grams(index: NgramIndex, polar: Collection[str]) -> dict[int, np.ndarray]:
    """Per order, a mask over all n-gram ids: does the n-gram contain a polar word?"""
    tok_mask = np.zeros(len(index.words), dtype=bool)
    tok_mask[[index.vocabulary[w] for w in polar if w in index.vocabulary]] = True
    return {order: tok_mask[rows].any(axis=1) for order, rows in index.tokens.items()}


def lm4_entropy_change(source: Corpus, target: Corpus, polar: set[str] | None = None) -> float:
    """Percent change of the source's weighted entropy when the target is mixed in.

    The entropy is the sum of the per-order weighted entropies for orders
    1..4; the polar word set comes from the source alone and is reused for
    the mixed corpus, keeping the before/after split rule fixed. Asymmetric
    in its arguments; lower values mean the source suits the target better.
    Raises UnrankablePairError when the source has zero baseline entropy.
    """
    if polar is None:
        polar = polar_words(polarity_table(source))
    value = float(lm4_matrix(NgramIndex([source, target]), [polar])[0, 1])
    if math.isnan(value):
        raise UnrankablePairError(f"source {source.domain_id} has zero baseline entropy")
    return value


def lm4_matrix(index: NgramIndex, polar_sets: Sequence[Collection[str]]) -> np.ndarray:
    """LM4 for every ordered pair, ``[source, target]``, each source with its own polar words.

    Sources are the first ``len(polar_sets)`` corpora of ``index``, each with
    a set of polar words or a polar table (its keys). NaN on the diagonal and
    for every pair of a source with zero baseline entropy (unrankable).

    Invariant: every LM4 value is bit-identical to merging the two n-gram
    ``Counter``s (``source + target``) and summing ``c * math.log(c)`` left
    to right in a Python loop, so metric_LM4.csv never changes with the
    implementation. It holds because the same float operations run in the
    same order: the index lists each corpus's n-grams in ``Counter``
    insertion order; a mixed corpus lists the source's n-grams (target
    counts added), then the target-only n-grams in target order, as
    ``Counter.__add__`` does; logarithms come from a table filled by
    ``math.log`` (``np.log`` may differ in the last bit); and the sums use
    the sequential ``np.add.accumulate``, not the pairwise ``np.sum``.
    """
    # log_table[c] = math.log(c) up to the largest count a mix of two corpora reaches.
    top = max(int(c.max(initial=0)) for per_corpus in index.grams.values() for _, c in per_corpus)
    log_table = np.array([0.0] + [math.log(c) for c in range(1, 2 * top + 1)])
    values = np.full((len(index.domain_ids), len(index.domain_ids)), np.nan)
    for source, polar in enumerate(polar_sets):
        polar_grams = _polar_grams(index, polar)
        own: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        e_before = 0.0
        for order, w in ENTROPY_WEIGHTS.items():
            ids, counts = index.grams[order][source]
            position = np.full(len(index.tokens[order]), -1, dtype=np.int64)
            position[ids] = np.arange(len(ids))
            polar_own = polar_grams[order][ids]
            own[order] = (counts, polar_own, position)
            e_before += _order_entropy(counts, polar_own, log_table, w, order == 1)
        if e_before == 0.0:
            continue
        for target in range(len(index.domain_ids)):
            if target == source:
                continue
            e_after = 0.0
            for order, w in ENTROPY_WEIGHTS.items():
                counts, polar_own, position = own[order]
                ids_t, counts_t = index.grams[order][target]
                pos = position[ids_t]
                shared = pos >= 0
                only = ~shared
                mixed = np.concatenate([counts, counts_t[only]])
                mixed[pos[shared]] += counts_t[shared]
                polar_mixed = np.concatenate([polar_own, polar_grams[order][ids_t[only]]])
                e_after += _order_entropy(mixed, polar_mixed, log_table, w, order == 1)
            values[source, target] = abs(e_after - e_before) / e_before * 100.0
    return values
