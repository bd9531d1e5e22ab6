"""Pairwise similarity metrics over labelled corpora.

Four metrics: significant-word overlap, symmetric KL divergence of polar
word distributions, polarity drift (L1 distance) of polar words, and
weighted entropy change under corpus mixing. The divergence and drift
metrics add the reciprocal of a Jaccard confidence term so that pairs
sharing a large fraction of their polar vocabulary rank ahead of pairs
merely sharing many words. Natural logarithms throughout; the base only
rescales values and never changes a ranking.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import InputError, UnrankablePairError
from .lexstats import (
    POLAR_THRESHOLD,
    PolarityTable,
    SignificantWordSet,
    clamp_probability,
    polar_words,
    polarity_table,
)

# Entropy weights per n-gram order: unigrams unweighted, higher orders
# weight polar-containing n-grams by 5 and the rest by 1/5.
ENTROPY_WEIGHTS: dict[int, float] = {1: 1.0, 2: 5.0, 3: 5.0, 4: 5.0}


def lm1_overlap(sig_s: SignificantWordSet, sig_t: SignificantWordSet) -> int:
    """Number of significant words shared by two domains. Symmetric."""
    return len(sig_s.words & sig_t.words)


def jaccard(common: int, w1: int, w2: int) -> float:
    """Jaccard coefficient from a common-count and two set sizes."""
    if common < 1:
        raise UnrankablePairError("no common polar words")
    if common > min(w1, w2):
        raise InputError(f"common count {common} exceeds set sizes ({w1}, {w2})")
    return common / (w1 + w2 - common)


def _common_polar(
    table_s: PolarityTable, table_t: PolarityTable, threshold: float
) -> tuple[set[str], float]:
    polar_s = polar_words(table_s, threshold)
    polar_t = polar_words(table_t, threshold)
    common = polar_s & polar_t
    if not common:
        raise UnrankablePairError(
            f"no common polar words between {table_s.domain_id} and {table_t.domain_id}"
        )
    return common, jaccard(len(common), len(polar_s), len(polar_t))


def lm2_skld(table_s: PolarityTable, table_t: PolarityTable, threshold: float = POLAR_THRESHOLD) -> float:
    """Mean symmetric KL divergence over common polar words, plus 1/J.

    Probabilities are clamped away from 0 and 1 before the logarithms.
    Lower values mean more similar domains; the minimum is 1.0, reached by
    identical polar distributions with full polar-vocabulary overlap.
    """
    common, j = _common_polar(table_s, table_t, threshold)
    total = 0.0
    for word in sorted(common):
        p1, n1 = (clamp_probability(x) for x in table_s[word])
        p2, n2 = (clamp_probability(x) for x in table_t[word])
        a = n1 * math.log(n1 / n2) + p1 * math.log(p1 / p2)
        b = n2 * math.log(n2 / n1) + p2 * math.log(p2 / p1)
        total += (a + b) / 2.0
    return total / len(common) + 1.0 / j


def lm3_chameleon(table_s: PolarityTable, table_t: PolarityTable, threshold: float = POLAR_THRESHOLD) -> float:
    """Mean L1 distance between (P, N) vectors of common polar words, plus 1/J.

    Captures words whose polarity orientation drifts between the domains.
    Lower values mean more similar domains.
    """
    common, j = _common_polar(table_s, table_t, threshold)
    total = 0.0
    for word in sorted(common):
        p1, n1 = table_s[word]
        p2, n2 = table_t[word]
        total += abs(p1 - p2) + abs(n1 - n2)
    return total / len(common) + 1.0 / j


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


class _NgramIndex:
    """Shared integer ids for the n-grams (orders 1..4) of a set of corpora.

    Per order, every distinct n-gram gets a global id and ``tokens[order]``
    maps each id to the ids of its tokens; each corpus keeps ``(ids,
    counts)`` arrays in the insertion order of its n-gram ``Counter``.

    Invariant: every LM4 value is bit-identical to merging the two n-gram
    ``Counter``s (``source + target``) and summing ``c * math.log(c)`` left
    to right in a Python loop, so metric_LM4.csv never changes with the
    implementation. It holds because the same float operations run in the
    same order: a mixed corpus lists the source's n-grams (target counts
    added), then the target-only n-grams in target order, as
    ``Counter.__add__`` does; logarithms come from a table filled by
    ``math.log`` (``np.log`` may differ in the last bit); and the sums use
    the sequential ``np.add.accumulate``, not the pairwise ``np.sum``.
    """

    def __init__(self, corpora: Sequence[Corpus]):
        self.domain_ids = [c.domain_id for c in corpora]
        self.vocabulary: dict[str, int] = {}
        self.tokens: dict[int, np.ndarray] = {}
        self.ids: dict[int, list[np.ndarray]] = {}
        self.counts: dict[int, list[np.ndarray]] = {}
        max_count = 0
        for order in ENTROPY_WEIGHTS:
            gram_ids: dict[tuple[str, ...], int] = {}
            self.ids[order] = []
            self.counts[order] = []
            for corpus in corpora:
                counter = corpus.ngram_counts(order)
                self.ids[order].append(np.fromiter(
                    (gram_ids.setdefault(g, len(gram_ids)) for g in counter),
                    dtype=np.int64, count=len(counter)))
                counts = np.fromiter(counter.values(), dtype=np.int64, count=len(counter))
                self.counts[order].append(counts)
                max_count = max(max_count, int(counts.max(initial=0)))
            self.tokens[order] = np.fromiter(
                (self.vocabulary.setdefault(t, len(self.vocabulary)) for g in gram_ids for t in g),
                dtype=np.int64, count=order * len(gram_ids)).reshape(len(gram_ids), order)
        # log_table[c] = math.log(c) up to the largest count a mix of two corpora reaches.
        self.log_table = np.array([0.0] + [math.log(c) for c in range(1, 2 * max_count + 1)])

    def polar_grams(self, polar: set[str]) -> dict[int, np.ndarray]:
        """Per order, a mask over all n-gram ids: does the n-gram contain a polar word?"""
        tok_mask = np.zeros(len(self.vocabulary), dtype=bool)
        tok_mask[[self.vocabulary[w] for w in polar if w in self.vocabulary]] = True
        return {order: tok_mask[tok_ids].any(axis=1) for order, tok_ids in self.tokens.items()}

    def entropy_changes(self, source: int, polar: set[str]) -> dict[int, float]:
        """LM4 from the corpus at position ``source`` to every other corpus, by position.

        Raises UnrankablePairError when the source has zero baseline entropy.
        """
        polar_grams = self.polar_grams(polar)
        own: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        e_before = 0.0
        for order, w in ENTROPY_WEIGHTS.items():
            ids = self.ids[order][source]
            counts = self.counts[order][source]
            position = np.full(len(self.tokens[order]), -1, dtype=np.int64)
            position[ids] = np.arange(len(ids))
            polar_own = polar_grams[order][ids]
            own[order] = (counts, polar_own, position)
            e_before += _order_entropy(counts, polar_own, self.log_table, w, order == 1)
        if e_before == 0.0:
            raise UnrankablePairError(
                f"source {self.domain_ids[source]} has zero baseline entropy"
            )
        changes = {}
        for target in range(len(self.domain_ids)):
            if target == source:
                continue
            e_after = 0.0
            for order, w in ENTROPY_WEIGHTS.items():
                counts, polar_own, position = own[order]
                ids_t = self.ids[order][target]
                counts_t = self.counts[order][target]
                pos = position[ids_t]
                shared = pos >= 0
                only = ~shared
                mixed = np.concatenate([counts, counts_t[only]])
                mixed[pos[shared]] += counts_t[shared]
                polar_mixed = np.concatenate([polar_own, polar_grams[order][ids_t[only]]])
                e_after += _order_entropy(mixed, polar_mixed, self.log_table, w, order == 1)
            changes[target] = abs(e_after - e_before) / e_before * 100.0
        return changes


def lm4_entropy_change(source: Corpus, target: Corpus, polar: set[str] | None = None) -> float:
    """Percent change of the source's weighted entropy when the target is mixed in.

    The entropy is the sum of the per-order weighted entropies for orders
    1..4; the polar word set comes from the source alone and is reused for
    the mixed corpus, keeping the before/after split rule fixed. Asymmetric
    in its arguments; lower values mean the source suits the target better.
    """
    if polar is None:
        polar = polar_words(polarity_table(source))
    return _NgramIndex([source, target]).entropy_changes(0, polar)[1]


def lm4_matrix(corpora: Sequence[Corpus], polar_sets: Sequence[set[str]]) -> np.ndarray:
    """LM4 for every ordered pair, ``[source, target]``, each source with its own polar set.

    Equal to ``lm4_entropy_change`` pair by pair; NaN on the diagonal and
    for every pair of a source with zero baseline entropy (unrankable).
    """
    index = _NgramIndex(corpora)
    values = np.full((len(corpora), len(corpora)), np.nan)
    for i, polar in enumerate(polar_sets):
        try:
            changes = index.entropy_changes(i, polar)
        except UnrankablePairError:
            continue
        for j, change in changes.items():
            values[i, j] = change
    return values
