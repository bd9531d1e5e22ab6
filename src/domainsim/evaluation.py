"""Source-domain rankings and their evaluation against an accuracy matrix.

For each target domain a metric induces a ranking of candidate sources, a
tuple of domain ids best first; the ground truth, the accuracy matrix, is
a ``PairMatrix`` that ranks sources by their cross-domain accuracy on that
target. ``rank_sources`` is the one place that ranks: it takes every
target's ranking from ``PairMatrix.ranking``, for each metric and for the
truth alike. Rankings are scored with precision at K (top-K intersection
size) and ranking accuracy (exact-position matches within the top K);
``recommendation_report`` checks each K once, sums both scores over every
target and normalizes them. This module ranks and scores but writes
nothing: ``cli`` writes the CSV and Markdown reports.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import InputError
from .pairs import PairMatrix


class EvalReport(NamedTuple):
    """Aggregate precision/NRA of one metric at one K over all targets."""

    metric_id: str
    k: int
    precision_pct: float
    nra: float


def rank_sources(pairs: PairMatrix) -> dict[str, tuple[str, ...]]:
    """Every target's sources, best first, by ``PairMatrix.ranking``; targets in domain order."""
    return {target: pairs.ranking(target) for target in pairs.domains}


def precision_at_k(pred: tuple[str, ...], truth: tuple[str, ...], k: int) -> int:
    """Size of the intersection of the predicted and true top-K sources."""
    return len(set(pred[:k]) & set(truth[:k]))


def ranking_accuracy(pred: tuple[str, ...], truth: tuple[str, ...], k: int) -> int:
    """Number of top-K positions where prediction and truth agree exactly."""
    return sum(1 for p, t in zip(pred[:k], truth[:k]) if p == t)


def recommendation_report(
    matrix: PairMatrix,
    pairs_by_metric: Mapping[str, PairMatrix],
    ks: Sequence[int],
) -> list[EvalReport]:
    """Each metric's evaluation report for each K, against the accuracy ``matrix``.

    Every K must lie in 1..N-1; it is checked once, before anything is
    scored. Each metric's domains must be the matrix's, in the same order,
    because domain order breaks ranking ties. Over the N targets,
    precision_pct is 100 times the summed top-K intersections over N*K and
    NRA the summed exact-position matches over N*K. With no metrics there
    is nothing to score: no K is checked and the truth is not ranked.
    """
    if not pairs_by_metric:
        return []
    n = len(matrix.domains)
    for k in ks:
        if not 1 <= k <= n - 1:
            raise InputError(f"K exceeds N-1: K={k}, N-1={n - 1}")
    truths = rank_sources(matrix).values()
    reports = []
    for metric_id, pairs in pairs_by_metric.items():
        if pairs.domains != matrix.domains:
            raise InputError(f"metric {metric_id} domains differ from the accuracy matrix's")
        rankings = list(zip(rank_sources(pairs).values(), truths))  # (pred, truth) per target
        for k in ks:
            precision = sum(precision_at_k(pred, truth, k) for pred, truth in rankings)
            ra = sum(ranking_accuracy(pred, truth, k) for pred, truth in rankings)
            reports.append(EvalReport(metric_id, k, 100.0 * precision / (n * k), ra / (n * k)))
    return reports
