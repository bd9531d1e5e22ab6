"""Source-domain rankings and their evaluation against an accuracy matrix.

For each target domain a metric induces a ranking of candidate sources, a
tuple of domain ids best first; the ground truth, the accuracy matrix, is
a ``PairMatrix`` that ranks sources by their cross-domain accuracy on that
target. ``rank_sources`` is the one place that ranks: it takes every
target's ranking from ``PairMatrix.ranking``, for each metric and for the
truth alike. Rankings are scored with precision at K (top-K intersection
size) and ranking accuracy (exact-position matches within the top K),
aggregated over all targets and normalized. This module ranks and scores
but writes nothing: ``cli`` writes the CSV and Markdown reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InputError
from .pairs import PairMatrix


@dataclass(frozen=True)
class EvalReport:
    """Aggregate precision/NRA of one metric at one K over all targets."""

    metric_id: str
    k: int
    precision_pct: float
    nra: float


def rank_sources(pairs: PairMatrix) -> dict[str, tuple[str, ...]]:
    """Every target's sources, best first, by ``PairMatrix.ranking``; targets in domain order."""
    return {target: pairs.ranking(target) for target in pairs.domains}


def _check_comparable(pred: tuple[str, ...], truth: tuple[str, ...], k: int) -> None:
    if set(pred) != set(truth):
        raise InputError("prediction and truth cover different domain sets")
    if not 1 <= k <= len(truth):
        raise InputError(f"K exceeds N-1: K={k}, N-1={len(truth)}")


def precision_at_k(pred: tuple[str, ...], truth: tuple[str, ...], k: int) -> int:
    """Size of the intersection of the predicted and true top-K sources."""
    _check_comparable(pred, truth, k)
    return len(set(pred[:k]) & set(truth[:k]))


def ranking_accuracy(pred: tuple[str, ...], truth: tuple[str, ...], k: int) -> int:
    """Number of top-K positions where prediction and truth agree exactly."""
    _check_comparable(pred, truth, k)
    return sum(1 for p, t in zip(pred[:k], truth[:k]) if p == t)


def aggregate(
    metric_id: str,
    truths: Mapping[str, tuple[str, ...]],
    predictions: Mapping[str, tuple[str, ...]],
    k: int,
) -> EvalReport:
    """Aggregate precision/NRA over every target domain of ``truths``, the true rankings.

    precision_pct is 100 times the summed top-K intersections over N*K;
    NRA is the summed exact-position matches over N*K.
    """
    missing = set(truths) - set(predictions)
    if missing:
        raise InputError(f"missing prediction lists for targets: {sorted(missing)}")
    total_precision = 0
    total_ra = 0
    for target, truth in truths.items():
        pred = predictions[target]
        total_precision += precision_at_k(pred, truth, k)
        total_ra += ranking_accuracy(pred, truth, k)
    n = len(truths)
    return EvalReport(
        metric_id=metric_id,
        k=k,
        precision_pct=100.0 * total_precision / (n * k),
        nra=total_ra / (n * k),
    )


def recommendation_report(
    matrix: PairMatrix,
    pairs_by_metric: Mapping[str, PairMatrix],
    ks: Sequence[int],
) -> list[EvalReport]:
    """Each metric's evaluation report for each K, against the accuracy ``matrix``.

    Each metric's domains must be the matrix's, in the same order, because
    domain order breaks ranking ties. With no metrics there is nothing to
    score: no K is checked and the truth is not ranked.
    """
    if not pairs_by_metric:
        return []
    truths = rank_sources(matrix)
    reports = []
    for metric_id, pairs in pairs_by_metric.items():
        if pairs.domains != matrix.domains:
            raise InputError(f"metric {metric_id} domains differ from the accuracy matrix's")
        predictions = rank_sources(pairs)
        for k in ks:
            reports.append(aggregate(metric_id, truths, predictions, k))
    return reports
