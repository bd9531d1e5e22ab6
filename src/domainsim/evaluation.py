"""Source-domain rankings and their evaluation against an accuracy matrix.

For each target domain a metric induces a ranking of candidate sources, a
tuple of domain ids best first; the ground truth ranks sources by their
cross-domain accuracy on that target. ``rank_sources`` is the one place
that ranks: it takes every target's ranking from ``PairMatrix.ranking``,
for each metric and for the truth alike. Rankings are scored with
precision at K (top-K intersection size) and ranking accuracy
(exact-position matches within the top K), aggregated over all targets
and normalized.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .cdsa_baseline import AccuracyMatrix, ChartRow, chart
from .errors import InputError
from .pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix


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
    matrix: AccuracyMatrix,
    pairs_by_metric: Mapping[str, PairMatrix],
    ks: Sequence[int] = (3, 5, 7, 10),
) -> tuple[list[ChartRow], list[EvalReport]]:
    """Chart rows plus per-metric evaluation reports for each K.

    Each metric's domains must be the matrix's, in the same order, because
    domain order breaks ranking ties.
    """
    n = len(matrix.domains)
    for k in ks:
        if not 1 <= k <= n - 1:
            raise InputError(f"K exceeds N-1: K={k}, N-1={n - 1}")
    chart_rows = chart(matrix)
    truths = rank_sources(PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, matrix.domains, matrix.acc))
    reports = []
    for metric_id, pairs in pairs_by_metric.items():
        if pairs.domains != matrix.domains:
            raise InputError(f"metric {metric_id} domains differ from the accuracy matrix's")
        predictions = rank_sources(pairs)
        for k in ks:
            reports.append(aggregate(metric_id, truths, predictions, k))
    return chart_rows, reports


def write_eval_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric_id", "k", "precision_pct", "nra"])
        for report in reports:
            writer.writerow(
                [report.metric_id, report.k, f"{report.precision_pct:.2f}", f"{report.nra:.3f}"]
            )


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(headers), "| " + " | ".join("-" * w for w in widths) + " |"]
    lines.extend(fmt(row) for row in rows)
    return lines


def build_markdown_report(
    chart_rows: Sequence[ChartRow],
    reports: Sequence[EvalReport],
) -> str:
    """Aligned Markdown with the recommendation chart and evaluation tables."""
    lines = ["# Source-domain recommendation chart", ""]
    lines.extend(
        _markdown_table(
            ["Domain", "In-Domain Accuracy", "Avg CDSA Degradation", "Best Source", "Best Target"],
            [
                [r.domain_id, f"{r.in_domain_acc:.2f}", f"{r.avg_degradation:.2f}",
                 r.best_source, r.best_target]
                for r in chart_rows
            ],
        )
    )
    lines.append("")
    if not reports:
        lines.append("No metrics selected; evaluation section omitted.")
        lines.append("")
        return "\n".join(lines)
    lines.append("# Metric evaluation")
    lines.append("")
    by_metric: dict[str, list[EvalReport]] = {}
    for report in reports:
        by_metric.setdefault(report.metric_id, []).append(report)
    for metric_id, metric_reports in by_metric.items():
        lines.append(f"## {metric_id}")
        lines.append("")
        lines.extend(
            _markdown_table(
                ["K", "Precision (%)", "NRA"],
                [
                    [str(r.k), f"{r.precision_pct:.2f}", f"{r.nra:.3f}"]
                    for r in sorted(metric_reports, key=lambda r: r.k)
                ],
            )
        )
        lines.append("")
    return "\n".join(lines)
