"""Accuracy matrices: reading one, its recommendation chart, and rankings scored against it.

An accuracy matrix is a ``PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, ...)``
of accuracies (%), rows sources and columns targets; its diagonal holds
in-domain accuracy, which the chart reads and ranking never does. It comes
from a CSV file or is the bundled 20-domain reference (D1..D20);
``cdsa_baseline`` trains one. ``rank_sources`` is the one place that ranks,
through ``PairMatrix.ranking``, for each metric and the truth alike: a
target's ranking is a tuple of source ids, best first. Rankings are scored
with precision at K (top-K intersection size) and ranking accuracy
(exact-position matches within the top K); ``recommendation_report`` checks
each K once and sums both scores over every target. The chart's means add
left to right in plain Python, the package's one summation rule, so this
module needs no numpy. It writes nothing: ``cli`` writes the CSV and
Markdown reports.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import InputError, read_csv
from .pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix


class EvalReport(NamedTuple):
    """Aggregate precision/NRA of one metric at one K over all targets."""

    metric_id: str
    k: int
    precision_pct: float
    nra: float


def load_accuracy_matrix(path: str | Path) -> PairMatrix:
    """Load an accuracy matrix CSV: header of domain ids, one row per source.

    Rejects, naming file and line, malformed CSV (read strictly, so an
    unterminated quote is an error), fewer than 2 domains, an empty or
    repeated domain, a repeated row, a row of the wrong length and a cell
    that is not a finite number in [0, 100]; then rows that name other
    domains than the header.
    """
    path = Path(path)
    rows = list(read_csv(path, "accuracy matrix"))
    if len(rows) < 2:
        raise InputError(f"{path}: matrix CSV needs a header and at least one row")
    domains = tuple(h.strip() for h in rows[0][1][1:])
    if len(domains) < 2:
        raise InputError(f"{path}, line {rows[0][0]}: accuracy matrix needs at least 2 domains")
    if not all(domains):
        raise InputError(f"{path}, line {rows[0][0]}: empty domain id in header")
    if len(set(domains)) != len(domains):
        raise InputError(f"{path}, line {rows[0][0]}: duplicate domain ids in header")
    by_source: dict[str, tuple[int, list[str]]] = {}
    for line, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(domains) + 1:
            raise InputError(f"{path}, line {line}: row for {row[0]!r} has {len(row) - 1} cells,"
                             f" expected {len(domains)}")
        source = row[0].strip()
        if source in by_source:
            raise InputError(f"{path}, line {line}: repeated row for {source!r}"
                             f" (first on line {by_source[source][0]})")
        by_source[source] = (line, row[1:])
    if set(by_source) != set(domains):
        missing = sorted(set(domains) - set(by_source))
        extra = sorted(set(by_source) - set(domains))
        raise InputError(
            f"{path}: row/column domain sets differ (missing rows {missing}, extra rows {extra})"
        )
    acc = []
    for source in domains:
        line, cells = by_source[source]
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}, line {line}: non-numeric cell {cell!r} in row {source}"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"{path}, line {line}: non-finite cell {cell!r} in row {source}")
            if not 0.0 <= value <= 100.0:
                raise InputError(f"{path}, line {line}: cell {cell!r} in row {source}"
                                 " out of range [0, 100]")
            row.append(value)
        acc.append(row)
    return PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, domains, acc)


def reference_accuracy_matrix() -> PairMatrix:
    """The bundled 20-domain reference accuracy matrix."""
    with resources.as_file(
        resources.files("domainsim.data").joinpath("reference_cdsa_accuracy.csv")
    ) as path:
        return load_accuracy_matrix(path)


class ChartRow(NamedTuple):
    """Per-domain recommendation chart entry."""

    domain_id: str
    in_domain_acc: float
    avg_degradation: float
    best_source: str
    best_target: str


def chart(matrix: PairMatrix) -> list[ChartRow]:
    """Recommendation chart: in-domain accuracy, average degradation, best pairs.

    The average degradation of a domain is its in-domain accuracy minus the
    mean of its cross-domain accuracies as a source, added left to right in
    domain order. Best source for a target is the maximum of its column,
    best target for a source the maximum of its row, diagonal excluded, ties
    broken by the lower domain index. An accuracy matrix holds no NaN.
    """
    acc = matrix.values
    rows = []
    for d, domain in enumerate(matrix.domains):
        others = [j for j in range(len(acc)) if j != d]
        cross = 0.0
        for j in others:
            cross += acc[d][j]
        rows.append(
            ChartRow(
                domain_id=domain,
                in_domain_acc=acc[d][d],
                avg_degradation=acc[d][d] - cross / len(others),
                # max returns the first of equal maxima.
                best_source=matrix.domains[max(others, key=lambda s: acc[s][d])],
                best_target=matrix.domains[max(others, key=acc[d].__getitem__)],
            )
        )
    return rows


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
