from __future__ import annotations

import numpy as np
import pytest

import oracles
from domainsim.cdsa_baseline import AccuracyMatrix, reference_accuracy_matrix
from domainsim.errors import InputError
from domainsim.evaluation import (
    aggregate,
    build_markdown_report,
    precision_at_k,
    rank_sources,
    ranking_accuracy,
    recommendation_report,
    write_eval_csv,
)
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR, PairMatrix

DOMAINS = ("A", "B", "C", "D")
DIRECTIONS = {"LM2": LOWER_IS_MORE_SIMILAR, "ULM1": HIGHER_IS_MORE_SIMILAR}


def pairs_for(metric_id, target, values, domains=DOMAINS):
    """A PairMatrix whose column for ``target`` holds ``values``; None is unrankable."""
    matrix = np.full((len(domains), len(domains)), np.nan)
    for source, value in values.items():
        if value is not None:
            matrix[domains.index(source), domains.index(target)] = value
    return PairMatrix(metric_id, DIRECTIONS[metric_id], domains, matrix)


def constant_pairs(metric_id, direction, domains, value):
    matrix = np.full((len(domains), len(domains)), value)
    np.fill_diagonal(matrix, np.nan)
    return PairMatrix(metric_id, direction, domains, matrix)


def truth_rankings(matrix):
    """Every target's sources by accuracy, best first, as ``recommendation_report`` ranks them."""
    return rank_sources(PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, matrix.domains, matrix.acc))


def test_rank_sources_lower_is_better():
    pairs = pairs_for("LM2", "A", {"B": 1.2, "C": 3.0, "D": 2.0})
    assert rank_sources(pairs)["A"] == ("B", "D", "C")


def test_rank_sources_higher_is_better():
    pairs = pairs_for("ULM1", "A", {"B": 1.9, "C": 1.2, "D": 1.5})
    assert rank_sources(pairs)["A"] == ("B", "D", "C")


def test_rank_sources_tie_breaks_by_domain_index():
    pairs = pairs_for("ULM1", "A", {"C": 1.0, "B": 1.0, "D": 0.5})
    assert rank_sources(pairs)["A"] == ("B", "C", "D")


def test_rank_sources_unrankable_last_in_index_order():
    pairs = pairs_for("LM2", "A", {"B": None, "D": 2.0, "C": None})
    assert rank_sources(pairs)["A"] == ("D", "B", "C")


def test_truth_ranking_reference_fixture_head():
    matrix = reference_accuracy_matrix()
    assert truth_rankings(matrix)["D1"][0] == "D10"


def test_truth_ranking_small_cases():
    matrix = AccuracyMatrix(("A", "B", "C"), np.array([
        [90.0, 1.0, 2.0],
        [70.0, 90.0, 3.0],
        [80.0, 4.0, 90.0],
    ]))
    assert truth_rankings(matrix)["A"] == ("C", "B")
    equal = AccuracyMatrix(("A", "B", "C"), np.array([
        [90.0, 1.0, 2.0],
        [70.0, 90.0, 3.0],
        [70.0, 4.0, 90.0],
    ]))
    assert truth_rankings(equal)["A"] == ("B", "C")


def test_precision_at_k():
    truth = ("B", "C", "D", "E", "F")
    assert precision_at_k(truth, truth, 5) == 5
    pred = ("F", "E", "D", "C", "B")
    assert precision_at_k(("B", "C", "D", "E", "F"), pred, 2) == 0
    pred3 = ("B", "C", "D", "E", "F")
    truth3 = ("C", "E", "B", "D", "F")
    assert precision_at_k(pred3, truth3, 3) == 2


def test_ranking_accuracy():
    truth = ("B", "C", "D", "E")
    assert ranking_accuracy(truth, truth, 4) == 4
    assert ranking_accuracy(("E", "D", "C", "B"), truth, 4) == 0
    assert ranking_accuracy(("B", "D", "C", "E"), truth, 3) == 1


def test_rank_scores_reject_bad_k_and_universe():
    truth = ("B", "C", "D")
    with pytest.raises(InputError, match="K exceeds"):
        precision_at_k(truth, truth, 4)
    with pytest.raises(InputError, match="K exceeds"):
        ranking_accuracy(truth, truth, 0)
    other = ("B", "C", "E")
    with pytest.raises(InputError, match="different domain sets"):
        precision_at_k(truth, other, 2)


def test_ranking_accuracy_never_exceeds_precision():
    rng = np.random.default_rng(23)
    names = [f"d{i}" for i in range(8)]
    for _ in range(200):
        pred = tuple(rng.permutation(names).tolist())
        truth = tuple(rng.permutation(names).tolist())
        for k in (1, 3, 5, 8):
            assert ranking_accuracy(pred, truth, k) <= precision_at_k(pred, truth, k)


def test_scores_invariant_under_monotone_value_transform():
    domains = ("A", "B", "C", "D", "E")
    values = {"B": 0.4, "C": 1.1, "D": 0.2, "E": 2.5}
    base = rank_sources(pairs_for("ULM1", "A", values, domains))["A"]
    squashed = rank_sources(
        pairs_for("ULM1", "A", {s: np.tanh(v) for s, v in values.items()}, domains)
    )["A"]
    assert base == squashed


def test_aggregate_reference_granularity_points():
    # 20 targets, K=3: 27 total intersections -> 45.00%; 12 positional -> 0.200.
    matrix = reference_accuracy_matrix()
    truths = truth_rankings(matrix)
    preds = {}
    total_p = 0
    ra_total = 0
    for i, (target, truth) in enumerate(truths.items()):
        if i < 9:
            preds[target] = truth  # contributes 3 intersections and 3 positions
        else:
            preds[target] = tuple(reversed(truth))  # contributes 0 at K=3 for N=20
        total_p += precision_at_k(preds[target], truth, 3)
        ra_total += ranking_accuracy(preds[target], truth, 3)
    report = aggregate("LM1", truths, preds, 3)
    assert total_p == 27
    assert report.precision_pct == pytest.approx(45.00)
    assert ra_total == 27
    assert report.nra == pytest.approx(27 / 60)
    # Scale check for NRA at the published example value: 12/60 = 0.200.
    assert 12 / (len(matrix.domains) * 3) == pytest.approx(0.200)


def test_aggregate_self_consistency():
    rng = np.random.default_rng(24)
    matrix = AccuracyMatrix(
        tuple(f"d{i}" for i in range(6)), rng.uniform(50, 95, size=(6, 6))
    )
    preds = truth_rankings(matrix)
    for k in (1, 2, 3, 5):
        report = aggregate("LM1", preds, preds, k)
        assert report.precision_pct == 100.0
        assert report.nra == 1.0


def test_aggregate_requires_all_targets():
    matrix = AccuracyMatrix(("A", "B"), np.array([[90.0, 60.0], [70.0, 80.0]]))
    with pytest.raises(InputError, match="missing prediction"):
        aggregate("LM1", truth_rankings(matrix), {}, 1)


def test_recommendation_report_shapes():
    matrix = reference_accuracy_matrix()
    values = np.array([[float(len(source))] * 20 for source in matrix.domains])
    np.fill_diagonal(values, np.nan)
    pairs = PairMatrix("LM1", HIGHER_IS_MORE_SIMILAR, matrix.domains, values)
    chart_rows, reports = recommendation_report(matrix, {"LM1": pairs}, (3, 5, 7, 10))
    assert len(chart_rows) == 20
    assert [r.k for r in reports] == [3, 5, 7, 10]
    assert all(r.metric_id == "LM1" for r in reports)


def test_recommendation_report_rejects_large_k():
    rng = np.random.default_rng(25)
    matrix = AccuracyMatrix(
        tuple(f"d{i}" for i in range(8)), rng.uniform(50, 95, size=(8, 8))
    )
    with pytest.raises(InputError, match="K exceeds N-1"):
        recommendation_report(matrix, {}, ks=(10,))


def test_recommendation_report_chart_only():
    matrix = AccuracyMatrix(("A", "B"), np.array([[90.0, 60.0], [70.0, 80.0]]))
    chart_rows, reports = recommendation_report(matrix, {}, ks=(1,))
    assert len(chart_rows) == 2 and reports == []
    text = build_markdown_report(chart_rows, reports)
    assert "No metrics selected" in text


def test_markdown_report_contains_tables():
    matrix = AccuracyMatrix(("A", "B", "C"), np.array([
        [90.0, 60.0, 70.0],
        [70.0, 80.0, 60.0],
        [65.0, 62.0, 85.0],
    ]))
    pairs = constant_pairs("NGRAM", HIGHER_IS_MORE_SIMILAR, matrix.domains, 0.5)
    chart_rows, reports = recommendation_report(matrix, {"NGRAM": pairs}, ks=(1, 2))
    text = build_markdown_report(chart_rows, reports)
    assert "Best Source" in text
    assert "## NGRAM" in text
    assert "Precision (%)" in text


def test_write_eval_csv_formats(tmp_path):
    matrix = AccuracyMatrix(("A", "B"), np.array([[90.0, 60.0], [70.0, 80.0]]))
    preds = truth_rankings(matrix)
    report = aggregate("LM1", preds, preds, 1)
    path = tmp_path / "eval.csv"
    write_eval_csv([report], path)
    assert path.read_text().splitlines()[1] == "LM1,1,100.00,1.000"


def test_rank_sources_builds_per_target_lists():
    domains = ("A", "B", "C")
    pairs = constant_pairs("NGRAM", HIGHER_IS_MORE_SIMILAR, domains, 0.3)
    assert rank_sources(pairs) == {"A": ("B", "C"), "B": ("A", "C"), "C": ("A", "B")}
    assert list(rank_sources(pairs)) == list(domains)
    with pytest.raises(InputError, match="not in domain list"):
        pairs.ranking("Z")


def test_recommendation_report_requires_matrix_domain_order():
    # Domain order breaks ties, so a metric in another order would rank differently.
    matrix = AccuracyMatrix(("A", "B", "C"), np.full((3, 3), 80.0))
    pairs = constant_pairs("NGRAM", HIGHER_IS_MORE_SIMILAR, ("C", "B", "A"), 0.3)
    with pytest.raises(InputError, match="domains differ"):
        recommendation_report(matrix, {"NGRAM": pairs}, ks=(1,))


def test_recommendation_report_scores_match_the_brute_force_oracle():
    # Few distinct levels make ties in both the accuracies and the metric values.
    rng = np.random.default_rng(61)
    cases = 0
    for _ in range(150):
        n = int(rng.integers(3, 10))
        domains = tuple(rng.permutation([f"d{i}" for i in range(n)]).tolist())
        acc = rng.integers(60, 60 + int(rng.integers(1, 2 * n)), size=(n, n)).astype(float)
        matrix = AccuracyMatrix(domains, acc)
        values = rng.integers(0, int(rng.integers(1, 2 * n)), size=(n, n)) * 0.5
        values[rng.random((n, n)) < rng.random()] = np.nan
        cells = [[None if np.isnan(v) else float(v) for v in row] for row in values]
        for direction in (HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR):
            pairs = PairMatrix("M", direction, domains, values)
            _, reports = recommendation_report(matrix, {"M": pairs}, tuple(range(1, n)))
            assert [r.k for r in reports] == list(range(1, n))
            for report in reports:
                expected = oracles.evaluation_scores(
                    acc.tolist(), cells, list(domains), direction, report.k)
                assert (report.precision_pct, report.nra) == expected
            cases += 1
    assert cases >= 200
