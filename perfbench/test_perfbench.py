"""Tests of the benchmark's own pieces: input generator, span arithmetic, output checks.

Run from the repository root: python -m pytest perfbench
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import traced_cli  # noqa: E402
from workloads import Workload, digests, write_inputs  # noqa: E402

SMALL = Workload("small", 8, ("LM1",), "reference", vectors=True)
DOMAINS = [f"D{i}" for i in range(1, 21)]


def test_generator_is_deterministic_for_a_seed(tmp_path):
    first, again, other = (
        digests(write_inputs(SMALL, seed, tmp_path / name).directory)
        for seed, name in ((3, "a"), (3, "b"), (4, "c"))
    )
    assert first == again
    assert {"adjectives.txt", "lexicon.tsv", "corpora/D1.jsonl",
            "word_vectors/D1.vec", "sentence_vectors/D20.vec"} <= set(first)
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first if name.endswith((".jsonl", ".vec")))


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        spans.Span("cli.metrics", 0.0, 10.0, None),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("a", 1.5, 2.5, 1),  # grandchild: already inside its parent
        spans.Span("b", 2.0, 5.0, 0),  # overlaps a
        spans.Span("c", 9.0, 12.0, 0),  # runs past the end of its parent
    ]
    assert spans.self_time(tree, 0) == pytest.approx(10.0 - (4.0 + 1.0))
    assert spans.self_time(tree, 1) == pytest.approx(1.0)
    assert spans.total_time(tree, "a") == pytest.approx(2.0)  # nested repeat not counted twice
    assert spans.covered([]) == 0.0


def test_layer_metrics_leave_out_absent_names():
    trace = spans.Trace(
        "metrics",
        (spans.Span("cli.metrics", 0.0, 4.0, None), spans.Span("labelled_metrics.lm4", 1.0, 2.0, 0)),
        frozenset({"corpus.top_k_ngrams"}),
        {},
    )
    metrics, absent = spans.layer_metrics([trace])
    assert absent == {"corpus.top_k_ngrams"}
    assert "corpus.top_k_ngrams_calls" not in metrics
    assert "corpus.top_k_useful_ratio" not in metrics
    assert metrics["labelled_metrics.lm4_s"] == pytest.approx(1.0)
    assert metrics["cli.metrics.self_s"] == pytest.approx(3.0)


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    monkeypatch.setattr(traced_cli, "WRAPPED", {
        "gone": (["domainsim.cli:no_such_function"], None),
        "lexstats.polar_words": (["domainsim.cli:polar_words"], None),
    })
    from domainsim import cli

    original = cli.polar_words
    tracer = traced_cli.Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["gone"]
        assert cli.polar_words is not original
    finally:
        cli.polar_words = original


@pytest.fixture(scope="module")
def reviews():
    return synth.synthetic_reviews(20, 10, seed=2)


def _write_metric_csv(path: Path, values: dict[tuple[str, str], float | None]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric_id", "source", "target", "value", "direction"])
        for (s, t), v in values.items():
            writer.writerow(["LM4", s, t, "" if v is None else repr(v), "lower_is_more_similar"])


def _lm4_values(reviews) -> dict[tuple[str, str], float | None]:
    tokens = {d: [(label, text.split()) for label, text in rows] for d, rows in reviews.items()}
    values: dict[tuple[str, str], float | None] = {
        (s, t): 1.0 for s in DOMAINS for t in DOMAINS if s != t}
    for s, t in checks.ORACLE_PAIRS:
        values[(s, t)] = oracles.entropy_change(tokens[s], tokens[t])
    return values


def test_checks_accept_correct_metric_csv(tmp_path, reviews):
    _write_metric_csv(tmp_path / "metric_LM4.csv", _lm4_values(reviews))
    assert checks.check_metric_csv(tmp_path / "metric_LM4.csv", DOMAINS) == []
    assert checks.check_oracles(tmp_path, ["LM4"], reviews) == []


def test_check_fires_on_nan(tmp_path, reviews):
    values = _lm4_values(reviews)
    values[("D5", "D6")] = math.nan
    _write_metric_csv(tmp_path / "metric_LM4.csv", values)
    problems = checks.check_metric_csv(tmp_path / "metric_LM4.csv", DOMAINS)
    assert len(problems) == 1 and "non-finite" in problems[0]


def test_check_fires_on_missing_row(tmp_path, reviews):
    values = _lm4_values(reviews)
    del values[("D7", "D8")]
    _write_metric_csv(tmp_path / "metric_LM4.csv", values)
    problems = checks.check_metric_csv(tmp_path / "metric_LM4.csv", DOMAINS)
    assert len(problems) == 1 and "379 rows" in problems[0]


def test_oracle_check_fires_on_small_relative_error(tmp_path, reviews):
    values = _lm4_values(reviews)
    values[checks.ORACLE_PAIRS[0]] *= 1 + 1e-6
    _write_metric_csv(tmp_path / "metric_LM4.csv", values)
    assert checks.check_metric_csv(tmp_path / "metric_LM4.csv", DOMAINS) == []
    problems = checks.check_oracles(tmp_path, ["LM4"], reviews)
    assert len(problems) == 1 and problems[0].startswith("LM4('D1', 'D2')")
