"""Spans written by the traced entry point, and the per-layer metrics derived from them.

A trace file holds one command's spans as ``[name, start, end, parent]``
rows (``parent`` is the index of the enclosing span or null), the wrapped
names that did not exist in the program (``absent``), and for some names
the distinct argument keys seen (``distinct``), from which useful-work
ratios are computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Trace:
    """One command's spans."""

    command: str
    spans: tuple[Span, ...]
    absent: frozenset[str]
    distinct: dict[str, list]

    @classmethod
    def load(cls, path: Path) -> "Trace":
        raw = json.loads(path.read_text("utf-8"))
        return cls(
            raw["command"],
            tuple(Span(*row) for row in raw["spans"]),
            frozenset(raw["absent"]),
            raw["distinct"],
        )


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans: Sequence[Span], index: int) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    span = spans[index]
    children = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans
        if c.parent == index and c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(children)


def _has_ancestor(spans: Sequence[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def total_time(spans: Sequence[Span], name: str) -> float:
    """Summed duration of the spans with a name, not counting nested repeats."""
    return sum(s.duration for s in spans if s.name == name and not _has_ancestor(spans, s, name))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# Per-layer metrics, each named after the module whose public function is timed.
TIMED = (
    "corpus.load_corpus", "corpus.ngram_counts", "corpus.ngram_overlap_matrix",
    "lexstats.polarity_table", "lexstats.polar_words", "lexstats.significant_words",
    "lexstats.filter_reviews",
    "labelled_metrics.lm1", "labelled_metrics.lm2", "labelled_metrics.lm3",
    "labelled_metrics.lm4",
    "embedding_metrics.load_word_vectors", "embedding_metrics.load_sentence_vectors",
    "embedding_metrics.select_test_vectors", "embedding_metrics.word_metric_matrix",
    "embedding_metrics.sentence_metric_matrix",
    "cdsa_baseline.train_eval_baseline",
    "evaluation.recommendation_report",
    "cli.write_metric_csv", "cli.read_metric_csv",
)
COUNTED = (
    "corpus.load_corpus", "corpus.ngram_overlap_matrix", "corpus.top_k_ngrams",
    "lexstats.review_score", "evaluation.rank_sources",
)
COMMANDS = ("ingest", "metrics", "baseline", "chart", "evaluate")
VECTOR_LOADS = ("embedding_metrics.load_word_vectors", "embedding_metrics.load_sentence_vectors")


def layer_metrics(traces: Sequence[Trace]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one pass over a workload's commands.

    Returns the metrics and the wrapped names that were absent; metrics that
    depend on an absent name are left out rather than reported as zero.
    """
    absent = set().union(*(t.absent for t in traces))
    metrics: dict[str, float] = {}

    def calls(name: str) -> int:
        return sum(1 for t in traces for s in t.spans if s.name == name)

    def distinct(name: str) -> list[list]:
        return [key for t in traces for key in t.distinct.get(name, [])]

    def ratio(useful: int, attempts: int) -> float:
        return useful / attempts if attempts else 0.0

    for name in TIMED:
        if name not in absent:
            metrics[f"{name}_s"] = sum(total_time(t.spans, name) for t in traces)
    for name in COUNTED:
        if name not in absent:
            metrics[f"{name}_calls"] = calls(name)
    if "corpus.load_corpus" not in absent:
        loaded = [t.distinct.get("corpus.load_corpus", []) for t in traces if t.command == "ingest"]
        metrics["corpus.reviews"] = sum(key[1] for keys in loaded for key in keys)
        metrics["corpus.tokens"] = sum(key[2] for keys in loaded for key in keys)
    if "corpus.ngram_counts" not in absent:
        metrics["corpus.ngram_distinct"] = sum(key[2] for key in distinct("corpus.ngram_counts"))
    for name, metric in (("corpus.top_k_ngrams", "corpus.top_k_useful_ratio"),
                         ("lexstats.review_score", "lexstats.review_score_useful_ratio")):
        if name not in absent:
            metrics[metric] = ratio(len(distinct(name)), calls(name))
    if "labelled_metrics.lm4" not in absent:
        pair_ms = [s.duration * 1e3 for t in traces for s in t.spans if s.name == "labelled_metrics.lm4"]
        metrics["labelled_metrics.lm4_pair_ms_p50"] = percentile(pair_ms, 50) if pair_ms else 0.0
        metrics["labelled_metrics.lm4_pair_ms_p97"] = percentile(pair_ms, 97) if pair_ms else 0.0
    if not absent.intersection(VECTOR_LOADS):
        loads = sum(calls(name) for name in VECTOR_LOADS)
        files = sum(len(distinct(name)) for name in VECTOR_LOADS)
        metrics["embedding_metrics.vector_file_loads"] = loads
        metrics["embedding_metrics.vector_load_useful_ratio"] = ratio(files, loads)
    for command in COMMANDS:
        name = f"cli.{command}"
        if name not in absent:
            metrics[f"{name}.self_s"] = sum(
                self_time(t.spans, i) for t in traces for i, s in enumerate(t.spans) if s.name == name
            )
    return metrics, absent
