"""Command-line front door for reproducible batch runs.

Subcommands: ingest, metrics, evaluate, chart, baseline. Options come from
a JSON config file plus flags. Every subcommand has a flag for each
``RunConfig`` key, and one rule joins them: a flag given with a value other
than the empty string replaces its key's value. A list or mapping flag may
repeat and splits each value at commas, so ``--metrics ""`` gives an empty
list, while ``--out ""`` keeps the config's value. All randomness flows
from the single configured seed, and repeated runs with the same config
produce byte-identical CSV outputs. This module writes every output file,
each CSV through ``_write_csv`` (UTF-8, minimal quoting, lines ending in
``\n``). ``baseline`` trains through ``cdsa_baseline``; ``chart`` and
``evaluate`` read the accuracy matrix through ``evaluation``, from a CSV
file such as the one ``baseline`` writes or the bundled reference, and
never read a corpus; nor does ``metrics`` of word-vector metrics only,
which takes the domain ids from the config. numpy loads on first use
(``_numpy``): ``ingest``, ``chart``, ``evaluate`` and ``metrics`` whose
metrics are all among LM1–LM3 never load it; ``metrics`` with LM4, NGRAM or
a ULM metric, and ``baseline``, pay for its import inside the command. The
metric modules are imported in the code that uses them: ``chart`` and
``evaluate`` load none of ``corpus``, ``labelled_metrics`` and
``embedding_metrics``; ``ingest`` and ``baseline`` load only ``corpus``;
``metrics`` adds ``labelled_metrics`` for LM1–LM4 and ``embedding_metrics``
for a ULM metric; ``json`` loads only to parse a JSONL corpus or
``--config``, so ``chart`` and ``evaluate`` load it only with ``--config``.
Bad input, such as an input file that is missing, unreadable, not UTF-8 or
malformed, exits 1 (``InputError``); any other failure exits 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .cdsa_baseline import train_eval_baseline
from .errors import InputError, parse_json, read_csv, read_lines
from .evaluation import (ChartRow, EvalReport, chart, load_accuracy_matrix,
                         recommendation_report, reference_accuracy_matrix)
from .lexstats import load_sentiment_lexicon, polar_words, polarity_table, significant_words
from .pairs import HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR, PairMatrix, mirrored

if TYPE_CHECKING:
    from .corpus import Corpus, NgramIndex

METRIC_CSV_HEADER = ("metric_id", "source", "target", "value", "direction")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2


def _names(chunk: str) -> list[str]:
    """A flag value's comma-separated entries, blanks dropped."""
    return [v.strip() for v in chunk.split(",") if v.strip()]


def _ints(chunk: str) -> list[int]:
    try:
        return [int(v) for v in _names(chunk)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers, got {chunk!r}") from None


def _mapping(chunk: str) -> list[tuple[str, str]]:
    """A flag value's ``NAME=PATH`` entries as (name, path) pairs."""
    pairs = []
    for item in _names(chunk):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"entries must look like NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        pairs.append((name.strip(), path.strip()))
    return pairs


# Each config key -> (its default, the keywords of its flag on every
# subcommand). The flag is the key with "-" for "_".
CONFIG_KEYS = {
    "domains": ({}, dict(action="extend", type=_mapping,
                         help="domain corpora as NAME=PATH[,NAME=PATH...]")),
    "format": ("jsonl", dict(choices=["jsonl", "csv"], help="corpus file format")),
    "stopwords": (None, dict(help="custom stopword list, one word per line")),
    "adjectives": (None, dict(help="adjective list for word-vector metrics")),
    "sentiment_lexicon": (None, dict(
        help="sentiment lexicon (3-column TSV or standard synset format)")),
    "vectors": ({}, dict(action="extend", type=_mapping,
                         help="vector directories as METRIC=DIR[,METRIC=DIR...]")),
    "accuracy_matrix": (None, dict(
        help="accuracy matrix CSV (such as baseline's accuracy_matrix.csv)"
             " or 'reference' for the bundled one")),
    "metrics": ([], dict(action="extend", type=_names, help="metric ids, comma separated")),
    "k": ([3, 5, 7, 10], dict(action="extend", type=_ints,
                              help="top-K cutoffs, comma separated")),
    "out": ("out", dict(help="output directory (default: out)")),
    "seed": (0, dict(type=int, help="seed for all randomness")),
}


class RunConfig:
    """Resolved inputs for one batch run; domain order fixes tie-breaks."""

    KEYS = tuple(CONFIG_KEYS)

    def __init__(self) -> None:
        # Each key is an attribute; a dict or list default is copied, so no two configs share it.
        for key, (default, _) in CONFIG_KEYS.items():
            setattr(self, key, default.copy() if isinstance(default, (dict, list)) else default)

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        config = cls()
        if args.config:
            path = Path(args.config)
            text = "".join(line for _, line in read_lines(path, "config"))
            raw = parse_json(text, path, kind="JSON config",
                             hook=lambda pairs: _unique_keys(path, pairs))
            if not isinstance(raw, dict):
                raise InputError(f"{path}: config must be a JSON object")
            unknown = set(raw) - set(cls.KEYS)
            if unknown:
                raise InputError(f"{path}: unknown config keys {sorted(unknown)}")
            for key, value in raw.items():
                setattr(config, key, value)
        config._apply_flags(args)
        config._validate()
        return config

    def _apply_flags(self, args: argparse.Namespace) -> None:
        for key in self.KEYS:
            value = getattr(args, key)
            if value is None or value == "":
                continue
            if key in ("domains", "vectors"):
                repeated = _repeated([name for name, _ in value])
                if repeated:
                    raise InputError(f"--{key} names {', '.join(repeated)} more than once")
                value = dict(value)
            setattr(self, key, value)

    def _validate(self) -> None:
        for key in ("domains", "vectors"):
            mapping = getattr(self, key)
            if not isinstance(mapping, dict) or not all(
                isinstance(name, str) and isinstance(path, str) for name, path in mapping.items()
            ):
                raise InputError(f"config {key!r} must map names to path strings")
        optional = ("stopwords", "adjectives", "sentiment_lexicon", "accuracy_matrix")
        for key in ("format", "out", *optional):
            value = getattr(self, key)
            if not (isinstance(value, str) or (value is None and key in optional)):
                raise InputError(f"config {key!r} must be a string")
        formats = CONFIG_KEYS["format"][1]["choices"]
        if self.format not in formats:
            raise InputError(f"config 'format' must be one of {', '.join(formats)},"
                             f" got {self.format!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise InputError(f"config 'seed' must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.metrics, list):
            raise InputError("config 'metrics' must be a list of metric ids")
        for metric in self.metrics:
            if not isinstance(metric, str) or metric not in METRICS:
                raise InputError(f"unknown metric {metric!r} (known: {', '.join(METRICS)})")
        repeated = _repeated(self.metrics)
        if repeated:
            raise InputError(f"metrics listed more than once: {', '.join(repeated)}")
        stray = sorted(set(self.vectors) - set(READINGS))
        if stray:
            raise InputError(f"vectors given for {', '.join(stray)}, which are not vector"
                             f" metrics (vector metrics: {', '.join(READINGS)})")
        if not isinstance(self.k, list):
            raise InputError("config 'k' must be a list of positive integers")
        if not self.k:
            raise InputError("no K values given (use --k or the config's 'k')")
        for k in self.k:
            if not _is_int(k) or k < 1:
                raise InputError(f"K values must be positive integers, got {k!r}")
        repeated_k = _repeated(self.k)
        if repeated_k:
            raise InputError(f"K values listed more than once: {', '.join(map(str, repeated_k))}")

    def out_dir(self) -> Path:
        path = Path(self.out)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {path}: {exc.strerror}") from exc
        return path


class Workspace:
    """One command's inputs and shared intermediates, each built on first use.

    Built fresh from the ``RunConfig`` of every command, so nothing is kept
    between commands or between ``main`` calls in one process. The n-gram
    index is shared by LM4 and NGRAM, the polar tables by LM2-LM4, the
    qualifying reviews by ULM2, ULM5 and ULM7, and a vector metric's values
    by every metric that reads the same directory the same way.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self._vector_values: dict[tuple[Path, str], list[list[float]]] = {}

    @property
    def domains(self) -> tuple[str, ...]:
        """The configured domain ids, in the corpora's order, known without reading a corpus."""
        if not self.config.domains:
            raise InputError("no domains configured (use --domains or the config file)")
        return tuple(self.config.domains)

    @cached_property
    def corpora(self) -> list[Corpus]:
        from . import corpus as corpus_mod

        config = self.config
        names = self.domains
        stopwords = corpus_mod.load_stopwords(config.stopwords) if config.stopwords else None
        corpora = []
        for name, path in zip(names, config.domains.values()):
            try:
                corpus = corpus_mod.load_corpus(path, config.format, stopwords)
            except InputError as exc:
                raise InputError(f"domain {name}: {exc}") from exc
            if corpus.domain_id != name:
                raise InputError(
                    f"domain {name}: file {path} contains domain {corpus.domain_id!r}"
                )
            corpora.append(corpus)
        return corpora

    @cached_property
    def ngram_index(self) -> NgramIndex:
        from . import corpus as corpus_mod

        return corpus_mod.NgramIndex(self.corpora)

    @cached_property
    def adjectives(self):
        from . import embedding_metrics as emb

        return emb.load_adjectives(self.config.adjectives)

    @cached_property
    def lexicon(self):
        return load_sentiment_lexicon(self.config.sentiment_lexicon)

    @cached_property
    def polar_tables(self) -> list[dict[str, tuple[float, float]]]:
        """Per corpus, its ``polarity_table`` cut to its ``polar_words``."""
        return [{w: t[w] for w in polar_words(t)} for t in map(polarity_table, self.corpora)]

    @cached_property
    def qualifying_reviews(self):
        """Per corpus, ``filter_reviews(corpus, lexicon)``: each review is scored once."""
        from . import embedding_metrics as emb

        lexicon = self.lexicon
        return [emb.filter_reviews(c, lexicon) for c in self.corpora]

    def vector_values(self, metric: str) -> list[list[float]]:
        """A vector metric's N rows of N values, computed once per (directory, reading)."""
        key = (Path(self.config.vectors[metric]), READINGS[metric])
        if key not in self._vector_values:
            directory, reading = key
            if reading == "words":
                self._vector_values[key] = self._word_values(directory)
            else:
                self._vector_values.update(self._sentence_values(directory))
        return self._vector_values[key]

    def _word_values(self, directory: Path) -> list[list[float]]:
        """The word-vector metric's rows over every corpus's file in ``directory``."""
        from . import embedding_metrics as emb

        adjectives = self.adjectives
        tables, first = [], None
        for domain in self.domains:
            path = _vector_file(directory, domain)
            tables.append(emb.load_word_vectors(path))
            first = _same_dims(path, len(next(iter(tables[-1].values()))), first)
        return emb.word_metric_matrix(tables, adjectives)

    def _sentence_values(self, directory: Path) -> dict[tuple[Path, str], list[list[float]]]:
        """The rows of every sentence mode a selected metric reads from ``directory``, in one pass.

        Each file is loaded, and its ids checked, once; every mode copies the
        rows it selects, so one loaded sentence file is alive at a time.
        """
        from . import embedding_metrics as emb

        config = self.config
        modes = sorted({READINGS[m] for m in config.metrics
                        if READINGS.get(m) in ("heldout", "top")
                        and Path(config.vectors[m]) == directory})
        sets: dict[str, list] = {mode: [] for mode in modes}
        first = None
        for corpus, qualifying in zip(self.corpora, self.qualifying_reviews):
            path = _vector_file(directory, corpus.domain_id)
            vectors = emb.load_sentence_vectors(path, corpus)
            first = _same_dims(path, vectors.shape[1], first)
            for mode in modes:
                sets[mode].append(emb.select_test_vectors(corpus, qualifying, vectors, mode=mode))
            del vectors  # before the next file is parsed
        return {(directory, mode): emb.sentence_metric_matrix(sets[mode]) for mode in modes}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _repeated(values: list) -> list:
    return sorted({value for value in values if values.count(value) > 1})


def _unique_keys(path: Path, pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config file at ``path``, which may not repeat a key."""
    repeated = _repeated([key for key, _ in pairs])
    if repeated:
        raise InputError(f"{path}: a config object repeats key {', '.join(map(repr, repeated))}")
    return dict(pairs)


def _write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write one output CSV, the only way this package writes one (see the module docstring)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_ingest(workspace: Workspace) -> None:
    corpora = workspace.corpora
    out = workspace.config.out_dir() / "ingest_summary.csv"
    rows = []
    for corpus in corpora:
        pos, neg = corpus.label_counts()
        rows.append([corpus.domain_id, len(corpus), pos, neg, corpus.token_count(),
                     len(corpus.counts), "yes" if pos == neg else "no"])
    _write_csv(out, ["domain", "reviews", "positive", "negative", "tokens", "vocabulary",
                     "balanced"], rows)
    print(f"wrote {out} ({len(corpora)} domains)")


def _vector_file(directory: Path, domain: str) -> Path:
    return directory / f"{domain}.vec"


def _same_dims(path: Path, dims: int, first: tuple[Path, int] | None) -> tuple[Path, int]:
    """A directory's first vector file and its dims; ``path``'s ``dims`` must be the same."""
    if first and dims != first[1]:
        raise InputError(f"{path}: vectors of {dims} components, but {first[0]} has {first[1]}")
    return first or (path, dims)


# Vector metric id -> how it reads its --vectors directory: "words" for word
# vectors, else the mode that picks sentence vectors. The encoder-based ULM7
# ranks reviews by sentiment magnitude ("top"); the train/infer style ULM2
# and ULM5 use a deterministic held-out tail ("heldout").
READINGS = {"ULM1": "words", "ULM2": "heldout", "ULM3": "words", "ULM4": "words",
            "ULM5": "heldout", "ULM6": "words", "ULM7": "top"}


def _labelled_values(ws: Workspace, metric: str) -> list[list[float]]:
    """LM1-LM4's N rows, the only code that loads ``labelled_metrics``."""
    from . import labelled_metrics as lm

    if metric == "LM1":
        return mirrored([significant_words(c) for c in ws.corpora], lm.lm1_overlap)
    if metric == "LM4":
        return lm.lm4_matrix(ws.ngram_index, ws.polar_tables)
    return mirrored(ws.polar_tables, lm.lm2_skld if metric == "LM2" else lm.lm3_chameleon)


def _ngram_values(ws: Workspace, metric: str) -> list[list[float]]:
    """NGRAM's N rows, from the n-gram index LM4 also reads."""
    from . import corpus as corpus_mod

    return corpus_mod.ngram_overlap_matrix(ws.ngram_index)


# Metric id -> (direction, compute(workspace, metric) -> N×N values).
# Each compute imports the modules it needs when it runs and looks their
# functions up then, through this module's globals or a module attribute, so
# a wrapper set on such an attribute (perfbench/traced_cli.py sets them)
# sees every call.
METRICS = {
    "LM1": (HIGHER_IS_MORE_SIMILAR, _labelled_values),
    "LM2": (LOWER_IS_MORE_SIMILAR, _labelled_values),
    "LM3": (LOWER_IS_MORE_SIMILAR, _labelled_values),
    "LM4": (LOWER_IS_MORE_SIMILAR, _labelled_values),
    "NGRAM": (HIGHER_IS_MORE_SIMILAR, _ngram_values),
    **{m: (HIGHER_IS_MORE_SIMILAR, Workspace.vector_values) for m in READINGS},
}


def _preflight(config: RunConfig, metrics: Sequence[str]) -> None:
    for metric in metrics:
        if metric not in READINGS:
            continue
        if not config.vectors.get(metric):
            raise InputError(f"metric {metric} needs --vectors {metric}=DIR")
        for name in config.domains:
            path = _vector_file(Path(config.vectors[metric]), name)
            if not path.is_file():
                raise InputError(f"metric {metric}: missing vector file {path}")
        needs = "adjectives" if READINGS[metric] == "words" else "sentiment_lexicon"
        if not getattr(config, needs):
            raise InputError(f"metric {metric} needs --{needs.replace('_', '-')}")


def write_metric_csv(pairs: PairMatrix, path: Path) -> None:
    """One row per ordered pair of distinct domains; an unrankable pair's value is empty."""
    _write_csv(path, METRIC_CSV_HEADER, (
        [pairs.metric_id, source, target, "" if math.isnan(value) else repr(value), pairs.direction]
        for source, row in zip(pairs.domains, pairs.values)
        for target, value in zip(pairs.domains, row)
        if source != target
    ))


def read_metric_csv(path: str | Path, metric: str, domains: Sequence[str]) -> PairMatrix:
    """Load ``metric``'s values over ``domains``, in that order, which breaks ranking ties.

    Rejects, naming file and line, malformed CSV, a header with a column
    outside ``METRIC_CSV_HEADER`` or a repeated column, and a row that has
    more fields than the header, is malformed, belongs to another metric or
    direction, pairs a domain with itself, repeats a pair or holds a
    non-finite value (only an empty cell means unrankable); then a file with
    no rows, whose domains differ from ``domains`` or that misses a pair.
    """
    path = Path(path)
    direction = METRICS[metric][0]
    index = {d: i for i, d in enumerate(domains)}
    values = [[math.nan] * len(domains) for _ in domains]
    seen: set[tuple[str, str]] = set()
    records = read_csv(path, "metric")
    header = next(records, (0, []))[1]
    if _repeated(header) or not set(header) <= set(METRIC_CSV_HEADER):
        raise InputError(f"{path}, line 1: header {','.join(header)} must name only"
                         f" {','.join(METRIC_CSV_HEADER)}, each at most once")
    for line, fields in records:
        if not fields:
            continue
        where = f"{path}, line {line}"
        if len(fields) > len(header):
            raise InputError(f"{where}: more fields than the header")
        # The header names only the five columns, each at most once: a row has all or is short.
        if len(fields) < len(METRIC_CSV_HEADER):
            raise InputError(f"{where}: bad metric row")
        row = dict(zip(header, fields))
        row_metric, source, target, cell, row_direction = map(row.get, METRIC_CSV_HEADER)
        try:
            value = float(cell) if cell else math.nan
        except ValueError:
            raise InputError(f"{where}: bad metric row") from None
        if cell and not math.isfinite(value):
            raise InputError(f"{where}: non-finite metric value {cell!r}")
        if (row_metric, row_direction) != (metric, direction):
            raise InputError(
                f"{where}: row of metric {row_metric} ({row_direction}),"
                f" expected {metric} ({direction})"
            )
        if source == target:
            raise InputError(f"{where}: self-pair ({source}, {target})")
        if (source, target) in seen:
            raise InputError(f"{where}: duplicate pair ({source}, {target})")
        seen.add((source, target))
        if source in index and target in index:
            values[index[source]][index[target]] = value
    if not seen:
        raise InputError(f"{path}: no metric rows")
    named = {d for pair in seen for d in pair}
    if named != set(domains):
        raise InputError(
            f"domain sets differ between accuracy matrix and metric {metric}:"
            f" matrix-only {sorted(set(domains) - named)},"
            f" metric-only {sorted(named - set(domains))}"
        )
    for source in domains:
        for target in domains:
            if source != target and (source, target) not in seen:
                raise InputError(f"{path}: missing pair ({source}, {target})")
    return PairMatrix(metric, direction, tuple(domains), values)


def write_overlap_matrix_csv(matrix: PairMatrix, path: str | Path) -> None:
    """The overlap matrix, upper triangle only, 2 decimals."""
    _write_csv(path, ["domain", *matrix.domains], (
        [source, *(f"{v:.2f}" if j > i and not math.isnan(v) else "" for j, v in enumerate(row))]
        for i, (source, row) in enumerate(zip(matrix.domains, matrix.values))
    ))


def write_accuracy_matrix_csv(matrix: PairMatrix, path: str | Path) -> None:
    """The accuracy matrix, one row per source, 2 decimals; ``load_accuracy_matrix`` reads it."""
    _write_csv(path, ["domain", *matrix.domains], (
        [source, *(f"{v:.2f}" for v in row)] for source, row in zip(matrix.domains, matrix.values)
    ))


def _chart_cells(row: ChartRow) -> list[str]:
    """A chart row's cells, for the chart CSV and the report's chart table."""
    return [row.domain_id, f"{row.in_domain_acc:.2f}", f"{row.avg_degradation:.2f}",
            row.best_source, row.best_target]


def _eval_cells(report: EvalReport) -> list[str]:
    """An evaluation row's cells, for ``eval_report.csv`` and (K onwards) the report's tables."""
    return [report.metric_id, str(report.k), f"{report.precision_pct:.2f}", f"{report.nra:.3f}"]


def write_chart_csv(rows: Sequence[ChartRow], path: str | Path) -> None:
    _write_csv(path, ["domain", "in_domain_accuracy", "avg_degradation", "best_source",
                      "best_target"], map(_chart_cells, rows))


def write_eval_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    _write_csv(path, ["metric_id", "k", "precision_pct", "nra"], map(_eval_cells, reports))


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    widths = [max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(headers)]
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
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
            [_chart_cells(r) for r in chart_rows],
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
                [_eval_cells(r)[1:] for r in sorted(metric_reports, key=lambda r: r.k)],
            )
        )
        lines.append("")
    return "\n".join(lines)


def cmd_metrics(workspace: Workspace) -> None:
    config = workspace.config
    if not config.metrics:
        raise InputError("no metrics selected (use --metrics)")
    _preflight(config, config.metrics)
    domains = workspace.domains
    out_dir = config.out_dir()
    for metric in config.metrics:
        direction, compute = METRICS[metric]
        pairs = PairMatrix(metric, direction, domains, compute(workspace, metric))
        if metric == "NGRAM":
            write_overlap_matrix_csv(pairs, out_dir / "ngram_overlap_matrix.csv")
        path = out_dir / f"metric_{metric}.csv"
        write_metric_csv(pairs, path)
        print(f"wrote {path} ({len(domains) * (len(domains) - 1)} pairs)")


def _resolve_matrix(config: RunConfig) -> PairMatrix:
    if config.accuracy_matrix in (None, "", "reference"):
        return reference_accuracy_matrix()
    return load_accuracy_matrix(config.accuracy_matrix)


def cmd_evaluate(workspace: Workspace) -> None:
    config = workspace.config
    matrix = _resolve_matrix(config)
    out_dir = config.out_dir()
    pairs_by_metric = {
        metric: read_metric_csv(out_dir / f"metric_{metric}.csv", metric, matrix.domains)
        for metric in config.metrics
    }
    reports = recommendation_report(matrix, pairs_by_metric, config.k)
    if not reports:
        print("no metrics selected; writing chart only")
    _write_reports(out_dir, chart(matrix), reports)
    print(f"wrote recommendation chart and {len(reports)} evaluation rows to {out_dir}")


def cmd_chart(workspace: Workspace) -> None:
    chart_rows = chart(_resolve_matrix(workspace.config))
    out_dir = workspace.config.out_dir()
    _write_reports(out_dir, chart_rows, [])
    print(f"wrote chart for {len(chart_rows)} domains to {out_dir}")


def _write_reports(out_dir: Path, chart_rows: list[ChartRow], reports: list[EvalReport]) -> None:
    """The chart CSV and the Markdown report, plus ``eval_report.csv`` when there are reports."""
    write_chart_csv(chart_rows, out_dir / "recommendation_chart.csv")
    if reports:
        write_eval_csv(reports, out_dir / "eval_report.csv")
    (out_dir / "recommendation_report.md").write_text(
        build_markdown_report(chart_rows, reports), encoding="utf-8"
    )


def cmd_baseline(workspace: Workspace, splits: int) -> None:
    matrix = train_eval_baseline(workspace.corpora, splits=splits, seed=workspace.config.seed)
    out = workspace.config.out_dir() / "accuracy_matrix.csv"
    write_accuracy_matrix_csv(matrix, out)
    print(f"wrote {out} ({len(matrix.domains)}x{len(matrix.domains)})")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    for key, (_, flag) in CONFIG_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), **flag)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(prog="domainsim",
                     description="Rank source domains for cross-domain sentiment transfer.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("ingest", "load corpora and write a per-domain summary"),
        ("metrics", "compute pairwise metric matrices"),
        ("evaluate", "score metric rankings against an accuracy matrix"),
        ("chart", "emit the recommendation chart for an accuracy matrix"),
        ("baseline", "train the bag-of-words baseline and emit its accuracy matrix"),
    ):
        sub = subparsers.add_parser(name, help=descr)
        _add_common(sub)
        if name == "baseline":
            sub.add_argument("--splits", type=int, default=5, help="evaluation splits")

    try:
        args = parser.parse_args(argv)
        workspace = Workspace(RunConfig.load(args))
        if args.command == "ingest":
            cmd_ingest(workspace)
        elif args.command == "metrics":
            cmd_metrics(workspace)
        elif args.command == "evaluate":
            cmd_evaluate(workspace)
        elif args.command == "chart":
            cmd_chart(workspace)
        elif args.command == "baseline":
            cmd_baseline(workspace, args.splits)
        return EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 - map anything else to exit code 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
