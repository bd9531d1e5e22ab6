"""Command-line front door for reproducible batch runs.

Subcommands: ingest, metrics, evaluate, chart, baseline. Options come from
a JSON config file plus flag overrides (flags win). All randomness flows
from the single configured seed, and repeated runs with the same config
produce byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import corpus as corpus_mod
from . import embedding_metrics as emb
from . import labelled_metrics as lm
from .cdsa_baseline import (
    AccuracyMatrix,
    load_accuracy_matrix,
    reference_accuracy_matrix,
    train_eval_baseline,
    write_accuracy_matrix_csv,
    write_chart_csv,
)
from .errors import InputError, UnrankablePairError
from .evaluation import build_markdown_report, recommendation_report, write_eval_csv
from .lexstats import (
    load_sentiment_lexicon_tsv,
    load_sentiwordnet,
    polar_words,
    polarity_table,
    significant_words,
)

LABELLED_METRICS = ("LM1", "LM2", "LM3", "LM4")
ALL_METRICS = LABELLED_METRICS + ("NGRAM",) + emb.WORD_VECTOR_METRICS + emb.SENTENCE_VECTOR_METRICS

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2


@dataclass
class RunConfig:
    """Resolved inputs for one batch run; domain order fixes tie-breaks."""

    domains: dict[str, str] = field(default_factory=dict)
    format: str = "jsonl"
    stopwords: str | None = None
    adjectives: str | None = None
    sentiment_lexicon: str | None = None
    vectors: dict[str, str] = field(default_factory=dict)
    accuracy_matrix: str | None = None
    metrics: list[str] = field(default_factory=list)
    k: list[int] = field(default_factory=lambda: [3, 5, 7, 10])
    out: str = "out"
    seed: int = 0

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        config = cls()
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.is_file():
                raise InputError(f"config file not found: {path}")
            try:
                raw = json.loads(path.read_text("utf-8"))
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: malformed JSON config ({exc.msg})") from exc
            if not isinstance(raw, dict):
                raise InputError(f"{path}: config must be a JSON object")
            known = set(cls.__dataclass_fields__)
            unknown = set(raw) - known
            if unknown:
                raise InputError(f"{path}: unknown config keys {sorted(unknown)}")
            for key, value in raw.items():
                setattr(config, key, value)
        config._apply_flags(args)
        config._validate()
        return config

    def _apply_flags(self, args: argparse.Namespace) -> None:
        if getattr(args, "domains", None):
            self.domains = _parse_mapping(args.domains, "domains")
        if getattr(args, "format", None):
            self.format = args.format
        if getattr(args, "stopwords", None):
            self.stopwords = args.stopwords
        if getattr(args, "adjectives", None):
            self.adjectives = args.adjectives
        if getattr(args, "sentiment_lexicon", None):
            self.sentiment_lexicon = args.sentiment_lexicon
        if getattr(args, "vectors", None):
            self.vectors = _parse_mapping(args.vectors, "vectors")
        if getattr(args, "accuracy_matrix", None):
            self.accuracy_matrix = args.accuracy_matrix
        if getattr(args, "metrics", None):
            self.metrics = _split_csv(args.metrics)
        if getattr(args, "k", None):
            self.k = [_parse_int(v, "--k") for v in _split_csv(args.k)]
        if getattr(args, "out", None):
            self.out = args.out
        if getattr(args, "seed", None) is not None:
            self.seed = args.seed

    def _validate(self) -> None:
        if not isinstance(self.domains, dict):
            raise InputError("config 'domains' must map domain ids to corpus paths")
        for metric in self.metrics:
            if metric not in ALL_METRICS:
                raise InputError(f"unknown metric {metric!r} (known: {', '.join(ALL_METRICS)})")
        for k in self.k:
            if not isinstance(k, int) or k < 1:
                raise InputError(f"K values must be positive integers, got {k!r}")

    def out_dir(self) -> Path:
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def stopword_set(self):
        if self.stopwords:
            return corpus_mod.load_stopwords(self.stopwords)
        return None

    def load_corpora(self) -> list[corpus_mod.Corpus]:
        if not self.domains:
            raise InputError("no domains configured (use --domains or the config file)")
        stopwords = self.stopword_set()
        corpora = []
        for name, path in self.domains.items():
            try:
                corpus = corpus_mod.load_corpus(path, self.format, stopwords)
            except InputError as exc:
                raise InputError(f"domain {name}: {exc}") from exc
            if corpus.domain_id != name:
                raise InputError(
                    f"domain {name}: file {path} contains domain {corpus.domain_id!r}"
                )
            corpora.append(corpus)
        return corpora

    def load_lexicon(self):
        if not self.sentiment_lexicon:
            raise InputError("sentiment lexicon required (use --sentiment-lexicon)")
        path = Path(self.sentiment_lexicon)
        # The standard distribution format starts with a comment block.
        if path.suffix.lower() in (".tsv", ".txt") and _looks_like_tsv(path):
            return load_sentiment_lexicon_tsv(path)
        return load_sentiwordnet(path)


def _looks_like_tsv(path: Path) -> bool:
    if not path.is_file():
        raise InputError(f"lexicon file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                return len(line.rstrip("\n").split("\t")) == 3
    return True


def _parse_mapping(pairs: Sequence[str], flag: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for chunk in pairs:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise InputError(f"--{flag} entries must look like NAME=PATH, got {item!r}")
            name, path = item.split("=", 1)
            mapping[name.strip()] = path.strip()
    return mapping


def _split_csv(values: Sequence[str]) -> list[str]:
    out: list[str] = []
    for chunk in values:
        out.extend(v.strip() for v in chunk.split(",") if v.strip())
    return out


def _parse_int(value: str, flag: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{flag} expects integers, got {value!r}") from None


def cmd_ingest(config: RunConfig) -> None:
    corpora = config.load_corpora()
    out = config.out_dir() / "ingest_summary.csv"
    with out.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["domain", "reviews", "positive", "negative", "tokens", "vocabulary", "balanced"]
        )
        for corpus in corpora:
            pos, neg = corpus.label_counts()
            writer.writerow(
                [corpus.domain_id, len(corpus), pos, neg, corpus.token_count(),
                 len(corpus.vocabulary()), "yes" if pos == neg else "no"]
            )
    print(f"wrote {out} ({len(corpora)} domains)")


def _preflight(config: RunConfig, metrics: Sequence[str]) -> None:
    for metric in metrics:
        if metric in emb.WORD_VECTOR_METRICS or metric in emb.SENTENCE_VECTOR_METRICS:
            vec_dir = config.vectors.get(metric)
            if not vec_dir:
                raise InputError(f"metric {metric} needs --vectors {metric}=DIR")
            for name in config.domains:
                path = Path(vec_dir) / f"{name}.vec"
                if not path.is_file():
                    raise InputError(f"metric {metric}: missing vector file {path}")
        if metric in emb.WORD_VECTOR_METRICS and not config.adjectives:
            raise InputError(f"metric {metric} needs --adjectives")
        if metric in emb.SENTENCE_VECTOR_METRICS and not config.sentiment_lexicon:
            raise InputError(f"metric {metric} needs --sentiment-lexicon")


def _labelled_results(
    metric: str,
    corpora: Sequence[corpus_mod.Corpus],
    overlap: corpus_mod.NgramOverlapMatrix | None = None,
) -> list[lm.MetricResult]:
    n = len(corpora)
    matrix: list[list[float | None]] = [[None] * n for _ in range(n)]
    if metric == "LM1":
        sigs = [significant_words(c) for c in corpora]
        for i in range(n):
            for j in range(n):
                if i != j:
                    matrix[i][j] = float(lm.lm1_overlap(sigs[i], sigs[j]))
    elif metric in ("LM2", "LM3"):
        tables = [polarity_table(c) for c in corpora]
        func = lm.lm2_skld if metric == "LM2" else lm.lm3_chameleon
        for i in range(n):
            for j in range(i + 1, n):
                try:
                    matrix[i][j] = matrix[j][i] = func(tables[i], tables[j])
                except UnrankablePairError:
                    pass
    elif metric == "LM4":
        polar_sets = [polar_words(polarity_table(c)) for c in corpora]
        matrix = lm.lm4_matrix(corpora, polar_sets)
    elif metric == "NGRAM":
        matrix = overlap.values
    else:
        raise InputError(f"unknown labelled metric {metric!r}")
    names = [c.domain_id for c in corpora]
    return [
        lm.make_result(metric, s, t, matrix[i][j])
        for i, s in enumerate(names)
        for j, t in enumerate(names)
        if i != j
    ]


def _embedding_results(
    metric: str,
    config: RunConfig,
    corpora: Sequence[corpus_mod.Corpus],
) -> list[lm.MetricResult]:
    vec_dir = Path(config.vectors[metric])
    if metric in emb.WORD_VECTOR_METRICS:
        adjectives = emb.load_adjectives(config.adjectives)
        tables = [
            emb.load_word_vectors(vec_dir / f"{c.domain_id}.vec", c.domain_id)
            for c in corpora
        ]
        return emb.word_metric_matrix(tables, adjectives, metric)
    lexicon = config.load_lexicon()
    mode = emb.SELECTION_MODES[metric]
    sets = []
    for corpus in corpora:
        vectors = emb.load_sentence_vectors(vec_dir / f"{corpus.domain_id}.vec", corpus.domain_id)
        sets.append(emb.select_test_vectors(corpus, lexicon, vectors, mode=mode))
    return emb.sentence_metric_matrix(sets, metric)


def write_metric_csv(results: Sequence[lm.MetricResult], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric_id", "source", "target", "value", "direction"])
        for r in results:
            writer.writerow(
                [r.metric_id, r.source, r.target,
                 "" if r.value is None else repr(r.value), r.direction]
            )


def read_metric_csv(path: str | Path) -> list[lm.MetricResult]:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"metric file not found: {path}")
    results = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                value = float(row["value"]) if row["value"] else None
                results.append(
                    lm.MetricResult(row["metric_id"], row["source"], row["target"],
                                    value, row["direction"])
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"{path}, line {reader.line_num}: bad metric row") from exc
    return results


def cmd_metrics(config: RunConfig) -> None:
    if not config.metrics:
        raise InputError("no metrics selected (use --metrics)")
    _preflight(config, config.metrics)
    corpora = config.load_corpora()
    out_dir = config.out_dir()
    for metric in config.metrics:
        if metric == "NGRAM":
            overlap = corpus_mod.ngram_overlap_matrix(corpora)
            results = _labelled_results(metric, corpora, overlap)
            corpus_mod.write_overlap_matrix_csv(overlap, out_dir / "ngram_overlap_matrix.csv")
        elif metric in LABELLED_METRICS:
            results = _labelled_results(metric, corpora)
        else:
            results = _embedding_results(metric, config, corpora)
        path = out_dir / f"metric_{metric}.csv"
        write_metric_csv(results, path)
        print(f"wrote {path} ({len(results)} pairs)")


def _resolve_matrix(config: RunConfig) -> AccuracyMatrix:
    if config.accuracy_matrix in (None, "", "reference"):
        return reference_accuracy_matrix()
    if config.accuracy_matrix == "generate":
        corpora = config.load_corpora()
        return train_eval_baseline(corpora, seed=config.seed)
    return load_accuracy_matrix(config.accuracy_matrix)


def cmd_evaluate(config: RunConfig) -> None:
    matrix = _resolve_matrix(config)
    out_dir = config.out_dir()
    results_by_metric: dict[str, list[lm.MetricResult]] = {}
    for metric in config.metrics:
        results = read_metric_csv(out_dir / f"metric_{metric}.csv")
        metric_domains = sorted({r.source for r in results} | {r.target for r in results})
        if set(metric_domains) != set(matrix.domains):
            missing = sorted(set(matrix.domains) - set(metric_domains))
            extra = sorted(set(metric_domains) - set(matrix.domains))
            raise InputError(
                f"domain sets differ between accuracy matrix and metric {metric}:"
                f" matrix-only {missing}, metric-only {extra}"
            )
        results_by_metric[metric] = results
    chart_rows, reports = recommendation_report(matrix, results_by_metric, config.k)
    write_chart_csv(chart_rows, out_dir / "recommendation_chart.csv")
    if reports:
        write_eval_csv(reports, out_dir / "eval_report.csv")
    else:
        print("no metrics selected; writing chart only")
    (out_dir / "recommendation_report.md").write_text(
        build_markdown_report(chart_rows, reports), encoding="utf-8"
    )
    print(f"wrote recommendation chart and {len(reports)} evaluation rows to {out_dir}")


def cmd_chart(config: RunConfig) -> None:
    matrix = _resolve_matrix(config)
    chart_rows, _ = recommendation_report(matrix, {}, ks=())
    out_dir = config.out_dir()
    write_chart_csv(chart_rows, out_dir / "recommendation_chart.csv")
    (out_dir / "recommendation_report.md").write_text(
        build_markdown_report(chart_rows, []), encoding="utf-8"
    )
    print(f"wrote chart for {len(chart_rows)} domains to {out_dir}")


def cmd_baseline(config: RunConfig, splits: int) -> None:
    corpora = config.load_corpora()
    matrix = train_eval_baseline(corpora, splits=splits, seed=config.seed)
    out = config.out_dir() / "accuracy_matrix.csv"
    write_accuracy_matrix_csv(matrix, out)
    print(f"wrote {out} ({len(matrix.domains)}x{len(matrix.domains)})")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--domains", action="append",
                        help="domain corpora as NAME=PATH[,NAME=PATH...]")
    parser.add_argument("--format", choices=["jsonl", "csv"], help="corpus file format")
    parser.add_argument("--stopwords", help="custom stopword list, one word per line")
    parser.add_argument("--adjectives", help="adjective list for word-vector metrics")
    parser.add_argument("--sentiment-lexicon", dest="sentiment_lexicon",
                        help="sentiment lexicon (3-column TSV or standard synset format)")
    parser.add_argument("--vectors", action="append",
                        help="vector directories as METRIC=DIR[,METRIC=DIR...]")
    parser.add_argument("--accuracy-matrix", dest="accuracy_matrix",
                        help="accuracy matrix CSV, 'reference' for the bundled one,"
                             " or 'generate' to train the baseline")
    parser.add_argument("--metrics", action="append", help="metric ids, comma separated")
    parser.add_argument("--k", action="append", help="top-K cutoffs, comma separated")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, help="seed for all randomness")


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
        config = RunConfig.load(args)
        if args.command == "ingest":
            cmd_ingest(config)
        elif args.command == "metrics":
            cmd_metrics(config)
        elif args.command == "evaluate":
            cmd_evaluate(config)
        elif args.command == "chart":
            cmd_chart(config)
        elif args.command == "baseline":
            cmd_baseline(config, args.splits)
        return EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 - map anything else to exit code 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
