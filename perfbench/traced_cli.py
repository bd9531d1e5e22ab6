"""Run one ``domainsim`` command with its public functions wrapped in spans.

Usage: python perfbench/traced_cli.py TRACE_JSON COMMAND [ARGS...]

Each function is wrapped at the module attribute through which the CLI
looks it up, so the program itself is unchanged. The spans are kept in
memory and written to TRACE_JSON when the command ends; a wrapped name
that no longer exists is listed as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _corpus_key(result, *args, **kwargs):
    return [result.domain_id, len(result), result.token_count()]


def _ngram_key(result, corpus, order):
    return [corpus.domain_id, order, len(result)]


def _top_k_key(result, corpus, order, k):
    return [corpus.domain_id, order, k]


def _review_key(result, tokens, lexicon):
    # The review's token tuple lives as long as its corpus, so its id names the review.
    return id(tokens)


def _path_key(result, path, *args, **kwargs):
    return str(path)


# span name -> (attributes "module:qualified.name" the CLI calls through, distinct-key function)
WRAPPED = {
    "cli.ingest": (["domainsim.cli:cmd_ingest"], None),
    "cli.metrics": (["domainsim.cli:cmd_metrics"], None),
    "cli.baseline": (["domainsim.cli:cmd_baseline"], None),
    "cli.chart": (["domainsim.cli:cmd_chart"], None),
    "cli.evaluate": (["domainsim.cli:cmd_evaluate"], None),
    "cli.write_metric_csv": (["domainsim.cli:write_metric_csv"], None),
    "cli.read_metric_csv": (["domainsim.cli:read_metric_csv"], None),
    "corpus.load_corpus": (["domainsim.corpus:load_corpus"], _corpus_key),
    "corpus.ngram_counts": (["domainsim.corpus:Corpus.ngram_counts"], _ngram_key),
    "corpus.ngram_overlap_matrix": (["domainsim.corpus:ngram_overlap_matrix"], None),
    "corpus.top_k_ngrams": (["domainsim.corpus:top_k_ngrams"], _top_k_key),
    "lexstats.polarity_table": (["domainsim.cli:polarity_table"], None),
    "lexstats.polar_words": (["domainsim.cli:polar_words"], None),
    "lexstats.significant_words": (["domainsim.cli:significant_words"], None),
    "lexstats.filter_reviews": (["domainsim.embedding_metrics:filter_reviews"], None),
    "lexstats.review_score": (
        ["domainsim.lexstats:review_score", "domainsim.embedding_metrics:review_score"],
        _review_key,
    ),
    "labelled_metrics.lm1": (["domainsim.labelled_metrics:lm1_overlap"], None),
    "labelled_metrics.lm2": (["domainsim.labelled_metrics:lm2_skld"], None),
    "labelled_metrics.lm3": (["domainsim.labelled_metrics:lm3_chameleon"], None),
    "labelled_metrics.lm4": (["domainsim.labelled_metrics:lm4_entropy_change"], None),
    "embedding_metrics.load_word_vectors": (["domainsim.embedding_metrics:load_word_vectors"], _path_key),
    "embedding_metrics.load_sentence_vectors": (
        ["domainsim.embedding_metrics:load_sentence_vectors"], _path_key),
    "embedding_metrics.select_test_vectors": (["domainsim.embedding_metrics:select_test_vectors"], None),
    "embedding_metrics.word_metric_matrix": (["domainsim.embedding_metrics:word_metric_matrix"], None),
    "embedding_metrics.sentence_metric_matrix": (
        ["domainsim.embedding_metrics:sentence_metric_matrix"], None),
    "cdsa_baseline.train_eval_baseline": (["domainsim.cli:train_eval_baseline"], None),
    "evaluation.recommendation_report": (["domainsim.cli:recommendation_report"], None),
    "evaluation.rank_sources": (["domainsim.evaluation:rank_sources"], None),
}


class Tracer:
    """Collects spans and distinct argument keys in memory for one command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.distinct: dict[str, dict] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func, key=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if key is not None:
                self.distinct.setdefault(name, {}).setdefault(
                    json.dumps(key(result, *args, **kwargs)), None)
            return result

        return traced

    def install(self) -> None:
        for name, (targets, key) in WRAPPED.items():
            found = False
            for target in targets:
                module_name, _, qualname = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                func = getattr(owner, attr, None)
                if callable(func):
                    setattr(owner, attr, self.wrap(name, func, key))
                    found = True
            if not found:
                self.absent.append(name)

    def write(self, path: Path, command: str) -> None:
        path.write_text(json.dumps({
            "command": command,
            "absent": self.absent,
            "spans": self.spans,
            "distinct": {name: [json.loads(k) for k in keys] for name, keys in self.distinct.items()},
        }), encoding="utf-8")


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    from domainsim import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(trace_path, cli_args[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
