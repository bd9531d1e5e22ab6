"""Every function the benchmark's tracer wraps must exist under its name and see its calls.

``perfbench/traced_cli.py`` reports a name it cannot find as absent and
the benchmark then reads that layer as 0, so a renamed hot function must
fail here instead. A function the CLI reaches through a reference taken
before the tracer wraps its attribute escapes the span without being
absent, so a traced run must also record a call in each lexical and each
embedding span.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import synth

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = []
    for span, (targets, _key) in traced_cli.WRAPPED.items():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{span}: {target}")
    assert traced_cli.WRAPPED and not missing


LEXICAL_SPANS = (
    "labelled_metrics.lm1", "labelled_metrics.lm2", "labelled_metrics.lm3",
    "lexstats.polarity_table", "lexstats.significant_words", "corpus.ngram_overlap_matrix",
    "cli.write_metric_csv", "cli.read_metric_csv", "evaluation.rank_sources",
)
EMBEDDING_SPANS = (
    "embedding_metrics.load_word_vectors", "embedding_metrics.load_sentence_vectors",
    "embedding_metrics.select_test_vectors", "lexstats.filter_reviews", "lexstats.review_score",
    "embedding_metrics.word_metric_matrix", "embedding_metrics.sentence_metric_matrix",
)


def traced_runs(tmp_path, runs) -> tuple[set[str], list[str]]:
    """Names of the spans with a call, and the absent names, over traced CLI runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    called: set[str] = set()
    absent: list[str] = []
    for command, args in runs:
        trace = tmp_path / f"{command}.json"
        argv = [sys.executable, str(TRACED_CLI), str(trace), command, *args]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        recorded = json.loads(trace.read_text("utf-8"))
        absent += recorded["absent"]
        called.update(name for name, *_ in recorded["spans"])
    return called, absent


def test_traced_lexical_run_records_a_call_in_every_lexical_span(tmp_path):
    data = synth.synthetic_reviews(n_domains=3, reviews_per_domain=30, seed=3)
    paths = synth.write_jsonl(data, tmp_path / "corpora")
    matrix = tmp_path / "matrix.csv"
    names = list(paths)
    matrix.write_text("domain," + ",".join(names) + "\n" + "".join(
        f"{name}," + ",".join("90" if i == j else str(60 + i + 3 * j) for j in range(3)) + "\n"
        for i, name in enumerate(names)))
    common = ["--domains", ",".join(f"{d}={p}" for d, p in paths.items()),
              "--metrics", "LM1,LM2,LM3,LM4,NGRAM", "--out", str(tmp_path / "out")]
    evaluate = ["--accuracy-matrix", str(matrix), "--k", "1,2"]
    called, absent = traced_runs(tmp_path, [("metrics", common), ("evaluate", common + evaluate)])
    assert absent == []
    assert [name for name in LEXICAL_SPANS if name not in called] == []


def test_traced_embedding_run_records_a_call_in_every_embedding_span(tmp_path):
    data = synth.synthetic_reviews(n_domains=3, reviews_per_domain=30, seed=3)
    paths = synth.write_jsonl(data, tmp_path / "corpora")
    inputs = synth.write_vector_inputs(data, tmp_path / "vectors")
    vectors = [f"ULM{i}={inputs['words'] if i in (1, 3, 4, 6) else inputs['sentences']}"
               for i in range(1, 8)]
    args = ["--domains", ",".join(f"{d}={p}" for d, p in paths.items()),
            "--metrics", ",".join(f"ULM{i}" for i in range(1, 8)), "--vectors", ",".join(vectors),
            "--adjectives", inputs["adjectives"], "--sentiment-lexicon", inputs["lexicon"],
            "--out", str(tmp_path / "out")]
    called, absent = traced_runs(tmp_path, [("metrics", args)])
    assert absent == []
    assert [name for name in EMBEDDING_SPANS if name not in called] == []
