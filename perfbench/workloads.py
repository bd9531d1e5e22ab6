"""Seeded benchmark workloads: their input files and their CLI command sequences.

Every input is generated from ``tests/synth.py`` and the workload seed, so
the program under test only ever sees the files written here. Each workload
is a closed loop of ``domainsim`` commands run one after another by a single
client; the next command starts when the previous one has ended.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import synth  # noqa: E402
from domainsim.embedding_metrics import AdjectiveLexicon  # noqa: E402

N_DOMAINS = 20
K_VALUES = (3, 5, 7, 10)
BASELINE_SPLITS = 5
VECTOR_DIMS = 64
WORD_METRICS = ("ULM1", "ULM3", "ULM4", "ULM6")
SENTENCE_METRICS = ("ULM2", "ULM5", "ULM7")


@dataclass(frozen=True)
class Workload:
    name: str
    reviews_per_domain: int
    metrics: tuple[str, ...]
    # "generate" trains the CDSA baseline; "reference" uses the bundled matrix.
    matrix: str
    vectors: bool = False


# Sizes are cut down from the paper's 20x10000 reviews until one pass over
# the commands takes about two seconds, so that a run holds enough passes
# for a steady mean on a noisy shared machine, while each workload still
# spends most of its time in a different module: n-gram work (corpus, labelled_metrics),
# baseline training (cdsa_baseline), or review scoring and vector parsing
# (lexstats, embedding_metrics).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lexical", 30, ("LM1", "LM2", "LM3", "LM4", "NGRAM"), "reference"),
        Workload("baseline", 300, ("LM1", "LM2", "LM3"), "generate"),
        Workload("embedding", 300, WORD_METRICS + SENTENCE_METRICS, "reference", vectors=True),
    )
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under a directory, keyed by relative path."""
    return {
        str(p.relative_to(directory)): sha256_file(p)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _write_vec(path: Path, entries) -> None:
    entries = list(entries)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(entries)} {VECTOR_DIMS}\n")
        for key, vec in entries:
            fh.write(key + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def _write_lexicons(directory: Path, seed: int) -> tuple[Path, Path]:
    # Adjectives are the sentiment pool words plus every other neutral word;
    # lexicon scores lean towards each pool word's side.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    neutral, positive, negative = synth._pools()
    adjectives = sorted(positive + negative + neutral[::2])
    adj_path = directory / "adjectives.txt"
    adj_path.write_text("\n".join(adjectives) + "\n", encoding="utf-8")
    lex_path = directory / "lexicon.tsv"
    with lex_path.open("w", encoding="utf-8") as fh:
        for words, side in ((positive, 0), (negative, 1)):
            for word in words:
                strong = round(float(rng.uniform(0.25, 1.0)), 3)
                weak = round(float(rng.uniform(0.0, 0.2)), 3)
                pos, neg = (strong, weak) if side == 0 else (weak, strong)
                fh.write(f"{word}\t{pos}\t{neg}\n")
    return adj_path, lex_path


@dataclass(frozen=True)
class Inputs:
    """Generated input files of one workload and seed."""

    directory: Path
    reviews: dict[str, list[tuple[str, str]]]
    corpora: dict[str, str]
    adjectives: Path | None
    lexicon: Path | None
    word_vectors: Path | None
    sentence_vectors: Path | None


def write_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write every input file of a workload for a seed; same seed, same bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    reviews = synth.synthetic_reviews(N_DOMAINS, workload.reviews_per_domain, seed=seed)
    corpora = synth.write_jsonl(reviews, directory / "corpora")
    adj = lex = words_dir = sent_dir = None
    if workload.vectors:
        adj, lex = _write_lexicons(directory, seed)
        built = synth.build_corpora(reviews)
        adjectives = AdjectiveLexicon(frozenset(adj.read_text("utf-8").split()))
        words_dir = directory / "word_vectors"
        sent_dir = directory / "sentence_vectors"
        words_dir.mkdir(exist_ok=True)
        sent_dir.mkdir(exist_ok=True)
        for table in synth.synthetic_word_tables(built, adjectives, dims=VECTOR_DIMS, seed=seed):
            _write_vec(words_dir / f"{table.domain_id}.vec", sorted(table.entries.items()))
        for vectors in synth.synthetic_sentence_sets(built, dims=VECTOR_DIMS, seed=seed):
            _write_vec(sent_dir / f"{vectors.domain_id}.vec", vectors.vectors)
    return Inputs(directory, reviews, corpora, adj, lex, words_dir, sent_dir)


def commands(workload: Workload, inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI invocations in order, as (command, argv) pairs."""
    common = [
        "--domains", ",".join(f"{name}={path}" for name, path in inputs.corpora.items()),
        "--out", str(out),
    ]
    metric_args = ["--metrics", ",".join(workload.metrics)]
    if workload.vectors:
        vectors = [f"{m}={inputs.word_vectors}" for m in WORD_METRICS]
        vectors += [f"{m}={inputs.sentence_vectors}" for m in SENTENCE_METRICS]
        metric_args += [
            "--vectors", ",".join(vectors),
            "--adjectives", str(inputs.adjectives),
            "--sentiment-lexicon", str(inputs.lexicon),
        ]
    k_args = ["--k", ",".join(map(str, K_VALUES))]
    if workload.matrix == "generate":
        matrix_cmd = ("baseline", ["baseline", *common, "--splits", str(BASELINE_SPLITS)])
        matrix_arg = str(out / "accuracy_matrix.csv")
    else:
        matrix_cmd = ("chart", ["chart", *common, "--accuracy-matrix", "reference"])
        matrix_arg = "reference"
    return [
        ("ingest", ["ingest", *common]),
        ("metrics", ["metrics", *common, *metric_args]),
        matrix_cmd,
        ("evaluate", ["evaluate", *common, *metric_args, *k_args,
                      "--accuracy-matrix", matrix_arg]),
    ]
