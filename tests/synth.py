"""Seeded synthetic review domains with a sliding vocabulary overlap gradient.

Twenty domains, each with its own window into shared neutral and sentiment
word pools; neighbouring domains overlap heavily, distant ones not at all.
Tokens are purely alphabetic so they survive normalization unchanged.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from domainsim.corpus import Corpus
from domainsim.embedding_metrics import AdjectiveLexicon, SentenceVectorSet, WordVectorTable

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def word_token(prefix: str, i: int) -> str:
    a, rem = divmod(i, 26 * 26)
    b, c = divmod(rem, 26)
    return prefix + _LETTERS[a] + _LETTERS[b] + _LETTERS[c]


def _pools() -> tuple[list[str], list[str], list[str]]:
    neutral = [word_token("qn", i) for i in range(200)]
    pos = [word_token("qp", i) for i in range(120)]
    neg = [word_token("qm", i) for i in range(120)]
    return neutral, pos, neg


def sentiment_pool_words() -> frozenset[str]:
    _, pos, neg = _pools()
    return frozenset(pos + neg)


def synthetic_reviews(
    n_domains: int = 20,
    reviews_per_domain: int = 1000,
    seed: int = 11,
) -> dict[str, list[tuple[str, str]]]:
    """Per-domain (label, text) rows; texts are pre-normalized token strings."""
    rng = np.random.default_rng(seed)
    neutral_pool, pos_pool, neg_pool = _pools()
    data: dict[str, list[tuple[str, str]]] = {}
    for d in range(n_domains):
        neutral = neutral_pool[6 * d : 6 * d + 50]
        pos = pos_pool[4 * d : 4 * d + 20]
        neg = neg_pool[4 * d : 4 * d + 20]
        rows = []
        for i in range(reviews_per_domain):
            label = "positive" if i % 2 == 0 else "negative"
            main, other = (pos, neg) if label == "positive" else (neg, pos)
            tokens = [str(w) for w in rng.choice(neutral, size=int(rng.integers(4, 9)))]
            tokens += [str(w) for w in rng.choice(main, size=int(rng.integers(2, 5)))]
            if rng.random() < 0.15:
                tokens.append(str(rng.choice(other)))
            rng.shuffle(tokens)
            rows.append((label, " ".join(tokens)))
        data[f"D{d + 1}"] = rows
    return data


def build_corpora(data: dict[str, list[tuple[str, str]]]) -> list[Corpus]:
    return [Corpus(name, [(label, tuple(text.split())) for label, text in rows])
            for name, rows in data.items()]


def write_jsonl(data: dict[str, list[tuple[str, str]]], directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rows in data.items():
        path = directory / f"{name}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for label, text in rows:
                fh.write(json.dumps({"domain": name, "label": label, "text": text}) + "\n")
        paths[name] = str(path)
    return paths


def synthetic_word_tables(
    corpora: list[Corpus],
    adjectives: AdjectiveLexicon,
    dims: int = 8,
    seed: int = 5,
) -> list[WordVectorTable]:
    """One stable random vector per (domain, adjective in vocabulary)."""
    tables = []
    for di, corpus in enumerate(corpora):
        entries = {}
        for word in sorted(set(corpus.counts) & adjectives.words):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, di, zlib.crc32(word.encode())])
            )
            entries[word] = rng.normal(size=dims)
        tables.append(WordVectorTable(corpus.domain_id, dims, entries))
    return tables


def synthetic_sentence_sets(
    corpora: list[Corpus],
    dims: int = 8,
    seed: int = 9,
) -> list[SentenceVectorSet]:
    """Per-review vectors around a stable per-domain direction, keyed ``<domain>:<position>``."""
    sets = []
    for di, corpus in enumerate(corpora):
        rng = np.random.default_rng(np.random.SeedSequence([seed, di]))
        base = rng.normal(size=dims)
        vectors = tuple(
            (f"{corpus.domain_id}:{i}", base + 0.1 * rng.normal(size=dims))
            for i in range(len(corpus))
        )
        sets.append(SentenceVectorSet(corpus.domain_id, dims, vectors))
    return sets


def _lexicon_scores(seed: int) -> dict[str, tuple[float, float]]:
    """Pool words' (pos_score, neg_score), towards their side on a 0.05 grid."""
    rng = np.random.default_rng(seed)
    _, pos, neg = _pools()
    entries = {}
    for words, side in ((pos, 0), (neg, 1)):
        for word in words:
            strong = float(rng.integers(5, 21)) / 20.0
            weak = float(rng.integers(0, 5)) / 20.0
            entries[word] = (strong, weak) if side == 0 else (weak, strong)
    return entries


def synthetic_lexicon(seed: int = 7) -> dict[str, float]:
    """Pool words' signed scores, as the lexicon loaders make them; equal review scores are common."""
    return {word: pos - neg for word, (pos, neg) in _lexicon_scores(seed).items()}


def write_vector_inputs(
    data: dict[str, list[tuple[str, str]]],
    directory: Path,
    dims: int = 8,
    seed: int = 5,
) -> dict[str, str]:
    """Write the inputs of the vector metrics for ``data``'s domains under ``directory``.

    Returns paths keyed ``adjectives`` (the sentiment pool words), ``lexicon``
    (a TSV that loads as ``synthetic_lexicon(seed)``), and ``words`` and
    ``sentences``, directories holding one ``<domain>.vec`` file per domain.
    """
    corpora = build_corpora(data)
    adjectives = AdjectiveLexicon(sentiment_pool_words())
    paths = {"adjectives": directory / "adjectives.txt", "lexicon": directory / "lexicon.tsv",
             "words": directory / "words", "sentences": directory / "sentences"}
    paths["words"].mkdir(parents=True, exist_ok=True)
    paths["sentences"].mkdir(exist_ok=True)
    paths["adjectives"].write_text("\n".join(sorted(adjectives.words)) + "\n", encoding="utf-8")
    paths["lexicon"].write_text("".join(
        f"{word}\t{pos!r}\t{neg!r}\n" for word, (pos, neg) in _lexicon_scores(seed).items()
    ), encoding="utf-8")
    files = [(paths["words"] / f"{t.domain_id}.vec", t.entries.items())
             for t in synthetic_word_tables(corpora, adjectives, dims, seed)]
    files += [(paths["sentences"] / f"{s.domain_id}.vec", s.vectors)
              for s in synthetic_sentence_sets(corpora, dims, seed)]
    for path, entries in files:
        with path.open("w", encoding="utf-8") as fh:
            for key, vec in entries:
                fh.write(key + " " + " ".join(repr(float(x)) for x in vec) + "\n")
    return {key: str(path) for key, path in paths.items()}
