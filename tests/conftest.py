from __future__ import annotations

from domainsim.corpus import Corpus
from domainsim.lexstats import polar_words, polarity_table


def build_corpus(domain_id: str, rows: list[tuple[str, str]]) -> Corpus:
    """Corpus from (label, space-separated tokens) rows, bypassing file I/O."""
    return Corpus(domain_id, [(label, tuple(text.split())) for label, text in rows])


def polar_table(corpus: Corpus) -> dict[str, tuple[float, float]]:
    """``corpus``'s polarity table cut to its polar words: what LM2 and LM3 compare."""
    table = polarity_table(corpus)
    return {word: table[word] for word in polar_words(table)}
