from __future__ import annotations

from domainsim.corpus import Corpus


def build_corpus(domain_id: str, rows: list[tuple[str, str]]) -> Corpus:
    """Corpus from (label, space-separated tokens) rows, bypassing file I/O."""
    return Corpus(domain_id, [(label, tuple(text.split())) for label, text in rows])
