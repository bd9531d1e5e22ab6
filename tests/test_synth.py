"""The synthetic generator scales past 30 domains and keeps its output for fewer.

Domain d draws from neutral pool words 6d to 6d + 49 and sentiment pool
words 4d to 4d + 19. The pools only grow, and only past 26 domains, so every
input generated for 26 domains or fewer, the bench's 20 included, keeps its
bytes.
"""

from __future__ import annotations

import pytest

import synth


def test_pools_keep_their_words_and_only_grow():
    neutral, pos, neg = synth._pools()
    assert (len(neutral), len(pos), len(neg)) == (200, 120, 120)
    assert (neutral[0], neutral[-1], pos[-1], neg[-1]) == ("qnaaa", "qnahr", "qpaep", "qmaep")
    for n_domains in (1, 20, 26):
        assert synth._pools(n_domains) == (neutral, pos, neg)
    for n_domains in (27, 100):
        grown = synth._pools(n_domains)
        assert [pool[:len(old)] for pool, old in zip(grown, (neutral, pos, neg))] == [
            neutral, pos, neg]
        assert len(set(grown[0])) == len(grown[0]) == 6 * n_domains + 44


@pytest.mark.parametrize("n_domains", [31, 100])
def test_every_domain_draws_from_a_full_window(tmp_path, n_domains):
    data = synth.synthetic_reviews(n_domains, 5, seed=3)
    assert list(data) == [f"D{d + 1}" for d in range(n_domains)]
    neutral, pos, neg = synth._pools(n_domains)
    lexicon = synth.synthetic_lexicon(n_domains=n_domains)
    for d, rows in enumerate(data.values()):
        windows = (neutral[6 * d:6 * d + 50], pos[4 * d:4 * d + 20], neg[4 * d:4 * d + 20])
        assert [len(window) for window in windows] == [50, 20, 20]
        tokens = {token for _, text in rows for token in text.split()}
        assert tokens <= set().union(*windows)
        # Every domain's reviews carry words the lexicon scores.
        assert tokens & set(lexicon)
    synth.write_vector_inputs(data, tmp_path)
    adjectives = set((tmp_path / "adjectives.txt").read_text().split())
    assert adjectives == set(pos + neg) and len(adjectives) == 8 * n_domains + 32
    assert len(list((tmp_path / "sentences").iterdir())) == n_domains
