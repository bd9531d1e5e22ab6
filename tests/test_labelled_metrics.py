from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
import synth
from conftest import build_corpus, polar_table
from domainsim.corpus import NgramIndex
from domainsim.errors import InputError, UnrankablePairError
from domainsim.labelled_metrics import (
    jaccard,
    lm1_overlap,
    lm2_skld,
    lm3_chameleon,
    lm4_entropy_change,
    lm4_matrix,
)
from domainsim.lexstats import polar_words, polarity_table


def sig(words):
    return frozenset(words)


def test_lm1_overlap_counts_intersection():
    forty = [f"w{i}" for i in range(40)]
    assert lm1_overlap(sig(forty), sig(forty)) == 40
    assert lm1_overlap(sig(["a", "b"]), sig(["c", "d"])) == 0
    assert lm1_overlap(sig(["a", "b", "c"]), sig(["b", "c", "d"])) == 2


def test_lm1_overlap_ignores_other_domains():
    a, b = sig(["x", "y"]), sig(["y", "z"])
    before = lm1_overlap(a, b)
    sig(["unrelated", "words"])
    assert lm1_overlap(a, b) == before


def test_jaccard_reference_values():
    assert abs(jaccard(40, 50, 50) - 2.0 / 3.0) < 1e-9
    assert abs(jaccard(200, 500, 500) - 0.25) < 1e-9
    assert jaccard(40, 50, 50) > jaccard(200, 500, 500)
    assert jaccard(7, 7, 7) == 1.0


def test_jaccard_rejects_degenerate_inputs():
    with pytest.raises(UnrankablePairError):
        jaccard(0, 10, 10)
    with pytest.raises(InputError):
        jaccard(11, 10, 10)


def test_lm2_identical_tables_score_one():
    t = {"up": (1.0, 0.0), "down": (0.0, 1.0)}
    assert abs(lm2_skld(t, dict(t)) - 1.0) < 1e-9


def test_lm2_single_flipped_word():
    t1 = {"w": (0.9, 0.1)}
    t2 = {"w": (0.1, 0.9)}
    expected = 0.8 * math.log(9.0) + 1.0
    assert abs(lm2_skld(t1, t2) - expected) < 1e-9


def test_lm2_symmetric():
    t1 = {"w": (0.9, 0.1), "v": (0.1, 0.9), "u": (1.0, 0.0)}
    t2 = {"w": (0.8, 0.2), "v": (0.05, 0.95)}
    assert abs(lm2_skld(t1, t2) - lm2_skld(t2, t1)) < 1e-12


def test_lm2_no_common_polar_words_unrankable():
    t1 = {"w": (1.0, 0.0)}
    t2 = {"v": (0.0, 1.0)}
    with pytest.raises(UnrankablePairError):
        lm2_skld(t1, t2)


def test_lm3_values():
    t = {"up": (1.0, 0.0)}
    assert abs(lm3_chameleon(t, dict(t)) - 1.0) < 1e-12
    t1 = {"w": (0.9, 0.1)}
    t2 = {"w": (0.1, 0.9)}
    assert abs(lm3_chameleon(t1, t2) - 2.6) < 1e-12
    assert abs(lm3_chameleon(t1, t2) - lm3_chameleon(t2, t1)) < 1e-12


def test_lm2_lm3_lower_bounded_by_reciprocal_jaccard():
    rng = np.random.default_rng(21)
    vocab = [f"p{i}" for i in range(12)]
    def random_corpus(name):
        rows = []
        for i in range(int(rng.integers(6, 20))):
            label = "positive" if i % 2 else "negative"
            rows.append((label, " ".join(rng.choice(vocab, size=rng.integers(1, 5)))))
        return build_corpus(name, rows)
    for _ in range(25):
        t1 = polar_table(random_corpus("a"))
        t2 = polar_table(random_corpus("b"))
        common = t1.keys() & t2.keys()
        if not common:
            continue
        j = jaccard(len(common), len(t1), len(t2))
        assert lm2_skld(t1, t2) >= 1.0 / j - 1e-12
        assert lm3_chameleon(t1, t2) >= 1.0 / j - 1e-12
        assert 1.0 / j >= 1.0


def test_lm4_self_pair_is_zero():
    rng = np.random.default_rng(5)
    vocab = [f"m{i}" for i in range(10)]
    rows = []
    for i in range(12):
        label = "positive" if i % 2 else "negative"
        rows.append((label, " ".join(rng.choice(vocab, size=rng.integers(2, 7)))))
    corpus = build_corpus("d", rows)
    assert abs(lm4_entropy_change(corpus, corpus)) < 1e-9


def test_lm4_prefers_similar_source():
    rng = np.random.default_rng(6)
    shared = [f"s{i}" for i in range(8)]
    alien = [f"z{i}" for i in range(8)]
    def make(name, vocab):
        rows = []
        for i in range(30):
            label = "positive" if i % 2 else "negative"
            rows.append((label, " ".join(rng.choice(vocab, size=5))))
        return build_corpus(name, rows)
    target = make("t", shared)
    near = make("near", shared)
    far = make("far", alien)
    assert lm4_entropy_change(near, target) < lm4_entropy_change(far, target)


def test_lm4_is_asymmetric_for_some_pair():
    rows_a = [("positive", "aa bb cc dd"), ("negative", "bb cc dd ee")] * 4
    rows_b = [("positive", "aa bb"), ("negative", "ff gg hh ii jj kk")] * 4
    a = build_corpus("a", rows_a)
    b = build_corpus("b", rows_b)
    assert lm4_entropy_change(a, b) != lm4_entropy_change(b, a)


def test_lm4_zero_baseline_entropy_unrankable():
    # Single review, one repeated non-polar-only token stream: every order
    # has a single n-gram, and the unigram is balanced so nothing is polar.
    corpus = build_corpus("d", [("positive", "uni uni uni uni"), ("negative", "uni uni uni uni")])
    other = build_corpus("o", [("positive", "alt alt"), ("negative", "alt")])
    with pytest.raises(UnrankablePairError):
        lm4_entropy_change(corpus, other)


def test_lm4_disjoint_vocabulary_regression_fixture():
    # Frozen toy pair: value computed once with the brute-force oracle.
    rng = np.random.default_rng(77)
    vocab_s = [f"s{i}" for i in range(6)]
    vocab_t = [f"t{i}" for i in range(6)]
    def rows(vocab):
        out = []
        for i in range(10):
            label = "positive" if i % 2 else "negative"
            out.append((label, " ".join(rng.choice(vocab, size=4))))
        return out
    rows_s, rows_t = rows(vocab_s), rows(vocab_t)
    source = build_corpus("s", rows_s)
    target = build_corpus("t", rows_t)
    value = lm4_entropy_change(source, target)
    oracle = oracles.entropy_change(
        [(label, text.split()) for label, text in rows_s],
        [(label, text.split()) for label, text in rows_t],
    )
    assert abs(value - oracle) < 1e-9
    assert abs(value - 23.379450003602916) < 1e-9


def matrix_for(corpora):
    return lm4_matrix(NgramIndex(corpora), [polar_words(polarity_table(c)) for c in corpora])


def test_lm4_matrix_equals_pairwise_values_exactly():
    corpora = synth.build_corpora(synth.synthetic_reviews(n_domains=20, reviews_per_domain=30, seed=4))
    matrix = matrix_for(corpora)
    for i, source in enumerate(corpora):
        assert np.isnan(matrix[i, i])
        for j, target in enumerate(corpora):
            if i != j:
                assert matrix[i, j] == lm4_entropy_change(source, target)


def test_lm4_matrix_zero_baseline_source_unrankable_for_all_targets():
    flat = build_corpus("flat", [("positive", "uni uni uni uni"), ("negative", "uni uni uni uni")])
    a = build_corpus("a", [("positive", "good fine day"), ("negative", "bad poor day")] * 3)
    b = build_corpus("b", [("positive", "good nice night"), ("negative", "awful poor night")] * 2)
    matrix = matrix_for([flat, a, b])
    assert np.isnan(matrix[0]).all()
    for i, source in ((1, a), (2, b)):
        assert matrix[i, 0] == lm4_entropy_change(source, flat)
        assert not np.isnan(matrix[i, 0])


SHORT_ROWS = [("positive", "good day"), ("negative", "bad"), ("positive", "good fine night")]
LEFT_ROWS = [("positive", "aa bb cc dd ee"), ("negative", "ff gg hh ii jj"), ("positive", "aa cc ee")]
RIGHT_ROWS = [("positive", "kk ll mm nn oo"), ("negative", "pp qq rr ss tt"), ("negative", "qq ss")]


@pytest.mark.parametrize("rows_s, rows_t", [(LEFT_ROWS, SHORT_ROWS), (LEFT_ROWS, RIGHT_ROWS)],
                         ids=["target without 4-grams", "disjoint vocabularies"])
def test_lm4_matrix_edge_corpora_match_pairwise_and_oracle(rows_s, rows_t):
    corpora = [build_corpus("s", rows_s), build_corpus("t", rows_t)]
    reviews = [[(label, text.split()) for label, text in rows] for rows in (rows_s, rows_t)]
    matrix = matrix_for(corpora)
    for i, j in ((0, 1), (1, 0)):
        assert matrix[i, j] == lm4_entropy_change(corpora[i], corpora[j])
        assert math.isclose(matrix[i, j], oracles.entropy_change(reviews[i], reviews[j]), rel_tol=1e-9)

