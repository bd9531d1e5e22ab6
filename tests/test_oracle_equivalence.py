"""LM2, LM3, LM4, NGRAM and the CDSA baseline checked against the oracles.

Every ordered pair of a seeded 20-domain synthetic set is compared, so both
orientations of each pair and both rankable and unrankable pairs are
covered. LM2-LM4 allow 1e-9 relative error: the oracles sum -p*log(p)
terms where the package sums c*log(c), and LM4's |e_after - e_before|
cancels digits (up to ~1e-11 relative on these corpora). LM4 must also
equal, bit for bit, the oracle that repeats the package's arithmetic term
by term. NGRAM is a ratio of integer counts and must match exactly. The
baseline's accuracy matrix must equal, bit for bit, the one from training
and scoring one model and one example at a time.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import oracles
import synth
from conftest import build_corpus
from domainsim.cdsa_baseline import _featurize, _row_sums, _train_lockstep, train_eval_baseline
from domainsim.corpus import ngram_overlap_matrix
from domainsim.errors import UnrankablePairError
from domainsim.labelled_metrics import lm2_skld, lm3_chameleon, lm4_matrix
from domainsim.lexstats import polar_words, polarity_table

RELATIVE_TOLERANCE = 1e-9
SEEDS = (1, 2)


@pytest.fixture(scope="module", params=SEEDS)
def domains(request):
    data = synth.synthetic_reviews(n_domains=20, reviews_per_domain=30, seed=request.param)
    reviews = [[(label, text.split()) for label, text in rows] for rows in data.values()]
    return synth.build_corpora(data), reviews


def ordered_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def assert_close(value, expected, pair):
    if expected is None:
        assert value is None, pair
    else:
        assert value is not None and math.isclose(
            value, expected, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0), (pair, value, expected)


@pytest.mark.parametrize("metric, oracle", [(lm2_skld, oracles.skld_metric),
                                            (lm3_chameleon, oracles.l1_metric)])
def test_lm2_lm3_match_oracles(domains, metric, oracle):
    corpora, reviews = domains
    tables = [polarity_table(c) for c in corpora]
    unrankable = 0
    for i, j in ordered_pairs(len(corpora)):
        try:
            value = metric(tables[i], tables[j])
        except UnrankablePairError:
            value = None
            unrankable += 1
        assert_close(value, oracle(reviews[i], reviews[j]), (i, j))
    assert 0 < unrankable < len(corpora) * (len(corpora) - 1)


def test_lm4_matches_oracles(domains):
    corpora, reviews = domains
    matrix = lm4_matrix(corpora, [polar_words(polarity_table(c)) for c in corpora])
    for i, j in ordered_pairs(len(corpora)):
        assert_close(matrix[i][j], oracles.entropy_change(reviews[i], reviews[j]), (i, j))
        assert matrix[i][j] == oracles.loop_entropy_change(reviews[i], reviews[j]), (i, j)


def test_ngram_matches_oracle_exactly(domains):
    corpora, reviews = domains
    matrix = ngram_overlap_matrix(corpora)
    for i, j in ordered_pairs(len(corpora)):
        assert matrix.values[i][j] == oracles.ngram_overlap(reviews[i], reviews[j]), (i, j)


def baseline_acc(corpora, splits=5, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return train_eval_baseline(corpora, splits=splits, seed=seed).acc


@pytest.mark.parametrize("n_domains, per_domain, seed", [(20, 300, 1), (20, 300, 2), (5, 1000, 1)])
def test_baseline_matches_sequential_oracle(n_domains, per_domain, seed):
    corpora = synth.build_corpora(
        synth.synthetic_reviews(n_domains=n_domains, reviews_per_domain=per_domain, seed=seed))
    assert np.array_equal(baseline_acc(corpora, seed=seed),
                          oracles.sequential_baseline(corpora, seed=seed))


@pytest.mark.parametrize("splits", [1, 2, 5])
def test_baseline_matches_oracle_on_unequal_corpora(splits):
    data = synth.synthetic_reviews(n_domains=4, reviews_per_domain=200, seed=4)
    sizes = (37, 200, 91, 150)
    corpora = synth.build_corpora(
        {name: rows[:size] for (name, rows), size in zip(data.items(), sizes)})
    assert np.array_equal(baseline_acc(corpora, splits=splits, seed=7),
                          oracles.sequential_baseline(corpora, splits=splits, seed=7))


def distinct_feature_tokens(count):
    """``count`` tokens that hash to ``count`` different feature ids."""
    tokens = {}
    i = 0
    while len(tokens) < count:
        token = f"feat{i}"
        tokens.setdefault(int(oracles._hash_features([token])[0]), token)
        i += 1
    return list(tokens.values())


def wide_corpora():
    """Reviews of 1, 7, 8, 127, 128 and 200 features among ones of 5 to 13.

    Widths below 8, at a block edge and on both sides of numpy's 128-value
    pairwise block; a review has at least one token, so the narrowest is 1.
    The wide reviews drive |z| past the +-35 clip during training.
    """
    tokens = distinct_feature_tokens(400)
    rng = np.random.default_rng(8)
    widths = (1, 7, 8, 127, 128, 200)
    corpora = []
    for name in ("A", "B", "C"):
        rows = []
        for i in range(48):
            label = "positive" if (i // len(widths)) % 2 == 0 else "negative"
            width = widths[i % len(widths)] if i < 36 else int(rng.integers(5, 14))
            rows.append((label, " ".join(rng.choice(tokens, size=width, replace=False))))
        corpora.append(build_corpus(name, rows))
    return corpora


def test_baseline_matches_oracle_on_reviews_of_every_width_class():
    corpora = wide_corpora()
    assert np.array_equal(baseline_acc(corpora, seed=9), oracles.sequential_baseline(corpora, seed=9))


def test_row_sums_equal_the_sum_of_the_gathered_weights():
    tokens = distinct_feature_tokens(300)
    rng = np.random.default_rng(10)
    corpus = build_corpus(
        "A", [("positive", " ".join(rng.choice(tokens, size=n, replace=False))) for n in range(1, 301)])
    features, widths, _, _ = _featurize([corpus])
    ids = [oracles._hash_features(review.tokens) for review in corpus.reviews]
    # Magnitudes spread over 12 decades, so any change of summation order shows.
    by_id = rng.normal(size=oracles.FEATURE_DIM) * 10.0 ** rng.integers(-6, 7, size=oracles.FEATURE_DIM)
    weights = np.append(by_id[np.unique(np.concatenate(ids))], 0.0)
    values = weights[features]
    sums = _row_sums(values, widths)
    for row, idx in enumerate(ids):
        assert len(idx) == row + 1
        assert sums[row] == by_id[idx].sum(), row + 1
    # Reviews shorter than 128 features share one width, summed in one call.
    assert np.all(widths[:127] == widths[0])
    assert np.array_equal(_row_sums(values[:127, : widths[0]], widths[:127]), sums[:127])


@pytest.mark.parametrize("make_corpora", [
    lambda: synth.build_corpora(synth.synthetic_reviews(n_domains=3, reviews_per_domain=120, seed=3)),
    wide_corpora,
], ids=["synthetic", "wide"])
def test_lockstep_weights_equal_one_model_at_a_time(make_corpora):
    corpora = make_corpora()
    features, widths, labels, pad = _featurize(corpora)
    examples = [example for corpus in corpora for example in oracles._featurize(corpus)]
    distinct = np.unique(np.concatenate([idx for idx, _ in examples]))
    # Training sets of different sizes, overlapping, in arbitrary order.
    n = len(examples)
    train_sets = [np.arange(n // 3), np.arange(n)[::-7], np.array([5, n - 60, 17]), np.arange(n // 2, n - 30)]
    weights, bias = _train_lockstep(
        features, widths, labels, pad, train_sets,
        [np.random.default_rng(40 + m) for m in range(len(train_sets))])
    for m, ids in enumerate(train_sets):
        expected, expected_bias = oracles._train_logistic(
            [examples[i] for i in ids], np.random.default_rng(40 + m))
        assert np.array_equal(weights[m, :pad], expected[distinct]), m
        assert weights[m, pad] == 0.0 and not np.delete(expected, distinct).any(), m
        assert bias[m] == expected_bias, m
