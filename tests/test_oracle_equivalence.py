"""LM2, LM3, LM4 and NGRAM checked against the brute-force oracles.

Every ordered pair of a seeded 20-domain synthetic set is compared, so both
orientations of each pair and both rankable and unrankable pairs are
covered. LM2-LM4 allow 1e-9 relative error: the oracles sum -p*log(p)
terms where the package sums c*log(c), and LM4's |e_after - e_before|
cancels digits (up to ~1e-11 relative on these corpora). LM4 must also
equal, bit for bit, the oracle that repeats the package's arithmetic term
by term. NGRAM is a ratio of integer counts and must match exactly.
"""

from __future__ import annotations

import math

import pytest

import oracles
import synth
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
