"""Normalization, word counts, n-gram ids, LM2, LM3, LM4, NGRAM, the review selection and
the CDSA baseline checked against the oracles.

Every ordered pair of a seeded 20-domain synthetic set is compared, so both
orientations of each pair and both rankable and unrankable pairs are
covered. LM2-LM4 allow 1e-9 relative error: the oracles sum -p*log(p)
terms where the package sums c*log(c), and LM4's |e_after - e_before|
cancels digits (up to ~1e-11 relative on these corpora). LM4 must also
equal, bit for bit, the oracle that repeats the package's arithmetic term
by term. NGRAM is a ratio of integer counts and must match exactly. The
baseline's accuracy matrix must equal, bit for bit, the one from training
and scoring one model and one example at a time. The sentence metrics must
pick the same reviews as when each review was scored once per pick, and
their matrix must equal ``angular_similarity`` of each pair's mean vectors.
``normalize`` must give the per-character rule's tokens on any text, and
a loaded corpus's word counts must equal the oracle's, in the same order.
``NgramIndex`` must list each corpus's n-grams and counts as the oracle's
table does, with ids in the ``sorted()`` order of the n-grams' tuples.
The recommendation chart, computed in plain Python, must equal, bit for
bit, the one numpy computed while the accuracy matrix was an ndarray.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import synth
from conftest import build_corpus
from domainsim.cdsa_baseline import (
    _featurize,
    _numpy_sum,
    _row_sums,
    _train_lockstep,
    chart,
    train_eval_baseline,
)
from domainsim.corpus import (
    NEGATIVE,
    POSITIVE,
    Corpus,
    NgramIndex,
    bundled_stopwords,
    load_corpus,
    ngram_overlap_matrix,
    normalize,
)
from domainsim.embedding_metrics import (
    SentenceVectorSet,
    angular_similarity,
    select_test_vectors,
    sentence_metric_matrix,
)
from domainsim.errors import UnrankablePairError
from domainsim.labelled_metrics import lm2_skld, lm3_chameleon, lm4_matrix
from domainsim.lexstats import filter_reviews, polar_words, polarity_table, review_score
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix

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
        assert math.isnan(value), pair
    else:
        assert value is not None and math.isclose(
            value, expected, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0), (pair, value, expected)


# Letters the fast path keeps as they are, and characters that send a token
# through the per-character rule: digits, punctuation, combining marks,
# letters whose lowercase is no letter (İ lowers to i + U+0307), superscript
# digits and spaces that str.split splits on.
LETTERS = "abcdefghijklmnopqrstuvwxyzABCZéÉßǅαΣςΩ中文字ＡｚＺ"
OTHERS = "0123456789.,!?'-+%\u0301İ¹²³"
SPACES = " \n\t\u00a0\u2003\u3000"
WORDS = st.text(alphabet=LETTERS, min_size=1, max_size=6) | st.text(
    alphabet=LETTERS + OTHERS, min_size=1, max_size=6)
TEXTS = st.lists(st.tuples(WORDS, st.sampled_from(SPACES)), max_size=12).map(
    lambda parts: "".join(word + space for word, space in parts))
CUSTOM_STOPWORDS = st.frozensets(st.text(alphabet="abcéßσ中", min_size=1, max_size=2), max_size=8)


@settings(max_examples=400, derandomize=True, database=None)
@given(text=TEXTS, stopwords=st.none() | CUSTOM_STOPWORDS)
@example(text="Straße ǅemal ΣΟΦΟΣ the 中文 ＡＢ", stopwords=None)
@example(text="İstanbul caf\u0301e x²\u00a0the\u2003end\u3000١٢", stopwords=None)
def test_normalize_matches_the_per_character_oracle(text, stopwords):
    expected = oracles.normalize(text, bundled_stopwords() if stopwords is None else stopwords)
    assert normalize(text, stopwords) == expected


def test_loaded_word_counts_match_oracle_in_order(tmp_path):
    data = synth.synthetic_reviews(n_domains=20, reviews_per_domain=30, seed=3)
    paths = synth.write_jsonl(data, tmp_path)
    for name, rows in data.items():
        corpus = load_corpus(paths[name])
        expected = oracles.word_counts([(label, text.split()) for label, text in rows])
        assert [(w, list(c)) for w, c in corpus.counts.items()] == list(expected.items()), name


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
            value = math.nan
            unrankable += 1
        assert_close(value, oracle(reviews[i], reviews[j]), (i, j))
    assert 0 < unrankable < len(corpora) * (len(corpora) - 1)


def test_lm4_matches_oracles(domains):
    corpora, reviews = domains
    matrix = lm4_matrix(NgramIndex(corpora), [polar_words(polarity_table(c)) for c in corpora])
    for i, j in ordered_pairs(len(corpora)):
        assert_close(matrix[i, j], oracles.entropy_change(reviews[i], reviews[j]), (i, j))
        assert matrix[i, j] == oracles.loop_entropy_change(reviews[i], reviews[j]), (i, j)


def assert_ngram_index_matches_oracle(token_rows_per_corpus):
    """Per order: ids number the distinct n-grams in ``sorted()`` order of
    their string tuples, and each corpus lists the oracle's n-grams and
    counts in first-occurrence order."""
    corpora = [Corpus(f"d{c}", [((POSITIVE, NEGATIVE)[i % 2], tuple(tokens))
                                for i, tokens in enumerate(rows)])
               for c, rows in enumerate(token_rows_per_corpus)]
    index = NgramIndex(corpora)
    for order in (1, 2, 3, 4):
        tables = [oracles.ngram_table([(None, tokens) for tokens in rows], order)
                  for rows in token_rows_per_corpus]
        everything = sorted(set().union(*tables))
        assert index.tuples(order, np.arange(len(index.tokens[order]))) == everything, order
        for c, table in enumerate(tables):
            ids, counts = index.grams[order][c]
            assert index.tuples(order, ids) == list(table), (order, c)
            assert counts.tolist() == list(table.values()), (order, c)


# Review tokens as given, not normalized: capitals, non-ASCII, a string that
# prefixes another and two spellings of one accented letter (U+00E1 and
# a + U+0301), so that sorting compares code points.
GRAM_TOKENS = st.sampled_from(["a", "aa", "ab", "b", "B", "Z", "\u00e1", "a\u0301", "\u01c5", "\u4e2d"])
GRAM_CORPORA = st.lists(
    st.lists(st.lists(GRAM_TOKENS, min_size=1, max_size=6), min_size=1, max_size=6),
    min_size=1, max_size=3)


@settings(max_examples=300, derandomize=True, database=None)
@given(token_rows_per_corpus=GRAM_CORPORA)
@example(token_rows_per_corpus=[[["a", "b", "c"], ["b"]], [["a", "b", "c", "a", "b"]]])
@example(token_rows_per_corpus=[[["Z", "a"], ["a", "Z", "a"]], [["\u4e2d"]]])
def test_ngram_index_matches_the_table_oracle(token_rows_per_corpus):
    assert_ngram_index_matches_oracle(token_rows_per_corpus)


def test_ngram_index_matches_the_table_oracle_on_60000_words():
    # Four ids of 60,000 words no longer pack into one int64 (60000**4 > 2**63).
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in rng.permutation(60_000)]
    cuts = np.cumsum(rng.integers(1, 8, size=len(words)))
    rows = [row.tolist() for row in np.split(np.array(words), cuts[cuts < len(words)])]
    rows += rows[:3000]  # n-grams that occur twice
    assert_ngram_index_matches_oracle([rows[::2], rows[1::2]])


def test_ngram_matches_oracle_exactly(domains):
    corpora, reviews = domains
    matrix = ngram_overlap_matrix(NgramIndex(corpora))
    for i, j in ordered_pairs(len(corpora)):
        assert matrix[i][j] == oracles.ngram_overlap(reviews[i], reviews[j]), (i, j)


def selected_ids(corpus, lexicon, count, mode):
    vectors = SentenceVectorSet(
        corpus.domain_id, 2, tuple((f"{corpus.domain_id}:{i}", np.ones(2)) for i in range(len(corpus))))
    picked = select_test_vectors(corpus, filter_reviews(corpus, lexicon), vectors, count, mode)
    return [review_id for review_id, _ in picked.vectors]


def oracle_ids(corpus, lexicon, count, mode):
    return oracles.select_reviews(corpus, lambda tokens: review_score(tokens, lexicon), count, mode)


@pytest.mark.parametrize("mode", ["top", "heldout"])
@pytest.mark.parametrize("count", [7, 500])
def test_review_selection_matches_oracle(domains, mode, count):
    corpora, _ = domains
    lexicon = synth.synthetic_lexicon()
    tied = 0
    for corpus in corpora:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            picked = selected_ids(corpus, lexicon, count, mode)
        assert picked == oracle_ids(corpus, lexicon, count, mode), corpus.domain_id
        magnitudes = [abs(score) for _, score in filter_reviews(corpus, lexicon)]
        tied += len(magnitudes) - len(set(magnitudes))
    assert tied > 0


def test_review_selection_matches_oracle_on_ties_long_reviews_and_a_shortfall():
    lexicon = {"fine": 0.5, "grim": -0.5, "best": 0.9, "meh": 0.005}
    corpus = build_corpus("d", [
        ("positive", "fine plain"),            # 0.5
        ("negative", "grim plain"),            # -0.5, the same magnitude
        ("positive", "meh"),                   # 0.005, filtered out
        ("positive", "best " + "pad " * 100),  # 101 tokens, filtered out though the strongest
        ("positive", "best"),                  # 0.9
        ("negative", "plain grim"),            # -0.5
        ("positive", "fine"),                  # 0.5
    ])
    expected = {"top": ["d:4", "d:0", "d:1"], "heldout": ["d:4", "d:5", "d:6"]}
    for mode in ("top", "heldout"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert selected_ids(corpus, lexicon, 3, mode) == expected[mode]
        assert oracle_ids(corpus, lexicon, 3, mode) == expected[mode]
        with pytest.warns(UserWarning, match="only 5 of 10 requested reviews qualify"):
            picked = selected_ids(corpus, lexicon, 10, mode)
        assert picked == oracle_ids(corpus, lexicon, 10, mode)
        assert len(picked) == 5


def test_sentence_metric_matrix_equals_the_pair_loop(domains):
    corpora, _ = domains
    zero_mean = SentenceVectorSet("Z", 8, (("Z:0", np.ones(8)), ("Z:1", -np.ones(8))))
    sets = synth.synthetic_sentence_sets(corpora) + [zero_mean]
    matrix = sentence_metric_matrix(sets)
    means = [np.mean([vec for _, vec in s.vectors], axis=0) for s in sets]
    for i, j in ordered_pairs(len(sets)):
        # A mean vector of norm below 1e-12 on either side leaves the pair unrankable.
        if min(np.linalg.norm(means[i]), np.linalg.norm(means[j])) < 1e-12:
            assert "Z" in (sets[i].domain_id, sets[j].domain_id)
            assert math.isnan(matrix[i][j]), (i, j)
        else:
            assert matrix[i][j] == angular_similarity(means[i], means[j]), (i, j)


def baseline_acc(corpora, splits=5, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return train_eval_baseline(corpora, splits=splits, seed=seed).values


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
    ids = [oracles._hash_features(tokens) for _, tokens in corpus.reviews]
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


@pytest.mark.parametrize("n", [2, 3, 5, 20, 21, 140])
@pytest.mark.parametrize("decimals", [None, 2, 0], ids=["raw", "two-decimal", "whole"])
def test_chart_equals_the_numpy_chart(n, decimals):
    # Two-decimal cells, as in an accuracy matrix CSV, are where a mean summed
    # in another order reads differently at .2f; whole numbers make ties for
    # best source and target.
    rng = np.random.default_rng(n)
    domains = [f"D{i}" for i in range(n)]
    for _ in range(5):
        acc = rng.uniform(40.0, 100.0, size=(n, n))
        if decimals is not None:
            acc = np.round(acc, decimals)
        rows = chart(PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, domains, acc))
        assert [(r.domain_id, r.in_domain_acc, r.avg_degradation, r.best_source, r.best_target)
                for r in rows] == oracles.numpy_chart(acc, domains)


def test_numpy_sum_adds_in_numpy_order():
    rng = np.random.default_rng(12)
    for n in range(1, 301):
        # Magnitudes spread over 16 decades, so any other order of additions shows.
        values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        assert _numpy_sum(values.tolist()) == np.add.reduce(values), n
        zeros = np.full(n, -0.0)
        assert repr(_numpy_sum(zeros.tolist())) == repr(float(np.add.reduce(zeros))), n
