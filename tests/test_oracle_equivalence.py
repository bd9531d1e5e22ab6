"""Normalization, word counts, n-gram ids, LM1-LM4, NGRAM, the vector metrics, the review
selection and the CDSA baseline checked against the oracles.

Every ordered pair of a seeded 20-domain synthetic set is compared, so both
orientations of each pair and both rankable and unrankable pairs are
covered. LM2-LM4 allow 1e-9 relative error: the oracles sum -p*log(p)
terms where the package sums c*log(c), and LM4's |e_after - e_before|
cancels digits (up to ~1e-11 relative on these corpora). LM4 must also
equal, bit for bit, the oracle that repeats the package's arithmetic term
by term. NGRAM is a ratio of integer counts and must match exactly, and so
must LM1, a count of shared significant words, on corpora that hold a word
at each of its thresholds. The word and sentence metrics, loaded from
``tests/synth.py`` vector files, must be within 1e-12 of the oracles' acos
of ``math.fsum`` cosines: the values lie in [0, 2], and on the cosines the
oracle accepts, |cos| <= 0.999, acos magnifies rounding at most 23-fold. The
baseline's accuracy matrix must equal, bit for bit, the one from training
and scoring one model and one example at a time. The sentence metrics must
pick the same reviews as when each review was scored once per pick, and
their matrix must equal, bit for bit, ``oracles.sequential_angular`` of each
pair's mean vectors, the means and their zero check taken in plain Python.
The sentence metric of two one-row sets, ``word_metric`` and every cell of
``word_metric_matrix`` must equal, bit for bit, that angle computed in plain
Python with left-to-right sums, on drawn near-parallel, near-antiparallel
and unrelated vectors. A drawn vector file, its numbers
repr floats, short decimals and exponents amid tabs, blank lines and CRLF
ends, must load with the bits ``float`` gives each number
(``oracles.read_vectors``), or name the line of its first non-finite one.
The ``metrics`` command, run in process on drawn corpora with punctuation,
digits, dropped reviews and shared or disjoint vocabularies, must write the
oracles' LM1, LM4 and NGRAM values exactly and LM2 and LM3 within 1e-9.
``normalize`` must give the per-character rule's tokens on any text, and
a loaded corpus's word counts must equal the oracle's, in the same order.
``NgramIndex`` must list each corpus's n-grams and counts as the oracle's
table does, with ids in the ``sorted()`` order of the n-grams' tuples.
The recommendation chart, computed in plain Python, must equal, bit for
bit, the one numpy computed while the accuracy matrix was an ndarray, with
each mean added left to right.
The ``evaluate`` command, run in process on drawn accuracy matrices with
tied cells and metric files with tied and unrankable values, must write
every chart and evaluation cell as the oracles' values formatted alike.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import oracles
import synth
from conftest import build_corpus, polar_table
from domainsim import cli
from domainsim._numpy import sequential_sum
from domainsim.cdsa_baseline import _featurize, _train_lockstep, train_eval_baseline
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
    AdjectiveLexicon,
    _parse_vector_file,
    load_adjectives,
    load_sentence_vectors,
    load_word_vectors,
    select_test_vectors,
    sentence_metric_matrix,
    word_metric,
    word_metric_matrix,
)
from domainsim.errors import InputError, UnrankablePairError
from domainsim.evaluation import chart
from domainsim.labelled_metrics import lm1_overlap, lm2_skld, lm3_chameleon, lm4_matrix
from domainsim.lexstats import (
    filter_reviews,
    load_sentiment_lexicon_tsv,
    polar_words,
    polarity_table,
    review_score,
    significant_words,
)
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix, mirrored

RELATIVE_TOLERANCE = 1e-9
VECTOR_TOLERANCE = 1e-12
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
    tables = [polar_table(c) for c in corpora]
    unrankable = 0
    for i, j in ordered_pairs(len(corpora)):
        try:
            value = metric(tables[i], tables[j])
        except UnrankablePairError:
            value = math.nan
            unrankable += 1
        assert_close(value, oracle(reviews[i], reviews[j]), (i, j))
    assert 0 < unrankable < len(corpora) * (len(corpora) - 1)


def lm1_matrix(corpora):
    """LM1 as ``metrics`` computes it."""
    return mirrored([significant_words(c) for c in corpora], lm1_overlap)


def test_lm1_matches_oracle_exactly(domains):
    corpora, reviews = domains
    matrix = lm1_matrix(corpora)
    for i, j in ordered_pairs(len(corpora)):
        assert matrix[i][j] == oracles.lm1(reviews[i], reviews[j]), (i, j)


# (positive, negative) counts on each side of LM1's inclusive thresholds of
# 10 occurrences and a chi-square of 1.0 (10, 6 and 15, 10 give exactly 1.0).
LM1_EDGES = {"tenfold": (10, 0), "ninefold": (9, 0), "chione": (10, 6), "chibelow": (9, 6),
             "chiequal": (15, 10), "balanced": (8, 8)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lm1_matches_oracle_exactly_at_its_thresholds(seed):
    rng = np.random.default_rng(seed)
    reviews = []
    for _ in range(5):
        counts = {word: c for word, c in LM1_EDGES.items() if rng.random() < 0.7}
        counts.update({f"r{k}": rng.integers(0, 15, size=2) for k in rng.choice(40, 25, False)})
        rows = []
        for slot, label in enumerate((POSITIVE, NEGATIVE)):
            words = [word for word, c in counts.items() for _ in range(int(c[slot]))]
            words = [words[k] for k in rng.permutation(len(words))]
            rows += [(label, words[k:k + 3]) for k in range(0, len(words), 3)]
        reviews.append(rows)
    corpora = [Corpus(f"D{d}", [(label, tuple(tokens)) for label, tokens in rows])
               for d, rows in enumerate(reviews)]
    matrix = lm1_matrix(corpora)
    for i, j in ordered_pairs(len(corpora)):
        assert matrix[i][j] == oracles.lm1(reviews[i], reviews[j]), (i, j)
    significant = set().union(*map(oracles.significant_set, reviews))
    assert significant & set(LM1_EDGES) == {"tenfold", "chione", "chiequal"}


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


# A review of the differential test: words of a small pool, each maybe under
# its domain's prefix (so two domains share all, some or none of their words),
# with punctuation or a digit attached, among stopwords and numbers that
# normalise to nothing.
POOL = ("good", "bad", "fine", "awful", "day", "night", "plot", "cast")
TOKEN = st.tuples(st.booleans(), st.sampled_from(POOL), st.sampled_from(("", "!", ",", "'s", "9"))
                  ) | st.tuples(st.just(False), st.sampled_from(("the", "and", "42", "7!", "--")),
                                st.just(""))
REVIEW = st.tuples(st.sampled_from((POSITIVE, NEGATIVE)), st.lists(TOKEN, min_size=1, max_size=8))
DOMAIN = st.tuples(st.sampled_from(("", "x", "y")), st.lists(REVIEW, min_size=1, max_size=20))


def review_text(prefix: str, tokens) -> str:
    return " ".join((prefix if prefixed else "") + word + mark for prefixed, word, mark in tokens)


def metric_cells(path: Path) -> dict[tuple[int, int], str]:
    with path.open(newline="", encoding="utf-8") as fh:
        return {(int(row["source"][1:]), int(row["target"][1:])): row["value"]
                for row in csv.DictReader(fh)}


# Random labels seldom make a word significant, so LM1 gets a shared one here:
# "good" occurs 12 and 10 times, all in positive reviews, in D0 and D1, and
# only as "xgood" in D2; each domain's review of "the 42" is dropped.
SIGNIFICANT = [(POSITIVE, [(True, "good", "!"), (True, "good", ""), (True, "day", ",")])] * 6 + [
    (NEGATIVE, [(True, "bad", ""), (True, "bad", "'s"), (True, "night", "")])] * 5 + [
    (NEGATIVE, [(False, "the", ""), (False, "42", "")])]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(domains=st.lists(DOMAIN, min_size=2, max_size=5).filter(lambda domains: all(
    any(oracles.normalize(review_text(prefix, tokens), bundled_stopwords())
        for _, tokens in reviews) for prefix, reviews in domains)))
@example(domains=[("", SIGNIFICANT), ("", SIGNIFICANT[1:]), ("x", SIGNIFICANT)])
def test_metrics_command_matches_the_oracles(domains):
    texts = [[(label, review_text(prefix, tokens)) for label, tokens in reviews]
             for prefix, reviews in domains]
    normalized = [[(label, oracles.normalize(text, bundled_stopwords())) for label, text in rows]
                  for rows in texts]
    reviews = [[(label, tokens) for label, tokens in rows if tokens] for rows in normalized]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = []
        for d, rows in enumerate(texts):
            paths.append(root / f"D{d}.jsonl")
            paths[-1].write_text("".join(json.dumps({"domain": f"D{d}", "label": label,
                                                     "text": text}) + "\n"
                                         for label, text in rows), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["metrics", "--domains", ",".join(f"D{d}={path}" for d, path
                                                                in enumerate(paths)),
                             "--metrics", "LM1,LM2,LM3,LM4,NGRAM", "--out", str(root / "out")])
        assert code == 0
        dropped = [len(rows) - len(kept) for rows, kept in zip(normalized, reviews)]
        assert len(caught) == sum(map(bool, dropped))
        cells = {metric: metric_cells(root / "out" / f"metric_{metric}.csv")
                 for metric in ("LM1", "LM2", "LM3", "LM4", "NGRAM")}
    for i, j in ordered_pairs(len(domains)):
        pair = reviews[i], reviews[j]
        assert float(cells["LM1"][i, j]) == oracles.lm1(*pair), (i, j)
        assert float(cells["NGRAM"][i, j]) == oracles.ngram_overlap(*pair), (i, j)
        for metric, oracle in (("LM2", oracles.skld_metric), ("LM3", oracles.l1_metric)):
            expected = oracle(*pair)
            value = float(cells[metric][i, j]) if cells[metric][i, j] else None
            assert (value is None) == (expected is None), (metric, i, j)
            if value is not None:
                assert math.isclose(value, expected, rel_tol=RELATIVE_TOLERANCE), (metric, i, j)
        lm4 = oracles.loop_entropy_change(*pair)
        assert cells["LM4"][i, j] == ("" if lm4 is None else repr(lm4)), (i, j)


def selected_ids(corpus, lexicon, count, mode):
    # Row i of the vectors is (i, 1): a picked row names its review.
    vectors = np.column_stack([np.arange(len(corpus)), np.ones(len(corpus))])
    picked = select_test_vectors(corpus, filter_reviews(corpus, lexicon), vectors, count, mode)
    return [f"{corpus.domain_id}:{int(position)}" for position in picked[:, 0]]


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
    zero_mean = np.array([np.ones(8), -np.ones(8)])
    sets = [np.array([vec for _, vec in s.vectors]) for s in synth.synthetic_sentence_sets(corpora)]
    sets.append(zero_mean)
    matrix = sentence_metric_matrix(sets)
    means = [[oracles.left_to_right(column) / len(s) for column in zip(*s.tolist())] for s in sets]
    norms = [math.sqrt(oracles.left_to_right(x * x for x in mean)) for mean in means]
    for i, j in ordered_pairs(len(sets)):
        # A mean vector of norm below 1e-12 on either side leaves the pair unrankable.
        if min(norms[i], norms[j]) < 1e-12:
            assert sets[i] is zero_mean or sets[j] is zero_mean
            assert math.isnan(matrix[i][j]), (i, j)
        else:
            assert matrix[i][j] == oracles.sequential_angular(means[i], means[j]), (i, j)


@pytest.fixture(scope="module")
def vector_files(tmp_path_factory):
    data = synth.synthetic_reviews(n_domains=8, reviews_per_domain=60, seed=4)
    return synth.build_corpora(data), synth.write_vector_inputs(data, tmp_path_factory.mktemp("v"))


def assert_near(value, expected, pair):
    if expected is None:
        assert math.isnan(value), pair
    else:
        assert abs(value - expected) <= VECTOR_TOLERANCE, (pair, value, expected)


def assert_word_metric_matches_oracle(files, adjectives):
    matrix = word_metric_matrix([load_word_vectors(path) for path in files], adjectives)
    tables = [oracles.read_vectors(path) for path in files]
    unrankable = 0
    for i, j in ordered_pairs(len(files)):
        expected = oracles.word_metric(tables[i], tables[j], adjectives.words)
        unrankable += expected is None
        assert_near(matrix[i][j], expected, (i, j))
    assert 0 < unrankable < len(files) * (len(files) - 1)
    return tables


def test_word_metric_matches_oracle(vector_files):
    corpora, paths = vector_files
    files = [Path(paths["words"]) / f"{c.domain_id}.vec" for c in corpora]
    assert_word_metric_matches_oracle(files, load_adjectives(paths["adjectives"]))


def test_word_metric_matches_oracle_on_files_that_also_hold_other_words(vector_files, tmp_path):
    # Each file gains a vector for every non-adjective word of its domain,
    # before and after its adjectives; neighbouring domains share such words.
    corpora, paths = vector_files
    adjectives = load_adjectives(paths["adjectives"])
    rng = np.random.default_rng(17)
    files = []
    for corpus in corpora:
        others = [word for word in corpus.counts if word not in adjectives.words]
        lines = [f"{word} {' '.join(map(repr, rng.normal(size=8).tolist()))}\n" for word in others]
        source = Path(paths["words"]) / f"{corpus.domain_id}.vec"
        files.append(tmp_path / source.name)
        half = len(lines) // 2
        files[-1].write_text("".join(lines[:half]) + source.read_text() + "".join(lines[half:]))
    tables = assert_word_metric_matches_oracle(files, adjectives)
    # Had the other words counted as adjectives, some value would differ.
    everything = frozenset().union(*tables)
    assert any(oracles.word_metric(tables[i], tables[j], everything)
               != oracles.word_metric(tables[i], tables[j], adjectives.words)
               for i, j in ordered_pairs(len(files)))


@pytest.mark.parametrize("mode", ["top", "heldout"])
def test_sentence_metric_matches_oracle(vector_files, mode):
    corpora, paths = vector_files
    lexicon = load_sentiment_lexicon_tsv(paths["lexicon"])
    sets, oracle_sets = [], []
    for corpus in corpora:
        path = Path(paths["sentences"]) / f"{corpus.domain_id}.vec"
        vectors = load_sentence_vectors(path, corpus)
        qualifying = filter_reviews(corpus, lexicon)
        # Fewer than qualify, so the mode decides which reviews are averaged.
        assert len(qualifying) > 20
        sets.append(select_test_vectors(corpus, qualifying, vectors, 20, mode))
        table = oracles.read_vectors(path)
        oracle_sets.append([table[rid] for rid in oracle_ids(corpus, lexicon, 20, mode)])
    matrix = sentence_metric_matrix(sets)
    for i, j in ordered_pairs(len(corpora)):
        assert_near(matrix[i][j], oracles.sentence_metric(oracle_sets[i], oracle_sets[j]), (i, j))


def drawn_vector_pairs(dims):
    """60 pairs of ``dims``-component vectors: unrelated, near-parallel and near-antiparallel.

    Components spread over 8 decades, so a sum in any other order differs in its last bits.
    """
    rng = np.random.default_rng(dims)
    pairs = []
    for _ in range(20):
        x = rng.normal(size=dims) * 10.0 ** rng.integers(-4, 5, size=dims)
        unrelated = rng.normal(size=dims) * 10.0 ** rng.integers(-4, 5, size=dims)
        pairs += [(x, unrelated), (x, 3.0 * x * (1.0 + 1e-9 * rng.normal(size=dims))),
                  (x, -0.5 * x * (1.0 + 1e-9 * rng.normal(size=dims)))]
    return pairs


@pytest.mark.parametrize("dims", [1, 8, 64, 300])
def test_angles_equal_the_left_to_right_oracle_bit_for_bit(dims):
    pairs = drawn_vector_pairs(dims)
    expected = [oracles.sequential_angular(x.tolist(), y.tolist()) for x, y in pairs]
    # The sentence metric: the pairs as one-row sets, whose means are their rows.
    assert [sentence_metric_matrix([x[None], y[None]])[0][1] for x, y in pairs] == expected
    # The word metric: the pairs as one table each, every 7th word missing from the second.
    adj_s = {f"w{i}": x for i, (x, _) in enumerate(pairs)}
    adj_t = {f"w{i}": y for i, (_, y) in enumerate(pairs) if i % 7}
    common = sorted(adj_t)
    mean = oracles.left_to_right(expected[int(w[1:])] for w in common) / len(common)
    assert word_metric(adj_s, adj_t) == mean + len(common) / len(adj_s)
    # The matrix, each table's unit vectors taken once: a third table pairs every other word
    # with another pair's vector, a fourth shares no word with the others, and one word
    # is not an adjective.
    tables = [adj_s, adj_t, {f"w{i}": pairs[i - 1][1] for i in range(0, len(pairs), 2)},
              {f"u{i}": x for i, (x, _) in enumerate(pairs[:5])}]
    adjectives = frozenset().union(*tables) - {"w2"}
    cut = [{w: t[w].tolist() for w in t if w in adjectives} for t in tables]
    matrix = word_metric_matrix(tables, AdjectiveLexicon(adjectives))
    for i, j in ordered_pairs(len(tables)):
        common = sorted(cut[i].keys() & cut[j].keys())
        if not common:
            assert math.isnan(matrix[i][j]), (i, j)
            continue
        mean = oracles.left_to_right(oracles.sequential_angular(cut[i][w], cut[j][w])
                                     for w in common) / len(common)
        assert matrix[i][j] == mean + len(common) / len(cut[i].keys() | cut[j].keys()), (i, j)
    assert [math.isnan(v) for v in matrix[3]] == [True] * 4


# The texts of vector components: repr floats over many decades, short decimals and exponents,
# each with or without a sign. Squares stay finite, so no squared norm overflows.
NUMBER_TEXTS = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150).map(repr),
    st.builds("{}{}.{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 999),
              st.sampled_from(["", "5", "25", "0625"])),
    st.builds("{}{}{}{}".format, st.sampled_from(["", "+", "-", "."]), st.integers(0, 99999),
              st.sampled_from(["e", "E", "e+", "E-"]), st.integers(0, 140)),
    st.builds("{}{}e-{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
              st.integers(300, 330)),
)
NON_FINITE = st.sampled_from(["inf", "-inf", "+Infinity", "INF", "nan", "-NaN", "+nan"])
SPACE = st.sampled_from([" ", "\t", "   ", " \t "])


@st.composite
def drawn_vector_files(draw):
    """A vector file's text, its entries' lines, and the line of its first non-finite number."""
    rows = draw(st.integers(1, 6))
    dims = draw(st.integers(1, 5))
    numbers = [[draw(NUMBER_TEXTS) for _ in range(dims)] for _ in range(rows)]
    planted = draw(st.none() | st.tuples(st.integers(0, rows - 1), st.integers(0, dims - 1)))
    if planted:
        numbers[planted[0]][planted[1]] = draw(NON_FINITE)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{rows}{draw(SPACE)}{dims}{end}"] if draw(st.booleans()) else []
    linenos = []
    for i, row in enumerate(numbers):
        lines += [draw(st.sampled_from(["", " ", "\t"])) + end] * draw(st.integers(0, 1))
        fields = [f"w{i}", *row]
        line = draw(st.sampled_from(["", " ", "\t"])) + fields[0]
        for field in fields[1:]:
            line += draw(SPACE) + field
        lines.append(line + draw(st.sampled_from(["", " ", "\t "])) + end)
        linenos.append(len(lines))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), linenos, planted and linenos[planted[0]]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(drawn_vector_files())
def test_vector_components_have_the_bits_that_float_gives(drawn):
    text, linenos, non_finite_line = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.vec"
        path.write_bytes(text.encode())
        table = oracles.read_vectors(path)
        if non_finite_line:
            with pytest.raises(InputError) as raised:
                _parse_vector_file(path)
            assert str(raised.value) == (f"{path}, line {non_finite_line}:"
                                         f" non-finite vector component")
            return
        keys, matrix, lines, _ = _parse_vector_file(path)
    assert keys == list(table) and lines == linenos
    assert matrix.tobytes() == np.array(list(table.values()), dtype=np.float64).tobytes()


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

    Widths from the narrowest a review can have (it has at least one token)
    to far past the typical one, so most rows of a step end in pad columns.
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
    features, lengths, _, _ = _featurize([corpus])
    ids = [oracles._hash_features(tokens) for _, tokens in corpus.reviews]
    # Magnitudes spread over 12 decades, so any change of summation order shows.
    by_id = rng.normal(size=oracles.FEATURE_DIM) * 10.0 ** rng.integers(-6, 7, size=oracles.FEATURE_DIM)
    weights = np.append(by_id[np.unique(np.concatenate(ids))], 0.0)
    values = weights[features]
    sums = sequential_sum(values)
    for row, idx in enumerate(ids):
        assert len(idx) == lengths[row] == row + 1
        assert sums[row] == oracles.left_to_right(by_id[idx].tolist()), row + 1
    # Cut to a step's widest review, the trailing pad columns still add nothing.
    assert np.array_equal(sequential_sum(values[:127, :127]), sums[:127])


@pytest.mark.parametrize("make_corpora", [
    lambda: synth.build_corpora(synth.synthetic_reviews(n_domains=3, reviews_per_domain=120, seed=3)),
    wide_corpora,
], ids=["synthetic", "wide"])
def test_lockstep_weights_equal_one_model_at_a_time(make_corpora):
    corpora = make_corpora()
    features, lengths, labels, pad = _featurize(corpora)
    examples = [example for corpus in corpora for example in oracles._featurize(corpus)]
    distinct = np.unique(np.concatenate([idx for idx, _ in examples]))
    # Training sets of different sizes, overlapping, in arbitrary order.
    n = len(examples)
    train_sets = [np.arange(n // 3), np.arange(n)[::-7], np.array([5, n - 60, 17]), np.arange(n // 2, n - 30)]
    weights, bias = _train_lockstep(
        features, lengths, labels, pad, train_sets,
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


@st.composite
def evaluate_inputs(draw):
    """Domains in a drawn order, an accuracy matrix, metric values and Ks for ``evaluate``.

    The cells are two-decimal or whole numbers from a drawn range, so a narrow range ties
    many of them; a metric value is a small integer (tied), any finite float or None
    (unrankable).
    """
    n = draw(st.integers(2, 8))
    domains = draw(st.permutations([f"D{i}" for i in range(n)]))
    scale = draw(st.sampled_from([100, 1]))
    low = draw(st.integers(0, 100 * scale - 1))
    high = draw(st.integers(low + 1, 100 * scale))
    cells = st.lists(st.integers(low, high), min_size=n, max_size=n)
    acc = [[c / scale for c in row] for row in draw(st.lists(cells, min_size=n, max_size=n))]
    value = st.one_of(st.none(), st.integers(-3, 3).map(float),
                      st.floats(-1e3, 1e3, allow_nan=False))
    metrics = draw(st.lists(st.sampled_from(["LM2", "ULM1"]), min_size=1, unique=True))
    values = {metric: draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                    min_size=n, max_size=n)) for metric in metrics}
    ks = draw(st.lists(st.integers(1, n - 1), min_size=1, unique=True))
    return domains, acc, values, ks


def csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(inputs=evaluate_inputs())
def test_evaluate_command_matches_the_chart_and_score_oracles(inputs):
    domains, acc, values, ks = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        out.mkdir()
        cli.write_accuracy_matrix_csv(PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, domains, acc),
                                      root / "matrix.csv")
        for metric, rows in values.items():
            floats = [[math.nan if v is None else v for v in row] for row in rows]
            cli.write_metric_csv(PairMatrix(metric, cli.METRICS[metric][0], domains, floats),
                                 out / f"metric_{metric}.csv")
        assert cli.main(["evaluate", "--accuracy-matrix", str(root / "matrix.csv"),
                         "--metrics", ",".join(values), "--k", ",".join(map(str, ks)),
                         "--out", str(out)]) == 0
        chart_rows = csv_rows(out / "recommendation_chart.csv")
        eval_rows = csv_rows(out / "eval_report.csv")
    assert chart_rows == [[domain, f"{in_domain:.2f}", f"{degradation:.2f}", source, target]
                          for domain, in_domain, degradation, source, target
                          in oracles.numpy_chart(np.array(acc), domains)]
    expected = []
    for metric, rows in values.items():
        for k in ks:
            precision, nra = oracles.evaluation_scores(acc, rows, domains,
                                                       cli.METRICS[metric][0], k)
            expected.append([metric, str(k), f"{precision:.2f}", f"{nra:.3f}"])
    assert eval_rows == expected
