from __future__ import annotations

import numpy as np
import pytest

from conftest import build_corpus
from domainsim.errors import InputError
from domainsim.lexstats import (
    PolarityTable,
    SentimentLexicon,
    chi_square,
    filter_reviews,
    load_sentiment_lexicon_tsv,
    load_sentiwordnet,
    polar_words,
    polarity_table,
    review_score,
    significant_words,
)


def test_polarity_table_direct_ratios():
    corpus = build_corpus("d", [
        ("positive", "nice nice nice even"),
        ("negative", "nice even grim grim grim grim grim"),
    ])
    table = polarity_table(corpus)
    assert table["nice"] == (0.75, 0.25)
    assert table["even"] == (0.5, 0.5)
    assert table["grim"] == (0.0, 1.0)


def test_polar_words_threshold_boundary_inclusive():
    table = PolarityTable("d", {
        "edge": (0.75, 0.25),
        "mild": (0.6, 0.4),
        "hard": (0.0, 1.0),
    })
    assert polar_words(table) == {"edge", "hard"}


def test_polar_words_monotone_in_threshold():
    rng = np.random.default_rng(7)
    entries = {}
    for i in range(60):
        p = float(rng.random())
        entries[f"w{i}"] = (p, 1.0 - p)
    table = PolarityTable("d", entries)
    previous = polar_words(table, 0.0)
    for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
        current = polar_words(table, threshold)
        assert current <= previous
        previous = current


def test_chi_square_values():
    assert chi_square(5, 5) == 0.0
    assert abs(chi_square(10, 0) - 10.0) < 1e-9
    assert abs(chi_square(8, 2) - 3.6) < 1e-9


def test_chi_square_symmetry_and_scaling():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = int(rng.integers(0, 40)), int(rng.integers(1, 40))
        assert chi_square(a, b) == chi_square(b, a)
        scale = int(rng.integers(2, 5))
        assert abs(chi_square(a * scale, b * scale) - scale * chi_square(a, b)) < 1e-9


def test_chi_square_rejects_zero_total():
    with pytest.raises(InputError):
        chi_square(0, 0)


def test_significant_words_gates():
    rows = []
    # "lop" is one-sided with 10 occurrences: count gate met, chi2 = 10.
    rows += [("positive", "lop")] * 10
    # "few" one-sided but only 9 occurrences.
    rows += [("positive", "few")] * 9
    # "flat" has 100 perfectly balanced occurrences: chi2 = 0.
    rows += [("positive", "flat " * 50), ("negative", "flat " * 50)]
    corpus = build_corpus("d", [(label, text.strip()) for label, text in rows])
    words = significant_words(corpus)
    assert "lop" in words
    assert "few" not in words
    assert "flat" not in words


def test_significant_words_inclusive_boundaries():
    # 10 occurrences split 8/2 yields chi2 = 3.6 >= 1; split 7/3 yields 1.6;
    # split 6/4 yields 0.4 < 1 and is excluded.
    rows = [("positive", "edge")] * 6 + [("negative", "edge")] * 4
    corpus = build_corpus("d", rows)
    assert "edge" not in significant_words(corpus)
    rows = [("positive", "edge")] * 7 + [("negative", "edge")] * 3
    corpus = build_corpus("d", rows)
    assert "edge" in significant_words(corpus)


def test_significant_words_order_invariant():
    rows = [("positive", "aye bee")] * 12 + [("negative", "bee sea")] * 12
    corpus = build_corpus("d", rows)
    shuffled = build_corpus("d", rows[::-1])
    assert significant_words(corpus) == significant_words(shuffled)


LEXICON = SentimentLexicon({
    "fine": (0.5, 0.0),
    "soso": (0.375, 0.125),
    "grim": (0.0, 0.625),
    "flat": (0.25, 0.25),
})


def test_review_score_unknown_words_score_zero():
    assert review_score(["mystery", "unknown"], LEXICON) == 0.0


def test_review_score_singleton():
    assert review_score(["fine"], LEXICON) == 0.5


def test_review_score_harmonic_mean_of_positives():
    # Signed scores 0.5 and 0.25; harmonic mean is 2 / (1/0.5 + 1/0.25) = 1/3.
    assert abs(review_score(["fine", "soso"], LEXICON) - 1.0 / 3.0) < 1e-12


def test_review_score_mixed_signs_subtracts_harmonic_means():
    expected = 0.5 - 0.625
    assert abs(review_score(["fine", "grim"], LEXICON) - expected) < 1e-12


def test_review_score_zero_scored_words_ignored():
    assert review_score(["flat"], LEXICON) == 0.0


def test_review_score_bounded_on_random_inputs():
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(30)]
    entries = {w: (float(rng.random()), float(rng.random())) for w in words}
    lexicon = SentimentLexicon(entries)
    for _ in range(100):
        tokens = list(rng.choice(words, size=rng.integers(1, 15)))
        assert -1.0 <= review_score(tokens, lexicon) <= 1.0


def test_filter_reviews_threshold_and_length():
    lexicon = SentimentLexicon({"weak": (0.005, 0.0), "neg": (0.0, 0.5), "strong": (0.9, 0.0)})
    rows = [
        ("positive", "weak"),                  # score 0.005, inside the window
        ("negative", "neg " * 80),             # score -0.5, length 80
        ("positive", "strong " + "pad " * 100),  # length 101
    ]
    corpus = build_corpus("d", [(label, text.strip()) for label, text in rows])
    kept = filter_reviews(corpus, lexicon)
    assert [(r.review_id, score) for r, score in kept] == [("d:1", -0.5)]


def test_filter_reviews_boundary_is_strict():
    lexicon = SentimentLexicon({"exact": (0.01, 0.0)})
    corpus = build_corpus("d", [("positive", "exact")])
    assert filter_reviews(corpus, lexicon) == []


def test_load_sentiment_lexicon_tsv(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# comment\nGood\t0.75\t0.0\nbad\t0.0\t0.65\n")
    lexicon = load_sentiment_lexicon_tsv(path)
    assert lexicon.entries["good"] == (0.75, 0.0)
    assert lexicon.signed_score("bad") == -0.65


def test_load_sentiment_lexicon_tsv_errors(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("word\t0.5\n")
    with pytest.raises(InputError, match="3 tab-separated"):
        load_sentiment_lexicon_tsv(path)
    path.write_text("word\tx\t0.5\n")
    with pytest.raises(InputError, match="non-numeric"):
        load_sentiment_lexicon_tsv(path)


def test_load_sentiwordnet_aggregates_senses(tmp_path):
    path = tmp_path / "swn.txt"
    path.write_text(
        "# POS\tID\tPosScore\tNegScore\tSynsetTerms\tGloss\n"
        "a\t00001740\t0.5\t0.0\tgood#1\tgloss here\n"
        "a\t00002098\t1.0\t0.5\tgood#2 solid#1\tanother gloss\n"
        "n\t00003456\t0.0\t0.25\tGood#3\tnoun sense\n"
    )
    lexicon = load_sentiwordnet(path)
    assert lexicon.entries["good"] == (0.5, 0.25)
    assert lexicon.entries["solid"] == (1.0, 0.5)


def test_sentiment_lexicon_validates_scores():
    with pytest.raises(InputError, match="outside"):
        SentimentLexicon({"w": (1.5, 0.0)})
    with pytest.raises(InputError, match="no entries"):
        SentimentLexicon({})
