from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import build_corpus
from domainsim.corpus import (
    NEGATIVE,
    POSITIVE,
    Corpus,
    Review,
    load_corpus,
    load_stopwords,
    ngram_overlap_matrix,
    normalize,
    top_k_ngrams,
    write_overlap_matrix_csv,
)
from domainsim.errors import InputError
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix


def test_normalize_strips_punctuation_numbers_and_stopwords():
    assert normalize("The plot, 100% UNPREDICTABLE!") == ["plot", "unpredictable"]


def test_normalize_empty_and_stopword_only_inputs():
    assert normalize("") == []
    assert normalize("a an the") == []


def test_normalize_preserves_order_and_interior_stripping():
    assert normalize("well-made, GREAT value!!") == ["wellmade", "great", "value"]


def test_normalize_custom_stopwords():
    assert normalize("alpha beta gamma", stopwords=frozenset({"beta"})) == ["alpha", "gamma"]


def test_normalize_idempotent_on_random_text():
    rng = np.random.default_rng(3)
    pieces = ["Good!", "bad,", "100", "the", "12x", "olÉ", "semi-dry", "A+", "???", "item9"]
    for _ in range(50):
        text = " ".join(rng.choice(pieces, size=rng.integers(0, 12)))
        once = normalize(text)
        assert normalize(" ".join(once)) == once


def _write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def test_load_jsonl_counts_and_order(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [
        {"domain": "d", "label": "positive", "text": "good product"},
        {"domain": "d", "label": "negative", "text": "bad product"},
    ])
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert corpus.counts == {"good": (1, 0), "product": (1, 1), "bad": (0, 1)}
    assert [r.review_id for r in corpus.reviews] == ["d:0", "d:1"]
    assert corpus.reviews[0].tokens == ("good", "product")


def test_load_jsonl_drops_empty_normalized_review_with_warning(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [
        {"domain": "d", "label": "positive", "text": "lovely"},
        {"domain": "d", "label": "negative", "text": "100 . the"},
    ])
    with pytest.warns(UserWarning, match="zero tokens"):
        corpus = load_corpus(path)
    assert len(corpus) == 1


def test_load_balanced_ten_thousand(tmp_path):
    path = tmp_path / "big.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(10_000):
            label = "positive" if i % 2 == 0 else "negative"
            fh.write(json.dumps({"domain": "big", "label": label,
                                 "text": f"token{'x' * (i % 3)} filler"}) + "\n")
    corpus = load_corpus(path)
    assert corpus.label_counts() == (5000, 5000)


@pytest.mark.parametrize(
    "record, match",
    [
        ({"domain": "d", "label": "meh", "text": "x"}, "unknown label"),
        ({"domain": "d", "label": "positive"}, "missing 'text'"),
        ({"label": "positive", "text": "x"}, "missing 'domain'"),
        ({"domain": 7, "label": "positive"}, "missing 'text'"),
        ({"domain": "d", "label": "positive", "text": ["great", "movie"]}, "'text' is not a string"),
        ({"domain": "d", "label": "positive", "text": {"awful": 1}}, "'text' is not a string"),
        ({"domain": "d", "label": "positive", "text": 5}, "'text' is not a string"),
        ({"domain": 7, "label": "positive", "text": "x"}, "'domain' is not a string"),
        ({"domain": "d", "label": ["positive"], "text": "x"}, "'label' is not a string"),
    ],
)
def test_load_jsonl_bad_records(tmp_path, record, match):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [record])
    with pytest.raises(InputError, match=match) as raised:
        load_corpus(path)
    assert f"{path}, line 1:" in str(raised.value)


def test_load_jsonl_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"domain": "d", "label": "positive", "text": "ok fine"}\n{broken\n')
    with pytest.raises(InputError, match="line 2"):
        load_corpus(path)


def test_load_jsonl_mixed_domains_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [
        {"domain": "d1", "label": "positive", "text": "fine"},
        {"domain": "d2", "label": "positive", "text": "fine"},
    ])
    with pytest.raises(InputError, match="mixed domains"):
        load_corpus(path)


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    with pytest.raises(InputError, match="no records"):
        load_corpus(path)


def test_load_missing_file_rejected(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_corpus(tmp_path / "absent.jsonl")


def test_load_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("domain,label,text\nd,positive,good product\nd,negative,bad product\n")
    corpus = load_corpus(path, format="csv")
    assert corpus.counts["product"] == (1, 1)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("domain,text\nd,whatever\n")
    with pytest.raises(InputError, match="label"):
        load_corpus(path, format="csv")


def test_load_unknown_format(tmp_path):
    path = tmp_path / "d.xml"
    path.write_text("<x/>")
    with pytest.raises(InputError, match="unknown corpus format"):
        load_corpus(path, format="xml")


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("Foo\nbar\n\n")
    assert load_stopwords(path) == frozenset({"foo", "bar"})


def test_load_stopwords_normalizes_entries_like_tokens(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("don't\nIt's\nthe\n123\n")
    stopwords = load_stopwords(path)
    assert stopwords == frozenset({"dont", "its", "the"})
    assert normalize("I don't think it's the best", stopwords) == ["i", "think", "best"]


def test_loaded_corpora_share_token_label_and_domain_objects(tmp_path):
    paths = []
    for name, texts in (("a", ["Great movie!", "great plot, dull movie"]),
                        ("b", ["dull plot", "a GREAT film"])):
        path = tmp_path / f"{name}.jsonl"
        _write_jsonl(path, [{"domain": name, "label": label, "text": text}
                            for label, text in zip(("positive", "negative"), texts)])
        paths.append(path)
    corpora = [load_corpus(path) for path in paths]
    first: dict[str, str] = {}
    for corpus in corpora:
        for review in corpus.reviews:
            assert review.label is POSITIVE or review.label is NEGATIVE
            assert review.domain_id is corpus.domain_id
            for token in review.tokens:
                assert first.setdefault(token, token) is token
    assert set(first) == {"great", "movie", "plot", "dull", "film"}
    assert not hasattr(corpora[0].reviews[0], "__dict__")


def test_review_rejects_empty_tokens_and_bad_label():
    with pytest.raises(InputError):
        Review("d", "positive", (), "d:0")
    with pytest.raises(InputError):
        Review("d", "mixed", ("x",), "d:0")


def test_corpus_rejects_no_reviews():
    with pytest.raises(InputError, match="no reviews"):
        Corpus("d", [])


def test_counts_consistent_with_reviews():
    rng = np.random.default_rng(4)
    vocab = [f"w{c}" for c in "abcdefgh"]
    for _ in range(20):
        rows = []
        for i in range(int(rng.integers(1, 15))):
            label = "positive" if rng.random() < 0.5 else "negative"
            tokens = " ".join(rng.choice(vocab, size=rng.integers(1, 6)))
            rows.append((label, tokens))
        corpus = build_corpus("d", rows)
        pos_total = sum(len(r.tokens) for r in corpus.reviews if r.label == "positive")
        neg_total = sum(len(r.tokens) for r in corpus.reviews if r.label == "negative")
        assert sum(c_p for c_p, _ in corpus.counts.values()) == pos_total
        assert sum(c_n for _, c_n in corpus.counts.values()) == neg_total


def test_top_k_frequency_dominance():
    rows = [("positive", "good product")] * 5 + [("negative", "bad service"), ("negative", "bad value")]
    corpus = build_corpus("d", rows)
    assert top_k_ngrams(corpus, 2, 3)[0] == ("good", "product")


def test_top_k_tie_breaks_lexicographically():
    rows = [("positive", "beta word"), ("positive", "alpha word")] * 3
    corpus = build_corpus("d", rows)
    top = top_k_ngrams(corpus, 2, 2)
    assert top == [("alpha", "word"), ("beta", "word")]


def test_top_k_returns_fewer_when_vocabulary_small():
    corpus = build_corpus("d", [("positive", "one two three four"), ("negative", "five six seven")])
    assert len(top_k_ngrams(corpus, 3, 10)) == 3


def test_top_k_rejects_bad_order_and_k():
    corpus = build_corpus("d", [("positive", "x y")])
    with pytest.raises(InputError, match="order"):
        top_k_ngrams(corpus, 5, 3)
    with pytest.raises(InputError, match="k must be positive"):
        top_k_ngrams(corpus, 2, 0)


def test_ngrams_do_not_cross_review_boundaries():
    corpus = build_corpus("d", [("positive", "alpha beta"), ("negative", "gamma delta")])
    grams = corpus.ngram_counts(2)
    assert ("beta", "gamma") not in grams
    assert grams[("alpha", "beta")] == 1


def test_ngram_overlap_identity_and_disjoint():
    rows = [("positive", "alpha beta gamma delta"), ("negative", "beta gamma delta epsilon")]
    c1, twin = build_corpus("a", rows), build_corpus("a2", rows)
    c2 = build_corpus("b", [("positive", "uno dos tres cuatro cinco")])
    values = ngram_overlap_matrix([c1, twin, c2])
    assert values[0, 1] == 1.0
    assert values[0, 2] == values[1, 2] == 0.0


def test_ngram_overlap_symmetric_and_self_unity_on_random_corpora():
    rng = np.random.default_rng(8)
    vocab = [f"v{c}" for c in "abcdefghij"]
    corpora = []
    for d in range(6):
        rows = []
        for i in range(int(rng.integers(1, 10))):
            label = "positive" if i % 2 else "negative"
            rows.append((label, " ".join(rng.choice(vocab, size=rng.integers(1, 7)))))
        corpora.append(build_corpus(f"d{d}", rows))
    for c in corpora:
        assert ngram_overlap_matrix([c, c])[0, 1] == 1.0
    # The reversed order computes each pair with its arguments swapped.
    values = ngram_overlap_matrix(corpora)
    swapped = ngram_overlap_matrix(corpora[::-1])[::-1, ::-1]
    for i in range(len(corpora)):
        for j in range(i + 1, len(corpora)):
            assert values[i, j] == swapped[i, j]


def test_ngram_overlap_granularity_on_rich_corpora():
    # With at least k n-grams per order the value is a multiple of 1/(k*orders).
    rng = np.random.default_rng(9)
    vocab = [f"t{c}{d}" for c in "abcdef" for d in "abcdef"]
    def rich(name, offset):
        rows = []
        for i in range(120):
            label = "positive" if i % 2 else "negative"
            words = rng.choice(vocab[offset : offset + 24], size=6)
            rows.append((label, " ".join(words)))
        return build_corpus(name, rows)
    c1, c2 = rich("r1", 0), rich("r2", 8)
    for order in (2, 3, 4):
        assert len(c1.ngram_counts(order)) >= 10
        assert len(c2.ngram_counts(order)) >= 10
    value = ngram_overlap_matrix([c1, c2])[0, 1]
    assert abs(value * 30 - round(value * 30)) < 1e-9


def test_ngram_overlap_rejects_empty_orders():
    corpus = build_corpus("d", [("positive", "x y")])
    with pytest.raises(InputError, match="orders"):
        ngram_overlap_matrix([corpus, corpus], orders=())


def test_overlap_matrix_upper_triangle_csv(tmp_path):
    c1 = build_corpus("a", [("positive", "alpha beta gamma")])
    c2 = build_corpus("b", [("positive", "alpha beta gamma")])
    values = ngram_overlap_matrix([c1, c2])
    assert values[0, 1] == values[1, 0] == 1.0
    out = tmp_path / "overlap.csv"
    write_overlap_matrix_csv(PairMatrix("NGRAM", HIGHER_IS_MORE_SIMILAR, ("a", "b"), values), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "domain,a,b"
    assert lines[1] == "a,,1.00"
    assert lines[2] == "b,,"
