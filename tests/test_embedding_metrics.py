from __future__ import annotations

import numpy as np
import pytest

from conftest import build_corpus
from domainsim.embedding_metrics import (
    AdjectiveLexicon,
    SentenceVectorSet,
    WordVectorTable,
    angular_similarity,
    load_adjectives,
    load_sentence_vectors,
    load_word_vectors,
    select_test_vectors,
    sentence_metric,
    word_metric,
    word_metric_matrix,
)
from domainsim.errors import InputError, UnrankablePairError
from domainsim.lexstats import SentimentLexicon, filter_reviews


def test_load_word_vectors_basic(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0 0.0\nbad 0.0 1.0\n")
    table = load_word_vectors(path)
    assert table.dims == 2
    assert set(table.entries) == {"good", "bad"}
    assert table.domain_id == "d"
    assert np.allclose(table["good"], [1.0, 0.0])


def test_load_word_vectors_header_consumed(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("2 2\ngood 1.0 0.0\nbad 0.0 1.0\n")
    table = load_word_vectors(path, domain_id="dom")
    assert table.dims == 2
    assert table.domain_id == "dom"
    assert len(table.entries) == 2


def test_load_word_vectors_dims_mismatch_names_line(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0 0.0\nbad 0.0 1.0 0.5\n")
    with pytest.raises(InputError, match="line 2"):
        load_word_vectors(path)


def test_load_word_vectors_rejects_zero_vector(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0 0.0\nnull 0.0 0.0\n")
    with pytest.raises(InputError, match="zero vector"):
        load_word_vectors(path)


def test_load_word_vectors_rejects_duplicates_and_junk(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0\ngood 2.0\n")
    with pytest.raises(InputError, match="duplicate"):
        load_word_vectors(path)
    path.write_text("good one\n")
    with pytest.raises(InputError, match="non-numeric"):
        load_word_vectors(path)
    path.write_text("good 1.0 0.0\nbad nan 1.0\n")
    with pytest.raises(InputError, match=r"line 2: non-finite"):
        load_word_vectors(path)
    path.write_text("good inf 0.0\n")
    with pytest.raises(InputError, match=r"d\.vec, line 1: non-finite"):
        load_word_vectors(path)
    path.write_text("")
    with pytest.raises(InputError, match="no vector entries"):
        load_word_vectors(path)


def test_load_sentence_vectors_keeps_ids_and_order(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("d:0 1.0 2.0\nd:1 3.0 4.0\n")
    vectors = load_sentence_vectors(path, "d")
    assert [rid for rid, _ in vectors.vectors] == ["d:0", "d:1"]
    assert vectors.dims == 2


def test_angular_similarity_reference_points():
    assert abs(angular_similarity(np.array([2.0, 0.0]), np.array([5.0, 0.0])) - 1.0) < 1e-12
    assert abs(angular_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - 0.5) < 1e-12
    assert abs(angular_similarity(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) - 0.0) < 1e-12


def test_angular_similarity_small_angles_keep_full_accuracy():
    theta = 1e-9
    u = np.array([1.0, 0.0])
    near = np.array([np.cos(theta), np.sin(theta)])
    near_anti = np.array([-np.cos(theta), np.sin(theta)])
    assert abs(angular_similarity(u, near) - (1.0 - theta / np.pi)) < 1e-15
    assert abs(angular_similarity(u, near_anti) - theta / np.pi) < 1e-15


def test_angular_similarity_rejects_zero_and_mismatched():
    with pytest.raises(InputError, match="zero"):
        angular_similarity(np.zeros(2), np.ones(2))
    with pytest.raises(InputError, match="dimensions"):
        angular_similarity(np.ones(2), np.ones(3))


def test_angular_similarity_symmetric_and_scale_invariant():
    rng = np.random.default_rng(14)
    for _ in range(50):
        v1 = rng.normal(size=6)
        v2 = rng.normal(size=6)
        s = angular_similarity(v1, v2)
        assert abs(s - angular_similarity(v2, v1)) < 1e-12
        assert abs(s - angular_similarity(3.7 * v1, 0.2 * v2)) < 1e-9
        assert 0.0 <= s <= 1.0


ADJ = AdjectiveLexicon(frozenset({"good", "bad", "fair"}))


def test_word_metric_identity():
    entries = {"good": np.array([1.0, 2.0]), "bad": np.array([2.0, -1.0]),
               "noun": np.array([5.0, 5.0])}
    t1 = WordVectorTable("a", 2, entries)
    t2 = WordVectorTable("b", 2, dict(entries))
    assert abs(word_metric(t1, t2, ADJ) - 2.0) < 1e-12


def test_word_metric_orthogonal_single_adjective():
    t1 = WordVectorTable("a", 2, {"good": np.array([1.0, 0.0])})
    t2 = WordVectorTable("b", 2, {"good": np.array([0.0, 1.0])})
    assert abs(word_metric(t1, t2, ADJ) - 1.5) < 1e-12


def test_word_metric_jaccard_term():
    # Common adjective set {good}; each side has 2 adjectives; J = 1/3.
    t1 = WordVectorTable("a", 2, {"good": np.array([1.0, 1.0]), "bad": np.array([1.0, 0.0])})
    t2 = WordVectorTable("b", 2, {"good": np.array([1.0, 2.0]), "fair": np.array([0.0, 1.0])})
    expected = angular_similarity(t1["good"], t2["good"]) + 1.0 / 3.0
    assert abs(word_metric(t1, t2, ADJ) - expected) < 1e-12


def test_word_metric_no_common_adjectives_unrankable():
    t1 = WordVectorTable("a", 2, {"good": np.array([1.0, 0.0])})
    t2 = WordVectorTable("b", 2, {"bad": np.array([1.0, 0.0])})
    with pytest.raises(UnrankablePairError):
        word_metric(t1, t2, ADJ)


def test_word_metric_ignores_non_adjectives():
    t1 = WordVectorTable("a", 2, {"good": np.array([1.0, 0.0])})
    t2 = WordVectorTable("b", 2, {"good": np.array([1.0, 0.1])})
    base = word_metric(t1, t2, ADJ)
    t1b = WordVectorTable("a", 2, {**t1.entries, "noun": np.array([9.0, 9.0])})
    t2b = WordVectorTable("b", 2, {**t2.entries, "verb": np.array([1.0, 9.0])})
    assert word_metric(t1b, t2b, ADJ) == base
    assert 0.0 < base <= 2.0


def test_word_metric_ranking_invariant_under_rotation():
    rng = np.random.default_rng(30)
    adjectives = AdjectiveLexicon(frozenset(f"adj{i}" for i in range(6)))
    def random_table(name):
        return WordVectorTable(
            name, 4, {f"adj{i}": rng.normal(size=4) for i in range(6)}
        )
    base = random_table("base")
    others = [random_table(f"o{i}") for i in range(4)]
    rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    def rotate(tab):
        return WordVectorTable(tab.domain_id, 4,
                               {w: rotation @ v for w, v in tab.entries.items()})
    plain = [word_metric(base, o, adjectives) for o in others]
    rotated = [word_metric(rotate(base), rotate(o), adjectives) for o in others]
    assert np.argsort(plain).tolist() == np.argsort(rotated).tolist()
    assert np.allclose(plain, rotated, atol=1e-9)


def test_sentence_metric_values():
    s1 = SentenceVectorSet("a", 2, (("a:0", np.array([1.0, 0.0])), ("a:1", np.array([0.0, 1.0]))))
    assert abs(sentence_metric(s1, s1) - 1.0) < 1e-12
    s2 = SentenceVectorSet("b", 2, (("b:0", np.array([1.0, 1.0])),))
    # Mean of s1 is (0.5, 0.5), parallel to (1, 1).
    assert abs(sentence_metric(s1, s2) - 1.0) < 1e-12
    s3 = SentenceVectorSet("c", 2, (("c:0", np.array([1.0, 0.0])),))
    s4 = SentenceVectorSet("d", 2, (("d:0", np.array([0.0, 1.0])),))
    assert abs(sentence_metric(s3, s4) - 0.5) < 1e-12


def test_sentence_metric_zero_mean_unrankable():
    s1 = SentenceVectorSet("a", 2, (("a:0", np.array([1.0, 0.0])), ("a:1", np.array([-1.0, 0.0]))))
    s2 = SentenceVectorSet("b", 2, (("b:0", np.array([1.0, 1.0])),))
    with pytest.raises(UnrankablePairError):
        sentence_metric(s1, s2)


def _scored_corpus(n, strong_positions=()):
    rows = []
    for i in range(n):
        word = "strong" if i in strong_positions else "mild"
        rows.append(("positive", word))
    return build_corpus("d", rows)


SCORING = SentimentLexicon({"strong": (0.9, 0.0), "mild": (0.2, 0.0)})


def _qualifying(corpus):
    return filter_reviews(corpus, SCORING)


def _vectors_for(corpus):
    rng = np.random.default_rng(1)
    return SentenceVectorSet(
        "d", 3, tuple((r.review_id, rng.normal(size=3)) for r in corpus.reviews)
    )


def test_select_test_vectors_takes_requested_count(tmp_path):
    corpus = _scored_corpus(600)
    vecs = _vectors_for(corpus)
    picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=500)
    assert len(picked.vectors) == 500


def test_select_test_vectors_shortfall_warns():
    corpus = _scored_corpus(300)
    vecs = _vectors_for(corpus)
    with pytest.warns(UserWarning, match="only 300"):
        picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=500)
    assert len(picked.vectors) == 300


def test_select_test_vectors_top_mode_ranks_by_magnitude():
    corpus = _scored_corpus(2, strong_positions={1})
    vecs = _vectors_for(corpus)
    picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=1, mode="top")
    assert [rid for rid, _ in picked.vectors] == ["d:1"]


def test_select_test_vectors_heldout_takes_tail():
    corpus = _scored_corpus(5)
    vecs = _vectors_for(corpus)
    picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=2, mode="heldout")
    assert [rid for rid, _ in picked.vectors] == ["d:3", "d:4"]


def test_select_test_vectors_requires_coverage():
    corpus = _scored_corpus(3)
    vecs = SentenceVectorSet("d", 3, (("d:0", np.ones(3)),))
    with pytest.raises(InputError, match="miss 2"):
        select_test_vectors(corpus, _qualifying(corpus), vecs, count=2)


def test_select_test_vectors_rejects_bad_mode():
    corpus = _scored_corpus(3)
    with pytest.raises(InputError, match="selection mode"):
        select_test_vectors(corpus, _qualifying(corpus), _vectors_for(corpus), mode="middle")


def test_load_adjectives(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("Good\n# comment\nbad\n\n")
    assert load_adjectives(path).words == frozenset({"good", "bad"})
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(InputError, match="empty"):
        load_adjectives(empty)


def test_word_metric_matrix_mirrors_and_marks_unrankable():
    t1 = WordVectorTable("a", 2, {"good": np.array([1.0, 0.0])})
    t2 = WordVectorTable("b", 2, {"good": np.array([0.0, 1.0])})
    t3 = WordVectorTable("c", 2, {"noun": np.array([1.0, 1.0])})
    values = word_metric_matrix([t1, t2, t3], ADJ)
    assert values.shape == (3, 3)
    assert values[0, 1] == values[1, 0] == pytest.approx(1.5)
    assert np.isnan(values[0, 2]) and np.isnan(values[2, 0])
    assert np.isnan(np.diag(values)).all()
