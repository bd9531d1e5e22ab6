from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from conftest import build_corpus
from domainsim.corpus import load_corpus
from domainsim.embedding_metrics import (
    AdjectiveLexicon,
    angular_similarity,
    load_adjectives,
    load_sentence_vectors,
    load_word_vectors,
    select_test_vectors,
    sentence_metric_matrix,
    word_metric,
    word_metric_matrix,
)
from domainsim.errors import InputError, UnrankablePairError
from domainsim.lexstats import filter_reviews


def test_load_word_vectors_basic(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0 0.0\nbad 0.0 1.0\n")
    table = load_word_vectors(path)
    assert list(table) == ["good", "bad"]
    assert all(len(vec) == 2 for vec in table.values())
    assert np.allclose(table["good"], [1.0, 0.0])


def test_load_word_vectors_header_consumed(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("2 2\ngood 1.0 0.0\nbad 0.0 1.0\n")
    table = load_word_vectors(path)
    assert all(len(vec) == 2 for vec in table.values())
    assert len(table) == 2


def test_load_word_vectors_rejects_a_header_count_other_than_the_entries(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("3 2\ngood 1.0 0.0\nbad 0.0 1.0\n")
    with pytest.raises(InputError, match=r"d\.vec, line 1: header gives 3 entries, the file has 2"):
        load_word_vectors(path)
    path.write_text("1 2\nd:0 1.0 0.0\nd:1 0.0 1.0\n")
    corpus = build_corpus("d", [("positive", "good"), ("negative", "bad")])
    with pytest.raises(InputError, match=r"d\.vec, line 1: header gives 1 entries, the file has 2"):
        load_sentence_vectors(path, corpus)


def test_load_word_vectors_dims_mismatch_names_line(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0 0.0\nbad 0.0 1.0 0.5\n")
    with pytest.raises(InputError, match="line 2"):
        load_word_vectors(path)


def test_load_word_vectors_rejects_zero_vector(tmp_path):
    path = tmp_path / "d.vec"
    path.write_text("good 1.0 0.0\nnull 0.0 0.0\n")
    with pytest.raises(InputError, match=r"line 2: zero vector for 'null'"):
        load_word_vectors(path)
    # 1e-200 squared is 0.0, so no angle to it is defined; 1e-150 squared is not.
    path.write_text("good 1.0 0.0\ntiny 1e-200 -1e-200\nfine 1e-150 0.0\n")
    with pytest.raises(InputError, match=r"line 2: zero vector for 'tiny'"):
        load_word_vectors(path)
    path.write_text("good 1.0 0.0\nfine 1e-150 0.0\n")
    assert list(load_word_vectors(path)) == ["good", "fine"]


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
    corpus = build_corpus("d", [("positive", "good"), ("negative", "bad")])
    path = tmp_path / "d.vec"
    path.write_text("d:0 1.0 2.0\nd:1 3.0 4.0\n")
    assert load_sentence_vectors(path, corpus).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # Row i is the vector of review i, whatever line holds it; other keys are ignored.
    path.write_text("d:1 3.0 4.0\nother:0 5.0 6.0\nd:0 1.0 2.0\n")
    assert load_sentence_vectors(path, corpus).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_review_ids_number_the_kept_reviews_not_file_lines(tmp_path):
    corpus_path = tmp_path / "d.jsonl"
    corpus_path.write_text("".join(
        json.dumps({"domain": "d", "label": label, "text": text}) + "\n"
        for label, text in [("positive", "lovely"), ("negative", "100 . the"),
                            ("negative", "awful")]))
    with pytest.warns(UserWarning, match="zero tokens"):
        corpus = load_corpus(corpus_path)
    vec_path = tmp_path / "d.vec"
    vec_path.write_text("d:0 1.0 0.0\nd:1 0.0 1.0\n")
    qualifying = filter_reviews(corpus, {"awful": -0.8})
    picked = select_test_vectors(corpus, qualifying, load_sentence_vectors(vec_path, corpus), count=1)
    # d:1 is the second kept review, "awful", not the dropped second line.
    assert picked.tolist() == [[0.0, 1.0]]
    assert corpus.reviews[1] == ("negative", ("awful",))


def test_sentence_vector_ids_past_the_last_kept_review_are_rejected(tmp_path):
    corpus_path = tmp_path / "d.jsonl"
    corpus_path.write_text("".join(
        json.dumps({"domain": "d", "label": label, "text": text}) + "\n"
        for label, text in [("positive", "lovely"), ("negative", "100 . the"),
                            ("negative", "awful")]))
    with pytest.warns(UserWarning, match="zero tokens"):
        corpus = load_corpus(corpus_path)
    vec_path = tmp_path / "d.vec"
    # Keyed by file line: d:1 is the dropped line's vector, d:2 the third review's.
    vec_path.write_text("d:0 1.0 0.0\nd:1 0.0 1.0\nd:2 1.0 1.0\nother:7 1.0 0.0\n")
    with pytest.raises(InputError, match=r"sentence vectors for d: 1 id\(s\) name no kept review,"
                       r" e\.g\. \['d:2'\]; ids number kept reviews, not file lines"):
        load_sentence_vectors(vec_path, corpus)


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
    assert abs(word_metric_matrix([entries, dict(entries)], ADJ)[0][1] - 2.0) < 1e-12
    adjectives = {w: v for w, v in entries.items() if w != "noun"}
    assert abs(word_metric(adjectives, dict(adjectives)) - 2.0) < 1e-12


def test_word_metric_orthogonal_single_adjective():
    t1 = {"good": np.array([1.0, 0.0])}
    t2 = {"good": np.array([0.0, 1.0])}
    assert abs(word_metric(t1, t2) - 1.5) < 1e-12


def test_word_metric_jaccard_term():
    # Common adjective set {good}; each side has 2 adjectives; J = 1/3.
    t1 = {"good": np.array([1.0, 1.0]), "bad": np.array([1.0, 0.0])}
    t2 = {"good": np.array([1.0, 2.0]), "fair": np.array([0.0, 1.0])}
    expected = angular_similarity(t1["good"], t2["good"]) + 1.0 / 3.0
    assert abs(word_metric(t1, t2) - expected) < 1e-12


def test_word_metric_no_common_adjectives_unrankable():
    t1 = {"good": np.array([1.0, 0.0])}
    t2 = {"bad": np.array([1.0, 0.0])}
    with pytest.raises(UnrankablePairError, match="no common adjectives"):
        word_metric(t1, t2)


def test_word_metric_ignores_non_adjectives():
    # word_metric_matrix cuts each table to the adjectives before any pair is compared.
    t1 = {"good": np.array([1.0, 0.0])}
    t2 = {"good": np.array([1.0, 0.1])}
    base = word_metric_matrix([t1, t2], ADJ)[0][1]
    t1b = {**t1, "noun": np.array([9.0, 9.0])}
    t2b = {**t2, "verb": np.array([1.0, 9.0])}
    assert word_metric_matrix([t1b, t2b], ADJ)[0][1] == base
    assert 0.0 < base <= 2.0


def test_word_metric_ranking_invariant_under_rotation():
    rng = np.random.default_rng(30)
    def random_table():
        return {f"adj{i}": rng.normal(size=4) for i in range(6)}
    base = random_table()
    others = [random_table() for _ in range(4)]
    rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    def rotate(tab):
        return {w: rotation @ v for w, v in tab.items()}
    plain = [word_metric(base, o) for o in others]
    rotated = [word_metric(rotate(base), rotate(o)) for o in others]
    assert np.argsort(plain).tolist() == np.argsort(rotated).tolist()
    assert np.allclose(plain, rotated, atol=1e-9)


def test_sentence_metric_values():
    s1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    s2 = np.array([[1.0, 1.0]])
    s3 = np.array([[1.0, 0.0]])
    s4 = np.array([[0.0, 1.0]])
    values = sentence_metric_matrix([s1, s1, s2, s3, s4])
    assert abs(values[0][1] - 1.0) < 1e-12
    # Mean of s1 is (0.5, 0.5), parallel to (1, 1).
    assert abs(values[0][2] - 1.0) < 1e-12
    assert abs(values[3][4] - 0.5) < 1e-12


def test_sentence_metric_zero_mean_unrankable():
    s1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    s2 = np.array([[1.0, 1.0]])
    s3 = np.array([[0.0, 1.0]])
    values = sentence_metric_matrix([s1, s2, s3])
    assert np.isnan(values[0][1]) and np.isnan(values[1][0])
    assert np.isnan(values[0][2]) and np.isnan(values[2][0])
    assert abs(values[1][2] - 0.75) < 1e-12


def _scored_corpus(n, strong_positions=()):
    rows = []
    for i in range(n):
        word = "strong" if i in strong_positions else "mild"
        rows.append(("positive", word))
    return build_corpus("d", rows)


SCORING = {"strong": 0.9, "mild": 0.2}


def _qualifying(corpus):
    return filter_reviews(corpus, SCORING)


def _vectors_for(corpus):
    """One row per review, whose first component is the review's position."""
    rng = np.random.default_rng(1)
    return np.column_stack([np.arange(len(corpus)), rng.normal(size=(len(corpus), 2))])


def test_select_test_vectors_takes_requested_count(tmp_path):
    corpus = _scored_corpus(600)
    vecs = _vectors_for(corpus)
    picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=500)
    assert len(picked) == 500


def test_select_test_vectors_shortfall_warns():
    corpus = _scored_corpus(300)
    vecs = _vectors_for(corpus)
    with pytest.warns(UserWarning, match="only 300"):
        picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=500)
    assert len(picked) == 300


def test_select_test_vectors_top_mode_ranks_by_magnitude():
    corpus = _scored_corpus(2, strong_positions={1})
    vecs = _vectors_for(corpus)
    picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=1, mode="top")
    assert picked.tolist() == vecs[[1]].tolist()


def test_select_test_vectors_heldout_takes_tail():
    corpus = _scored_corpus(5)
    vecs = _vectors_for(corpus)
    picked = select_test_vectors(corpus, _qualifying(corpus), vecs, count=2, mode="heldout")
    assert picked.tolist() == vecs[[3, 4]].tolist()
    assert not np.shares_memory(picked, vecs)


def test_load_sentence_vectors_requires_coverage(tmp_path):
    corpus = _scored_corpus(3)
    path = tmp_path / "d.vec"
    path.write_text("d:0 1.0 1.0 1.0\n")
    with pytest.raises(InputError, match=r"sentence vectors for d miss 2 review id\(s\),"
                                         r" e\.g\. \['d:1', 'd:2'\]"):
        load_sentence_vectors(path, corpus)


def test_select_test_vectors_rejects_a_domain_with_no_qualifying_review():
    corpus = build_corpus("e", [("positive", "plain"), ("negative", "plain text")])
    vecs = np.ones((2, 3))
    qualifying = filter_reviews(corpus, SCORING)
    assert qualifying == []
    for mode in ("top", "heldout"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="sentence vector set for e is empty"):
                select_test_vectors(corpus, qualifying, vecs, count=2, mode=mode)


def test_select_test_vectors_rejects_bad_mode():
    corpus = _scored_corpus(3)
    with pytest.raises(InputError, match="selection mode"):
        select_test_vectors(corpus, _qualifying(corpus), _vectors_for(corpus), mode="middle")


@pytest.mark.parametrize("mode", ["top", "heldout"])
@pytest.mark.parametrize("count", [0, -1])
def test_select_test_vectors_rejects_a_count_below_one(mode, count):
    corpus = _scored_corpus(3)
    with pytest.raises(InputError, match=f"count must be positive, got {count}"):
        select_test_vectors(corpus, _qualifying(corpus), _vectors_for(corpus), count, mode)


def test_load_adjectives(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("Good\n# comment\nbad\n\n")
    assert load_adjectives(path).words == frozenset({"good", "bad"})
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(InputError, match="empty"):
        load_adjectives(empty)


def test_word_metric_matrix_mirrors_and_marks_unrankable():
    t1 = {"good": np.array([1.0, 0.0])}
    t2 = {"good": np.array([0.0, 1.0])}
    t3 = {"noun": np.array([1.0, 1.0])}
    values = np.array(word_metric_matrix([t1, t2, t3], ADJ))
    assert values.shape == (3, 3)
    assert values[0, 1] == values[1, 0] == pytest.approx(1.5)
    assert np.isnan(values[0, 2]) and np.isnan(values[2, 0])
    assert np.isnan(np.diag(values)).all()
