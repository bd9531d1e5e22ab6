from __future__ import annotations

import numpy as np
import pytest

import oracles
from domainsim import embedding_metrics, labelled_metrics, lexstats, pairs
from domainsim.embedding_metrics import angular_similarity, word_metric
from domainsim.errors import InputError, UnrankablePairError
from domainsim.labelled_metrics import lm2_skld, lm3_chameleon
from domainsim.lexstats import review_score
from domainsim.pairs import (
    HIGHER_IS_MORE_SIMILAR,
    LOWER_IS_MORE_SIMILAR,
    PairMatrix,
    mirrored,
    shared_mean,
)

# Drawn values include ties, unrankable pairs, both zeros and extreme magnitudes.
POOL = np.array([np.nan, 0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
                 np.finfo(np.float64).max, -np.finfo(np.float64).max])


def test_ranking_equals_sorted_oracle_on_random_matrices():
    rng = np.random.default_rng(47)
    cases = 0
    for _ in range(600):
        n = int(rng.integers(2, 9))
        domains = tuple(rng.permutation([f"d{i}" for i in range(n)]).tolist())
        spread = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 300)
        values = np.where(rng.random((n, n)) < 0.6, rng.choice(POOL, size=(n, n)), spread)
        for direction in (HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR):
            pairs = PairMatrix("M", direction, domains, values)
            for t, target in enumerate(domains):
                relevant = {
                    source: None if np.isnan(values[i, t]) else float(values[i, t])
                    for i, source in enumerate(domains)
                    if i != t
                }
                assert pairs.ranking(target) == oracles.sorted_ranking(relevant, domains, direction)
                assert pairs.ranking(target) == oracles.argsort_ranking(
                    values, list(domains), direction, target)
                cases += 1
    assert cases > 5000


def test_ranking_skips_the_target_whatever_its_diagonal_value():
    values = np.array([[-5.0, 1.0, 2.0], [3.0, 9.0, 1.0], [2.0, 2.0, np.nan]])
    pairs = PairMatrix("M", LOWER_IS_MORE_SIMILAR, ("a", "b", "c"), values)
    assert pairs.ranking("a") == ("c", "b")
    assert pairs.ranking("b") == ("a", "c")


def test_pair_matrix_validates_direction_domains_shape_and_values():
    values = np.full((2, 2), np.nan)
    assert PairMatrix("LM1", HIGHER_IS_MORE_SIMILAR, ["a", "b"], values).domains == ("a", "b")
    with pytest.raises(InputError, match="invalid direction"):
        PairMatrix("LM2", "sideways", ("a", "b"), values)
    with pytest.raises(InputError, match="duplicate domain"):
        PairMatrix("LM2", LOWER_IS_MORE_SIMILAR, ("a", "a"), values)
    with pytest.raises(InputError, match="shape"):
        PairMatrix("LM2", LOWER_IS_MORE_SIMILAR, ("a", "b", "c"), values)
    for bad in (np.inf, -np.inf):
        infinite = values.copy()
        infinite[0, 1] = bad
        with pytest.raises(InputError, match="infinite"):
            PairMatrix("LM2", LOWER_IS_MORE_SIMILAR, ("a", "b"), infinite)


def test_mirrored_computes_the_upper_triangle_once_and_marks_unrankable():
    calls = []

    def pair_value(a, b):
        calls.append((a, b))
        if b == 4:
            raise UnrankablePairError("no value")
        # An int, as LM1's count of common words is.
        return 10 * a + b

    values = mirrored([1, 2, 4], pair_value)
    assert calls == [(1, 2), (1, 4), (2, 4)]
    assert values[0][1] == values[1][0] == 12.0
    assert np.isnan(np.array(values)[[0, 2, 1, 2, 0, 1, 2], [2, 0, 2, 1, 0, 1, 2]]).all()
    # Rows of Python floats, so that reading them needs no numpy.
    assert [type(row) for row in values] == [list] * 3
    assert [type(v) for row in values for v in row] == [float] * 9


def jaccard(common: int, w1: int, w2: int) -> float:
    """``shared_mean``'s Jaccard of tables of ``w1`` and ``w2`` keys, ``common`` of them shared."""
    s = {**{f"c{i}": 1.0 for i in range(common)}, **{f"s{i}": 1.0 for i in range(w1 - common)}}
    t = {**{f"c{i}": 1.0 for i in range(common)}, **{f"t{i}": 1.0 for i in range(w2 - common)}}
    return shared_mean(s, t, lambda x, y: x * y, "words")[1]


def test_shared_mean_jaccard_reference_values():
    assert abs(jaccard(40, 50, 50) - 2.0 / 3.0) < 1e-9
    assert abs(jaccard(200, 500, 500) - 0.25) < 1e-9
    assert jaccard(40, 50, 50) > jaccard(200, 500, 500)
    assert jaccard(7, 7, 7) == 1.0


def test_shared_mean_adds_the_terms_of_the_shared_keys_in_sorted_order():
    seen = []

    def term(x, y):
        seen.append((x, y))
        return x + y

    mean, j = shared_mean({"b": 1.0, "a": 2.0, "s": 9.0}, {"t": 9.0, "b": 3.0, "a": 0.5}, term, "w")
    assert seen == [(2.0, 0.5), (1.0, 3.0)]
    assert (mean, j) == ((2.5 + 4.0) / 2, 2 / 4)


@pytest.mark.parametrize("metric, value, reason", [
    (lm2_skld, (1.0, 0.0), "no common polar words"),
    (lm3_chameleon, (1.0, 0.0), "no common polar words"),
    (word_metric, np.array([1.0, 0.0]), "no common adjectives"),
])
def test_a_pair_with_no_shared_word_is_unrankable_with_its_metric_reason(metric, value, reason):
    with pytest.raises(UnrankablePairError, match=f"^{reason}$"):
        metric({"up": value}, {"down": value})


def compensated_sum(values, start=0):
    """The builtin ``sum`` of floats from Python 3.12 on: Neumaier's compensated sum."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def left_to_right(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


def test_word_metric_and_review_score_add_left_to_right_whatever_sum_does(monkeypatch):
    # Python 3.12 made the builtin sum compensated; with it in place of the builtin, every
    # value must still equal a plain loop's, so that outputs do not depend on the Python version.
    for module in (pairs, labelled_metrics, embedding_metrics, lexstats):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    word_differs = score_differs = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = {f"a{i}": rng.normal(size=3) for i in range(12)}
        t = {f"a{i}": rng.normal(size=3) for i in range(2, 14)}
        terms = [angular_similarity(s[w], t[w]) for w in sorted(s.keys() & t.keys())]
        j = len(terms) / len(s.keys() | t.keys())
        expected = left_to_right(terms) / len(terms) + j
        assert word_metric(s, t) == expected, seed
        word_differs += compensated_sum(terms) / len(terms) + j != expected

        lexicon = {f"w{i}": float(rng.uniform(-1.0, 1.0)) for i in range(12)}
        tokens = [f"w{i}" for i in rng.integers(0, 14, size=20)]
        scores = [lexicon[w] for w in tokens if w in lexicon]
        sides = [[v for v in scores if v > 0], [-v for v in scores if v < 0]]
        pos, neg = (len(v) / left_to_right(1.0 / x for x in v) if v else 0.0 for v in sides)
        assert review_score(tokens, lexicon) == pos - neg, seed
        pos, neg = (len(v) / compensated_sum(1.0 / x for x in v) if v else 0.0 for v in sides)
        score_differs += pos - neg != review_score(tokens, lexicon)
    # The inputs tell the two sums apart, so a builtin sum left in either would fail above.
    assert word_differs and score_differs
