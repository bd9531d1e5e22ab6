from __future__ import annotations

import numpy as np
import pytest

import oracles
from domainsim.errors import InputError, UnrankablePairError
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR, PairMatrix, mirrored

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
