"""One metric's values for every ordered pair of domains, and the source ranking they induce.

A ``PairMatrix`` holds ``values[source][target]`` as N rows of N Python
floats over its domains. NaN means the pair is unrankable: the metric has
no value for it. In a metric CSV the empty value cell is the only way to
write NaN; a ``nan`` or ``inf`` text is a malformed file. Ranking never
reads the diagonal: a metric leaves it NaN, and the truth, the accuracy
matrix, holds in-domain accuracy there.

Ranking rule: for a target, the other domains are ordered best first by
value in the metric's direction; equal values keep domain order, and
unrankable sources come last, also in domain order.

``shared_mean`` is the per-word mean, with its Jaccard term, of LM2, LM3 and
the ULM1/3/4/6 word metric, and raises their "no common ..." reasons.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from .errors import InputError, UnrankablePairError

HIGHER_IS_MORE_SIMILAR = "higher_is_more_similar"
LOWER_IS_MORE_SIMILAR = "lower_is_more_similar"


def mirrored(items: Sequence, pair_value: Callable) -> list[list[float]]:
    """N rows of N floats of a symmetric metric from ``pair_value`` on the upper triangle.

    NaN on the diagonal and for every pair whose ``pair_value`` raises
    UnrankablePairError. Each value goes through ``float``, so an integer
    count comes out as a float and the rows need no numpy.
    """
    n = len(items)
    values = [[math.nan] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            try:
                values[i][j] = values[j][i] = float(pair_value(items[i], items[j]))
            except UnrankablePairError:
                pass
    return values


def shared_mean(s: Mapping, t: Mapping, term: Callable, words: str) -> tuple[float, float]:
    """The mean of ``term(s[w], t[w])`` over the keys of both tables, and the keys' Jaccard.

    Terms add left to right in sorted key order from 0.0, not by ``sum``, which compensates
    from Python 3.12 on. No shared key raises UnrankablePairError("no common <words>").
    """
    common = s.keys() & t.keys()
    if not common:
        raise UnrankablePairError(f"no common {words}")
    total = 0.0
    for w in sorted(common):
        total += term(s[w], t[w])
    return total / len(common), len(common) / (len(s) + len(t) - len(common))


class PairMatrix:
    """``values[i][j]`` is the metric from source ``domains[i]`` to target ``domains[j]``.

    ``values`` may be given as any N×N rows of numbers, such as an ndarray or
    lists; it is kept as a tuple of N tuples of Python floats, so reading it
    needs no numpy.
    """

    __slots__ = ("metric_id", "direction", "domains", "values")

    def __init__(self, metric_id: str, direction: str, domains: Sequence[str], values) -> None:
        self.metric_id = metric_id
        self.direction = direction
        self.domains: tuple[str, ...] = tuple(domains)
        values = tuple(tuple(map(float, row)) for row in values)
        self.values: tuple[tuple[float, ...], ...] = values
        if self.direction not in (HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR):
            raise InputError(f"invalid direction {self.direction!r}")
        if len(set(self.domains)) != len(self.domains):
            raise InputError(f"duplicate domain ids for metric {self.metric_id}")
        n = len(self.domains)
        if len(values) != n or any(len(row) != n for row in values):
            widths = "/".join(map(str, sorted({len(row) for row in values})))
            raise InputError(
                f"metric {self.metric_id}: values of shape {len(values)}x{widths} for {n} domains"
            )
        if any(math.isinf(v) for row in values for v in row):
            raise InputError(f"metric {self.metric_id}: infinite value")

    def ranking(self, target: str) -> tuple[str, ...]:
        """Sources for ``target``, best first, target excluded (see the module docstring)."""
        if target not in self.domains:
            raise InputError(f"target {target!r} not in domain list")
        t = self.domains.index(target)
        column = [row[t] for row in self.values]
        sign = 1.0 if self.direction == LOWER_IS_MORE_SIMILAR else -1.0
        # NaN sorts last in either direction, as np.argsort puts it; NaN keys
        # compare as equal, so the stable sort keeps them, like ties, in domain order.
        order = sorted(range(len(column)), key=lambda i: (math.isnan(column[i]), sign * column[i]))
        return tuple(self.domains[i] for i in order if i != t)
