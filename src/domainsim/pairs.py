"""One metric's values for every ordered pair of domains, and the source ranking they induce.

A ``PairMatrix`` holds ``values[source, target]`` as an N×N float64 array
over its domains. NaN means the pair is unrankable: the metric has no value
for it. In a metric CSV the empty value cell is the only way to write NaN;
a ``nan`` or ``inf`` text is a malformed file. Ranking never reads the
diagonal: a metric leaves it NaN, and the truth, the accuracy matrix,
holds in-domain accuracy there.

Ranking rule: for a target, the other domains are ordered best first by
value in the metric's direction; equal values keep domain order, and
unrankable sources come last, also in domain order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ._numpy import np
from .errors import InputError, UnrankablePairError

HIGHER_IS_MORE_SIMILAR = "higher_is_more_similar"
LOWER_IS_MORE_SIMILAR = "lower_is_more_similar"


def mirrored(items: Sequence, pair_value: Callable) -> np.ndarray:
    """N×N values of a symmetric metric from ``pair_value`` on the upper triangle.

    NaN on the diagonal and for every pair whose ``pair_value`` raises
    UnrankablePairError.
    """
    n = len(items)
    values = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                values[i, j] = values[j, i] = pair_value(items[i], items[j])
            except UnrankablePairError:
                pass
    return values


@dataclass(frozen=True)
class PairMatrix:
    """``values[i, j]`` is the metric from source ``domains[i]`` to target ``domains[j]``."""

    metric_id: str
    direction: str
    domains: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", tuple(self.domains))
        if self.direction not in (HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR):
            raise InputError(f"invalid direction {self.direction!r}")
        if len(set(self.domains)) != len(self.domains):
            raise InputError(f"duplicate domain ids for metric {self.metric_id}")
        n = len(self.domains)
        if self.values.shape != (n, n):
            raise InputError(
                f"metric {self.metric_id}: values of shape {self.values.shape} for {n} domains"
            )
        if np.isinf(self.values).any():
            raise InputError(f"metric {self.metric_id}: infinite value")

    def ranking(self, target: str) -> tuple[str, ...]:
        """Sources for ``target``, best first, target excluded (see the module docstring)."""
        if target not in self.domains:
            raise InputError(f"target {target!r} not in domain list")
        t = self.domains.index(target)
        column = self.values[:, t]
        # NaN sorts last in either direction; the stable sort keeps ties in domain order.
        keys = column if self.direction == LOWER_IS_MORE_SIMILAR else -column
        return tuple(self.domains[i] for i in np.argsort(keys, kind="stable") if i != t)
