"""Cross-domain accuracy matrices and the recommendation chart.

An accuracy matrix is a ``PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, ...)``
of accuracies (%), rows sources and columns targets; its diagonal holds
in-domain accuracy, which the chart reads and ranking never does.

A bundled reference matrix for 20 review domains (D1..D20) ships with the
package; a lightweight hashed bag-of-words logistic baseline can generate a
matrix for arbitrary corpora so the full pipeline runs end to end. The
baseline is deliberately simple and seed-deterministic; it is not meant to
match the accuracies of a tuned neural classifier.
"""

from __future__ import annotations

import math
import warnings
import zlib
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ._numpy import np
from .errors import InputError, read_csv
from .pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix

if TYPE_CHECKING:
    from .corpus import Corpus

FEATURE_DIM = 1 << 16
TARGET_SPLIT_SIZE = 2000
EPOCHS = 4
LEARNING_RATE = 0.5


def load_accuracy_matrix(path: str | Path) -> PairMatrix:
    """Load an accuracy matrix CSV: header of domain ids, one row per source.

    Rejects, naming file and line, malformed CSV (read strictly, so an
    unterminated quote is an error), fewer than 2 domains, a repeated domain
    or row, a row of the wrong length and a cell that is not a finite
    number in [0, 100]; then rows that name other domains than the header.
    """
    path = Path(path)
    rows = list(read_csv(path, "accuracy matrix"))
    if len(rows) < 2:
        raise InputError(f"{path}: matrix CSV needs a header and at least one row")
    domains = tuple(h.strip() for h in rows[0][1][1:])
    if len(domains) < 2:
        raise InputError(f"{path}, line {rows[0][0]}: accuracy matrix needs at least 2 domains")
    if len(set(domains)) != len(domains):
        raise InputError(f"{path}, line {rows[0][0]}: duplicate domain ids in header")
    by_source: dict[str, tuple[int, list[str]]] = {}
    for line, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(domains) + 1:
            raise InputError(f"{path}, line {line}: row for {row[0]!r} has {len(row) - 1} cells,"
                             f" expected {len(domains)}")
        source = row[0].strip()
        if source in by_source:
            raise InputError(f"{path}, line {line}: repeated row for {source!r}"
                             f" (first on line {by_source[source][0]})")
        by_source[source] = (line, row[1:])
    if set(by_source) != set(domains):
        missing = sorted(set(domains) - set(by_source))
        extra = sorted(set(by_source) - set(domains))
        raise InputError(
            f"{path}: row/column domain sets differ (missing rows {missing}, extra rows {extra})"
        )
    acc = []
    for source in domains:
        line, cells = by_source[source]
        row = []
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}, line {line}: non-numeric cell {cell!r} in row {source}"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"{path}, line {line}: non-finite cell {cell!r} in row {source}")
            if not 0.0 <= value <= 100.0:
                raise InputError(f"{path}, line {line}: cell {cell!r} in row {source}"
                                 " out of range [0, 100]")
            row.append(value)
        acc.append(row)
    return PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, domains, acc)


def reference_accuracy_matrix() -> PairMatrix:
    """The bundled 20-domain reference accuracy matrix."""
    with resources.as_file(
        resources.files("domainsim.data").joinpath("reference_cdsa_accuracy.csv")
    ) as path:
        return load_accuracy_matrix(path)


class ChartRow(NamedTuple):
    """Per-domain recommendation chart entry."""

    domain_id: str
    in_domain_acc: float
    avg_degradation: float
    best_source: str
    best_target: str


def chart(matrix: PairMatrix) -> list[ChartRow]:
    """Recommendation chart: in-domain accuracy, average degradation, best pairs.

    The average degradation of a domain is its in-domain accuracy minus the
    mean of its cross-domain accuracies as a source. Best source for a
    target is the maximum of its column, best target for a source the
    maximum of its row, diagonal excluded, ties broken by the lower domain
    index. An accuracy matrix holds no NaN.
    """
    acc = matrix.values
    rows = []
    for d, domain in enumerate(matrix.domains):
        others = [j for j in range(len(acc)) if j != d]
        cross = [acc[d][j] for j in others]
        rows.append(
            ChartRow(
                domain_id=domain,
                in_domain_acc=acc[d][d],
                avg_degradation=acc[d][d] - _numpy_sum(cross) / len(cross),
                # max returns the first of equal maxima.
                best_source=matrix.domains[max(others, key=lambda s: acc[s][d])],
                best_target=matrix.domains[max(others, key=acc[d].__getitem__)],
            )
        )
    return rows


def _numpy_sum(values: Sequence[float]) -> float:
    """The sum of ``values`` as numpy's ``np.add.reduce`` adds them, bit for bit.

    numpy adds a run of fewer than 8 values left to right. A run of 8 to 128
    it adds in 8 interleaved accumulators, one block of 8 at a time,
    combines them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then adds
    the last n mod 8 values in order. A longer run it splits at n/2 rounded
    down to a multiple of 8 and sums each part so. The result starts from
    0.0, so an all -0.0 run sums to 0.0, as in numpy. A left-to-right sum
    differs from this in the last bit, and so, now and then, in a rounded
    chart cell.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
    blocks = n - n % 8
    total = 0.0
    if blocks:
        r = list(values[:8])
        for i in range(8, blocks, 8):
            r = [a + b for a, b in zip(r, values[i : i + 8])]
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[blocks:]:
        total += value
    return total


def _featurize(corpora: Sequence[Corpus]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Hashed bag-of-words features of every review of every corpus, once.

    Returns ``(features, widths, labels, pad)``. Reviews are numbered
    corpus by corpus in corpus order. Row r of the int32 ``features``
    matrix holds review r's distinct hashed ids, ascending, as dense column
    numbers (``np.unique`` keeps their order), laid out for ``_row_sums``
    over its first ``widths[r]`` columns; every other cell is the pad
    column ``pad``, whose weight is kept at zero. ``labels[r]`` is 1.0 for
    a positive review, else 0.0.

    numpy sums a row of fewer than 128 values in 8 interleaved
    accumulators, one block of 8 columns at a time, combines them, and then
    adds the last n mod 8 values in order; a longer row is split in halves
    recursively. So a review with L < 128 features keeps its whole blocks
    of 8 in place, moves its last L mod 8 features to the start of the
    final 7 of a common width 8K + 7 (K the most whole blocks of any such
    review), and has zeros in the blocks between: zero blocks leave every
    accumulator unchanged and zeros after the tail add nothing, so each sum
    is bit-identical to ``weights[idx].sum()`` over the L weights alone.
    Zeros anywhere else change the association and the last bits of the
    sum. A review with 128 features or more is summed at its exact length.
    """
    # Imported here, so the commands that only read an accuracy matrix never load corpus.
    from .corpus import POSITIVE

    # Each word is hashed once, so reviews share one int object per id
    # instead of holding one per token occurrence (a smaller peak).
    hash_of = {w: zlib.crc32(w.encode("utf-8")) & (FEATURE_DIM - 1)
               for corpus in corpora for w in corpus.counts}
    hashed: list[int] = []
    lengths: list[int] = []
    labels: list[float] = []
    for corpus in corpora:
        for label, tokens in corpus.reviews:
            ids = sorted(set(map(hash_of.__getitem__, tokens)))
            hashed.extend(ids)
            lengths.append(len(ids))
            labels.append(1.0 if label == POSITIVE else 0.0)
    distinct, columns = np.unique(np.array(hashed, dtype=np.int64), return_inverse=True)
    pad = len(distinct)
    counts = np.array(lengths, dtype=np.int64)
    short = counts < 128
    in_place = np.where(short, counts // 8 * 8, counts)
    short_width = int(in_place[short].max(initial=0)) + 7
    widths = np.where(short, short_width, counts)
    position = np.arange(len(columns)) - np.repeat(np.cumsum(counts) - counts, counts)
    tail = position >= np.repeat(in_place, counts)
    position[tail] += np.repeat(short_width - 7 - in_place, counts)[tail]
    features = np.full((len(counts), int(widths.max())), pad, dtype=np.int32)
    features[np.repeat(np.arange(len(counts)), counts), position] = columns
    return features, widths, np.array(labels), pad


def _row_sums(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Each row's sum over its first ``widths[r]`` columns, one call per width.

    With rows laid out by ``_featurize`` this is every review's dot product
    with the gathered weights, bit for bit; all reviews shorter than 128
    features share one width.
    """
    if widths.min() == values.shape[1]:
        return values.sum(axis=1)
    sums = np.empty(len(values))
    for width in np.unique(widths):
        rows = np.flatnonzero(widths == width)
        sums[rows] = values[rows, :width].sum(axis=1)
    return sums


def _train_lockstep(
    features: np.ndarray,
    widths: np.ndarray,
    labels: np.ndarray,
    pad: int,
    train_sets: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Online logistic regression of one model per training set, all in lockstep.

    Model m makes ``EPOCHS`` passes over ``train_sets[m]`` (review numbers),
    each in the order of ``rngs[m].permutation``, and at every example
    updates the weights of the example's features and its bias by
    ``LEARNING_RATE * (sigmoid(z) - y)``, z clipped to [-35, 35]. Step t
    makes the t-th update of every model that has one, as numpy operations
    over a (models x width) gather from the weight matrix. The models share
    no weights and each model's updates keep their order, so every model
    does exactly the arithmetic of training it alone, one example at a
    time. Slots are sorted by training-set size, so the models still
    training at step t are a prefix of the slots. Returns the weights, one
    row per model plus the zero pad column, and the biases.
    """
    n_models = len(train_sets)
    sizes = np.array([len(ids) for ids in train_sets])
    order = np.argsort(-sizes, kind="stable")
    slot_sizes = sizes[order]
    weights = np.zeros((n_models, pad + 1))
    flat = weights.reshape(-1)
    offsets = (order * (pad + 1))[:, None]
    bias = np.zeros(n_models)
    schedule = np.empty((slot_sizes[0], n_models), dtype=np.int32)
    for _ in range(EPOCHS):
        for slot, m in enumerate(order):
            schedule[: sizes[m], slot] = train_sets[m][rngs[m].permutation(sizes[m])]
        active = n_models
        for t in range(len(schedule)):
            while slot_sizes[active - 1] <= t:
                active -= 1
            reviews = schedule[t, :active]
            row_widths = widths[reviews]
            idx = features[reviews, : row_widths.max()] + offsets[:active]
            values = flat[idx]
            z = np.minimum(np.maximum(_row_sums(values, row_widths) + bias[:active], -35.0), 35.0)
            step = LEARNING_RATE * (1.0 / (1.0 + np.exp(-z)) - labels[reviews])
            flat[idx] = values - step[:, None]
            bias[:active] -= step
            weights[:, pad] = 0.0
    model_bias = np.empty(n_models)
    model_bias[order] = bias
    return weights, model_bias


def train_eval_baseline(
    corpora: Sequence[Corpus],
    splits: int = 5,
    seed: int = 0,
) -> PairMatrix:
    """Cross-domain accuracy matrix from a hashed bag-of-words logistic model.

    Diagonal entries use a k-fold in-domain protocol; off-diagonal entries
    train once on the full source corpus and average the accuracy over
    ``splits`` disjoint target splits. Deterministic for a given seed. When
    a corpus is too small for the standard 2000-review splits, proportional
    splits are used and a warning is emitted.

    All (splits + 1) * N models train in lockstep (``_train_lockstep``) and
    then score their test reviews in batches, and the matrix is
    bit-identical to training and scoring one model and one example at a
    time (``sequential_baseline`` in ``tests/oracles.py``). Two rules keep
    it so. Every dot product is a numpy ``sum`` of the gathered weights,
    padded only as ``_row_sums`` allows; ``np.add.reduceat`` adds in
    another order and differs from ``sum`` on most rows. The sigmoid uses
    ``np.exp``, whose array and scalar results agree; ``math.exp`` differs
    from it in the last bit on a few percent of inputs.

    Memory: the weight matrix holds (splits + 1) * N rows of (distinct
    hashed ids + 1) float64, at most (splits + 1) * N * (FEATURE_DIM + 1)
    * 8 B: with 5 splits, 63 MB for N = 20 and 315 MB for N = 100; the
    feature matrix 4 B per review per column of the widest review, and
    scoring 16 B per review of one target corpus per such column (the
    gathered weights and numpy's intp copy of their index); the training
    order 4 B per model per example of the largest training set, one epoch
    at a time.
    """
    if len(corpora) < 2:
        raise InputError("baseline needs at least 2 corpora")
    if splits < 1:
        raise InputError(f"baseline needs at least 1 split, got {splits}")
    domains = tuple(c.domain_id for c in corpora)
    if len(set(domains)) != len(domains):
        raise InputError("duplicate domain ids in corpora")
    small = [c.domain_id for c in corpora if len(c) < splits * TARGET_SPLIT_SIZE]
    if small:
        warnings.warn(
            f"corpora smaller than the {splits}x{TARGET_SPLIT_SIZE}-review protocol,"
            f" using proportional splits: {', '.join(small)}",
            stacklevel=2,
        )
    unbalanced = []
    for c in corpora:
        pos, neg = c.label_counts()
        if pos != neg:
            unbalanced.append(c.domain_id)
    if unbalanced:
        warnings.warn(f"corpora with unbalanced labels: {', '.join(unbalanced)}", stacklevel=2)
    for c in corpora:
        if len(c) < splits:
            raise InputError(f"corpus {c.domain_id} has fewer reviews than {splits} splits")

    features, widths, labels, pad = _featurize(corpora)
    positive = labels == 1.0
    n = len(corpora)
    starts = np.cumsum([0] + [len(c) for c in corpora])

    # Deterministic split of every corpus into `splits` test folds: fold f
    # is the f-th array_split chunk of a seeded permutation of its reviews.
    shuffled = []
    fold_of = np.empty(len(labels), dtype=np.int64)
    for t in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, t]))
        perm = rng.permutation(len(corpora[t]))
        shuffled.append(starts[t] + perm)
        fold_of[shuffled[t]] = np.repeat(np.arange(splits),
                                         [len(f) for f in np.array_split(perm, splits)])

    # Model s * (splits + 1) + h holds out fold h of corpus s for h < splits;
    # model s * (splits + 1) + splits trains on all of corpus s.
    train_sets = []
    rngs = []
    for s in range(n):
        for held_out in range(splits):
            train_sets.append(shuffled[s][fold_of[shuffled[s]] != held_out])
            rngs.append(np.random.default_rng(np.random.SeedSequence([seed, 2, s, held_out])))
        train_sets.append(np.arange(starts[s], starts[s + 1]))
        rngs.append(np.random.default_rng(np.random.SeedSequence([seed, 3, s])))
    weights, bias = _train_lockstep(features, widths, labels, pad, train_sets, rngs)

    # Cell (s, t) is the mean over t's folds of the share of the fold that s
    # classifies correctly: corpus s's own reviews by the model that held out
    # their fold, every other corpus's by s's full model. One target's reviews
    # are gathered at a time, so scoring memory does not grow with N.
    corpus_of = np.repeat(np.arange(n), np.diff(starts))
    acc = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        for t in range(n):
            rows = slice(starts[t], starts[t + 1])
            folds = fold_of[rows]
            models = s * (splits + 1) + np.where(corpus_of[rows] == s, folds, splits)
            sums = _row_sums(weights[models[:, None], features[rows]], widths[rows])
            correct = (sums + bias[models] > 0.0) == positive[rows]
            hits = np.bincount(folds[correct], minlength=splits)
            acc[s, t] = 100.0 * np.mean(hits / np.bincount(folds, minlength=splits))
    return PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, domains, acc)
