"""Cross-domain accuracy matrices and the recommendation chart.

A bundled reference matrix for 20 review domains (D1..D20) ships with the
package; a lightweight hashed bag-of-words logistic baseline can generate a
matrix for arbitrary corpora so the full pipeline runs end to end. The
baseline is deliberately simple and seed-deterministic; it is not meant to
match the accuracies of a tuned neural classifier.
"""

from __future__ import annotations

import csv
import math
import warnings
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import POSITIVE, Corpus
from .errors import InputError

FEATURE_DIM = 1 << 16
TARGET_SPLIT_SIZE = 2000
EPOCHS = 4
LEARNING_RATE = 0.5


class AccuracyMatrix:
    """N x N cross-domain accuracies (%); rows are sources, columns targets."""

    def __init__(self, domains: Sequence[str], acc: np.ndarray):
        domains = tuple(domains)
        acc = np.asarray(acc, dtype=np.float64)
        if len(domains) < 2:
            raise InputError("accuracy matrix needs at least 2 domains")
        if len(set(domains)) != len(domains):
            raise InputError("duplicate domain ids in accuracy matrix")
        if acc.shape != (len(domains), len(domains)):
            raise InputError(
                f"accuracy matrix shape {acc.shape} does not match {len(domains)} domains"
            )
        if not np.all(np.isfinite(acc)):
            raise InputError(f"accuracy value not finite: {acc[~np.isfinite(acc)][0]}")
        if np.any(acc < 0.0) or np.any(acc > 100.0):
            bad = acc[(acc < 0.0) | (acc > 100.0)][0]
            raise InputError(f"accuracy value out of range [0, 100]: {bad}")
        self.domains = domains
        self.acc = acc


def load_accuracy_matrix(path: str | Path) -> AccuracyMatrix:
    """Load an accuracy matrix CSV: header of domain ids, one row per source."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"accuracy matrix file not found: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if len(rows) < 2:
        raise InputError(f"{path}: matrix CSV needs a header and at least one row")
    domains = tuple(h.strip() for h in rows[0][1][1:])
    if len(set(domains)) != len(domains):
        raise InputError(f"{path}: duplicate domain ids in header")
    by_source: dict[str, tuple[int, list[str]]] = {}
    for line, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(domains) + 1:
            raise InputError(
                f"{path}: row for {row[0]!r} has {len(row) - 1} cells, expected {len(domains)}"
            )
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
    acc = np.empty((len(domains), len(domains)), dtype=np.float64)
    for i, source in enumerate(domains):
        line, cells = by_source[source]
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}, line {line}: non-numeric cell {cell!r} in row {source}"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"{path}, line {line}: non-finite cell {cell!r} in row {source}")
            acc[i, j] = value
    return AccuracyMatrix(domains, acc)


def write_accuracy_matrix_csv(matrix: AccuracyMatrix, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["domain", *matrix.domains])
        for i, source in enumerate(matrix.domains):
            writer.writerow([source, *(f"{v:.2f}" for v in matrix.acc[i])])


def reference_accuracy_matrix() -> AccuracyMatrix:
    """The bundled 20-domain reference accuracy matrix."""
    with resources.as_file(
        resources.files("domainsim.data").joinpath("reference_cdsa_accuracy.csv")
    ) as path:
        return load_accuracy_matrix(path)


@dataclass(frozen=True)
class ChartRow:
    """Per-domain recommendation chart entry."""

    domain_id: str
    in_domain_acc: float
    avg_degradation: float
    best_source: str
    best_target: str


def chart(matrix: AccuracyMatrix) -> list[ChartRow]:
    """Recommendation chart: in-domain accuracy, average degradation, best pairs.

    The average degradation of a domain is its in-domain accuracy minus the
    mean of its cross-domain accuracies as a source. Best source for a
    target is the argmax of its column, best target for a source the argmax
    of its row, diagonal excluded, ties broken by the lower domain index.
    """
    acc = matrix.acc
    n = len(matrix.domains)
    off_diag = ~np.eye(n, dtype=bool)
    masked = np.where(off_diag, acc, -np.inf)
    best_target_idx = np.argmax(masked, axis=1)
    best_source_idx = np.argmax(masked, axis=0)
    rows = []
    for d in range(n):
        cross_mean = float(acc[d, off_diag[d]].mean())
        rows.append(
            ChartRow(
                domain_id=matrix.domains[d],
                in_domain_acc=float(acc[d, d]),
                avg_degradation=float(acc[d, d]) - cross_mean,
                best_source=matrix.domains[int(best_source_idx[d])],
                best_target=matrix.domains[int(best_target_idx[d])],
            )
        )
    return rows


def write_chart_csv(rows: Sequence[ChartRow], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["domain", "in_domain_accuracy", "avg_degradation", "best_source", "best_target"])
        for row in rows:
            writer.writerow(
                [row.domain_id, f"{row.in_domain_acc:.2f}", f"{row.avg_degradation:.2f}",
                 row.best_source, row.best_target]
            )


class _FeatureHashes(dict):
    """Token -> hashed feature id, each token hashed once.

    Reviews then share one int object per id instead of holding one per
    token occurrence, which keeps the featurisation's peak memory down.
    """

    def __missing__(self, token: str) -> int:
        bucket = self[token] = zlib.crc32(token.encode("utf-8")) & (FEATURE_DIM - 1)
        return bucket


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
    hash_of = _FeatureHashes()
    hashed: list[int] = []
    lengths: list[int] = []
    labels: list[float] = []
    for corpus in corpora:
        for review in corpus.reviews:
            ids = sorted(set(map(hash_of.__getitem__, review.tokens)))
            hashed.extend(ids)
            lengths.append(len(ids))
            labels.append(1.0 if review.label == POSITIVE else 0.0)
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
) -> AccuracyMatrix:
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
    hashed ids + 1) float64, at most 120 x 65537 x 8 B = 63 MB for 20
    domains and 5 splits; the feature matrix 4 B per review per column of
    the widest review; the training order 4 B per model per example of the
    largest training set, one epoch at a time.
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
    fold_ids = []
    for t in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, t]))
        perm = rng.permutation(len(corpora[t]))
        shuffled.append(starts[t] + perm)
        fold_ids.append(np.repeat(np.arange(splits), [len(f) for f in np.array_split(perm, splits)]))
    fold_of = np.empty(len(labels), dtype=np.int64)
    fold_of[np.concatenate(shuffled)] = np.concatenate(fold_ids)

    # Model s * (splits + 1) + h holds out fold h of corpus s for h < splits;
    # model s * (splits + 1) + splits trains on all of corpus s.
    train_sets = []
    rngs = []
    for s in range(n):
        for held_out in range(splits):
            train_sets.append(shuffled[s][fold_ids[s] != held_out])
            rngs.append(np.random.default_rng(np.random.SeedSequence([seed, 2, s, held_out])))
        train_sets.append(np.arange(starts[s], starts[s + 1]))
        rngs.append(np.random.default_rng(np.random.SeedSequence([seed, 3, s])))
    weights, bias = _train_lockstep(features, widths, labels, pad, train_sets, rngs)

    def correct(model: int, rows) -> np.ndarray:
        sums = _row_sums(weights[model][features[rows]], widths[rows])
        return (sums + bias[model] > 0.0) == positive[rows]

    acc = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        fold_accs = []
        for held_out in range(splits):
            rows = shuffled[s][fold_ids[s] == held_out]
            fold_accs.append(np.count_nonzero(correct(s * (splits + 1) + held_out, rows)) / len(rows))
        acc[s, s] = 100.0 * float(np.mean(fold_accs))

        for t in range(n):
            if t == s:
                continue
            rows = slice(starts[t], starts[t + 1])
            folds = fold_of[rows]
            hits = np.bincount(folds[correct(s * (splits + 1) + splits, rows)], minlength=splits)
            acc[s, t] = 100.0 * float(np.mean(hits / np.bincount(folds, minlength=splits)))
    return AccuracyMatrix(domains, acc)
