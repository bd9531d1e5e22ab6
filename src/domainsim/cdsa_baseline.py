"""The hashed bag-of-words logistic baseline that trains a cross-domain accuracy matrix.

``train_eval_baseline`` gives a matrix for arbitrary corpora, so the full
pipeline runs end to end without the bundled reference; ``evaluation``
defines such a matrix and reads it. The baseline is deliberately simple and
seed-deterministic, not meant to match a tuned neural classifier's accuracy.
Its dot products add left to right, never through BLAS, so its weights do
not depend on the CPU's BLAS kernel.
"""

from __future__ import annotations

import warnings
import zlib
from typing import TYPE_CHECKING, Sequence

from ._numpy import np, sequential_sum
from .errors import InputError
from .pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix

if TYPE_CHECKING:
    from .corpus import Corpus

FEATURE_DIM = 1 << 16
TARGET_SPLIT_SIZE = 2000
EPOCHS = 4
LEARNING_RATE = 0.5


def _featurize(corpora: Sequence[Corpus]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Hashed bag-of-words features of every review of every corpus, once.

    Returns ``(features, lengths, labels, pad)``. Reviews are numbered
    corpus by corpus in corpus order. Row r of the int32 ``features``
    matrix starts with review r's ``lengths[r]`` distinct hashed ids,
    ascending, as dense column numbers (``np.unique`` keeps their order);
    every later cell is the pad column ``pad``, whose weight is kept at
    zero, so a left-to-right sum of the gathered weights over any prefix at
    least ``lengths[r]`` long adds only trailing zeros to the review's dot
    product and keeps its bits. ``labels[r]`` is 1.0 for a positive review,
    else 0.0.
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
    counts = np.array(lengths)
    features = np.full((len(counts), int(counts.max())), len(distinct), dtype=np.int32)
    # A boolean mask assigns in row-major order: each row's ids, left-aligned.
    features[np.arange(features.shape[1]) < counts[:, None]] = columns
    return features, counts, np.array(labels), len(distinct)


def _train_lockstep(
    features: np.ndarray,
    lengths: np.ndarray,
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
    over a (models x widest review) gather from the weight matrix. The
    models share no weights and each model's updates keep their order, so
    every model does exactly the arithmetic of training it alone, one
    example at a time. Slots are sorted by training-set size, so the models still
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
            idx = features[reviews, : lengths[reviews].max()] + offsets[:active]
            values = flat[idx]
            z = np.minimum(np.maximum(sequential_sum(values) + bias[:active], -35.0), 35.0)
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
    ``splits`` disjoint target splits. Deterministic for a given seed. Each
    corpus's folds are ``splits`` near-equal parts of it (``np.array_split``):
    2000-review folds only at exactly ``splits`` x 2000 reviews; a smaller
    corpus gets smaller folds and a warning, a larger one larger folds and none.

    All (splits + 1) * N models train in lockstep (``_train_lockstep``) and
    then score their test reviews in batches, and the matrix is
    bit-identical to training and scoring one model and one example at a
    time (``sequential_baseline`` in ``tests/oracles.py``). Two rules keep
    it so. Dot products, and each cell's mean over the folds, add left to
    right (``_numpy.sequential_sum``). The sigmoid uses ``np.exp``, whose
    array and scalar results agree; ``math.exp`` differs from it in the
    last bit on a few percent of inputs.

    Memory: the weight matrix holds (splits + 1) * N rows of (distinct
    hashed ids + 1) float64, at most (splits + 1) * N * (FEATURE_DIM + 1)
    * 8 B: with 5 splits, 63 MB for N = 20 and 315 MB for N = 100; the
    feature matrix 4 B per review per column of the widest review, and
    scoring 24 B per review of one target corpus per column of its widest
    review (the gathered weights, numpy's intp copy of their index and
    their running sums); the training order 4 B per model per example of
    the largest training set, one epoch at a time.
    """
    if len(corpora) < 2:
        raise InputError("baseline needs at least 2 corpora")
    if splits < 1:
        raise InputError(f"baseline needs at least 1 split, got {splits}")
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

    features, lengths, labels, pad = _featurize(corpora)
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
    weights, bias = _train_lockstep(features, lengths, labels, pad, train_sets, rngs)

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
            gathered = weights[models[:, None], features[rows, : lengths[rows].max()]]
            correct = (sequential_sum(gathered) + bias[models] > 0.0) == positive[rows]
            hits = np.bincount(folds[correct], minlength=splits)
            shares = hits / np.bincount(folds, minlength=splits)
            acc[s, t] = 100.0 * (sequential_sum(shares) / splits)
    return PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, tuple(c.domain_id for c in corpora), acc)
