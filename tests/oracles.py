"""Independent brute-force reference implementations for the pairwise metrics.

These recompute everything directly from raw (label, token list) reviews
with plain dicts and -p*log(p) sums, sharing no code with the package, so
they can arbitrate the optimized implementations. Where an oracle must
match the package bit for bit, its float sums add left to right in a
Python ``+=`` loop from 0.0, the package's one summation rule.
``sequential_baseline`` is the CDSA baseline as it was before it trained
its models in lockstep: one model and one example at a time, in plain
Python loops. ``sorted_ranking`` is the per-target source ranking as it
was before ``PairMatrix.ranking``: a Python sort on (value, domain index)
keys. ``argsort_ranking`` and ``numpy_chart`` are the ranking and the
recommendation chart as they were while ``PairMatrix.values`` was an
ndarray: a stable ``np.argsort``, and ``argmax`` over masks, with each
row's off-diagonal mean added left to right.
``evaluation_scores`` is precision at K and NRA counted from those
rankings in plain loops.
``select_reviews`` is the sentence metrics' review selection as it was
before each review was scored once per command; it names each review
``<domain>:<position>``. ``normalize`` is text normalization as it was
before its all-letters fast path and token interning: the per-character
rule applied to every token.
``lm1`` counts significant words by the closed form of their chi-square in
integers. ``read_vectors``, ``word_metric`` and ``sentence_metric`` parse a
vector file into lists and take angles by ``math.acos`` of cosines from
``math.fsum`` dot products, as the paper defines them; they refuse cosines
within 1e-3 of ±1, where ``acos`` loses digits, so tests compare them with
the package within a tolerance. ``sequential_angular`` is the package's
angle formula in plain Python, its sums added left to right, to be matched
bit for bit.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

Reviews = list[tuple[str, list[str]]]


def normalize(text: str, stopwords: frozenset[str]) -> list[str]:
    tokens = []
    for raw in text.lower().split():
        word = "".join(ch for ch in raw if ch.isalpha())
        if word and word not in stopwords:
            tokens.append(word)
    return tokens


def word_counts(reviews: Reviews) -> dict[str, list[int]]:
    counts: dict[str, list[int]] = {}
    for label, tokens in reviews:
        slot = 0 if label == "positive" else 1
        for token in tokens:
            counts.setdefault(token, [0, 0])[slot] += 1
    return counts


def significant_set(reviews: Reviews) -> set[str]:
    # With the expected count (c_p + c_n) / 2 on each side, a word's chi-square
    # is (c_p - c_n)**2 / (c_p + c_n); at least 1.0 means this integer test.
    return {word for word, (c_p, c_n) in word_counts(reviews).items()
            if c_p + c_n >= 10 and (c_p - c_n) ** 2 >= c_p + c_n}


def lm1(reviews_s: Reviews, reviews_t: Reviews) -> int:
    """Significant words (at least 10 occurrences, chi-square at least 1.0) the domains share."""
    return len(significant_set(reviews_s) & significant_set(reviews_t))


def polar_set(reviews: Reviews, threshold: float = 0.5) -> set[str]:
    polar = set()
    for word, (c_p, c_n) in word_counts(reviews).items():
        p = c_p / (c_p + c_n)
        n = c_n / (c_p + c_n)
        if abs(p - n) >= threshold:
            polar.add(word)
    return polar


def _clamp(x: float) -> float:
    return min(max(x, 1e-6), 1.0 - 1e-6)


def _probabilities(reviews: Reviews, word: str) -> tuple[float, float]:
    c_p, c_n = word_counts(reviews)[word]
    return _clamp(c_p / (c_p + c_n)), _clamp(c_n / (c_p + c_n))


def skld_metric(reviews_s: Reviews, reviews_t: Reviews) -> float | None:
    polar_s = polar_set(reviews_s)
    polar_t = polar_set(reviews_t)
    common = polar_s & polar_t
    if not common:
        return None
    total = 0.0
    for word in common:
        p1, n1 = _probabilities(reviews_s, word)
        p2, n2 = _probabilities(reviews_t, word)
        a = n1 * math.log(n1 / n2) + p1 * math.log(p1 / p2)
        b = n2 * math.log(n2 / n1) + p2 * math.log(p2 / p1)
        total += (a + b) / 2.0
    j = len(common) / (len(polar_s) + len(polar_t) - len(common))
    return total / len(common) + 1.0 / j


def l1_metric(reviews_s: Reviews, reviews_t: Reviews) -> float | None:
    polar_s = polar_set(reviews_s)
    polar_t = polar_set(reviews_t)
    common = polar_s & polar_t
    if not common:
        return None
    total = 0.0
    for word in common:
        c1 = word_counts(reviews_s)[word]
        c2 = word_counts(reviews_t)[word]
        p1, n1 = c1[0] / sum(c1), c1[1] / sum(c1)
        p2, n2 = c2[0] / sum(c2), c2[1] / sum(c2)
        total += abs(p1 - p2) + abs(n1 - n2)
    j = len(common) / (len(polar_s) + len(polar_t) - len(common))
    return total / len(common) + 1.0 / j


def ngram_table(reviews: Reviews, order: int) -> dict[tuple[str, ...], int]:
    grams: dict[tuple[str, ...], int] = {}
    for _, tokens in reviews:
        for i in range(len(tokens) - order + 1):
            gram = tuple(tokens[i : i + order])
            grams[gram] = grams.get(gram, 0) + 1
    return grams


def weighted_entropy(grams: dict, polar: set[str], w: float, unigram: bool) -> float:
    total = sum(grams.values())
    if total == 0:
        return 0.0
    h_polar = 0.0
    h_rest = 0.0
    for gram, count in grams.items():
        p = count / total
        term = -p * math.log(p)
        if any(tok in polar for tok in gram):
            h_polar += term
        else:
            h_rest += term
    if unigram:
        return w * h_polar
    return w * h_polar + h_rest / w


def entropy_change(reviews_s: Reviews, reviews_t: Reviews) -> float | None:
    polar = polar_set(reviews_s)
    weights = {1: 1.0, 2: 5.0, 3: 5.0, 4: 5.0}
    e_before = sum(
        weighted_entropy(ngram_table(reviews_s, n), polar, weights[n], n == 1)
        for n in (1, 2, 3, 4)
    )
    mixed = reviews_s + reviews_t
    e_after = sum(
        weighted_entropy(ngram_table(mixed, n), polar, weights[n], n == 1)
        for n in (1, 2, 3, 4)
    )
    if e_before == 0.0:
        return None
    return abs(e_after - e_before) / e_before * 100.0


def loop_entropy_change(reviews_s: Reviews, reviews_t: Reviews) -> float | None:
    """entropy_change with the package's float arithmetic, term by term.

    Sums c*log(c) over the source's n-grams (target counts added) and then
    the target-only n-grams, in first-occurrence order, so it must agree
    with the package to the last bit where entropy_change agrees only to
    rounding.
    """
    polar = polar_set(reviews_s)
    weights = {1: 1.0, 2: 5.0, 3: 5.0, 4: 5.0}

    def entropy(grams: dict, w: float, unigram: bool) -> float:
        total = sum(grams.values())
        if total == 0:
            return 0.0
        sums = {True: [0, 0.0], False: [0, 0.0]}
        for gram, count in grams.items():
            slot = sums[any(tok in polar for tok in gram)]
            slot[0] += count
            slot[1] += count * math.log(count)
        h_polar, h_rest = ((math.log(total) * n - clogc) / total for n, clogc in sums.values())
        return w * h_polar if unigram else w * h_polar + h_rest / w

    e_before = 0.0
    e_after = 0.0
    for n, w in weights.items():
        grams_s = ngram_table(reviews_s, n)
        grams_t = ngram_table(reviews_t, n)
        mixed = {g: c + grams_t.get(g, 0) for g, c in grams_s.items()}
        mixed.update((g, c) for g, c in grams_t.items() if g not in grams_s)
        e_before += entropy(grams_s, w, n == 1)
        e_after += entropy(mixed, w, n == 1)
    if e_before == 0.0:
        return None
    return abs(e_after - e_before) / e_before * 100.0


def top_k(grams: dict, k: int) -> list[tuple[str, ...]]:
    return [g for g, _ in sorted(grams.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]


def ngram_overlap(
    reviews_1: Reviews,
    reviews_2: Reviews,
    k: int = 10,
    orders: tuple[int, ...] = (2, 3, 4),
) -> float:
    matched = 0
    available = 0
    for order in orders:
        t1 = top_k(ngram_table(reviews_1, order), k)
        t2 = top_k(ngram_table(reviews_2, order), k)
        matched += len(set(t1) & set(t2))
        available += max(len(t1), len(t2))
    if available == 0:
        return 1.0
    return matched / available


def sorted_ranking(
    relevant: dict[str, float | None], domains: list[str], direction: str
) -> tuple[str, ...]:
    """Sources best first from their values for one target; None is unrankable.

    Ties break toward the lower index in ``domains``; unrankable sources
    come last in domain order.
    """
    index = {d: i for i, d in enumerate(domains)}
    ranked = [s for s in relevant if relevant[s] is not None]
    unranked = sorted((s for s in relevant if relevant[s] is None), key=index.get)
    if direction == "lower_is_more_similar":
        ranked.sort(key=lambda s: (relevant[s], index[s]))
    else:
        ranked.sort(key=lambda s: (-relevant[s], index[s]))
    return tuple(ranked + unranked)


def argsort_ranking(values: np.ndarray, domains: list[str], direction: str,
                    target: str) -> tuple[str, ...]:
    """Sources for ``target`` best first from an N x N array: NaN last, ties in domain order."""
    t = domains.index(target)
    column = values[:, t]
    keys = column if direction == "lower_is_more_similar" else -column
    return tuple(domains[i] for i in np.argsort(keys, kind="stable") if i != t)


def left_to_right(values) -> float:
    """The sum of ``values``, added in order from 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total


def numpy_chart(acc: np.ndarray, domains: list[str]) -> list[tuple[str, float, float, str, str]]:
    """(domain, in-domain accuracy, average degradation, best source, best target) per domain.

    The degradation subtracts the mean of the row's off-diagonal cells, added
    left to right; best source and target are the first maximum of the
    column and the row, the diagonal masked out.
    """
    n = len(domains)
    off_diag = ~np.eye(n, dtype=bool)
    masked = np.where(off_diag, acc, -np.inf)
    best_target_idx = np.argmax(masked, axis=1)
    best_source_idx = np.argmax(masked, axis=0)
    return [
        (domains[d], float(acc[d, d]),
         float(acc[d, d]) - left_to_right(acc[d, off_diag[d]].tolist()) / (n - 1),
         domains[int(best_source_idx[d])], domains[int(best_target_idx[d])])
        for d in range(n)
    ]


def evaluation_scores(
    acc: list[list[float]],
    values: list[list[float | None]],
    domains: list[str],
    direction: str,
    k: int,
) -> tuple[float, float]:
    """(precision_pct, nra) at K of a metric's rankings against the accuracy rankings.

    ``acc[i][j]`` and ``values[i][j]`` are source ``domains[i]``'s accuracy
    and metric value on target ``domains[j]``; a None value is unrankable.
    """
    hits = 0
    matches = 0
    for t, target in enumerate(domains):
        truth = sorted_ranking(
            {s: acc[i][t] for i, s in enumerate(domains) if i != t}, domains,
            "higher_is_more_similar")
        pred = sorted_ranking(
            {s: values[i][t] for i, s in enumerate(domains) if i != t}, domains, direction)
        for source in pred[:k]:
            if source in truth[:k]:
                hits += 1
        for position in range(k):
            if pred[position] == truth[position]:
                matches += 1
    cells = len(domains) * k
    return 100.0 * hits / cells, matches / cells


def select_reviews(corpus, score, count: int = 500, mode: str = "heldout") -> list[str]:
    """Ids of the reviews ``select_test_vectors`` picks; ``score(tokens)`` is the review score.

    The filter keeps reviews of at most 100 tokens whose |score| exceeds
    0.01; ``top`` sorts them by (-|score|, corpus index) and keeps the
    first ``count``, ``heldout`` keeps the last ``count`` in corpus order.
    """
    qualifying = []
    for i, (_, tokens) in enumerate(corpus.reviews):
        if len(tokens) > 100:
            continue
        if abs(score(tokens)) > 0.01:
            qualifying.append(i)
    if mode == "top":
        qualifying.sort(key=lambda i: (-abs(score(corpus.reviews[i][1])), i))
        selected = qualifying[:count]
    else:
        selected = qualifying[-count:]
    return [f"{corpus.domain_id}:{i}" for i in selected]


def read_vectors(path) -> dict[str, list[float]]:
    """A vector file's entries by key; a first line of two integers is its header."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if parts and not (lineno == 1 and len(parts) == 2 and all(map(str.isdigit, parts))):
                entries[parts[0]] = [float(x) for x in parts[1:]]
    return entries


def _angular(x: list[float], y: list[float]) -> float:
    dot = math.fsum(a * b for a, b in zip(x, y))
    cosine = dot / math.sqrt(math.fsum(a * a for a in x) * math.fsum(b * b for b in y))
    if abs(cosine) > 1.0 - 1e-3:
        raise ValueError(f"cosine {cosine} too close to ±1 for acos")
    return 1.0 - math.acos(cosine) / math.pi


def word_metric(table_s: dict[str, list[float]], table_t: dict[str, list[float]],
                adjectives: frozenset[str]) -> float | None:
    """Mean angular similarity over the common adjectives plus their Jaccard coefficient."""
    adj_s = {word for word in table_s if word in adjectives}
    adj_t = {word for word in table_t if word in adjectives}
    common = adj_s & adj_t
    if not common:
        return None
    similarity = math.fsum(_angular(table_s[w], table_t[w]) for w in common) / len(common)
    return similarity + len(common) / len(adj_s | adj_t)


def sequential_angular(x: list[float], y: list[float]) -> float:
    """1 - 2*atan2(|u - v|, |u + v|)/pi of the unit vectors u and v, norms summed left to right."""
    norm_x = math.sqrt(left_to_right(a * a for a in x))
    norm_y = math.sqrt(left_to_right(b * b for b in y))
    u = [a / norm_x for a in x]
    v = [b / norm_y for b in y]
    diff = math.sqrt(left_to_right((a - b) * (a - b) for a, b in zip(u, v)))
    total = math.sqrt(left_to_right((a + b) * (a + b) for a, b in zip(u, v)))
    return 1.0 - 2.0 * math.atan2(diff, total) / math.pi


def sentence_metric(vectors_s: list[list[float]], vectors_t: list[list[float]]) -> float | None:
    """Angular similarity of the two sets' mean vectors; None if either mean is about zero."""
    means = [[math.fsum(column) / len(vectors) for column in zip(*vectors)]
             for vectors in (vectors_s, vectors_t)]
    if min(math.sqrt(math.fsum(x * x for x in mean)) for mean in means) < 1e-12:
        return None
    return _angular(*means)


FEATURE_DIM = 1 << 16


def _hash_features(tokens) -> np.ndarray:
    idx = {zlib.crc32(tok.encode("utf-8")) & (FEATURE_DIM - 1) for tok in tokens}
    return np.fromiter(sorted(idx), dtype=np.int64, count=len(idx))


def _featurize(corpus) -> list[tuple[np.ndarray, int]]:
    return [
        (_hash_features(tokens), 1 if label == "positive" else 0)
        for label, tokens in corpus.reviews
    ]


def _train_logistic(
    examples: list[tuple[np.ndarray, int]],
    rng: np.random.Generator,
    epochs: int = 4,
    lr: float = 0.5,
) -> tuple[np.ndarray, float]:
    # Online logistic regression on binary hashed-presence features.
    weights = np.zeros(FEATURE_DIM, dtype=np.float64)
    bias = 0.0
    for _ in range(epochs):
        for i in rng.permutation(len(examples)):
            idx, y = examples[i]
            z = left_to_right(weights[idx].tolist()) + bias
            z = min(35.0, max(-35.0, z))
            grad = 1.0 / (1.0 + np.exp(-z)) - y
            weights[idx] -= lr * grad
            bias -= lr * grad
    return weights, bias


def _accuracy(weights: np.ndarray, bias: float, examples) -> float:
    correct = sum(
        1 for idx, y in examples if ((left_to_right(weights[idx].tolist()) + bias) > 0.0) == bool(y)
    )
    return correct / len(examples)


def sequential_baseline(corpora, splits: int = 5, seed: int = 0) -> np.ndarray:
    """The baseline's N x N accuracy array (%), one model and one example at a time."""
    features = [_featurize(c) for c in corpora]
    n = len(corpora)

    fold_indices = []
    for t in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, t]))
        fold_indices.append(np.array_split(rng.permutation(len(features[t])), splits))

    acc = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        examples = features[s]
        fold_accs = []
        for held_out in range(splits):
            train_set = [
                examples[i]
                for f in range(splits)
                if f != held_out
                for i in fold_indices[s][f]
            ]
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2, s, held_out]))
            weights, bias = _train_logistic(train_set, rng)
            test_set = [examples[i] for i in fold_indices[s][held_out]]
            fold_accs.append(_accuracy(weights, bias, test_set))
        acc[s, s] = 100.0 * (left_to_right(fold_accs) / splits)

        rng = np.random.default_rng(np.random.SeedSequence([seed, 3, s]))
        weights, bias = _train_logistic(examples, rng)
        for t in range(n):
            if t == s:
                continue
            split_accs = [
                _accuracy(weights, bias, [features[t][i] for i in fold])
                for fold in fold_indices[t]
            ]
            acc[s, t] = 100.0 * (left_to_right(split_accs) / splits)
    return acc
