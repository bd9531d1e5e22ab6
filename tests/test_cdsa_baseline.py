"""The CDSA accuracy matrix: the trainer in ``cdsa_baseline`` that produces one, and the
loader, the bundled reference and the chart in ``evaluation`` that read one."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_corpus
from domainsim.cdsa_baseline import train_eval_baseline
from domainsim.cli import write_accuracy_matrix_csv
from domainsim.errors import InputError
from domainsim.evaluation import chart, load_accuracy_matrix, reference_accuracy_matrix
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, PairMatrix


def accuracy_matrix(domains, acc):
    return PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, domains, acc)


def accuracy(matrix, source, target):
    return float(matrix.values[matrix.domains.index(source)][matrix.domains.index(target)])


def test_reference_matrix_shape_and_anchor_cells():
    matrix = reference_accuracy_matrix()
    assert len(matrix.domains) == 20
    assert accuracy(matrix, "D1", "D1") == 84.84
    assert accuracy(matrix, "D10", "D1") == 82.75
    assert accuracy(matrix, "D12", "D20") == 77.50


def test_load_small_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("domain,A,B\nA,90,70\nB,60,80\n")
    matrix = load_accuracy_matrix(path)
    assert matrix.domains == ("A", "B")
    assert accuracy(matrix, "A", "B") == 70.0


def test_load_matrix_reorders_rows_to_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("domain,A,B\nB,60,80\nA,90,70\n")
    matrix = load_accuracy_matrix(path)
    assert accuracy(matrix, "A", "A") == 90.0


@pytest.mark.parametrize(
    "content, match",
    [
        ("domain,A,B\nA,90,105.0\nB,60,80\n", "out of range"),
        ("domain,A,B\nA,90\nB,60,80\n", "expected 2"),
        ("domain,A,B\nA,90,70\nC,60,80\n", "differ"),
        ("domain,A,B\nA,90,70\n", "differ"),
        ("domain,A,B\nA,90,x\nB,60,80\n", "non-numeric"),
        ("domain,A,A\nA,90,70\nA,60,80\n", "duplicate"),
        ("domain,A,B\nA,90,nan\nB,60,80\n", "line 2: non-finite cell 'nan'"),
        ("domain,A,B\nA,90,70\nB,inf,80\n", "line 3: non-finite cell 'inf'"),
        ("domain,A,B\nB,60,80\nA,-inf,70\n", "line 3: non-finite cell '-inf' in row A"),
        ("domain,A,B\nA,90,60\nA,10,20\nB,70,80\n",
         r"m\.csv, line 3: repeated row for 'A' \(first on line 2\)"),
        ("domain,A,B\nA,90,70\nB,60\n", r"m\.csv, line 3: row for 'B' has 1 cells, expected 2"),
        ("domain,A\nA,90\n", r"m\.csv, line 1: accuracy matrix needs at least 2 domains"),
        ("domain,A,B\nA,90,70\nB,-0.5,80\n",
         r"m\.csv, line 3: cell '-0\.5' in row B out of range \[0, 100\]"),
        ("domain,A,B\nA,100.01,70\nB,60,80\n",
         r"m\.csv, line 2: cell '100\.01' in row A out of range \[0, 100\]"),
        # Not strict, the open quote swallowed line 3: "missing rows ['B']".
        ('domain,A,B\nA,90,"70\nB,60,80\n',
         r"m\.csv, line 2: malformed CSV \(unexpected end of data\)"),
        ('domain,A,B\nA,90,70\nB,"60" 5,80\n',
         r"m\.csv, line 3: malformed CSV \(',' expected after '\"'\)"),
        # A record over several lines is named by the line it starts on.
        ('domain,A,B\nA,"9\n0",70\nB,60,80\n',
         r"m\.csv, line 2: non-numeric cell '9\\n0' in row A$"),
        ('domain,A,B\nA,"9\n0"\nB,60,80\n', r"m\.csv, line 2: row for 'A' has 1 cells"),
        ('domain,A,B\nA,"9\n0",60\nA,10,20\nB,70,80\n',
         r"m\.csv, line 4: repeated row for 'A' \(first on line 2\)"),
        ('domain,A,B\nA,90,60\nA,"1\n0",20\nB,70,80\n',
         r"m\.csv, line 3: repeated row for 'A' \(first on line 2\)"),
    ],
)
def test_load_matrix_rejects_bad_input(tmp_path, content, match):
    path = tmp_path / "m.csv"
    path.write_text(content)
    with pytest.raises(InputError, match=match):
        load_accuracy_matrix(path)


def test_matrix_roundtrip_two_decimals(tmp_path):
    matrix = accuracy_matrix(("A", "B"), np.array([[90.123, 70.0], [60.5, 80.25]]))
    path = tmp_path / "m.csv"
    write_accuracy_matrix_csv(matrix, path)
    assert "90.12" in path.read_text()
    again = load_accuracy_matrix(path)
    assert accuracy(again, "A", "A") == 90.12


def test_chart_two_by_two():
    # Degradation is the domain's in-domain accuracy minus the mean of its
    # cross-domain accuracies as a source.
    matrix = accuracy_matrix(("A", "B"), np.array([[90.0, 70.0], [60.0, 80.0]]))
    rows = {r.domain_id: r for r in chart(matrix)}
    assert rows["A"].in_domain_acc == 90.0
    assert rows["A"].avg_degradation == pytest.approx(20.0)
    assert rows["B"].avg_degradation == pytest.approx(20.0)
    assert rows["A"].best_source == "B"
    assert rows["A"].best_target == "B"


def test_chart_tie_breaks_toward_lower_index():
    acc = np.array([
        [90.0, 75.0, 75.0],
        [70.0, 90.0, 75.0],
        [70.0, 75.0, 90.0],
    ])
    matrix = accuracy_matrix(("A", "B", "C"), acc)
    rows = {r.domain_id: r for r in chart(matrix)}
    # Column A has the tie 70/70 between B and C; row A ties 75/75 on B and C.
    assert rows["A"].best_source == "B"
    assert rows["A"].best_target == "B"


def test_chart_permutation_equivariant():
    rng = np.random.default_rng(17)
    acc = rng.uniform(50, 95, size=(5, 5))
    names = ("V", "W", "X", "Y", "Z")
    base = {r.domain_id: r for r in chart(accuracy_matrix(names, acc))}
    perm = [3, 0, 4, 2, 1]
    permuted_names = tuple(names[i] for i in perm)
    permuted_acc = acc[np.ix_(perm, perm)]
    permuted = {r.domain_id: r for r in chart(accuracy_matrix(permuted_names, permuted_acc))}
    for name in names:
        assert base[name].in_domain_acc == permuted[name].in_domain_acc
        assert base[name].avg_degradation == pytest.approx(permuted[name].avg_degradation)
        assert base[name].best_source == permuted[name].best_source
        assert base[name].best_target == permuted[name].best_target


def test_chart_argmax_invariant_under_constant_shift():
    rng = np.random.default_rng(18)
    acc = rng.uniform(40, 80, size=(4, 4))
    names = ("A", "B", "C", "D")
    base = chart(accuracy_matrix(names, acc))
    shifted = chart(accuracy_matrix(names, acc + 15.0))
    for r1, r2 in zip(base, shifted):
        assert r1.best_source == r2.best_source
        assert r1.best_target == r2.best_target


def test_reference_matrix_structure():
    matrix = reference_accuracy_matrix()
    acc = np.array(matrix.values)
    n = len(matrix.domains)
    diag_is_row_max = sum(
        1 for i in range(n) if acc[i, i] >= np.delete(acc[i], i).max()
    )
    assert diag_is_row_max >= 18
    rows = {r.domain_id: r for r in chart(matrix)}
    worst = max(rows.values(), key=lambda r: r.avg_degradation)
    assert worst.domain_id == "D15"


def _separable_domain(name, pos_vocab, neg_vocab, n=400, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = "positive" if i % 2 == 0 else "negative"
        vocab = pos_vocab if label == "positive" else neg_vocab
        rows.append((label, " ".join(rng.choice(vocab, size=4))))
    return build_corpus(name, rows)


def test_baseline_separable_domains_score_high():
    pos = [f"up{i}" for i in range(12)]
    neg = [f"dn{i}" for i in range(12)]
    with pytest.warns(UserWarning, match="proportional"):
        matrix = train_eval_baseline(
            [_separable_domain("a", pos, neg, seed=1), _separable_domain("b", pos, neg, seed=2)],
            seed=3,
        )
    assert np.all(np.array(matrix.values) >= 95.0)


def test_baseline_in_domain_memorizable_toy():
    pos = [f"up{i}" for i in range(6)]
    neg = [f"dn{i}" for i in range(6)]
    with pytest.warns(UserWarning, match="proportional"):
        matrix = train_eval_baseline(
            [_separable_domain("a", pos, neg, seed=4), _separable_domain("b", pos, neg, seed=5)],
            seed=6,
        )
    assert accuracy(matrix, "a", "a") >= 99.0
    assert accuracy(matrix, "b", "b") >= 99.0


def test_baseline_random_labels_score_chance():
    vocab = [f"w{i}" for i in range(40)]
    n_reviews = 1000
    def noisy(name, seed):
        local = np.random.default_rng(seed)
        rows = []
        for i in range(n_reviews):
            label = "positive" if i % 2 == 0 else "negative"
            rows.append((label, " ".join(local.choice(vocab, size=6))))
        return build_corpus(name, rows)
    with pytest.warns(UserWarning, match="proportional"):
        matrix = train_eval_baseline([noisy("a", 20), noisy("b", 21)], seed=22)
    # Each cell scores every target review once: binomial SE at chance, in points.
    se = 100.0 * np.sqrt(0.25 / n_reviews)
    values = np.array(matrix.values)
    assert np.all(np.abs(values - 50.0) <= 4.0 * se)
    # The mean of the 4 cells has SE se/2, so this is a 4-sigma check on a shared bias.
    assert abs(float(values.mean()) - 50.0) <= 2.0 * se


def test_baseline_deterministic_given_seed():
    pos = [f"up{i}" for i in range(8)]
    neg = [f"dn{i}" for i in range(8)]
    corpora = [_separable_domain("a", pos, neg, seed=7), _separable_domain("b", pos, neg, seed=8)]
    with pytest.warns(UserWarning):
        m1 = train_eval_baseline(corpora, seed=9)
    with pytest.warns(UserWarning):
        m2 = train_eval_baseline(corpora, seed=9)
    assert np.array_equal(m1.values, m2.values)


def test_baseline_input_validation():
    corpus = build_corpus("a", [("positive", "x"), ("negative", "y")])
    with pytest.raises(InputError, match="at least 2"):
        train_eval_baseline([corpus])
    with pytest.raises(InputError, match="at least 1 split"):
        train_eval_baseline([corpus, corpus], splits=0)
    tiny = build_corpus("b", [("positive", "x"), ("negative", "y")])
    with pytest.raises(InputError, match="fewer reviews"):
        with pytest.warns(UserWarning):
            train_eval_baseline([corpus, tiny])


def test_baseline_warns_on_unbalanced_labels():
    pos = [f"up{i}" for i in range(6)]
    neg = [f"dn{i}" for i in range(6)]
    balanced = _separable_domain("a", pos, neg, n=40, seed=10)
    rows = [("positive", "up0 up1")] * 30 + [("negative", "dn0 dn1")] * 10
    lopsided = build_corpus("b", rows)
    with pytest.warns(UserWarning) as caught:
        train_eval_baseline([balanced, lopsided], seed=11)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert "proportional splits: a, b" in messages[0]
    assert "unbalanced labels: b" in messages[1]
