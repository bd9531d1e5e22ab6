from __future__ import annotations

import csv
import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import synth
from domainsim import cli, corpus, evaluation, labelled_metrics, lexstats
from domainsim import embedding_metrics as emb
from domainsim.cli import main, write_accuracy_matrix_csv
from domainsim.errors import InputError
from domainsim.evaluation import reference_accuracy_matrix
from domainsim.pairs import HIGHER_IS_MORE_SIMILAR, LOWER_IS_MORE_SIMILAR, PairMatrix


def _write_domain(path: Path, name: str, rows):
    with path.open("w", encoding="utf-8") as fh:
        for label, text in rows:
            fh.write(json.dumps({"domain": name, "label": label, "text": text}) + "\n")


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(31)
    shared_pos = [f"nice{c}" for c in "abcdefgh"]
    shared_neg = [f"grim{c}" for c in "abcdefgh"]
    domains = {}
    for idx, name in enumerate(("A", "B", "C")):
        rows = []
        for i in range(160):
            label = "positive" if i % 2 == 0 else "negative"
            pool = shared_pos if label == "positive" else shared_neg
            # Domain-specific filler keeps the corpora apart without
            # destroying the shared polar vocabulary.
            filler = [f"fill{name.lower()}{j}" for j in range(4 + idx)]
            tokens = [str(w) for w in rng.choice(pool, size=3)]
            tokens += [str(w) for w in rng.choice(filler, size=3)]
            rows.append((label, " ".join(tokens)))
        path = tmp_path / f"{name}.jsonl"
        _write_domain(path, name, rows)
        domains[name] = str(path)
    config = {
        "domains": domains,
        "out": str(tmp_path / "out"),
        "metrics": ["LM1", "LM2", "LM4", "NGRAM"],
        "k": [1, 2],
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path


def _read_csv(path: Path):
    with path.open("r", newline="") as fh:
        return list(csv.DictReader(fh))


def test_ingest_writes_summary(workspace, capsys):
    tmp_path, config = workspace
    assert main(["ingest", "--config", str(config)]) == 0
    rows = _read_csv(tmp_path / "out" / "ingest_summary.csv")
    assert [r["domain"] for r in rows] == ["A", "B", "C"]
    assert all(r["balanced"] == "yes" for r in rows)
    assert int(rows[0]["reviews"]) == 160


def test_ingest_flags_unbalanced_domain(tmp_path):
    path = tmp_path / "L.jsonl"
    rows = [("positive", "good stuff")] * 3 + [("negative", "bad stuff")]
    _write_domain(path, "L", rows)
    out = tmp_path / "out"
    code = main(["ingest", "--domains", f"L={path}", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "ingest_summary.csv")
    assert rows[0]["balanced"] == "no"


def test_ingest_missing_file_exit_one(tmp_path, capsys):
    code = main(["ingest", "--domains", f"X={tmp_path}/absent.jsonl",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "domain X" in capsys.readouterr().err


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_an_output_directory_that_cannot_be_made_exits_one(tmp_path, capsys, under_file):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "out" if under_file else taken
    assert main(["chart", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")


def test_domain_name_mismatch_exit_one(tmp_path, capsys):
    path = tmp_path / "real.jsonl"
    _write_domain(path, "real", [("positive", "good"), ("negative", "bad")])
    code = main(["ingest", "--domains", f"alias={path}", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "contains domain" in capsys.readouterr().err


EVALUATE = ["-m", "domainsim", "evaluate", "--metrics", "LM2", "--k", "1", "--accuracy-matrix"]
CORPUS, EMB, LM = "domainsim.corpus", "domainsim.embedding_metrics", "domainsim.labelled_metrics"


@pytest.mark.parametrize("command, loads_numpy, unloaded", [
    (["-c", "import domainsim.cli"], False, {CORPUS, EMB, LM}),
    (["-m", "domainsim", "ingest"], False, {EMB, LM}),
    (["-m", "domainsim", "metrics", "--metrics", "LM4"], True, {EMB}),
    (["-m", "domainsim", "metrics", "--metrics", "LM1,LM2,LM3"], False, {EMB}),
    (["-m", "domainsim", "metrics", "--metrics", "NGRAM"], True, {EMB, LM}),
    (["-m", "domainsim", "baseline"], True, {EMB, LM}),
    (["-m", "domainsim", "chart", "--accuracy-matrix", "reference"], False, {CORPUS, EMB, LM}),
    ([*EVALUATE, "reference"], False, {CORPUS, EMB, LM}),
    ([*EVALUATE, "matrix.csv"], False, {CORPUS, EMB, LM}),
], ids=["import", "ingest", "metrics", "metrics-lm1-lm3", "metrics-ngram", "baseline", "chart",
        "evaluate-reference", "evaluate-csv"])
def test_numpy_loads_only_when_a_command_uses_it(tmp_path, command, loads_numpy, unloaded):
    # In process numpy and every module are loaded already (this module
    # imports them), so only a fresh interpreter shows what a command loads:
    # numpy only when it computes with it, dataclasses never, and none of the
    # ``unloaded`` package modules.
    paths = synth.write_jsonl(synth.synthetic_reviews(n_domains=2, reviews_per_domain=8, seed=5),
                              tmp_path / "corpora")
    out = tmp_path / "out"
    out.mkdir()
    # The inputs evaluate reads: an accuracy matrix CSV over the corpora and an
    # LM2 file over the domains of the matrix the command evaluates against.
    corpus_domains = tuple(paths)
    write_accuracy_matrix_csv(PairMatrix("CDSA", HIGHER_IS_MORE_SIMILAR, corpus_domains,
                                         [[90.0, 70.0], [60.0, 80.0]]), tmp_path / "matrix.csv")
    domains = reference_accuracy_matrix().domains if "reference" in command else corpus_domains
    values = [[float((i + 2 * j) % 5) for j in range(len(domains))] for i in range(len(domains))]
    cli.write_metric_csv(PairMatrix("LM2", LOWER_IS_MORE_SIMILAR, domains, values),
                         out / "metric_LM2.csv")
    if command[0] == "-m":
        command = [*command, "--domains", ",".join(f"{d}={p}" for d, p in paths.items()),
                   "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -X importtime writes a line for each module the interpreter runs.
    done = subprocess.run([sys.executable, "-X", "importtime", *command], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ran = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
           if line.startswith("import time:")}
    assert "domainsim.cli" in ran
    assert ("numpy._core" in ran) == loads_numpy
    assert "dataclasses" not in ran
    # json loads only to parse a JSONL corpus or --config, so not for chart or evaluate.
    if "chart" in command or "evaluate" in command:
        assert "json" not in ran
    assert ran & unloaded == set()
    if "evaluate" in command:
        assert (out / "eval_report.csv").is_file()


def test_metrics_writes_expected_pair_counts(workspace):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config)]) == 0
    out = tmp_path / "out"
    for metric in ("LM1", "LM2", "LM4", "NGRAM"):
        rows = _read_csv(out / f"metric_{metric}.csv")
        assert len(rows) == 6
    lm1 = {(r["source"], r["target"]): r["value"] for r in _read_csv(out / "metric_LM1.csv")}
    assert lm1[("A", "B")] == lm1[("B", "A")]
    assert (out / "ngram_overlap_matrix.csv").is_file()


def test_metrics_build_one_ngram_index_for_lm4_and_ngram(workspace, monkeypatch):
    tmp_path, config = workspace
    built = []
    init = corpus.NgramIndex.__init__

    def counting_init(index, corpora):
        built.append([c.domain_id for c in corpora])
        init(index, corpora)

    monkeypatch.setattr(corpus.NgramIndex, "__init__", counting_init)
    assert main(["metrics", "--config", str(config), "--metrics", "LM4,NGRAM"]) == 0
    assert built == [["A", "B", "C"]]


def test_metrics_cut_each_polar_table_once_for_lm2_lm3_and_lm4(workspace, monkeypatch):
    tmp_path, config = workspace
    calls = Counter()

    def count(owner, name):
        func = getattr(owner, name)

        def counted(*args):
            calls[owner.__name__, name] += 1
            return func(*args)

        monkeypatch.setattr(owner, name, counted)

    count(cli, "polarity_table")
    count(cli, "polar_words")
    count(labelled_metrics, "polar_words")
    assert main(["metrics", "--config", str(config), "--metrics", "LM2,LM3,LM4"]) == 0
    assert calls == Counter({("domainsim.cli", "polarity_table"): 3,
                             ("domainsim.cli", "polar_words"): 3})


def test_metrics_requires_vectors_before_compute(workspace, capsys):
    tmp_path, config = workspace
    code = main(["metrics", "--config", str(config), "--metrics", "ULM1"])
    assert code == 1
    assert "needs --vectors" in capsys.readouterr().err


def test_metrics_missing_vector_file_is_preflight_error(workspace, capsys):
    tmp_path, config = workspace
    vec_dir = tmp_path / "vecs"
    vec_dir.mkdir()
    (vec_dir / "A.vec").write_text("nicea 1.0 0.0\n")
    adj = tmp_path / "adj.txt"
    adj.write_text("nicea\n")
    code = main(["metrics", "--config", str(config), "--metrics", "ULM1",
                 "--vectors", f"ULM1={vec_dir}", "--adjectives", str(adj)])
    assert code == 1
    assert "missing vector file" in capsys.readouterr().err


def test_metrics_word_vector_flow(workspace):
    tmp_path, config = workspace
    vec_dir = tmp_path / "vecs"
    vec_dir.mkdir()
    rng = np.random.default_rng(8)
    for name in ("A", "B", "C"):
        with (vec_dir / f"{name}.vec").open("w") as fh:
            for word in [f"nice{c}" for c in "abcdefgh"]:
                vec = rng.normal(size=4)
                fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
    adj = tmp_path / "adj.txt"
    adj.write_text("\n".join(f"nice{c}" for c in "abcdefgh"))
    code = main(["metrics", "--config", str(config), "--metrics", "ULM1",
                 "--vectors", f"ULM1={vec_dir}", "--adjectives", str(adj)])
    assert code == 0
    rows = _read_csv(tmp_path / "out" / "metric_ULM1.csv")
    assert len(rows) == 6
    assert all(r["direction"] == "higher_is_more_similar" for r in rows)


def test_metrics_sentence_vector_flow(workspace):
    tmp_path, config = workspace
    vec_dir = tmp_path / "svecs"
    vec_dir.mkdir()
    rng = np.random.default_rng(9)
    for name in ("A", "B", "C"):
        with (vec_dir / f"{name}.vec").open("w") as fh:
            for i in range(160):
                vec = rng.normal(size=4) + 2.0
                fh.write(f"{name}:{i} " + " ".join(f"{x:.6f}" for x in vec) + "\n")
    lex = tmp_path / "lex.tsv"
    lines = [f"nice{c}\t0.8\t0.0" for c in "abcdefgh"]
    lines += [f"grim{c}\t0.0\t0.8" for c in "abcdefgh"]
    lex.write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="qualify"):
        code = main(["metrics", "--config", str(config), "--metrics", "ULM7",
                     "--vectors", f"ULM7={vec_dir}", "--sentiment-lexicon", str(lex)])
    assert code == 0
    rows = _read_csv(tmp_path / "out" / "metric_ULM7.csv")
    assert len(rows) == 6


def _matrix_csv(path: Path, names, values):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", *names])
        for name, row in zip(names, values):
            writer.writerow([name, *row])


def test_evaluate_flow(workspace):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config)]) == 0
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "C"],
                [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    code = main(["evaluate", "--config", str(config),
                 "--accuracy-matrix", str(matrix_path)])
    assert code == 0
    out = tmp_path / "out"
    eval_rows = _read_csv(out / "eval_report.csv")
    # 4 metrics x 2 K values.
    assert len(eval_rows) == 8
    chart_rows = _read_csv(out / "recommendation_chart.csv")
    assert [r["domain"] for r in chart_rows] == ["A", "B", "C"]
    assert (out / "recommendation_report.md").is_file()


def test_evaluate_domain_mismatch_lists_difference(workspace, capsys):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config)]) == 0
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "Z"],
                [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    code = main(["evaluate", "--config", str(config),
                 "--accuracy-matrix", str(matrix_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Z" in err and "C" in err


def test_evaluate_without_metrics_emits_chart_only(tmp_path, monkeypatch, capsys):
    # The default K values exceed N-1 = 2, which matters only when a metric is scored.
    calls = []
    rank_sources = evaluation.rank_sources
    monkeypatch.setattr(evaluation, "rank_sources",
                        lambda pairs: calls.append(pairs.metric_id) or rank_sources(pairs))
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "C"],
                [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    code = main(["evaluate", "--metrics", "", "--accuracy-matrix", str(matrix_path),
                 "--out", str(tmp_path / "evaluate")])
    assert code == 0
    assert "chart only" in capsys.readouterr().out
    assert calls == []
    assert main(["chart", "--accuracy-matrix", str(matrix_path),
                 "--out", str(tmp_path / "chart")]) == 0
    for out in ("evaluate", "chart"):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == [
            "recommendation_chart.csv", "recommendation_report.md"]
    for name in ("recommendation_chart.csv", "recommendation_report.md"):
        assert (tmp_path / "evaluate" / name).read_bytes() == (tmp_path / "chart" / name).read_bytes()


def test_chart_command_uses_bundled_reference(tmp_path):
    out = tmp_path / "out"
    assert main(["chart", "--out", str(out)]) == 0
    rows = _read_csv(out / "recommendation_chart.csv")
    assert len(rows) == 20
    by_domain = {r["domain"]: r for r in rows}
    assert by_domain["D1"]["best_source"] == "D10"


@pytest.mark.parametrize("command", ["chart", "evaluate"])
def test_an_accuracy_matrix_is_a_file_or_the_reference(tmp_path, capsys, command):
    # The corpus file does not exist: neither command loads corpora.
    code = main([command, "--accuracy-matrix", "generate", "--metrics", "",
                 "--domains", f"A={tmp_path / 'absent.jsonl'}", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: accuracy matrix file not found: generate\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", ["domain,A,", "domain,A, "], ids=["empty", "blank"])
def test_an_accuracy_matrix_header_with_an_empty_domain_id_is_rejected(tmp_path, capsys, header):
    # The row ",60,80" names the empty id too, so the row and column sets agree.
    path = tmp_path / "m.csv"
    path.write_text(f"{header}\nA,90,70\n,60,80\n")
    out = tmp_path / "out"
    assert main(["chart", "--accuracy-matrix", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}, line 1: empty domain id in header\n"
    assert not out.exists()


def test_chart_ranks_no_target(tmp_path, monkeypatch):
    calls = []
    rank_sources = evaluation.rank_sources
    monkeypatch.setattr(evaluation, "rank_sources",
                        lambda pairs: calls.append(pairs.metric_id) or rank_sources(pairs))
    assert main(["chart", "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_baseline_command(tmp_path):
    rng = np.random.default_rng(33)
    for name, seed in (("A", 1), ("B", 2)):
        rows = []
        local = np.random.default_rng(seed)
        for i in range(60):
            label = "positive" if i % 2 == 0 else "negative"
            pool = ["good", "fine", "super"] if label == "positive" else ["bad", "poor", "awful"]
            rows.append((label, " ".join(local.choice(pool, size=3))))
        _write_domain(tmp_path / f"{name}.jsonl", name, rows)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="proportional"):
        code = main(["baseline",
                     "--domains", f"A={tmp_path}/A.jsonl,B={tmp_path}/B.jsonl",
                     "--out", str(out), "--seed", "3"])
    assert code == 0
    rows = _read_csv(out / "accuracy_matrix.csv")
    assert len(rows) == 2


@pytest.mark.parametrize("splits", ["0", "-2"])
def test_baseline_rejects_fewer_than_one_split(workspace, capsys, splits):
    _, config = workspace
    assert main(["baseline", "--config", str(config), "--splits", splits]) == 1
    assert "at least 1 split" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_evaluate_rejects_non_finite_metric_values(workspace, capsys, bad):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config), "--metrics", "LM1"]) == 0
    path = tmp_path / "out" / "metric_LM1.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = bad
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "C"],
                [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    code = main(["evaluate", "--config", str(config), "--metrics", "LM1",
                 "--accuracy-matrix", str(matrix_path)])
    assert code == 1
    assert f"{path}, line 3: non-finite metric value '{bad}'" in capsys.readouterr().err


def _evaluate_three_domains(tmp_path, config, metric):
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "C"],
                [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    return main(["evaluate", "--config", str(config), "--metrics", metric,
                 "--accuracy-matrix", str(matrix_path)])


def test_evaluate_rejects_another_metrics_rows(workspace, capsys):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config), "--metrics", "LM1,LM2"]) == 0
    out = tmp_path / "out"
    (out / "metric_LM2.csv").write_bytes((out / "metric_LM1.csv").read_bytes())
    assert _evaluate_three_domains(tmp_path, config, "LM2") == 1
    err = capsys.readouterr().err
    assert f"{out / 'metric_LM2.csv'}, line 2: row of metric LM1" in err


def test_evaluate_rejects_a_self_pair_row(workspace, capsys):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config), "--metrics", "LM1"]) == 0
    path = tmp_path / "out" / "metric_LM1.csv"
    with path.open("a") as fh:
        fh.write("LM1,A,A,5.0,higher_is_more_similar\n")
    assert _evaluate_three_domains(tmp_path, config, "LM1") == 1
    assert f"{path}, line 8: self-pair (A, A)" in capsys.readouterr().err


DOMAINS3 = ("A", "B", "C")
LM2_ROWS = [
    ["LM2", s, t, f"{i + 1}.5", LOWER_IS_MORE_SIMILAR]
    for i, (s, t) in enumerate((s, t) for s in DOMAINS3 for t in DOMAINS3 if s != t)
]


def _write_metric_rows(path: Path, rows) -> Path:
    lines = ["metric_id,source,target,value,direction", *(",".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_metric_csv_fills_values_in_the_given_domain_order(tmp_path):
    rows = [row[:] for row in LM2_ROWS]
    rows[1][3] = ""  # (A, C) is unrankable
    path = _write_metric_rows(tmp_path / "metric_LM2.csv", rows)
    pairs = cli.read_metric_csv(path, "LM2", ("C", "A", "B"))
    assert (pairs.metric_id, pairs.direction, pairs.domains) == (
        "LM2", LOWER_IS_MORE_SIMILAR, ("C", "A", "B"))
    assert np.isnan(np.diag(pairs.values)).all()
    assert np.isnan(pairs.values[1][0])
    assert pairs.values[1][2] == 1.5 and pairs.values[0][2] == 6.5 and pairs.values[2][1] == 3.5


@pytest.mark.parametrize("row, message", [
    (["LM2", "A", "B", "9.0", LOWER_IS_MORE_SIMILAR], "duplicate pair (A, B)"),
    (["LM3", "C", "B", "9.0", LOWER_IS_MORE_SIMILAR],
     f"row of metric LM3 ({LOWER_IS_MORE_SIMILAR}), expected LM2 ({LOWER_IS_MORE_SIMILAR})"),
    (["LM2", "C", "B", "9.0", HIGHER_IS_MORE_SIMILAR],
     f"row of metric LM2 ({HIGHER_IS_MORE_SIMILAR}), expected LM2 ({LOWER_IS_MORE_SIMILAR})"),
    (["LM2", "C", "C", "9.0", LOWER_IS_MORE_SIMILAR], "self-pair (C, C)"),
    (["LM2", "C", "B"], "bad metric row"),
    (["LM2", "C", "B", "high", LOWER_IS_MORE_SIMILAR], "bad metric row"),
    (["LM2", "C", "B", "9.0", LOWER_IS_MORE_SIMILAR, "extra", "more"],
     "more fields than the header"),
    (["LM2", "C", "B", '"9.0', LOWER_IS_MORE_SIMILAR], "malformed CSV (unexpected end of data)"),
    # A record over two lines is named by the line it starts on.
    (["LM2", "C", "B", '"9\n0"', LOWER_IS_MORE_SIMILAR], "bad metric row"),
], ids=["duplicate", "other-metric", "other-direction", "self-pair", "short-row", "non-numeric",
        "extra-fields", "unterminated-quote", "multi-line-row"])
def test_read_metric_csv_rejects_bad_rows(tmp_path, row, message):
    path = _write_metric_rows(tmp_path / "metric_LM2.csv", LM2_ROWS + [row])
    with pytest.raises(InputError) as info:
        cli.read_metric_csv(path, "LM2", DOMAINS3)
    assert str(info.value) == f"{path}, line 8: {message}"


@pytest.mark.parametrize("header, cells", [
    ("metric_id,source,target,value,direction,note", lambda row: [*row, "checked"]),
    ("metric_id,source,target,value,value,direction", lambda row: [*row[:4], *row[3:]]),
], ids=["extra-column", "repeated-column"])
def test_read_metric_csv_rejects_a_header_column_outside_the_five_or_repeated(
        tmp_path, header, cells):
    path = tmp_path / "metric_LM2.csv"
    path.write_text("\n".join([header, *(",".join(cells(row)) for row in LM2_ROWS)]) + "\n")
    with pytest.raises(InputError) as info:
        cli.read_metric_csv(path, "LM2", DOMAINS3)
    assert str(info.value) == (f"{path}, line 1: header {header} must name only"
                               " metric_id,source,target,value,direction, each at most once")


@pytest.mark.parametrize("text", ["", "metric_id,source,target,value,direction\n"],
                         ids=["empty", "header-only"])
def test_read_metric_csv_rejects_a_file_with_no_rows(tmp_path, text):
    path = tmp_path / "metric_LM2.csv"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        cli.read_metric_csv(path, "LM2", DOMAINS3)
    assert str(info.value) == f"{path}: no metric rows"


def test_read_metric_csv_rejects_missing_pair(tmp_path):
    path = _write_metric_rows(tmp_path / "metric_LM2.csv", LM2_ROWS[:2] + LM2_ROWS[3:])
    with pytest.raises(InputError, match=r"missing pair \(B, A\)"):
        cli.read_metric_csv(path, "LM2", DOMAINS3)


def test_metric_registry_directions():
    directions = {metric: direction for metric, (direction, _) in cli.METRICS.items()}
    lower = {"LM2", "LM3", "LM4"}
    assert directions == {
        metric: LOWER_IS_MORE_SIMILAR if metric in lower else HIGHER_IS_MORE_SIMILAR
        for metric in ("LM1", "LM2", "LM3", "LM4", "NGRAM",
                       "ULM1", "ULM2", "ULM3", "ULM4", "ULM5", "ULM6", "ULM7")
    }


def test_identical_runs_are_byte_identical(workspace):
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    outputs = []
    for run in ("first", "second"):
        config["out"] = str(tmp_path / run)
        path = tmp_path / f"config_{run}.json"
        path.write_text(json.dumps(config))
        assert main(["ingest", "--config", str(path)]) == 0
        assert main(["metrics", "--config", str(path)]) == 0
        outputs.append(sorted((tmp_path / run).glob("*.csv")))
    first, second = outputs
    assert [p.name for p in first] == [p.name for p in second]
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes()


def test_internal_error_maps_to_exit_two(workspace, monkeypatch, capsys):
    tmp_path, config = workspace
    def boom(_config):
        raise RuntimeError("wires crossed")
    monkeypatch.setattr(cli, "cmd_ingest", boom)
    assert main(["ingest", "--config", str(config)]) == 2
    assert "internal error" in capsys.readouterr().err


def test_bad_usage_maps_to_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    for flag, value in (("--k", "many"), ("--domains", "x"), ("--vectors", "ULM1")):
        assert main(["metrics", flag, value]) == 1
        assert flag in capsys.readouterr().err


# A value for every RunConfig field in the config file, and for each field
# the flags that override it with the value they give.
FILE_CONFIG = {
    "domains": {"A": "a.jsonl"}, "format": "csv", "stopwords": "stop.txt",
    "adjectives": "adj.txt", "sentiment_lexicon": "lex.tsv", "vectors": {"ULM1": "v1"},
    "accuracy_matrix": "matrix.csv", "metrics": ["LM1"], "k": [2], "out": "file_out", "seed": 4,
}
FLAG_OVERRIDES = {
    "domains": (["--domains", "B=b.jsonl,C=c.jsonl", "--domains", "D=d.jsonl"],
                {"B": "b.jsonl", "C": "c.jsonl", "D": "d.jsonl"}),
    "format": (["--format", "jsonl"], "jsonl"),
    "stopwords": (["--stopwords", "other.txt"], "other.txt"),
    "adjectives": (["--adjectives", "other_adj.txt"], "other_adj.txt"),
    "sentiment_lexicon": (["--sentiment-lexicon", "other.tsv"], "other.tsv"),
    "vectors": (["--vectors", "ULM3=v3", "--vectors", "ULM4=v4"], {"ULM3": "v3", "ULM4": "v4"}),
    "accuracy_matrix": (["--accuracy-matrix", "other_matrix.csv"], "other_matrix.csv"),
    "metrics": (["--metrics", "LM2,NGRAM", "--metrics", "LM3"], ["LM2", "NGRAM", "LM3"]),
    "k": (["--k", "1,3", "--k", "5"], [1, 3, 5]),
    "out": (["--out", "flag_out"], "flag_out"),
    "seed": (["--seed", "9"], 9),
}


def _resolved_config(tmp_path, monkeypatch, flags) -> dict:
    """The config ``ingest`` resolves from FILE_CONFIG and ``flags``."""
    path = tmp_path / "file.json"
    path.write_text(json.dumps(FILE_CONFIG))
    seen = []
    monkeypatch.setattr(cli, "cmd_ingest", lambda workspace: seen.append(workspace.config))
    assert main(["ingest", "--config", str(path), *flags]) == 0
    return vars(seen[0])


def test_every_config_key_has_a_flag_on_every_subcommand(monkeypatch):
    namespaces = {}

    def capture(args):
        namespaces[args.command] = vars(args)
        raise InputError("captured")

    monkeypatch.setattr(cli.RunConfig, "load", capture)
    for command in ("ingest", "metrics", "evaluate", "chart", "baseline"):
        assert main([command]) == 1
    fields = set(cli.RunConfig.KEYS)
    assert fields == set(FILE_CONFIG) == set(FLAG_OVERRIDES)
    for command, namespace in namespaces.items():
        assert fields <= set(namespace), command
    assert len(namespaces) == 5


def test_absent_flags_keep_the_config_file_values(tmp_path, monkeypatch):
    assert _resolved_config(tmp_path, monkeypatch, []) == FILE_CONFIG


@pytest.mark.parametrize("key", list(FLAG_OVERRIDES))
def test_a_flag_overrides_its_config_key(tmp_path, monkeypatch, key):
    flags, value = FLAG_OVERRIDES[key]
    assert _resolved_config(tmp_path, monkeypatch, flags) == {**FILE_CONFIG, key: value}


@pytest.mark.parametrize("flags, changed", [
    (["--metrics", ""], {"metrics": []}),
    (["--domains", ""], {"domains": {}}),
    (["--vectors", ""], {"vectors": {}}),
    (["--out", ""], {}),
    (["--stopwords", ""], {}),
    (["--adjectives", ""], {}),
    (["--sentiment-lexicon", ""], {}),
    (["--accuracy-matrix", ""], {}),
    (["--seed", "0"], {"seed": 0}),
])
def test_empty_flag_values(tmp_path, monkeypatch, flags, changed):
    assert _resolved_config(tmp_path, monkeypatch, flags) == {**FILE_CONFIG, **changed}



def test_unknown_metric_and_config_keys_rejected(workspace, capsys):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config), "--metrics", "LM9"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domans": {}}))
    assert main(["ingest", "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert main(["metrics", "--config", str(config), "--metrics", "LM1,NGRAM,LM1"]) == 1
    assert "metrics listed more than once: LM1" in capsys.readouterr().err
    for key in ("ULM9", "LM1"):
        assert main(["metrics", "--config", str(config), "--vectors", f"{key}={tmp_path}"]) == 1
        assert f"vectors given for {key}, which are not vector metrics" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["A", "seed"], ids=["nested", "top-level"])
def test_a_key_repeated_in_the_config_file_exits_one(workspace, capsys, key):
    tmp_path, _ = workspace
    a, b, out = (json.dumps(str(tmp_path / name)) for name in ("A.jsonl", "B.jsonl", "out"))
    domains = f'"A": {a}, "B": {b}' + (f', "A": {a}' if key == "A" else "")
    seed = '"seed": 1, "seed": 2' if key == "seed" else '"seed": 1'
    path = tmp_path / "repeated.json"
    path.write_text(f'{{"domains": {{{domains}}}, {seed}, "out": {out}}}')
    assert main(["ingest", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: a config object repeats key '{key}'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--domains", "A={A},B={B},A={A}"], "--domains names A more than once"),
    (["--domains", "A={A}", "--domains", "B={B},A={B}"], "--domains names A more than once"),
    (["--vectors", "ULM1={dir},ULM3={dir},ULM1={dir}"], "--vectors names ULM1 more than once"),
])
def test_a_name_repeated_in_a_mapping_flag_exits_one(workspace, capsys, flags, message):
    tmp_path, config = workspace
    paths = {name: tmp_path / f"{name}.jsonl" for name in "AB"}
    flags = [flag.format(**paths, dir=tmp_path) for flag in flags]
    assert main(["ingest", "--config", str(config), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "ingest_summary.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("seed", True), ("seed", -1), ("seed", 1.5),
    ("k", ["2"]), ("k", [True]), ("k", 3),
    ("metrics", [5]), ("metrics", {"LM1": 1}),
    ("domains", {"A": 5}), ("domains", ["A"]), ("vectors", {"ULM1": 3}),
    ("out", 7), ("stopwords", 1), ("format", None),
])
def test_config_values_of_the_wrong_type_exit_one(workspace, capsys, key, value):
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    config[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    assert main(["baseline", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("k, message", [
    ("", "no K values given"), ("2,2", "K values listed more than once: 2"),
])
def test_empty_or_repeated_k_list_exits_one(workspace, capsys, k, message):
    tmp_path, config_path = workspace
    assert main(["metrics", "--config", str(config_path), "--metrics", "LM1"]) == 0
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "C"], [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    evaluate = ["evaluate", "--metrics", "LM1", "--accuracy-matrix", str(matrix_path)]
    assert main([*evaluate, "--config", str(config_path), "--k", k]) == 1
    assert message in capsys.readouterr().err
    config = json.loads(config_path.read_text())
    config["k"] = [int(v) for v in k.split(",") if v]
    path = tmp_path / "k.json"
    path.write_text(json.dumps(config))
    assert main([*evaluate, "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "eval_report.csv").exists()


def test_end_to_end_with_synthetic_generator(tmp_path):
    data = synth.synthetic_reviews(n_domains=4, reviews_per_domain=60, seed=41)
    paths = synth.write_jsonl(data, tmp_path / "corpora")
    config = {
        "domains": paths,
        "out": str(tmp_path / "out"),
        "metrics": ["LM1", "LM2", "LM3", "LM4", "NGRAM"],
        "k": [1, 3],
        "seed": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["metrics", "--config", str(config_path)]) == 0
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, list(paths),
                [[90, 80, 70, 60], [75, 88, 72, 64], [71, 69, 91, 77], [66, 72, 68, 85]])
    assert main(["evaluate", "--config", str(config_path),
                 "--accuracy-matrix", str(matrix_path)]) == 0
    eval_rows = _read_csv(tmp_path / "out" / "eval_report.csv")
    assert len(eval_rows) == 10


ROOT = Path(__file__).resolve().parent.parent
SHORTFALL = "ignore:.*requested reviews qualify:UserWarning"


@pytest.fixture()
def vector_inputs(tmp_path):
    """Three synthetic domains and two sets of vector inputs with different contents."""
    data = synth.synthetic_reviews(n_domains=3, reviews_per_domain=40, seed=6)
    corpora = synth.write_jsonl(data, tmp_path / "corpora")
    first = synth.write_vector_inputs(data, tmp_path / "first", seed=5)
    second = synth.write_vector_inputs(data, tmp_path / "second", seed=6)
    return tmp_path, corpora, first, second


def _metrics_argv(corpora, inputs, vectors: dict[str, str], out: Path) -> list[str]:
    return ["metrics", "--domains", ",".join(f"{d}={p}" for d, p in corpora.items()),
            "--metrics", ",".join(vectors),
            "--vectors", ",".join(f"{m}={d}" for m, d in vectors.items()),
            "--adjectives", inputs["adjectives"], "--sentiment-lexicon", inputs["lexicon"],
            "--out", str(out)]


def _all_vector_metrics(inputs) -> dict[str, str]:
    return {f"ULM{i}": inputs["words"] if i in (1, 3, 4, 6) else inputs["sentences"]
            for i in range(1, 8)}


class _Tracked(dict):
    """A loaded word-vector dict that, unlike a plain dict, a weak reference can watch."""


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_a_word_vector_metric_reads_no_corpus(vector_inputs):
    # The domain ids come from --domains; no corpus file is opened, so absent ones do not matter.
    tmp_path, corpora, first, _ = vector_inputs
    absent = {domain: str(tmp_path / "absent" / f"{domain}.jsonl") for domain in corpora}
    for paths, out in ((corpora, "real"), (absent, "absent")):
        assert main(_metrics_argv(paths, first, {"ULM1": first["words"]}, tmp_path / out)) == 0
    assert _outputs(tmp_path / "absent") == _outputs(tmp_path / "real")
    assert list(_outputs(tmp_path / "real")) == ["metric_ULM1.csv"]


# A word-vector file with one bad line of each kind, and the message it gives.
BAD_WORD_FILES = {
    "no-components": ("good 1.0 0.0\nbad\n", "line 2: entry has no vector components"),
    "non-numeric": ("good 1.0 0.0\nbad 0.5 x\n", "line 2: non-numeric vector component"),
    "component-count": ("good 1.0 0.0\nbad 0.5 0.5 0.5\n", "line 2: expected 2 components, got 3"),
    "duplicate": ("good 1.0 0.0\ngood 0.5 0.5\n", "line 2: duplicate entry 'good'"),
    "non-finite": ("good 1.0 0.0\nbad 0.5 inf\n", "line 2: non-finite vector component"),
    "zero-vector": ("good 1.0 0.0\nbad 0.0 -0.0\n", "line 2: zero vector for 'bad'"),
    # Its squared length underflows to 0.0, so no angle to it is defined.
    "underflowing-vector": ("good 1.0 0.0\nbad 1e-200 0.0\n", "line 2: zero vector for 'bad'"),
    "header-count": ("3 2\ngood 1.0 0.0\nbad 0.5 0.5\n",
                     "line 1: header gives 3 entries, the file has 2"),
    # Components are checked as finite only after every line's key checks.
    "duplicate-after-non-finite": ("good 1.0 0.0\nbad inf 0.5\ngood 0.5 0.5\n",
                                   "line 3: duplicate entry 'good'"),
}


@pytest.mark.parametrize("kind", BAD_WORD_FILES)
def test_metrics_name_the_bad_line_of_a_word_vector_file(vector_inputs, capsys, kind):
    tmp_path, corpora, first, _ = vector_inputs
    text, message = BAD_WORD_FILES[kind]
    path = Path(first["words"]) / "D2.vec"
    path.write_text(text)
    assert main(_metrics_argv(corpora, first, {"ULM1": first["words"]}, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {path}, {message}\n"


@pytest.mark.parametrize("reading", ["words", "sentences"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "never-compared"])
@pytest.mark.filterwarnings(SHORTFALL)
def test_metrics_reject_a_vector_file_whose_dimension_differs_from_the_directorys(
        vector_inputs, capsys, reading, shared):
    # D2's vectors keep 4 of their 8 components. When not shared, D2 holds no
    # word another file holds, or its sentence vectors are all zero: no pair
    # with D2 is ever compared, so only the load can notice.
    tmp_path, corpora, first, _ = vector_inputs
    directory = Path(first[reading])
    path = directory / "D2.vec"
    keys = [line.split()[0] for line in path.read_text().splitlines()]
    rows = np.ones((len(keys), 4))
    if not shared and reading == "words":
        keys = [synth.word_token("qp", 100 + i) for i in range(len(keys))]
    elif not shared:
        rows[:] = 0.0
    path.write_text("".join(f"{key} {' '.join(map(repr, row))}\n"
                            for key, row in zip(keys, rows.tolist())))
    metric = "ULM1" if reading == "words" else "ULM2"
    out = tmp_path / "out"
    assert main(_metrics_argv(corpora, first, {metric: str(directory)}, out)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: vectors of 4 components, but {directory / 'D1.vec'} has 8\n")
    assert not (out / f"metric_{metric}.csv").exists()


@pytest.mark.parametrize("kind, message", [
    ("missing", "sentence vectors for D2 miss 1 review id(s), e.g. ['D2:5']"),
    ("stray", "sentence vectors for D2: 1 id(s) name no kept review, e.g. ['D2:40'];"
              " ids number kept reviews, not file lines"),
], ids=["missing", "stray"])
@pytest.mark.filterwarnings(SHORTFALL)
def test_metrics_reject_a_sentence_file_whose_ids_are_not_the_reviews(
        vector_inputs, capsys, kind, message):
    tmp_path, corpora, first, _ = vector_inputs
    path = Path(first["sentences"]) / "D2.vec"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 40 and lines[5].startswith("D2:5 ")
    if kind == "missing":
        del lines[5]
    else:
        lines.append("D2:40" + lines[0][len("D2:0"):])
    path.write_text("".join(lines))
    assert main(_metrics_argv(corpora, first, {"ULM2": first["sentences"]}, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings(SHORTFALL)
def test_metrics_parse_each_vector_file_score_each_review_and_load_the_lexicon_once(
        vector_inputs, monkeypatch):
    tmp_path, corpora, first, _ = vector_inputs
    seen = {"files": Counter(), "reviews": Counter(), "lexicon": Counter()}

    def count(kind, owner, name, key):
        func = getattr(owner, name)

        def counted(*args, **kwargs):
            seen[kind][key(*args)] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count("files", emb, "load_word_vectors", lambda path, *_: str(path))
    count("files", emb, "load_sentence_vectors", lambda path, *_: str(path))
    count("reviews", lexstats, "review_score", lambda tokens, _: id(tokens))
    count("lexicon", lexstats, "load_sentiment_lexicon_tsv", lambda path: str(path))
    vectors = {"ULM1": first["words"], "ULM2": first["sentences"],
               "ULM3": first["words"], "ULM7": first["sentences"]}
    assert main(_metrics_argv(corpora, first, vectors, tmp_path / "out")) == 0
    assert seen["files"] == Counter(
        str(Path(first[kind]) / f"{domain}.vec") for kind in ("words", "sentences")
        for domain in corpora)
    assert len(seen["reviews"]) == 3 * 40 and set(seen["reviews"].values()) == {1}
    assert seen["lexicon"] == Counter([first["lexicon"]])


def test_metrics_key_word_values_by_directory_and_drop_the_tables_after_their_matrix(
        vector_inputs, monkeypatch):
    tmp_path, corpora, first, second = vector_inputs
    directories = {"ULM1": first["words"], "ULM3": second["words"]}
    for metric, directory in directories.items():
        assert main(_metrics_argv(corpora, first, {metric: directory}, tmp_path / metric)) == 0
    loaded = []
    load, matrix = emb.load_word_vectors, emb.word_metric_matrix

    def recording_load(*args):
        table = _Tracked(load(*args))
        loaded.append(weakref.ref(table))
        return table

    alive = []

    def counting_matrix(tables, adjectives):
        gc.collect()
        alive.append(sum(ref() is not None for ref in loaded))
        return matrix(tables, adjectives)

    monkeypatch.setattr(emb, "load_word_vectors", recording_load)
    monkeypatch.setattr(emb, "word_metric_matrix", counting_matrix)
    assert main(_metrics_argv(corpora, first, directories, tmp_path / "both")) == 0
    values = {}
    for metric in directories:
        name = f"metric_{metric}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / metric / name).read_bytes()
        values[metric] = [row["value"] for row in _read_csv(tmp_path / metric / name)]
    assert values["ULM1"] != values["ULM3"]
    # ULM1's tables are gone once its matrix is computed.
    assert alive == [3, 3]


def test_metrics_compute_one_word_matrix_per_directory(vector_inputs, monkeypatch):
    tmp_path, corpora, first, second = vector_inputs
    # "DIR" and "DIR/" name one directory.
    directories = {"ULM1": first["words"], "ULM3": first["words"] + "/", "ULM4": second["words"]}
    for metric, directory in directories.items():
        assert main(_metrics_argv(corpora, first, {metric: directory}, tmp_path / metric)) == 0
    calls = []
    matrix = emb.word_metric_matrix

    def counting_matrix(tables, adjectives):
        calls.append([list(table) for table in tables])
        return matrix(tables, adjectives)

    monkeypatch.setattr(emb, "word_metric_matrix", counting_matrix)
    assert main(_metrics_argv(corpora, first, directories, tmp_path / "all")) == 0
    words = [list(emb.load_word_vectors(Path(first["words"]) / f"{d}.vec")) for d in corpora]
    assert len(set(map(tuple, words))) == len(corpora)
    assert calls == [words] * 2
    for metric in directories:
        name = f"metric_{metric}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / metric / name).read_bytes()


@pytest.mark.filterwarnings(SHORTFALL)
def test_metrics_read_a_sentence_directory_in_one_pass_one_file_at_a_time(
        vector_inputs, monkeypatch):
    tmp_path, corpora, first, _ = vector_inputs
    directories = {metric: first["sentences"] for metric in ("ULM2", "ULM5", "ULM7")}
    for metric, directory in directories.items():
        assert main(_metrics_argv(corpora, first, {metric: directory}, tmp_path / metric)) == 0
    loads, selections, parsed, alive = Counter(), Counter(), [], []
    load, select, matrix = emb.load_sentence_vectors, emb.select_test_vectors, emb.sentence_metric_matrix

    def count_alive(call):
        gc.collect()
        alive.append((call, sum(ref() is not None for ref in parsed)))

    def recording_load(path, corpus):
        count_alive("load")
        loads[str(path)] += 1
        vectors = load(path, corpus)
        parsed.append(weakref.ref(vectors))
        return vectors

    def counting_select(corpus, qualifying, vectors, *args, **kwargs):
        # The loader matched the file's ids to the reviews: a mode gets one row per review.
        assert type(vectors) is np.ndarray and vectors.shape[0] == len(corpus)
        selections[corpus.domain_id] += 1
        return select(corpus, qualifying, vectors, *args, **kwargs)

    def counting_matrix(sets):
        count_alive("matrix")
        return matrix(sets)

    monkeypatch.setattr(emb, "load_sentence_vectors", recording_load)
    monkeypatch.setattr(emb, "select_test_vectors", counting_select)
    monkeypatch.setattr(emb, "sentence_metric_matrix", counting_matrix)
    assert main(_metrics_argv(corpora, first, directories, tmp_path / "all")) == 0
    assert loads == Counter(str(Path(first["sentences"]) / f"{d}.vec") for d in corpora)
    # One selection per domain for each of the two modes, heldout and top.
    assert selections == Counter({domain: 2 for domain in corpora})
    assert [call for call, _ in alive].count("matrix") == 2
    assert max(count for _, count in alive) <= 1
    for metric in directories:
        name = f"metric_{metric}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / metric / name).read_bytes()


@pytest.mark.filterwarnings(SHORTFALL)
def test_metrics_runs_in_one_process_match_each_run_alone(vector_inputs):
    tmp_path, corpora, first, second = vector_inputs
    runs = {"first": first, "second": second}
    for name, inputs in runs.items():
        argv = _metrics_argv(corpora, inputs, _all_vector_metrics(inputs), tmp_path / f"in-{name}")
        assert main(argv) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, inputs in runs.items():
        out = tmp_path / f"alone-{name}"
        argv = _metrics_argv(corpora, inputs, _all_vector_metrics(inputs), out)
        done = subprocess.run([sys.executable, "-m", "domainsim", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert _outputs(tmp_path / f"in-{name}") == _outputs(out)
    assert _outputs(tmp_path / "in-first") != _outputs(tmp_path / "in-second")


@pytest.mark.filterwarnings(SHORTFALL)
def test_a_sentence_metric_on_a_domain_with_no_qualifying_review_exits_one(tmp_path, capsys):
    vec_dir = tmp_path / "sentences"
    vec_dir.mkdir()
    domains = []
    for name, texts in (("A", ["lovely day", "awful day"]), ("B", ["plain day", "plain night"])):
        path = tmp_path / f"{name}.jsonl"
        _write_domain(path, name, zip(("positive", "negative"), texts))
        (vec_dir / f"{name}.vec").write_text(f"{name}:0 1.0 0.0\n{name}:1 0.0 1.0\n")
        domains.append(f"{name}={path}")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("lovely\t0.8\t0.0\nawful\t0.0\t0.8\n")
    out = tmp_path / "out"
    code = main(["metrics", "--domains", ",".join(domains), "--metrics", "ULM2",
                 "--vectors", f"ULM2={vec_dir}", "--sentiment-lexicon", str(lexicon),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: sentence vector set for B is empty\n"
    assert not (out / "metric_ULM2.csv").exists()
