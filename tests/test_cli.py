from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import synth
from domainsim import cli
from domainsim.cli import main


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


def test_domain_name_mismatch_exit_one(tmp_path, capsys):
    path = tmp_path / "real.jsonl"
    _write_domain(path, "real", [("positive", "good"), ("negative", "bad")])
    code = main(["ingest", "--domains", f"alias={path}", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "contains domain" in capsys.readouterr().err


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


def test_evaluate_without_metrics_emits_chart_only(workspace, capsys):
    tmp_path, config = workspace
    matrix_path = tmp_path / "matrix.csv"
    _matrix_csv(matrix_path, ["A", "B", "C"],
                [[90, 70, 60], [65, 88, 72], [71, 69, 91]])
    code = main(["evaluate", "--config", str(config), "--metrics", "",
                 "--accuracy-matrix", str(matrix_path)])
    assert code == 0
    out = tmp_path / "out"
    assert (out / "recommendation_chart.csv").is_file()
    assert not (out / "eval_report.csv").is_file()
    assert "chart only" in capsys.readouterr().out


def test_chart_command_uses_bundled_reference(tmp_path):
    out = tmp_path / "out"
    assert main(["chart", "--out", str(out)]) == 0
    rows = _read_csv(out / "recommendation_chart.csv")
    assert len(rows) == 20
    by_domain = {r["domain"]: r for r in rows}
    assert by_domain["D1"]["best_source"] == "D10"


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
    assert main(["metrics", "--k", "many"]) == 1


def test_unknown_metric_and_config_keys_rejected(workspace, capsys):
    tmp_path, config = workspace
    assert main(["metrics", "--config", str(config), "--metrics", "LM9"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domans": {}}))
    assert main(["ingest", "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


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
