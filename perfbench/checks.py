"""Output checks run after every benchmark command.

Each check returns a list of problems; an empty list means the output is
correct. The oracle check compares a fixed sample of metric values with the
independent brute-force implementations in ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Sequence

from workloads import K_VALUES, Workload

import oracles  # noqa: E402  (importing workloads puts tests/ on sys.path)

ORACLES = {
    "LM2": oracles.skld_metric,
    "LM3": oracles.l1_metric,
    "LM4": oracles.entropy_change,
    "NGRAM": oracles.ngram_overlap,
}
# Both orientations of a neighbouring and a distant pair: LM4 is
# asymmetric, and distant domains share no polar words, so LM2/LM3 leave
# those pairs unrankable.
ORACLE_PAIRS = (("D1", "D2"), ("D2", "D1"), ("D3", "D17"), ("D17", "D3"), ("D19", "D20"))
RELATIVE_TOLERANCE = 1e-9


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_metric_csv(path: Path, domains: Sequence[str]) -> list[str]:
    """N(N-1) distinct ordered pairs, each value empty or finite."""
    if not path.is_file():
        return [f"{path.name} missing"]
    problems = []
    rows = _read_rows(path)
    expected = {(s, t) for s in domains for t in domains if s != t}
    seen = [(row.get("source"), row.get("target")) for row in rows]
    if len(rows) != len(expected) or set(seen) != expected:
        problems.append(f"{path.name}: {len(rows)} rows, expected the {len(expected)} ordered pairs")
    for row in rows:
        cell = row.get("value") or ""
        if cell and _number(cell) is None:
            problems.append(f"{path.name}: non-finite value {cell!r} for"
                            f" ({row.get('source')}, {row.get('target')})")
    return problems


def metric_values(path: Path) -> dict[tuple[str, str], float | None]:
    return {
        (row["source"], row["target"]): float(row["value"]) if row["value"] else None
        for row in _read_rows(path)
    }


def check_oracles(out: Path, metrics: Sequence[str], reviews: dict[str, list[tuple[str, str]]]) -> list[str]:
    """Sampled LM2/LM3/LM4/NGRAM values equal the brute-force oracles."""
    problems = []
    as_tokens = {d: [(label, text.split()) for label, text in rows] for d, rows in reviews.items()}
    for metric in metrics:
        oracle = ORACLES.get(metric)
        path = out / f"metric_{metric}.csv"
        if oracle is None or not path.is_file():
            continue
        values = metric_values(path)
        for pair in ORACLE_PAIRS:
            got = values.get(pair)
            want = oracle(as_tokens[pair[0]], as_tokens[pair[1]])
            if (got is None) != (want is None) or (
                want is not None and abs(got - want) > RELATIVE_TOLERANCE * max(abs(got), abs(want))
            ):
                problems.append(f"{metric}{pair}: CSV has {got!r}, oracle gives {want!r}")
    return problems


def check_accuracy_matrix(path: Path, domains: Sequence[str]) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _read_rows(path)
    if [row.get("domain") for row in rows] != list(domains):
        return [f"{path.name}: rows are not the {len(domains)} domains"]
    problems = []
    for row in rows:
        for target in domains:
            value = _number(row.get(target) or "")
            if value is None or not 0.0 <= value <= 100.0:
                problems.append(f"{path.name}: accuracy ({row['domain']}, {target})"
                                f" = {row.get(target)!r} outside [0, 100]")
    return problems


def check_chart(out: Path, domains: Sequence[str]) -> list[str]:
    problems = [f"{name} missing" for name in ("recommendation_chart.csv", "recommendation_report.md")
                if not (out / name).is_file()]
    if not problems and len(_read_rows(out / "recommendation_chart.csv")) != len(domains):
        problems.append(f"recommendation_chart.csv: expected {len(domains)} rows")
    return problems


def check_eval(out: Path, metrics: Sequence[str]) -> list[str]:
    """metrics x K rows, precision in [0, 100] and NRA in [0, 1]."""
    path = out / "eval_report.csv"
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _read_rows(path)
    expected = {(m, str(k)) for m in metrics for k in K_VALUES}
    problems = []
    if len(rows) != len(expected) or {(r.get("metric_id"), r.get("k")) for r in rows} != expected:
        problems.append(f"{path.name}: {len(rows)} rows, expected {len(expected)} (metric, K) rows")
    for row in rows:
        precision = _number(row.get("precision_pct") or "")
        nra = _number(row.get("nra") or "")
        if precision is None or not 0.0 <= precision <= 100.0:
            problems.append(f"{path.name}: precision {row.get('precision_pct')!r} outside [0, 100]")
        if nra is None or not 0.0 <= nra <= 1.0:
            problems.append(f"{path.name}: NRA {row.get('nra')!r} outside [0, 1]")
    return problems


def check_command(command: str, out: Path, workload: Workload, domains: Sequence[str]) -> list[str]:
    """Problems with the files a successful command must have written."""
    if command == "ingest":
        path = out / "ingest_summary.csv"
        if not path.is_file():
            return [f"{path.name} missing"]
        rows = _read_rows(path)
        return [] if [r.get("domain") for r in rows] == list(domains) else [
            f"{path.name}: rows are not the {len(domains)} domains"]
    if command == "metrics":
        problems = []
        for metric in workload.metrics:
            problems += check_metric_csv(out / f"metric_{metric}.csv", domains)
        if "NGRAM" in workload.metrics and not (out / "ngram_overlap_matrix.csv").is_file():
            problems.append("ngram_overlap_matrix.csv missing")
        return problems
    if command == "baseline":
        return check_accuracy_matrix(out / "accuracy_matrix.csv", domains)
    if command == "chart":
        return check_chart(out, domains)
    if command == "evaluate":
        return check_chart(out, domains) + check_eval(out, workload.metrics)
    raise ValueError(f"no output check for command {command!r}")
