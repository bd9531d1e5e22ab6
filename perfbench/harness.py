"""Closed-loop runner: passes over a workload's commands, checks and metrics.

Each command runs in a fresh ``python -m domainsim`` process, as a user runs
it, from this single benchmark process with no extra threads. A pass runs the
workload's commands in order and checks every output; passes repeat until
the run's time is up. End-to-end metrics come from untraced passes; with
tracing on, traced passes (through ``traced_cli.py``) alternate with
untraced ones, and the per-layer metrics come from their spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
from workloads import BASELINE_SPLITS, N_DOMAINS, ROOT, Inputs, Workload, commands, digests, write_inputs

WORK_DIR = ROOT / ".perfbench"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
MIN_PASSES = 3
# However slow the program, no pass is started that would end past this.
RUN_LIMIT_S = 140.0
COMMAND_TIMEOUT_S = 60
STARTUP_PROBES = 5
# Epochs of the baseline's online logistic training (cdsa_baseline._train_logistic).
BASELINE_EPOCHS = 4

END_TO_END_UNITS = {
    "pipeline_s": "s", "setup_s": "s", "metrics_s": "s", "matrix_s": "s",
    "evaluate_s": "s", "pairs_per_s": "pairs/s", "peak_rss_mb": "MiB",
}
# Which command each per-command wall-time metric times.
COMMAND_METRICS = {"setup_s": ("ingest",), "metrics_s": ("metrics",),
                   "matrix_s": ("baseline", "chart"), "evaluate_s": ("evaluate",)}
UNRANKABLE_LAYERS = {
    "LM1": "labelled_metrics", "LM2": "labelled_metrics", "LM3": "labelled_metrics",
    "LM4": "labelled_metrics", "NGRAM": "corpus",
    **{m: "embedding_metrics" for m in ("ULM1", "ULM2", "ULM3", "ULM4", "ULM5", "ULM6", "ULM7")},
}


@dataclass
class CommandRun:
    command: str
    wall_s: float
    peak_rss_mb: float
    problems: list[str]
    # sha256 of each output file the command wrote or changed
    written: dict[str, str]
    trace: Path | None = None


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def run_process(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS (MiB) of one child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _tail(log: Path) -> str:
    lines = log.read_text("utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run_pass(workload: Workload, inputs: Inputs, work: Path, traced: bool, index: int) -> list[CommandRun]:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (work / "logs").mkdir(exist_ok=True)
    before: dict[str, str] = {}
    runs = []
    for command, argv in commands(workload, inputs, out):
        log = work / "logs" / f"{command}.log"
        trace = work / "traces" / f"{index}-{command}.json" if traced else None
        if trace is not None:
            trace.parent.mkdir(exist_ok=True)
            argv = [sys.executable, str(TRACED_CLI), str(trace), *argv]
        else:
            argv = [sys.executable, "-m", "domainsim", *argv]
        wall, code, rss = run_process(argv, log)
        if code != 0:
            problems = [f"exit code {code}: {_tail(log)}"]
        else:
            problems = checks.check_command(command, out, workload, list(inputs.corpora))
        after = digests(out)
        written = {name: sha for name, sha in after.items() if before.get(name) != sha}
        before = after
        runs.append(CommandRun(command, wall, rss, problems, written, trace))
    return runs


def code_digest() -> str:
    """sha256 over the program, the input generator and the benchmark itself."""
    files = [p for p in sorted((ROOT / "src").rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    files += [ROOT / "tests" / "synth.py", *sorted(Path(__file__).resolve().parent.glob("*.py"))]
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def startup_seconds(probes: int) -> list[float]:
    """Wall times of an interpreter that imports the CLI and does no work."""
    log = WORK_DIR / "startup.log"
    argv = [sys.executable, "-c", "import domainsim.cli"]
    return [run_process(argv, log)[0] for _ in range(probes)]


def _sameness(work_key: str, input_digests: dict[str, str], passes: list[list[CommandRun]]):
    """Files whose bytes differ between passes or from the stored record, plus problems.

    The record for a (workload, seed, code digest) is written by the first
    run; later runs of the same code are compared with it. The CLI promises
    byte-identical outputs, but differing files are reported rather than
    failed, because some metric files depend on hash randomisation.
    """
    record_path = WORK_DIR / "records" / f"{work_key}-{code_digest()[:16]}.json"
    reference = {run.command: run.written for run in passes[0]}
    problems = []
    if record_path.is_file():
        record = json.loads(record_path.read_text("utf-8"))
        if record["inputs"] != input_digests:
            problems.append("generated inputs differ from the stored record for this seed")
        reference = record["outputs"]
    else:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps({"inputs": input_digests, "outputs": reference},
                                          indent=1, sort_keys=True), encoding="utf-8")
    unstable = sorted({
        name
        for runs in passes
        for run in runs
        for name in set(run.written) | set(reference.get(run.command, {}))
        if run.written.get(name) != reference.get(run.command, {}).get(name)
    })
    return unstable, problems, reference, record_path


def _end_to_end(workload: Workload, plain: list[list[CommandRun]]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    pairs = len(workload.metrics) * N_DOMAINS * (N_DOMAINS - 1)
    for runs in plain:
        by_command = {run.command: run for run in runs}
        samples["pipeline_s"].append(sum(run.wall_s for run in runs))
        for metric, names in COMMAND_METRICS.items():
            samples[metric] += [by_command[c].wall_s for c in names if c in by_command]
        samples["pairs_per_s"].append(pairs / by_command["metrics"].wall_s)
    samples["peak_rss_mb"] = [max(run.peak_rss_mb for runs in plain for run in runs)]
    return samples


def _per_layer(workload: Workload, work: Path, plain, traced, startup: list[float], unstable: list[str]):
    per_pass = [spans.layer_metrics([spans.Trace.load(run.trace) for run in runs]) for runs in traced]
    absent = set().union(*(a for _, a in per_pass))
    samples: dict[str, list[float]] = {}
    for metrics, _ in per_pass:
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    samples["cli.startup_s"] = startup
    reviews = N_DOMAINS * workload.reviews_per_domain
    trained = workload.matrix == "generate"
    samples["cdsa_baseline.models_trained"] = [N_DOMAINS * (BASELINE_SPLITS + 1) if trained else 0]
    sgd_updates = BASELINE_EPOCHS * BASELINE_SPLITS * reviews if trained else 0
    samples["cdsa_baseline.sgd_updates"] = [sgd_updates]
    samples["cdsa_baseline.examples_scored"] = [N_DOMAINS * reviews if trained else 0]
    train_s = samples.get("cdsa_baseline.train_eval_baseline_s")
    if train_s is not None:
        samples["cdsa_baseline.sgd_updates_per_s"] = [
            sgd_updates / t if t else 0.0 for t in train_s]
    for metric, layer in UNRANKABLE_LAYERS.items():
        path = work / "out" / f"metric_{metric}.csv"
        values = checks.metric_values(path) if metric in workload.metrics else {}
        samples[f"{layer}.unrankable_pairs.{metric}"] = [sum(v is None for v in values.values())]
    for command in spans.COMMANDS:
        plain_s = [run.wall_s for runs in plain for run in runs if run.command == command]
        traced_s = [run.wall_s for runs in traced for run in runs if run.command == command]
        samples[f"trace.overhead_pct.{command}"] = [
            100.0 * (statistics.fmean(traced_s) / statistics.fmean(plain_s) - 1.0)
            if plain_s and traced_s else 0.0
        ]
    samples["sameness.unstable_files"] = [len(unstable)]
    return samples, absent


def aggregate(name: str, values: list[float]) -> float:
    """A run's value of a metric from its per-pass samples: their mean.

    A mean time is the run's total time over its passes, so command times
    add up to pipeline_s; rates take the matching harmonic mean. On a shared
    machine the time of one pass jumps between fast and slow modes as
    neighbours come and go. The median of a run flips between the modes and
    the fastest pass follows the fastest mode of the moment, while the mean
    moves only with the share of slow time, so it varies least between runs.
    """
    if name.endswith("_per_s"):
        return statistics.harmonic_mean(values)
    return statistics.fmean(values)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.startswith("trace.overhead_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and prints a summary."""
    work_key = f"{workload.name}-seed{seed}"
    work = WORK_DIR / work_key
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(workload, seed, work / "inputs")
    input_digests = digests(inputs.directory)
    # Also compiles the bytecode before timing starts.
    startup = startup_seconds(STARTUP_PROBES if trace else 1)

    modes = (False, True) if trace else (False,)
    passes: list[tuple[bool, list[CommandRun]]] = []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for traced in modes:
            runs = run_pass(workload, inputs, work, traced, len(passes))
            if not passes:
                # Later passes must reproduce these bytes, so one oracle check covers them.
                next(r for r in runs if r.command == "metrics").problems.extend(
                    checks.check_oracles(work / "out", workload.metrics, inputs.reviews))
            passes.append((traced, runs))
        # Stop before a cycle like the last one would overrun the run's time.
        now = time.monotonic()
        projected = now - start + (now - cycle_start)
        if projected > RUN_LIMIT_S or (len(passes) >= MIN_PASSES * len(modes) and projected > seconds):
            break

    all_runs = [run for _, runs in passes for run in runs]
    unstable, problems, reference, record_path = _sameness(
        work_key, input_digests, [runs for _, runs in passes])
    problems += [f"{run.command}: {p}" for run in all_runs for p in run.problems]
    failed = sum(1 for run in all_runs if run.problems)
    plain = [runs for traced, runs in passes if not traced]
    absent: set[str] = set()
    if trace:
        samples, absent = _per_layer(workload, work, plain, [r for t, r in passes if t], startup, unstable)
    else:
        samples = _end_to_end(workload, plain)
    metrics = {
        name: {"value": aggregate(name, values), "unit": unit_of(name)}
        for name, values in sorted(samples.items())
    }

    results = WORK_DIR / "results" / f"{work_key}-trace{int(trace)}.json"
    results.parent.mkdir(exist_ok=True)
    results.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "passes": len(passes), "inputs": input_digests, "outputs": reference,
        "unstable_outputs": unstable, "absent": sorted(absent), "problems": problems,
        "samples": samples,
    }, indent=1, sort_keys=True), encoding="utf-8")
    if not problems:
        shutil.rmtree(work)  # inputs and outputs are kept only to inspect a failure

    print(f"workload {workload.name}: seed {seed}, {len(passes)} passes, "
          f"{len(all_runs)} commands, {failed} failed, error_rate {failed / len(all_runs):.4f}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']:<8} "
              f"mean of n={len(samples[name])}, median {statistics.median(samples[name]):.6g}")
    for name in sorted(absent):
        print(f"  {name}: absent (the wrapped function no longer exists)")
    if unstable:
        print(f"  not byte-identical across runs of the same inputs and code: {', '.join(unstable)}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  inputs sha256: {hashlib.sha256(json.dumps(input_digests, sort_keys=True).encode()).hexdigest()}"
          f"; record {record_path.relative_to(ROOT)}; results {results.relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": metrics,
    }
