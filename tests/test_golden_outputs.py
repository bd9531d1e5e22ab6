"""The CLI's output files, byte for byte, on a tiny fixed synthetic input.

Runs ingest, metrics (LM1-LM4, NGRAM and ULM1-ULM7), baseline, chart and
evaluate, once in process and twice each command in a fresh ``python -m
domainsim`` interpreter, and compares the sha256 of every file they write
with digests pinned from an earlier build of the package (x86-64, CPython
3.11, numpy 2.4). In a fresh interpreter ``metrics`` and ``baseline`` load
numpy partway through the command, and ``ingest``, ``chart`` and
``evaluate`` (here with a CSV accuracy matrix) never load it. The two fresh
runs use the hash seeds 0 and 1: sets iterate in hash order, so an output
that followed a set's order would change between them. Every float sum
behind the outputs adds left to right, never through BLAS, so the digests
also hold with ``metrics`` and ``baseline`` run under three OpenBLAS
kernels that add a dot product in different orders. A refactor
that keeps these bytes keeps the outputs that the repeated-run tests only
compare run against run. A change that means to alter an output must update
its digest here and say why.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import synth
from domainsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("LM1", "LM2", "LM3", "LM4", "NGRAM", *(f"ULM{i}" for i in range(1, 8)))

GOLDEN = {
    "chart/recommendation_chart.csv": "6cd60cc17bd0a7680ec25760eafcd68364edd2eee937e59e78522e6b21ff511f",
    "chart/recommendation_report.md": "2d998ea855bd1ba9862ad5f058fb7c8411876e1dcd77e7361190cf11d7a9ee10",
    "out/accuracy_matrix.csv": "65130281e5aca1ba08ec61bf894aca57810eb096f2baeff3ecaa58104e629a1b",
    "out/eval_report.csv": "09ba30350b6db4a972b5f2e49bc8413debe3612babba49417f8b85662352f72a",
    "out/ingest_summary.csv": "3dff7aab2f58895171fa89827e5f27d0f3626e6466676faf18644ba85f3d8e70",
    "out/metric_LM1.csv": "546362a8148593f394099dae245841b4722e57da852c900695f4aa6a574d86c3",
    "out/metric_LM2.csv": "3d1b5d36350378d18465427fe58686c69fffa87c64987a0f2d2dea63ab7e4fd5",
    "out/metric_LM3.csv": "6bc13a7e6308004b21ef58087d842a2a4b867463d3e71718ba0ea9d9b933207c",
    "out/metric_LM4.csv": "84fa0a141e27d1c222553f03938b9b61619eb44514d07a5b4c87bdcea5998de6",
    "out/metric_NGRAM.csv": "85357db97495af5d9d2a0c94f4ccd9f49223fb16d612545a6a2e53606aebfc88",
    "out/metric_ULM1.csv": "1d08165b7b85b2151a3cd51a1d11a92037d235d1d6a7ec8554e23be4071e1eac",
    "out/metric_ULM2.csv": "2dbf4b1f7ae7011615df0ee8f6110de12f32e1ae2601f5aca4175d5e30a7443e",
    "out/metric_ULM3.csv": "3a254c32ef8125dbf1d257edc59a02973c62ed5fcce4e1cab0afe2c6395c9035",
    "out/metric_ULM4.csv": "fd35985409701fcfbc8b544b56160e8909fb57bfef739a9a59dad1f19c0e69b3",
    "out/metric_ULM5.csv": "3ec13f195387ac59007c8600e2f1401c04a39f4dd2bffd3363ceae5b0bf882f6",
    "out/metric_ULM6.csv": "369d19cc7d40ea39d983fcdae8b30cb530be3b5ab92045f3afd0c290da806a0e",
    "out/metric_ULM7.csv": "d552a270de0af388de66c1831a2e7043233f83c3e8029344b7e23ee65e386059",
    "out/ngram_overlap_matrix.csv": "ab9f898b17dde53826c877b047f6576acc54515ead92fea073747ac99c56199a",
    "out/recommendation_chart.csv": "6cd60cc17bd0a7680ec25760eafcd68364edd2eee937e59e78522e6b21ff511f",
    "out/recommendation_report.md": "b606b1d3d72cb2d4e3c2f3afe4b707edecea093befba3f5ec33bc7d454272921",
}


def run_pipeline(directory: Path, run) -> dict[str, str]:
    """sha256 of every file the five commands write, keyed ``<out dir>/<name>``."""
    data = synth.synthetic_reviews(n_domains=4, reviews_per_domain=60, seed=21)
    paths = synth.write_jsonl(data, directory / "corpora")
    inputs = synth.write_vector_inputs(data, directory / "inputs")
    out, chart_out = directory / "out", directory / "chart"
    domains = ["--domains", ",".join(f"{d}={p}" for d, p in paths.items())]
    vectors = ",".join(f"ULM{i}={inputs['words'] if i in (1, 3, 4, 6) else inputs['sentences']}"
                       for i in range(1, 8))
    matrix = ["--accuracy-matrix", str(out / "accuracy_matrix.csv")]
    runs = [
        ["ingest", *domains, "--out", str(out)],
        ["metrics", *domains, "--metrics", ",".join(METRICS), "--vectors", vectors,
         "--adjectives", inputs["adjectives"], "--sentiment-lexicon", inputs["lexicon"],
         "--out", str(out)],
        ["baseline", *domains, "--seed", "7", "--out", str(out)],
        ["chart", *matrix, "--out", str(chart_out)],
        ["evaluate", *matrix, "--metrics", ",".join(METRICS), "--k", "1,2,3", "--out", str(out)],
    ]
    for argv in runs:
        run(argv)
    return {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted([*out.iterdir(), *chart_out.iterdir()])}


def in_process(argv: list[str]) -> None:
    with warnings.catch_warnings():
        # Small corpora: proportional baseline splits and short review selections.
        warnings.simplefilter("ignore", UserWarning)
        assert main(argv) == 0, argv


def in_a_fresh_interpreter(argv: list[str], hash_seed: str, **env_vars: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed, **env_vars)
    done = subprocess.run([sys.executable, "-m", "domainsim", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (argv, done.stderr)


def test_every_output_file_matches_its_pinned_digest(tmp_path):
    assert run_pipeline(tmp_path, in_process) == GOLDEN


def test_python_m_domainsim_writes_the_pinned_bytes(tmp_path):
    for hash_seed in ("0", "1"):
        run = functools.partial(in_a_fresh_interpreter, hash_seed=hash_seed)
        assert run_pipeline(tmp_path / hash_seed, run) == GOLDEN, hash_seed


@pytest.mark.parametrize("coretype", ["Prescott", "Haswell", "SkylakeX"])
def test_metrics_and_baseline_write_the_pinned_bytes_under_every_openblas_kernel(
        tmp_path, coretype):
    """``OPENBLAS_CORETYPE`` makes an OpenBLAS built ``DYNAMIC_ARCH``, as numpy's wheels
    are, use that CPU's kernels, and they add a dot product in their own orders.

    The variable is set in the child's environment only. Where numpy's BLAS
    is not such an OpenBLAS, or the CPU cannot run the kernel, the variable
    is ignored and this test proves nothing.
    """

    def run(argv: list[str]) -> None:
        if argv[0] in ("metrics", "baseline"):
            in_a_fresh_interpreter(argv, "0", OPENBLAS_CORETYPE=coretype)
        else:
            in_process(argv)

    assert run_pipeline(tmp_path, run) == GOLDEN
