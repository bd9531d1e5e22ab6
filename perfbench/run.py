"""Benchmark of the domainsim CLI on seeded synthetic workloads.

Usage, from the repository root:

    python3 perfbench/run.py [--workload lexical|baseline|embedding|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop of CLI commands (ingest, metrics, the
accuracy-matrix command, evaluate), one client, every command in a fresh
process. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. A summary with every
metric, its unit and sample count comes first; the last line of standard
output is one JSON object (for ``all``, one object per workload). The exit
code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/domainsim/cli.py", "tests/synth.py", "tests/oracles.py")
WORKLOAD_NAMES = ("lexical", "baseline", "embedding")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a full checkout of the repository",
              file=sys.stderr)
        return 2
    from harness import run_workload
    from workloads import WORKLOADS

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
