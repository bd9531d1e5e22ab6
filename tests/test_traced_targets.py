"""Every function the benchmark's tracer wraps must exist under its name.

``perfbench/traced_cli.py`` reports a name it cannot find as absent and
the benchmark then reads that layer as 0, so a renamed hot function must
fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = []
    for span, (targets, _key) in traced_cli.WRAPPED.items():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{span}: {target}")
    assert traced_cli.WRAPPED and not missing
