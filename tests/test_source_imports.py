"""Every import in a module under ``src/domainsim`` is used in that module.

A name bound by an import must be read somewhere in its module. Skipped:
``__init__.py``, whose imports are the package's exports; ``from
__future__`` imports; and an import marked ``# noqa: F401``, a name kept on
purpose for another module to look up.

Also: the package writes its CSV files through one ``csv.writer``, in ``cli``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "domainsim"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text("utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``.
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}, line {node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 5
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_csv_writer_occurs_once_in_the_package_in_cli():
    counts = {path.name: path.read_text("utf-8").count("csv.writer")
              for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import csv\nimport os.path\nimport json as js\n"
                    "from typing import Sequence, Mapping\n"
                    "from .x import y  # noqa: F401\n"
                    "def f(a: Sequence) -> None:\n    os.path.join(js.dumps(a))\n")
    assert unused_imports(path) == ["module.py, line 2: csv", "module.py, line 5: Mapping"]
