"""Every import in a module under ``src/domainsim`` is used in that module.

A name bound by an import must be read somewhere in its module. Skipped:
``__init__.py``, whose imports are the package's exports; ``from
__future__`` imports; and an import marked ``# noqa: F401``, a name kept on
purpose for another module to look up.

Also: the package writes its CSV files through one ``csv.writer``, in ``cli``,
reads its input files through one ``open``, in ``errors.read_lines``, parses
every CSV file through one strict ``csv.reader``, in ``errors.read_csv``, and
parses all JSON through one ``json.loads``, in ``errors.parse_json``. No
module imports ``dataclasses``, which loads ``inspect``, ``ast``, ``dis`` and
``tokenize`` into every command's start-up. The builtin ``sum`` adds only
integer counts: from Python 3.12 on it compensates float sums, so a float
``sum`` would make an output depend on the Python version. Nor does any float sum
follow an order that numpy or the BLAS kernel of the CPU picks: no
``np.dot``, ``np.vdot``, ``np.inner``, ``np.matmul``, ``@``, ``np.einsum``,
``np.linalg``, ``np.sum``, ``np.mean``, ``.mean()`` or ``np.average``; arrays
add through ``_numpy.sequential_sum``. The ``.sum()`` calls left add integer
arrays: LM4's n-gram counts and ``NgramIndex``'s review lengths. Every angle
comes from one ``math.atan2`` call, in ``embedding_metrics._angles``; no
``np.arctan2``, ``np.arccos`` or ``math.acos`` appears. Only ``cli``
imports the baseline trainer, and ``evaluation``, which reads the accuracy
matrix, imports only ``errors`` and ``pairs`` from the package, and no numpy.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
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


def imported_modules(path: Path) -> list[str]:
    """``<file>, line <n>: <module>`` for each module an import in ``path`` names.

    ``from . import x`` names ``.x``; ``from .y import x`` names ``.y``.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            names = [prefix + node.module] if node.module else [prefix + a.name for a in node.names]
        else:
            continue
        found += [f"{path.name}, line {node.lineno}: {name}" for name in names]
    return found


def test_no_module_imports_dataclasses():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in imported_modules(path)]
    assert len(found) > 20
    assert [entry for entry in found if entry.endswith(": dataclasses")] == []


def test_an_imported_module_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os.path, json\n"
                    "from dataclasses import dataclass\n"
                    "from . import corpus as c\n"
                    "def f():\n    from .pairs import mirrored\n"
                    "    import dataclasses\n")
    assert imported_modules(path) == [
        "module.py, line 1: os.path", "module.py, line 1: json", "module.py, line 2: dataclasses",
        "module.py, line 3: .corpus", "module.py, line 5: .pairs", "module.py, line 6: dataclasses"]


def boundary_imports(directory: Path) -> list[str]:
    """Imports that cross the accuracy matrix's module boundary, from the modules in ``directory``.

    Only ``cli`` may import ``cdsa_baseline``, the trainer; ``evaluation``, which reads and
    interprets the matrix, may import nothing from the package but ``errors`` and ``pairs``,
    and never numpy.
    """
    crossing = []
    for path in sorted(directory.glob("*.py")):
        for entry in imported_modules(path):
            module = entry.rsplit(": ", 1)[1]
            # ``.x`` and ``domainsim.x`` name the package's module x; "" is a module outside it.
            package, dot, name = module.rpartition(".")
            own = name if dot and package in ("", "domainsim") else ""
            if path.name == "evaluation.py":
                crosses = own not in ("", "errors", "pairs") or module.split(".")[0] == "numpy"
            else:
                crosses = own == "cdsa_baseline" and path.name != "cli.py"
            if crosses:
                crossing.append(entry)
    return crossing


def test_only_cli_trains_and_evaluation_reads_the_matrix_without_numpy():
    assert [entry for entry in imported_modules(SRC / "cli.py")
            if entry.endswith(": .cdsa_baseline")] != []
    assert boundary_imports(SRC) == []


def test_an_import_across_the_boundary_is_found(tmp_path):
    (tmp_path / "cli.py").write_text("from .cdsa_baseline import train_eval_baseline\n")
    (tmp_path / "corpus.py").write_text("import domainsim.cdsa_baseline\n")
    (tmp_path / "evaluation.py").write_text(
        "import math\nimport numpy as np\nfrom . import _numpy\nfrom .errors import InputError\n"
        "from .pairs import PairMatrix\nfrom .cdsa_baseline import FEATURE_DIM\n"
        "def f():\n    from .corpus import Corpus\n")
    assert boundary_imports(tmp_path) == [
        "corpus.py, line 1: domainsim.cdsa_baseline", "evaluation.py, line 2: numpy",
        "evaluation.py, line 3: ._numpy", "evaluation.py, line 6: .cdsa_baseline",
        "evaluation.py, line 8: .corpus"]


def test_csv_writer_occurs_once_in_the_package_in_cli():
    counts = {path.name: path.read_text("utf-8").count("csv.writer")
              for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}


def csv_readers(path: Path) -> list[str]:
    """``<file>: <call>, strict`` or ``..., lax`` for each ``csv.reader``/``DictReader`` call.

    Strict means ``strict=True``; without it an unterminated quote runs a field to the end of
    the file.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr in ("reader", "DictReader")
                and getattr(func.value, "id", None) == "csv"):
            continue
        strict = any(k.arg == "strict" and isinstance(k.value, ast.Constant)
                     and k.value.value is True for k in node.keywords)
        found.append(f"{path.name}: {func.attr}, {'strict' if strict else 'lax'}")
    return found


def test_every_csv_reader_is_strict():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in csv_readers(path)]
    assert found == ["errors.py: reader, strict"]


def json_loads_calls(path: Path) -> list[str]:
    """``<file>, line <n>`` for each ``json.loads`` call in ``path``."""
    return [f"{path.name}, line {node.lineno}"
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads" and getattr(node.func.value, "id", None) == "json"]


def test_json_loads_is_called_only_in_errors():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in json_loads_calls(path)]
    assert [entry.split(",")[0] for entry in found] == ["errors.py"]


def test_a_json_loads_call_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import json\n"
                    "def f(text):\n    return json.loads(text, object_pairs_hook=dict)\n"
                    "g = json.dumps([json.loads('1')])\n")
    assert json_loads_calls(path) == ["module.py, line 3", "module.py, line 4"]


def test_a_lax_csv_reader_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import csv\n"
                    "a = csv.reader(lines, strict=True)\n"
                    "b = csv.DictReader(lines)\n"
                    "c = csv.reader(lines, strict=False)\n"
                    "d = csv.DictReader(lines, delimiter=',', strict=True)\n"
                    "e = csv.writer(fh)\n")
    assert csv_readers(path) == ["module.py: reader, strict", "module.py: DictReader, lax",
                                 "module.py: reader, lax", "module.py: DictReader, strict"]


def nodes(path: Path) -> Iterator[tuple[str, ast.AST]]:
    """``(<module>.<function>, node)`` for each syntax node in ``path``, ``<function>`` the
    innermost enclosing function (``<module>`` at module level)."""

    def visit(node: ast.AST, where: str) -> Iterator[tuple[str, ast.AST]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.name}.{node.name}"
        yield where, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return visit(ast.parse(path.read_text("utf-8")), f"{path.name}.<module>")


def calls(path: Path) -> Iterator[tuple[str, ast.Call]]:
    """``(<module>.<function>, call)`` for each call in ``path``, located as ``nodes`` does."""
    return ((where, node) for where, node in nodes(path) if isinstance(node, ast.Call))


def file_reads(path: Path) -> list[str]:
    """``<module>.<function>: <call>`` for each call in ``path`` that reads a file or tests one.

    The calls are ``open`` in a reading mode, ``read_text``, ``read_bytes``
    and ``is_file``.
    """
    found = []
    for where, node in calls(path):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        # ``Path.open`` takes the mode first, the builtin ``open`` second.
        first = 0 if isinstance(func, ast.Attribute) else 1
        modes = [*node.args[first:first + 1], *(k.value for k in node.keywords
                                               if k.arg == "mode")]
        mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
        reads = name == "open" and not set(mode) & set("wax")
        if reads or name in ("read_text", "read_bytes", "is_file"):
            found.append(f"{where}: {name}")
    return found


def test_input_files_are_read_only_through_read_lines():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in file_reads(path)]
    assert found == [
        # _preflight checks that every vector file exists before any metric runs.
        "cli.py._preflight: is_file",
        # The bundled stopword list, a package resource.
        "corpus.py.bundled_stopwords: read_text",
        "errors.py.read_lines: open",
    ]


def test_a_file_read_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from pathlib import Path\n"
                    "data = Path('a').read_bytes()\n"
                    "def load(p):\n    with open(p) as fh:\n        return fh.read()\n"
                    "def save(p):\n    open(p, 'w').close()\n"
                    "    Path(p).open(mode='a').close()\n"
                    "    return Path(p).open('rb'), Path(p).read_text(), Path(p).is_file()\n")
    assert file_reads(path) == ["module.py.<module>: read_bytes", "module.py.load: open",
                                "module.py.save: open", "module.py.save: read_text",
                                "module.py.save: is_file"]


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import csv\nimport os.path\nimport json as js\n"
                    "from typing import Sequence, Mapping\n"
                    "from .x import y  # noqa: F401\n"
                    "def f(a: Sequence) -> None:\n    os.path.join(js.dumps(a))\n")
    assert unused_imports(path) == ["module.py, line 2: csv", "module.py, line 5: Mapping"]


def builtin_sums(path: Path) -> list[str]:
    """``<module>.<function>`` for each call of the builtin ``sum`` in ``path``."""
    return [where for where, node in calls(path)
            if isinstance(node.func, ast.Name) and node.func.id == "sum"]


def test_the_builtin_sum_adds_only_integer_counts():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in builtin_sums(path)]
    assert found == [
        # Reviews per label and token occurrences.
        "corpus.py.label_counts",
        "corpus.py.token_count",
        # Exact-position matches, and both scores' matches over the targets.
        "evaluation.py.ranking_accuracy",
        "evaluation.py.recommendation_report",
        "evaluation.py.recommendation_report",
    ]


def test_a_builtin_sum_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import numpy as np\n"
                    "total = sum([0.1, 0.2])\n"
                    "def mean(xs):\n    return (np.sum(xs) + xs.sum() + sum(x for x in xs)) / 3\n"
                    "class A:\n    def f(self, xs):\n        return [sum(xs), self.sum(xs)]\n")
    assert builtin_sums(path) == ["module.py.<module>", "module.py.mean", "module.py.f"]


# numpy functions and modules whose float sums add in an order numpy or the BLAS kernel picks.
UNORDERED = ("dot", "vdot", "inner", "matmul", "einsum", "linalg", "sum", "mean", "average")


def _on_numpy(node: ast.Attribute) -> bool:
    return getattr(node.value, "id", None) in ("np", "numpy")


def unordered_sums(path: Path) -> list[str]:
    """``<module>.<function>: <what>`` for each sum in ``path`` whose order numpy or BLAS picks.

    These are ``np.<name>`` for each name in ``UNORDERED``, a ``@`` and a ``.mean()`` call.
    """
    found = []
    for where, node in nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in UNORDERED and _on_numpy(node):
            found.append(f"{where}: {node.value.id}.{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "mean" and not _on_numpy(node.func)):
            found.append(f"{where}: .mean()")
    return found


def sum_methods(path: Path) -> list[str]:
    """``<module>.<function>`` for each ``.sum()`` call in ``path`` on something other than numpy."""
    return [where for where, node in calls(path) if isinstance(node.func, ast.Attribute)
            and node.func.attr == "sum" and not _on_numpy(node.func)]


def test_every_float_sum_adds_left_to_right():
    modules = sorted(SRC.glob("*.py"))
    assert [entry for path in modules for entry in unordered_sums(path)] == []
    assert [entry for path in modules for entry in sum_methods(path)] == [
        # Token ids in the stream: the review lengths' total.
        "corpus.py.__init__",
        # The n-gram counts of one order, and of its polar n-grams.
        "labelled_metrics.py._order_entropy",
        "labelled_metrics.py._order_entropy",
    ]


def test_an_unordered_sum_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import numpy as np\n"
                    "a = np.dot(x, y) + np.vdot(x, y) + np.inner(x, y) + np.matmul(x, y)\n"
                    "def f(x, y):\n    y @= x\n    return x @ y, np.einsum('i,i', x, y)\n"
                    "def g(x):\n    n = np.linalg.norm(x)\n"
                    "    return np.sum(x) + np.mean(x) + x.mean(axis=0) + np.average(x) + x.sum()\n"
                    "b = np.add.accumulate(a)[-1] + statistics.mean(a) + numpy.dot(a, a)\n")
    assert unordered_sums(path) == [
        "module.py.<module>: np.dot", "module.py.<module>: np.vdot", "module.py.<module>: np.inner",
        "module.py.<module>: np.matmul", "module.py.f: @", "module.py.f: @",
        "module.py.f: np.einsum", "module.py.g: np.linalg", "module.py.g: np.sum",
        "module.py.g: np.mean", "module.py.g: .mean()", "module.py.g: np.average",
        "module.py.<module>: .mean()", "module.py.<module>: numpy.dot"]
    assert sum_methods(path) == ["module.py.g"]


# Angle functions other than the one kernel's ``math.atan2``: numpy's SIMD loops round some
# angles otherwise (``np.arctan2`` differs from ``math.atan2`` on 9,844 of 200,000 inputs under
# AVX-512 dispatch), and an arccos of a rounded cosine loses half the digits near 0 and pi.
ANGLES = {("np", "arctan2"), ("numpy", "arctan2"), ("np", "arccos"), ("numpy", "arccos"),
          ("math", "acos"), ("math", "atan2")}


def angle_functions(path: Path) -> list[str]:
    """``<module>.<function>: <what>`` for each use in ``path`` of a function in ``ANGLES``."""
    return [f"{where}: {node.value.id}.{node.attr}" for where, node in nodes(path)
            if isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr)
            in ANGLES]


def test_one_function_takes_every_angle_with_math_atan2():
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in angle_functions(path)]
    assert found == ["embedding_metrics.py._angles: math.atan2"]


def test_an_angle_function_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import math\nimport numpy as np\n"
                    "a = np.arctan2(y, x) + numpy.arccos(c)\n"
                    "def f(c, y, x):\n    return math.acos(c), math.atan2(y, x), np.arccos(c)\n"
                    "b = numpy.arctan2(y, x) + cmath.acos(c) + np.arctan(x) + math.atan(x)\n")
    assert angle_functions(path) == [
        "module.py.<module>: np.arctan2", "module.py.<module>: numpy.arccos",
        "module.py.f: math.acos", "module.py.f: math.atan2", "module.py.f: np.arccos",
        "module.py.<module>: numpy.arctan2"]
