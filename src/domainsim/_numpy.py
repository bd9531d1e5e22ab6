"""numpy, imported on first use.

Modules take ``np`` from here instead of running ``import numpy as np``, so
a command that never touches numpy (``ingest``, ``chart`` and ``evaluate``
with a reference or CSV accuracy matrix, ``metrics`` of only LM1–LM3) never
pays for its import.
``np`` is the module object that ``sys.modules`` holds for numpy. Until its
first attribute lookup it is empty; that lookup runs numpy's import in place
(``importlib.util.LazyLoader``), after which ``np`` is the ordinary, fully
loaded module and each lookup costs what it always did.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
