"""numpy, imported on first use, and the one rule for its float sums.

Modules take ``np`` from here instead of running ``import numpy as np``, so
a command that never touches numpy (``ingest``, ``chart``, ``evaluate``,
``metrics`` of only LM1–LM3) never pays for its import.
``np`` is the module object that ``sys.modules`` holds for numpy. Until its
first attribute lookup it is empty; that lookup runs numpy's import in place
(``importlib.util.LazyLoader``), after which ``np`` is the ordinary, fully
loaded module and each lookup costs what it always did.

Every float sum behind an output adds left to right: over an array through
``sequential_sum``, over a list in a ``+=`` loop from 0.0. numpy's ``sum``
and ``mean`` add pairwise in an order numpy picks, and ``dot`` and
``linalg`` add in the order of the BLAS kernel the CPU selects, so with
them the bytes of an output could change with the numpy build or the CPU.
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


def sequential_sum(values):
    """The sums of ``values`` along its last axis, as an array of shape ``values.shape[:-1]``.

    Each sum adds left to right, as a Python ``+=`` loop adds:
    ``np.add.accumulate`` adds in order by definition, so the bits are the
    same on every CPU and numpy build. An empty axis sums to 0.0.
    """
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1])
    return np.add.accumulate(values, axis=-1)[..., -1]
