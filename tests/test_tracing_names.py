"""Every name that perfbench/tracing.py wraps exists in the package.

The tracer binds functions by name when a traced benchmark run starts,
so a renamed or deleted one would otherwise fail only there.  The file
is loaded by path, as it is not part of the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    """The package attribute named "module.attr", or None."""
    module_name, _, attr = dotted.partition(".")
    return getattr(importlib.import_module("boolweyl." + module_name), attr, None)


def test_traced_names_resolve_in_the_package():
    tracing = load_tracing()
    names = [f"{module}.{fname}" for module, fnames in tracing.TRACED.items() for fname in fnames]
    names += [f"checks.check_{check}" for check in tracing.CHECKS]
    names += [f"setfam.{kind}{suffix}" for kind in tracing.SET_PRODUCTS for suffix in ("_prod", "_act")]
    assert len(names) > 50
    assert [name for name in names if not callable(resolve(name))] == []
    assert [name for name in tracing.CACHED if not hasattr(resolve(name), "cache_info")] == []
    assert all(callable(getattr(resolve("gf2lin.ColumnSolver"), m, None)) for m in ("__init__", "solve"))
