"""The benchmark's tracer wraps package functions by name; each must exist.

``perfbench/tracing.py`` replaces functions at the attributes its
``SPAN_SITES`` and ``ENTRY_POINTS`` name, so deleting or renaming one of
them breaks ``perfbench/run.py --trace 1``.  The file is read and executed
here without importing it, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    sites = [site for names in tracing.SPAN_SITES.values() for site in names]
    sites += [f"{module}:{attr}" for module, attr, _ in tracing.ENTRY_POINTS]
    missing = []
    for site in sites:
        module, _, path = site.partition(":")
        owner = importlib.import_module(f"adaswitch.{module}")
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(site)
    assert sites
    assert missing == []
