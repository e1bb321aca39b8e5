"""The benchmark reaches into the package by name; each name must exist.

``perfbench/tracing.py`` replaces functions at the attributes its
``SPAN_SITES`` and ``ENTRY_POINTS`` name, and ``perfbench/slopes.py`` calls
package functions directly to time them, so deleting or renaming one of
them breaks ``perfbench/run.py --trace 1``.  Both files are read and
executed here without importing them, so nothing is written next to them.
"""

import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
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


def test_every_slope_case_runs():
    slopes = _load("slopes")
    modules = {name: importlib.import_module(f"adaswitch.{name}") for name in
               ("oltq", "kserver", "orra", "switching", "framework", "harness")}
    cases = slopes._cases(modules, 0)
    assert sorted(cases) == sorted(prefix for prefix, _, _ in slopes.OPERATIONS)
    for factory in cases.values():
        factory(8)()
