"""The names in ``bench/tracer.py`` must resolve in the package.

``Tracer.install`` binds a span to each ``(module, attribute path)`` of
``tracer.TARGETS`` by ``getattr``, so deleting or renaming one of them
breaks every traced benchmark run.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for modname, path, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{modname}.{path}")
    assert missing == []
