"""The benchmark tracer's bindings hold: every ``bench/tracer.py`` target
resolves, as ``Tracer.install`` looks it up, to a function of its own. Two
targets on one function object would be wrapped twice, each call counted
under both spans. bench/ is imported read-only, as bench/tests does."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


def _resolve(module, path):
    """The object install wraps: a module attribute, or a method from its
    class's own dictionary (an inherited method is not there)."""
    if "." not in path:
        return getattr(module, path)
    cls, attr = path.split(".")
    return getattr(module, cls).__dict__[attr]


def test_every_tracer_target_is_a_distinct_function():
    seen = {}
    for span, (modname, paths, _) in tracer.TARGETS.items():
        module = importlib.import_module(modname)
        for path in paths:
            fn = _resolve(module, path)
            assert callable(getattr(fn, "__func__", fn)), (span, path)
            assert id(fn) not in seen, (span, path, seen.get(id(fn)))
            seen[id(fn)] = (span, path)
    assert len(seen) == sum(len(paths) for _, paths, _ in tracer.TARGETS.values())
