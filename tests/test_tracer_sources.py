"""The per-layer tracer in perfbench/tracer.py names the functions it wraps
as "module:qualname" strings.  Every one must resolve against this source
tree: a renamed function would otherwise turn its per-layer row into
"absent" without any error."""

import importlib.util
from pathlib import Path

import sylres

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_source_resolves():
    assert Path(sylres.__file__).resolve().is_relative_to(ROOT / "src")
    tracer = _load_tracer()
    sources = [s for layer in tracer.LAYERS.values() for s in layer] + list(tracer.COUNTERS.values())
    assert len(sources) > 30
    assert [s for s in sources if tracer._resolve(s) is None] == []
