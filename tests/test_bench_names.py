"""The benchmark's per-layer function metrics name functions its tracer wraps.

``perfbench/layertrace.py`` traces only functions that one cnproj module
binds from another (plus a short list of extras), so a refactor that drops
such an import would make ``perfbench/run.py --trace 1`` fail on a missing
metric; this test catches that in the ordinary suite.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_layertrace():
    path = ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_per_layer_function_names_are_traced():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
              if m["name"].endswith((".calls", ".self_s"))}
    assert "homspaces.end_radical_coords" in wanted
    tracer = _load_layertrace().LayerTrace()
    tracer.install()
    try:
        traced = set(tracer.names)
    finally:
        tracer.uninstall()
    assert sorted(wanted - traced) == []
