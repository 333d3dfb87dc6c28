"""The benchmark's per-layer tracer can still attach to the program.

perfbench/layers.py wraps entry points by the names the program looks them
up by. A change that renames or deletes one of them breaks the benchmark,
not the program, so this test installs the benchmark's wrappers on one
generated function and checks that every layer was seen."""

import importlib.util
import os
import sys

import cunitgen.frontend.parser as parser_mod
import cunitgen.pipeline as pipeline
from cunitgen.cli import ship_compat_header
from cunitgen.config import Config

LAYERS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")

TWO_BRANCHES = """\
int two(int x, int y)
{
    int r = 0;
    if (x > 3) r = 1;
    if (y < x) r = r + 2;
    return r;
}
"""


def _layers_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wrappers_see_every_layer(tmp_path, monkeypatch):
    layers = _layers_module(monkeypatch)
    original_solve = pipeline.solve
    out_dir = str(tmp_path)
    tracer, log = layers.Tracer("hooks"), layers.SolveLog()
    tracer.install()
    log.install()
    try:
        ship_compat_header(out_dir)
        config = Config(out_dir=out_dir, quiet=True, jobs=1)
        unit = parser_mod.parse_unit(TWO_BRANCHES, "two.c")
        log.function = "two"
        tracer.set_function("two")
        outcome = pipeline.generate_function(unit, unit.function("two"), config)
        pipeline.write_outputs(outcome, unit, config)
    finally:
        log.uninstall()
        tracer.uninstall()
    assert outcome.status == "ok", outcome.message
    calls, _self_s = tracer.layer_times()
    for layer in ("frontend", "imr", "stct", "symex", "constraints", "solver",
                  "accept", "emit"):
        assert calls[layer] > 0, layer
    assert tracer.counts["solver.calls"] == len(log.calls["two"]) > 0
    assert pipeline.solve is original_solve
