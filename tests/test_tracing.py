"""The package as the benchmark's tracer (bench/tracing.py) sees it.

The tracer rebinds names that the package's modules import from each
other, so a name that disappears breaks it, and its span counts show
which layer does each piece of work.  `bench/` is not on the test
path, so the tracer module is loaded from its file.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from tracecause.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demos" / "data"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_resolves(tracing):
    rebound = [(module, name)
               for module, by_layer in tracing._SPANNED.items()
               for names in by_layer.values() for name in names]
    rebound += [(module, name) for module, names in tracing._COUNTED.items()
                for name in names]
    missing = [f"{module.__name__}.{name}" for module, name in rebound
               if not callable(getattr(module, name, None))]
    assert not missing


def test_traced_analysis_runs_the_global_spec_once(tracing, capsys):
    # Zero wrapper costs: only the counts are read here.
    tracer = tracing.Tracer(costs=((0.0, 0.0), (0.0, 0.0)))
    argv = ["analyze", str(DEMO / "system.json"), str(DEMO / "trace.txt"),
            "--json"]
    with tracer.instrument():
        assert tracer.run_job(0, cli_main, argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "analyze"
    calls = tracer.span_calls
    assert (calls["faulty_components"], calls["violates_global"],
            calls["enumerate_with_stats"]) == (1, 0, 2)
    assert tracer.sums["evaluated"] == 8
