"""The benchmark's span tracer must resolve every name it wraps.

perfbench/tracer.py wraps typsat's public module attributes by name; a
rename in src/ would otherwise only surface as a failed traced benchmark
run.  The tracer is loaded by file path, since perfbench is not a package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_target(tracer_module):
    import typsat.pipeline as pipeline
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a in tracer_module.TARGETS}
    pipeline_originals = {a: getattr(pipeline, a) for a in tracer_module.PIPELINE_BINDINGS}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is not fn, f"{m}.{a} not wrapped"
        for a, fn in pipeline_originals.items():
            assert getattr(pipeline, a) is not fn, f"pipeline.{a} not rebound"
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    for a, fn in pipeline_originals.items():
        assert getattr(pipeline, a) is fn
