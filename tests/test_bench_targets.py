"""The benchmark's tracer and op checks must accept what typsat produces.

perfbench/tracer.py wraps typsat's public module attributes by name, and
perfbench/workloads.py checks each certify op's rate against a window; a
rename in src/, or a rate outside that window, would otherwise only surface
as a failed benchmark run.  Both are loaded by file path, since perfbench is
not a package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from typsat import pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module's annotations there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("mode", ["float", "interval"])
def test_certify_ops_pass_the_benchmark_check(workloads, mode):
    ok, facts = workloads._check_certify(mode, pipeline.certify(*workloads.CERTIFY_ARGS, mode=mode))
    assert ok
    assert workloads.RATE_FLOOR <= facts["rate_upper"] <= workloads.RATE_REF + workloads.RATE_TOL


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
