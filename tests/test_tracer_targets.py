"""The campaign benchmark's per-layer tracer must find every function it wraps.

perfbench/tracer.py names its targets by module and attribute; a target that a
refactor moves or renames is recorded in ``Tracer.missing`` and its layer
metrics silently read zero. The tracer is loaded from its file, not changed.
"""

import importlib.util
from pathlib import Path

from adreward import contracts

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_declared_target():
    tracer = _load_tracer().Tracer()
    tracer.begin("targets")
    try:
        assert contracts.PolicyContract.snapshot is not contracts._snapshot  # wrapped while tracing
    finally:
        tracer.end()
    assert tracer.missing == set()
    assert contracts.PolicyContract.snapshot is contracts._snapshot
    assert contracts.FundContract.state_bytes is contracts._state_bytes
