"""Every function the benchmark's tracer wraps must still exist under the
name it is looked up by, or a traced benchmark run fails on its first
lookup. The tracer module is loaded from its file, as it stands."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("dpar_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


def test_every_trace_point_resolves_to_a_callable():
    points = _trace_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in points
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"trace points that no longer resolve: {missing}"
