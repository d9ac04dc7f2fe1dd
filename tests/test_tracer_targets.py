"""Every name the benchmark tracer wraps must exist in the package."""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "chain.diffusion_apply_to_tuple" in tracer.TARGETS
    for name, (module_name, qualname) in tracer.TARGETS.items():
        module = importlib.import_module(module_name)
        assert callable(functools.reduce(getattr, qualname.split("."), module)), name
