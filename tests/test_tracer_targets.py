"""Every name the benchmark tracer wraps must exist in the package, and the
tracer must wrap each one where it is bound and put the original back."""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import formalflow  # noqa: F401  # imports every module, so each binding exists before install

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def resolve(module_name, qualname):
    return functools.reduce(getattr, qualname.split("."), importlib.import_module(module_name))


def bindings(module_name, qualname, fn):
    """The (owner, attribute) places that hold fn under the target's name: its
    owner for a qualified name, else every formalflow module that holds it."""
    owner_path, _, attr = qualname.rpartition(".")
    if owner_path:
        return [(resolve(module_name, owner_path), attr)]
    return [
        (mod, attr)
        for name, mod in sorted(sys.modules.items())
        if name.split(".")[0] == "formalflow" and getattr(mod, attr, None) is fn
    ]


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    assert "chain.diffusion_apply_to_tuple" in tracer.TARGETS
    for name, (module_name, qualname) in tracer.TARGETS.items():
        assert callable(resolve(module_name, qualname)), name


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracer = load_tracer()
    originals = {name: resolve(*target) for name, target in tracer.TARGETS.items()}
    places = {name: bindings(*target, originals[name]) for name, target in tracer.TARGETS.items()}
    t = tracer.Tracer()
    t.install()
    try:
        for name, target in tracer.TARGETS.items():
            assert places[name], name
            for owner, attr in places[name]:
                wrapper = getattr(owner, attr)
                assert wrapper is not originals[name], (name, owner)
                assert wrapper.__wrapped__ is originals[name], (name, owner)
    finally:
        t.uninstall()
    for name, target in tracer.TARGETS.items():
        for owner, attr in places[name]:
            assert getattr(owner, attr) is originals[name], (name, owner)
