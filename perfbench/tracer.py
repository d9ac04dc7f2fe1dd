"""In-memory span tracer installed around formalflow's public functions.

Each traced name is wrapped where the library binds it, in its defining
module or class and in every formalflow module that imported it, so calls
between modules pass through the wrapper.  A span is (name, parent, start,
end); spans live in flat arrays until the run ends and `save` writes them
out in one file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# span name -> (defining module, qualified name); the name's prefix is its layer
TARGETS = {
    "cli": ("formalflow.cli", "main"),
    "algebra.compose": ("formalflow.algebra", "compose"),
    "algebra.multilinear_map": ("formalflow.algebra", "MultilinearMap.__post_init__"),
    "algebra.apply_to_tuple": ("formalflow.algebra", "apply_to_tuple"),
    "chain.one_step_map": ("formalflow.chain", "one_step_map"),
    "chain.solve_chain": ("formalflow.chain", "solve_chain"),
    "chain.sample_path": ("formalflow.chain", "sample_path"),
    "chain.coarsen": ("formalflow.chain", "BrownianPath.coarsen"),
    "chain.diffusion_apply_to_tuple": ("formalflow.chain", "DiffusionMap.apply_to_tuple"),
    "explicit.variation_of_constants": ("formalflow.explicit", "variation_of_constants"),
    "explicit.forcing_terms": ("formalflow.chain", "forcing_terms"),
    "explicit.fundamental": ("formalflow.explicit", "fundamental"),
    "verification.estimate_order": ("formalflow.verification", "estimate_order"),
}


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        # operand-shape key of each compose span, in call order
        self.compose_keys = array("i")
        self.shape_keys: dict[tuple, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name_id, (module_name, qualname) in enumerate(TARGETS.values()):
            module = importlib.import_module(module_name)
            owner_path, _, attr = qualname.rpartition(".")
            owner = functools.reduce(getattr, owner_path.split("."), module) if owner_path else module
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            # rebind the function in every formalflow module that holds it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "formalflow" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id: int, fn):
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter
        is_compose = self.names[name_id] == "algebra.compose"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ends)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_compose:
                self._record_compose(*args, **kwargs)
            return result

        return wrapper

    def _record_compose(self, b, a) -> None:
        key = (
            min(a.order, b.order), a.dy, a.dz, b.dz,
            tuple(not c.is_zero for c in b.components),
            tuple(not c.is_zero for c in a.components),
        )
        self.compose_keys.append(self.shape_keys.setdefault(key, len(self.shape_keys)))

    def save(self, path) -> None:
        """Write every span and the compose operand keys to one .npz file."""
        keys = sorted(self.shape_keys, key=self.shape_keys.get)
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            compose_keys=np.frombuffer(self.compose_keys, dtype=np.int32),
            shape_keys=np.array(json.dumps(keys)),
        )
