import contextlib
import warnings

import numpy as np
import pytest

# The hypothesis plugin imports this module when a test fails, to print the
# falsifying example; with libcst installed, that import warns through
# mypy_extensions.TypedDict, and under -W error the warning would end the run
# in INTERNALERROR instead of the report.  Importing it here, with only that
# warning ignored, leaves the later import nothing to warn about.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from formalflow import (
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
)


def random_mapping(rng, order, dy, dz, magnitude=0.5):
    comps = tuple(
        MultilinearMap(k, dy, dz, magnitude * rng.standard_normal((dz,) + (dy,) * k))
        for k in range(1, order + 1)
    )
    return FormalMapping(order, dy, dz, comps)


def random_diffusion(rng, order, dy, m, magnitude=0.5):
    comps = tuple(
        DiffusionMap(k, dy, dy, m, magnitude * rng.standard_normal((dy,) + (dy,) * k + (m,)))
        for k in range(1, order + 1)
    )
    return DiffusionFamily(order, dy, m, comps)


def zero_diffusion(order, dy, m):
    """The zero diffusion family of order from R^dy with m noise columns."""
    return DiffusionFamily(order, dy, m, [MultilinearMap.zero(k, dy, dy, (m,)) for k in range(1, order + 1)])


def random_coefficients(rng, order, dy, m, magnitude=0.3):
    return CoefficientFamily.constant(
        random_mapping(rng, order, dy, dy, magnitude),
        random_diffusion(rng, order, dy, m, magnitude),
    )


def mapping_allclose(a, b, rtol=1e-12):
    for ca, cb in zip(a.components, b.components):
        ref = max(np.linalg.norm(cb.entries), 1.0)
        if np.linalg.norm(ca.entries - cb.entries) > rtol * ref:
            return False
    return True


def mapping_equal(a, b):
    return all(
        np.array_equal(ca.entries, cb.entries) for ca, cb in zip(a.components, b.components)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
