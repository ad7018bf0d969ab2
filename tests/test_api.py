"""Every name a capwave module exports in __all__ resolves, and the
containers that hold arrays compare by identity."""

import copy
import importlib
import pkgutil

import pytest

import capwave
from capwave.harmonics import (
    HarmonicCoefficients,
    VectorCoefficients,
    cap_grid,
    sphere_grid,
)
from capwave.kernels import (
    Geometry,
    PenaltyWeights,
    SymbolSet,
    shannon_reference_pair,
)
from capwave.transforms import field_samples

MODULES = [name for _, name, _ in pkgutil.iter_modules(capwave.__path__)
           if name != "__main__"]


def test_modules_found():
    assert {"harmonics", "transforms", "vector_field"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"capwave.{name}")
    assert not [n for n in module.__all__ if not hasattr(module, n)]


GEOMETRY = Geometry(1.0, 2.0, 4)
ARRAY_HOLDERS = {
    "HarmonicCoefficients": lambda: HarmonicCoefficients(1.0, 2),
    "VectorCoefficients": lambda: VectorCoefficients(1.0, 2),
    "SphereGrid": lambda: sphere_grid(1.0, 4),
    "CapGrid": lambda: cap_grid(1.0, (0.0, 0.0, 1.0), 0.5, 4),
    "SymbolSet": lambda: SymbolSet.ones(3),
    "KernelPair": lambda: shannon_reference_pair(GEOMETRY, 4),
    "PenaltyWeights": lambda: PenaltyWeights.uniform(GEOMETRY, 1.0, 1.0, 1.0),
    "FieldSamples": lambda: field_samples(HarmonicCoefficients(1.0, 2), 4),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    x = make()
    assert x == x
    assert (x == copy.copy(x)) is False
    assert x != copy.copy(x)
