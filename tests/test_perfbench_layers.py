"""The benchmark's traced run wraps solver functions by module attribute.

A renamed or removed attribute would break only the traced run, so every
attribute the benchmark patches is checked here.
"""

import importlib.util
from pathlib import Path

import rfpde

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_patched_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    patches = layers.patches(rfpde)
    assert patches
    for owner, attribute, span, _ in patches:
        assert callable(getattr(owner, attribute, None)), span
