"""The benchmark traces fbttr by replacing names in its modules; every one must exist."""

import importlib.util
from pathlib import Path

from fbttr import bttr, federated, sparse_tucker

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    tracing, layers = _load("tracing"), _load("layers")
    originals = (bttr.ace, federated.ace, federated.f_mpstd, federated.ClientSession.handle)
    tracer = tracing.Tracer()
    try:
        layers.instrument(tracer)  # Tracer.patch raises on a missing name
        assert bttr.ace is not originals[0]
    finally:
        tracer.restore()
    assert (bttr.ace, federated.ace, federated.f_mpstd, federated.ClientSession.handle) == originals
    assert bttr.ace is sparse_tucker.ace
