"""Write the golden model fixtures that ``tests/test_golden.py`` checks.

Run from the repository root to regenerate them in place:

    PYTHONPATH=src python tests/golden/make_golden.py

or pass a directory to write them elsewhere.  The fixtures are built in a
subprocess whose BLAS libraries are pinned to one thread before numpy loads,
because the thread count alone changes the last bits of a centralized
model's residual trace.  Written files:

- ``centralized.fbttr``: the model bytes of a small centralized fit;
- ``federation.fbttr``: the model bytes of a 3-client loopback federation
  on a 4-way set whose harmonised target ranks are lowered by one, so every
  client reruns its block at its own (SNR, tau) and truncates it to the
  target;
- ``block_path.fbttr``: the model bytes of a centralized fit whose
  ``tensor.GATHER_BYTES`` is lowered to :data:`BLOCK_PATH_GATHER_BYTES`, so
  its 375 KiB set is deflated and projected in blocks of 68 samples, the
  last one of 60, as a wide set is at the default block size;
- ``golden.json``: the SHA-256 of both models, of their predictions
  (:func:`predictions_sha256`) and over every frame the federation sent, the
  work each case did (:data:`COUNTED`, unconverged cells, and frames and bytes
  in each direction), and the numpy and BLAS fingerprint they were made on.

The frames are wire version 4: each client sends a JOIN, the hub's HELLO
is the ``FitConfig`` itself, and a client's next ACE_REPORT acknowledges a
GLOBAL_BLOCK, so after the last round the hub sends DONE at once.  The
federation's 3 clients send 15 frames: a JOIN, then per round an
ACE_REPORT and a BLOCK_UPDATE.

``max_blocks`` equals the planted block count in both cases, so no noise
block's near-tied (SNR, tau) choice can depend on the BLAS build.  A change
that alters model bytes on purpose regenerates the fixtures and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the prediction batch spans at least three 4 MiB gather blocks of its samples
BATCH_BYTES = 3 * (4 << 20)
BLOCK_PATH_GATHER_BYTES = 64 << 10
# work count -> the function whose calls it counts
COUNTED = {
    "cells": "sparse_tucker.f_mpstd_cov",
    "sweeps": "sparse_tucker.prune",
    "hooi_sweeps": "sparse_tucker._hooi_sweep",
    "svds": "sparse_tucker._leading_vectors",
    "reruns": "federated.f_mpstd",
}


def fingerprint() -> dict:
    """The numpy version, BLAS build and CPU features a model's bytes can depend on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def centralized():
    """(model, None): a 4-way fit of two planted blocks."""
    from fbttr import FitConfig, fit, make_synthetic

    ds, _ = make_synthetic((60, 6, 5, 4), n_blocks=2, ranks=(2, 2, 2), noise_snr_db=10.0, seed=11)
    return fit(ds.x, ds.y, FitConfig(max_blocks=2)), None


def federation():
    """(model, frames): three IID clients over loopback, every client rerunning.

    The set is 4-way: on 3-way sets of this size every grid cell reached a
    fixed point of its sweeps, so the counts did not see ``SWEEP_TOL``."""
    from fbttr import FitConfig, PartitionPlan, federated, make_synthetic, partition
    from fbttr.transport import LoopbackTransport

    harmonize = federated.harmonize_ranks

    def lower_target(reports):
        target, assignments = harmonize(reports)
        target = tuple(max(1, r - 1) for r in target)
        for a in assignments.values():
            a.target_ranks = target
        return target, assignments

    ds, _ = make_synthetic((90, 5, 4, 3), n_blocks=2, ranks=(2, 2, 1), noise_snr_db=10.0, seed=12)
    parts = partition(ds, PartitionPlan("iid", 3, 12))
    sessions = {cid: federated.ClientSession(cid, p.x, p.y) for cid, p in enumerate(parts)}
    hub = LoopbackTransport(sessions)
    federated.harmonize_ranks = lower_target
    try:
        model = federated.federated_fit_over(hub, FitConfig(max_blocks=2))
    finally:
        federated.harmonize_ranks = harmonize
    return model, hub.frames


def block_path():
    """(model, None): a 4-way fit of two planted blocks whose deflations and
    projections run block by block."""
    from fbttr import FitConfig, fit, make_synthetic, tensor

    ds, _ = make_synthetic((400, 6, 5, 4), n_blocks=2, ranks=(2, 2, 2), noise_snr_db=10.0, seed=13)
    default, tensor.GATHER_BYTES = tensor.GATHER_BYTES, BLOCK_PATH_GATHER_BYTES
    try:
        return fit(ds.x, ds.y, FitConfig(max_blocks=2)), None
    finally:
        tensor.GATHER_BYTES = default


CASES = {"centralized": centralized, "federation": federation, "block_path": block_path}


def predictions_sha256(model) -> str:
    """SHA-256 of ``model``'s predictions on a seeded standard-normal batch of
    ``BATCH_BYTES // row bytes + 7`` rows, then on its first five rows one at a time."""
    import numpy as np

    shape = tuple(model.input_shape)
    x = np.random.default_rng(0).standard_normal((BATCH_BYTES // (8 * int(np.prod(shape))) + 7,) + shape)
    h = hashlib.sha256(model.predict(x).tobytes())
    for i in range(5):
        h.update(model.predict(x[i:i + 1]).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def counting():
    """Count the calls of every :data:`COUNTED` function, and the cells that
    ended unconverged, while the block runs; yields the counts."""
    counts = dict.fromkeys(list(COUNTED) + ["unconverged"], 0)
    patched = []
    for name, path in COUNTED.items():
        module, attr = path.split(".")
        module = importlib.import_module(f"fbttr.{module}")
        real = getattr(module, attr)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            out = _real(*args, **kwargs)
            if _name == "cells" and not out.converged:
                counts["unconverged"] += 1
            return out

        patched.append((module, attr, real))
        setattr(module, attr, counted)
    try:
        yield counts
    finally:
        for module, attr, real in patched:
            setattr(module, attr, real)


def frame_counts(frames) -> dict:
    """Frames and bytes in each direction of a frame log."""
    counts = {}
    for direction, key in (("client->server", "to_hub"), ("server->client", "to_clients")):
        sizes = [len(frame) for d, _, frame in frames if d == direction]
        counts[f"frames_{key}"], counts[f"bytes_{key}"] = len(sizes), sum(sizes)
    return counts


def frames_sha256(frames) -> str:
    h = hashlib.sha256()
    for direction, cid, frame in frames:
        h.update(f"{direction} {cid} {len(frame)}\n".encode())
        h.update(frame)
    return h.hexdigest()


def _build(out: Path) -> None:
    # runs in the pinned subprocess
    from fbttr import model_to_bytes

    record = {"fingerprint": fingerprint(), "model_sha256": {}, "predictions_sha256": {}, "work": {}}
    for name, build in CASES.items():
        with counting() as work:
            model, frames = build()
        blob = model_to_bytes(model)
        (out / f"{name}.fbttr").write_bytes(blob)
        record["model_sha256"][name] = hashlib.sha256(blob).hexdigest()
        record["predictions_sha256"][name] = predictions_sha256(model)
        record["work"][name] = dict(work, **frame_counts(frames or []))
        if frames is not None:
            record["frames_sha256"] = frames_sha256(frames)
    (out / "golden.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def write_fixtures(out) -> None:
    """Build every fixture into ``out`` in a subprocess pinned to one BLAS thread."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--build", str(out)],
                   env=env, check=True, timeout=300)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--build"]:
        _build(Path(sys.argv[2]))
    else:
        write_fixtures(sys.argv[1] if len(sys.argv) > 1 else HERE)
