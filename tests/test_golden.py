"""Models stay the same: fresh fixtures match the committed golden ones.

``tests/golden/make_golden.py`` rebuilds the fixtures in a subprocess pinned
to one BLAS thread.  On the numpy and BLAS fingerprint they were recorded on,
model bytes, predictions and the federation's frames must match by SHA-256,
and the work each case did must match count for count.  On any other
fingerprint (another wheel or CPU) the bytes may differ in the last bits, so
the decoded blocks, ``W``, ``Z`` and predictions are compared within 1e-12,
and the work counts within :data:`WORK_RTOL`, since a sweep count can move
with the last bit of a convergence test.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fbttr import model_from_bytes

WORK_RTOL = 0.1  # relative tolerance of a work count off the recorded fingerprint

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    make_golden.write_fixtures(out)
    return out


def _record(directory):
    return json.loads((directory / "golden.json").read_text())


def _assert_models_close(recorded, fresh_model, x):
    assert len(fresh_model.blocks) == len(recorded.blocks)
    for a, b in zip(recorded.blocks, fresh_model.blocks):
        for u, v in zip([a.core, a.score_core, a.q] + a.factors, [b.core, b.score_core, b.q] + b.factors):
            assert u.shape == v.shape
            np.testing.assert_allclose(v, u, rtol=0, atol=1e-12)
        assert abs(a.d - b.d) <= 1e-12
    np.testing.assert_allclose(fresh_model.w, recorded.w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fresh_model.z, recorded.z, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fresh_model.predict(x), recorded.predict(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_model_matches_its_golden_fixture(fresh, case, capsys):
    recorded, now = _record(GOLDEN), _record(fresh)
    if now["fingerprint"] == recorded["fingerprint"]:
        assert now["model_sha256"][case] == recorded["model_sha256"][case]
        assert now["predictions_sha256"][case] == recorded["predictions_sha256"][case]
        if case == "federation":
            assert now["frames_sha256"] == recorded["frames_sha256"]
        return
    with capsys.disabled():
        print(f"\ngolden {case}: fingerprint differs from the recorded one; "
              f"comparing decoded models within 1e-12, not bytes")
    old = model_from_bytes((GOLDEN / f"{case}.fbttr").read_bytes())
    new = model_from_bytes((fresh / f"{case}.fbttr").read_bytes())
    x = np.random.default_rng(0).standard_normal((7,) + tuple(old.input_shape))
    _assert_models_close(old, new, x)


@pytest.mark.parametrize("case", list(make_golden.CASES))
def test_work_matches_its_golden_counts(fresh, case, capsys):
    recorded, now = _record(GOLDEN), _record(fresh)
    old, new = recorded["work"][case], now["work"][case]
    assert set(new) == set(old)
    if now["fingerprint"] == recorded["fingerprint"]:
        assert new == old
        return
    with capsys.disabled():
        print(f"\ngolden {case} work, recorded -> now: "
              + ", ".join(f"{k} {old[k]} -> {new[k]}" for k in sorted(old)))
    for k in old:
        assert abs(new[k] - old[k]) <= WORK_RTOL * old[k], k
