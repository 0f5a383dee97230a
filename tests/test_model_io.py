from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wire import damaged

from fbttr.binio import Writer
from fbttr.bttr import FitConfig, NormStats, fit, predict
from fbttr.federated import run_federated_fit
from fbttr.model_io import (
    MAGIC,
    ModelFormatError,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
)
from fbttr.sparse_tucker import HyperGrid

GRID = HyperGrid(snr_values=(15.0, 35.0), tau_values=(97.0, 100.0))


def fitted_model(with_norm=False, federated=False, seed=0, n=25):
    """A centralized fit, or with ``federated`` a one-client federation, which carries no trace."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5, 4))
    y = (x[:, 1, 1] * 1.5 + 0.1 * rng.normal(size=n)).reshape(-1, 1)
    cfg = FitConfig(max_blocks=2, grid=GRID)
    model = run_federated_fit([(x, y)], cfg) if federated else fit(x, y, cfg)
    model.normalization = NormStats.from_training(x, y) if with_norm else None
    return model, x


@pytest.mark.parametrize("with_norm,with_trace", [(False, False), (True, True), (False, True)])
def test_round_trip_bit_exact(with_norm, with_trace):
    model, _ = fitted_model(with_norm=with_norm, federated=not with_trace)
    assert (model.trace is not None) == with_trace
    data = model_to_bytes(model)
    back = model_from_bytes(data)
    assert model_to_bytes(back) == data


def test_round_trip_preserves_predictions_exactly():
    model, x = fitted_model()
    back = model_from_bytes(model_to_bytes(model))
    assert np.array_equal(predict(model, x), predict(back, x))
    assert back.input_shape == model.input_shape
    for a, b in zip(model.blocks, back.blocks):
        assert np.array_equal(a.core, b.core)
        assert np.array_equal(a.score_core, b.score_core)
        assert np.array_equal(a.q, b.q)
        assert a.d == b.d


def test_magic_checked():
    model, _ = fitted_model()
    data = bytearray(model_to_bytes(model))
    data[:8] = b"NOTMODEL"
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(data))
    data[:8] = b"FBTTRv01"
    with pytest.raises(ModelFormatError):
        model_from_bytes(bytes(data))
    assert model_to_bytes(model)[:8] == MAGIC == b"FBTTRv02"


def test_saved_model_holds_no_sample_sized_array():
    # a prime sample count cannot be the size of any array of a model over
    # 5x4 features, so only a per-sample array could have it
    n = 23
    model, x = fitted_model(with_norm=True, n=n)
    back = model_from_bytes(model_to_bytes(model))

    def arrays_of(obj):
        return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]

    arrays = arrays_of(back) + arrays_of(back.normalization)
    for b in back.blocks:
        arrays += arrays_of(b) + list(b.factors)
    assert all(a.size not in (n, x.size) for a in arrays)


def test_truncated_data_rejected():
    model, _ = fitted_model()
    data = model_to_bytes(model)
    with pytest.raises(ModelFormatError):
        model_from_bytes(data[:-4])
    with pytest.raises(ModelFormatError):
        model_from_bytes(data + b"\x00")


@pytest.mark.parametrize("corrupt", [
    lambda m: replace(m, w=m.w[:, :1], z=m.z[:1]),
    lambda m: replace(m, w=np.vstack([m.w, np.zeros((1, m.w.shape[1]))])),
], ids=["one-block-predictor", "extra-feature-row"])
def test_predictor_must_fit_the_blocks(corrupt):
    # W and Z are stored beside the blocks; a file whose W or Z disagree
    # with the header's block count or feature shape is not a model
    model, _ = fitted_model()
    assert model.n_blocks == 2
    with pytest.raises(ModelFormatError):
        model_from_bytes(model_to_bytes(corrupt(model)))


@pytest.mark.parametrize("corrupt", [
    lambda b: replace(b, factors=[np.vstack([f, f]) for f in b.factors]),
    lambda b: replace(b, factors=b.factors[:1]),
    lambda b: replace(b, q=np.vstack([b.q, b.q])),
    lambda b: replace(b, core=np.concatenate([b.core, b.core], axis=1)),
    lambda b: replace(b, score_core=b.score_core[..., None]),
    lambda b: replace(b, core=b.core[:, :0], score_core=b.score_core[:, :0],
                      factors=[b.factors[0][:, :0]] + b.factors[1:]),
], ids=["doubled-factor-rows", "missing-factor", "two-row-q", "core-ranks", "score-core-order", "zero-rank"])
def test_blocks_must_fit_the_header(corrupt):
    model, _ = fitted_model()
    model.blocks[1] = corrupt(model.blocks[1])
    with pytest.raises(ModelFormatError, match="block 2"):
        model_from_bytes(model_to_bytes(model))


def test_file_round_trip(tmp_path):
    model, x = fitted_model(with_norm=True)
    path = tmp_path / "model.fbttr"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(predict(model, x), predict(back, x))
    assert np.array_equal(back.normalization.x_mean, model.normalization.x_mean)


@pytest.mark.parametrize("with_norm", [False, True], ids=["plain", "normalized"])
def test_header_without_feature_mode_rejected(with_norm):
    # order 1: no feature mode; W is 1 x 0 and Z is 0 x 1 for zero blocks
    w = Writer()
    w.raw(MAGIC)
    for v in (1, 1, 0):  # order, n_responses, n_blocks
        w.u32(v)
    w.u8(int(with_norm))
    if with_norm:
        for _ in range(4):
            w.array(np.ones(1))
    w.matrix(np.zeros((1, 0)))
    w.matrix(np.zeros((0, 1)))
    with pytest.raises(ModelFormatError, match="needs features"):
        model_from_bytes(w.getvalue())


@pytest.mark.parametrize("field", ["x_mean", "x_std", "y_mean", "y_std"])
def test_normalization_must_fit_the_header(field):
    model, _ = fitted_model(with_norm=True)
    ns = model.normalization
    setattr(ns, field, np.append(getattr(ns, field), 0.0))
    with pytest.raises(ModelFormatError, match="normalization"):
        model_from_bytes(model_to_bytes(model))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["w", "z", "x_mean", "x_std", "y_mean", "y_std"])
def test_non_finite_predictor_or_normalization_rejected(field, value):
    # such a model loaded and predicted NaN
    model, _ = fitted_model(with_norm=True)
    owner = model if field in ("w", "z") else model.normalization
    getattr(owner, field).flat[0] = value
    with pytest.raises(ModelFormatError, match="NaN or inf"):
        model_from_bytes(model_to_bytes(model))


@pytest.mark.parametrize("value", [0.0, -1.0], ids=["zero", "negative"])
@pytest.mark.parametrize("field", ["x_std", "y_std"])
def test_non_positive_standard_deviation_rejected(field, value):
    # such a model loaded, and predict then blamed the input for the NaN
    # its own statistics made
    model, _ = fitted_model(with_norm=True)
    getattr(model.normalization, field).flat[0] = value
    with pytest.raises(ModelFormatError, match="standard deviation"):
        model_from_bytes(model_to_bytes(model))


@lru_cache(maxsize=1)
def normalized_model_bytes() -> bytes:
    return model_to_bytes(fitted_model(with_norm=True)[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutation=st.data())
def test_damaged_model_loads_or_raises_model_format_error(mutation):
    # the model has a normalization, two blocks and a trace, so damage can hit
    # every section; it may still load, but raises nothing other than ModelFormatError
    data = mutation.draw(damaged(normalized_model_bytes()))
    try:
        model_from_bytes(data)
    except ModelFormatError:
        pass
