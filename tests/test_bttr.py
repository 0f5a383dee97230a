import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbttr import bttr, sparse_tucker, tensor
from fbttr.bttr import (
    Block,
    FitConfig,
    FitError,
    NormStats,
    deflate,
    fit,
    materialize_predictor,
    predict,
    residual_trace,
    select_k_cv,
)
from fbttr.data import make_synthetic
from fbttr.federated import run_federated_fit
from fbttr.sparse_tucker import HyperGrid, ace, finalize_block
from fbttr.tensor import (
    _sample_matrix,
    _unfold,
    frobenius_norm,
    kron_factors,
    multilinear_product,
    unfold,
    vec,
)

SMALL_GRID = HyperGrid(snr_values=(10.0, 25.0, 40.0), tau_values=(95.0, 99.0, 100.0))


def plant_blocks(rng, n, feature_shape, n_blocks, m=1, noise=0.0):
    """Synthetic tensor with orthogonal planted multilinear components."""
    ranks = [1] * len(feature_shape)
    t_all, _ = np.linalg.qr(rng.normal(size=(n, n_blocks)))
    p_per_mode = []
    for ext in feature_shape:
        p_all, _ = np.linalg.qr(rng.normal(size=(ext, n_blocks)))
        p_per_mode.append(p_all)
    q_all, _ = np.linalg.qr(rng.normal(size=(m, min(m, n_blocks))))
    x = np.zeros((n,) + tuple(feature_shape))
    y = np.zeros((n, m))
    truth = []
    for k in range(n_blocks):
        t = t_all[:, k:k + 1]
        ps = [p[:, k:k + 1] for p in p_per_mode]
        core = np.full([1] + ranks, 2.0 * 0.7**k)
        fmap = {1: t}
        fmap.update({i + 2: p for i, p in enumerate(ps)})
        x = x + multilinear_product(core, fmap)
        q = q_all[:, k % q_all.shape[1]:k % q_all.shape[1] + 1]
        d = 3.0 * 0.8**k
        y = y + d * (t @ q.T)
        truth.append((t, ps, q, d))
    if noise > 0:
        x = x + noise * rng.normal(size=x.shape)
        y = y + noise * rng.normal(size=y.shape)
    return x, y, truth


def test_fit_single_planted_block_high_training_r():
    rng = np.random.default_rng(0)
    x, y, _ = plant_blocks(rng, 60, (6, 5), n_blocks=1)
    model = fit(x, y, FitConfig(max_blocks=1, grid=SMALL_GRID))
    pred = predict(model, x)
    r = np.corrcoef(pred[:, 0], y[:, 0])[0, 1]
    assert r >= 0.99


def test_fit_config_rejects_zero_blocks():
    with pytest.raises(ValueError):
        FitConfig(max_blocks=0)


def test_fit_config_rejects_rank_cap_below_one():
    # rank_cap also arrives over the wire, in the hub's HELLO
    with pytest.raises(ValueError):
        FitConfig(rank_cap=0)
    assert FitConfig(rank_cap=1).rank_cap == 1


def test_fit_epsilon_above_response_norm_still_extracts_one_block():
    rng = np.random.default_rng(1)
    x, y, _ = plant_blocks(rng, 40, (5, 4), n_blocks=1)
    cfg = FitConfig(max_blocks=3, epsilon=10.0 * frobenius_norm(y), grid=SMALL_GRID)
    model = fit(x, y, cfg)
    assert model.n_blocks == 1


def fit_with_scores(monkeypatch, x, y, cfg):
    """``fit(x, y, cfg)`` and each block's training score t, taken from its ``ace`` call."""
    scores = []

    def recording_ace(*args, **kwargs):
        a = ace(*args, **kwargs)
        scores.append(a.t)
        return a

    monkeypatch.setattr(bttr, "ace", recording_ace)
    model = fit(x, y, cfg)
    assert len(scores) == model.n_blocks
    return model, scores


def test_training_prediction_matches_block_sum_oracle(monkeypatch):
    rng = np.random.default_rng(2)
    x, y, _ = plant_blocks(rng, 50, (6, 4), n_blocks=2, noise=0.05)
    model, scores = fit_with_scores(monkeypatch, x, y, FitConfig(max_blocks=3, grid=SMALL_GRID))
    pred = predict(model, x)
    oracle = sum(b.d * (t @ b.q.T) for b, t in zip(model.blocks, scores))
    assert np.max(np.abs(pred - oracle)) < 1e-8


def test_predict_zero_tensor_gives_zero():
    rng = np.random.default_rng(3)
    x, y, _ = plant_blocks(rng, 30, (5, 3), n_blocks=1)
    model = fit(x, y, FitConfig(max_blocks=1, grid=SMALL_GRID))
    assert np.array_equal(predict(model, np.zeros((4, 5, 3))), np.zeros((4, 1)))


def test_predict_single_sample_shape():
    rng = np.random.default_rng(4)
    x, y, _ = plant_blocks(rng, 30, (5, 3), n_blocks=1, m=2)
    model = fit(x, y, FitConfig(max_blocks=1, grid=SMALL_GRID))
    out = predict(model, x[:1])
    assert out.shape == (1, 2)


def test_predict_shape_mismatch():
    rng = np.random.default_rng(5)
    x, y, _ = plant_blocks(rng, 30, (5, 3), n_blocks=1)
    model = fit(x, y, FitConfig(max_blocks=1, grid=SMALL_GRID))
    with pytest.raises(ValueError):
        predict(model, np.zeros((4, 5, 4)))


def test_deflation_orthogonality(monkeypatch):
    rng = np.random.default_rng(6)
    x, y, _ = plant_blocks(rng, 40, (6, 4), n_blocks=2, noise=0.05)
    model, scores = fit_with_scores(monkeypatch, x, y, FitConfig(max_blocks=2, grid=SMALL_GRID))
    e = x.copy()
    for b, t in zip(model.blocks, scores):
        fmap = {1: t}
        fmap.update({n + 2: f for n, f in enumerate(b.factors)})
        e = e - multilinear_product(b.core, fmap)
        leak = t.T @ unfold(e, 1) @ kron_factors(b.factors)
        assert np.max(np.abs(leak)) < 1e-8 * max(frobenius_norm(e), 1e-12)


def test_response_residual_never_increases():
    rng = np.random.default_rng(7)
    x, y, _ = plant_blocks(rng, 40, (6, 4), n_blocks=3, noise=0.1)
    model = fit(x, y, FitConfig(max_blocks=3, grid=SMALL_GRID))
    trace = residual_trace(model)
    f_norms = [f for _, f in trace]
    assert all(b <= a + 1e-12 for a, b in zip(f_norms, f_norms[1:]))
    assert all(e >= 0 and f >= 0 for e, f in trace)


def test_fit_computes_each_coefficient_once(monkeypatch):
    # the block's d is the coefficient its deflation uses: one (F q)'t per block
    calls, original = [], sparse_tucker.coefficient

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sparse_tucker, "coefficient", counting)
    monkeypatch.setattr(bttr, "coefficient", counting)
    rng = np.random.default_rng(10)
    x, y, _ = plant_blocks(rng, 40, (6, 4), n_blocks=2, noise=0.05)
    model = fit(x, y, FitConfig(max_blocks=2, grid=SMALL_GRID))
    assert model.n_blocks == 2
    assert len(calls) == 2


def test_residual_trace_length_and_recovery():
    rng = np.random.default_rng(8)
    x, y, _ = plant_blocks(rng, 50, (6, 5), n_blocks=1)
    model = fit(x, y, FitConfig(max_blocks=1, grid=SMALL_GRID))
    trace = residual_trace(model)
    assert len(trace) == 2

    x2, y2, _ = plant_blocks(rng, 60, (8, 6), n_blocks=2)
    model2 = fit(x2, y2, FitConfig(max_blocks=2, grid=SMALL_GRID))
    trace2 = residual_trace(model2)
    assert trace2[-1][1] < 0.05 * trace2[0][1]


def test_residual_trace_requires_retention():
    # a federated model carries no trace: no party sees every residual
    rng = np.random.default_rng(9)
    x, y, _ = plant_blocks(rng, 30, (5, 3), n_blocks=1)
    model = run_federated_fit([(x, y)], FitConfig(max_blocks=1, grid=SMALL_GRID))
    with pytest.raises(ValueError):
        residual_trace(model)


def test_fit_rejects_mismatched_and_nonfinite_inputs():
    rng = np.random.default_rng(10)
    x, y, _ = plant_blocks(rng, 20, (4, 3), n_blocks=1)
    with pytest.raises(ValueError):
        fit(x, y[:-1], FitConfig(max_blocks=1, grid=SMALL_GRID))
    bad = y.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        fit(x, bad, FitConfig(max_blocks=1, grid=SMALL_GRID))


def test_fit_zero_data_raises_fit_error():
    with pytest.raises(FitError):
        fit(np.zeros((10, 4, 3)), np.zeros((10, 1)), FitConfig(max_blocks=1, grid=SMALL_GRID))


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


@pytest.mark.parametrize("feature_shape", [(7,), (6, 4), (5, 4, 3)],
                         ids=["order2", "order3", "order4"])
def test_w_columns_reproduce_training_scores(feature_shape):
    # three blocks extracted by deflation, with feature ranks that differ
    # per mode and per block, so a mode or row-order mix-up in W shows
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40,) + feature_shape)
    e = x.copy()
    blocks, scores = [], []
    for k in range(3):
        ranks = tuple(min(ext, 1 + (k + n) % 3) for n, ext in enumerate(feature_shape))
        factors = [random_orthonormal(rng, ext, r) for ext, r in zip(feature_shape, ranks)]
        t, core, score_core = finalize_block(e, rng.normal(size=(1,) + ranks), factors)
        fmap = {1: t}
        fmap.update({n + 2: f for n, f in enumerate(factors)})
        e = e - multilinear_product(core, fmap)
        blocks.append(Block(core, score_core, factors, q=np.ones((1, 1)), d=1.0))
        scores.append(t)
    w, _ = materialize_predictor(blocks, feature_shape)
    t_mat = np.column_stack([t.ravel() for t in scores])
    assert np.max(np.abs(unfold(x, 1) @ w - t_mat)) < 1e-8
    for b in blocks:
        raw = materialize_predictor([b], feature_shape)[0][:, 0]
        ref = kron_factors(b.factors) @ vec(b.score_core)
        assert np.max(np.abs(raw - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_materialize_predictor_forms_no_kronecker_product():
    # two rank-(10,10,10) blocks over 32x16x20 features: the Kronecker
    # product of one block's factors alone is 10240 x 1000 doubles (78 MiB)
    rng = np.random.default_rng(15)
    shape, ranks = (32, 16, 20), (10, 10, 10)
    blocks = [
        Block(core=rng.normal(size=(1,) + ranks),
              factors=[random_orthonormal(rng, ext, r) for ext, r in zip(shape, ranks)],
              q=np.ones((1, 1)), d=1.0, score_core=rng.normal(size=(1,) + ranks))
        for _ in range(2)
    ]
    tracemalloc.start()
    try:
        materialize_predictor(blocks, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@st.composite
def block_cases(draw):
    """A residual of order 2-5 and one block on it with random feature ranks."""
    order = draw(st.integers(2, 5))
    n = draw(st.integers(2, 12))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(order - 1))
    ranks = tuple(draw(st.integers(1, ext)) for ext in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n,) + shape)
    factors = [random_orthonormal(rng, ext, r) for ext, r in zip(shape, ranks)]
    return x, factors, rng.normal(size=(1,) + ranks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_cases())
def test_one_pass_deflation_and_block_core_match_mode_product_formulas(case):
    # the formulas deflate and finalize_block replaced, kept here as reference:
    # E - core x1 t x2 P2 ... xN PN and x x1 t' x2 P2' ... xN PN'
    x, factors, score_core = case
    t, core, _ = finalize_block(x, score_core, factors)
    ref_core = multilinear_product(x, {1: t.T, **{n + 2: f.T for n, f in enumerate(factors)}})
    assert core.shape == ref_core.shape
    assert np.max(np.abs(core - ref_core)) <= 1e-12 * np.max(np.abs(ref_core))

    f, q = np.ones((x.shape[0], 1)), np.ones((1, 1))
    e, new_f = deflate(x.copy(), f, core, factors, q, 0.5, t)
    ref_e = x - multilinear_product(core, {1: t, **{n + 2: p for n, p in enumerate(factors)}})
    assert e.shape == x.shape
    assert np.max(np.abs(e - ref_e)) <= 1e-12 * np.max(np.abs(x))
    np.testing.assert_array_equal(new_f, f - 0.5 * t)


def test_deflate_rejects_a_core_of_mode1_extent_two():
    # with n = 2, broadcasting t against a 2 x I2 x I3 expansion would pass silently
    rng = np.random.default_rng(16)
    factors = [random_orthonormal(rng, 4, 2), random_orthonormal(rng, 3, 2)]
    t = np.array([[0.6], [0.8]])
    with pytest.raises(ValueError):
        deflate(rng.normal(size=(2, 4, 3)), np.ones((2, 1)), rng.normal(size=(2, 2, 2)),
                factors, np.ones((1, 1)), 1.0, t)


def test_deflate_allocates_one_residual():
    rng = np.random.default_rng(17)
    e = rng.normal(size=(200, 16, 12, 10))
    ranks = (4, 3, 5)
    factors = [random_orthonormal(rng, ext, r) for ext, r in zip(e.shape[1:], ranks)]
    core, t = rng.normal(size=(1,) + ranks), random_orthonormal(rng, 200, 1)
    f, q = rng.normal(size=(200, 1)), np.ones((1, 1))
    tracemalloc.start()
    try:
        out, _ = deflate(e, f, core, factors, q, 1.0, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is e  # in place, with one block of the outer product
    assert peak <= 1.25 * e.nbytes


def _whole_block(x, core, factors):
    # finalize_block before it projected block by block: one multilinear_product
    proj = multilinear_product(x, {n + 2: f.T for n, f in enumerate(factors)})
    t_raw = _unfold(proj, 1) @ vec(core)
    rho = float(np.linalg.norm(t_raw))
    t = (t_raw / rho).reshape(-1, 1)
    return t, multilinear_product(proj, {1: t.T}), core / rho


def _whole_deflation(e, t, core, factors):
    # deflate before it worked block by block: t ⊗ g written whole, then E minus it
    g = bttr.expand(core, factors)
    return e - np.reshape(t, (e.shape[0],) + (1,) * (e.ndim - 1)) * g


@pytest.mark.parametrize("size", ["1", "b-1", "b", "b+1", "2b+1"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_by_block_kernels_match_the_whole_tensor_formulas(order, size, data):
    # GATHER_BYTES is set so that a block holds b samples
    features = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order - 1, max_size=order - 1)))
    ranks = tuple(data.draw(st.integers(1, ext)) for ext in features)
    row_bytes = 8 * int(np.prod(features))
    b = data.draw(st.integers(2, 5))
    gather_bytes = b * row_bytes + data.draw(st.integers(0, row_bytes - 1))
    n = {"1": 1, "b-1": b - 1, "b": b, "b+1": b + 1, "2b+1": 2 * b + 1}[size]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n,) + features)
    factors = [random_orthonormal(rng, ext, r) for ext, r in zip(features, ranks)]
    core = rng.standard_normal((1,) + ranks)
    f, q = rng.standard_normal((n, 1)), np.ones((1, 1))
    before = x.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "GATHER_BYTES", gather_bytes)
        got = finalize_block(x, core, factors)
        t, block_core = got[0], got[1]
        owned = x.copy()
        in_place, _ = deflate(owned, f, block_core, factors, q, 0.5, t)
    assert x.tobytes() == before and in_place is owned
    ref_e = _whole_deflation(x, t, block_core, factors)
    assert in_place.tobytes() == ref_e.tobytes()
    for a, ref in zip(got, _whole_block(x, core, factors)):
        assert a.shape == ref.shape
        if n <= b:  # one block: the whole-tensor code itself
            assert a.tobytes() == ref.tobytes()
        else:  # BLAS may round a product over fewer columns otherwise
            assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fit_deflates_one_residual_in_place_and_never_writes_its_input(monkeypatch):
    # blocks of 6 samples over a 20-sample set, the last one of 2
    rng = np.random.default_rng(22)
    x, y, _ = plant_blocks(rng, 20, (5, 4, 3), n_blocks=3, noise=0.05)
    monkeypatch.setattr(tensor, "GATHER_BYTES", 6 * 8 * 60)
    calls, real = [], bttr.deflate

    def spy(e, f, core, factors, q, d, t):
        before = e.copy()
        res = real(e, f, core, factors, q, d, t)
        calls.append((before, e, res[0], res[0].tobytes(), core, factors, t))
        return res

    monkeypatch.setattr(bttr, "deflate", spy)
    originals = (x.tobytes(), y.tobytes())
    model = fit(x, y, FitConfig(max_blocks=3, grid=SMALL_GRID))
    assert model.n_blocks == 3 and len(calls) == 3
    assert (x.tobytes(), y.tobytes()) == originals
    residual = calls[0][2]
    assert not np.shares_memory(residual, x)
    assert all(e is residual and out is residual for _, e, out, *_ in calls)
    for before, _, _, after, core, factors, t in calls:
        assert after == _whole_deflation(before, t, core, factors).tobytes()


def test_a_wide_fit_and_set_hold_one_residual_beyond_their_data(monkeypatch):
    # a 9.4 MiB set in 256 KiB blocks: the fit peaks at 1.23x its data above
    # its inputs and the generator at 2.27x its output, against 2.32x and
    # 3.13x when each block's deflation made a new residual, the projection
    # transposed the whole residual and the generator added out of place
    monkeypatch.setattr(tensor, "GATHER_BYTES", 256 << 10)
    tracemalloc.start()
    try:
        ds, truth = make_synthetic((120, 32, 16, 20), n_blocks=3, noise_snr_db=10.0, seed=1)
        synth_peak = tracemalloc.get_traced_memory()[1]
        del truth
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        model = fit(ds.x, ds.y, FitConfig(max_blocks=3, grid=HyperGrid((30.0,), (100.0,))))
        fit_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert model.n_blocks == 3
    assert synth_peak <= 2.5 * ds.x.nbytes
    assert fit_peak <= 1.3 * ds.x.nbytes


def test_select_k_cv_planted_single_block():
    rng = np.random.default_rng(12)
    x, y, _ = plant_blocks(rng, 60, (5, 4), n_blocks=1, noise=0.02)
    cfg = FitConfig(max_blocks=3, grid=SMALL_GRID)
    assert select_k_cv(x, y, cfg, folds=3) == 1


@pytest.mark.parametrize("seed, k", [(20, 2), (24, 3)])
def test_select_k_cv_gathers_each_fold_once(monkeypatch, seed, k):
    # k is what select_k_cv chose when it unfolded each fold once per prefix
    rng = np.random.default_rng(seed)
    x, y, _ = plant_blocks(rng, 60, (5, 4), n_blocks=2, m=2, noise=0.05)
    gathered = []
    monkeypatch.setattr(bttr, "_sample_matrix", lambda u: gathered.append(u.shape) or _sample_matrix(u))
    assert select_k_cv(x, y, FitConfig(max_blocks=3, grid=SMALL_GRID), folds=3) == k
    assert gathered == [(20, 5, 4)] * 3


def test_predict_gathers_a_wide_batch_into_the_same_bits():
    # several gather blocks of a serve-shaped batch, then a partial one
    shape = (32, 16, 20)
    rows = tensor.GATHER_BYTES // (8 * int(np.prod(shape)))
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3 * rows + 7,) + shape)
    model = bttr.BttrModel(blocks=[], w=rng.standard_normal((int(np.prod(shape)), 8)),
                           z=rng.standard_normal((8, 2)), input_shape=shape)
    assert predict(model, x).tobytes() == (_unfold(x, 1) @ model.w @ model.z).tobytes()


def test_select_k_cv_fold_validation():
    rng = np.random.default_rng(13)
    x, y, _ = plant_blocks(rng, 10, (4, 3), n_blocks=1)
    cfg = FitConfig(max_blocks=2, grid=SMALL_GRID)
    with pytest.raises(ValueError):
        select_k_cv(x, y, cfg, folds=11)
    with pytest.raises(ValueError):
        select_k_cv(x, y, cfg, folds=1)


def test_select_k_cv_tie_goes_to_smaller_k():
    # a noiseless 1-block dataset: fitting stops after one block, so every
    # K gives identical validation scores and the tie resolves to K=1
    rng = np.random.default_rng(14)
    x, y, _ = plant_blocks(rng, 50, (5, 4), n_blocks=1)
    cfg = FitConfig(max_blocks=3, grid=SMALL_GRID)
    assert select_k_cv(x, y, cfg, folds=2) == 1


def test_norm_stats_round_trip():
    rng = np.random.default_rng(15)
    x = rng.normal(loc=3.0, scale=2.0, size=(30, 4, 3))
    y = rng.normal(loc=-1.0, scale=0.5, size=(30, 2))
    ns = NormStats.from_training(x, y)
    xn = ns.apply_x(x)
    yn = ns.apply_y(y)
    assert np.allclose(xn.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(xn.std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(ns.invert_y(yn), y, atol=1e-12)


def test_materialize_predictor_empty_blocks():
    w, z = materialize_predictor([], (4, 3))
    assert w.shape == (12, 0)
    assert z.shape == (0, 0)
