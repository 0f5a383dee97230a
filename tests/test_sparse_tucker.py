import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import fbttr.sparse_tucker as st
from fbttr.data import make_synthetic
from fbttr.sparse_tucker import (
    AceError,
    DecompositionError,
    HyperGrid,
    SparseTuckerResult,
    ace,
    bic_score,
    collapse_response_mode,
    component_contributions,
    f_mpstd,
    f_mpstd_cov,
    finalize_block,
    hooi_init,
    lambda_from_snr,
    prune,
    soft_threshold,
)
from fbttr.tensor import (
    cross_covariance,
    frobenius_norm,
    multilinear_product,
    outer,
    unfold,
    vec,
)


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


def make_tucker(rng, core_shape, extents):
    """Exact Tucker tensor with known orthonormal factors; mode 1 is the response mode."""
    core = rng.normal(size=core_shape)
    mats = [random_orthonormal(rng, e, r) for e, r in zip(extents, core_shape)]
    c = multilinear_product(core, {n + 1: m for n, m in enumerate(mats)})
    return c, core, mats


# ---------------------------------------------------------------------------
# HOOI
# ---------------------------------------------------------------------------

def test_hooi_recovers_exact_tucker():
    rng = np.random.default_rng(0)
    c, _, _ = make_tucker(rng, (1, 2, 2), (3, 6, 5))
    res = hooi_init(c, (1, 2, 2))
    assert frobenius_norm(c - res.reconstruct()) < 1e-8


def test_hooi_full_rank_is_lossless():
    rng = np.random.default_rng(1)
    c = rng.normal(size=(2, 4, 3))
    res = hooi_init(c, c.shape)
    assert frobenius_norm(c - res.reconstruct()) < 1e-10


def test_hooi_zero_tensor_rejected():
    with pytest.raises(DecompositionError):
        hooi_init(np.zeros((2, 3, 4)), (1, 1, 1))


def test_hooi_rank_above_extent_rejected():
    with pytest.raises(DecompositionError):
        hooi_init(np.ones((1, 3)), (2, 2))


def test_hooi_factors_orthonormal():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(3, 5, 4))
    res = hooi_init(c, (2, 3, 2))
    for m in [res.q] + res.factors:
        assert np.allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-10)


def hooi_sweep_reference(c, mats, ranks):
    """One HOOI pass that projects ``c`` afresh for every mode, then once more for the core."""
    mats = list(mats)
    for n in range(c.ndim):
        others = {m + 1: a.T for m, a in enumerate(mats) if m != n}
        mats[n] = st._leading_vectors(st._unfold(multilinear_product(c, others), n + 1), ranks[n])
    return mats, multilinear_product(c, {m + 1: a.T for m, a in enumerate(mats)})


@hst.composite
def sweep_cases(draw):
    # extent-1 modes are drawn often: mode 1 has extent 1 whenever y has one column
    order = draw(hst.integers(2, 5))
    shape = tuple(draw(hst.one_of(hst.just(1), hst.integers(1, 6))) for _ in range(order))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    total = math.prod(shape)
    ranks = [draw(hst.integers(1, min(ext, total // ext))) for ext in shape]
    mats = []
    for ext, r in zip(shape, ranks):
        a = random_orthonormal(rng, ext, r) * draw(hst.sampled_from([1.0, -1.0]))
        # pruned factors arrive in F order, refreshed ones in C order
        mats.append(np.asfortranarray(a) if draw(hst.booleans()) else a)
    c = rng.normal(size=shape)
    # zeros of either sign: a product with [[1.0]] turns -0.0 into 0.0, as the sweep must too
    c[rng.random(size=shape) < draw(hst.sampled_from([0.0, 0.2]))] = -0.0
    return c, mats, ranks


@settings(max_examples=50, deadline=None, derandomize=True)
@given(sweep_cases())
def test_hooi_sweep_equals_per_mode_projection_reference(case):
    c, mats, ranks = case
    got_mats, got_core = st._hooi_sweep(c, mats, ranks)
    ref_mats, ref_core = hooi_sweep_reference(c, mats, ranks)
    for u, v in zip([got_core] + got_mats, [ref_core] + ref_mats):
        assert u.shape == v.shape and u.tobytes() == v.tobytes()


_magnitudes = hst.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(hst.lists(hst.one_of(hst.just(0.0), _magnitudes, _magnitudes.map(lambda v: -v)),
                 min_size=1, max_size=8))
@example([0.0])
@example([0.0, -0.0, 0.0])
@example([-1e-300, 1e300, -1e300])
def test_leading_vector_of_a_single_row_is_one(row):
    # _hooi_sweep sets an extent-1 mode's factor to [[1.0]] without an SVD
    u = st._leading_vectors(np.array([row]), 1)
    assert u.shape == (1, 1) and u.tobytes() == np.ones((1, 1)).tobytes()


# ---------------------------------------------------------------------------
# lambda from SNR
# ---------------------------------------------------------------------------

def snr_scan_oracle(c, result, lam):
    """Direct-reconstruction SNR at threshold lam, no shortcut."""
    shrunk = np.sign(result.core) * np.maximum(np.abs(result.core) - lam, 0.0)
    recon = multilinear_product(shrunk, result.factor_map())
    resid = frobenius_norm(c - recon)
    if resid == 0:
        return math.inf
    return 10.0 * math.log10((frobenius_norm(c) / resid) ** 2)


def norm_sq(c):
    """||c||^2 as :attr:`GridSearch.c_sq` holds it."""
    return float(np.dot(c.ravel(), c.ravel()))


def test_lambda_huge_target_returns_zero():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(2, 4, 3))
    res = hooi_init(c, (1, 2, 2))
    assert lambda_from_snr(norm_sq(c), np.abs(res.core), 300.0) == 0.0


def test_lambda_bisection_matches_direct_scan():
    rng = np.random.default_rng(4)
    c = rng.normal(size=(2, 6, 5))
    res = hooi_init(c, (2, 4, 4))
    target = 3.0
    lam = lambda_from_snr(norm_sq(c), np.abs(res.core), target)
    assert 0.0 < lam < np.abs(res.core).max()
    # the shortcut must agree with the direct reconstruction oracle
    assert abs(snr_scan_oracle(c, res, lam) - target) <= 0.1
    # monotone: a larger target needs less shrinkage
    lam_high = lambda_from_snr(norm_sq(c), np.abs(res.core), 6.0)
    assert lam_high < lam


def test_lambda_target_met_at_zero():
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, 4, 3))
    res = hooi_init(c, (1, 1, 1))
    achievable = snr_scan_oracle(c, res, 0.0)
    assert lambda_from_snr(norm_sq(c), np.abs(res.core), achievable + 1.0) == 0.0


def test_grid_search_holds_c_squared_norm():
    c = np.random.default_rng(2).normal(size=(2, 4, 3))
    assert st.GridSearch(c, 10).c_sq == norm_sq(c)


# ---------------------------------------------------------------------------
# soft threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_formula():
    core = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(soft_threshold(core, np.abs(core), 0.0)[0], core)
    assert np.array_equal(soft_threshold(core, np.abs(core), 2.0)[0], np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(soft_threshold(core, np.abs(core), 5.0)[0], np.zeros(3))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), lam_at=hst.sampled_from(["zero", "entry", "max", "above"]))
def test_soft_threshold_magnitude_is_abs_of_shrunk_core(seed, lam_at):
    # prune reads the second output as |shrunk core|: it must be that to the
    # bit, signed zeros and a lam equal to an entry's magnitude included
    rng = np.random.default_rng(seed)
    core = rng.normal(size=(2, 3, 4))
    core[rng.random(size=core.shape) < 0.2] = 0.0
    core[rng.random(size=core.shape) < 0.2] = -0.0
    magnitude = np.abs(core)
    lam = {"zero": 0.0, "entry": float(rng.choice(magnitude.ravel())),
           "max": float(magnitude.max()), "above": 2.0 * float(magnitude.max())}[lam_at]
    shrunk, shrunk_magnitude = soft_threshold(core, magnitude, lam)
    assert shrunk_magnitude.tobytes() == np.abs(shrunk).tobytes()


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------

def result_with_core(core, rng=None):
    rng = rng or np.random.default_rng(6)
    mats = [random_orthonormal(rng, e + 2, e) for e in core.shape]
    return SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])


def prune_result(res, tau):
    """prune on the arrays of ``res``, its output as a result again."""
    core, mats = prune(res.core, [res.q] + res.factors, np.abs(res.core), tau)
    return SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])


def test_prune_tau_100_keeps_positive_energy_components():
    rng = np.random.default_rng(7)
    core = rng.normal(size=(2, 3, 2))
    res = result_with_core(core, rng)
    pruned = prune_result(res, 100.0)
    assert pruned.ranks == res.ranks
    # keeping every component hands back the inputs themselves
    mats = [res.q] + res.factors
    core, kept = prune(res.core, mats, np.abs(res.core), 100.0)
    assert core is res.core and kept is mats


def test_prune_drops_weak_mode2_slice():
    # mode-2 contributions 0.99 vs 0.01; at tau=95 the threshold is 0.05
    core = np.zeros((1, 2, 2))
    core[0, 0, :] = [0.70, 0.29]
    core[0, 1, :] = [0.006, 0.004]
    res = result_with_core(core)
    # hand-computed contribution ratios
    g2 = np.abs(unfold(core, 2)).sum(axis=1)
    assert np.allclose(g2 / g2.sum(), [0.99, 0.01])
    pruned = prune_result(res, 95.0)
    assert pruned.core.shape[1] == 1
    assert pruned.factors[0].shape[1] == 1


def test_prune_equal_contributions_all_retained_above_balance_point():
    # R equal slices contribute 1/R each; they all pass when tau exceeds
    # 100 * (1 - 1/R), and collapse to one below it
    core = np.ones((1, 4, 1))
    res = result_with_core(core)
    assert prune_result(res, 80.0).core.shape[1] == 4   # threshold 0.2 < 0.25
    assert prune_result(res, 75.0).core.shape[1] == 1   # threshold 0.25, not exceeded
    assert prune_result(res, 70.0).core.shape[1] == 1


def test_prune_never_increases_ranks_randomized():
    rng = np.random.default_rng(8)
    for _ in range(25):
        shape = tuple(int(rng.integers(1, 5)) for _ in range(3))
        core = rng.normal(size=shape) * (rng.random(size=shape) > 0.3)
        res = result_with_core(core, rng)
        tau = float(rng.uniform(0, 100))
        pruned = prune_result(res, tau)
        assert all(a <= b for a, b in zip(pruned.ranks, res.ranks))
        assert all(r >= 1 for r in pruned.ranks)


def prune_reference(result, tau):
    """prune as a take of the retained components of every mode, even when it keeps them all."""
    core = result.core
    keep_sets = []
    for mode in range(1, core.ndim + 1):
        contrib = component_contributions(core, mode)
        total = contrib.sum()
        threshold = (100.0 - tau) / 100.0
        keep = np.where(contrib / total > threshold)[0] if total > 0 else np.array([], dtype=int)
        if keep.size == 0:
            keep = np.array([int(np.argmax(contrib))])
        keep_sets.append(keep)
    for n, keep in enumerate(keep_sets):
        core = np.take(core, keep, axis=n)
    q = result.q[:, keep_sets[0]]
    factors = [f[:, keep_sets[n + 1]] for n, f in enumerate(result.factors)]
    return replace(result, core=np.ascontiguousarray(core), q=q, factors=factors)


@hst.composite
def prunable_results(draw):
    order = draw(hst.integers(2, 4))
    shape = tuple(draw(hst.one_of(hst.just(1), hst.integers(1, 4))) for _ in range(order))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    core = rng.normal(size=shape) * draw(hst.sampled_from([1.0, 1e-300, 1e300, 0.0]))
    for axis in [n for n, ext in enumerate(shape) if ext > 1 and draw(hst.booleans())]:
        core[(slice(None),) * axis + (draw(hst.integers(0, shape[axis] - 1)),)] = 0.0
    core[rng.random(size=shape) < draw(hst.sampled_from([0.0, 0.3]))] = -0.0
    return result_with_core(core, rng), draw(hst.sampled_from([0.0, 50.0, 90.0, 99.0, 100.0]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(prunable_results())
def test_prune_equals_take_reference(case):
    res, tau = case
    inputs = [res.core, res.q] + res.factors
    before = [m.tobytes() for m in inputs]
    got, ref = prune_result(res, tau), prune_reference(res, tau)
    for u, v in zip([got.core, got.q] + got.factors, [ref.core, ref.q] + ref.factors):
        assert u.shape == v.shape and u.tobytes() == v.tobytes()
    assert [m.tobytes() for m in inputs] == before


@settings(max_examples=50, deadline=None, derandomize=True)
@given(shape=hst.lists(hst.integers(1, 4), min_size=1, max_size=5),
       seed=hst.integers(0, 2**32 - 1))
def test_component_contributions_equal_abs_unfolding_row_sums(shape, seed):
    # prune takes |core| once for every mode: its sums must equal the row
    # sums of each |unfolding| to the bit, or it could keep other components
    core = np.random.default_rng(seed).normal(size=shape)
    for mode in range(1, len(shape) + 1):
        unfolding = np.moveaxis(core, mode - 1, 0).reshape(shape[mode - 1], -1, order="F")
        expected = np.abs(unfolding).sum(axis=1)
        assert component_contributions(core, mode).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# f-mPSTD
# ---------------------------------------------------------------------------

def test_fmpstd_rank1_synthetic_recovery():
    rng = np.random.default_rng(9)
    t0 = rng.normal(size=24)
    t0 /= np.linalg.norm(t0)
    p2 = rng.normal(size=6)
    p2 /= np.linalg.norm(p2)
    p3 = rng.normal(size=5)
    p3 /= np.linalg.norm(p3)
    x = outer(t0, p2, p3)
    res = f_mpstd(x, t0.reshape(-1, 1), snr=50.0, tau=99.0)
    assert res.ranks == (1, 1, 1)
    assert abs(float(res.factors[0].ravel() @ p2)) > 0.99
    assert abs(float(res.factors[1].ravel() @ p3)) > 0.99


def test_fmpstd_tau_100_no_pruning():
    # unstructured covariance keeps every admissible component alive at 50 dB
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 5, 4))
    y = rng.normal(size=(40, 1))
    res = f_mpstd(x, y, snr=50.0, tau=100.0)
    c = cross_covariance(x, y)
    total = int(np.prod(c.shape))
    admissible = tuple(min(e, total // e, 10) for e in c.shape)
    assert res.ranks == admissible


def test_fmpstd_uncorrelated_noise_crushes_core_energy():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 12, 10))
    y = rng.normal(size=(300, 1))
    c = cross_covariance(x, y)
    res = f_mpstd(x, y, snr=1.0, tau=100.0)
    energy_ratio = (frobenius_norm(res.core) / frobenius_norm(c)) ** 2
    assert energy_ratio < 0.10


def test_fmpstd_noiseless_full_rank_reconstruction():
    rng = np.random.default_rng(12)
    core = rng.normal(size=(1, 2, 3))
    p2 = random_orthonormal(rng, 7, 2)
    p3 = random_orthonormal(rng, 6, 3)
    t0 = rng.normal(size=30)
    t0 /= np.linalg.norm(t0)
    x = multilinear_product(core, {1: t0.reshape(-1, 1), 2: p2, 3: p3})
    c = cross_covariance(x, t0.reshape(-1, 1))
    res = f_mpstd(x, t0.reshape(-1, 1), snr=200.0, tau=100.0)
    rel = frobenius_norm(c - res.reconstruct()) / frobenius_norm(c)
    assert rel <= 1e-6


def test_fmpstd_ranks_never_exceed_cap():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(60, 14, 12))
    y = rng.normal(size=(60, 2))
    res = f_mpstd(x, y, snr=5.0, tau=95.0)
    assert all(r <= 10 for r in res.ranks)


def test_fmpstd_non_convergence_flag(monkeypatch):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(50, 6, 5))
    y = rng.normal(size=(50, 1))
    monkeypatch.setattr(st, "MAX_SWEEPS", 1)
    res = f_mpstd(x, y, snr=5.0, tau=95.0)
    assert res.converged is False


def test_fmpstd_dimension_error_propagates():
    with pytest.raises(ValueError):
        f_mpstd(np.zeros((4, 3)), np.zeros((5, 1)), snr=10.0, tau=95.0)


@pytest.mark.parametrize("snr, tau", [(math.nan, 95.0), (0.0, 95.0), (-1.0, 95.0),
                                      (10.0, -0.5), (10.0, 100.5), (10.0, math.nan)])
def test_fmpstd_rejects_bad_snr_or_tau(snr, tau):
    # f_mpstd takes (SNR, tau) from outside a grid: a federated client's assignment
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 4, 3))
    y = rng.normal(size=(20, 1))
    with pytest.raises(ValueError):
        f_mpstd(x, y, snr=snr, tau=tau)


# ---------------------------------------------------------------------------
# BIC
# ---------------------------------------------------------------------------

def test_bic_perfect_fit_hits_floor():
    rng = np.random.default_rng(15)
    c, core, mats = make_tucker(rng, (1, 2, 2), (3, 5, 4))
    res = SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])
    got = bic_score(c, res)
    s, df = 4, 4
    # the floor is relative: 1e-12 of ||c||, far above this fit's rounding residual
    expected = math.log(1e-12 * frobenius_norm(c) / s) + (math.log(s) / s) * df
    assert got == pytest.approx(expected, abs=1e-9)


def test_bic_penalises_degrees_of_freedom():
    rng = np.random.default_rng(16)
    c, core, mats = make_tucker(rng, (1, 2, 2), (3, 5, 4))
    noisy = c + 0.05 * rng.normal(size=c.shape)
    dense = SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])
    sparse_core = core.copy()
    sparse_core[0, 1, :] = 0.0
    sparser = SparseTuckerResult(core=sparse_core, q=mats[0], factors=mats[1:])
    resid_dense = frobenius_norm(noisy - dense.reconstruct())
    # same residual by construction is hard; check the penalty term in isolation
    b_dense = bic_score(noisy, dense)
    b_manual = math.log(resid_dense / core.size) + (math.log(core.size) / core.size) * 4
    assert b_dense == pytest.approx(b_manual, abs=1e-12)
    # equal residual, fewer nonzeros scores strictly lower
    same_resid = SparseTuckerResult(core=sparse_core, q=mats[0], factors=mats[1:])
    b_a = math.log(0.5 / 4) + (math.log(4) / 4) * 2
    b_b = math.log(0.5 / 4) + (math.log(4) / 4) * 4
    assert b_a < b_b


def test_bic_doubling_residual_adds_log2():
    rng = np.random.default_rng(17)
    c, core, mats = make_tucker(rng, (1, 2, 2), (3, 5, 4))
    res = SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])
    delta = rng.normal(size=c.shape)
    delta /= frobenius_norm(delta)
    b1 = bic_score(c + 0.3 * delta, res)
    b2 = bic_score(c + 0.6 * delta, res)
    assert b2 - b1 == pytest.approx(math.log(2.0), abs=1e-6)


def test_bic_invariant_to_paired_sign_flip():
    rng = np.random.default_rng(18)
    c, core, mats = make_tucker(rng, (1, 2, 2), (3, 5, 4))
    noisy = c + 0.1 * rng.normal(size=c.shape)
    res = SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])
    flipped_core = core.copy()
    flipped_core[:, 0, :] *= -1.0
    flipped_factor = mats[1].copy()
    flipped_factor[:, 0] *= -1.0
    res_flip = SparseTuckerResult(
        core=flipped_core, q=mats[0], factors=[flipped_factor, mats[2]]
    )
    assert bic_score(noisy, res) == pytest.approx(bic_score(noisy, res_flip), abs=1e-12)


# ---------------------------------------------------------------------------
# ACE
# ---------------------------------------------------------------------------

def test_ace_rank1_ground_truth():
    rng = np.random.default_rng(19)
    t0 = rng.normal(size=30)
    t0 /= np.linalg.norm(t0)
    p2 = rng.normal(size=7)
    p2 /= np.linalg.norm(p2)
    p3 = rng.normal(size=5)
    p3 /= np.linalg.norm(p3)
    x = outer(t0, p2, p3)
    grid = HyperGrid(snr_values=(10.0, 30.0, 50.0), tau_values=(95.0, 99.0, 100.0))
    res = ace(x, t0.reshape(-1, 1), grid)
    assert abs(np.corrcoef(res.t.ravel(), t0)[0, 1]) > 0.99
    assert res.block.feature_ranks == (1, 1)
    assert np.linalg.norm(res.t) == pytest.approx(1.0, abs=1e-10)


def test_ace_single_cell_equals_direct_fmpstd():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(25, 5, 4))
    y = (x[:, 1, 2] + 0.2 * rng.normal(size=25)).reshape(-1, 1)
    grid = HyperGrid(snr_values=(20.0,), tau_values=(97.0,))
    got = ace(x, y, grid)
    ref = f_mpstd(x, y, snr=20.0, tau=97.0)
    proj = multilinear_product(x, {n + 2: f.T for n, f in enumerate(ref.factors)})
    t_raw = unfold(proj, 1) @ vec(ref.core)
    t = t_raw / np.linalg.norm(t_raw)
    assert np.allclose(got.t.ravel(), t, atol=1e-12)
    assert np.allclose(got.block.q, ref.q, atol=1e-12)
    fmap = {1: t.reshape(1, -1)}
    fmap.update({n + 2: f.T for n, f in enumerate(ref.factors)})
    assert np.allclose(got.block.core, multilinear_product(x, fmap), atol=1e-12)


def test_ace_tie_break_prefers_smaller_snr_and_tau():
    # engineered so every grid cell yields the identical model: the rank-1
    # projection explains so little of c that even SNR=1 is unattainable,
    # hence lambda=0 everywhere, and a single component cannot be pruned
    rng = np.random.default_rng(21)
    x = rng.normal(size=(80, 24, 20))
    y = rng.normal(size=(80, 1))
    grid = HyperGrid(snr_values=(1.0, 2.0), tau_values=(95.0, 100.0))
    res = ace(x, y, grid, rank_cap=1)
    assert (res.snr_star, res.tau_star) == (1.0, 95.0)


def test_ace_deterministic():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(30, 6, 5))
    y = (x[:, 0, 0] * 2.0 + rng.normal(size=30)).reshape(-1, 1)
    grid = HyperGrid(snr_values=(5.0, 15.0), tau_values=(95.0, 100.0))
    a = ace(x, y, grid)
    b = ace(x, y, grid)
    assert (a.snr_star, a.tau_star) == (b.snr_star, b.tau_star)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.block.core, b.block.core)


def test_ace_score_core_reproduces_t():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(30, 6, 5))
    y = (x[:, 3, 1] + 0.3 * rng.normal(size=30)).reshape(-1, 1)
    res = ace(x, y, HyperGrid(snr_values=(10.0,), tau_values=(98.0,)))
    proj = multilinear_product(x, {n + 2: f.T for n, f in enumerate(res.block.factors)})
    t_re = unfold(proj, 1) @ vec(res.block.score_core)
    assert np.allclose(t_re, res.t.ravel(), atol=1e-12)


def test_ace_degenerate_input_raises():
    x = np.zeros((10, 4, 3))
    y = np.zeros((10, 1))
    with pytest.raises(AceError):
        ace(x, y, HyperGrid(snr_values=(10.0,), tau_values=(95.0,)))


CACHE_GRID = HyperGrid(snr_values=(2.0, 5.0, 10.0, 20.0, 30.0), tau_values=(90.0, 95.0, 98.0, 100.0))


def planted_or_noise(kind):
    if kind == "planted":
        ds, _ = make_synthetic((60, 8, 6), n_blocks=2, noise_snr_db=20.0, seed=3, ranks=(2, 2))
        return ds.x, ds.y
    rng = np.random.default_rng(25)
    return rng.normal(size=(60, 8, 6)), rng.normal(size=(60, 1))


class CacheFreeSearch(st.GridSearch):
    """A GridSearch that recomputes every refresh and stores none."""

    def refresh(self, mats):
        return st._hooi_sweep(self.c, mats, [m.shape[1] for m in mats])


def ace_reference(x, y, grid, rank_cap=10):
    """ace without the shared refresh cache: every cell runs alone from its own
    HOOI start, and the winner is the best tau per SNR, then the best SNR."""
    c = cross_covariance(x, y)
    cells, best = [], None
    for snr in grid.snr_values:
        snr_best = None
        for tau in grid.tau_values:
            res = f_mpstd_cov(CacheFreeSearch(c, rank_cap), snr, tau)
            cells.append(res)
            b = bic_score(c, res)
            if snr_best is None or b < snr_best[0]:
                snr_best = (b, snr, tau, res)
        if best is None or snr_best[0] < best[0]:
            best = snr_best
    bic, snr_star, tau_star, res = best
    res = collapse_response_mode(res)
    t, core, score_core = finalize_block(x, res.core, res.factors)
    q = res.q / np.linalg.norm(res.q)
    d = float(((y @ q).T @ t).item())
    return cells, dict(core=core, score_core=score_core, q=q, d=d, t=t,
                       factors=res.factors, snr_star=snr_star, tau_star=tau_star, bic=bic)


def freeze(arrays):
    for m in arrays:
        m.setflags(write=False)


class ReadOnlySearch(st.GridSearch):
    """A GridSearch whose HOOI start and every stored refresh are read-only,
    so a cell or ace that wrote into what the search handed it would raise."""

    def __init__(self, *args):
        super().__init__(*args)
        freeze([self.init.core, self.init.q] + self.init.factors)

    def refresh(self, mats):
        fresh = super().refresh(mats)
        freeze(fresh[0] + [fresh[1]])
        return fresh


@pytest.mark.parametrize("kind", ["planted", "noise"])
def test_ace_equals_cache_free_reference_loop(kind, monkeypatch):
    x, y = planted_or_noise(kind)
    ref_cells, ref = ace_reference(x, y, CACHE_GRID)
    cells = []

    def recording(*args, **kwargs):
        cells.append(f_mpstd_cov(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(st, "f_mpstd_cov", recording)
    for search_type in (st.GridSearch, ReadOnlySearch):
        monkeypatch.setattr(st, "GridSearch", search_type)
        cells.clear()
        got = ace(x, y, CACHE_GRID)
        assert len(cells) == len(ref_cells) == 20
        for a, b in zip(cells, ref_cells):
            assert a.converged == b.converged
            for u, v in zip([a.core, a.q] + a.factors, [b.core, b.q] + b.factors):
                assert u.shape == v.shape and u.tobytes() == v.tobytes()
        block = got.block
        for name in ("core", "score_core", "q"):
            assert getattr(block, name).tobytes() == ref[name].tobytes(), name
        assert got.t.tobytes() == ref["t"].tobytes()
        assert np.float64(block.d).tobytes() == np.float64(ref["d"]).tobytes()
        assert len(block.factors) == len(ref["factors"])
        for u, v in zip(block.factors, ref["factors"]):
            assert u.shape == v.shape and u.tobytes() == v.tobytes()
        assert (got.snr_star, got.tau_star, got.bic) == (ref["snr_star"], ref["tau_star"], ref["bic"])


def test_ace_refresh_cache_is_used_and_bounded(monkeypatch):
    x, y = planted_or_noise("planted")
    counts = {"refresh": 0, "sweep": 0}
    searches = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    class RecordingSearch(st.GridSearch):
        # after each finished SNR row, every held entry was created or hit
        # in that row or the one before
        def __init__(self, *args):
            super().__init__(*args)
            counts["refresh"] = 0  # the HOOI start's sweeps are not refreshes
            self.n_row, self.touched, self.created = -1, {}, set()
            searches.append(self)

        def check_held(self):
            for key in list(self.row) + list(self.last_row):
                assert self.touched[key] >= self.n_row - 1

        def start_row(self):
            if self.n_row >= 0:
                self.check_held()
            super().start_row()
            self.n_row += 1

        def refresh(self, mats):
            key = tuple(m.shape[1] for m in mats), b"".join(m.tobytes() for m in mats)
            self.touched[key] = self.n_row
            self.created.add(key)
            return super().refresh(mats)

    monkeypatch.setattr(st, "_hooi_sweep", counting("refresh", st._hooi_sweep))
    monkeypatch.setattr(st, "lambda_from_snr", counting("sweep", st.lambda_from_snr))
    monkeypatch.setattr(st, "GridSearch", RecordingSearch)
    ace(x, y, CACHE_GRID)
    (search,) = searches
    search.check_held()
    assert search.n_row == len(CACHE_GRID.snr_values) - 1
    assert counts["refresh"] < 0.25 * counts["sweep"]
    # the bound dropped entries: not everything ever refreshed is still held
    assert len(search.row) + len(search.last_row) < len(search.created)


def test_grid_search_refresh_that_lowers_a_rank():
    # mode 2 cannot keep 3 components when the other modes keep one each
    rng = np.random.default_rng(26)
    c = rng.normal(size=(1, 6, 5))
    init = hooi_init(c, (1, 3, 3))
    mats = [init.q, init.factors[0], init.factors[1][:, :1].copy()]
    ref_mats, ref_core = st._hooi_sweep(c, mats, (1, 3, 1))
    assert ref_core.shape == (1, 1, 1)
    search = st.GridSearch(c, 10)
    got = search.refresh(mats)  # a miss
    got_mats, got_core = got
    for u, v in zip([got_core] + got_mats, [ref_core] + ref_mats):
        assert u.shape == v.shape and u.tobytes() == v.tobytes()
    # a repeat refresh, in the same row or the next, hands back the stored result itself
    assert search.refresh(mats) is got
    search.start_row()
    assert search.refresh(mats) is got


def _ace_with_a_poisoned_cell(monkeypatch, x, y, poisoned):
    # ace on CACHE_GRID, with the core of the cell ``poisoned`` turned NaN
    cell = [None]
    real_cell, real_shrink = st.f_mpstd_cov, st.soft_threshold

    def tracking(search, snr, tau):
        cell[0] = (snr, tau)
        return real_cell(search, snr, tau)

    def shrink(core, magnitude, lam):
        out = real_shrink(core, magnitude, lam)
        return tuple(np.full_like(a, math.nan) for a in out) if cell[0] == poisoned else out

    monkeypatch.setattr(st, "f_mpstd_cov", tracking)
    monkeypatch.setattr(st, "soft_threshold", shrink)
    got = ace(x, y, CACHE_GRID)
    assert (got.snr_star, got.tau_star) != poisoned
    assert math.isfinite(got.bic)
    block = got.block
    for m in [block.core, block.score_core, block.q, got.t] + block.factors:
        assert np.isfinite(m).all()


def test_ace_skips_a_cell_whose_core_turns_non_finite(monkeypatch):
    # the cell steps check nothing; a cell whose core goes NaN is still a
    # failed cell, skipped like one, and another cell wins
    x, y = planted_or_noise("planted")
    clean = ace(x, y, CACHE_GRID)
    _ace_with_a_poisoned_cell(monkeypatch, x, y, (clean.snr_star, clean.tau_star))


def test_ace_skips_a_first_cell_whose_bic_is_not_finite(monkeypatch):
    # a NaN BIC compares false with every other, so a first cell that
    # scored NaN would keep the lead if it were not skipped
    x, y = planted_or_noise("planted")
    _ace_with_a_poisoned_cell(monkeypatch, x, y, (CACHE_GRID.snr_values[0], CACHE_GRID.tau_values[0]))


def test_hypergrid_validation():
    with pytest.raises(ValueError):
        HyperGrid(snr_values=(), tau_values=(95.0,))
    with pytest.raises(ValueError):
        HyperGrid(snr_values=(2.0, 1.0), tau_values=(95.0,))
    for snr in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="snr_values"):
            HyperGrid(snr_values=(snr,), tau_values=(95.0,))
    for tau in (-0.5, 100.5, math.nan):
        with pytest.raises(ValueError, match="tau_values"):
            HyperGrid(snr_values=(1.0,), tau_values=(tau,))
    HyperGrid(snr_values=(1e-3,), tau_values=(0.0, 100.0))


def test_fmpstd_cov_reuses_shared_init():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(40, 6, 5))
    y = (x[:, 2, 2] + 0.1 * rng.normal(size=40)).reshape(-1, 1)
    c = cross_covariance(x, y)
    search = st.GridSearch(c, 10)
    # a pruned result can share the start's arrays: the cell must never write into them
    freeze([search.init.core, search.init.q] + search.init.factors)
    a = f_mpstd_cov(search, 15.0, 97.0)
    b = f_mpstd(x, y, snr=15.0, tau=97.0)
    assert np.allclose(a.core, b.core, atol=1e-12)
    assert a.ranks == b.ranks
