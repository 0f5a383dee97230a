"""Sparse Tucker decomposition of a sample-contracted covariance tensor.

The decomposition targets the cross-covariance C between a samples-first
predictor tensor X and a response matrix Y.  A target reconstruction SNR
(in dB) controls core shrinkage through a bisection-derived soft threshold,
and a percentage threshold tau rejects low-contribution components per
mode.  A small BIC-scored grid search over (SNR, tau) extracts one
maximally correlated latent block together with its unit-norm score
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tensor import (
    _block_rows,
    _mode_product,
    _unfold,
    as_matrix,
    as_tensor,
    cross_covariance,
    frobenius_norm,
    multilinear_product,
    vec,
)

DEFAULT_RANK_CAP = 10
SWEEP_TOL = 1e-6  # relative core change at which f_mpstd_cov stops
MAX_SWEEPS = 200  # sweeps after which f_mpstd_cov returns unconverged

__all__ = [
    "DecompositionError",
    "AceError",
    "NonFiniteScoreError",
    "HyperGrid",
    "GridSearch",
    "SparseTuckerResult",
    "Block",
    "AceResult",
    "hooi_init",
    "f_mpstd",
    "f_mpstd_cov",
    "collapse_response_mode",
    "finalize_block",
    "coefficient",
    "block_from",
    "ace",
]


class DecompositionError(ValueError):
    """A decomposition could not be computed (degenerate or invalid input)."""


class AceError(RuntimeError):
    """Block extraction failed for every hyperparameter candidate."""


class NonFiniteScoreError(AceError):
    """A block's score direction on the data overflowed to inf or NaN."""


@dataclass
class HyperGrid:
    """Grid of candidate target SNRs (dB) and pruning thresholds tau."""

    snr_values: tuple = tuple(float(s) for s in range(1, 51))
    tau_values: tuple = tuple(float(t) for t in range(90, 101))

    def __post_init__(self):
        self.snr_values = tuple(float(s) for s in self.snr_values)
        self.tau_values = tuple(float(t) for t in self.tau_values)
        for name, vals in (("snr_values", self.snr_values), ("tau_values", self.tau_values)):
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not all(math.isfinite(s) and s > 0 for s in self.snr_values):
            raise ValueError(f"snr_values must be finite and > 0, got {self.snr_values}")
        if not all(0.0 <= t <= 100.0 for t in self.tau_values):
            raise ValueError(f"tau_values must lie in [0, 100], got {self.tau_values}")


@dataclass
class SparseTuckerResult:
    """Core, response loadings q and orthonormal mode factors of one decomposition.

    ``core`` has shape (R_1, R_2, ..., R_N) where mode 1 is the response
    mode (paired with ``q``, an M x R_1 matrix) and ``factors[n-2]`` is the
    I_n x R_n loading matrix of mode n.
    """

    core: np.ndarray
    q: np.ndarray
    factors: list
    converged: bool = True

    @property
    def ranks(self) -> tuple:
        return tuple(self.core.shape)

    def factor_map(self) -> dict:
        return {n + 1: m for n, m in enumerate([self.q] + list(self.factors))}

    def reconstruct(self) -> np.ndarray:
        return multilinear_product(self.core, self.factor_map())


@dataclass
class Block:
    """One extracted component, as a model stores it and the wire carries it.

    ``core`` is the block projection of the predictor residual (mode-1
    extent 1), ``score_core`` the scaled core whose vectorisation maps the
    factor-projected residual onto the unit score vector, ``q`` the unit
    response loading and ``d`` the regression coefficient.  Fields follow
    the :meth:`fbttr.binio.Writer.block` layout, so ``Block(*reader.block())``
    decodes one.  No field is sized by the training samples.
    """

    core: np.ndarray
    score_core: np.ndarray
    factors: list
    q: np.ndarray
    d: float

    @property
    def feature_ranks(self) -> tuple:
        return tuple(f.shape[1] for f in self.factors)

    def fits(self, feature_shape, n_responses: int) -> bool:
        """Whether factor ``i`` is ``feature_shape[i] x r_i`` with ``r_i >= 1``,
        ``core`` and ``score_core`` are both ``1 x r_1 x ...`` and ``q`` is
        ``n_responses x 1``."""
        return (
            [f.shape[0] for f in self.factors] == list(feature_shape)
            and all(r >= 1 for r in self.feature_ranks)
            and self.core.shape == self.score_core.shape == (1,) + self.feature_ranks
            and self.q.shape == (n_responses, 1)
        )

    def is_sound(self) -> bool:
        """Whether ``d`` and both cores are finite and ``q`` and every factor
        have orthonormal columns within 1e-8, as :func:`ace` and an aggregate
        make them, so deflating by the block cannot overflow."""
        finite = math.isfinite(self.d) and np.isfinite(self.core).all() and np.isfinite(self.score_core).all()
        return bool(finite) and all(
            np.all(np.abs(m) <= 1.0 + 1e-8) and np.allclose(m.T @ m, np.eye(m.shape[1]), rtol=0, atol=1e-8)
            for m in [self.q] + list(self.factors)
        )

    def same_bytes(self, other: "Block") -> bool:
        """Whether ``other`` holds the same shapes and bytes, field for field."""
        fields = [(b.core, b.score_core, b.q, np.float64(b.d), *b.factors) for b in (self, other)]
        return len(self.factors) == len(other.factors) and all(
            u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(*fields))


@dataclass
class AceResult:
    """What :func:`ace` extracted and chose: the block, its unit-norm score
    ``t`` on the samples it came from, and the selected (SNR, tau) and BIC."""

    block: Block
    t: np.ndarray
    snr_star: float
    tau_star: float
    bic: float


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # deterministic sign convention: largest-magnitude entry positive
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def _leading_vectors(m: np.ndarray, r: int) -> np.ndarray:
    u, _, _ = np.linalg.svd(m, full_matrices=False)
    return _fix_signs(u[:, :r])


def _hooi_sweep(c: np.ndarray, mats: list, ranks) -> tuple:
    """One alternating pass over every mode: the new factors and their projected core.

    ``head`` is ``c`` times the factors this pass has already refreshed, so
    mode n applies only the later modes' old factors to it, and after the
    last mode ``head`` is the core.  Each product gets the operands, in the
    order, that projecting ``c`` afresh for every mode would give it, so the
    factors and core are byte-identical to doing that.  A mode of extent 1
    skips its SVD.
    """
    mats = list(mats)
    head = c
    for n in range(c.ndim):
        if c.shape[n] == 1:
            # the leading vector of any 1 x k matrix, signs fixed
            mats[n] = np.ones((1, 1))
        else:
            later = {m + 1: mats[m].T for m in range(n + 1, c.ndim)}
            mats[n] = _leading_vectors(_unfold(multilinear_product(head, later), n + 1), ranks[n])
        # the contiguous transpose is what multilinear_product's check hands np.dot
        head = _mode_product(head, np.ascontiguousarray(mats[n].T), n + 1)
    return mats, head


def hooi_init(c, max_ranks) -> SparseTuckerResult:
    """Orthogonal Tucker factors of ``c`` by higher-order orthogonal iteration.

    Factors start from the leading left singular vectors of each mode
    unfolding and are refined by alternating optimisation until the core
    norm changes by less than 1e-8 or 100 sweeps elapse.
    """
    c = as_tensor(c)
    ranks = [int(r) for r in max_ranks]
    if len(ranks) != c.ndim:
        raise DecompositionError(f"need {c.ndim} ranks, got {len(ranks)}")
    total = int(np.prod(c.shape))
    for n, (ext, r) in enumerate(zip(c.shape, ranks)):
        if r < 1:
            raise DecompositionError("all ranks must be >= 1")
        if r > ext:
            raise DecompositionError(f"rank {r} exceeds extent {ext}")
        # a mode factor cannot have more independent columns than the
        # mode unfolding has columns
        ranks[n] = min(r, total // ext)
    if frobenius_norm(c) == 0.0:
        raise DecompositionError("cannot decompose an all-zero tensor")

    mats = [_leading_vectors(_unfold(c, n + 1), ranks[n]) for n in range(c.ndim)]
    prev_norm = None
    for _ in range(100):
        mats, core = _hooi_sweep(c, mats, ranks)
        core_norm = frobenius_norm(core)
        if prev_norm is not None and abs(core_norm - prev_norm) < 1e-8:
            break
        prev_norm = core_norm
    return SparseTuckerResult(core=core, q=mats[0], factors=mats[1:])


def lambda_from_snr(c_sq: float, magnitude: np.ndarray, target_snr: float) -> float:
    """Soft-threshold level hitting a target reconstruction SNR, by bisection.

    ``c_sq`` is ||c||^2 of a nonzero ``c`` (:attr:`GridSearch.c_sq`), and
    ``magnitude`` is |core| of the orthogonal projection of ``c`` onto
    orthonormal factors, so shrinking the core by lam changes the squared
    residual by sum(min(|g|, lam)^2).  Returns 0 when even the unshrunk core
    cannot reach the target.  A grid-cell step: nothing is checked here.
    """
    g = magnitude.ravel()
    base = max(c_sq - float(np.dot(g, g)), 0.0)

    def snr_at(lam: float) -> float:
        clipped = np.minimum(g, lam)
        resid = base + float(np.dot(clipped, clipped))
        if resid <= 0.0:
            return math.inf
        return 10.0 * math.log10(c_sq / resid)

    if snr_at(0.0) <= target_snr:
        return 0.0
    lo, hi = 0.0, float(g.max())
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s = snr_at(mid)
        if abs(s - target_snr) <= 0.1:
            return mid
        if s > target_snr:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def soft_threshold(core: np.ndarray, magnitude: np.ndarray, lam: float) -> tuple:
    """Elementwise shrinkage sgn(g) * max(|g| - lam, 0), for lam >= 0, of a ``core``
    whose |core| is ``magnitude``, and its magnitude, which equals ``np.abs`` of
    it to the bit: the sign is +-1 or 0, and a shrunk zero is +0.0."""
    shrunk = np.maximum(magnitude - lam, 0.0)
    return np.sign(core) * shrunk, shrunk


def component_contributions(core: np.ndarray, mode: int) -> np.ndarray:
    """Per-component weight of ``mode`` in ``core``: absolute row sums of the mode unfolding."""
    return _row_sums(np.abs(core), mode)


def _row_sums(magnitude: np.ndarray, mode: int) -> np.ndarray:
    # the sums behind component_contributions, for a caller that takes |core|
    # once for every mode; the unfolding of |core| is laid out like |unfolding|,
    # so the sums come out the same to the bit
    return _unfold(magnitude, mode).sum(axis=1)


def _retained_indices(magnitude: np.ndarray, mode: int, tau: float) -> np.ndarray:
    if magnitude.shape[mode - 1] == 1:
        # a lone component is kept at every tau, even from an all-zero core
        return np.array([0])
    contrib = _row_sums(magnitude, mode)
    total = contrib.sum()
    threshold = (100.0 - tau) / 100.0
    if total > 0:
        keep = np.where(contrib / total > threshold)[0]
    else:
        keep = np.array([], dtype=int)
    if keep.size == 0:
        keep = np.array([int(np.argmax(contrib))])
    return keep


def prune(core: np.ndarray, mats: list, magnitude: np.ndarray, tau: float) -> tuple:
    """Drop components contributing no more than (100 - tau)% of mode energy.

    Contributions are absolute row sums of each mode unfolding of the core,
    whose |core| is ``magnitude``.  At least the single highest-contribution
    component per mode is always retained, so no mode is lost entirely.

    Returns (core, mats), ``mats`` being the mode matrices, mode 1 first: the
    inputs themselves when every mode keeps every component, otherwise fresh
    F-ordered copies.  Callers read them and never write into them.
    """
    keep_sets = [_retained_indices(magnitude, n + 1, tau) for n in range(core.ndim)]
    if all(keep.size == ext for keep, ext in zip(keep_sets, core.shape)):
        return core, mats
    for n, keep in enumerate(keep_sets):
        core = np.take(core, keep, axis=n)
    return np.ascontiguousarray(core), [m[:, keep] for m, keep in zip(mats, keep_sets)]


class GridSearch:
    """The context every grid cell runs in: the checked ``c`` and its
    squared norm ``c_sq``, its HOOI start at ranks capped at ``rank_cap``
    per mode, and the factor refreshes of the current and the previous SNR
    row.  The search checks ``c`` once; its cells check nothing.

    One :func:`ace` call runs all its cells in one search; :func:`f_mpstd`
    runs its one cell in a search of its own.  A refresh depends only on
    ``c`` and the incoming mode matrices, so a cell whose trajectory reaches
    matrices an earlier cell refreshed reuses that result, keyed on their
    exact shapes and bytes: the result is bit-identical to recomputing it.
    An entry is the (matrices, core) pair the refresh returned, and a hit
    hands back that same pair, whose ranks are its own even when the
    refresh lowered one; callers read it and never write into it.  A hit
    moves the entry into the current row; :meth:`start_row` drops what the
    row before last left.
    """

    def __init__(self, c, rank_cap: int):
        self.c = as_tensor(c)
        self.c_sq = float(np.dot(self.c.ravel(), self.c.ravel()))
        self.init = hooi_init(self.c, [min(ext, rank_cap) for ext in self.c.shape])
        self.row, self.last_row = {}, {}

    def start_row(self) -> None:
        self.row, self.last_row = {}, self.row

    def refresh(self, mats: list) -> tuple:
        # from a list: tuple(generator) over-allocates, then shrinks, and a dropped
        # search's keys would fill CPython's small-tuple free list (~140 KB, for good)
        ranks = tuple([m.shape[1] for m in mats])
        # with c fixed, the ranks fix the shape of every matrix
        key = ranks, b"".join(m.tobytes() for m in mats)
        fresh = self.row.get(key)
        if fresh is None:
            fresh = self.last_row.pop(key, None)
        if fresh is None:
            fresh = _hooi_sweep(self.c, mats, ranks)
        self.row[key] = fresh
        return fresh


def f_mpstd_cov(search: GridSearch, snr: float, tau: float) -> SparseTuckerResult:
    """Sparse Tucker decomposition of the covariance tensor ``search.c``.

    Starts from the search's HOOI start, then alternates SNR-derived soft
    thresholding of the core with tau pruning and an orthogonal factor
    refresh, taken from ``search.refresh``, until the sparse core
    stabilises (relative change below :data:`SWEEP_TOL`) or
    :data:`MAX_SWEEPS` prunes elapse, the last with ``converged=False``.  A
    sweep carries the core and the mode matrices as arrays and takes |core|
    once; it never writes into the start or a refresh it was handed.
    ``snr`` and ``tau`` are a validated pair, as a :class:`HyperGrid` holds them.
    """
    core, mats = search.init.core, [search.init.q] + search.init.factors
    prev_core = None
    for sweep in range(1, MAX_SWEEPS + 1):
        magnitude = np.abs(core)
        lam = lambda_from_snr(search.c_sq, magnitude, snr)
        core, magnitude = soft_threshold(core, magnitude, lam)
        core, mats = prune(core, mats, magnitude, tau)
        converged = prev_core is not None and prev_core.shape == core.shape and (
            frobenius_norm(core - prev_core) <= SWEEP_TOL * frobenius_norm(prev_core)
        )
        if converged or sweep == MAX_SWEEPS:
            return SparseTuckerResult(core, mats[0], mats[1:], converged)
        prev_core = core
        mats, core = search.refresh(mats)


def f_mpstd(x, y, snr: float, tau: float, rank_cap: int = DEFAULT_RANK_CAP) -> SparseTuckerResult:
    """Sparse Tucker decomposition of the cross-covariance of (x, y): one
    :func:`f_mpstd_cov` cell in a :class:`GridSearch` of its own.  The
    (SNR, tau) pair comes from outside any grid, so it is checked here by
    the :class:`HyperGrid` rule."""
    HyperGrid((snr,), (tau,))
    return f_mpstd_cov(GridSearch(cross_covariance(x, y), rank_cap), snr, tau)


def bic_score(c, result: SparseTuckerResult) -> float:
    """Information criterion: log residual over core size plus a sparsity penalty.

    The penalty weighs the count of nonzero core entries by log(s)/s where
    s is the total core entry count; the residual is floored at 1e-12 so a
    perfect reconstruction stays finite.  ``c`` is the search's checked
    tensor; the checked :meth:`SparseTuckerResult.reconstruct` rejects a
    non-finite core.
    """
    resid = frobenius_norm(c - result.reconstruct())
    s = result.core.size
    df = int(np.count_nonzero(result.core))
    return math.log(max(resid, 1e-12) / s) + (math.log(s) / s) * df


def collapse_response_mode(res: SparseTuckerResult) -> SparseTuckerResult:
    """Keep the dominant response-mode component so the block maps to a
    single score/loading pair."""
    if res.core.shape[0] == 1:
        return res
    keep = int(np.argmax(component_contributions(res.core, 1)))
    core = np.ascontiguousarray(res.core[keep:keep + 1])
    return replace(res, core=core, q=res.q[:, keep:keep + 1])


def finalize_block(x, core, factors):
    """Score vector, block core and score map of a response-collapsed ``core`` on ``factors``.

    Returns (t, block_core, score_core) where t is the unit-norm score,
    block_core the projection of x onto (t, factors), and score_core the
    core whose vectorisation maps the factor-projected x onto t exactly.
    ``x`` is projected onto the factors once, ``proj = x x_2 P_2' ... x_N P_N'``;
    t is read off ``proj`` and block_core is ``proj x_1 t'``.  A zero score
    direction raises :class:`AceError`, one that is not finite its subclass
    :class:`NonFiniteScoreError`.

    ``x`` of at most ``GATHER_BYTES`` is projected whole.  A wider ``x`` is
    projected into one ``(n, r_2, ..., r_N)`` array, one block of
    :func:`~fbttr.tensor._block_rows` samples at a time, so it is never
    transposed whole; BLAS may round an entry of a product over a block's
    fewer columns differently, so such a ``proj`` can differ from the
    whole-tensor product in its last bits.
    """
    x = np.asarray(x)
    projectors = {n + 2: f.T for n, f in enumerate(factors)}
    step = _block_rows(x)
    if step >= x.shape[0]:
        proj = multilinear_product(x, projectors)
    else:
        proj = np.empty(x.shape[:1] + tuple(f.shape[1] for f in factors))
        for s in range(0, x.shape[0], step):
            proj[s:s + step] = multilinear_product(x[s:s + step], projectors)
    t_raw = _unfold(proj, 1) @ vec(core)
    rho = float(np.linalg.norm(t_raw))
    if not math.isfinite(rho):
        raise NonFiniteScoreError("score direction is not finite")
    if rho == 0.0:
        raise AceError("degenerate score direction (zero projection)")
    t = (t_raw / rho).reshape(-1, 1)
    return t, _mode_product(proj, t.T, 1), core / rho


def coefficient(f, q, t) -> float:
    """The regression coefficient d = (F q)' t of a unit loading q and score t."""
    return float(((f @ q).T @ t).item())


def block_from(x, y, res: SparseTuckerResult) -> tuple:
    """(block, unit score t) of a response-collapsed decomposition ``res`` of
    (x, y); the one place a decomposition becomes a :class:`Block`, its ``q``
    scaled to unit norm and its ``d`` the :func:`coefficient` of y on it."""
    t, core, score_core = finalize_block(x, res.core, res.factors)
    q = res.q / np.linalg.norm(res.q)
    return Block(core, score_core, list(res.factors), q, coefficient(y, q, t)), t


def ace(x, y, grid: HyperGrid = None, rank_cap: int = DEFAULT_RANK_CAP) -> AceResult:
    """Extract one maximally correlated block with automatic (SNR, tau) selection.

    Every grid cell is one :func:`f_mpstd_cov` run in the same
    :class:`GridSearch`, so from the same HOOI start, and a factor refresh
    another cell of this or the previous SNR row already made is reused,
    not recomputed.  Cells are scored by :func:`bic_score`; a cell that
    raises ``ValueError`` in its sweeps or its score is skipped.  The winner
    is the first cell of minimal BIC in row-major order (SNR outer, tau
    inner), so a tie goes to the smaller SNR, then the smaller tau.  The
    winning decomposition becomes the result's block through
    :func:`block_from`.
    """
    x = as_tensor(x, min_order=2)
    y = as_matrix(y)
    grid = grid or HyperGrid()
    try:
        search = GridSearch(cross_covariance(x, y), rank_cap)
    except DecompositionError as e:
        raise AceError(f"initial decomposition failed: {e}") from e

    best = None  # (bic, snr, tau, result)
    for snr in grid.snr_values:
        search.start_row()
        for tau in grid.tau_values:
            try:
                res = f_mpstd_cov(search, snr, tau)
                b = bic_score(search.c, res)
            except ValueError:
                continue
            if best is None or b < best[0]:
                best = (b, snr, tau, res)
    # free the cache before finalize_block's sample-sized projection, so it
    # can reuse its memory instead of growing the heap
    del search
    if best is None:
        raise AceError("every (SNR, tau) candidate failed to decompose")

    bic, snr_star, tau_star, res = best
    block, t = block_from(x, y, collapse_response_mode(res))
    return AceResult(block, t, snr_star, tau_star, bic)
