"""Segmented bi-exponential parameter estimation.

Stage 1 fits the tissue compartment: ordinary least squares on
(b, ln S) over the measurements at b >= HIGH_B_THRESHOLD gives the
diffusivity d (negative slope) and the extrapolated log-intercept.
Stage 2 anchors s0 on the mean of the b = 0 measurements and reads the
perfusion fraction off the intercept: f = 1 - exp(intercept)/s0.
Stage 3 recovers d_star from the full residual by a bounded 1-D search:
a scan of one log-spaced grid of GRID_POINTS values over [d_min,
dstar_max], shared by every row and computed as a single product with the
grid's exponential basis, followed by golden-section refinement from each
row's best point at or above its d, which is deterministic and immune to
local minima. Only rows with f > 0 are scanned and refined; the others
return d with the boundary flag set. A row's refinement stops once its
bracket is narrower than REFINE_REL_TOL * max(midpoint, d_min); the steps
that provably stop no row skip that test (see _refine_dstar), and run in
place on preallocated buffers with the same arithmetic.

Protocols whose high-b segment is deficient (fewer than two distinct
b-values at or above the threshold) are handled in two tiers: if at least
one measurement sits at or above the threshold, the threshold is relaxed
to the two largest distinct positive b-values so clustered designs still
produce informative (if biased) estimates; if no measurement reaches the
threshold, or every positive b-value is the same, a sentinel result with
every estimate at its lower bound is returned. Either tier sets the
``high_b_deficient`` flag, so degenerate protocols always yield defined,
poor feature vectors instead of errors.

Every estimator takes an (n_subjects, n_acquisitions) signal matrix and
returns per-row arrays; a single subject is an n = 1 matrix.

What a fit needs of its b-values and bounds alone is its plan, memoized
for the last PLAN_MEMO_SIZE b-vectors: the segmentation threshold and
deficiency flag, the high-b and b = 0 column masks, and, built on first
use (never on the sentinel path), the D* scan basis with its squared
column sums. The key is the b-values' bytes with (d_min, dstar_max), so a
plan is only reused for bit-identical inputs, and its arrays are
read-only, so the fits that share one compute from the same bits as fits
that build their own. A report repeats each protocol fifty times, a
search scores nearly every protocol once, hence one plan, not a pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "FitBounds",
    "NoB0Error",
    "fit_dstar",
    "segmented_fit_batch",
    "fit_dataset",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_LOG_INV_GOLDEN = -math.log(_GOLDEN)

#: b-value (s/mm^2) above which the perfusion compartment is treated as fully decayed
HIGH_B_THRESHOLD = 200.0
#: points of the log-spaced D* scan grid over [d_min, dstar_max]
GRID_POINTS = 200
#: a golden-section bracket stops once narrower than this fraction of max(midpoint, d_min)
REFINE_REL_TOL = 1.0e-6
#: b-vectors whose fit plan is memoized (see the module docstring)
PLAN_MEMO_SIZE = 1


class NoB0Error(ValueError):
    """The acquisition contains no b = 0 measurement."""


@dataclass(frozen=True)
class FitBounds:
    """Estimator bounds.

    The diffusivity clamp range and the d_star search ceiling bracket all
    modeled tissue classes with wide margins. The segmentation threshold
    (HIGH_B_THRESHOLD) and the D* search's grid size (GRID_POINTS) and
    tolerance (REFINE_REL_TOL) are fixed.
    """

    d_min: float = 1.0e-5
    d_max: float = 5.0e-3
    dstar_max: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.d_min < self.d_max:
            raise ValueError(f"fit bounds need 0 < d_min < d_max, got d_min={self.d_min}, d_max={self.d_max}")
        if not self.d_max <= self.dstar_max:  # D* is searched on [d, dstar_max]
            raise ValueError(f"fit bounds need d_max <= dstar_max, got d_max={self.d_max}, "
                             f"dstar_max={self.dstar_max}")


DEFAULT_BOUNDS = FitBounds()


def _loglinear_batch(signals: np.ndarray, b_values: np.ndarray, column_mask: np.ndarray):
    """Per-row weighted OLS of ln(signal) on b over the masked columns.

    Non-positive signals get zero weight. Returns (slope, intercept, ok)
    where ok is False for rows whose qualifying measurements do not span
    two distinct b-values.
    """
    w = column_mask[None, :] & (signals > 0.0)
    safe = np.where(signals > 0.0, signals, 1.0)
    y = np.where(w, np.log(safe), 0.0)
    bw = np.where(w, b_values[None, :], 0.0)

    n_w = w.sum(axis=1)
    ok = n_w >= 2
    n_safe = np.maximum(n_w, 1)
    b_mean = bw.sum(axis=1) / n_safe
    y_mean = y.sum(axis=1) / n_safe
    b_cent = np.where(w, b_values[None, :] - b_mean[:, None], 0.0)
    s_bb = (b_cent**2).sum(axis=1)
    s_by = (b_cent * (y - y_mean[:, None]) * w).sum(axis=1)

    ok = ok & (s_bb > 0.0)  # s_bb == 0 iff all qualifying b coincide
    slope = np.where(ok, s_by / np.where(s_bb > 0.0, s_bb, 1.0), 0.0)
    intercept = y_mean - slope * b_mean
    return slope, intercept, ok


def fit_dstar(
    signals: np.ndarray,
    b_values: np.ndarray,
    s0: np.ndarray,
    f: np.ndarray,
    d: np.ndarray,
    bounds: FitBounds = DEFAULT_BOUNDS,
):
    """Pseudo-diffusivity from the residual after removing the tissue term.

    Minimizes sum_b [S_b - s0*((1-f) e^(-b d) + f e^(-b dstar))]^2 over
    dstar in [d, bounds.dstar_max] for each row of the (n, n_b) signal
    matrix, given (n,) arrays s0, f and d. The scan evaluates one grid of
    GRID_POINTS log-spaced values over [d_min, dstar_max], shared by all
    rows, and skips each row's points below d; golden-section
    refinement then searches [max(previous point, d), next point] around
    the row's best point on the exact misfit. Only rows with f > 0 are
    scanned and refined; the others return d with the boundary flag set.
    Returns (n,) arrays (dstar_est, at_bound).
    """
    inactive = f <= 0.0
    dstar = d.copy()
    live = ~inactive  # a row with a NaN f is not inactive: it is refined
    dstar[live] = _refine_dstar(signals[live], _fit_plan(b_values, bounds), s0[live], f[live], d[live], bounds)

    edge_tol = 10.0 * REFINE_REL_TOL
    at_lower = (dstar - d) <= edge_tol * np.maximum(dstar, bounds.d_min)
    at_upper = (bounds.dstar_max - dstar) <= edge_tol * bounds.dstar_max
    at_bound = inactive | at_lower | at_upper
    return dstar, at_bound


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=8)
def _log_grid(d_min: float, dstar_max: float) -> np.ndarray:
    """The D* scan grid, read-only: every fit with the same bounds shares it."""
    return _frozen(np.exp(np.linspace(np.log(d_min), np.log(dstar_max), GRID_POINTS)))


class _FitPlan:
    """What a fit needs of its b-values and bounds alone, read-only."""

    def __init__(self, b_values: np.ndarray, d_min: float, dstar_max: float) -> None:
        self.b_values = b_values
        self.grid = _log_grid(d_min, dstar_max)
        self.b0 = _frozen(b_values == 0.0)
        self.threshold, self.deficient = _effective_threshold(b_values)
        self.high = None if self.threshold is None else _frozen(b_values >= self.threshold)

    @cached_property
    def basis(self) -> tuple:
        """The D* scan basis E = exp(-b * grid), (n_b, GRID_POINTS), and its squared column sums."""
        basis = np.exp(-self.b_values[:, None] * self.grid[None, :])
        return _frozen(basis), _frozen((basis * basis).sum(axis=0))


@lru_cache(maxsize=PLAN_MEMO_SIZE)
def _memoized_plan(b_bytes: bytes, d_min: float, dstar_max: float) -> _FitPlan:
    return _FitPlan(np.frombuffer(b_bytes), d_min, dstar_max)


def _fit_plan(b_values, bounds: FitBounds) -> _FitPlan:
    """The plan of these b-values under these bounds, built once per key (see the module docstring)."""
    return _memoized_plan(np.asarray(b_values, dtype=float).tobytes(), bounds.d_min, bounds.dstar_max)


#: signs of the golden-section steps from a bracket's (upper, lower) ends
_GOLDEN_STEPS = np.array([-_GOLDEN, _GOLDEN])


def _unchecked_steps(width: np.ndarray, sure: np.ndarray) -> int:
    """Golden-section steps that skip even the test of width against sure,
    counted once from the narrowest ratio width / sure. The -2 leaves each
    width above sure / G^3 (4.2 sure) at the last of them in exact
    arithmetic; rounding moves a step's width by under 1.5 ulp of b, and
    those moves, each shrunk by G in every later step, sum to under 4 ulp
    of b, which a gap of 3.2 sure (3.2e-6 b) covers. An empty batch, or a
    ratio that is no finite number above 1, counts none."""
    ratio = (width / sure).min() if len(width) else np.nan
    return int(math.log(ratio) / _LOG_INV_GOLDEN) - 2 if 1.0 < ratio < np.inf else 0


def _refine_dstar(signals, plan: _FitPlan, s0, f, d, bounds: FitBounds) -> np.ndarray:
    """fit_dstar's scan and golden-section refinement of the rows it keeps."""
    b_values, grid = plan.b_values, plan.grid
    residual = signals - s0[:, None] * (1.0 - f)[:, None] * np.exp(-b_values[None, :] * d[:, None])
    amplitude = s0 * f

    # one log-spaced grid for every row, scanned through the expansion
    # SSE = |r|^2 - 2a (r . E) + a^2 |E|^2 of the basis E = exp(-b * grid)
    basis, basis_sq = plan.basis
    # einsum, not BLAS: a matrix product can sum a lone row in another order,
    # and a row's fit must not depend on its batch
    scan = np.einsum("nb,bg->ng", residual, basis)
    np.multiply(2.0 * amplitude[:, None], scan, out=scan)
    np.subtract((residual * residual).sum(axis=1)[:, None], scan, out=scan)
    scan += (amplitude**2)[:, None] * basis_sq
    np.copyto(scan, np.inf, where=grid[None, :] < d[:, None])  # the search starts at d
    best = scan.argmin(axis=1)

    # golden-section refinement on preallocated buffers. Each row's bracket
    # is held upper end first, (b, a), so bracket + width * (-G, +G) gives
    # its points (x1, x2) = (b - G width, a + G width) in one add; the
    # misfit is per element, so a frozen row keeps its bits
    n = len(best)
    bracket = np.empty((n, 2))
    b, a = bracket[:, 0], bracket[:, 1]
    b[:] = grid[np.minimum(best + 1, GRID_POINTS - 1)]
    np.maximum(grid[np.maximum(best - 1, 0)], d, out=a)
    neg_b = -b_values
    width = np.empty(n)
    points = np.empty((n, 2))
    model = np.empty((n, 2, len(b_values)))
    # residual and amplitude laid out like model, so each step runs contiguous loops
    residual_by_point, amplitude_by_point = np.empty_like(model), np.empty_like(model)
    residual_by_point[:] = residual[:, None, :]
    amplitude_by_point[:] = amplitude[:, None, None]
    values = np.empty((n, 2))
    f1, f2 = values[:, 0], values[:, 1]
    move = np.empty((n, 2), dtype=bool)  # per bracket end: take the opposite point
    shrink_right, shrink_left = move[:, 0], move[:, 1]  # b <- x2; a <- x1 (the minimum lies in [x1, b])
    width_col, points_col, swapped = width[:, None], points[:, :, None], points[:, ::-1]

    def probe():
        """Golden-section points of every bracket and their misfits."""
        np.subtract(b, a, out=width)
        np.multiply(width_col, _GOLDEN_STEPS, out=points)
        np.add(bracket, points, out=points)
        np.multiply(neg_b, points_col, out=model)
        np.exp(model, out=model)
        np.multiply(amplitude_by_point, model, out=model)
        np.subtract(residual_by_point, model, out=model)
        np.square(model, out=model)
        model.sum(axis=2, out=values)

    # A row freezes once width <= REFINE_REL_TOL * max(midpoint, d_min); its
    # midpoint never exceeds its starting b, so while every width exceeds
    # sure = REFINE_REL_TOL * max(starting b, d_min) no row can freeze: those
    # steps skip the freeze test, and the first `unchecked` the width test too.
    sure = REFINE_REL_TOL * np.maximum(b, bounds.d_min)
    provably_active = n > 0
    probe()
    unchecked = _unchecked_steps(width, sure)
    for step in range(200):
        if step >= unchecked:
            provably_active = provably_active and (width > sure).all()
        if provably_active:
            np.greater(f1, f2, out=shrink_left)
            np.logical_not(shrink_left, out=shrink_right)
        else:
            # freeze converged rows so results do not depend on batch company
            active = width > REFINE_REL_TOL * np.maximum(0.5 * (a + b), bounds.d_min)
            if not active.any():
                break
            np.logical_and(active, f1 > f2, out=shrink_left)
            np.logical_and(active, ~shrink_left, out=shrink_right)
        np.copyto(bracket, swapped, where=move)
        probe()

    return np.clip(0.5 * (a + b), d, bounds.dstar_max)


def _effective_threshold(b_values: np.ndarray):
    """Segmentation threshold actually usable for this set of b-values.

    Returns (threshold, deficient_flag) or (None, True) when even the
    relaxed segment cannot span two distinct b-values. The relaxation to
    the two largest distinct positive b-values only applies when at least
    one measurement reaches the nominal threshold; designs confined
    entirely below it stay sentinel cases.
    """
    high = b_values[b_values >= HIGH_B_THRESHOLD]
    if high.size == 0:
        return None, True
    if high.min() < high.max():  # at least two distinct values
        return HIGH_B_THRESHOLD, False
    positive = b_values[b_values > 0.0]
    if positive.size == 0 or positive.min() == positive.max():
        return None, True
    top = positive.max()
    return float(positive[positive < top].max()), True


def segmented_fit_batch(
    signals: np.ndarray,
    b_values,
    bounds: FitBounds = DEFAULT_BOUNDS,
):
    """Full segmented fit for a (n_subjects, n_acquisitions) signal matrix.

    Returns (features, flags): features is (n, 4) in the order
    (s0, f, d, d_star); flags is (n, 3) boolean columns
    (high_b_deficient, f_clamped, dstar_at_bound). Fit failures never
    raise; they produce sentinel rows (every estimate at its lower bound)
    with the deficiency flag set.
    """
    signals = np.asarray(signals, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    plan = _fit_plan(b_values, bounds)
    if not plan.b0.any():
        raise NoB0Error("acquisition has no b = 0 measurement")
    n = signals.shape[0]

    features = np.empty((n, 4))
    features[:] = (0.0, 0.0, bounds.d_min, bounds.d_min)
    flags = np.zeros((n, 3), dtype=bool)

    if plan.threshold is None:
        flags[:, 0] = True
        return features, flags

    slope, intercept, ok = _loglinear_batch(signals, b_values, plan.high)
    d_est = np.clip(-slope, bounds.d_min, bounds.d_max)

    # s0 from the mean of the b = 0 measurements; f = 1 - exp(intercept)/s0
    s0_est = signals[:, plan.b0].mean(axis=1)
    f_raw = 1.0 - np.divide(np.exp(intercept), s0_est, out=np.ones(n), where=s0_est > 0.0)
    f_est = np.clip(f_raw, 0.0, 1.0)
    f_clamped = f_raw != f_est
    dstar_est, at_bound = fit_dstar(signals, b_values, s0_est, f_est, d_est, bounds)

    np.copyto(features, np.column_stack([s0_est, f_est, d_est, dstar_est]), where=ok[:, None])
    flags[:, 0] = plan.deficient | ~ok
    flags[:, 1] = f_clamped & ok
    flags[:, 2] = at_bound & ok
    return features, flags


def fit_dataset(dataset, bounds: FitBounds = DEFAULT_BOUNDS):
    """Fit every subject of a dataset in place; returns the dataset."""
    features, flags = segmented_fit_batch(dataset.signals, dataset.b_values, bounds)
    dataset.features = features
    dataset.fit_flags = flags
    return dataset

