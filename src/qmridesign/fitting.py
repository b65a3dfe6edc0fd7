"""Segmented bi-exponential parameter estimation.

Stage 1 fits the tissue compartment: ordinary least squares on
(b, ln S) over the measurements at b >= HIGH_B_THRESHOLD gives the
diffusivity d (negative slope) and the extrapolated log-intercept.
Stage 2 anchors s0 on the mean of the b = 0 measurements and reads the
perfusion fraction off the intercept: f = 1 - exp(intercept)/s0.
Stage 3 recovers d_star from the full residual by a bounded 1-D search
in u = ln(d_star): a scan of one log-spaced grid of GRID_POINTS values
over [d_min, dstar_max], shared by every row and computed as a single
product with the grid's exponential basis, then two steps from each row's
best point at or above its d, each clipped to the bracket between that
point's two neighbours (the lower one no less than d). The first is the
vertex of the parabola through the scanned misfits at the best point and
its neighbours, where it has one between them (successive parabolic
interpolation; Brent 1973, Algorithms for Minimization without
Derivatives, ch. 5). The second is one Newton step on the exact misfit,
whose derivatives in u are closed-form because the model holds one
exponential in d_star. Of the grid point, the parabolic point, the
Newton point and the bracket's lower end, the row keeps the one with the
least exact misfit, so the estimate fits no worse than the scan's best
point, and a row whose misfit falls all the way to d returns d. The
search is a fixed sequence of per-row operations, so a row's estimate
does not depend on its batch. Only rows with f > 0 are searched; the others return d with
the boundary flag set. A row is flagged at a bound when its estimate lies
within EDGE_REL_TOL of d or of dstar_max.

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

#: b-value (s/mm^2) above which the perfusion compartment is treated as fully decayed
HIGH_B_THRESHOLD = 200.0
#: points of the log-spaced D* scan grid over [d_min, dstar_max]
GRID_POINTS = 200
#: D* within this fraction of d (of max(D*, d_min)) or of dstar_max is flagged at a bound
EDGE_REL_TOL = 1.0e-5
#: b-vectors whose fit plan is memoized (see the module docstring)
PLAN_MEMO_SIZE = 1


class NoB0Error(ValueError):
    """The acquisition contains no b = 0 measurement."""


@dataclass(frozen=True)
class FitBounds:
    """Estimator bounds.

    The diffusivity clamp range and the d_star search ceiling bracket all
    modeled tissue classes with wide margins. The segmentation threshold
    (HIGH_B_THRESHOLD), the D* search's grid size (GRID_POINTS) and its
    at-bound tolerance (EDGE_REL_TOL) are fixed.
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
    rows, and skips each row's points below d; a parabolic step and a
    Newton step then refine the row's best point within [max(previous
    point, d), next point], keeping whichever of these points and the
    bracket's lower end fits best (see the module docstring). Only rows
    with f > 0 are searched; the others return d with the boundary flag
    set.
    Returns (n,) arrays (dstar_est, at_bound).
    """
    inactive = f <= 0.0
    dstar = d.copy()
    live = ~inactive  # a row with a NaN f is not inactive: it is searched
    dstar[live] = _refine_dstar(signals[live], _fit_plan(b_values, bounds), s0[live], f[live], d[live], bounds)

    at_lower = (dstar - d) <= EDGE_REL_TOL * np.maximum(dstar, bounds.d_min)
    at_upper = (bounds.dstar_max - dstar) <= EDGE_REL_TOL * bounds.dstar_max
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


def _misfit_derivatives(residual, amplitude, b_values, x):
    """(S_u, S_uu), each row's exact misfit S = sum_b (r - A e)^2, e = exp(-b x),
    differentiated in u = ln x: S_u = x S_x and S_uu = x S_x + x^2 S_xx, with
    S_x = 2A sum_b b e (r - A e) and S_xx = 2A sum_b b^2 e (2A e - r)."""
    e = np.exp(-b_values * x[:, None])
    fit = amplitude[:, None] * e
    s_x = 2.0 * amplitude * (b_values * e * (residual - fit)).sum(axis=1)
    s_xx = 2.0 * amplitude * (b_values * b_values * e * (2.0 * fit - residual)).sum(axis=1)
    s_u = x * s_x
    return s_u, s_u + x * x * s_xx


def _refine_dstar(signals, plan: _FitPlan, s0, f, d, bounds: FitBounds) -> np.ndarray:
    """fit_dstar's scan, parabolic step and Newton step on the rows it keeps."""
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

    rows = np.arange(len(best))
    below, above = np.maximum(best - 1, 0), np.minimum(best + 1, GRID_POINTS - 1)
    lower, upper = np.maximum(grid[below], d), grid[above]
    h = math.log(bounds.dstar_max / bounds.d_min) / (GRID_POINTS - 1)  # the grid's step in u = ln D*
    # a step may overflow before its clip, and a row whose every grid point
    # lies below d scans only infinities; neither reaches the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # (1) the vertex of the parabola through the best point and its two
        # neighbours in u, where it has one between them
        s_minus, s_best, s_plus = scan[rows, below], scan[rows, best], scan[rows, above]
        curvature = s_minus - 2.0 * s_best + s_plus
        inner = (best > 0) & (best < GRID_POINTS - 1) & np.isfinite(s_minus) & (curvature > 0.0)
        step = np.where(inner, 0.5 * h * (s_minus - s_plus) / curvature, 0.0)
        x = np.clip(grid[best] * np.exp(step), lower, upper)

        # (2) one Newton step in u on the exact misfit, where it curves upwards
        s_u, s_uu = _misfit_derivatives(residual, amplitude, b_values, x)
        newton = np.clip(x * np.exp(np.where(s_uu > 0.0, -s_u / s_uu, 0.0)), lower, upper)

    # (3) the best of the grid point, the parabolic point, the Newton point and
    # the bracket's lower end (d, where the misfit falls all the way to it) on
    # the exact misfit; a tie keeps the earlier one
    candidates = np.column_stack([grid[best], x, newton, lower])
    model = amplitude[:, None, None] * np.exp(-b_values * candidates[:, :, None])
    misfit = np.square(residual[:, None, :] - model).sum(axis=2)
    return np.clip(candidates[rows, misfit.argmin(axis=1)], d, bounds.dstar_max)


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

