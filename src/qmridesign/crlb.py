"""Estimation-variance lower bounds and the variance-driven protocol optimizer.

The Fisher information of a protocol under the bi-exponential signal model
with Gaussian channel noise is F = (1/sigma^2) * sum_i J_i J_i^T, where
J_i is the gradient of the signal at acquisition i with respect to
(s0, f, d, d_star). The inverse of F lower-bounds the covariance of any
unbiased estimator, so summing the normalized diagonal terms
CRLB(theta)/theta^2 over the parameters of interest scores how precisely a
protocol can measure them, independent of any downstream task.

Tissue samples travel as an (m, 4) array of (s0, f, d, d_star) rows, and
the cost of a protocol over all samples is a few dozen array operations.
The jacobian is computed as four (n_b, m) planes of one (4, n_b, m) array
(signal_jacobian returns its (m, n_b, 4) transpose). The symmetric Fisher
matrix has 10 distinct entries. fisher_matrix is two steps: _fisher_blocks
multiplies the 10 plane pairs into one (10, m) block per acquisition, and
_fisher_sum adds the blocks over b and mirrors the sum into (m, 4, 4).
That sum is an explicit loop from zero, b by b, because that is the
order in which einsum("mbi,mbj->mij") adds, so every bit matches it:
numpy's own sum over the b axis adds pairwise when m = 1 and n_b >= 8,
and a loop started from the first product would give -0.0 for an
all-zero b-vector, where the einsum gives +0.0. Each row's inverse is
ridged by ridge_rel tr(F)/4, and ridge_rel is always positive (CrlbConfig
refuses ridge_rel <= 0). Rows whose ridged inverse proves them regular
skip the eigendecomposition that the singularity test needs (see
_certified_regular), without changing a bit.

The optimizer anneals the ten b-values over the integer grid [0, 1000]
(first slot pinned to b = 0) against that score averaged over a fixed set
of tissue samples. A fixed sample set keeps the objective deterministic
during the anneal, and lets one anneal cost each distinct sorted protocol
once. An annealing move changes one slot, so most of a proposal's
acquisitions were already costed: the anneal's cost keeps an LRU memo of
Fisher blocks keyed by (echo time, b), bounded to _BLOCK_MEMO_BYTES (256
blocks at 100 samples; the block count follows from the sample count).
Each block is an elementwise function of b, the echo time and one sample
row, so a block computed alone has the bits it has within a protocol, and
_fisher_sum adds the held blocks from zero in the same sorted order:
every cost is bit for bit fisher_matrix's. The memo ends with the anneal.
crlb_objective is the anneal's cost applied once, to one protocol.
The Gaussian-noise Fisher matrix is an approximation to
the Rician simulation noise; at SNR 25 the discrepancy is negligible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cohort import CohortSpec, TissueClass, TissueDistribution, sample_cohort
from .ivim import ADHOC_B_VALUES, B_VALUE_MAX, PARAM_NAMES, AcquisitionProtocol, ScannerConfig, check_params, min_te

__all__ = [
    "CrlbConfig",
    "signal_jacobian",
    "fisher_matrix",
    "crlb_objective",
    "anneal_b_values",
    "draw_tissue_samples",
    "optimize_crlb",
]

#: cost assigned to protocols whose Fisher matrix is singular for the
#: scored parameters (e.g. ten b = 0 acquisitions)
SINGULAR_PENALTY = 1.0e12

#: parameters whose normalized CRLB the cost sums; s0 is a nuisance
SCORED_PARAMS = ("f", "d", "d_star")
#: annealing temperature at the first proposal, in units of the cost
T_INITIAL = 1.0
#: final annealing temperature as a fraction of T_INITIAL
T_FINAL_FRACTION = 1.0e-3
#: chance that an annealing proposal copies another slot's value instead of stepping
DUPLICATE_MOVE_PROB = 0.25
#: standard deviation (s/mm^2) of an annealing proposal's rounded Gaussian step
PERTURB_WIDTH = 120.0

_N_PARAMS = len(PARAM_NAMES)
_IDENTITY = np.eye(_N_PARAMS)
_SCORED = np.array([PARAM_NAMES.index(p) for p in SCORED_PARAMS])
#: bytes of Fisher blocks one cost memoizes: 256 blocks of 10 x 100 floats
_BLOCK_MEMO_BYTES = 256 * 10 * 100 * 8


@dataclass(frozen=True)
class CrlbConfig:
    """Variance-optimizer settings; SCORED_PARAMS, T_INITIAL, T_FINAL_FRACTION, DUPLICATE_MOVE_PROB and
    PERTURB_WIDTH are fixed. ridge_rel is a field: it is all that crlb_objective's ``config`` carries."""

    n_tissue_samples: int = 100
    iterations: int = 20000
    ridge_rel: float = 1.0e-12

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n_tissue_samples < 1:
            raise ValueError("n_tissue_samples must be >= 1")
        if not self.ridge_rel > 0.0:
            raise ValueError(f"ridge_rel must be > 0, got {self.ridge_rel}")


def _jacobian_planes(b_values: np.ndarray, te: float, t2: float, params: np.ndarray) -> np.ndarray:
    """The four partials (dS/ds0, dS/df, dS/dd, dS/dd_star) as (n_b, m) planes
    of one (4, n_b, m) array, for an (m, 4) parameter array."""
    s0, f, d, dstar = np.ascontiguousarray(params.T)
    b = b_values[:, None]
    decay = np.exp(-te / t2)
    e_star = np.exp(-b * dstar)
    e_tissue = np.exp(-b * d)
    scaled_b = -b * s0 * decay
    tissue_fraction = 1.0 - f
    planes = np.empty((_N_PARAMS,) + e_star.shape)
    np.multiply(decay, f * e_star + tissue_fraction * e_tissue, out=planes[0])
    np.multiply(s0 * decay, e_star - e_tissue, out=planes[1])
    np.multiply(scaled_b * tissue_fraction, e_tissue, out=planes[2])
    np.multiply(scaled_b * f, e_star, out=planes[3])
    return planes


def signal_jacobian(b_values: np.ndarray, te: float, t2: float, params: np.ndarray) -> np.ndarray:
    """Analytic partials (dS/ds0, dS/df, dS/dd, dS/dd_star) for every
    (sample, acquisition) pair of an (m, 4) parameter array: (m, n_b, 4)."""
    return _jacobian_planes(b_values, te, t2, params).T


#: the 10 entries (i, j), i <= j, of a symmetric 4x4 matrix, and for every
#: (i, j) the index of its entry among them
_UPPER_I, _UPPER_J = np.triu_indices(_N_PARAMS)
_MIRROR = np.empty((_N_PARAMS, _N_PARAMS), dtype=int)
_MIRROR[_UPPER_I, _UPPER_J] = _MIRROR[_UPPER_J, _UPPER_I] = np.arange(len(_UPPER_I))


def _fisher_blocks(b_values: np.ndarray, te: float, t2: float, params: np.ndarray) -> np.ndarray:
    """Each acquisition's block of the 10 distinct jacobian plane products,
    not yet scaled by the noise, for an (m, 4) parameter array: (n_b, 10, m)."""
    planes = _jacobian_planes(b_values, te, t2, params)
    # b-major, so that each b's 10 products are one contiguous block
    products = np.empty((planes.shape[1], len(_UPPER_I), planes.shape[2]))
    np.multiply(planes[_UPPER_I], planes[_UPPER_J], out=products.transpose(1, 0, 2))
    return products


def _fisher_sum(blocks, m: int, noise_sigma: float) -> np.ndarray:
    """The (m, 4, 4) Fisher matrices that the (10, m) ``blocks`` of a protocol's
    acquisitions sum to, in the order given."""
    # from zero, b by b: einsum's order of addition (see the module docstring)
    upper = np.zeros((len(_UPPER_I), m))
    for block in blocks:
        upper += block
    upper /= noise_sigma**2
    return np.ascontiguousarray(upper.T)[:, _MIRROR]


def fisher_matrix(
    b_values: np.ndarray, te: float, scanner: ScannerConfig, params: np.ndarray
) -> np.ndarray:
    """Gaussian-noise Fisher information per row of an (m, 4) parameter array: (m, 4, 4)."""
    return _fisher_sum(_fisher_blocks(b_values, te, scanner.t2, params), len(params), scanner.noise_sigma)


#: slack of the regularity certificate beyond 2 * ridge_rel, relative to
#: tr(F): the rounding of the ridged inverse and of eigvalsh when ridge_rel
#: itself is near machine precision
_ROUNDING_MARGIN = 64.0 * np.finfo(float).eps


def _certified_regular(fisher: np.ndarray, trace: np.ndarray, ridge: np.ndarray, ridge_rel: float):
    """(C, regular): C = (F + rI)^-1 for every row, and the rows C proves regular.

    For PSD F, lambda_min(F) >= 1/tr(C) - r and lambda_max(F) <= tr(F), so a
    row with 1/tr(C) - r > 2 ridge_rel tr(F) passes the eigvalsh test of
    _sample_cost; the factor 2 absorbs the rounding of C and of eigvalsh.
    Non-finite rows compare False. C is None, and no row is proved regular,
    only when the batched inverse fails.
    """
    try:
        inverse = np.linalg.inv(fisher + ridge[:, None, None] * _IDENTITY)
    except np.linalg.LinAlgError:
        return None, np.zeros(len(fisher), dtype=bool)
    lower_bound = 1.0 / np.trace(inverse, axis1=1, axis2=2) - ridge
    return inverse, lower_bound > (2.0 * ridge_rel + _ROUNDING_MARGIN) * trace


def _cost_of_fisher(fisher: np.ndarray, theta_sq: np.ndarray, ridge_rel: float) -> float:
    """Mean normalized-CRLB cost of the (m, 4, 4) Fisher matrices of m sample
    rows whose scored parameters square to the (m, 3) ``theta_sq``.

    A row costs SINGULAR_PENALTY if its Fisher matrix F is singular by
    eigvalsh (smallest eigenvalue at most ridge_rel times the largest), else
    the sum over the scored parameters of diag((F + rI)^-1)/theta^2, with
    r = ridge_rel tr(F)/4. eigvalsh runs only on the rows _certified_regular
    does not prove regular. LAPACK works matrix by matrix, so each row gets
    the eigenvalues and inverse it gets in any batch: the cost is bit for
    bit that of running eigvalsh on every row and inverting the regular ones.
    Rows are costed in place and the singular ones masked to the penalty, so
    no subset of rows is copied.
    """
    trace = np.trace(fisher, axis1=1, axis2=2)
    ridge = ridge_rel * trace / _N_PARAMS
    inverse, good = _certified_regular(fisher, trace, ridge, ridge_rel)
    uncertain = ~good
    if uncertain.any():
        eigvals = np.linalg.eigvalsh(fisher[uncertain])  # ascending per sample
        singular = (eigvals[:, 0] <= ridge_rel * np.clip(eigvals[:, -1], 0.0, None)) | (eigvals[:, -1] <= 0.0)
        good[uncertain] = ~singular
    if inverse is None:
        inverse = np.zeros_like(fisher)
        inverse[good] = np.linalg.inv(fisher[good] + ridge[good, None, None] * _IDENTITY)
    diag = np.diagonal(inverse, axis1=1, axis2=2)[:, _SCORED]
    # only regular rows are divided: a singular one may hold theta = 0 (f = 0)
    ratios = np.divide(diag, theta_sq, out=np.zeros(diag.shape), where=good[:, None])
    costs = np.where(good & ~(diag < 0.0).any(axis=1), ratios.sum(axis=1), SINGULAR_PENALTY)
    return float(costs.mean())


def _sample_cost(sample_params: np.ndarray, scanner: ScannerConfig, config: CrlbConfig):
    """The anneal's ``cost(b_sorted)``: the _cost_of_fisher over the (m, 4)
    sample rows of the sorted b-vector ``b_sorted`` at its minimum echo time.

    The cost is a pure function of the b-vector, so each distinct one is
    costed once, from the Fisher blocks that the LRU memo holds by (echo
    time, b) or computes (see the module docstring).
    """
    theta_sq = sample_params[:, _SCORED] ** 2
    m = len(sample_params)
    memo = {}

    # as many (10, m) float64 blocks as the byte budget holds
    @functools.lru_cache(maxsize=max(1, _BLOCK_MEMO_BYTES // (len(_UPPER_I) * m * 8)))
    def block(te: float, b: float) -> np.ndarray:
        held = _fisher_blocks(np.array([b]), te, scanner.t2, sample_params)[0]
        held.flags.writeable = False  # every later cost with this (te, b) reads it
        return held

    def cost(b_sorted: np.ndarray) -> float:
        key = b_sorted.tobytes()
        if key not in memo:
            te = min_te(float(b_sorted[-1]), scanner)
            fisher = _fisher_sum([block(te, b) for b in b_sorted.tolist()], m, scanner.noise_sigma)
            memo[key] = _cost_of_fisher(fisher, theta_sq, config.ridge_rel)
        return memo[key]

    return cost


def _checked_samples(tissue_samples) -> np.ndarray:
    """The (m, 4) sample array, rejected if empty or holding an invalid row."""
    samples = np.asarray(tissue_samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("need at least one tissue sample")
    check_params(samples)
    return samples


def crlb_objective(
    protocol: AcquisitionProtocol,
    tissue_samples: np.ndarray,
    scanner: ScannerConfig,
    config: CrlbConfig = CrlbConfig(),
) -> float:
    """Scalar design cost: mean over the (m, 4) sample rows of sum CRLB(theta)/theta^2,
    the anneal's cost (_sample_cost) of the protocol's b-values.

    Singular or indefinite information matrices contribute the large
    finite penalty instead of raising, so optimizers always receive a
    defined cost.
    """
    return _sample_cost(_checked_samples(tissue_samples), scanner, config)(protocol.b_array)


def anneal_b_values(cost_fn, initial: Sequence[float], rng: np.random.Generator, iterations: int):
    """Simulated annealing over integer b-value vectors, first slot pinned to b = 0.

    ``cost_fn`` maps a sorted float array of b-values to a scalar cost; the
    search starts from ``initial`` and keeps its slot count. Each of
    ``iterations`` proposals perturbs a single free slot, either by a
    rounded Gaussian step of width PERTURB_WIDTH or by copying another
    slot's value (which lets acquisitions coalesce onto shared support
    points). Acceptance follows the Metropolis rule under geometric
    cooling from T_INITIAL. Returns (best_b_sorted, best_cost, best_cost_trace).
    """
    state = np.asarray(initial, dtype=float).copy()
    state[0] = 0.0
    n_slots = len(state)

    current_cost = cost_fn(np.sort(state))
    best_state = state.copy()
    best_cost = current_cost
    trace = np.empty(iterations)

    for step in range(iterations):
        temperature = T_INITIAL * T_FINAL_FRACTION ** (step / (iterations - 1)) if iterations > 1 else 0.0
        slot = int(rng.integers(1, n_slots))
        proposal = state.copy()
        if rng.random() < DUPLICATE_MOVE_PROB:
            other = int(rng.integers(0, n_slots))
            proposal[slot] = state[other]
        else:
            proposal[slot] = min(max(round(state[slot] + rng.normal(0.0, PERTURB_WIDTH)), 0.0), B_VALUE_MAX)
        proposal_cost = cost_fn(np.sort(proposal))
        delta = proposal_cost - current_cost
        accept = delta <= 0.0 or (temperature > 0.0 and rng.random() < np.exp(-delta / temperature))
        if accept:
            state = proposal
            current_cost = proposal_cost
        if current_cost < best_cost:
            best_cost = current_cost
            best_state = state.copy()
        trace[step] = best_cost
    return np.sort(best_state), best_cost, trace


def draw_tissue_samples(
    classes: Sequence[TissueClass],
    distributions: Mapping[TissueClass, TissueDistribution],
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fixed (n_samples, 4) tissue-sample array spread as evenly as possible across
    classes; with fewer samples than classes, the first n_samples classes get one each."""
    base = n_samples // len(classes)
    counts = {c: base for c in classes}
    for c in list(classes)[: n_samples - base * len(classes)]:
        counts[c] += 1
    spec = CohortSpec({c: n for c, n in counts.items() if n > 0})
    return sample_cohort(distributions, spec, rng).params


def optimize_crlb(
    classes: Sequence[TissueClass],
    distributions: Mapping[TissueClass, TissueDistribution],
    scanner: ScannerConfig,
    config: CrlbConfig,
    rng: np.random.Generator,
    tissue_samples: np.ndarray | None = None,
):
    """Anneal a protocol minimizing the normalized-CRLB cost.

    The objective depends on the task only through the tissue samples:
    identical sample sets yield identical optimized protocols regardless
    of task structure. Returns (protocol, best_cost, trace).
    """
    if tissue_samples is None:
        tissue_samples = draw_tissue_samples(classes, distributions, config.n_tissue_samples, rng)
    cost = _sample_cost(_checked_samples(tissue_samples), scanner, config)
    best_b, best_cost, trace = anneal_b_values(cost, ADHOC_B_VALUES, rng, config.iterations)
    return AcquisitionProtocol(tuple(best_b)), best_cost, trace
