"""Tissue-distribution calibration against a per-parameter AUC target matrix.

The class-wise distribution numbers come from an external clinical study
rather than from any file shipped here, so the repo treats the published
separability matrix as ground truth and provides this command to adjust
the configured means and stds until the simulated matrix reproduces it.
Coordinate descent with multiplicative steps is sufficient: the loss is
smooth in each coordinate and the seeded evaluation keeps it
deterministic, so descent always terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Mapping

from .classify import EvalConfig, SimulationEnv, Task
from .cohort import TissueClass, TissueDistribution
from .experiments import auc_matrix
from .ivim import AcquisitionProtocol

__all__ = ["DEFAULT_AUC_TARGETS", "CalibrationResult", "calibrate_distributions", "auc_loss"]

#: validation separability targets: fitted-parameter AUC per binary task
DEFAULT_AUC_TARGETS = {
    Task.ACTIVE_VS_CHRONIC.token: {"f": 0.51, "d": 0.95, "d_star": 0.50},
    Task.ACTIVE_VS_HEALTHY.token: {"f": 0.79, "d": 0.96, "d_star": 0.52},
    Task.CHRONIC_VS_HEALTHY.token: {"f": 0.84, "d": 0.53, "d_star": 0.50},
}

_FIELDS = (
    ("mean_f", "std_f"),
    ("mean_d", "std_d"),
    ("mean_dstar", "std_dstar"),
)

#: first multiplicative step, halved after each round without improvement
INITIAL_STEP = 0.15
#: an AUC cell within this distance of its target counts as reached
TOLERANCE = 0.02


@dataclass
class CalibrationResult:
    distributions: Mapping[TissueClass, TissueDistribution]
    achieved: dict
    loss: float
    converged: bool
    evaluations: int


def auc_loss(matrix: dict, targets: dict) -> float:
    """Sum of squared AUC deviations over all target cells."""
    total = 0.0
    for task_token, params in targets.items():
        for param, target in params.items():
            total += (matrix[task_token][param][0] - target) ** 2
    return total


def _valid_proposal(mean_f, std_f, mean_d, std_d, mean_dstar, std_dstar) -> bool:
    # keep sampling well-posed: f comfortably inside (0, 1), positive
    # scales, and the perfusion compartment clearly faster than tissue.
    # Takes a TissueDistribution's fields as keywords, not an instance: its
    # constructor raises on some of the values rejected here (mean_f >= 1).
    if not 0.01 <= mean_f <= 0.9:
        return False
    if std_f < 1.0e-4 or std_d < 1.0e-7 or std_dstar < 1.0e-5:
        return False
    return not (mean_d <= 0 or mean_dstar < 2.0 * mean_d)


def calibrate_distributions(
    env: SimulationEnv,
    eval_config: EvalConfig,
    master_seed: int,
    max_rounds: int,
    targets: dict | None = None,
    n_repeats: int = 12,
) -> CalibrationResult:
    """Coordinate descent on class means/stds toward the AUC targets of the adhoc protocol,
    starting from ``env.distributions``.

    Each round sweeps every (class, parameter, mean/std) coordinate with
    multiplicative perturbations, keeping improvements. Stops early when
    every cell sits within TOLERANCE of its target (tested after each
    mean/std pair); otherwise returns the best distributions found after
    ``max_rounds`` rounds (caller decides whether to warn).
    """
    targets = DEFAULT_AUC_TARGETS if targets is None else targets
    protocol = AcquisitionProtocol.adhoc()
    current = dict(env.distributions)
    evaluations = 0

    def score(dists) -> tuple:
        nonlocal evaluations
        evaluations += 1
        matrix = auc_matrix(protocol, replace(env, distributions=dists), eval_config,
                            master_seed, n_repeats=n_repeats)
        return auc_loss(matrix, targets), matrix

    def within_tolerance(matrix) -> bool:
        return all(
            abs(matrix[task][param][0] - target) <= TOLERANCE
            for task, params in targets.items()
            for param, target in params.items()
        )

    loss, matrix = score(current)
    step = INITIAL_STEP
    for _ in range(max_rounds):
        if step < 0.02 or within_tolerance(matrix):
            break
        improved = False
        for label, pair in itertools.product(list(current), _FIELDS):
            for field_name in pair:
                base = vars(current[label])
                for factor in (1.0 + step, 1.0 - step):
                    values = {**base, field_name: base[field_name] * factor}
                    if not _valid_proposal(**values):
                        continue
                    trial = {**current, label: TissueDistribution(**values)}
                    trial_loss, trial_matrix = score(trial)
                    if trial_loss < loss:
                        current, loss, matrix = trial, trial_loss, trial_matrix
                        improved = True
                        break  # next field, proposed from the new base
            if within_tolerance(matrix):
                break
        if not improved:
            step *= 0.5
    return CalibrationResult(distributions=current, achieved=matrix, loss=loss,
                             converged=within_tolerance(matrix), evaluations=evaluations)
