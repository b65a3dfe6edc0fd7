"""Distribution calibration: fixed points, descent direction, separation bound."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from qmridesign import CohortSpec, EvalConfig, ScannerConfig, SimulationEnv, TissueClass
from qmridesign.calibrate import (
    _FIELDS,
    DEFAULT_AUC_TARGETS,
    INITIAL_STEP,
    TOLERANCE,
    auc_loss,
    calibrate_distributions,
)
from qmridesign.config import default_tissue_path, load_tissue_distributions
from qmridesign.experiments import auc_matrix
from qmridesign.ivim import AcquisitionProtocol


@pytest.fixture(scope="module")
def setup():
    dists = load_tissue_distributions(default_tissue_path())
    env = SimulationEnv(dists, CohortSpec(), ScannerConfig(snr=600.0))
    return dists, env, EvalConfig()


def test_targets_already_achieved_returns_input_unchanged(setup):
    """Feeding back the currently achieved matrix as the target is a fixed
    point: calibration must converge immediately without touching values."""
    dists, env, eval_config = setup
    achieved = auc_matrix(AcquisitionProtocol.adhoc(), env, eval_config, 51, n_repeats=6)
    targets = {t: {p: v[0] for p, v in pp.items()} for t, pp in achieved.items()}
    result = calibrate_distributions(
        env, eval_config, 51, targets=targets, n_repeats=6, max_rounds=3
    )
    assert result.converged
    assert result.evaluations == 1  # scored once, already within tolerance
    assert result.distributions == dists


def test_chance_targets_drive_distributions_together(setup):
    """All-0.5 targets: descent must reduce the separation-induced loss."""
    dists, env, eval_config = setup
    targets = {t: {p: 0.5 for p in pp} for t, pp in DEFAULT_AUC_TARGETS.items()}
    start = auc_loss(
        auc_matrix(AcquisitionProtocol.adhoc(), env, eval_config, 52, n_repeats=6), targets
    )
    result = calibrate_distributions(
        env, eval_config, 52, targets=targets, n_repeats=6, max_rounds=2
    )
    assert result.loss < start

    def spread(dmap, attr):
        values = [getattr(dmap[c], attr) for c in TissueClass]
        return max(values) - min(values)

    # the dominant separations move toward equality
    assert (
        spread(result.distributions, "mean_d") < spread(dists, "mean_d")
        or spread(result.distributions, "mean_f") < spread(dists, "mean_f")
    )


def test_shipped_separation_exceeds_noiseless_gaussian_bound(setup):
    """For a target AUC of 0.95 on d, the rank-based AUC of two Gaussians is
    Phi(dmu / sqrt(s1^2 + s2^2)); estimation noise only shrinks it, so the
    ground-truth separation must exceed the noiseless requirement."""
    dists, _, _ = setup
    active, chronic = dists[TissueClass.ACTIVE], dists[TissueClass.CHRONIC]
    delta = abs(active.mean_d - chronic.mean_d)
    pooled = np.sqrt(active.std_d**2 + chronic.std_d**2)
    assert delta / pooled >= 1.5


def test_invalid_proposals_rejected_in_descent(setup):
    """Budget-limited run keeps all distributions physically valid."""
    dists, env, eval_config = setup
    result = calibrate_distributions(
        env, eval_config, 53, n_repeats=4, max_rounds=1
    )
    for dist in result.distributions.values():
        assert 0.0 < dist.mean_f < 1.0
        assert dist.mean_d > 0
        assert dist.mean_dstar >= 2.0 * dist.mean_d
        assert dist.std_f > 0 and dist.std_d > 0 and dist.std_dstar > 0


def test_proposal_past_f_one_is_rejected_not_raised(setup):
    """mean_f = 0.88 is valid, but its first proposal, 0.88 * 1.15 = 1.012,
    lies outside the range TissueDistribution accepts: the descent must
    reject it like any other invalid proposal instead of raising."""
    dists, env, eval_config = setup
    near_one = {**dists, TissueClass.ACTIVE: replace(dists[TissueClass.ACTIVE], mean_f=0.88)}
    result = calibrate_distributions(
        replace(env, distributions=near_one), eval_config, 54, n_repeats=2, max_rounds=1
    )
    assert result.evaluations > 1
    assert result.distributions[TissueClass.ACTIVE].mean_f <= 0.9


def _reference_valid(dist):
    if not 0.01 <= dist.mean_f <= 0.9:
        return False
    if dist.std_f < 1.0e-4 or dist.std_d < 1.0e-7 or dist.std_dstar < 1.0e-5:
        return False
    if dist.mean_d <= 0 or dist.mean_dstar < 2.0 * dist.mean_d:
        return False
    return True


def reference_descent(distributions, env, eval_config, master_seed, max_rounds, targets, n_repeats):
    """The descent loop as written before its straight-line rewrite, kept as
    the bit-for-bit reference. It also returns each accepted move as
    (field name, whether every cell is then within tolerance), plus
    ("step", False) when the step size ran out, so a test can tell which
    way each run ended."""
    protocol = AcquisitionProtocol.adhoc()
    current = dict(distributions)
    evaluations = 0
    moves = []

    def score(dists):
        nonlocal evaluations
        evaluations += 1
        matrix = auc_matrix(protocol, replace(env, distributions=dists), eval_config,
                            master_seed, n_repeats=n_repeats)
        return auc_loss(matrix, targets), matrix

    def within_tolerance(matrix):
        return all(
            abs(matrix[task][param][0] - target) <= TOLERANCE
            for task, params in targets.items()
            for param, target in params.items()
        )

    loss, matrix = score(current)
    step = INITIAL_STEP
    converged = within_tolerance(matrix)
    for _ in range(max_rounds):
        if converged:
            break
        improved = False
        for label in list(current):
            for mean_field, std_field in _FIELDS:
                for field_name in (mean_field, std_field):
                    base = current[label]
                    for factor in (1.0 + step, 1.0 - step):
                        candidate = replace(base, **{field_name: getattr(base, field_name) * factor})
                        if not _reference_valid(candidate):
                            continue
                        trial = dict(current)
                        trial[label] = candidate
                        trial_loss, trial_matrix = score(trial)
                        if trial_loss < loss:
                            current, loss, matrix = trial, trial_loss, trial_matrix
                            moves.append((field_name, within_tolerance(matrix)))
                            improved = True
                            break
                if converged := within_tolerance(matrix):
                    break
            if converged:
                break
        if not improved:
            step *= 0.5
            if step < 0.02:
                moves.append(("step", False))
                break
    return (current, matrix, loss, converged, evaluations), moves


def test_descent_equals_reference_loop(setup):
    """Every result field equals the reference loop's, with ``==``, on target
    sets that end each way the descent can end: tolerance first reached by a
    mean-field move (the sweep still tries that pair's std field, so testing
    tolerance after every field would stop one evaluation early), first
    reached by a std-field move, stopped by the round budget, and stopped
    because the step size ran out."""
    dists, env, eval_config = setup
    achieved = auc_matrix(AcquisitionProtocol.adhoc(), env, eval_config, 7, n_repeats=3)
    own = {t: {p: v[0] for p, v in pp.items()} for t, pp in achieved.items()}

    def moved(task, param, delta):
        targets = copy.deepcopy(own)
        targets[task][param] += delta
        return targets

    cases = [  # (targets, max_rounds)
        (moved("active-healthy", "f", 0.03), 3),
        (moved("chronic-healthy", "f", -0.06), 3),
        (DEFAULT_AUC_TARGETS, 1),
        (moved("active-healthy", "d", 0.03), 4),
    ]
    endings = []
    for targets, max_rounds in cases:
        result = calibrate_distributions(
            env, eval_config, 7, targets=targets, n_repeats=3, max_rounds=max_rounds
        )
        expected, moves = reference_descent(dists, env, eval_config, 7, max_rounds, targets, 3)
        got = (result.distributions, result.achieved, result.loss, result.converged,
               result.evaluations)
        assert got == expected
        reaching = [name for name, within in moves if within]
        endings.append((expected[3], reaching[:1], moves[-1][0]))
    mean_move, std_move, budget, step_out = endings
    assert mean_move[0] and mean_move[1][0].startswith("mean_") and mean_move[2].startswith("std_")
    assert std_move[0] and std_move[1][0].startswith("std_")
    assert not budget[0] and budget[2] != "step"
    assert not step_out[0] and step_out[2] == "step"
