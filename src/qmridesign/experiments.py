"""Repeat-level experiment drivers shared by the CLI commands.

Reporting semantics: one repeat is one full in-silico experiment (fresh
cohort, fresh noise, fit, one stratified cross-validation pass), so the
reported standard deviation reflects cohort-to-cohort variability. Every
repeat draws its streams from keys derived of (seed, command, task,
protocol, snr, repeat index), making each report cell reproducible in
isolation.
"""

from __future__ import annotations

import zlib

import numpy as np

from .classify import (
    EvalConfig,
    SimulationEnv,
    Task,
    cross_val_accuracy,
    parameter_auc,
    simulate_fitted_dataset,
)
from .ivim import PARAM_NAMES, AcquisitionProtocol
from .seeds import derive_rng

__all__ = [
    "AUC_PARAMS",
    "BINARY_TASKS",
    "protocol_id",
    "evaluate_accuracy",
    "auc_matrix",
]

#: fitted parameters scored in the validation matrix (feature columns 1..3)
AUC_PARAMS = PARAM_NAMES[1:]

BINARY_TASKS = (Task.ACTIVE_VS_CHRONIC, Task.ACTIVE_VS_HEALTHY, Task.CHRONIC_VS_HEALTHY)


def protocol_id(protocol: AcquisitionProtocol) -> str:
    """Short stable identifier derived from the b-values."""
    text = ";".join(repr(float(b)) for b in protocol.b_values)
    return f"p{zlib.crc32(text.encode('utf-8')):08x}"


def _repeats(protocol, task, env, eval_config, master_seed, n_repeats, command):
    """Yield (rng, fitted dataset) for each independent repeat; its class codes index ``task.classes``."""
    repeats = eval_config.n_repeats_report if n_repeats is None else n_repeats
    pid = protocol_id(protocol)
    snr_key = repr(float(env.scanner.snr))
    for r in range(repeats):
        rng = derive_rng(master_seed, command, task.token, pid, snr_key, r)
        yield rng, simulate_fitted_dataset(protocol, task, env, rng)


def evaluate_accuracy(
    protocol: AcquisitionProtocol,
    task: Task,
    env: SimulationEnv,
    eval_config: EvalConfig,
    master_seed: int,
    n_repeats: int | None = None,
):
    """Mean and std of cross-validated accuracy over independent repeats."""
    accuracies = np.array([
        cross_val_accuracy(dataset.features, dataset.labels, rng, n_repeats=1)
        for rng, dataset in _repeats(
            protocol, task, env, eval_config, master_seed, n_repeats, "evaluate"
        )
    ])
    return float(accuracies.mean()), float(accuracies.std())


def auc_matrix(
    protocol: AcquisitionProtocol,
    env: SimulationEnv,
    eval_config: EvalConfig,
    master_seed: int,
    n_repeats: int | None = None,
):
    """Per-parameter separability of each binary task.

    Returns {task_token: {param: (mean_auc, std_auc)}} over independent
    repeats, scoring the fitted f, d and d_star features.
    """
    matrix: dict = {}
    for task in BINARY_TASKS:
        aucs = np.array([
            [parameter_auc(values[dataset.labels == 0], values[dataset.labels == 1])
             for values in dataset.features[:, 1:].T]
            for _, dataset in _repeats(
                protocol, task, env, eval_config, master_seed, n_repeats, "validate"
            )
        ])
        matrix[task.token] = {
            param: (float(aucs[:, i].mean()), float(aucs[:, i].std())) for i, param in enumerate(AUC_PARAMS)
        }
    return matrix
