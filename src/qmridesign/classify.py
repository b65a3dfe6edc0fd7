"""Task scoring: KNN classification accuracy and per-parameter AUC.

A candidate protocol is scored by running the full in-silico pipeline:
sample a labeled cohort, simulate the acquisition, fit every subject, and
cross-validate a k-nearest-neighbor classifier on the fitted feature
vectors (s0, f, d, d_star). Features are z-scored with statistics from the
training folds only; raw feature scales differ by three orders of
magnitude, which would otherwise make Euclidean distances degenerate.

Tie-breaking is fully deterministic: neighbors are ordered by (distance,
subject index), and a tied majority vote falls back to the label of the
single nearest neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

import numpy as np

from .cohort import CohortSpec, TissueClass, TissueDistribution, sample_cohort, simulate_dataset
from .fitting import FitBounds, DEFAULT_BOUNDS, fit_dataset
from .ivim import AcquisitionProtocol, ScannerConfig

__all__ = [
    "Task",
    "EvalConfig",
    "SimulationEnv",
    "InsufficientSubjectsError",
    "knn_predict_batch",
    "stratified_fold_assignments",
    "cross_val_accuracy",
    "parameter_auc",
    "simulate_fitted_dataset",
    "task_objective",
]

FEATURE_NAMES = ("s0", "f", "d", "d_star")


class InsufficientSubjectsError(ValueError):
    """A class has fewer subjects than cross-validation folds."""


class Task(Enum):
    """Classification task, binary or three-class."""

    ACTIVE_VS_CHRONIC = ("active-chronic", (TissueClass.ACTIVE, TissueClass.CHRONIC))
    ACTIVE_VS_HEALTHY = ("active-healthy", (TissueClass.ACTIVE, TissueClass.HEALTHY))
    CHRONIC_VS_HEALTHY = ("chronic-healthy", (TissueClass.CHRONIC, TissueClass.HEALTHY))
    MULTICLASS = (
        "multiclass",
        (TissueClass.ACTIVE, TissueClass.CHRONIC, TissueClass.HEALTHY),
    )

    def __init__(self, token: str, classes) -> None:
        self.token = token
        self.classes = classes

    @classmethod
    def from_token(cls, token: str) -> "Task":
        for task in cls:
            if task.token == token:
                return task
        raise ValueError(f"unknown task {token!r}; expected one of {[t.token for t in cls]}")

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class EvalConfig:
    """Classifier and cross-validation settings.

    ``validation_snr`` is the acquisition SNR used by the separability
    validation (the per-parameter AUC matrix); None means the scanner's
    own SNR. Parameter-level separability is conventionally assessed
    under more benign noise than task-level accuracy, so this is a
    separate knob.
    """

    k_neighbors: int = 5
    n_folds: int = 5
    n_repeats_report: int = 50
    n_repeats_reward: int = 3
    validation_snr: float | None = None

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if self.n_repeats_report < 1 or self.n_repeats_reward < 1:
            raise ValueError("repeat counts must be >= 1")
        if self.validation_snr is not None and not self.validation_snr > 1:
            raise ValueError("validation_snr must exceed 1")


@dataclass(frozen=True)
class SimulationEnv:
    """Everything the scoring pipeline needs besides the protocol under test."""

    distributions: Mapping[TissueClass, TissueDistribution]
    cohort_spec: CohortSpec
    scanner: ScannerConfig
    fit_bounds: FitBounds = DEFAULT_BOUNDS

    def with_snr(self, snr: float) -> "SimulationEnv":
        return replace(self, scanner=self.scanner.with_snr(snr))


def _zscore_stats(features: np.ndarray):
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)  # constant feature -> zero after centering
    return mean, std


def knn_predict_batch(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    query_features: np.ndarray,
    k: int,
    n_classes: int,
) -> np.ndarray:
    """Deterministic KNN majority vote for a block of queries.

    Neighbor order is (squared Euclidean distance, subject index); a tied
    vote resolves to the nearest neighbor's label.
    """
    train_features = np.asarray(train_features, dtype=float)
    query_features = np.atleast_2d(np.asarray(query_features, dtype=float))
    train_labels = np.asarray(train_labels, dtype=int)
    if len(train_features) == 0:
        raise ValueError("training set must be non-empty")
    k = min(k, len(train_features))

    predictions = np.empty(len(query_features), dtype=int)
    block = max(1, int(2**20 // max(len(train_features), 1)))  # bound the distance tensor
    for start in range(0, len(query_features), block):
        q = query_features[start : start + block]
        diff = q[:, None, :] - train_features[None, :, :]
        dist_sq = np.einsum("qtf,qtf->qt", diff, diff)
        order = np.argsort(dist_sq, axis=1, kind="stable")  # stable: index breaks ties
        top = train_labels[order[:, :k]]
        counts = np.zeros((len(q), n_classes), dtype=int)
        for c in range(n_classes):
            counts[:, c] = (top == c).sum(axis=1)
        winner = counts.argmax(axis=1)
        tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
        predictions[start : start + len(q)] = np.where(tied, top[:, 0], winner)
    return predictions


def stratified_fold_assignments(
    labels: np.ndarray, n_folds: int, rng: np.random.Generator
) -> np.ndarray:
    """Fold index per subject; per-fold class counts differ by at most one.

    Each class's subjects are shuffled and dealt round-robin across folds.
    """
    labels = np.asarray(labels)
    folds = np.empty(len(labels), dtype=int)
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        if len(idx) < n_folds:
            raise InsufficientSubjectsError(
                f"class {value!r} has {len(idx)} subjects, fewer than {n_folds} folds"
            )
        idx = rng.permutation(idx)
        folds[idx] = np.arange(len(idx)) % n_folds
    return folds


def cross_val_accuracy(
    features: np.ndarray,
    labels: np.ndarray,
    config: EvalConfig,
    rng: np.random.Generator,
    n_repeats: int | None = None,
):
    """Stratified k-fold KNN accuracy, averaged over fold-shuffle repeats.

    Returns (mean, std) over the pooled per-fold accuracies. Normalization
    statistics are fitted on the training folds of each split only.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_classes = int(labels.max()) + 1
    repeats = config.n_repeats_report if n_repeats is None else n_repeats

    fold_accuracies = []
    for _ in range(repeats):
        folds = stratified_fold_assignments(labels, config.n_folds, rng)
        for fold in range(config.n_folds):
            test = folds == fold
            train = ~test
            mean, std = _zscore_stats(features[train])
            train_z = (features[train] - mean) / std
            test_z = (features[test] - mean) / std
            pred = knn_predict_batch(train_z, labels[train], test_z, config.k_neighbors, n_classes)
            fold_accuracies.append(float((pred == labels[test]).mean()))
    fold_accuracies = np.asarray(fold_accuracies)
    return float(fold_accuracies.mean()), float(fold_accuracies.std())


def parameter_auc(values_a, values_b) -> float:
    """Rank-sum AUC between two samples, reported direction-free.

    Computed as the Mann-Whitney U statistic divided by n_a*n_b with ties
    counted 0.5, then folded to max(auc, 1 - auc) so the result does not
    depend on class order.
    """
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty(len(combined))
    sorted_vals = combined[order]
    # average ranks over tie groups
    boundaries = np.flatnonzero(np.diff(sorted_vals) != 0.0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(combined)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e - 1) + 1.0  # 1-based average rank
    u_a = ranks[: len(a)].sum() - len(a) * (len(a) + 1) / 2.0
    auc = u_a / (len(a) * len(b))
    return float(max(auc, 1.0 - auc))


def simulate_fitted_dataset(
    protocol: AcquisitionProtocol,
    task: Task,
    env: SimulationEnv,
    rng: np.random.Generator,
):
    """One fresh cohort for ``task``, simulated under ``protocol`` and fitted."""
    spec = env.cohort_spec.restricted(task.classes)
    cohort = sample_cohort(env.distributions, spec, rng)
    dataset = simulate_dataset(cohort, protocol, env.scanner, rng)
    return fit_dataset(dataset, env.fit_bounds)


def task_objective(
    protocol: AcquisitionProtocol,
    task: Task,
    env: SimulationEnv,
    config: EvalConfig,
    rng: np.random.Generator,
) -> float:
    """Scalar objective: cross-validated accuracy on a freshly simulated cohort.

    Deterministic for a given (rng state, protocol, configuration). Fit
    failures contribute sentinel feature vectors rather than errors, so
    every protocol receives a defined score.
    """
    dataset = simulate_fitted_dataset(protocol, task, env, rng)
    labels = dataset.label_codes(task.classes)
    mean, _ = cross_val_accuracy(
        dataset.features, labels, config, rng, n_repeats=config.n_repeats_reward
    )
    return mean
