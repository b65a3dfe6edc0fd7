"""Task scoring: KNN classification accuracy and per-parameter AUC.

A candidate protocol is scored by running the full in-silico pipeline:
sample a labeled cohort, simulate the acquisition, fit every subject, and
cross-validate a k-nearest-neighbor classifier on the fitted feature
vectors (s0, f, d, d_star). Features are z-scored with statistics from the
training folds only; raw feature scales differ by three orders of
magnitude, which would otherwise make Euclidean distances degenerate.
One cross-validation call scores all of its repeat x fold splits at once:
its folds are dealt from per-class subject index lists, each split's
statistics come from sums masked to its training rows, and the KNN runs
on one padded (split, test, train) distance tensor.

A cohort's label vector depends only on its spec, so every repeat of a
report cell or reward deals folds for the same one. Its fold plan, each
class's subject indices and their round-robin fold numbers, is memoized
for the last FOLD_PLAN_MEMO_SIZE label vectors (one per task), keyed by
the labels' bytes, and held read-only. A plan is only reused for
bit-identical labels and only sets which subjects the shuffles permute,
so the folds, and every accuracy bit, are those of a plan built anew; a
class too small for the folds is refused on every call, as no plan is
kept for it.

Tie-breaking is fully deterministic: neighbors are ordered by (distance,
subject index), and a tied majority vote falls back to the label of the
single nearest neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Mapping

import numpy as np

from .cohort import CohortSpec, TissueClass, TissueDistribution, sample_cohort, simulate_dataset
from .fitting import FitBounds, DEFAULT_BOUNDS, _frozen, fit_dataset
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


#: neighbors that vote in the cross-validated KNN classifier
K_NEIGHBORS = 5
#: stratified cross-validation folds; every class needs at least this many subjects
N_FOLDS = 5
#: label vectors whose fold plan is memoized (see the module docstring)
FOLD_PLAN_MEMO_SIZE = 4


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


@dataclass(frozen=True)
class EvalConfig:
    """Cross-validation settings; N_FOLDS and the KNN's K_NEIGHBORS are fixed.

    ``validation_snr`` is the acquisition SNR used by the separability
    validation (the per-parameter AUC matrix); None means the scanner's
    own SNR. Parameter-level separability is conventionally assessed
    under more benign noise than task-level accuracy, so this is a
    separate knob.
    """

    n_repeats_report: int = 50
    n_repeats_reward: int = 3
    validation_snr: float | None = None

    def __post_init__(self) -> None:
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
        """This env with its scanner at ``snr``: the one way to set the SNR."""
        return replace(self, scanner=replace(self.scanner, snr=snr))


def knn_predict_batch(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    query_features: np.ndarray,
    k: int,
) -> np.ndarray:
    """Deterministic KNN majority vote for a stack of splits.

    Takes (n_splits, n_train, n_features) training rows with
    (n_splits, n_train) labels and (n_splits, n_query, n_features) queries;
    returns (n_splits, n_query) predicted labels, each split voting among
    its own training rows only. Neighbor order is (squared Euclidean
    distance, training row index); a tied vote resolves to the nearest
    neighbor's label. Training rows labelled -1 are padding: they sort
    after every real row and never vote. Labels are class codes 0..n-1,
    n one more than the largest training label.
    """
    train_features = np.asarray(train_features, dtype=float)
    query_features = np.asarray(query_features, dtype=float)
    train_labels = np.asarray(train_labels, dtype=int)
    padding = train_labels < 0
    if not (~padding).any(axis=1).all():
        raise ValueError("every split needs a training row")
    n_splits, n_train = train_labels.shape
    k = min(k, n_train)
    splits = np.arange(n_splits)[:, None]
    # (split, train row, class) indicator; a padding row's is all zero
    one_hot = (train_labels[:, :, None] == np.arange(train_labels.max() + 1)).astype(int)

    predictions = np.empty(query_features.shape[:2], dtype=int)
    block = max(1, int(2**20 // (n_splits * n_train)))  # bound the distance tensor
    for start in range(0, query_features.shape[1], block):
        q = query_features[:, start : start + block]
        # filled one feature at a time, so each subtraction runs over the training rows
        diff = np.empty(q.shape[:2] + train_features.shape[1:])
        for f in range(diff.shape[3]):
            np.subtract(q[:, :, None, f], train_features[:, None, :, f], out=diff[..., f])
        dist_sq = np.where(padding[:, None, :], np.inf, np.einsum("sqtf,sqtf->sqt", diff, diff))
        # the k nearest under the (distance, index) order without a sort: every
        # row closer than the k-th distance, then the lowest-index rows tied at
        # it, which are all of them unless more tie than there is room for
        kth = np.partition(dist_sq, k - 1, axis=2)[:, :, k - 1 : k]
        top = dist_sq <= kth
        if (top.sum(axis=2) > k).any():
            closer = dist_sq < kth
            at_kth = dist_sq == kth
            room = k - closer.sum(axis=2, keepdims=True)
            top = closer | (at_kth & (np.cumsum(at_kth, axis=2) <= room))
        counts = top.astype(int) @ one_hot  # (split, query, class) votes, an exact integer product
        winner = counts.argmax(axis=2)
        tied = (counts == counts.max(axis=2, keepdims=True)).sum(axis=2) > 1
        # argmin returns the lowest index among equal distances
        nearest = train_labels[splits, dist_sq.argmin(axis=2)]
        predictions[:, start : start + q.shape[1]] = np.where(tied, nearest, winner)
    return predictions


def stratified_fold_assignments(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fold index per subject: each class's subjects are shuffled and dealt
    round-robin across N_FOLDS folds, so per-fold class counts differ by at most one."""
    return _deal_folds(np.asarray(labels, dtype=int), rng, 1)[0]


@lru_cache(maxsize=FOLD_PLAN_MEMO_SIZE)
def _fold_plan(label_bytes: bytes) -> tuple:
    """Each class's subject indices and their round-robin fold numbers, read-only,
    classes in ascending order."""
    labels = np.frombuffer(label_bytes, dtype=int)
    plan = []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        if len(idx) < N_FOLDS:
            raise InsufficientSubjectsError(
                f"class {value.item()} has {len(idx)} subjects, fewer than {N_FOLDS} folds")
        plan.append((_frozen(idx), _frozen(np.arange(len(idx)) % N_FOLDS)))
    return tuple(plan)


def _deal_folds(labels: np.ndarray, rng: np.random.Generator, n_repeats: int) -> np.ndarray:
    """(n_repeats, n_subjects) fold indices of int labels: in each repeat,
    every class's subjects are shuffled, class after class, and dealt round-robin."""
    plan = _fold_plan(labels.tobytes())
    folds = np.empty((n_repeats, len(labels)), dtype=int)
    for row in folds:
        for idx, deal in plan:
            row[rng.permutation(idx)] = deal
    return folds


def cross_val_accuracy(
    features: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    n_repeats: int,
) -> float:
    """Stratified k-fold KNN accuracy, averaged over ``n_repeats`` fold-shuffle repeats.

    Returns the mean of the pooled per-fold accuracies. Normalization
    statistics are fitted on the training folds of each split only.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)

    # one split per (repeat, fold), repeat-major: the order of the pooled accuracies
    folds = _deal_folds(labels, rng, n_repeats)
    test = (folds[:, None, :] == np.arange(N_FOLDS)[:, None]).reshape(-1, len(labels))
    train = ~test

    # z-score statistics of each split's training rows; the masked sums add
    # the same rows in the same order as a sum over features[train]
    n_train = train.sum(axis=1)[:, None]
    mean = np.where(train[:, :, None], features, 0.0).sum(axis=1) / n_train
    deviation = features - mean[:, None, :]
    centered = np.where(train[:, :, None], deviation, 0.0)
    std = np.sqrt((centered * centered).sum(axis=1) / n_train)
    std = np.where(std > 0.0, std, 1.0)  # constant feature -> zero after centering
    z = deviation / std[:, None, :]

    # every subject is a candidate neighbor, test rows labelled as padding;
    # the queries are each split's test rows in index order, padded to the largest fold
    n_test = test.sum(axis=1)
    query = np.argsort(train, axis=1, kind="stable")[:, : n_test.max()]
    pred = knn_predict_batch(
        z,
        np.where(train, labels, -1),
        z[np.arange(len(query))[:, None], query],
        K_NEIGHBORS,
    )
    hits = (pred == labels[query]) & (np.arange(query.shape[1]) < n_test[:, None])
    fold_accuracies = hits.sum(axis=1) / n_test
    return float(fold_accuracies.mean())


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
    pooled = np.sort(np.concatenate([a, b]))
    # the tie group of a value spans sorted positions [start, end); its
    # members share the 1-based average rank
    start = np.searchsorted(pooled, a, side="left")
    end = np.searchsorted(pooled, a, side="right")
    u_a = (0.5 * (start + end - 1) + 1.0).sum() - len(a) * (len(a) + 1) / 2.0
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
    return cross_val_accuracy(dataset.features, dataset.labels, rng, n_repeats=config.n_repeats_reward)
