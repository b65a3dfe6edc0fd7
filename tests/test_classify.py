"""KNN, stratified cross-validation, AUC: brute-force oracles and chance levels."""

import numpy as np
import pytest

from qmridesign import (
    AcquisitionProtocol,
    CohortSpec,
    EvalConfig,
    ScannerConfig,
    SimulationEnv,
    Task,
    TissueClass,
    cross_val_accuracy,
    parameter_auc,
    task_objective,
)
from qmridesign.classify import (
    InsufficientSubjectsError,
    knn_predict_batch,
    stratified_fold_assignments,
)
from qmridesign.config import default_tissue_path, load_tissue_distributions


def brute_force_knn(train_x, train_y, query, k):
    """Literal restatement of the prediction rule for cross-checking."""
    dists = [(float(((x - query) ** 2).sum()), i) for i, x in enumerate(train_x)]
    order = sorted(range(len(dists)), key=lambda i: dists[i])
    top = [train_y[i] for i in order[:k]]
    counts = {}
    for label in top:
        counts[label] = counts.get(label, 0) + 1
    most = max(counts.values())
    winners = [label for label, c in counts.items() if c == most]
    return top[0] if len(winners) > 1 else winners[0]


def knn_predict_one(train_x, train_y, query, k):
    """Predicted label of one query point: the n = 1 case of knn_predict_batch."""
    train_y = np.asarray(train_y)
    return int(knn_predict_batch(train_x, train_y, query[None, :], k, int(train_y.max()) + 1)[0])


class TestKnn:
    def test_separable_clusters(self):
        a = np.zeros((10, 4))
        b = np.full((10, 4), 9.0)
        x = np.vstack([a, b])
        y = np.array([0] * 10 + [1] * 10)
        for i in range(20):
            assert knn_predict_one(x, y, x[i], k=1) == y[i]

    def test_k_equals_train_size_predicts_majority(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        y = np.array([0] * 18 + [1] * 12)
        for query in rng.normal(size=(10, 4)):
            assert knn_predict_one(x, y, query, k=30) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(10, 31))
            x = rng.normal(size=(n, 4))
            y = rng.integers(0, 3, size=n)
            query = rng.normal(size=4)
            assert knn_predict_one(x, y, query, 5) == brute_force_knn(x, y, query, 5)

    def test_distance_tie_uses_lower_index(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        y = np.array([2, 1, 0])
        # query equidistant from all three; k=1 must pick index 0's label
        assert knn_predict_one(x, y, np.zeros(2), k=1) == 2

    def test_vote_tie_falls_back_to_nearest(self):
        x = np.array([[0.1, 0.0], [1.0, 0.0], [-1.05, 0.0], [-1.1, 0.0]])
        y = np.array([1, 1, 0, 0])
        # k=4: two votes each; nearest neighbor (index 0) has label 1
        assert knn_predict_one(x, y, np.zeros(2), k=4) == 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, size=40)
        queries = rng.normal(size=(25, 4))
        batch = knn_predict_batch(x, y, queries, 5, 2)
        for i, q in enumerate(queries):
            assert batch[i] == knn_predict_one(x, y, q, 5)


class TestStratifiedFolds:
    def test_per_fold_class_counts_within_one(self):
        rng = np.random.default_rng(3)
        labels = np.array([0] * 20 + [1] * 21 + [2] * 21)
        folds = stratified_fold_assignments(labels, 5, rng)
        for c in range(3):
            counts = [int(((folds == f) & (labels == c)).sum()) for f in range(5)]
            assert max(counts) - min(counts) <= 1
        assert set(folds) == set(range(5))

    def test_insufficient_subjects(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(InsufficientSubjectsError):
            stratified_fold_assignments(labels, 5, np.random.default_rng(0))


class TestCrossVal:
    def test_perfectly_separated_classes(self):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(0, 0.1, (30, 4)), rng.normal(50, 0.1, (30, 4))])
        y = np.array([0] * 30 + [1] * 30)
        mean, std = cross_val_accuracy(x, y, EvalConfig(), rng, n_repeats=2)
        assert mean == 1.0
        assert std == 0.0

    def test_chance_level_binary(self):
        rng = np.random.default_rng(5)
        n = 10_000
        x = rng.normal(size=(n, 4))
        y = np.array([0, 1] * (n // 2))
        mean, _ = cross_val_accuracy(x, y, EvalConfig(), rng, n_repeats=1)
        assert 0.47 <= mean <= 0.53

    def test_chance_level_three_class(self):
        rng = np.random.default_rng(6)
        n = 9_999
        x = rng.normal(size=(n, 4))
        y = np.arange(n) % 3
        mean, _ = cross_val_accuracy(x, y, EvalConfig(), rng, n_repeats=1)
        assert 1 / 3 - 0.03 <= mean <= 1 / 3 + 0.03

    def test_no_leakage_from_test_fold(self):
        """Permuting test-fold features cannot change training statistics,
        so predictions on an untouched query stay identical."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        folds = stratified_fold_assignments(y, 5, np.random.default_rng(8))
        train = folds != 0
        from qmridesign.classify import _zscore_stats

        mean_a, std_a = _zscore_stats(x[train])
        x_permuted = x.copy()
        test_idx = np.flatnonzero(~train)
        x_permuted[test_idx] = x_permuted[test_idx[::-1]]
        mean_b, std_b = _zscore_stats(x_permuted[train])
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(std_a, std_b)

    def test_constant_feature_does_not_blow_up(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 4))
        x[:, 2] = 7.0
        y = rng.integers(0, 2, size=40)
        mean, _ = cross_val_accuracy(x, y, EvalConfig(), rng, n_repeats=1)
        assert 0.0 <= mean <= 1.0


def brute_force_auc(a, b):
    wins = 0.0
    for x in a:
        for y in b:
            if x > y:
                wins += 1.0
            elif x == y:
                wins += 0.5
    auc = wins / (len(a) * len(b))
    return max(auc, 1.0 - auc)


class TestAuc:
    def test_fully_separated(self):
        assert parameter_auc([1, 2, 3], [10, 11, 12]) == 1.0
        assert parameter_auc([10, 11, 12], [1, 2, 3]) == 1.0  # direction-free

    def test_all_ties(self):
        assert parameter_auc([5.0, 5.0], [5.0, 5.0, 5.0]) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n_a = int(rng.integers(2, 20))
            n_b = int(rng.integers(2, 20))
            # quantized values force tie handling through both paths
            a = np.round(rng.normal(size=n_a), 1)
            b = np.round(rng.normal(size=n_b), 1)
            assert parameter_auc(a, b) == pytest.approx(brute_force_auc(a, b), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parameter_auc([], [1.0])


@pytest.fixture(scope="module")
def env():
    return SimulationEnv(
        distributions=load_tissue_distributions(default_tissue_path()),
        cohort_spec=CohortSpec(),
        scanner=ScannerConfig(),
    )


class TestTaskObjective:
    def test_deterministic_given_seed(self, env):
        protocol = AcquisitionProtocol.adhoc()
        cfg = EvalConfig()
        a = task_objective(protocol, Task.MULTICLASS, env, cfg, np.random.default_rng(11))
        b = task_objective(protocol, Task.MULTICLASS, env, cfg, np.random.default_rng(11))
        assert a == b

    def test_restricts_to_task_classes(self, env):
        protocol = AcquisitionProtocol.adhoc()
        cfg = EvalConfig()
        value = task_objective(protocol, Task.ACTIVE_VS_CHRONIC, env, cfg, np.random.default_rng(12))
        assert 0.0 <= value <= 1.0

    def test_degenerate_protocol_scores_near_chance(self, env):
        # all-zero protocol: every fit is the sentinel, features identical
        protocol = AcquisitionProtocol((0,) * 10)
        cfg = EvalConfig()
        values = [
            task_objective(protocol, Task.ACTIVE_VS_CHRONIC, env, cfg, np.random.default_rng(s))
            for s in range(10)
        ]
        assert 0.3 <= float(np.mean(values)) <= 0.7

    def test_identical_distributions_score_chance(self):
        dists = load_tissue_distributions(default_tissue_path())
        same = {label: dists[TissueClass.ACTIVE] for label in TissueClass}
        same = {
            label: type(d)(
                class_label=label, mean_f=d.mean_f, std_f=d.std_f, mean_d=d.mean_d,
                std_d=d.std_d, mean_dstar=d.mean_dstar, std_dstar=d.std_dstar,
            )
            for label, d in same.items()
        }
        env = SimulationEnv(same, CohortSpec(), ScannerConfig())
        cfg = EvalConfig()
        values = [
            task_objective(AcquisitionProtocol.adhoc(), Task.ACTIVE_VS_CHRONIC, env, cfg,
                           np.random.default_rng(100 + s))
            for s in range(10)
        ]
        assert abs(float(np.mean(values)) - 0.5) < 0.08
