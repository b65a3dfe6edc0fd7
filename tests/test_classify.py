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
    K_NEIGHBORS,
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
    """Predicted label of one query point: one split, one query of knn_predict_batch."""
    train_y = np.asarray(train_y)
    return int(knn_predict_batch(train_x[None], train_y[None], query[None, None, :], k)[0, 0])


def sorted_knn_reference(train_features, train_labels, query_features, k):
    """knn_predict_batch by a full stable sort of every query's candidate rows."""
    padding = train_labels < 0
    k = min(k, train_labels.shape[1])
    diff = query_features[:, :, None, :] - train_features[:, None, :, :]
    dist_sq = np.where(padding[:, None, :], np.inf, np.einsum("sqtf,sqtf->sqt", diff, diff))
    order = np.argsort(dist_sq, axis=2, kind="stable")  # stable: index breaks ties
    top = np.take_along_axis(train_labels[:, None, :], order[:, :, :k], axis=2)
    counts = (top[..., None] == np.arange(train_labels.max() + 1)).sum(axis=2)
    tied = (counts == counts.max(axis=2, keepdims=True)).sum(axis=2) > 1
    return np.where(tied, top[:, :, 0], counts.argmax(axis=2))


def zscore_knn_reference(features, labels, folds, k, n_classes):
    """Per-fold accuracies of one fold assignment, one split at a time.

    Training statistics via mean/std over features[train], then a 2-D KNN
    per fold with the (distance, index) order and nearest-label vote fallback.
    """
    accuracies = []
    for fold in range(int(folds.max()) + 1):
        test = folds == fold
        train = ~test
        mean = features[train].mean(axis=0)
        std = features[train].std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        train_z = (features[train] - mean) / std
        test_z = (features[test] - mean) / std
        diff = test_z[:, None, :] - train_z[None, :, :]
        order = np.argsort(np.einsum("qtf,qtf->qt", diff, diff), axis=1, kind="stable")
        top = labels[train][order[:, :k]]
        counts = np.stack([(top == c).sum(axis=1) for c in range(n_classes)], axis=1)
        tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
        pred = np.where(tied, top[:, 0], counts.argmax(axis=1))
        accuracies.append(float((pred == labels[test]).mean()))
    return accuracies


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
        batch = knn_predict_batch(x[None], y[None], queries[None], 5)[0]
        for i, q in enumerate(queries):
            assert batch[i] == knn_predict_one(x, y, q, 5)

    def test_splits_vote_among_their_own_rows(self):
        """Each split of a stack predicts as if alone; padding rows never vote."""
        rng = np.random.default_rng(3)
        x = np.round(rng.normal(size=(3, 30, 4)), 1)  # rounded: tied distances
        y = rng.integers(0, 3, size=(3, 30))
        y[1, 4:] = -1  # a split with 4 real rows, fewer than k
        y[2, ::2] = -1
        queries = rng.normal(size=(3, 12, 4))
        stacked = knn_predict_batch(x, y, queries, 5)
        for s in range(3):
            real = y[s] >= 0
            for i, q in enumerate(queries[s]):
                assert stacked[s, i] == brute_force_knn(x[s][real], y[s][real], q, 5)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_equals_sorted_reference(self, k):
        """Partial selection predicts exactly what a full stable sort does,
        with ties at the k-th distance, padding rows and fewer real rows than k.

        Both tie-breaks run: calls where some query has more rows tied at the
        k-th distance than there is room for, and calls with ties that all
        fit. Two cases place rows at 0, +-1, +-2, ... (one of them with 0
        twice) on one axis around queries at the origin, so that either
        every tie fits or one overflows, whatever k is."""
        rng = np.random.default_rng(40 + k)
        overflowing = fitting = 0
        for case in range(14):
            n_splits, n_train, n_classes = 3, int(rng.integers(4, 25)), int(rng.integers(2, 4))
            if case < 12:
                x = rng.integers(-2, 3, size=(n_splits, n_train, 2)).astype(float)  # coarse: ties
                y = rng.integers(0, n_classes, size=(n_splits, n_train))
                y[rng.random((n_splits, n_train)) < 0.3] = -1
                y[:, 0] = rng.integers(0, n_classes, size=n_splits)  # a real row per split
                if case % 4 == 0:
                    y[0, 2:] = -1  # at most 2 real rows
                queries = rng.integers(-2, 3, size=(n_splits, 9, 2)).astype(float)
            else:
                axis = np.concatenate([[0.0] * (case - 11), *([i, -i] for i in range(1, 12))])
                n_train = len(axis)
                x = np.zeros((n_splits, n_train, 2))
                x[:, :, 0] = [rng.permutation(axis) for _ in range(n_splits)]
                y = rng.integers(0, n_classes, size=(n_splits, n_train))
                queries = np.zeros((n_splits, 9, 2))
            np.testing.assert_array_equal(
                knn_predict_batch(x, y, queries, k), sorted_knn_reference(x, y, queries, k)
            )
            diff = queries[:, :, None, :] - x[:, None, :, :]
            dist = np.where(y[:, None, :] < 0, np.inf, (diff**2).sum(axis=3))
            room = min(k, n_train)
            kth = np.sort(dist, axis=2)[:, :, room - 1, None]
            if ((dist <= kth).sum(axis=2) > room).any():
                overflowing += 1
            elif (np.isfinite(kth[:, :, 0]) & ((dist == kth).sum(axis=2) > 1)).any():
                fitting += 1
        assert overflowing > 0
        assert fitting > 0 or k == 1  # a tie at the first distance always overflows one slot

    def test_split_without_training_rows_rejected(self):
        y = np.zeros((2, 5), dtype=int)
        y[1] = -1
        with pytest.raises(ValueError):
            knn_predict_batch(np.zeros((2, 5, 4)), y, np.zeros((2, 1, 4)), 5)


class TestStratifiedFolds:
    def test_per_fold_class_counts_within_one(self):
        rng = np.random.default_rng(3)
        labels = np.array([0] * 20 + [1] * 21 + [2] * 21)
        folds = stratified_fold_assignments(labels, rng)
        for c in range(3):
            counts = [int(((folds == f) & (labels == c)).sum()) for f in range(5)]
            assert max(counts) - min(counts) <= 1
        assert set(folds) == set(range(5))

    def test_insufficient_subjects(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(InsufficientSubjectsError):
            stratified_fold_assignments(labels, np.random.default_rng(0))

    def test_insufficient_subjects_message_names_the_class_code(self):
        labels = np.array([0] * 4 + [1] * 4)
        with pytest.raises(InsufficientSubjectsError) as err:
            stratified_fold_assignments(labels, np.random.default_rng(0))
        assert str(err.value) == "class 0 has 4 subjects, fewer than 5 folds"


class TestCrossVal:
    def test_perfectly_separated_classes(self):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(0, 0.1, (30, 4)), rng.normal(50, 0.1, (30, 4))])
        y = np.array([0] * 30 + [1] * 30)
        mean = cross_val_accuracy(x, y, rng, n_repeats=2)
        assert mean == 1.0

    def test_chance_level_binary(self):
        rng = np.random.default_rng(5)
        n = 10_000
        x = rng.normal(size=(n, 4))
        y = np.array([0, 1] * (n // 2))
        mean = cross_val_accuracy(x, y, rng, n_repeats=1)
        assert 0.47 <= mean <= 0.53

    def test_chance_level_three_class(self):
        rng = np.random.default_rng(6)
        n = 9_999
        x = rng.normal(size=(n, 4))
        y = np.arange(n) % 3
        mean = cross_val_accuracy(x, y, rng, n_repeats=1)
        assert 1 / 3 - 0.03 <= mean <= 1 / 3 + 0.03

    def test_no_leakage_from_test_fold(self):
        """Rearranging a test fold's rows cannot change the training statistics.

        Features are multiples of 1/16 and every split trains on 32 rows, so
        every statistic is exact in any summation order: shuffling fold 0's
        features among its same-class subjects must leave the result
        bit-identical (fold assignments depend on labels only)."""
        rng = np.random.default_rng(7)
        x = rng.integers(-512, 512, size=(40, 4)) / 16.0
        y = np.arange(40) % 2
        folds = stratified_fold_assignments(y, np.random.default_rng(8))
        x_shuffled = x.copy()
        for c in range(2):
            idx = np.flatnonzero((folds == 0) & (y == c))
            x_shuffled[idx] = x[rng.permutation(idx)]
        assert not np.array_equal(x_shuffled, x)
        before = cross_val_accuracy(x, y, np.random.default_rng(8), n_repeats=1)
        after = cross_val_accuracy(x_shuffled, y, np.random.default_rng(8), n_repeats=1)
        assert before == after

    @pytest.mark.parametrize("n_repeats", [1, 3])
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("ties", ["none", "duplicates", "sentinels"])
    def test_equals_per_split_reference(self, n_repeats, n_classes, ties):
        """All splits in one tensor equal a z-score-then-KNN loop, bit for bit."""
        rng = np.random.default_rng(20 + n_classes)
        n = 31 * n_classes
        x = rng.normal(size=(n, 4)) * np.array([1.0, 0.1, 1e-3, 1e-2])
        y = rng.permutation(np.arange(n) % n_classes)
        if ties == "duplicates":
            x[rng.integers(0, n, n // 2)] = x[rng.integers(0, n, n // 2)]
        elif ties == "sentinels":
            x[rng.random(n) < 0.4] = [0.0, 0.0, 1e-5, 1e-5]  # failed fits, all one point
        seed = 30 + n_repeats
        fold_rng = np.random.default_rng(seed)
        pooled = []
        for _ in range(n_repeats):
            folds = stratified_fold_assignments(y, fold_rng)
            pooled += zscore_knn_reference(x, y, folds, K_NEIGHBORS, n_classes)
        expected = float(np.mean(pooled))
        got = cross_val_accuracy(x, y, np.random.default_rng(seed), n_repeats=n_repeats)
        np.testing.assert_equal(got, expected)

    @pytest.mark.parametrize("n_repeats", [1, 3])
    def test_draws_as_per_repeat_fold_dealing(self, n_repeats):
        """One call leaves its generator where n_repeats calls of
        stratified_fold_assignments leave it, and where one permutation per
        class and repeat leaves it: the same draws, in the same order."""
        rng = np.random.default_rng(40 + n_repeats)
        y = rng.permutation(np.arange(62) % 3)
        x = rng.normal(size=(62, 4))
        fold_rng = np.random.default_rng(50 + n_repeats)
        draw_rng = np.random.default_rng(50 + n_repeats)
        for _ in range(n_repeats):
            stratified_fold_assignments(y, fold_rng)
            for c in range(3):
                draw_rng.permutation(np.flatnonzero(y == c))
        cv_rng = np.random.default_rng(50 + n_repeats)
        cross_val_accuracy(x, y, cv_rng, n_repeats=n_repeats)
        assert cv_rng.bit_generator.state == fold_rng.bit_generator.state
        assert cv_rng.bit_generator.state == draw_rng.bit_generator.state

    def test_zero_repeats_refused(self):
        y = np.arange(20) % 2
        with pytest.raises(ValueError, match="n_repeats must be >= 1, got 0"):
            cross_val_accuracy(np.zeros((20, 4)), y, np.random.default_rng(0), n_repeats=0)

    def test_constant_feature_does_not_blow_up(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 4))
        x[:, 2] = 7.0
        y = rng.integers(0, 2, size=40)
        mean = cross_val_accuracy(x, y, rng, n_repeats=1)
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

    def test_tie_heavy_equals_pairwise_count(self):
        """Few distinct values, long tie groups: equal to the pairwise count
        bit for bit (both sums are exact multiples of 0.5)."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_values = int(rng.integers(1, 5))
            a = rng.integers(0, n_values, size=int(rng.integers(1, 60))).astype(float)
            b = rng.integers(0, n_values, size=int(rng.integers(1, 60))).astype(float)
            assert parameter_auc(a, b) == brute_force_auc(a, b)

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
        env = SimulationEnv(same, CohortSpec(), ScannerConfig())
        cfg = EvalConfig()
        values = [
            task_objective(AcquisitionProtocol.adhoc(), Task.ACTIVE_VS_CHRONIC, env, cfg,
                           np.random.default_rng(100 + s))
            for s in range(10)
        ]
        assert abs(float(np.mean(values)) - 0.5) < 0.08
