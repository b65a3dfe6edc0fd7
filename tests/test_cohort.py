"""Cohort sampling: counts, truncation statistics, determinism."""

import numpy as np
import pytest

from qmridesign import (
    AcquisitionProtocol,
    CohortSpec,
    IvimParams,
    ScannerConfig,
    TissueClass,
    TissueDistribution,
    ivim_signal,
    sample_cohort,
    simulate_dataset,
)
from qmridesign.cohort import Cohort, MissingDistributionError
from qmridesign.config import default_tissue_path, load_tissue_distributions


@pytest.fixture(scope="module")
def default_distributions():
    return load_tissue_distributions(default_tissue_path())


def test_default_spec_counts(default_distributions):
    cohort = sample_cohort(default_distributions, CohortSpec(), np.random.default_rng(0))
    assert len(cohort) == 62
    # class codes follow the spec's order: active, chronic, healthy
    np.testing.assert_array_equal(np.bincount(cohort.labels), [20, 21, 21])


def test_zero_std_yields_identical_params():
    dist = TissueDistribution(
        mean_f=0.2, std_f=0.0, mean_d=4e-4, std_d=0.0,
        mean_dstar=2e-2, std_dstar=0.0,
    )
    spec = CohortSpec({TissueClass.ACTIVE: 15})
    cohort = sample_cohort({TissueClass.ACTIVE: dist}, spec, np.random.default_rng(1))
    assert np.all(cohort.params == cohort.params[0])
    np.testing.assert_allclose(cohort.params[0], [1.0, 0.2, 4e-4, 2e-2])


def test_missing_distribution_names_class(default_distributions):
    dists = dict(default_distributions)
    del dists[TissueClass.CHRONIC]
    with pytest.raises(MissingDistributionError, match="chronic"):
        sample_cohort(dists, CohortSpec(), np.random.default_rng(0))


def test_empty_cohort_and_dataset(default_distributions):
    cohort = sample_cohort(default_distributions, CohortSpec({}), np.random.default_rng(0))
    assert len(cohort) == 0
    ds = simulate_dataset(cohort, AcquisitionProtocol.adhoc(), ScannerConfig(), np.random.default_rng(0))
    assert len(ds) == 0
    assert ds.signals.shape == (0, 10)


def test_large_sample_moments(default_distributions):
    """Empirical means within 1% and stds within 2% of configured values."""
    dist = default_distributions[TissueClass.ACTIVE]
    spec = CohortSpec({TissueClass.ACTIVE: 100_000})
    cohort = sample_cohort(default_distributions, spec, np.random.default_rng(2))
    f, d, dstar = cohort.params[:, 1], cohort.params[:, 2], cohort.params[:, 3]
    assert f.mean() == pytest.approx(dist.mean_f, rel=0.01)
    assert d.mean() == pytest.approx(dist.mean_d, rel=0.01)
    assert dstar.mean() == pytest.approx(dist.mean_dstar, rel=0.01)
    assert f.std() == pytest.approx(dist.std_f, rel=0.02)
    assert d.std() == pytest.approx(dist.std_d, rel=0.02)
    assert dstar.std() == pytest.approx(dist.std_dstar, rel=0.02)


def test_truncation_bounds_hold(default_distributions):
    spec = CohortSpec({label: 2000 for label in TissueClass})
    cohort = sample_cohort(default_distributions, spec, np.random.default_rng(3))
    f, d, dstar = cohort.params[:, 1], cohort.params[:, 2], cohort.params[:, 3]
    assert np.all((f >= 0.001) & (f <= 0.999))
    assert np.all(d > 0)
    assert np.all(dstar >= d)
    assert np.all(cohort.params[:, 0] == 1.0)  # s0 pinned


def test_simulated_dataset_shape_and_roundtrip(default_distributions):
    protocol = AcquisitionProtocol.adhoc()
    scanner = ScannerConfig()
    cohort = sample_cohort(default_distributions, CohortSpec(), np.random.default_rng(4))
    ds = simulate_dataset(cohort, protocol, scanner, np.random.default_rng(5))
    assert ds.signals.shape == (62, 10)
    np.testing.assert_array_equal(ds.b_values, protocol.b_array)
    np.testing.assert_array_equal(ds.labels, cohort.labels)


def test_same_seed_same_dataset(default_distributions):
    protocol = AcquisitionProtocol.adhoc()
    scanner = ScannerConfig()

    def build(seed):
        rng = np.random.default_rng(seed)
        cohort = sample_cohort(default_distributions, CohortSpec(), rng)
        return simulate_dataset(cohort, protocol, scanner, rng)

    a, b = build(11), build(11)
    np.testing.assert_array_equal(a.signals, b.signals)


@pytest.mark.parametrize("snr", [5.0, 25.0])
@pytest.mark.parametrize(
    "b_values",
    [AcquisitionProtocol.adhoc().b_values, (0, 0, 7, 7, 7, 7, 52, 52, 52, 478)],
    ids=["adhoc", "crlb_mc"],
)
def test_simulate_dataset_equals_per_subject_loop(default_distributions, b_values, snr):
    """The vectorized simulation reproduces the per-subject loop bit for bit."""
    protocol = AcquisitionProtocol(b_values)
    scanner = ScannerConfig(snr=snr)
    rng = np.random.default_rng(21)
    sampled = sample_cohort(default_distributions, CohortSpec(), rng)
    params = sampled.params.copy()
    params[:, 0] = rng.uniform(0.5, 1.5, len(params))  # s0 != 1 exposes reassociation
    cohort = Cohort(labels=sampled.labels, params=params)

    ds = simulate_dataset(cohort, protocol, scanner, np.random.default_rng(22))

    # one subject at a time: clean signal, then its real and imaginary channel draws
    rng = np.random.default_rng(22)
    te = protocol.echo_time(scanner)
    expected = []
    for row in cohort.params:
        clean = ivim_signal(IvimParams(*row), protocol.b_array, te, scanner.t2)
        xi1 = rng.normal(0.0, scanner.noise_sigma, size=clean.shape)
        xi2 = rng.normal(0.0, scanner.noise_sigma, size=clean.shape)
        expected.append(np.hypot(clean + xi1, xi2))
    np.testing.assert_array_equal(ds.signals, np.array(expected))


@pytest.mark.parametrize(
    "bad_row",
    [
        (0.0, 0.2, 1e-3, 2e-2),    # s0 <= 0
        (1.0, -0.1, 1e-3, 2e-2),   # f < 0
        (1.0, 1.2, 1e-3, 2e-2),    # f > 1
        (1.0, 0.2, 0.0, 2e-2),     # d <= 0
        (1.0, 0.2, -1e-3, -5e-4),  # d_star <= 0
        (1.0, 0.2, 1e-3, 5e-4),    # d_star < d
    ],
)
def test_simulate_dataset_rejects_invalid_params(bad_row):
    good = (1.0, 0.2, 1e-3, 2e-2)
    cohort = Cohort(
        labels=np.array([0, 0]),
        params=np.array([good, bad_row]),
    )
    with pytest.raises(ValueError, match="subject 1"):
        simulate_dataset(cohort, AcquisitionProtocol.adhoc(), ScannerConfig(), np.random.default_rng(0))
