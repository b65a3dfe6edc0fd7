"""Signal model unit tests: closed-form values, noise statistics, invariants."""

import math

import numpy as np
import pytest

from qmridesign import (
    AcquisitionProtocol,
    IvimParams,
    ScannerConfig,
    TissueClass,
    add_rician_noise,
    ivim_signal,
    min_te,
    simulate_dataset,
)
from qmridesign.cohort import Cohort
from qmridesign.experiments import protocol_id
from qmridesign.ivim import ADHOC_B_VALUES, B_VALUE_MAX


def simulate_one(params, protocol, scanner, rng):
    """Noisy signal vector of a one-subject cohort."""
    cohort = Cohort(labels=(TissueClass.ACTIVE,), params=params.as_array()[None, :])
    return simulate_dataset(cohort, protocol, scanner, rng).signals[0]


@pytest.fixture
def scanner():
    return ScannerConfig()


class TestIvimParams:
    def test_valid_construction(self):
        p = IvimParams(s0=1.0, f=0.15, d=0.4e-3, d_star=0.02)
        assert p.f == 0.15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s0=0.0, f=0.1, d=1e-3, d_star=1e-2),
            dict(s0=1.0, f=-0.01, d=1e-3, d_star=1e-2),
            dict(s0=1.0, f=1.01, d=1e-3, d_star=1e-2),
            dict(s0=1.0, f=0.1, d=0.0, d_star=1e-2),
            dict(s0=1.0, f=0.1, d=1e-3, d_star=0.0),
            dict(s0=1.0, f=0.1, d=1e-2, d_star=1e-3),  # perfusion slower than tissue
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IvimParams(**kwargs)

    def test_boundary_f_allowed(self):
        IvimParams(s0=1.0, f=0.0, d=1e-3, d_star=1e-2)
        IvimParams(s0=1.0, f=1.0, d=1e-3, d_star=1e-2)


class TestMinTe:
    def test_zero_b_returns_overhead(self, scanner):
        assert min_te(0.0, scanner) == scanner.te_overhead

    def test_reference_value_b800(self, scanner):
        # hand evaluation of the cube-root relation:
        # delta = (3 * b_SI / (2 * gamma^2 * G^2))^(1/3), TE = overhead + 2*delta
        gamma_g_sq = (2.675e8 * 0.033) ** 2
        delta = (3.0 * 800e6 / (2.0 * gamma_g_sq)) ** (1.0 / 3.0)
        expected = 0.020 + 2.0 * delta
        assert math.isclose(expected, 0.0698, abs_tol=2e-4)  # approx 0.0698 s
        assert math.isclose(min_te(800.0, scanner), expected, rel_tol=1e-12)
        assert math.isclose(delta, 0.0249, abs_tol=1e-4)

    def test_monotone_in_b_max(self, scanner):
        tes = [min_te(b, scanner) for b in (0, 1, 10, 100, 500, 800, 1000)]
        assert all(a <= b for a, b in zip(tes, tes[1:]))
        assert min_te(1000.0, scanner) >= min_te(800.0, scanner)

    def test_negative_b_rejected(self, scanner):
        with pytest.raises(ValueError):
            min_te(-1.0, scanner)


class TestScannerConfig:
    def test_noise_sigma(self, scanner):
        assert scanner.noise_sigma == 1.0 / 25.0

    def test_snr_must_exceed_one(self):
        with pytest.raises(ValueError):
            ScannerConfig(snr=1.0)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            ScannerConfig(t2=0.0)


class TestProtocol:
    def test_adhoc_values(self):
        assert AcquisitionProtocol.adhoc().b_values == ADHOC_B_VALUES

    def test_sorted_canonical_form(self):
        p = AcquisitionProtocol((800, 0, 400, 200, 100, 80, 50, 30, 20, 10))
        assert p.b_values == ADHOC_B_VALUES

    def test_negative_zero_stored_as_zero(self):
        """-0 equals 0, so a protocol holding it is adhoc's, stored with +0
        and given adhoc's id, hence adhoc's repeat streams."""
        protocol = AcquisitionProtocol((-0.0, *ADHOC_B_VALUES[1:]))
        assert protocol.b_values == AcquisitionProtocol.adhoc().b_values
        assert math.copysign(1.0, protocol.b_values[0]) == 1.0
        assert protocol_id(protocol) == protocol_id(AcquisitionProtocol.adhoc())

    def test_requires_b0(self):
        with pytest.raises(ValueError):
            AcquisitionProtocol((10, 20, 30, 50, 80, 100, 200, 400, 800, 1000))

    def test_requires_exactly_ten(self):
        with pytest.raises(ValueError):
            AcquisitionProtocol((0, 10, 20))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AcquisitionProtocol((0, 10, 20, 30, 50, 80, 100, 200, 400, 1001))

    @pytest.mark.parametrize("bad, shown", [
        (float("nan"), "got nan"),
        (-5.0, "got -5.0"),
        (1000.5, "got 1000.5"),
        (float("inf"), "got inf"),
    ])
    @pytest.mark.parametrize("slot", [1, 5, 9])
    def test_every_value_range_checked_by_name(self, bad, shown, slot):
        """Each b-value must lie in [0, B_VALUE_MAX], the message naming it:
        a NaN, which sorting leaves in place, passed a check of the first and
        last sorted values only, and a negative value was refused as a
        missing b = 0."""
        values = list(ADHOC_B_VALUES)
        values[slot] = bad
        with pytest.raises(ValueError, match=f"within \\[0, 1000\\], {shown}$"):
            AcquisitionProtocol(tuple(values))

    def test_b_value_max_itself_accepted(self):
        assert AcquisitionProtocol((0,) * 9 + (B_VALUE_MAX,)).b_max == B_VALUE_MAX

    def test_te_recomputed_from_max_b(self, scanner):
        p = AcquisitionProtocol.adhoc()
        assert p.echo_time(scanner) == min_te(800.0, scanner)

    def test_te_penalty_for_larger_max_b(self, scanner):
        low = AcquisitionProtocol((0, 10, 20, 30, 50, 80, 100, 200, 400, 500))
        high = AcquisitionProtocol((0, 10, 20, 30, 50, 80, 100, 200, 400, 1000))
        te_low, te_high = low.echo_time(scanner), high.echo_time(scanner)
        assert te_high > te_low
        params = IvimParams(1.0, 0.15, 0.4e-3, 0.02)
        # longer TE means lower noiseless signal at the shared b = 0
        assert ivim_signal(params, 0.0, te_high, scanner.t2) < ivim_signal(
            params, 0.0, te_low, scanner.t2
        )


class TestIvimSignal:
    def test_b0_te0_returns_s0(self):
        for f in (0.0, 0.1, 0.7):
            p = IvimParams(1.3, f, 1e-3, 2e-2)
            assert ivim_signal(p, 0.0, 0.0, 0.1) == pytest.approx(1.3, rel=1e-15)

    def test_monoexponential_limit(self):
        p = IvimParams(1.0, 0.0, 1e-3, 1e-2)
        assert ivim_signal(p, 500.0, 0.0, 0.1) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_reference_value(self):
        # scalar evaluation of the forward model with independent arithmetic
        p = IvimParams(1.0, 0.1, 0.3e-3, 10e-3)
        expected = math.exp(-0.0698 / 0.1) * (
            0.1 * math.exp(-800 * 10e-3) + 0.9 * math.exp(-800 * 0.3e-3)
        )
        assert expected == pytest.approx(0.3524, abs=2e-4)
        assert ivim_signal(p, 800.0, 0.0698, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_vectorized_matches_scalars(self):
        p = IvimParams(0.9, 0.2, 0.5e-3, 0.03)
        b = np.array([0.0, 13.0, 220.0, 999.0])
        vec = ivim_signal(p, b, 0.05, 0.1)
        for i, bi in enumerate(b):
            assert vec[i] == ivim_signal(p, float(bi), 0.05, 0.1)

    def test_positive_and_bounded_by_s0(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f = rng.uniform(0, 1)
            d = rng.uniform(1e-5, 3e-3)
            p = IvimParams(rng.uniform(0.5, 2.0), f, d, d * rng.uniform(1.0, 100.0))
            s = ivim_signal(p, rng.uniform(0, 1000), rng.uniform(0, 0.1), 0.1)
            assert 0.0 < s <= p.s0

    def test_strictly_decreasing_in_b(self):
        rng = np.random.default_rng(4)
        b = np.linspace(0, 1000, 101)
        for _ in range(50):
            d = rng.uniform(1e-4, 2e-3)
            p = IvimParams(1.0, rng.uniform(0.01, 0.5), d, d * rng.uniform(2, 50))
            s = ivim_signal(p, b, 0.06, 0.1)
            assert np.all(np.diff(s) < 0)

    def test_parameter_rows_match_single_params(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(1e-4, 2e-3, 20)
        rows = np.column_stack(
            [rng.uniform(0.5, 2.0, 20), rng.uniform(0, 1, 20), d, d * rng.uniform(1.0, 100.0, 20)]
        )
        b = np.array([0.0, 13.0, 220.0, 999.0])
        signals = ivim_signal(rows, b, 0.05, 0.1)
        assert signals.shape == (20, 4)
        for row, signal in zip(rows, signals):
            np.testing.assert_array_equal(signal, ivim_signal(IvimParams(*row), b, 0.05, 0.1))


class TestRicianNoise:
    def test_sigma_zero_is_abs(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(add_rician_noise(np.array([0.7, -0.3]), 0.0, rng), [0.7, 0.3])

    def test_output_non_negative(self):
        rng = np.random.default_rng(1)
        out = add_rician_noise(np.full(10_000, 0.01), 0.1, rng)
        assert np.all(out >= 0)

    def test_zero_signal_rayleigh_mean(self):
        # E[sqrt(xi1^2 + xi2^2)] = sigma * sqrt(pi/2) for zero signal
        rng = np.random.default_rng(2)
        sigma = 0.04
        draws = add_rician_noise(np.zeros(2_000_000), sigma, rng)
        expected = sigma * math.sqrt(math.pi / 2.0)
        assert expected == pytest.approx(0.0501, abs=2e-4)
        assert draws.mean() == pytest.approx(expected, abs=2e-4)

    def test_high_snr_bias_second_order(self):
        # at signal/sigma = 25 the magnitude bias is ~sigma^2/(2*signal)
        rng = np.random.default_rng(5)
        draws = add_rician_noise(np.ones(2_000_000), 0.04, rng)
        assert 1.0 <= draws.mean() <= 1.001

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_rician_noise(np.ones(1), -0.1, np.random.default_rng(0))


class TestSimulateAcquisition:
    def test_noiseless_matches_forward_model(self):
        scanner = ScannerConfig(snr=1e12)  # sigma ~ 0
        p = IvimParams(1.0, 0.12, 0.4e-3, 0.02)
        protocol = AcquisitionProtocol.adhoc()
        rng = np.random.default_rng(0)
        sim = simulate_one(p, protocol, scanner, rng)
        te = protocol.echo_time(scanner)
        clean = ivim_signal(p, protocol.b_array, te, scanner.t2)
        np.testing.assert_allclose(sim, clean, rtol=1e-6)

    def test_repeated_b_values_get_independent_noise(self, scanner):
        protocol = AcquisitionProtocol((0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        p = IvimParams(1.0, 0.1, 1e-3, 1e-2)
        sim = simulate_one(p, protocol, scanner, np.random.default_rng(6))
        assert len(np.unique(sim)) == len(sim)

    def test_deterministic_given_seed(self, scanner):
        p = IvimParams(1.0, 0.15, 0.5e-3, 0.02)
        protocol = AcquisitionProtocol.adhoc()
        a = simulate_one(p, protocol, scanner, np.random.default_rng(42))
        b = simulate_one(p, protocol, scanner, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_noise_level_matches_sigma(self, scanner):
        # per-element values stay within a generous Monte-Carlo envelope of
        # the noiseless signal: mean error ~ sigma/sqrt(n) per b-value
        p = IvimParams(1.0, 0.15, 0.5e-3, 0.02)
        protocol = AcquisitionProtocol.adhoc()
        te = protocol.echo_time(scanner)
        clean = ivim_signal(p, protocol.b_array, te, scanner.t2)
        rng = np.random.default_rng(7)
        n = 200_000
        acc = np.zeros(len(clean))
        for _ in range(n // 10_000):
            block = np.tile(clean, (10_000, 1))
            acc += add_rician_noise(block, scanner.noise_sigma, rng).sum(axis=0)
        means = acc / n
        sigma = scanner.noise_sigma
        # Rician mean exceeds the clean signal by <= sigma^2/(2*S) + tolerance
        bias_bound = sigma**2 / (2.0 * clean)
        tol = 5.0 * sigma / math.sqrt(n)
        assert np.all(means >= clean - tol)
        assert np.all(means <= clean + bias_bound + tol)
