"""Segmented-fit unit tests: exact log-linear data, oracles, fallback tiers.

Noiseless round-trip tolerances assume the usual scale separation between
the perfusion and tissue compartments (d_star well above d); without it the
two-stage method is not defined, so random draws respect that regime.
"""

import warnings

import numpy as np
import pytest

from qmridesign import AcquisitionProtocol, IvimParams, ScannerConfig, fitting, ivim_signal
from qmridesign.fitting import (
    DEFAULT_BOUNDS,
    GRID_POINTS,
    HIGH_B_THRESHOLD,
    REFINE_REL_TOL,
    FitBounds,
    NoB0Error,
    fit_dstar,
    segmented_fit_batch,
)

ADHOC = AcquisitionProtocol.adhoc()
SCANNER = ScannerConfig()


def noiseless_signals(params: IvimParams, protocol=ADHOC, scanner=SCANNER) -> np.ndarray:
    te = protocol.echo_time(scanner)
    return ivim_signal(params, protocol.b_array, te, scanner.t2)


def fit_one(signals, b_values):
    """Segmented fit of one subject: (features, flags) rows of an n = 1 batch."""
    features, flags = segmented_fit_batch(np.asarray(signals)[None, :], b_values)
    return features[0], flags[0]


def fit_dstar_one(signals, b_values, s0, f, d):
    """fit_dstar for one subject: (dstar_est, at_bound) of an n = 1 batch."""
    dstar, at_bound = fit_dstar(signals[None, :], b_values, np.array([s0]), np.array([f]), np.array([d]))
    return dstar[0], at_bound[0]


def noisy_batch(n: int, seed: int) -> np.ndarray:
    """Noisy adhoc-protocol signals for n random subjects in the physio range."""
    rng = np.random.default_rng(seed)
    b = ADHOC.b_array
    te = ADHOC.echo_time(SCANNER)
    signals = np.empty((n, 10))
    for i in range(n):
        params = IvimParams(1.0, rng.uniform(0.02, 0.4), rng.uniform(2e-4, 1.2e-3),
                            rng.uniform(1e-2, 5e-2))
        signals[i] = np.abs(ivim_signal(params, b, te, SCANNER.t2) + rng.normal(0, 0.04, 10))
    return signals


#: the published comparison protocols and a clustered design, as in the benchmark
PANEL = {
    "adhoc": tuple(ADHOC.b_values),
    "crlb_mc": (0, 0, 7, 7, 7, 7, 52, 52, 52, 478),
    "rl_mc": (0, 175, 229, 336, 540, 595, 603, 618, 629, 881),
    "clustered": (0, 0, 0, 100, 100, 100, 100, 1000, 1000, 1000),
}


def reference_fit_dstar(signals, b_values, s0, f, d, bounds=DEFAULT_BOUNDS):
    """The D* search as a plain loop on fresh arrays, with a freeze test every step.

    Returns (dstar, at_bound, (a, b), widths); the third holds each row's
    starting golden-section bracket, the last every row's bracket width
    at each step (see reference_golden_section)."""
    tissue = s0[:, None] * (1.0 - f)[:, None] * np.exp(-b_values[None, :] * d[:, None])
    residual = signals - tissue
    amplitude = s0 * f

    grid = np.exp(np.linspace(np.log(bounds.d_min), np.log(bounds.dstar_max), GRID_POINTS))
    basis = np.exp(-b_values[:, None] * grid[None, :])
    cross = np.einsum("nb,bg->ng", residual, basis)
    scan = (
        (residual * residual).sum(axis=1)[:, None]
        - 2.0 * amplitude[:, None] * cross
        + (amplitude**2)[:, None] * (basis * basis).sum(axis=0)
    )
    scan[grid[None, :] < d[:, None]] = np.inf
    best = scan.argmin(axis=1)
    a = np.maximum(grid[np.maximum(best - 1, 0)], d)
    b = grid[np.minimum(best + 1, GRID_POINTS - 1)]
    start = a, b
    a, b, widths = reference_golden_section(residual, amplitude, b_values, a, b, bounds.d_min)

    dstar = np.clip(0.5 * (a + b), d, bounds.dstar_max)
    inactive = f <= 0.0
    dstar = np.where(inactive, d, dstar)
    edge_tol = 10.0 * REFINE_REL_TOL
    at_lower = (dstar - d) <= edge_tol * np.maximum(dstar, bounds.d_min)
    at_upper = (bounds.dstar_max - dstar) <= edge_tol * bounds.dstar_max
    return dstar, inactive | at_lower | at_upper, start, widths


def reference_golden_section(residual, amplitude, b_values, a, b, d_min):
    """Golden section on the brackets [a, b] as a plain loop, with a freeze
    test every step. Returns the final (a, b) and the list of every row's
    width b - a at each step, the test of step s reading widths[s]."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    neg_b = -b_values
    points = np.empty((len(a), 2))
    widths = []

    def misfit():
        model = amplitude[:, None, None] * np.exp(neg_b[None, None, :] * points[:, :, None])
        return ((residual[:, None, :] - model) ** 2).sum(axis=2).T

    width = b - a
    points[:, 0] = b - golden * width
    points[:, 1] = a + golden * width
    f1, f2 = misfit()
    for _ in range(200):
        widths.append(width)
        active = width > REFINE_REL_TOL * np.maximum(0.5 * (a + b), d_min)
        if not active.any():
            break
        shrink_left = active & (f1 > f2)
        shrink_right = active & ~shrink_left
        a = np.where(shrink_left, points[:, 0], a)
        b = np.where(shrink_right, points[:, 1], b)
        width = b - a
        points[:, 0] = b - golden * width
        points[:, 1] = a + golden * width
        f1, f2 = misfit()
    return a, b, widths


class TestFitHighB:
    def test_exact_monoexponential(self):
        b = np.array([0.0, 50.0, 200.0, 400.0, 800.0])
        s = 0.8 * np.exp(-b * 1e-3)
        (s0_est, f_est, d_est, _), _ = fit_one(s, b)
        assert d_est == pytest.approx(1e-3, rel=1e-7)
        # the extrapolated tissue intercept exp(intercept) = s0 * (1 - f)
        assert s0_est * (1.0 - f_est) == pytest.approx(0.8, rel=1e-7)

    def test_all_low_b_deficient(self):
        b = np.array([0.0, 10.0, 20.0, 30.0, 50.0, 80.0, 100.0, 120.0, 150.0, 199.0])
        _, (deficient, _, _) = fit_one(np.ones(10), b)
        assert deficient

    def test_single_distinct_high_b_deficient(self):
        b = np.array([0.0, 0.0, 7.0, 7.0, 7.0, 7.0, 52.0, 52.0, 52.0, 508.0])
        _, (deficient, _, _) = fit_one(np.ones(10), b)
        assert deficient

    def test_noiseless_biexponential_reference(self):
        # perfusion residual at b >= 200 biases the recovered d upward by a
        # few percent for d_star ~ 1e-2; the exact recovered value is the
        # regression target
        params = IvimParams(1.0, 0.1, 0.3e-3, 10e-3)
        d_est = fit_one(noiseless_signals(params), ADHOC.b_array)[0][2]
        assert d_est == pytest.approx(3.2336e-4, rel=1e-3)  # frozen regression value
        assert d_est == pytest.approx(params.d, rel=0.09)

    def test_noiseless_fast_perfusion_within_two_percent(self):
        # with a faster perfusion compartment the residual is negligible
        params = IvimParams(1.0, 0.1, 0.3e-3, 3e-2)
        d_est = fit_one(noiseless_signals(params), ADHOC.b_array)[0][2]
        assert d_est == pytest.approx(params.d, rel=0.02)

    def test_clamps_to_bounds(self):
        b = np.array([0.0, 200.0, 400.0, 500.0, 600.0, 700.0, 750.0, 800.0, 900.0, 1000.0])
        rising = np.exp(b * 1e-4)  # negative apparent diffusivity
        d_est = fit_one(rising, b)[0][2]
        assert d_est == DEFAULT_BOUNDS.d_min
        steep = np.exp(-b * 2e-2)
        d_est = fit_one(steep, b)[0][2]
        assert d_est == DEFAULT_BOUNDS.d_max


class TestEstimateS0F:
    def test_noiseless_identity(self):
        # fast perfusion: the residual above the threshold is ~1e-5, so f
        # comes back to better than four digits
        params = IvimParams(1.0, 0.17, 0.4e-3, 6e-2)
        (s0_est, f_est, _, _), (_, clamped, _) = fit_one(noiseless_signals(params), ADHOC.b_array)
        te = ADHOC.echo_time(SCANNER)
        assert s0_est == pytest.approx(np.exp(-te / SCANNER.t2), rel=1e-12)
        assert f_est == pytest.approx(params.f, abs=1e-4)
        assert not clamped

    def test_noise_induced_negative_f_clamps(self):
        b = ADHOC.b_array
        # b = 0 signal 1, high-b segment extrapolating to ln S = 0.5 > ln s0
        signals = np.where(b >= HIGH_B_THRESHOLD, np.exp(0.5 - b * 1e-3), 1.0)
        (_, f_est, _, _), (_, clamped, _) = fit_one(signals, b)
        assert f_est == 0.0
        assert clamped

    def test_no_b0_raises(self):
        b = np.linspace(10, 900, 10)
        with pytest.raises(NoB0Error):
            fit_one(np.ones(10), b)


class TestFitDstar:
    def test_noiseless_recovery(self):
        params = IvimParams(1.0, 0.2, 0.4e-3, 2e-2)
        signals = noiseless_signals(params)
        te = ADHOC.echo_time(SCANNER)
        s0_eff = params.s0 * np.exp(-te / SCANNER.t2)
        dstar, at_bound = fit_dstar_one(signals, ADHOC.b_array, s0_eff, params.f, params.d)
        assert dstar == pytest.approx(params.d_star, rel=1e-4)
        assert not at_bound

    def test_f_zero_returns_lower_bound(self):
        signals = noiseless_signals(IvimParams(1.0, 0.0, 0.4e-3, 2e-2))
        dstar, at_bound = fit_dstar_one(signals, ADHOC.b_array, 0.5, 0.0, 0.4e-3)
        assert dstar == 0.4e-3
        assert at_bound

    def test_matches_brute_force_grid(self):
        """Grid + golden-section equals a dense brute-force argmin.

        The oracle is the argmin over a 1,000,000-point log grid on [d, 0.5],
        searched in two passes: every 1000th point, then every point within
        one coarse step of the coarse argmin."""
        rng = np.random.default_rng(10)
        b = ADHOC.b_array
        te = ADHOC.echo_time(SCANNER)
        stride = 1000
        for _ in range(100):
            params = IvimParams(
                1.0,
                rng.uniform(0.05, 0.4),
                rng.uniform(2e-4, 1.5e-3),
                rng.uniform(8e-3, 8e-2),
            )
            clean = ivim_signal(params, b, te, SCANNER.t2)
            noisy = np.abs(clean + rng.normal(0, 0.04, size=10))
            s0_eff = params.s0 * np.exp(-te / SCANNER.t2)
            dstar, _ = fit_dstar_one(noisy, b, s0_eff, params.f, params.d)

            residual = noisy - s0_eff * (1 - params.f) * np.exp(-b * params.d)

            def sse(candidates):
                return ((residual - s0_eff * params.f * np.exp(-np.outer(candidates, b))) ** 2).sum(axis=1)

            grid = np.exp(np.linspace(np.log(params.d), np.log(0.5), 1_000_000))
            coarse = int(np.argmin(sse(grid[::stride]))) * stride
            window = grid[max(coarse - stride, 0) : coarse + stride + 1]
            brute = window[np.argmin(sse(window))]
            assert dstar == pytest.approx(brute, rel=1e-4)

    def test_no_worse_than_any_grid_point(self):
        """Refined D* fits at least as well as every shared grid point >= d.

        Rows that end at a search bound are exempt from the comparison:
        golden section stops inside its final bracket, within
        REFINE_REL_TOL of the bound, so those rows are checked to sit there."""
        bounds = DEFAULT_BOUNDS
        rng = np.random.default_rng(18)
        n = 64
        b = ADHOC.b_array
        te = ADHOC.echo_time(SCANNER)
        truth = np.column_stack([np.ones(n), rng.uniform(0.02, 0.4, n), rng.uniform(2e-4, 1.2e-3, n),
                                 rng.uniform(1e-2, 5e-2, n)])
        signals = np.abs(ivim_signal(truth, b, te, SCANNER.t2) + rng.normal(0, 0.04, (n, 10)))
        s0 = np.full(n, np.exp(-te / SCANNER.t2))
        f = truth[:, 1] + rng.normal(0.0, 0.05, n)  # some f <= 0 rows take the inactive branch
        d = truth[:, 2]
        dstar, at_bound = fit_dstar(signals, b, s0, f, d, bounds)

        residual = signals - s0[:, None] * (1.0 - f)[:, None] * np.exp(-b[None, :] * d[:, None])

        def sse(row, x):
            return ((residual[row] - s0[row] * f[row] * np.exp(-b * x)) ** 2).sum()

        grid = np.exp(np.linspace(np.log(bounds.d_min), np.log(bounds.dstar_max), GRID_POINTS))
        interior = 0
        for row in range(n):
            if f[row] <= 0.0:
                assert dstar[row] == d[row]
            elif at_bound[row]:
                edge = min(abs(dstar[row] - d[row]), abs(bounds.dstar_max - dstar[row]))
                assert edge <= 10.0 * REFINE_REL_TOL * dstar[row]
            else:
                interior += 1
                best_on_grid = min(sse(row, x) for x in grid[grid >= d[row]])
                assert sse(row, dstar[row]) <= best_on_grid * (1.0 + 1e-12)
        assert interior >= n // 2

    @pytest.mark.parametrize("batch", ["all-inactive", "empty", "one-live"])
    def test_inactive_rows_equal_reference_without_warnings(self, batch):
        """Rows with f <= 0 skip the search and return d, flagged. A batch of
        such rows alone, an empty batch, and one f > 0 row among them equal
        the reference loop (which searches every row) bit for bit, and the
        search raises no RuntimeWarning."""
        rng = np.random.default_rng(["all-inactive", "empty", "one-live"].index(batch))
        n = 0 if batch == "empty" else 9
        b = ADHOC.b_array
        signals = noisy_batch(n, 17)
        s0 = np.full(n, np.exp(-ADHOC.echo_time(SCANNER) / SCANNER.t2))
        f = np.where(np.arange(n) % 3 == 0, 0.0, -rng.uniform(0.0, 0.1, n))
        if batch == "one-live":
            f[4] = 0.2
        d = rng.uniform(2e-4, 1.2e-3, n)
        expected = reference_fit_dstar(signals, b, s0, f, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dstar, at_bound = fit_dstar(signals, b, s0, f, d)
        np.testing.assert_array_equal(dstar, expected[0])
        np.testing.assert_array_equal(at_bound, expected[1])
        inactive = f <= 0.0
        np.testing.assert_array_equal(dstar[inactive], d[inactive])
        assert at_bound[inactive].all()
        assert (dstar[~inactive] != d[~inactive]).all()

    @pytest.mark.parametrize("protocol", [*PANEL, "random"])
    def test_refinement_matches_reference_loop(self, protocol, monkeypatch):
        """fit_dstar and segmented_fit_batch equal the plain loop bit for bit.

        Covers SNR 5 / 25 / 600 and batches of 1 to 500 rows, with f <= 0
        rows, all-zero rows, rows whose bracket starts at d (d moved up to
        the true D* in a quarter of the rows), a row with a NaN f, and
        batches in which every step tests for frozen rows: a row whose d
        sits 3e-6 of dstar_max under it starts with a bracket narrower than
        REFINE_REL_TOL / G^3 times its upper end."""
        rng = np.random.default_rng([*PANEL, "random"].index(protocol))
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        # f <= 0, zero signal, bracket at d, NaN f, no step left untested
        covered = np.zeros(5, dtype=int)
        for snr in (5.0, 25.0, 600.0):
            for n in (1, 7, 62, 500):
                if protocol in PANEL:
                    b = np.array(PANEL[protocol], dtype=float)
                else:
                    b = np.sort(np.append(rng.integers(0, 1001, 9), 0)).astype(float)
                te = AcquisitionProtocol(tuple(b)).echo_time(SCANNER)
                truth = np.column_stack([np.ones(n), rng.uniform(0.02, 0.4, n), rng.uniform(2e-4, 1.2e-3, n),
                                         rng.uniform(5e-3, 8e-2, n)])
                clean = ivim_signal(truth, b, te, SCANNER.t2)
                signals = np.abs(clean + rng.normal(0, 1 / snr, clean.shape)
                                 + 1j * rng.normal(0, 1 / snr, clean.shape))
                zero = rng.random(n) < 0.1
                signals[zero] = 0.0
                s0 = np.exp(-te / SCANNER.t2) * (1.0 + rng.normal(0.0, 0.02, n))
                f = truth[:, 1] + rng.normal(0.0, 0.1, n)
                d = np.where(rng.random(n) < 0.25, truth[:, 3], truth[:, 2])
                if n > 1:
                    f[0], d[1] = np.nan, (1.0 - 3e-6) * DEFAULT_BOUNDS.dstar_max
                expected = reference_fit_dstar(signals, b, s0, f, d)
                dstar, at_bound = fit_dstar(signals, b, s0, f, d)
                np.testing.assert_array_equal(dstar, expected[0])
                np.testing.assert_array_equal(at_bound, expected[1])
                live = ~(f <= 0.0)
                a0, b0 = expected[2][0][live], expected[2][1][live]
                ratio = (b0 - a0) / (REFINE_REL_TOL * np.maximum(b0, DEFAULT_BOUNDS.d_min))
                covered += [np.sum(~live), np.sum(zero), np.sum(a0 == d[live]), np.sum(np.isnan(f)),
                            live.any() and ratio.min() < golden**-3]

                features, flags = segmented_fit_batch(signals, b)
                with monkeypatch.context() as patch:
                    patch.setattr(fitting, "fit_dstar", lambda *args: reference_fit_dstar(*args)[:2])
                    expected_features, expected_flags = segmented_fit_batch(signals, b)
                np.testing.assert_array_equal(features, expected_features)
                np.testing.assert_array_equal(flags, expected_flags)
        assert (covered > 0).all()


    @staticmethod
    def assert_unchecked_steps_sound(widths, b0, live):
        """The steps that _refine_dstar runs without any test, counted from
        the live rows' starting widths, leave every live row wider than
        sure = REFINE_REL_TOL * max(starting b, d_min), so no row could have
        frozen in them; by the count's margin, each is even wider than
        sure / G^3 less 1e-8 sure, far more than the 4 ulp of b rounding
        may take. Four steps after them, the narrowest row is no longer
        wider than sure: the count leaves untaken only its margin of two
        steps, the fraction of a step it rounds down, and one step where its
        logarithm rounds below a whole number. Returns the count."""
        sure = REFINE_REL_TOL * np.maximum(b0[live], DEFAULT_BOUNDS.d_min)
        margin = ((np.sqrt(5.0) - 1.0) / 2.0) ** -3 - 1e-8
        unchecked = fitting._unchecked_steps(widths[0][live], sure)
        assert len(widths) > unchecked  # the reference loop ran past them
        for step in range(unchecked):
            assert (widths[step][live] > margin * sure).all(), step
        if live.any() and len(widths) > unchecked + 4:
            assert (widths[unchecked + 4][live] <= sure).any()
        return unchecked

    @pytest.mark.parametrize("protocol", list(PANEL))
    def test_unchecked_steps_on_panel_fits(self, protocol):
        """The unchecked-step count is sound and tight on every batch of the
        reference search over fits of a PANEL protocol, SNR 5 to 600."""
        rng = np.random.default_rng(60 + list(PANEL).index(protocol))
        b = np.array(PANEL[protocol], dtype=float)
        te = AcquisitionProtocol(tuple(b)).echo_time(SCANNER)
        counts = []
        for snr in (5.0, 25.0, 600.0):
            for n in (1, 7, 62, 500):
                truth = np.column_stack([np.ones(n), rng.uniform(0.02, 0.4, n), rng.uniform(2e-4, 1.2e-3, n),
                                         rng.uniform(5e-3, 8e-2, n)])
                clean = ivim_signal(truth, b, te, SCANNER.t2)
                signals = np.abs(clean + rng.normal(0, 1 / snr, clean.shape)
                                 + 1j * rng.normal(0, 1 / snr, clean.shape))
                s0 = np.exp(-te / SCANNER.t2) * (1.0 + rng.normal(0.0, 0.02, n))
                f = truth[:, 1] + rng.normal(0.0, 0.1, n)
                d = np.where(rng.random(n) < 0.25, truth[:, 3], truth[:, 2])
                _, _, (_, b0), widths = reference_fit_dstar(signals, b, s0, f, d)
                counts.append(self.assert_unchecked_steps_sound(widths, b0, ~(f <= 0.0)))
        assert max(counts) > 0

    def test_unchecked_steps_on_random_brackets(self):
        """The same on random brackets from under 1 to 10^6 sure wide, some
        a hair wider than sure / G^k, where rounding the count matters most."""
        rng = np.random.default_rng(70)
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        b_values = np.sort(np.append(rng.integers(0, 1001, 9), 0)).astype(float)
        counts = set()
        for _ in range(100):
            n = int(rng.integers(1, 6))
            b0 = rng.uniform(2e-5, 0.5, n)
            ratio = 10.0 ** rng.uniform(-0.5, 6.0, n)
            edge = rng.random(n) < 0.3
            ratio[edge] = golden ** -rng.integers(1, 29, edge.sum()) * (1.0 + 1e-12)
            a0 = b0 - ratio * REFINE_REL_TOL * np.maximum(b0, DEFAULT_BOUNDS.d_min)
            residual = rng.normal(0.0, 0.05, (n, len(b_values)))
            amplitude = rng.uniform(0.01, 0.4, n)
            *_, widths = reference_golden_section(residual, amplitude, b_values, a0, b0, DEFAULT_BOUNDS.d_min)
            counts.add(self.assert_unchecked_steps_sound(widths, b0, np.ones(n, dtype=bool)))
        assert len(counts) > 20


def test_dstar_ceiling_below_d_max_refused():
    """D* is searched on [d, dstar_max], and d may reach d_max."""
    with pytest.raises(ValueError, match=r"d_max <= dstar_max, got d_max=0\.005, dstar_max=0\.001"):
        FitBounds(dstar_max=0.001)
    assert FitBounds(dstar_max=5.0e-3).dstar_max == 5.0e-3


class TestSegmentedFit:
    def test_noiseless_roundtrip_reference_class(self):
        # frozen regression values for a healthy-like tuple; the d_star
        # error (5.0%) is the perfusion->tissue coupling at d_star = 0.018
        params = IvimParams(1.0, 0.12, 0.31e-3, 1.8e-2)
        (s0_est, f_est, d_est, dstar_est), (deficient, _, _) = fit_one(
            noiseless_signals(params), ADHOC.b_array
        )
        te = ADHOC.echo_time(SCANNER)
        assert s0_est == pytest.approx(np.exp(-te / SCANNER.t2), rel=1e-6)
        assert f_est == pytest.approx(0.116461, rel=1e-4)
        assert d_est == pytest.approx(3.15693e-4, rel=1e-4)
        assert dstar_est == pytest.approx(1.89014e-2, rel=1e-4)
        assert f_est == pytest.approx(params.f, rel=0.05)
        assert d_est == pytest.approx(params.d, rel=0.05)
        assert dstar_est == pytest.approx(params.d_star, rel=0.06)
        assert not deficient

    def test_all_low_b_protocol_gives_sentinel(self):
        b = np.array([0.0, 10.0, 20.0, 30.0, 50.0, 80.0, 100.0, 120.0, 150.0, 199.0])
        (s0_est, f_est, d_est, dstar_est), (deficient, _, _) = fit_one(np.ones(10), b)
        assert deficient
        assert s0_est == 0.0
        assert f_est == 0.0
        assert d_est == DEFAULT_BOUNDS.d_min
        assert dstar_est == DEFAULT_BOUNDS.d_min

    def test_all_zero_protocol_gives_sentinel(self):
        b = np.zeros(10)
        _, (deficient, _, _) = fit_one(np.ones(10), b)
        assert deficient

    @pytest.mark.parametrize("n_high", [1, 2])
    def test_one_distinct_positive_b_gives_sentinel(self, n_high):
        """(0, ..., 0, 500) and (0, ..., 0, 500, 500): the relaxed segment finds
        no second distinct positive b-value, so every row is a sentinel with
        only the deficiency flag set."""
        b = np.array([0.0] * (10 - n_high) + [500.0] * n_high)
        params = np.array([[1.0, 0.1, 1e-3, 2e-2], [1.0, 0.3, 5e-4, 5e-2], [0.8, 0.0, 2e-3, 2e-3]])
        features, flags = segmented_fit_batch(ivim_signal(params, b, 0.05, SCANNER.t2), b)
        sentinel = [0.0, 0.0, DEFAULT_BOUNDS.d_min, DEFAULT_BOUNDS.d_min]
        np.testing.assert_array_equal(features, [sentinel] * 3)
        np.testing.assert_array_equal(flags, [[True, False, False]] * 3)

    def test_single_high_b_relaxes_threshold(self):
        """One point above threshold: fall back to the two largest distinct
        positive b-values instead of collapsing to the sentinel."""
        b = np.array([0.0, 0.0, 7.0, 7.0, 7.0, 7.0, 52.0, 52.0, 52.0, 508.0])
        params = IvimParams(1.0, 0.15, 0.4e-3, 2e-2)
        protocol = AcquisitionProtocol(tuple(b))
        te = protocol.echo_time(SCANNER)
        signals = ivim_signal(params, b, te, SCANNER.t2)
        (s0_est, _, d_est, _), (deficient, _, _) = fit_one(signals, b)
        assert deficient  # fallback is recorded
        # estimates are informative, not sentinel
        assert s0_est > 0.0
        assert 1e-4 < d_est < 2e-3
        # noiseless: the 52/508 log-slope absorbs part of the perfusion decay
        assert d_est == pytest.approx(params.d, rel=0.5)

    def test_no_b0_raises(self):
        b = np.linspace(10, 900, 10)
        with pytest.raises(NoB0Error):
            fit_one(np.ones(10), b)

    def test_empty_batch(self):
        features, flags = segmented_fit_batch(np.empty((0, 10)), ADHOC.b_array)
        assert features.shape == (0, 4)
        assert flags.shape == (0, 3)

    def test_permutation_invariance(self):
        # summation order changes under permutation, so equality holds to
        # floating-point roundoff rather than bit-exactly
        rng = np.random.default_rng(12)
        params = IvimParams(1.0, 0.2, 0.5e-3, 2e-2)
        signals = noiseless_signals(params) + rng.normal(0, 0.02, 10)
        signals = np.abs(signals)
        ref_features, ref_flags = fit_one(signals, ADHOC.b_array)
        for _ in range(5):
            perm = rng.permutation(10)
            features, flags = fit_one(signals[perm], ADHOC.b_array[perm])
            np.testing.assert_allclose(features, ref_features, rtol=1e-9)
            np.testing.assert_array_equal(flags, ref_flags)

    def test_batch_equals_single(self):
        b = ADHOC.b_array
        # 500 rows: a large (n, block, n_acquisitions) tensor in the D* scan
        for n, seed in ((20, 13), (500, 20)):
            signals = noisy_batch(n, seed)
            features, flags = segmented_fit_batch(signals, b)
            for i in range(n):
                row_features, row_flags = fit_one(signals[i], b)
                np.testing.assert_array_equal(features[i], row_features)
                np.testing.assert_array_equal(flags[i], row_flags)

    def test_bounds_always_respected_and_flags_bidirectional(self):
        rng = np.random.default_rng(14)
        b = ADHOC.b_array
        signals = np.abs(rng.normal(0.3, 0.25, size=(500, 10))) + 1e-6
        features, flags = segmented_fit_batch(signals, b)
        s0, f, d, dstar = features.T
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.all((d >= DEFAULT_BOUNDS.d_min) & (d <= DEFAULT_BOUNDS.d_max))
        assert np.all(dstar >= d - 1e-15)
        assert np.all(dstar <= DEFAULT_BOUNDS.dstar_max)
        # f at a clamp boundary iff the clamp flag fired
        at_f_bound = (f == 0.0) | (f == 1.0)
        assert np.array_equal(flags[:, 1], at_f_bound & flags[:, 1])
        # every clamped f sits exactly at a bound
        assert np.all((f[flags[:, 1]] == 0.0) | (f[flags[:, 1]] == 1.0))

    def test_monte_carlo_f_bias(self):
        """Mean f error stays within 0.03 at the clinical noise level."""
        rng = np.random.default_rng(15)
        params = IvimParams(1.0, 0.15, 0.45e-3, 2e-2)
        b = ADHOC.b_array
        te = ADHOC.echo_time(SCANNER)
        clean = ivim_signal(params, b, te, SCANNER.t2)
        n = 10_000
        noisy = np.hypot(clean[None, :] + rng.normal(0, 0.04, (n, 10)),
                         rng.normal(0, 0.04, (n, 10)))
        features, _ = segmented_fit_batch(noisy, b)
        assert abs(features[:, 1].mean() - params.f) < 0.03

    def test_monte_carlo_d_precision(self):
        """Regression-pin the spread of d estimates at the clinical noise level.

        With channel noise at 1/25 of the reference amplitude, the
        log-linear slope over three points carries a coefficient of
        variation around 0.64; the frozen band guards against regressions
        in either direction (a large drop would mean the noise model or
        fit changed)."""
        rng = np.random.default_rng(16)
        params = IvimParams(1.0, 0.15, 0.4e-3, 2e-2)
        b = ADHOC.b_array
        te = ADHOC.echo_time(SCANNER)
        clean = ivim_signal(params, b, te, SCANNER.t2)
        n = 10_000
        noisy = np.hypot(clean[None, :] + rng.normal(0, 0.04, (n, 10)),
                         rng.normal(0, 0.04, (n, 10)))
        features, _ = segmented_fit_batch(noisy, b)
        d = features[:, 2]
        cv = d.std() / d.mean()
        assert 0.55 < cv < 0.72  # measured 0.639 at this seed
        assert d.mean() == pytest.approx(params.d, rel=0.05)  # near-unbiased


class TestNoiselessConsistency:
    def test_roundtrip_over_physio_box(self):
        """Noiseless recovery within 5% (10% for d_star at f < 0.05).

        Draws span the physiological regime; d_star >= max(0.022, 25*d)
        keeps the perfusion residual above the segmentation threshold
        below the tolerance (two-stage fitting is undefined without that
        scale separation)."""
        rng = np.random.default_rng(17)
        te = ADHOC.echo_time(SCANNER)
        b = ADHOC.b_array
        worst = {"f": 0.0, "d": 0.0, "dstar": 0.0}
        for _ in range(1000):
            f = rng.uniform(0.03, 0.30)
            d = rng.uniform(1.5e-4, 1.0e-3)
            dstar = rng.uniform(max(2.2e-2, 25.0 * d), 8e-2)
            params = IvimParams(1.0, f, d, dstar)
            signals = ivim_signal(params, b, te, SCANNER.t2)
            (s0_est, f_est, d_est, dstar_est), _ = fit_one(signals, b)
            s0_eff = np.exp(-te / SCANNER.t2)
            assert s0_est == pytest.approx(s0_eff, rel=0.05)
            assert f_est == pytest.approx(f, rel=0.05, abs=0.01)
            assert d_est == pytest.approx(d, rel=0.05)
            dstar_tol = 0.10 if f < 0.05 else 0.05
            assert dstar_est == pytest.approx(dstar, rel=dstar_tol)
            worst["f"] = max(worst["f"], abs(f_est - f) / f)
            worst["d"] = max(worst["d"], abs(d_est - d) / d)
            worst["dstar"] = max(worst["dstar"], abs(dstar_est - dstar) / dstar)
