"""Variance-bound machinery: analytic jacobians vs finite differences,
Fisher matrix properties, objective behavior, annealing contracts."""

import warnings

import numpy as np
import pytest

from qmridesign import (
    AcquisitionProtocol,
    CrlbConfig,
    IvimParams,
    ScannerConfig,
    TissueClass,
    crlb_objective,
    fisher_matrix,
    optimize_crlb,
    signal_jacobian,
)
from qmridesign.crlb import (
    SCORED_PARAMS,
    SINGULAR_PENALTY,
    _certified_regular,
    _sample_cost,
    anneal_b_values,
    draw_tissue_samples,
)
from qmridesign.config import default_tissue_path, load_tissue_distributions
from qmridesign.ivim import ADHOC_B_VALUES, PARAM_NAMES, ivim_signal, min_te


def jacobian_of(params, b, te, t2):
    """(n_b, 4) partials of one parameter tuple at the b-values ``b``."""
    b_values = np.atleast_1d(np.asarray(b, dtype=float))
    return signal_jacobian(b_values, te, t2, params.as_array()[None, :])[0]


def fisher_of(params, protocol, scanner):
    """4x4 Fisher information of ``protocol`` at one parameter tuple."""
    te = protocol.echo_time(scanner)
    return fisher_matrix(protocol.b_array, te, scanner, params.as_array()[None, :])[0]


def random_params(rng):
    f = rng.uniform(0.02, 0.5)
    d = rng.uniform(1e-4, 2e-3)
    return IvimParams(rng.uniform(0.5, 2.0), f, d, d * rng.uniform(3.0, 60.0))


def numeric_jacobian(params, b, te, t2, rel_step=1e-7):
    """Central finite differences with parameter-scaled steps."""
    base = params.as_array()
    out = np.empty(4)
    for i in range(4):
        h = rel_step * max(abs(base[i]), 1e-12)
        hi, lo = base.copy(), base.copy()
        hi[i] += h
        lo[i] -= h
        s_hi = ivim_signal(IvimParams(*hi), b, te, t2)
        s_lo = ivim_signal(IvimParams(*lo), b, te, t2)
        out[i] = (s_hi - s_lo) / (2.0 * h)
    return out


def reference_jacobian(b_values, te, t2, params):
    """The jacobian as first written: four (m, n_b) partials stacked on the
    last axis. signal_jacobian must equal it bit for bit."""
    s0 = params[:, 0][:, None]
    f = params[:, 1][:, None]
    d = params[:, 2][:, None]
    dstar = params[:, 3][:, None]
    b = b_values[None, :]
    decay = np.exp(-te / t2)
    e_star = np.exp(-b * dstar)
    e_tissue = np.exp(-b * d)
    return np.stack(
        [
            decay * (f * e_star + (1.0 - f) * e_tissue),
            s0 * decay * (e_star - e_tissue),
            -b * s0 * decay * (1.0 - f) * e_tissue,
            -b * s0 * decay * f * e_star,
        ],
        axis=-1,
    )


def reference_fisher(b_values, te, scanner, params):
    """The Fisher matrices as first written, one einsum over the reference
    jacobian. fisher_matrix must equal it bit for bit."""
    jac = reference_jacobian(b_values, te, scanner.t2, params)
    return np.einsum("mbi,mbj->mij", jac, jac) / scanner.noise_sigma**2


class TestSignalJacobian:
    def test_b0_partials(self):
        p = IvimParams(1.2, 0.3, 1e-3, 2e-2)
        jac = jacobian_of(p, 0.0, te=0.05, t2=0.1)[0]
        decay = np.exp(-0.5)
        np.testing.assert_allclose(jac, [decay, 0.0, 0.0, 0.0], atol=1e-15)

    def test_f_zero_kills_dstar_partial(self):
        p = IvimParams(1.0, 0.0, 1e-3, 2e-2)
        jac = jacobian_of(p, 300.0, te=0.05, t2=0.1)[0]
        assert jac[3] == 0.0

    def test_matches_finite_differences(self):
        """Analytic partials within 1e-6 relative of central differences."""
        rng = np.random.default_rng(20)
        for _ in range(100):
            p = random_params(rng)
            b = float(rng.uniform(0.0, 1000.0))
            te = float(rng.uniform(0.02, 0.09))
            analytic = jacobian_of(p, b, te, 0.1)[0]
            numeric = numeric_jacobian(p, b, te, 0.1)
            scale = np.abs(analytic) + 1e-9 * np.abs(analytic).max()
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6 * scale.max())

    def test_vectorized_over_b(self):
        p = IvimParams(1.0, 0.2, 5e-4, 2e-2)
        b = np.array([0.0, 100.0, 700.0])
        jac = jacobian_of(p, b, 0.05, 0.1)
        assert jac.shape == (3, 4)
        for i, bi in enumerate(b):
            np.testing.assert_array_equal(jac[i], jacobian_of(p, float(bi), 0.05, 0.1)[0])

    def test_vectorized_over_samples(self):
        rng = np.random.default_rng(32)
        params = [random_params(rng) for _ in range(6)]
        b = np.array([0.0, 100.0, 700.0])
        jac = signal_jacobian(b, 0.05, 0.1, np.array([p.as_array() for p in params]))
        assert jac.shape == (6, 3, 4)
        for i, p in enumerate(params):
            np.testing.assert_array_equal(jac[i], jacobian_of(p, b, 0.05, 0.1))


class TestFisherMatrix:
    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(21)
        scanner = ScannerConfig()
        for _ in range(50):
            fisher = fisher_of(random_params(rng), AcquisitionProtocol.adhoc(), scanner)
            np.testing.assert_allclose(fisher, fisher.T, rtol=1e-12)
            eigvals = np.linalg.eigvalsh(fisher)
            assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)

    def test_all_b0_rank_one(self):
        protocol = AcquisitionProtocol((0.0,) * 10)
        fisher = fisher_of(IvimParams(1.0, 0.2, 1e-3, 2e-2), protocol, ScannerConfig())
        assert np.linalg.matrix_rank(fisher, tol=1e-9) == 1

    def test_sigma_scaling(self):
        p = IvimParams(1.0, 0.2, 1e-3, 2e-2)
        protocol = AcquisitionProtocol.adhoc()
        f_snr25 = fisher_of(p, protocol, ScannerConfig(snr=25.0))
        f_snr12_5 = fisher_of(p, protocol, ScannerConfig(snr=12.5))
        # doubling sigma divides every entry by four
        np.testing.assert_allclose(f_snr12_5, f_snr25 / 4.0, rtol=1e-12)

    def test_matches_numeric_jacobian_construction(self):
        rng = np.random.default_rng(22)
        scanner = ScannerConfig()
        protocol = AcquisitionProtocol.adhoc()
        p = random_params(rng)
        te = protocol.echo_time(scanner)
        jac = np.array([numeric_jacobian(p, float(b), te, scanner.t2) for b in protocol.b_values])
        expected = jac.T @ jac / scanner.noise_sigma**2
        np.testing.assert_allclose(fisher_of(p, protocol, scanner), expected, rtol=1e-6)


class TestKernelBits:
    """The plane jacobian and the 10-entry Fisher sum keep every bit of the
    stacked jacobian and the einsum."""

    @pytest.mark.parametrize("m", [1, 2, 3, 100])
    @pytest.mark.parametrize("n_b", [1, 2, 10, 17])
    def test_equal_to_reference_kernels(self, m, n_b):
        rng = np.random.default_rng(1000 * m + n_b)
        scanner = ScannerConfig()
        zero_b = np.zeros(n_b)
        cases = [zero_b] + [rng.integers(0, 1001, n_b).astype(float) for _ in range(5)]
        for b in cases:
            params = np.array([random_params(rng).as_array() for _ in range(m)])
            te = float(rng.uniform(0.02, 0.09))
            assert signal_jacobian(b, te, scanner.t2, params).tobytes() == \
                reference_jacobian(b, te, scanner.t2, params).tobytes(), b
            assert fisher_matrix(b, te, scanner, params).tobytes() == \
                reference_fisher(b, te, scanner, params).tobytes(), b
        # at b = 0 the f, d and d_star partials are zeros, two of them -0.0;
        # the sums of their products must come out +0.0, as the einsum's do
        fisher = fisher_matrix(zero_b, 0.05, scanner, params)
        assert (fisher == 0.0).sum() == 15 * m
        assert not np.signbit(fisher).any()


class TestCrlbObjective:
    def test_all_b0_penalty(self):
        protocol = AcquisitionProtocol((0.0,) * 10)
        cost = crlb_objective(protocol, np.array([[1.0, 0.2, 1e-3, 2e-2]]), ScannerConfig())
        assert cost == SINGULAR_PENALTY

    @pytest.mark.parametrize("samples", [np.empty((0, 4)), np.array([[1.0, 0.2, 1e-3, 5e-4]])])
    def test_empty_or_invalid_samples_rejected(self, samples):
        with pytest.raises(ValueError):
            crlb_objective(AcquisitionProtocol.adhoc(), samples, ScannerConfig())

    def test_information_monotonicity(self):
        """Adding an informative measurement cannot raise any bound diagonal."""
        rng = np.random.default_rng(23)
        scanner = ScannerConfig()
        p = IvimParams(1.0, 0.2, 8e-4, 2.5e-2)
        protocol = AcquisitionProtocol.adhoc()
        te = protocol.echo_time(scanner)
        jac = jacobian_of(p, protocol.b_array, te, scanner.t2)
        fisher = jac.T @ jac / scanner.noise_sigma**2
        for _ in range(20):
            extra_b = float(rng.uniform(1.0, 1000.0))
            extra = jacobian_of(p, extra_b, te, scanner.t2)[0]
            fisher_aug = fisher + np.outer(extra, extra) / scanner.noise_sigma**2
            crlb_before = np.diag(np.linalg.inv(fisher))
            crlb_after = np.diag(np.linalg.inv(fisher_aug))
            assert np.all(crlb_after <= crlb_before * (1.0 + 1e-9))

    def test_ridge_barely_changes_well_conditioned_diagonals(self):
        scanner = ScannerConfig()
        p = IvimParams(1.0, 0.2, 8e-4, 2.5e-2)
        protocol = AcquisitionProtocol.adhoc()
        fisher = fisher_of(p, protocol, scanner)
        exact = np.diag(np.linalg.inv(fisher))
        config = CrlbConfig()
        ridge = config.ridge_rel * np.trace(fisher) / 4.0
        ridged = np.diag(np.linalg.inv(fisher + ridge * np.eye(4)))
        np.testing.assert_allclose(ridged, exact, rtol=1e-3)

    def test_low_b_clustered_design_pays_conditioning_price(self):
        """Under the joint-estimation bound, a design whose support sits
        almost entirely below b=60 scores far worse than the spread
        baseline: with all four parameters estimated together, the
        low-b clusters leave f, d and d_star nearly collinear, which a
        per-parameter sensitivity argument (others assumed known) hides.
        Regression-pins the measured direction and rough magnitude."""
        dists = load_tissue_distributions(default_tissue_path())
        rng = np.random.default_rng(24)
        samples = draw_tissue_samples(
            (TissueClass.ACTIVE, TissueClass.CHRONIC), dists, 100, rng
        )
        scanner = ScannerConfig()
        config = CrlbConfig()
        clustered = AcquisitionProtocol((0, 0, 7, 7, 7, 7, 52, 52, 52, 508))
        adhoc_cost = crlb_objective(AcquisitionProtocol.adhoc(), samples, scanner, config)
        clustered_cost = crlb_objective(clustered, samples, scanner, config)
        assert clustered_cost > 3.0 * adhoc_cost
        # and the annealer's own output must of course beat its start
        # (covered end-to-end in TestOptimizeCrlb)


class TestAnnealing:
    def test_two_point_mono_exponential_optimum(self):
        """Known-amplitude mono-exponential: the variance bound for the
        decay rate alone is sigma^2 e^(2bd)/(s0 b)^2, minimized exactly at
        b = 1/d. The annealer must land on that analytic optimum (checked
        against a 1-D brute-force scan of the same cost)."""
        scanner = ScannerConfig(te_overhead=1e-9, t2=1e9)  # decouple TE
        d_true = 2e-3
        p = IvimParams(1.0, 0.0, d_true, 1.0e-2)

        def cost_fn(b_sorted):
            j_d = jacobian_of(p, b_sorted, te=0.0, t2=scanner.t2)[:, 2]
            info = float((j_d**2).sum()) / scanner.noise_sigma**2
            if info <= 0.0:
                return 1e12
            return 1.0 / (info * d_true**2)

        grid = np.arange(1.0, 1001.0)
        brute = min(grid, key=lambda b: cost_fn(np.array([0.0, b])))
        assert brute == pytest.approx(1.0 / d_true, abs=1.0)

        best_b, best_cost, _ = anneal_b_values(
            cost_fn, initial=np.linspace(0, 1000, 2).round(), rng=np.random.default_rng(25), iterations=4000)
        assert best_b[0] == 0.0
        assert best_b[1] == pytest.approx(brute, abs=10.0)

    def test_best_cost_trace_monotone(self):
        rng = np.random.default_rng(26)

        def cost_fn(b_sorted):
            return float(((b_sorted - 500.0) ** 2).sum())

        _, _, trace = anneal_b_values(cost_fn, initial=np.linspace(0, 1000, 5).round(), rng=rng, iterations=500)
        assert np.all(np.diff(trace) <= 0.0)


@pytest.fixture(scope="module")
def setup():
    dists = load_tissue_distributions(default_tissue_path())
    config = CrlbConfig(iterations=3000, n_tissue_samples=40)
    return dists, ScannerConfig(), config


class TestOptimizeCrlb:
    def test_returns_valid_protocol_no_worse_than_adhoc(self, setup):
        dists, scanner, config = setup
        rng = np.random.default_rng(28)
        protocol, cost, _ = optimize_crlb(
            (TissueClass.ACTIVE, TissueClass.CHRONIC), dists, scanner, config, rng
        )
        assert len(protocol.b_values) == 10
        assert protocol.b_values[0] == 0.0
        samples_rng = np.random.default_rng(28)
        samples = draw_tissue_samples(
            (TissueClass.ACTIVE, TissueClass.CHRONIC), dists, config.n_tissue_samples, samples_rng
        )
        adhoc_cost = crlb_objective(AcquisitionProtocol.adhoc(), samples, scanner, config)
        assert cost <= adhoc_cost

    def test_identical_sample_sets_give_identical_protocols(self, setup):
        """Task independence: the objective sees classes only through the
        tissue samples, so sharing them forces identical results."""
        dists, scanner, config = setup
        samples = draw_tissue_samples(tuple(TissueClass), dists, 30, np.random.default_rng(29))
        protocol_a, cost_a, _ = optimize_crlb(
            (TissueClass.CHRONIC, TissueClass.HEALTHY), dists, scanner, config,
            np.random.default_rng(30), tissue_samples=samples,
        )
        protocol_b, cost_b, _ = optimize_crlb(
            tuple(TissueClass), dists, scanner, config,
            np.random.default_rng(30), tissue_samples=samples,
        )
        assert protocol_a.b_values == protocol_b.b_values
        assert cost_a == cost_b

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_fewer_samples_than_classes(self, setup, n_samples):
        """Each of the first n_samples classes gives one sample; the rest none."""
        dists, scanner, _ = setup
        config = CrlbConfig(iterations=50, n_tissue_samples=n_samples)
        samples = draw_tissue_samples(tuple(TissueClass), dists, n_samples, np.random.default_rng(32))
        assert samples.shape == (n_samples, 4)
        protocol, cost, trace = optimize_crlb(
            tuple(TissueClass), dists, scanner, config, np.random.default_rng(32)
        )
        assert protocol.b_values[0] == 0.0
        assert cost == trace[-1] == crlb_objective(protocol, samples, scanner, config)

    def test_concentrated_support_structure(self, setup):
        """The annealer converges to a few clustered support values plus a
        high-b arm (clusters = values within 25 s/mm^2 of each other)."""
        dists, scanner, _ = setup
        config = CrlbConfig(iterations=12000, n_tissue_samples=60)
        rng = np.random.default_rng(31)
        protocol, _, _ = optimize_crlb(
            (TissueClass.ACTIVE, TissueClass.CHRONIC), dists, scanner, config, rng
        )
        values = np.asarray(protocol.b_values)
        clusters = 1
        for gap in np.diff(values):
            if gap > 25.0:
                clusters += 1
        assert clusters <= 5
        assert values[-1] >= 150.0  # one arm reaches into the high-b range


def reference_cost(b_values, te, samples, scanner, config):
    """The cost by its definition, on the reference Fisher matrices: eigvalsh
    on every row, then the ridged inverse of the regular rows. The annealer's
    cost must equal it bit for bit."""
    scored = [PARAM_NAMES.index(p) for p in SCORED_PARAMS]
    fisher = reference_fisher(b_values, te, scanner, samples)
    eigvals = np.linalg.eigvalsh(fisher)
    singular = (eigvals[:, 0] <= config.ridge_rel * np.clip(eigvals[:, -1], 0.0, None)) | (
        eigvals[:, -1] <= 0.0
    )
    costs = np.full(len(samples), SINGULAR_PENALTY)
    good = ~singular
    if good.any():
        fisher_good = fisher[good]
        ridge = config.ridge_rel * np.trace(fisher_good, axis1=1, axis2=2) / 4
        crlb = np.linalg.inv(fisher_good + ridge[:, None, None] * np.eye(4))
        diag = np.diagonal(crlb, axis1=1, axis2=2)[:, scored]
        sample_cost = (diag / samples[good][:, scored] ** 2).sum(axis=1)
        costs[good] = np.where((diag < 0.0).any(axis=1), SINGULAR_PENALTY, sample_cost)
    return float(costs.mean())


def reference_anneal(samples, scanner, config, rng):
    """optimize_crlb's anneal with the reference cost and no memo."""
    def cost_fn(b_sorted):
        return reference_cost(b_sorted, min_te(float(b_sorted[-1]), scanner), samples, scanner, config)

    return anneal_b_values(cost_fn, ADHOC_B_VALUES, rng, config.iterations)


def probe_protocols(rng, n_each):
    """Sorted protocols with b[0] = 0: uniform over [0, 1000], clustered on
    three support values, and confined below b = 60 (nearly singular)."""
    out = []
    for _ in range(n_each):
        for b in (
            rng.integers(0, 1001, 10),
            rng.choice(rng.integers(0, 1001, 3), 10),
            rng.integers(0, 60, 10),
        ):
            b = b.astype(float)
            b[0] = 0.0
            out.append(np.sort(b))
    return out


@pytest.fixture(scope="module")
def all_class_samples():
    dists = load_tissue_distributions(default_tissue_path())
    return draw_tissue_samples(tuple(TissueClass), dists, 100, np.random.default_rng(40))


class TestCostCertificate:
    """The memoized, certificate-first cost changes no output bit."""

    @pytest.mark.parametrize("seed,n_samples,iterations", [
        pytest.param(41, 100, 800, id="41-100"),
        pytest.param(42, 100, 800, id="42-100"),
        pytest.param(43, 5, 800, id="43-5"),
        pytest.param(44, 30, 800, id="44-30"),
        # visits about three times the (echo time, b) pairs the memo holds
        pytest.param(50, 100, 2000, id="50-100-past-the-block-memo"),
    ])
    def test_anneal_matches_reference(self, seed, n_samples, iterations, monkeypatch):
        """Protocol, cost and trace equal the reference anneal's, whether each
        Fisher block was computed once, fetched from the memo, or evicted
        from it and computed again."""
        from qmridesign import crlb

        computed = []
        fisher_blocks = crlb._fisher_blocks
        monkeypatch.setattr(crlb, "_fisher_blocks",
                            lambda b, te, *rest: computed.extend((te, x) for x in b) or fisher_blocks(b, te, *rest))
        dists = load_tissue_distributions(default_tissue_path())
        scanner = ScannerConfig()
        config = CrlbConfig(iterations=iterations, n_tissue_samples=n_samples)
        samples = draw_tissue_samples(tuple(TissueClass), dists, n_samples, np.random.default_rng(seed))
        protocol, cost, trace = optimize_crlb(
            tuple(TissueClass), dists, scanner, config, np.random.default_rng(seed + 1),
            tissue_samples=samples,
        )
        best_b, best_cost, best_trace = reference_anneal(
            samples, scanner, config, np.random.default_rng(seed + 1)
        )
        assert protocol.b_values == tuple(best_b)
        assert cost == best_cost
        np.testing.assert_array_equal(trace, best_trace)
        # a pair is computed again exactly when the anneal visits more pairs than the memo holds
        held = crlb._BLOCK_MEMO_BYTES // (10 * n_samples * 8)
        distinct = len(set(computed))
        assert (distinct > held) == (len(computed) > distinct)
        if iterations == 2000:
            assert distinct > 2 * held and len(computed) > distinct

    def test_certified_rows_are_regular(self, all_class_samples):
        """No row the certificate passes is singular by eigvalsh, and the
        cost equals the reference on every probe protocol."""
        scanner = ScannerConfig()
        config = CrlbConfig()
        cost = _sample_cost(all_class_samples, scanner, config)
        certified = near_singular = 0
        for b in probe_protocols(np.random.default_rng(45), 400):
            te = min_te(float(b[-1]), scanner)
            fisher = fisher_matrix(b, te, scanner, all_class_samples)
            trace = np.trace(fisher, axis1=1, axis2=2)
            _, regular = _certified_regular(fisher, trace, config.ridge_rel * trace / 4, config.ridge_rel)
            eigvals = np.linalg.eigvalsh(fisher)
            singular = eigvals[:, 0] <= config.ridge_rel * eigvals[:, -1]
            assert not (regular & singular).any(), b
            assert cost(b) == reference_cost(b, te, all_class_samples, scanner, config), b
            certified += regular.sum()
            near_singular += (singular & (eigvals[:, 0] > 1e-3 * config.ridge_rel * eigvals[:, -1])).sum()
        # the probes exercise both sides: most rows certified, and many rows
        # singular by a margin a loose certificate would miss
        assert certified > 0.5 * 1200 * len(all_class_samples)
        assert near_singular > 100

    def test_well_spread_protocol_skips_eigvalsh(self, all_class_samples, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        crlb_objective(AcquisitionProtocol.adhoc(), all_class_samples, ScannerConfig())
        assert calls == []

    def test_failed_batched_inverse_falls_back(self, all_class_samples, monkeypatch):
        """If inverting every row raises, the cost is the reference's."""
        scanner = ScannerConfig()
        config = CrlbConfig()
        inv = np.linalg.inv
        for b in probe_protocols(np.random.default_rng(47), 10):
            te = min_te(float(b[-1]), scanner)
            calls = []

            def failing_first(a):
                calls.append(len(a))
                if len(calls) == 1:
                    raise np.linalg.LinAlgError("Singular matrix")
                return inv(a)

            monkeypatch.setattr(np.linalg, "inv", failing_first)
            got = _sample_cost(all_class_samples, scanner, config)(b)
            monkeypatch.setattr(np.linalg, "inv", inv)
            assert got == reference_cost(b, te, all_class_samples, scanner, config)
            assert calls[0] == len(all_class_samples)

    def test_zero_information_raises_in_inverse_and_costs_the_penalty(self, all_class_samples):
        """An exactly zero Fisher matrix (signal fully decayed by T2) makes the
        ridged inverse singular; every row then costs the penalty."""
        scanner = ScannerConfig(t2=1.0e-5)
        b = np.asarray(ADHOC_B_VALUES, dtype=float)
        te = min_te(float(b[-1]), scanner)
        fisher = fisher_matrix(b, te, scanner, all_class_samples)
        assert not fisher.any()
        trace = np.trace(fisher, axis1=1, axis2=2)
        assert _certified_regular(fisher, trace, trace, 1e-12)[0] is None
        assert _sample_cost(all_class_samples, scanner, CrlbConfig())(b) == SINGULAR_PENALTY

    def test_zero_perfusion_fraction_costs_the_penalty_without_warnings(self, all_class_samples):
        """A sample with f = 0 has a singular Fisher matrix and theta_f = 0:
        it costs the penalty, and its row is never divided by theta^2."""
        scanner = ScannerConfig()
        config = CrlbConfig()
        samples = all_class_samples.copy()
        samples[::7, 1] = 0.0
        cost = _sample_cost(samples, scanner, config)
        for b in probe_protocols(np.random.default_rng(49), 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = cost(b)
            assert got == reference_cost(b, min_te(float(b[-1]), scanner), samples, scanner, config)

    def test_repeated_protocols_are_costed_once(self, all_class_samples, monkeypatch):
        """The anneal revisits protocols; each distinct sorted one is costed once:
        the cost runs its certificate once per distinct protocol asked for."""
        from qmridesign import crlb

        asked, costed = [], []
        anneal, certified_regular = crlb.anneal_b_values, crlb._certified_regular
        monkeypatch.setattr(crlb, "anneal_b_values", lambda cost_fn, *rest: anneal(
            lambda b: asked.append(b.tobytes()) or cost_fn(b), *rest))
        monkeypatch.setattr(crlb, "_certified_regular", lambda *args: costed.append(1) or certified_regular(*args))
        dists = load_tissue_distributions(default_tissue_path())
        optimize_crlb(tuple(TissueClass), dists, ScannerConfig(), CrlbConfig(iterations=400),
                      np.random.default_rng(48), tissue_samples=all_class_samples)
        assert len(asked) == 401
        assert 0 < len(costed) == len(set(asked)) < 401
