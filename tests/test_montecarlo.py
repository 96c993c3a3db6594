"""Monte Carlo oracle: determinism, statistics, and agreement diagnostics."""

import math

import numpy as np
import pytest
import scipy.linalg

from gridfluct import (
    InternalInvariantError,
    SimConfig,
    StepSizeError,
    ValidationError,
    asymptotic_variance_numeric,
    incidence,
    reduce_system,
    simulate_covariance,
    trajectory_seed,
)
from gridfluct import montecarlo
from gridfluct.lyapunov import assert_hurwitz
from gridfluct.montecarlo import (
    agreement,
    default_sim_config,
    ou_transition,
    simulate_stationary_covariance,
    stationarity,
    transition_factor,
)

from conftest import full_output_matrix, homogeneous_system


def fast_test_system():
    """Two-node system with a quick decay so burn-in stays cheap."""
    return homogeneous_system("complete", 2, 1.0, 1.0, 5.0, np.array([1.0, 0.5]))


def reports_agree(x, y):
    """:func:`agreement` between two Monte Carlo reports' output covariances."""
    return agreement(x.diagnostics["moment_full"], x.diagnostics["stderr_full"],
                     y.diagnostics["moment_full"], y.diagnostics["stderr_full"])


class TestTrajectorySeed:
    def test_deterministic(self):
        a = np.random.Generator(np.random.Philox(trajectory_seed(7, 3))).standard_normal(4)
        b = np.random.Generator(np.random.Philox(trajectory_seed(7, 3))).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        a = np.random.Generator(np.random.Philox(trajectory_seed(7, 0))).standard_normal(8)
        b = np.random.Generator(np.random.Philox(trajectory_seed(7, 1))).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_independent_of_cohort_size(self):
        # trajectory t's moments depend only on (master_seed, t), so a run
        # with more trajectories reproduces the smaller run's batches bit
        # for bit -- execution order and cohort size cannot matter.
        lin = fast_test_system()
        cfg6 = default_sim_config(lin, trajectories=6, master_seed=11)
        cfg10 = default_sim_config(lin, trajectories=10, master_seed=11)
        est6 = _raw_estimate(lin, cfg6)
        est10 = _raw_estimate(lin, cfg10)
        np.testing.assert_array_equal(
            est6.trajectory_moments, est10.trajectory_moments[:6]
        )


def _full_system(lin):
    """Drift, noise input and output map of the full 2n-state system."""
    n, m = lin.node_count, lin.line_count
    drift = np.zeros((2 * n, 2 * n))
    drift[:n, n:] = np.eye(n)
    drift[n:, :n] = -lin.laplacian / lin.inertia[:, None]
    drift[n:, n:] = -np.diag(lin.damping / lin.inertia)
    noise_input = np.zeros((2 * n, n))
    noise_input[n:, :] = np.diag(lin.noise / lin.inertia)
    output = np.zeros((m + n, 2 * n))
    output[:m, :n] = incidence(lin.graph).T
    output[m:, n:] = np.eye(n)
    return drift, noise_input, output


def _raw_estimate(lin, cfg):
    drift, noise_input, output = _full_system(lin)
    return simulate_stationary_covariance(drift, noise_input, cfg, output)


def van_loan_reference(drift, diffusion, h):
    """(F, Sigma_h) from scipy's expm of Van Loan's block, with the diffusion
    scaled to the drift's 1-norm and sub-steps of block 1-norm times h0 <= 1/2."""
    n = drift.shape[0]
    size = np.abs(diffusion).sum(axis=0).max()
    scale = np.abs(drift).sum(axis=0).max() / size if size > 0 else 1.0
    block = np.block([[-drift, scale * diffusion], [np.zeros((n, n)), drift.T]])
    doublings = max(0, math.ceil(math.log2(2 * np.abs(block).sum(axis=0).max() * h)))
    exp_block = scipy.linalg.expm(block * (h / 2**doublings))
    transition = exp_block[n:, n:].T
    sigma = transition @ exp_block[:n, n:]
    for _ in range(doublings):
        sigma = sigma + transition @ sigma @ transition.T
        transition = transition @ transition
    return transition, sigma / scale


def random_drift(rng, n, kind):
    """Stable (shifted Gaussian), stiff (symmetric, rates over six decades)
    or non-normal (shifted triangular) drift, times a scale in 1e-3..1e3."""
    scale = 10 ** rng.uniform(-3, 3)
    if kind == "stiff":
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return scale * (basis * -(10 ** rng.uniform(-3, 3, n))) @ basis.T
    a = rng.standard_normal((n, n))
    if kind == "non-normal":
        a = 5 * np.triu(a)
    shift = np.linalg.eigvals(a).real.max() + rng.uniform(0.1, 2.0)
    return scale * (a - shift * np.eye(n))


class TestExactTransition:
    @pytest.mark.parametrize("kind", ["stable", "stiff", "non-normal"])
    def test_agrees_with_scipy_van_loan(self, kind):
        # Steps up to 30 / ||drift||_1 keep the doublings that amplify both
        # computations' rounding to a few; diffusions span 24 decades.
        rng = np.random.default_rng(["stable", "stiff", "non-normal"].index(kind))
        cases = []
        for _ in range(60):
            n = int(rng.integers(1, 13))
            drift = random_drift(rng, n, kind)
            root = rng.standard_normal((n, n))
            h = 10 ** rng.uniform(-3, 1.5) / np.abs(drift).sum(axis=0).max()
            cases.append((drift, 10 ** rng.uniform(-12, 12) * root @ root.T, h))
        cases.append((np.array([[2.0]]), np.array([[1.0]]), 2.0))  # unstable, as in the guard test
        for drift, diffusion, h in cases:
            transition, sigma, _ = ou_transition(drift, diffusion, h)
            ref_transition, ref_sigma = van_loan_reference(drift, diffusion, h)
            assert np.abs(transition - ref_transition).max() <= 1e-13 * np.abs(ref_transition).max()
            assert np.abs(sigma - ref_sigma).max() <= 1e-13 * np.abs(ref_sigma).max()
            # A zero diffusion changes the sub-step, not the transition's accuracy.
            transition, sigma, _ = ou_transition(drift, np.zeros_like(diffusion), h)
            assert np.abs(transition - ref_transition).max() <= 1e-13 * np.abs(ref_transition).max()
            assert not sigma.any()

    @pytest.mark.parametrize("rate", [2.0, 2000.0])
    @pytest.mark.parametrize("h", [1e-3, 0.17, 2.0, 50.0])
    def test_scalar_closed_form(self, rate, h):
        # d x = -a x dt + dW: F = exp(-a h), Sigma_h = (1 - exp(-2 a h)) / (2 a).
        # a h ranges from 2e-3 to 1e5, so most cases take the doubling path.
        transition, sigma, _ = ou_transition(np.array([[-rate]]), np.array([[1.0]]), h)
        np.testing.assert_allclose(transition[0, 0], np.exp(-rate * h), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            sigma[0, 0], -np.expm1(-2 * rate * h) / (2 * rate), rtol=1e-12, atol=0
        )

    def test_long_step_reaches_numeric_route(self):
        # After 60 decay times the transition covariance is the stationary
        # one in every output (the mean-angle drift is invisible to them).
        n = 5
        noise = np.zeros(n)
        noise[1] = 0.04
        lin = homogeneous_system("complete", n, 10.0, 0.5, 0.3, noise)
        decay = -assert_hurwitz(reduce_system(lin).a2)
        drift, noise_input, output = _full_system(lin)
        _, sigma, _ = ou_transition(drift, noise_input @ noise_input.T, 60.0 / decay)
        got = output @ sigma @ output.T
        reference = asymptotic_variance_numeric(lin)
        m = lin.line_count
        for block, ref in ((got[:m, :m], reference.q_delta),
                           (got[m:, m:], reference.q_omega),
                           (got[m:, :m], reference.q_delta_omega)):
            assert np.abs(block - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_non_psd_transition_covariance_rejected(self):
        with pytest.raises(InternalInvariantError, match="positive semi-definite"):
            transition_factor(np.array([[1.0, 0.0], [0.0, -0.1]]))


class TestScalarProcess:
    def test_ornstein_uhlenbeck_variance(self):
        # d x = -2 x dt + dW has stationary variance 1/(2*2) = 0.25
        cfg = SimConfig(dt=0.002, burn_in=6.0, horizon=40.0, trajectories=400, master_seed=42)
        est = simulate_stationary_covariance(np.array([[-2.0]]), np.array([[1.0]]), cfg)
        assert agreement(est.moment, est.stderr, 0.25).passed

    def test_divergence_guard(self):
        cfg = SimConfig(dt=2.0, burn_in=0.0, horizon=400.0, trajectories=4, master_seed=0)
        with pytest.raises(StepSizeError):
            simulate_stationary_covariance(np.array([[2.0]]), np.array([[1.0]]), cfg)

    def test_long_step_is_stationary(self):
        # The exact transition has no step-size limit: dt = 2 (where
        # explicit Euler diverges for drift -2) still gives variance 0.25.
        # Forty trajectories: the verdict's normal quantile needs about 30.
        cfg = SimConfig(dt=2.0, burn_in=0.0, horizon=400.0, trajectories=40, master_seed=0)
        est = simulate_stationary_covariance(np.array([[-2.0]]), np.array([[1.0]]), cfg)
        assert agreement(est.moment, est.stderr, 0.25).passed


class TestSimulateCovariance:
    def test_zero_noise_zero_covariance_and_stderr(self):
        lin = homogeneous_system("complete", 3, 1.0, 1.0, 2.0, np.zeros(3))
        cfg = default_sim_config(lin, trajectories=8, master_seed=1)
        report = simulate_covariance(lin, cfg)
        assert np.abs(full_output_matrix(report)).max() == 0.0
        assert np.abs(report.diagnostics["stderr_full"]).max() == 0.0

    def test_bit_determinism(self):
        lin = fast_test_system()
        cfg = default_sim_config(lin, trajectories=12, master_seed=9)
        a = simulate_covariance(lin, cfg)
        b = simulate_covariance(lin, cfg)
        np.testing.assert_array_equal(
            a.diagnostics["moment_full"], b.diagnostics["moment_full"]
        )
        np.testing.assert_array_equal(
            a.diagnostics["stderr_full"], b.diagnostics["stderr_full"]
        )

    def test_different_master_seeds_within_mutual_tolerance(self):
        lin = fast_test_system()
        reports = [
            simulate_covariance(lin, default_sim_config(lin, trajectories=300, master_seed=s))
            for s in (3, 4)
        ]
        check = reports_agree(*reports)
        assert check.passed, check

    def test_burn_in_invariant_enforced(self):
        lin = fast_test_system()
        good = default_sim_config(lin, trajectories=4)
        with pytest.raises(ValidationError, match="burn_in"):
            simulate_covariance(
                lin,
                SimConfig(good.dt, good.burn_in / 100, good.horizon, 4, 0),
            )

    def test_one_trajectory_is_refused(self):
        # One trajectory gives no standard error.
        with pytest.raises(ValidationError, match="^trajectories: expected at least 2, got 1$"):
            SimConfig(dt=0.01, burn_in=1.0, horizon=2.0, trajectories=1, master_seed=0)
        with pytest.raises(ValidationError, match="^trajectories: expected at least 2, got 1$"):
            default_sim_config(fast_test_system(), trajectories=1)

    def test_decay_is_kept_with_each_linearization(self, monkeypatch):
        # Two systems taken in turn: each one's decay rate is computed once.
        calls = []
        monkeypatch.setattr(montecarlo, "assert_hurwitz", lambda a: calls.append(a) or assert_hurwitz(a))
        systems = (fast_test_system(), homogeneous_system("star", 3, 1.0, 1.0, 2.0, np.ones(3)))
        configs = [default_sim_config(lin, trajectories=2) for lin in systems * 2]
        assert len(calls) == 2
        assert configs[:2] == configs[2:] and configs[0] != configs[1]
        simulate_covariance(systems[0], configs[0])
        assert len(calls) == 2

    def test_explicit_overrides_respected(self):
        lin = fast_test_system()
        cfg = default_sim_config(lin, trajectories=5, master_seed=2, dt=0.007, horizon=3.0)
        assert cfg.dt == 0.007
        assert cfg.horizon == 3.0


class TestBenchmarkDiagnostics:
    """Statistical checks on the shared complete-graph benchmark run."""

    def test_stationarity_between_window_halves(self, mc_benchmark_run):
        _, _, report, _ = mc_benchmark_run
        check = stationarity(report)
        assert check.passed, check

    def test_frequency_mean_near_zero(self, mc_benchmark_run):
        _, _, report, _ = mc_benchmark_run
        d = report.diagnostics
        check = agreement(d["frequency_mean"], d["frequency_mean_stderr"], 0.0)
        assert check.passed, check

    def test_unreachable_lines_stay_quiet(self, mc_benchmark_run):
        # With one source on the homogeneous complete graph, the lines between
        # the other nodes have zero variance and no covariance with any line.
        # Rounding-level directions of Sigma_dt must not inject noise there.
        lin, _, report, _ = mc_benchmark_run
        source = int(np.flatnonzero(lin.noise)[0])
        quiet = (lin.graph.tails != source) & (lin.graph.heads != source)
        q_delta = report.q_delta
        assert quiet.sum() == 6
        assert np.abs(q_delta[quiet]).max() <= 1e-12 * np.abs(q_delta).max()

    def test_weak_convergence_in_dt(self, mc_benchmark_run):
        lin, cfg, _, _ = mc_benchmark_run
        base = simulate_covariance(
            lin, default_sim_config(lin, trajectories=400, master_seed=5)
        )
        halved = simulate_covariance(
            lin,
            default_sim_config(lin, trajectories=400, master_seed=6, dt=cfg.dt / 2),
        )
        check = reports_agree(base, halved)
        assert check.passed, check


class TestAgreement:
    """Power of the one Monte Carlo verdict: planted biases on the shared
    benchmark run, and a NaN, are caught.  That the run itself and its window
    halves pass is checked by acceptance criterion 7 and TestBenchmarkDiagnostics."""

    @staticmethod
    def run_and_reference(mc_benchmark_run):
        lin, _, report, _ = mc_benchmark_run
        d = report.diagnostics
        reference = full_output_matrix(asymptotic_variance_numeric(lin))
        return lin.line_count, d["moment_full"], d["stderr_full"], reference

    def test_one_entry_moved_by_six_standard_errors_fails(self, mc_benchmark_run):
        _, moment, stderr, reference = self.run_and_reference(mc_benchmark_run)
        # Lines 1-2 and 2-3 both touch the source, so their covariance is
        # noise, not rounding; it moves away from the reference.
        i, j = 0, 4
        moved = moment.copy()
        shift = np.copysign(stderr[i, j], moment[i, j] - reference[i, j]) * 6
        moved[i, j] = moved[j, i] = moment[i, j] + shift
        check = agreement(moved, stderr, reference)
        assert not check.passed and check.flagged == ((i, j),), check

    def test_angle_block_scaled_by_five_percent_fails(self, mc_benchmark_run):
        # An incident line's variance has a standard error of 0.96% here, so
        # a 2% scaling is about 2 standard errors: within any per-entry rule.
        m, moment, stderr, reference = self.run_and_reference(mc_benchmark_run)
        scaled = moment.copy()
        scaled[:m, :m] *= 1.05
        check = agreement(scaled, stderr, reference)
        assert not check.passed and check.worst_entry[1] < m, check

    def test_zero_stderr_entry_passes_only_at_rounding_level(self, mc_benchmark_run):
        _, moment, stderr, _ = self.run_and_reference(mc_benchmark_run)
        tau = montecarlo.ROUNDING * np.abs(moment).max()
        stderr = stderr.copy()
        stderr[0, 1] = stderr[1, 0] = 0.0
        for offset, passes in ((2 * tau, False), (0.5 * tau, True)):
            shifted = moment.copy()
            shifted[0, 1] = shifted[1, 0] = moment[0, 1] + offset
            check = agreement(moment, stderr, shifted)
            assert check.passed is passes and check.flagged == (() if passes else ((0, 1),)), check

    def test_nan_entry_fails(self):
        check = agreement(np.array([np.nan, 1.0]), 1.0, 1.0)
        assert not check.passed and check.flagged[0] == (0,), check
