"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import math
import time

import numpy as np

from gridfluct import (
    HomogeneousParams,
    LinearizedSystem,
    asymptotic_variance_numeric,
    asymptotic_variance_uniform_ratio,
    closed_form_report,
    critical_size,
    first_order_variance,
    smib_variance,
    star_first_order,
    trace_frequency_variance,
    trend_report,
)
from gridfluct.closedforms import (
    complete_other_frequency,
    complete_source_frequency,
    star_leaf_frequency,
    star_other_line,
    star_source_line,
)
from gridfluct.lyapunov import lyapunov_solve_with_abscissa
from gridfluct.montecarlo import agreement

from conftest import (
    full_output_matrix,
    homogeneous_system,
    lyapunov_solve_kron,
    random_connected_graph,
    table1_complete_system,
    table2_star_system,
    uniform_ratio_system,
)


def verdict(label: str, ok: bool) -> None:
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_complete_route_equivalence():
    lin = table1_complete_system(20)
    start = time.perf_counter()
    closed = complete_source_frequency(20, 10.0, 0.5, 0.3, 0.04)
    uniform = asymptotic_variance_uniform_ratio(lin).q_omega[1, 1]
    numeric = asymptotic_variance_numeric(lin).q_omega[1, 1]
    elapsed = time.perf_counter() - start
    worst = max(rel_gap(closed, uniform), rel_gap(closed, numeric), rel_gap(uniform, numeric))
    ok = worst <= 1e-8 and elapsed < 1.0
    verdict("1 (complete-graph route equivalence, 1e-8, <1s)", ok)
    assert worst <= 1e-8, f"worst pairwise relative gap {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"


def test_criterion_2_star_route_equivalence():
    n, gamma, eta, d, level = 20, 10.0, 0.5, 0.2, 0.5
    lin = table2_star_system(n)
    start = time.perf_counter()
    numeric = asymptotic_variance_numeric(lin)
    p = HomogeneousParams(n, gamma, eta, d, lin.noise)
    report = closed_form_report(lin)
    leaf = trend_report("star", p).variances
    elapsed = time.perf_counter() - start
    displayed = [
        (report.q_omega[0, 0], numeric.q_omega[0, 0]),       # root frequency display
        (leaf["leaf_frequency"], numeric.q_omega[1, 1]),
        (leaf["other_frequency"], numeric.q_omega[7, 7]),
        (leaf["source_line"], numeric.q_delta[0, 0]),
        (leaf["other_line"], numeric.q_delta[3, 3]),
    ]
    displayed.extend(
        (report.q_omega[i, i], numeric.q_omega[i, i]) for i in range(n)
    )
    displayed.extend(
        (report.q_delta[k, k], numeric.q_delta[k, k]) for k in range(n - 1)
    )
    worst = max(rel_gap(a, b) for a, b in displayed)
    ok = worst <= 1e-8 and elapsed < 1.0
    verdict("2 (star-graph displayed formulas vs numeric, 1e-8, <1s)", ok)
    assert worst <= 1e-8, f"worst relative gap {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"


def test_criterion_3_trace_law():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 16))
        graph = random_connected_graph(rng, n)
        eta = float(rng.uniform(0.1, 3.0))
        d = float(rng.uniform(0.1, 3.0))
        noise = rng.uniform(0.0, 2.0, n)
        lin = LinearizedSystem(graph, eta * np.ones(n), d * np.ones(n), noise)
        numeric = float(np.trace(asymptotic_variance_numeric(lin).q_omega))
        law = trace_frequency_variance(lin)
        worst = max(worst, abs(numeric - law) / abs(law) if law else abs(numeric))
    ok = worst <= 1e-9
    verdict("3 (trace law on 50 random graphs, 1e-9 relative)", ok)
    assert worst <= 1e-9, f"worst relative trace gap {worst:.3e}"


def test_criterion_4_superposition():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 12))
        lin = uniform_ratio_system(rng, n, float(rng.uniform(0.2, 5.0)))
        combined = full_output_matrix(asymptotic_variance_uniform_ratio(lin))
        total = np.zeros_like(combined)
        for i in range(n):
            single = np.zeros(n)
            single[i] = lin.noise[i]
            part = asymptotic_variance_uniform_ratio(
                LinearizedSystem(lin.graph, lin.inertia, lin.damping, single)
            )
            total += full_output_matrix(part)
        worst = max(worst, float(np.abs(total - combined).max()))
    ok = worst <= 1e-10
    verdict("4 (superposition on 20 uniform-ratio graphs, 1e-10)", ok)
    assert worst <= 1e-10, f"worst entrywise gap {worst:.3e}"


def test_criterion_5_first_order_consistency():
    rng = np.random.default_rng(505)
    noise_c = rng.uniform(0.0, 1.5, 14)
    lin_c = homogeneous_system("complete", 14, 3.0, 0.8, 0.6, noise_c)
    closed_c = closed_form_report(lin_c)
    complete_gap = float(np.abs(closed_c.q_delta - first_order_variance(lin_c).q_delta).max())

    noise_s = rng.uniform(0.0, 1.5, 12)
    q_bar = star_first_order(HomogeneousParams(12, 2.0, 1.0, 1.0, noise_s))
    q_small = closed_form_report(homogeneous_system("star", 12, 2.0, 1e-6, 1.0, noise_s)).q_delta
    star_gap = float(np.abs(q_small - q_bar).max() / np.abs(q_bar).max())

    ok = complete_gap <= 1e-12 and star_gap <= 1e-6
    verdict("5 (first-order: complete exact, star eta->0 limit)", ok)
    assert complete_gap <= 1e-12, f"complete angle-block gap {complete_gap:.3e}"
    assert star_gap <= 1e-6, f"star relative gap at eta=1e-6: {star_gap:.3e}"


def central_diff(fn, x, rel_step=1e-5):
    h = rel_step * max(abs(x), 1.0)
    hi, lo = fn(x + h), fn(x - h)
    noise = np.finfo(float).eps * max(abs(hi), abs(lo), 1e-300) / h
    return (hi - lo) / (2.0 * h), noise


def test_criterion_6_trend_signs():
    level = 0.7
    checks = 0
    for n in (3, 4, 7, 20, 100):
        for gamma in (0.1, 1.0, 10.0, 100.0):
            for d in (0.05, 0.5, 5.0):
                for eta in (0.05, 0.5, 5.0):
                    noise = np.zeros(n)
                    noise[1] = level
                    p = HomogeneousParams(n, gamma, eta, d, noise)
                    for kind, cases in (
                        (
                            "complete",
                            [
                                ("source_frequency_wrt_weight",
                                 lambda g: complete_source_frequency(n, g, eta, d, level),
                                 gamma, -1),
                                ("other_frequency_wrt_weight",
                                 lambda g: complete_other_frequency(n, g, eta, d, level),
                                 gamma, +1),
                                ("other_frequency_wrt_size",
                                 lambda s: complete_other_frequency(s, gamma, eta, d, level),
                                 float(n), -1),
                                ("source_frequency_wrt_size",
                                 lambda s: complete_source_frequency(s, gamma, eta, d, level),
                                 float(n), 0),
                            ],
                        ),
                        (
                            "star",
                            [
                                ("leaf_frequency_wrt_weight",
                                 lambda g: star_leaf_frequency(n, g, eta, d, level),
                                 gamma, -1),
                                ("leaf_frequency_wrt_size",
                                 lambda s: star_leaf_frequency(s, gamma, eta, d, level),
                                 float(n), +1),
                                ("source_line_wrt_inertia",
                                 lambda e: star_source_line(n, gamma, e, d, level),
                                 eta, 0),
                                ("other_line_wrt_inertia",
                                 lambda e: star_other_line(n, gamma, e, d, level),
                                 eta, +1),
                                ("source_line_wrt_size",
                                 lambda s: star_source_line(s, gamma, eta, d, level),
                                 float(n), +1),
                                ("other_line_wrt_size",
                                 lambda s: star_other_line(s, gamma, eta, d, level),
                                 float(n), -1),
                            ],
                        ),
                    ):
                        report = trend_report(kind, p)
                        assert all(report.sign_verdicts.values()), (kind, n, gamma, d, eta)
                        for name, fn, at, sign in cases:
                            value = report.derivatives[name]
                            oracle, fd_noise = central_diff(fn, at)
                            assert abs(value - oracle) <= 1e-6 * abs(value) + 8 * fd_noise, (
                                kind, name, n, gamma, d, eta)
                            if sign > 0:
                                assert value > 0, (kind, name, n, gamma, d, eta)
                            elif sign < 0:
                                assert value < 0, (kind, name, n, gamma, d, eta)
                            checks += 1

    rng = np.random.default_rng(606)
    for _ in range(100):
        d = float(rng.uniform(0.05, 5.0))
        gamma = float(rng.uniform(0.1, 100.0))
        eta = float(rng.uniform(0.05, 5.0))
        n_c = critical_size(d, gamma, eta)
        root = 1.0 + math.sqrt(1.0 + 2.0 * d**2 / (gamma * eta))
        assert n_c <= root < n_c + 1

        def freq(s):
            return complete_source_frequency(s, gamma, eta, d, level)

        above, _ = central_diff(freq, root * 1.02)
        below, _ = central_diff(freq, max(2.0, root * 0.98))
        at_next, _ = central_diff(freq, float(n_c + 1))
        assert above > 0 and at_next > 0 and below < above
        checks += 1
    verdict(f"6 (trend displays vs finite differences and signs, {checks} checks)", True)


def test_criterion_7_monte_carlo_agreement(mc_benchmark_run):
    lin, cfg, report, elapsed = mc_benchmark_run
    assert cfg.trajectories >= 2000
    reference = full_output_matrix(asymptotic_variance_numeric(lin))
    check = agreement(report.diagnostics["moment_full"], report.diagnostics["stderr_full"], reference)
    verdict("7 (Monte Carlo agreement, <60s)", check.passed and elapsed < 60.0)
    assert check.passed, check
    assert elapsed < 60.0, f"simulation took {elapsed:.1f}s"


def test_criterion_8_lyapunov_backend_independence():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 41))
        a = rng.standard_normal((size, size))
        a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.5, 2.0)) * np.eye(size)
        g = rng.standard_normal((size, size))
        w = g @ g.T
        q_schur = lyapunov_solve_with_abscissa(a, w)[0]
        q_kron = lyapunov_solve_kron(a, w)
        worst = max(worst, float(np.abs(q_schur - q_kron).max() / max(1.0, np.abs(q_kron).max())))
    ok = worst <= 1e-10
    verdict("8 (Bartels-Stewart vs Kronecker on 100 random systems, 1e-10)", ok)
    assert worst <= 1e-10, f"worst relative backend gap {worst:.3e}"


def test_criterion_9_single_machine_closed_form():
    capacity, injection, noise = 2.0, 0.5, 1.0
    stiffness = math.sqrt(capacity**2 - injection**2)
    worst = 0.0
    for d in np.linspace(0.2, 3.0, 10):
        for eta in np.linspace(0.1, 2.0, 10):
            a = np.array([[0.0, 1.0], [-stiffness / eta, -d / eta]])
            b = np.array([[0.0], [noise / eta]])
            q = lyapunov_solve_with_abscissa(a, b @ b.T)[0]
            q_delta, q_omega = smib_variance(eta, d, capacity, injection, noise)
            worst = max(
                worst,
                abs(q[0, 0] - q_delta),
                abs(q[1, 1] - q_omega),
                abs(q[0, 1]),
            )
    ok = worst <= 1e-12
    verdict("9 (single-machine closed form vs 2x2 Lyapunov grid, 1e-12)", ok)
    assert worst <= 1e-12, f"worst absolute gap {worst:.3e}"
