"""Analytic trend derivatives and limits against finite-difference oracles."""

import math

import numpy as np
import pytest

from gridfluct import (
    AssumptionViolatedError,
    HomogeneousParams,
    critical_size,
    star_first_order,
    trend_report,
)
from gridfluct.closedforms import (
    complete_other_frequency,
    complete_source_frequency,
    complete_source_frequency_floor,
    star_leaf_frequency,
    star_other_line,
    star_source_line,
)


def central_diff(fn, x, rel_step=1e-5):
    h = rel_step * max(abs(x), 1.0)
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def single_source_params(n, source, level, gamma, eta, damping):
    noise = np.zeros(n)
    noise[source - 1] = level
    return HomogeneousParams(n, gamma, eta, damping, noise)


LEVEL = 0.7


class TestLimits:
    def test_complete_weight_limits(self):
        p = single_source_params(20, 2, LEVEL, 10.0, 0.5, 0.3)
        report = trend_report("complete", p)
        huge = 1e10
        assert report.limits["source_frequency_weight_to_inf"] == pytest.approx(
            complete_source_frequency(20, huge, 0.5, 0.3, LEVEL), rel=1e-6
        )
        assert report.limits["other_frequency_weight_to_inf"] == pytest.approx(
            complete_other_frequency(20, huge, 0.5, 0.3, LEVEL), rel=1e-6
        )
        assert report.limits["source_frequency_size_to_inf"] == pytest.approx(
            complete_source_frequency(1e12, 10.0, 0.5, 0.3, LEVEL), rel=1e-6
        )
        assert report.limits["source_frequency_size_to_inf"] == pytest.approx(
            LEVEL**2 / (2 * 0.3 * 0.5), rel=1e-12
        )

    def test_star_leaf_limits(self):
        p = single_source_params(20, 2, LEVEL, 10.0, 0.5, 0.2)
        report = trend_report("star", p)
        assert report.limits["leaf_frequency_weight_to_inf"] == pytest.approx(
            star_leaf_frequency(20, 1e10, 0.5, 0.2, LEVEL), rel=1e-6
        )
        assert report.limits["leaf_frequency_size_to_inf"] == pytest.approx(
            LEVEL**2 / (2 * 0.2 * 0.5), rel=1e-12
        )
        assert report.limits["source_line_inertia_to_zero"] == pytest.approx(
            star_source_line(20, 10.0, 1e-12, 0.2, LEVEL), rel=1e-9
        )
        assert report.limits["other_line_inertia_to_zero"] == pytest.approx(
            star_other_line(20, 10.0, 1e-12, 0.2, LEVEL), rel=1e-9
        )

    def test_star_inertia_limits_are_the_first_order_block(self):
        # The eta -> 0 line limits are the zero-inertia closed form's entries,
        # bit for bit, across sizes and two decades of each parameter.
        rng = np.random.default_rng(34)
        for _ in range(200):
            n = int(rng.integers(3, 61))
            gamma, eta, damping, level = 10.0 ** rng.uniform(-1.0, 1.0, 4)
            p = single_source_params(n, 2, level, gamma, eta, damping)
            limits = trend_report("star", p).limits
            q_bar = star_first_order(p)
            assert limits["source_line_inertia_to_zero"] == q_bar[0, 0]
            assert limits["other_line_inertia_to_zero"] == q_bar[1, 1]


class TestCriticalSize:
    def test_reference_values(self):
        assert critical_size(1.0, 1.0, 1.0) == 2
        assert critical_size(1e-9, 1.0, 1.0) == 2
        assert critical_size(10.0, 1.0, 1.0) == 15

    def test_sign_change_by_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            damping = float(rng.uniform(0.05, 5.0))
            gamma = float(rng.uniform(0.1, 100.0))
            eta = float(rng.uniform(0.05, 5.0))
            n_c = critical_size(damping, gamma, eta)
            root = 1.0 + math.sqrt(1.0 + 2.0 * damping**2 / (gamma * eta))
            assert n_c <= root < n_c + 1

            def freq(n):
                return complete_source_frequency(n, gamma, eta, damping, LEVEL)

            assert central_diff(freq, root * 1.02) > 0
            assert central_diff(freq, max(2.0, root * 0.98)) < central_diff(freq, root * 1.02)
            assert central_diff(freq, float(n_c + 1)) > 0

    def test_growth_beyond_critical_size(self):
        damping, gamma, eta = 2.0, 0.5, 0.3
        n_c = critical_size(damping, gamma, eta)
        values = [
            complete_source_frequency(n, gamma, eta, damping, LEVEL)
            for n in range(n_c + 1, n_c + 8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLowerBound:
    def test_source_frequency_floor(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            gamma = float(rng.uniform(0.1, 50.0))
            eta = float(rng.uniform(0.05, 5.0))
            damping = float(rng.uniform(0.05, 5.0))
            floor = complete_source_frequency_floor(gamma, eta, damping, LEVEL)
            values = [
                complete_source_frequency(n, gamma, eta, damping, LEVEL)
                for n in (2, 3, 5, 8, 13, 21, 55, 144, 1000, 10**6)
            ]
            assert min(values) >= floor - 1e-12 * abs(floor)


class TestTrendReportShape:
    def test_star_root_equals_complete(self):
        p = single_source_params(9, 1, LEVEL, 3.0, 0.4, 0.7)
        star = trend_report("star", p)
        complete = trend_report("complete", p)
        assert star.variances == complete.variances
        assert star.derivatives == complete.derivatives
        assert star.limits == complete.limits
        assert star.critical_size == complete.critical_size

    def test_star_leaf_sources_are_equivalent(self):
        # Every leaf of a homogeneous star is equivalent; the source is read from the noise.
        at_2 = trend_report("star", single_source_params(9, 2, LEVEL, 3.0, 0.4, 0.7))
        at_3 = trend_report("star", single_source_params(9, 3, LEVEL, 3.0, 0.4, 0.7))
        assert (at_2.source, at_3.source) == (2, 3)
        assert at_3.variances == at_2.variances
        assert at_3.derivatives == at_2.derivatives
        assert at_3.limits == at_2.limits

    def test_unknown_kind_rejected(self):
        p = single_source_params(5, 2, LEVEL, 1.0, 1.0, 1.0)
        with pytest.raises(AssumptionViolatedError):
            trend_report("ring", p)

    def test_multi_source_rejected(self):
        p = HomogeneousParams(5, 1.0, 1.0, 1.0, np.ones(5))
        with pytest.raises(AssumptionViolatedError):
            trend_report("complete", p)
