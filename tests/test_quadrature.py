"""Tests for the adaptive panel integrator, linear and log-space modes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouexit import DomainError, EvaluationError, integrate, integrate_log, quadrature


class TestIntegrate:
    def test_polynomial_exactness(self):
        r = integrate(lambda z: z, 0.0, 2.0)
        assert r.converged
        assert abs(r.value - 2.0) <= quadrature._ABS_TOL

    def test_exponential(self):
        r = integrate(lambda z: math.exp(z), 0.0, 1.0)
        assert r.value == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_gaussian_growth_kernel(self):
        # antiderivative of z*exp(z^2/2) is exp(z^2/2)
        r = integrate(lambda z: z * math.exp(0.5 * z * z), 0.0, 4.0)
        assert r.converged
        assert r.value == pytest.approx(math.exp(8.0) - 1.0, rel=1e-12)

    def test_error_estimate_bounds_true_error(self):
        cases = [
            (lambda z: z, 0.0, 2.0, 2.0),
            (lambda z: math.exp(z), 0.0, 1.0, math.e - 1.0),
            (lambda z: z * math.exp(0.5 * z * z), 0.0, 4.0, math.exp(8.0) - 1.0),
        ]
        for f, a, b, truth in cases:
            r = integrate(f, a, b)
            assert abs(r.value - truth) <= r.err_estimate + 1e-15 * abs(truth)

    def test_converged_result_meets_tolerance_contract(self):
        r = integrate(lambda z: math.sin(z) ** 2 + 0.1, 0.0, 10.0, rel_tol=1e-8)
        assert r.converged
        assert r.err_estimate <= max(quadrature._ABS_TOL, 1e-8 * abs(r.value))

    def test_empty_interval(self):
        r = integrate(lambda z: 1.0, 1.5, 1.5)
        assert (r.value, r.err_estimate, r.panels_used, r.converged) == (0.0, 0.0, 0, True)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda z: 1.0, 2.0, 1.0)

    def test_nonfinite_sample_raises_with_abscissa(self):
        def f(z):
            return math.nan if z > 0.5 else 1.0

        with pytest.raises(EvaluationError) as exc:
            integrate(f, 0.0, 1.0)
        assert exc.value.abscissa > 0.5

    def test_panel_budget_reported(self, monkeypatch):
        # an oscillation two panels cannot resolve to 1e-12
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        r = integrate(lambda z: math.sin(50.0 * z) + 2.0, 0.0, 3.0, rel_tol=1e-12)
        assert not r.converged
        assert r.panels_used == 2

    def test_config_validation(self):
        for mode in (integrate, integrate_log):
            for rel_tol in (0.0, -1e-10, math.inf, math.nan):
                with pytest.raises(DomainError, match="rel_tol"):
                    mode(lambda z: 1.0, 0.0, 1.0, rel_tol=rel_tol)

    def test_deterministic_reruns(self):
        f = lambda z: math.sin(3 * z) * math.exp(z)  # noqa: E731
        assert integrate(f, 0.0, 5.0) == integrate(f, 0.0, 5.0)


class TestIntegrateLog:
    def test_constant_one(self):
        r = integrate_log(lambda z: 0.0, 0.0, 3.0)
        assert r.converged
        assert r.value == pytest.approx(math.log(3.0), abs=1e-13)

    def test_exponential(self):
        r = integrate_log(lambda z: z, 0.0, 1.0)
        assert r.value == pytest.approx(math.log(math.e - 1.0), abs=1e-13)

    def test_huge_constant_shift(self):
        # fails in linear space by construction; must pass here
        r = integrate_log(lambda z: 1000.0 + math.log(z) if z > 0 else -math.inf, 0.0, 2.0)
        assert r.value == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("shift", [1e4, -1e4])
    def test_shift_identity_extreme(self, shift):
        base = integrate_log(lambda z: math.sin(z) + 0.3 * z, 0.0, 2.0)
        moved = integrate_log(lambda z: math.sin(z) + 0.3 * z + shift, 0.0, 2.0)
        assert moved.value - base.value == pytest.approx(shift, abs=1e-12)

    @given(shift=st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=40, deadline=None)
    def test_shift_identity_random(self, shift):
        base = integrate_log(lambda z: -0.5 * z * z, -1.0, 2.0)
        moved = integrate_log(lambda z: -0.5 * z * z + shift, -1.0, 2.0)
        assert moved.value - base.value == pytest.approx(shift, abs=1e-12)

    def test_agrees_with_linear_mode(self):
        lin = integrate(lambda z: z * math.exp(0.5 * z * z), 1e-12, 4.0)
        log = integrate_log(lambda z: math.log(z) + 0.5 * z * z, 1e-12, 4.0)
        assert math.exp(log.value) == pytest.approx(lin.value, rel=1e-10)

    def test_log_zero_integrand(self):
        r = integrate_log(lambda z: -math.inf, 0.0, 1.0)
        assert r.converged
        assert r.value == -math.inf

    def test_plus_inf_rejected(self):
        with pytest.raises(EvaluationError):
            integrate_log(lambda z: math.inf, 0.0, 1.0)

    def test_empty_interval(self):
        r = integrate_log(lambda z: 1.0, 0.5, 0.5)
        assert r.value == -math.inf
        assert r.converged

    def test_tolerance_contract_on_linear_value(self):
        r = integrate_log(lambda z: 500.0 + math.cos(z), 0.0, 6.0, rel_tol=1e-9)
        assert r.converged
        # err_estimate is the relative linear error here
        assert r.err_estimate <= 1e-9


class TestFrozenBits:
    # whole QuadResults of both modes pinned to the last bit, including two
    # runs that stop at a panel budget patched down from 4096
    @pytest.mark.parametrize(
        "mode,f,a,b,rel_tol,max_panels,want",
        [
            (integrate, lambda z: math.sin(3.0 * z) * math.exp(z), 0.0, 5.0, 1e-10, 4096,
             "QuadResult(value=43.77543219219708, err_estimate=1.4842616025134703e-09,"
             " panels_used=4, converged=True)"),
            (integrate, lambda z: z * math.exp(0.5 * z * z), 0.0, 4.0, 1e-10, 4096,
             "QuadResult(value=2979.9579870417283, err_estimate=5.203551634025416e-08,"
             " panels_used=4, converged=True)"),
            (integrate, lambda z: math.sin(50.0 * z) + 2.0, 0.0, 3.0, 1e-12, 2,
             "QuadResult(value=6.344880711716532, err_estimate=0.161578580320634,"
             " panels_used=2, converged=False)"),
            (integrate_log, lambda z: 500.0 + math.cos(z), 0.0, 6.0, 1e-9, 4096,
             "QuadResult(value=501.9734245630688, err_estimate=2.5108527412101143e-11,"
             " panels_used=4, converged=True)"),
            (integrate_log, lambda z: -0.5 * z * z, -1.0, 2.0, 1e-10, 4096,
             "QuadResult(value=0.7187722388802102, err_estimate=9.645924937569037e-13,"
             " panels_used=2, converged=True)"),
            (integrate_log, lambda z: math.sin(50.0 * z), 0.0, 3.0, 1e-12, 3,
             "QuadResult(value=1.3523163330334809, err_estimate=0.12328255837969035,"
             " panels_used=3, converged=False)"),
        ],
        ids=["sin3z-exp", "z-exp-half-z2", "budget", "log-500-cos", "log-half-z2", "log-budget"],
    )
    def test_frozen_result(self, monkeypatch, mode, f, a, b, rel_tol, max_panels, want):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
        assert repr(mode(f, a, b, rel_tol=rel_tol)) == want
