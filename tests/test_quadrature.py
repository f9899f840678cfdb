"""Tests for the adaptive log-space panel integrator."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouexit import EvaluationError, QuadratureError, quadrature
from ouexit.quadrature import integrate_log


class TestIntegrate:
    """The integrator's contract on ordinary integrands: closed forms, the
    error estimate, the tolerance, the budget, reruns."""

    def test_polynomial_exactness(self):
        r = integrate_log(math.log, 0.0, 2.0)
        assert abs(math.exp(r.value) - 2.0) <= 1e-14

    def test_exponential(self):
        r = integrate_log(lambda z: -z, 0.0, 3.0)
        assert r.value == pytest.approx(math.log(-math.expm1(-3.0)), abs=1e-13)

    def test_gaussian_growth_kernel(self):
        # antiderivative of z*exp(z^2/2) is exp(z^2/2)
        r = integrate_log(lambda z: math.log(z) + 0.5 * z * z, 0.0, 4.0)
        assert math.exp(r.value) == pytest.approx(math.exp(8.0) - 1.0, rel=1e-12)

    def test_error_estimate_bounds_true_error(self):
        # err_estimate is relative: it bounds |value/truth - 1|
        cases = [
            (math.log, 0.0, 2.0, 2.0),
            (lambda z: z, 0.0, 1.0, math.e - 1.0),
            (lambda z: math.log(z) + 0.5 * z * z, 0.0, 4.0, math.exp(8.0) - 1.0),
        ]
        for log_f, a, b, truth in cases:
            r = integrate_log(log_f, a, b)
            assert abs(math.exp(r.value) / truth - 1.0) <= r.err_estimate + 1e-15

    def test_converged_result_meets_tolerance_contract(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-8)
        # returning at all means converged: a budget stop raises
        r = integrate_log(lambda z: math.log(math.sin(z) ** 2 + 0.1), 0.0, 10.0)
        assert r.err_estimate <= 1e-8

    def test_nonfinite_sample_raises_with_abscissa(self):
        def log_f(z):
            return math.nan if z > 0.5 else 0.0

        with pytest.raises(EvaluationError) as exc:
            integrate_log(log_f, 0.0, 1.0)
        assert exc.value.abscissa > 0.5

    def test_panel_budget_reported(self, monkeypatch):
        # an oscillation two panels cannot resolve to 1e-12
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-12)
        with pytest.raises(QuadratureError, match="2 panels") as exc:
            integrate_log(lambda z: math.log(math.sin(50.0 * z) + 2.0), 0.0, 3.0)
        assert exc.value.result.panels_used == 2
        assert exc.value.result.err_estimate > 1e-12

    def test_deterministic_reruns(self):
        log_f = lambda z: math.sin(3 * z) + z  # noqa: E731
        assert integrate_log(log_f, 0.0, 5.0) == integrate_log(log_f, 0.0, 5.0)


class TestIntegrateLog:
    def test_constant_one(self):
        r = integrate_log(lambda z: 0.0, 0.0, 3.0)
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

    def test_agrees_with_mpmath(self):
        with mpmath.workdps(30):
            want = mpmath.quad(lambda z: z * mpmath.exp(z * z / 2), [1e-12, 4])
        log = integrate_log(lambda z: math.log(z) + 0.5 * z * z, 1e-12, 4.0)
        assert math.exp(log.value) == pytest.approx(float(want), rel=1e-10)

    def test_log_zero_integrand(self):
        r = integrate_log(lambda z: -math.inf, 0.0, 1.0)
        assert r.value == -math.inf

    def test_plus_inf_rejected(self):
        with pytest.raises(EvaluationError):
            integrate_log(lambda z: math.inf, 0.0, 1.0)

    def test_tolerance_contract_on_linear_value(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-9)
        # returning at all means converged: a budget stop raises
        r = integrate_log(lambda z: 500.0 + math.cos(z), 0.0, 6.0)
        # err_estimate is the relative linear error here
        assert r.err_estimate <= 1e-9


class TestFrozenBits:
    # whole QuadResults pinned to the last bit, including the partial result
    # of a run that stops at a panel budget patched down from 4096
    @pytest.mark.parametrize(
        "log_f,a,b,rel_tol,max_panels,want",
        [
            (lambda z: 500.0 + math.cos(z), 0.0, 6.0, 1e-9, 4096,
             "QuadResult(value=501.9734245630688, err_estimate=2.5108527412101143e-11,"
             " panels_used=4)"),
            (lambda z: -0.5 * z * z, -1.0, 2.0, 1e-10, 4096,
             "QuadResult(value=0.7187722388802102, err_estimate=9.645924937569037e-13,"
             " panels_used=2)"),
            (lambda z: math.sin(50.0 * z), 0.0, 3.0, 1e-12, 3,
             "QuadResult(value=1.3523163330334809, err_estimate=0.12328255837969035,"
             " panels_used=3)"),
        ],
        ids=["log-500-cos", "log-half-z2", "log-budget"],
    )
    def test_frozen_result(self, monkeypatch, log_f, a, b, rel_tol, max_panels, want):
        monkeypatch.setattr(quadrature, "_REL_TOL", rel_tol)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
        if max_panels == 4096:
            assert repr(integrate_log(log_f, a, b)) == want
        else:
            with pytest.raises(QuadratureError) as exc:
                integrate_log(log_f, a, b)
            assert repr(exc.value.result) == want
