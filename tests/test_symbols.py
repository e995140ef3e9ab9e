import numpy as np
import pytest

from lpevo.symbols import (
    CLASS_S_T,
    SymbolEvaluationError,
    SymbolSampleSpec,
    SymbolSpec,
    check_symbol_class,
    eval_symbol,
    power_symbol,
)


class TestEvalSymbol:
    def test_power_at_unit_frequency(self):
        spec = power_symbol(kappa=1.0, gamma=2.0)
        assert eval_symbol(spec, 0.0, np.array([1.0])) == pytest.approx(-1.0)

    def test_zero_frequency(self):
        spec = power_symbol(kappa=2.0, gamma=1.5)
        assert eval_symbol(spec, 3.0, np.array([0.0])) == pytest.approx(0.0)

    def test_modulated_power_direct_arithmetic(self):
        # -(1 + 0.5 e^{-t}) * |xi|^1.5 at t=1, xi=2
        spec = power_symbol(
            1.0, 1.5, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5
        )
        expected = -(1.0 + 0.5 * np.exp(-1.0)) * 2.0**1.5
        assert eval_symbol(spec, 1.0, np.array([2.0])) == pytest.approx(expected)

    def test_negative_time_clamps_to_zero(self):
        spec = power_symbol(1.0, 2.0, k_fn=lambda t: t, k_bound=10.0, k_deriv_bound=1.0)
        assert eval_symbol(spec, -5.0, np.array([1.0])) == eval_symbol(
            spec, 0.0, np.array([1.0])
        )

    @pytest.mark.parametrize("k_fn", [None, lambda t: 0.5 * np.exp(-t)], ids=["static", "modulated"])
    def test_time_coeff_takes_arrays(self, k_fn):
        # the panel quadrature calls time_coeff once per array of nodes; the
        # modulated coefficient clamps negative times to zero as eval_symbol does
        spec = power_symbol(1.0, 2.0, k_fn=k_fn, k_bound=0.5, k_deriv_bound=0.5)
        t = np.array([[-1.0, 0.0, 0.3], [0.5, 1.0, 2.0]])
        got = spec.time_coeff(t)
        assert got.shape == t.shape
        want = [[spec.time_coeff(float(x)) for x in row] for row in t]
        assert np.array_equal(got, np.array(want))
        assert got[0, 0] == got[0, 1]

    def test_nan_reported_as_evaluation_failure(self):
        bad = SymbolSpec(
            eval_fn=lambda t, xi: np.full(xi.shape[:-1], np.nan, dtype=complex),
            kappa=1.0,
            mu=1.0,
            gamma=1.0,
            n_derivs=2,
        )
        with pytest.raises(SymbolEvaluationError):
            eval_symbol(bad, 0.0, np.array([1.0]))


class TestClassCheck:
    def test_power_symbol_passes_all(self):
        spec = power_symbol(kappa=1.0, gamma=2.0, n_derivs=2)
        report = check_symbol_class(spec)
        assert report.passed_s1
        assert report.s2_margin <= 1 + 1e-3
        assert report.s3_margin <= 1 + 1e-3
        assert report.passed

    def test_s2_first_order_constant_matches_gamma(self):
        # analytic d/dxi of -|xi|^gamma has constant gamma at kappa=1, k=0
        for gamma in (1.0, 1.5, 2.0):
            spec = power_symbol(kappa=1.0, gamma=gamma, n_derivs=3)
            report = check_symbol_class(spec)
            assert report.s2_constants[1] == pytest.approx(gamma, rel=0.05)

    def test_positive_symbol_fails_s1(self):
        bad = SymbolSpec(
            eval_fn=lambda t, xi: (np.sum(xi**2, axis=-1)).astype(complex),
            kappa=1.0,
            mu=10.0,
            gamma=2.0,
            n_derivs=2,
        )
        report = check_symbol_class(bad)
        assert not report.passed_s1

    def test_growing_time_derivative_fails_s3(self):
        # d/dt of -|xi|^2 (2 + sin(t |xi|^2)) grows like |xi|^4
        def evaluate(t, xi):
            r2 = np.sum(xi**2, axis=-1)
            return (-r2 * (2.0 + np.sin(t * r2))).astype(complex)

        bad = SymbolSpec(
            eval_fn=evaluate,
            kappa=1.0,
            mu=30.0,
            gamma=2.0,
            n_derivs=2,
            class_flag=CLASS_S_T,
        )
        report = check_symbol_class(bad)
        assert report.s3_margin > 1 + 1e-3
        assert not report.passed

    def test_monotone_in_mu(self):
        spec = power_symbol(kappa=1.0, gamma=2.0, n_derivs=2)
        base = check_symbol_class(spec)
        from dataclasses import replace

        bigger = replace(spec, mu=spec.mu * 10)
        report = check_symbol_class(bigger)
        assert base.passed
        assert report.passed
        assert report.s2_margin <= base.s2_margin

    def test_rejects_samples_on_hyperplane(self):
        with pytest.raises(ValueError):
            SymbolSampleSpec(np.array([0.0]), np.array([[0.0, 1.0]]))

    def test_rejects_fd_underflow(self):
        spec = power_symbol(1.0, 2.0)
        with pytest.raises(ValueError):
            check_symbol_class(spec, fd_step=1e-15)

    def test_fd_matches_analytic_second_order(self):
        # |d^2/dxi^2 (-|xi|^gamma)| = gamma(gamma-1)|xi|^(gamma-2) in d=1
        gamma = 1.7
        spec = power_symbol(kappa=1.0, gamma=gamma, n_derivs=3)
        report = check_symbol_class(spec)
        assert report.s2_constants[2] == pytest.approx(abs(gamma * (gamma - 1)), rel=0.05)

    def test_randomized_orders_flagged_for_large_n(self):
        spec = power_symbol(kappa=1.0, gamma=2.0, n_derivs=6)
        report = check_symbol_class(spec)
        assert report.randomized_orders

    def test_2d_power_symbol_passes(self):
        spec = power_symbol(kappa=1.0, gamma=2.0, d=2, n_derivs=2)
        report = check_symbol_class(spec)
        assert report.passed

