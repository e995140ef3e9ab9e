import warnings
from dataclasses import asdict, replace
from math import factorial, prod

import numpy as np
import pytest

from lpevo.gfunction import g_function, g_tilde, integrated_symbol
from lpevo.grid import SpaceTimeField, make_grid
from lpevo.symbols import (
    CLASS_S_T,
    _CHEB_POINTS,
    _BoxRule,
    _chebyshev_at_zero,
    _chebyshev_rule,
    _sample_points,
    SymbolEvaluationError,
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
        # the panel quadrature calls the coefficient that factors() hands out
        # once per array of nodes; it clamps negative times to zero as
        # eval_symbol does (the static symbol, unmarked, so that it splits)
        spec = power_symbol(1.0, 2.0, k_fn=k_fn, k_bound=0.5, k_deriv_bound=0.5)
        coeff, _ = replace(spec, time_independent=False).factors()
        t = np.array([[-1.0, 0.0, 0.3], [0.5, 1.0, 2.0]])
        got = coeff(t)
        assert got.shape == t.shape
        want = [[coeff(float(x)) for x in row] for row in t]
        assert np.array_equal(got, np.array(want))
        assert got[0, 0] == got[0, 1]

    # a separable symbol once returned a (1, 2, 3) stack for t of shape
    # (1, 2), and a generic one raised a TypeError
    @pytest.mark.parametrize("separable", [True, False], ids=["separable", "generic"])
    def test_rejects_times_of_more_than_one_axis(self, separable):
        spec = power_symbol(1.0, 2.0, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5)
        if not separable:
            spec = replace(spec, time_coeff=None, xi_profile=None)
        with pytest.raises(ValueError, match="1-d array"):
            eval_symbol(spec, np.array([[0.0, 1.0]]), np.array([[1.0], [2.0], [3.0]]))

    # inf once evaluated the coefficient's limit and -inf the symbol at 0,
    # through the clamp; nan failed as the symbol's own non-finite value
    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, [0.5, np.inf]], ids=["inf", "-inf", "nan", "array"])
    @pytest.mark.parametrize("separable", [True, False], ids=["separable", "generic"])
    def test_rejects_non_finite_times(self, t, separable):
        spec = power_symbol(1.0, 2.0, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5)
        if not separable:
            spec = replace(spec, time_coeff=None, xi_profile=None)
        with pytest.raises(ValueError, match="symbol times must be finite"):
            eval_symbol(spec, t, np.array([[1.0], [2.0]]))

    # a cast to float once dropped the imaginary parts with only a
    # ComplexWarning, and evaluated the symbol at the real parts
    @pytest.mark.parametrize("separable", [True, False], ids=["separable", "generic"])
    def test_rejects_complex_times_and_frequencies(self, separable):
        spec = power_symbol(1.0, 2.0, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5)
        if not separable:
            spec = replace(spec, time_coeff=None, xi_profile=None)
        with pytest.raises(ValueError, match="symbol times must be real"):
            eval_symbol(spec, np.array([0.0, 1.0j]), np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="frequencies must be real"):
            eval_symbol(spec, 0.5, np.array([[1.0], [2.0 + 1.0j]]))

    # a 4-vector once read as one d = 1 frequency: -|xi| gave its norm,
    # -5.477, and a d = 2 symbol took (3, 1) and (3, 5) arrays; with no
    # window start, integrated_symbol returned shape () for the 4-vector
    @pytest.mark.parametrize("d, shape", [(1, (4,)), (1, (3, 2)), (2, (3, 1)), (2, (3, 5)), (2, (4,))])
    @pytest.mark.parametrize("separable", [True, False], ids=["separable", "generic"])
    def test_rejects_frequencies_of_another_dimension(self, d, shape, separable):
        spec = power_symbol(1.0, 1.0, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5, d=d)
        if not separable:
            spec = replace(spec, time_coeff=None, xi_profile=None)
        xi = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        match = rf"frequencies must be an \(\.\.\., {d}\) array"
        for t in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match=match):
                eval_symbol(spec, t, xi)
        for starts in (np.array([]), np.array([0.0, 0.5])):
            with pytest.raises(ValueError, match=match):
                integrated_symbol(spec, starts, 1.0, xi)

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


class TestSymbolSpec:
    @pytest.mark.parametrize("constant", ["kappa", "mu", "gamma"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_constants_not_positive_and_finite(self, constant, value):
        with pytest.raises(ValueError, match="positive and finite"):
            replace(power_symbol(1.0, 2.0), **{constant: value})

    # d = 3 and d = 0 used to fail inside check_symbol_class with an
    # IndexError, and n_derivs = 2.5 with a TypeError; a bool, an integer to
    # isinstance, and d = 1.0, which is in (1, 2), built a symbol
    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"d": 3}, "d must be 1 or 2"),
            ({"d": 0}, "d must be 1 or 2"),
            ({"n_derivs": 2.5}, "n_derivs must be an integer"),
            ({"d": True}, "d must be an integer"),
            ({"d": 1.0}, "d must be an integer"),
            ({"n_derivs": True}, "n_derivs must be an integer"),
            ({"d": 2, "n_derivs": 1}, "at least floor"),
            ({"class_flag": "S_X"}, "unknown class flag"),
        ],
        ids=["d=3", "d=0", "n_derivs=2.5", "d=True", "d=1.0", "n_derivs=True", "d=2,n_derivs=1", "class_flag"],
    )
    def test_rejects_dimension_and_derivative_count(self, changes, match):
        with pytest.raises(ValueError, match=match):
            replace(power_symbol(1.0, 1.0), **changes)

    # a lone factor once made the symbol silently generic: not separable,
    # and G ignored the factor
    @pytest.mark.parametrize("dropped", ["time_coeff", "xi_profile"])
    def test_rejects_a_lone_factor(self, dropped):
        spec = power_symbol(1.0, 2.0, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5)
        with pytest.raises(ValueError, match="given together"):
            replace(spec, **{dropped: None})

    def test_factors_by_kind(self):
        static = power_symbol(1.0, 1.5)
        modulated = power_symbol(1.0, 1.5, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5)
        generic = replace(modulated, time_coeff=None, xi_profile=None)
        xi = np.array([[-2.0], [0.5], [3.0]])
        coeff, profile = static.factors()
        assert coeff is None and np.array_equal(profile(xi), eval_symbol(static, 0.0, xi))
        # the declared factors, the coefficient at max(t, 0)
        coeff, profile = modulated.factors()
        t = np.array([-1.0, 0.0, 0.5])
        assert np.array_equal(coeff(t), modulated.time_coeff(np.array([0.0, 0.0, 0.5])))
        assert np.array_equal(profile(xi), modulated.xi_profile(xi))
        assert generic.factors() is None

    # the coefficient G integrates was once checked for an imaginary part by
    # G alone, and a NaN in either factor reached G's caller as a NaN G
    @pytest.mark.parametrize(
        "name, fn, error, match",
        [
            ("time_coeff", lambda t: -(1.0 + 0.5j * t), ValueError, "complex time coefficient"),
            ("time_coeff", lambda t: np.where(t > 0.5, np.nan, -1.0), SymbolEvaluationError, "non-finite"),
            ("xi_profile", lambda xi: np.where(xi[..., 0] > 1.5, np.nan, 1.0), SymbolEvaluationError, "non-finite"),
        ],
        ids=["complex", "nan-coefficient", "nan-profile"],
    )
    def test_factors_refuse_complex_and_non_finite_values(self, name, fn, error, match):
        modulated = power_symbol(1.0, 1.5, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5)
        coeff, profile = replace(modulated, **{name: fn}).factors()
        with pytest.raises(error, match=match):
            if name == "time_coeff":
                coeff(np.array([0.25, 1.0]))
            else:
                profile(np.array([[1.0], [2.0]]))

    def test_factors_hand_out_a_real_coefficient(self):
        # a complex dtype with no imaginary part keeps G on real arrays
        spec = replace(power_symbol(1.0, 1.5), time_independent=False, time_coeff=lambda t: -1.0 + 0j * t)
        coeff, _ = spec.factors()
        got = coeff(np.array([-0.5, 0.5]))
        assert not np.iscomplexobj(got) and np.array_equal(got, [-1.0, -1.0])

    # power_symbol bounds mu with range(n_derivs) before it builds the spec,
    # where 2.5 once raised a TypeError
    @pytest.mark.parametrize("n_derivs", [2.5, "3", None, True])
    def test_power_symbol_rejects_a_non_integer_derivative_count(self, n_derivs):
        with pytest.raises(ValueError, match="n_derivs must be an integer"):
            power_symbol(1.0, 1.0, n_derivs=n_derivs)


    # mu adds the bounds of k: k_bound = -0.4 once gave mu = 4608 in place
    # of at least 7680, and an infinite bound was blamed on kappa, mu, gamma
    @pytest.mark.parametrize("bound", [-0.4, np.inf, np.nan])
    @pytest.mark.parametrize("name", ["k_bound", "k_deriv_bound"])
    def test_power_symbol_rejects_a_negative_or_infinite_bound(self, name, bound):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            power_symbol(1.0, 2.0, k_fn=lambda t: 0.5 * np.exp(-t), **{name: bound})


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

    def test_s1_margin_in_units_of_mu(self):
        # -|xi|^2 declared with kappa = 1.001: Re psi + kappa |xi|^2 peaks at
        # 1e-3 * 64^2 at the largest sample; the margin divides it by mu, as
        # the (S2) and (S3) margins do, and (S1) passes where it is <= tol
        for mu, passed in ((5000.0, True), (9.0, False)):
            spec = SymbolSpec(eval_fn=lambda t, xi: -np.sum(xi**2, axis=-1) + 0j, kappa=1.001, mu=mu, gamma=2.0, n_derivs=2)
            report = check_symbol_class(spec)
            assert report.s1_margin == pytest.approx(1e-3 * 64.0**2 / mu, rel=1e-9)
            assert report.passed_s1 == passed

    def test_class_s_passes_on_s1_and_s2(self):
        # -|xi|^2 has (S2) constants 1, 2, 2 for orders 0, 1, 2: a class-S
        # report passes on (S1) and (S2), with no (S3) verdict, and fails
        # once mu is below the largest constant
        spec = replace(power_symbol(1.0, 2.0, n_derivs=2), class_flag="S")
        report = check_symbol_class(spec)
        assert report.passed_s1 and report.passed_s2 and report.passed_s3 is None
        assert report.passed
        small = check_symbol_class(replace(spec, mu=1.5))
        assert small.passed_s1 and not small.passed_s2
        assert not small.passed

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
        # no sample of the class check lies on a coordinate hyperplane, where
        # symbols such as -sum |xi_i|^(3/2) are not smooth
        for d in (1, 2):
            _, xi = _sample_points(d)
            assert xi.shape[-1] == d
            assert np.all(xi != 0.0)

    def test_fd_matches_analytic_second_order(self):
        # |d^2/dxi^2 (-|xi|^gamma)| = gamma(gamma-1)|xi|^(gamma-2) in d=1
        gamma = 1.7
        spec = power_symbol(kappa=1.0, gamma=gamma, n_derivs=3)
        report = check_symbol_class(spec)
        assert report.s2_constants[2] == pytest.approx(abs(gamma * (gamma - 1)), rel=0.05)

    def test_2d_power_symbol_passes(self):
        spec = power_symbol(kappa=1.0, gamma=2.0, d=2, n_derivs=2)
        report = check_symbol_class(spec)
        assert report.passed



def _falling(gamma: float, k: int) -> float:
    """|gamma (gamma - 1) ... (gamma - k + 1)|: the d = 1 (S2) constant of
    order k of -|xi|^gamma, the same at every xi."""
    return abs(prod(gamma - i for i in range(k)))


def _modulation(rate):
    """k_fn, k_bound and k_deriv_bound of k(t) = 0.5*exp(-rate*t)."""
    return dict(k_fn=lambda t: 0.5 * np.exp(-rate * t), k_bound=0.5, k_deriv_bound=0.5 * rate)


class TestChebyshevClassCheck:
    def test_cached_rule_is_read_only(self):
        # every class check shares the cached arrays, so an in-place edit
        # would corrupt every later check
        for a in _chebyshev_rule(_CHEB_POINTS, 4):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_1d_constants_match_falling_factorial(self, gamma):
        report = check_symbol_class(power_symbol(1.0, gamma))
        assert sorted(report.s2_constants) == list(range(7))
        for k, c in report.s2_constants.items():
            assert abs(c - _falling(gamma, k)) <= 1e-5 * max(1.0, _falling(gamma, k)), k

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_2d_derivatives_match_sympy(self, gamma):
        import sympy

        x, y = sympy.symbols("x y", real=True)
        exponent = sympy.Rational(str(gamma)) / 2
        exact = {(0, 0): -((x**2 + y**2) ** exponent)}
        for k in range(1, 7):
            for a in range(k + 1):
                b = k - a
                exact[(a, b)] = sympy.diff(exact[(a - 1, b)] if a else exact[(a, b - 1)], x if a else y)
        xi = _sample_points(2)[1]
        spec = power_symbol(1.0, gamma, d=2)
        got = _BoxRule(xi, _CHEB_POINTS, 6).derivatives(spec, 0.0)
        r = np.linalg.norm(xi, axis=-1)
        values = sympy.lambdify((x, y), list(exact.values()), "numpy")(xi[:, 0], xi[:, 1])
        for (a, b), want in zip(exact, values):
            err = np.abs(got[:, a, b] - want) / r ** (gamma - a - b)
            assert np.max(err) <= 1e-5, (a, b)

    def test_chebyshev_derivatives_at_zero_are_exact(self):
        # T_m^(k)(0) enters every weight row; numpy's Chebyshev.basis(m)
        # .deriv(k)(0.0) gives -144.0000000000001 at (12, 2)
        import sympy

        x = sympy.symbols("x")
        got = _chebyshev_at_zero(_CHEB_POINTS, 7)
        assert np.issubdtype(got.dtype, np.integer)
        for m in range(_CHEB_POINTS):
            poly = sympy.chebyshevt_poly(m, x, polys=True)
            for k in range(8):
                assert got[k, m] == factorial(k) * int(poly.coeff_monomial(x**k)), (m, k)

    def test_verdict_flips_at_exact_constant(self):
        # falling factorials of 5.5 peak at order 5: 5.5*4.5*3.5*2.5*1.5
        gamma = 5.5
        exact = max(_falling(gamma, k) for k in range(7))
        assert exact == _falling(gamma, 5)
        spec = power_symbol(1.0, gamma)
        above = check_symbol_class(replace(spec, mu=1.01 * exact))
        below = check_symbol_class(replace(spec, mu=0.99 * exact))
        assert above.passed_s2 and above.passed
        assert not below.passed_s2 and not below.passed
        assert below.s2_margin == pytest.approx(1 / 0.99, rel=1e-6)

    @pytest.mark.parametrize("rate", [None, 2.0], ids=["static", "modulated"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_default_power_symbols_pass(self, gamma, d, rate):
        spec = power_symbol(1.0, gamma, d=d, **(_modulation(rate) if rate else {}))
        report = check_symbol_class(spec)
        assert report.passed
        assert sorted(report.s2_constants) == list(range(7))  # every |alpha| <= 6

    @pytest.mark.parametrize("rate", [1.0, 2.0])
    def test_1d_time_derivative_constants(self, rate):
        # d/dt of -(1 + 0.5 e^{-rate t})|xi|^gamma peaks at t = 0 with 0.5*rate
        gamma = 1.5
        report = check_symbol_class(power_symbol(1.0, gamma, **_modulation(rate)))
        for k in range(5):
            assert report.s3_constants[k] == pytest.approx(0.5 * rate * _falling(gamma, k), rel=1e-3)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rate", [1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    def test_time_derivative_constants_every_order(self, gamma, rate, d):
        # psi = -(1 + 0.5 e^{-rate t})|xi|^gamma: both constants peak at t = 0,
        # where d/dt psi = -(0.5*rate/1.5) psi, so at every order the exact
        # (S3) constant is (0.5*rate/1.5) times the (S2) one
        report = check_symbol_class(power_symbol(1.0, gamma, d=d, **_modulation(rate)))
        for k, c in report.s2_constants.items():
            exact = 0.5 * rate / 1.5 * c
            assert abs(report.s3_constants[k] - exact) <= 1e-3 * max(1.0, exact), k

    def test_derivative_error_flags_symbol_not_smooth_on_box(self):
        # -sum |xi_i|^(3/2) is not smooth on the axes, which the boxes of the
        # default d = 2 samples (angles down to 0.2 rad) cross
        rough = SymbolSpec(
            eval_fn=lambda t, xi: (-np.sum(np.abs(xi) ** 1.5, axis=-1)).astype(complex),
            kappa=0.5,
            mu=1.0,
            gamma=1.5,
            n_derivs=6,
            d=2,
        )
        rough_report = check_symbol_class(rough)
        assert rough_report.derivative_error > 0.1 * max(rough_report.s2_constants.values())
        for gamma in (0.5, 1.0):
            spec = power_symbol(1.0, gamma, d=2)
            report = check_symbol_class(spec)
            assert report.derivative_error * spec.mu <= 1e-4 * max(report.s2_constants.values())

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
    def test_time_independent_symbol_skips_the_time_loop(self, gamma, d):
        # the boxes at t = 0 give every constant the loop over the sample
        # times gives, and (S3) is exactly 0 where the loop's differences
        # leave roundoff
        spec = power_symbol(1.0, gamma, d=d)
        loop = replace(spec, time_independent=False, time_coeff=None, xi_profile=None)
        once, looped = (asdict(check_symbol_class(s)) for s in (spec, loop))
        s3, s3_looped = once.pop("s3_constants"), looped.pop("s3_constants")
        assert once == looped
        assert sorted(s3) == sorted(s3_looped) == list(range(7))
        assert all(c == 0.0 for c in s3.values())
        assert max(s3_looped.values()) <= 1e-12 * max(once["s2_constants"].values())

    @pytest.mark.parametrize("d,calls", [(1, 6), (2, 20)])
    def test_time_independent_symbol_evaluated_once_per_pass(self, d, calls):
        # (S1) at the four sample times, then one fine and one coarse box
        # pass at t = 0: 1 + 1 and 10 + 6 calls of at most _BOX_POINTS
        # points in d = 1 and d = 2, against 20 and 148 over the time loop
        spec = power_symbol(1.0, 2.0, d=d)
        seen = []

        def evaluate(t, xi):
            seen.append(t)
            return spec.eval_fn(t, xi)

        check_symbol_class(replace(spec, eval_fn=evaluate))
        assert len(seen) == calls
        assert seen[:4] == [0.0, 0.5, 1.0, 2.0] and set(seen[4:]) == {0.0}

    @pytest.mark.parametrize("d", [1, 2])
    def test_separable_symbol_boxes_taken_once(self, d):
        # eval_fn gives (S1) at the four sample times; the boxes are the
        # profile's, one fine and one coarse pass: 1 + 1 and 10 + 6 calls of
        # at most _BOX_POINTS points in d = 1 and d = 2, after the array of
        # sample times of the factorization guard.  The time loop of
        # eval_fn took 20 and 148 calls
        spec = power_symbol(1.0, 1.5, d=d, **_modulation(2.0))
        seen, profiles = [], []

        def evaluate(t, xi):
            seen.append(t)
            return spec.eval_fn(t, xi)

        def profile(xi):
            profiles.append(xi.shape)
            return spec.xi_profile(xi)

        check_symbol_class(replace(spec, eval_fn=evaluate, xi_profile=profile))
        assert seen == [0.0, 0.5, 1.0, 2.0]
        assert len(profiles) == (3 if d == 1 else 17)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "gamma,rate", [(0.25, 1.0), (1.0, 2.0), (0.5, 2.0), (1.5, 2.0), (2.0, 2.0), (3.0, 2.0)]
    )
    def test_separable_report_matches_the_eval_fn_loop(self, gamma, rate, d):
        # the same symbol without its factors runs the eval_fn loop.  (S1)
        # reads the same values; the (S2) constants differ by the box rule's
        # roundoff, a few 1e-6 at order 6, since time_coeff scales the
        # contraction instead of the values; the loop's (S3) differences
        # amplify that by 1/(2 _T_STEP), so they agree to the verdicts'
        # 1e-3.  (0.25, 1.0) and (1.0, 2.0) are the symbols of the
        # modulated-graded-1d benchmark workload at d = 1
        spec = power_symbol(1.0, gamma, d=d, **_modulation(rate))
        split = check_symbol_class(spec)
        loop = check_symbol_class(replace(spec, time_coeff=None, xi_profile=None))
        assert split.s1_margin == loop.s1_margin
        for got, want, tol in ((split.s2_constants, loop.s2_constants, 1e-5), (split.s3_constants, loop.s3_constants, 1e-3)):
            assert sorted(got) == sorted(want) == list(range(7))
            for k in got:
                assert abs(got[k] - want[k]) <= tol * max(1.0, want[k]), k
        assert split.s2_margin == pytest.approx(loop.s2_margin, rel=1e-5, abs=1e-9)
        assert (split.passed_s1, split.passed_s2, split.passed_s3) == (loop.passed_s1, loop.passed_s2, loop.passed_s3)

    @pytest.mark.parametrize("d,gamma", [(1, 1.0), (1, 2.0), (2, 2.0)])
    def test_separable_time_derivative_zero_where_exact(self, d, gamma):
        # |xi| in d = 1 and |xi|^2 have no xi-derivatives past order gamma,
        # so neither has psi's t-derivative: the difference of time_coeff
        # times one pass leaves the rule's roundoff, below 1e-5, where the
        # difference of two passes left up to 2.4e-4
        report = check_symbol_class(power_symbol(1.0, gamma, d=d, **_modulation(2.0)))
        for k, c in report.s3_constants.items():
            if k > gamma:
                assert c <= 1e-5, k

    def test_time_independent_mark_checked(self):
        def evaluate(t, xi):
            return (-np.sum(xi**2, axis=-1) * (2.0 + np.sin(t))).astype(complex)

        spec = SymbolSpec(eval_fn=evaluate, kappa=1.0, mu=30.0, gamma=2.0, n_derivs=2, time_independent=True)
        with pytest.raises(ValueError, match="time-independent"):
            check_symbol_class(spec)
        assert check_symbol_class(replace(spec, time_independent=False)).passed_s1

    @pytest.mark.parametrize("rate", [None, 2.0], ids=["static", "modulated"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_separable_factorization_checked(self, d, rate):
        # G integrates time_coeff and multiplies by xi_profile; the check
        # differentiates eval_fn, so the two must be one symbol
        spec = power_symbol(1.0, 1.5, d=d, **(_modulation(rate) if rate else {}))
        doubled = replace(spec, xi_profile=lambda xi: 2.0 * spec.xi_profile(xi))
        with pytest.raises(ValueError, match="time_coeff \\* xi_profile"):
            check_symbol_class(doubled)

    def test_rejects_orders_beyond_rule_accuracy(self):
        spec = SymbolSpec(
            eval_fn=lambda t, xi: -np.sum(xi**2, axis=-1) + 0j,
            kappa=1.0,
            mu=1e6,
            gamma=2.0,
            n_derivs=8,
        )
        with pytest.raises(ValueError):
            check_symbol_class(spec)

    @pytest.mark.parametrize(
        "d,psi1,psi2,variant",
        [
            (1, (0.5, None), (1.0, None), "g_function"),  # static-1d
            (1, (0.25, 1.0), (1.0, 2.0), "g_tilde"),  # modulated-graded-1d
            (2, (1.0, None), (1.0, None), "g_function"),  # sharp-2d
        ],
    )
    def test_benchmark_symbols_check_without_warning(self, d, psi1, psi2, variant):
        # psi = -(1 + 0.5 e^{-rate t})|xi|^gamma, as the benchmark workloads build them
        p1, p2 = (
            power_symbol(1.0, g, d=d, **(_modulation(rate) if rate else {})) for g, rate in (psi1, psi2)
        )
        assert check_symbol_class(p1).passed and check_symbol_class(p2).passed
        grid = make_grid(d, 8, 0.5, np.array([0.0, 0.5, 1.0]))
        f = SpaceTimeField(grid, 1, np.ones((3,) + (8,) * d + (1,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if variant == "g_function":
                g_function(f, p1, p2, 0.0, 0.0, 2.0)
            else:
                g_tilde(f, p1, p2, 0.0, 2.0)
