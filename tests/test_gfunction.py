import collections
import functools
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

import lpevo.gfunction as gfunction
from lpevo.gfunction import (
    GFunctionResult,
    QuadratureSpec,
    _gl_rule,
    g_function,
    g_lp_norm,
    g_tilde,
    graded_quadrature,
    integrated_symbol,
)
from lpevo.grid import SpaceTimeField, lattice_forward, lattice_inverse, lebesgue_norm, lp_norm, make_grid, vector_norm
from lpevo.symbols import SymbolEvaluationError, SymbolSpec, check_symbol_class, eval_symbol, power_symbol


def _grid(n=64, L=np.pi, nt=17, t1=1.0):
    return make_grid(1, n, L, np.linspace(0.0, t1, nt))


def _mode_field(grid, k=2, m=1, envelope=None):
    xi0 = grid.freq[k]  # the wave number k >= 0, in FFT order
    base = np.exp(1j * xi0 * grid.x)
    T = len(grid.t_grid)
    env = np.ones(T) if envelope is None else envelope(grid.t_grid)
    vals = env[:, None, None] * np.repeat(base[:, None], m, axis=1)[None, :, :]
    return SpaceTimeField(grid, m, vals), xi0


def window_integral_oracle(a, t, beta, c):
    """int_a^t (t-s)^(beta-1) e^{-c(t-s)} ds by the incomplete-gamma closed form."""
    return gamma_fn(beta) * gammainc(beta, c * (t - a)) / c**beta


def panel_loop_quadrature(a, t, beta, quad=QuadratureSpec()):
    """The graded quadrature built one panel at a time: the reference the
    vectorized graded_quadrature must reproduce bit for bit."""
    big_u = (t - a) ** beta
    edges = list(big_u * np.arange(1, quad.panels + 1) / quad.panels)
    first = big_u / quad.panels
    sub = [first * gfunction._SPLIT_RATIO**-j for j in range(1, quad.split_levels + 1)]
    edges = [0.0] + sub[::-1] + edges
    z, w = _gl_rule(quad.order)
    nodes, weights = [], []
    for ua, ub in zip(edges[:-1], edges[1:]):
        mid, half = (ua + ub) / 2.0, (ub - ua) / 2.0
        u = mid + half * z
        nodes.append(t - u ** (1.0 / beta))
        weights.append(half * w / beta)
    s_nodes = np.clip(np.concatenate(nodes), a, np.nextafter(t, a))
    return s_nodes, np.concatenate(weights)


class TestGradedQuadrature:
    @pytest.mark.parametrize("a,t", [(0.0, 1.0), (-0.75, 0.3), (0.2, 0.2 + 1e-9), (1.5, 17.0)])
    @pytest.mark.parametrize(
        "quad",
        [
            QuadratureSpec(),
            QuadratureSpec(panels=16, order=4, split_levels=8),
            QuadratureSpec(panels=3, order=1, split_levels=0),
            QuadratureSpec(panels=7, order=5, split_levels=3),
            # the least knobs, one a numpy integer
            QuadratureSpec(panels=np.int64(1), order=1, split_levels=0),
        ],
    )
    def test_matches_panel_loop_reference(self, a, t, quad):
        for beta in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            s, w = graded_quadrature(a, t, beta, quad)
            s_ref, w_ref = panel_loop_quadrature(a, t, beta, quad)
            assert np.array_equal(s, s_ref) and np.array_equal(w, w_ref), beta

    def test_reference_grid_reaches_the_clip_at_t(self):
        # beta < 1 and a window from a < 0: the nodes nearest t round onto t
        # and are clipped to the float just below it
        s, _ = graded_quadrature(-0.75, 0.3, 0.25)
        assert np.sum(s == np.nextafter(0.3, -0.75)) > 1 and np.all(s < 0.3)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c", [0.5, 4.0, 30.0])
    def test_matches_gamma_oracle(self, beta, c):
        s, w = graded_quadrature(0.0, 1.0, beta)
        got = np.sum(w * np.exp(-c * (1.0 - s)))
        exact = window_integral_oracle(0.0, 1.0, beta, c)
        assert abs(got - exact) / exact < 1e-6

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_doubling_panels_stable(self, beta):
        base = QuadratureSpec()
        fine = QuadratureSpec(panels=base.panels * 2)
        for c in (1.0, 10.0):
            s1, w1 = graded_quadrature(0.0, 1.0, beta, base)
            s2, w2 = graded_quadrature(0.0, 1.0, beta, fine)
            v1 = np.sum(w1 * np.exp(-c * (1.0 - s1)))
            v2 = np.sum(w2 * np.exp(-c * (1.0 - s2)))
            assert abs(v2 - v1) / v1 < 1e-6

    def test_pure_weight_mass(self):
        # int_0^T (T-s)^(beta-1) ds = T^beta / beta
        for beta in (0.5, 1.0, 2.0):
            s, w = graded_quadrature(0.0, 2.0, beta)
            assert np.sum(w) == pytest.approx(2.0**beta / beta, rel=1e-12)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            graded_quadrature(1.0, 1.0, 1.0)

    # each of these once passed silently, to NaN nodes or zero weights
    @pytest.mark.parametrize(
        "a, t, beta",
        [
            (0.0, np.nan, 1.0), (np.nan, 1.0, 1.0), (0.0, np.inf, 1.0),
            (-np.inf, 1.0, 1.0), (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
        ],
    )
    def test_rejects_non_finite_window_or_beta(self, a, t, beta):
        with pytest.raises(ValueError):
            graded_quadrature(a, t, beta)

    @pytest.mark.parametrize(
        "a, times",
        [(0.0, [1.0, 0.25, 3.0]), (-0.75, [0.3, 0.3 + 1e-9, 17.0]), (0.2, [0.2 + 1e-9])],
        ids=["a=0", "a<0", "one-time"],
    )
    def test_array_of_times_equals_the_scalar_calls(self, a, times):
        quad = QuadratureSpec(panels=7, order=5, split_levels=3)
        for beta in (0.25, 1.0, 1.5, 3.0):
            s, w = graded_quadrature(a, np.array(times), beta, quad)
            parts = [graded_quadrature(a, t, beta, quad) for t in times]
            assert np.array_equal(s, np.concatenate([p[0] for p in parts]))
            assert np.array_equal(w, np.concatenate([p[1] for p in parts]))
        assert [len(x) for x in graded_quadrature(a, np.array([]), 1.0, quad)] == [0, 0]

    def test_array_of_times_keeps_both_clips(self, monkeypatch):
        # a rule with nodes at the panel ends puts the first node of every
        # window on t, and roundoff takes the last one of some below a: both
        # clips act, and they act per output time as in the scalar calls
        monkeypatch.setattr(gfunction, "_gl_rule", lambda order: (np.array([-1.0, 1.0]), np.array([1.0, 1.0])))
        a, times, quad = 0.1, np.array([0.3, 0.9, 1.0, 1.7]), QuadratureSpec(panels=3, order=2, split_levels=1)
        for beta in (1.0, 1.5, 3.0):
            s, w = graded_quadrature(a, times, beta, quad)
            parts = [graded_quadrature(a, float(t), beta, quad) for t in times]
            assert np.array_equal(s, np.concatenate([p[0] for p in parts]))
            assert np.array_equal(w, np.concatenate([p[1] for p in parts]))
            rows = s.reshape(len(times), -1)
            assert np.array_equal(rows[:, 0], np.nextafter(times, a))
        # at beta = 1 the last node of the window ending at 0.9, unclipped,
        # lies below a: u is the top edge of the last of the three panels
        big_u = 0.9 - a
        ua, ub = big_u * 2.0 / 3.0, big_u * 3.0 / 3.0
        assert 0.9 - ((ua + ub) / 2.0 + (ub - ua) / 2.0) < a
        s, _ = graded_quadrature(a, times, 1.0, quad)
        assert np.min(s) == a and s.reshape(len(times), -1)[1, -1] == a

    @pytest.mark.parametrize(
        "times",
        [[0.5, 0.0], [0.5, -0.1], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]],
        ids=["t=a", "t<a", "nan", "inf", "-inf"],
    )
    def test_array_of_times_rejects_a_bad_time(self, times):
        for t in (np.array(times), times[1] if times[0] == 0.5 else times[0]):
            with pytest.raises(ValueError, match="window requires finite a < t"):
                graded_quadrature(0.0, t, 1.0)

    def test_rejects_times_of_more_than_one_axis(self):
        with pytest.raises(ValueError, match="1-d array"):
            graded_quadrature(0.0, np.ones((2, 2)), 1.0)

    def test_rejects_complex_times(self):
        # a cast to float once dropped the imaginary part with only a
        # ComplexWarning, and gave the window of the real part
        with pytest.raises(ValueError, match="output times must be real"):
            graded_quadrature(0.0, np.array([0.5, 1.0 + 1.0j]), 1.0)

    # panels=2.5 once gave window weights summing to 0.6 where 0.5 is exact,
    # a negative split_levels counted as none, and a bool, an integer to
    # isinstance, counted as 0 or 1
    @pytest.mark.parametrize(
        "knobs",
        [
            {"panels": 2.5},
            {"panels": 0},
            {"panels": "8"},
            {"order": 0},
            {"order": 4.0},
            {"split_levels": -1},
            {"split_levels": None},
            {"panels": True},
            {"order": True},
            {"split_levels": True},
            {"split_levels": False},
        ],
    )
    def test_spec_rejects_non_integer_or_out_of_range_knobs(self, knobs):
        with pytest.raises(ValueError):
            QuadratureSpec(**knobs)

    def test_cached_rule_is_read_only(self):
        # every caller shares the cached arrays, so an in-place edit would
        # corrupt every later G
        for a in _gl_rule(4):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


class TestSingleModeOracle:
    @pytest.mark.parametrize(
        "gamma1,gamma2,q",
        [(0.5, 2.0, 2.0), (1.0, 2.0, 2.0), (2.0, 2.0, 2.0)],  # beta = 0.5, 1, 2
    )
    def test_constant_mode_matches_oracle(self, gamma1, gamma2, q):
        grid = _grid()
        kappa1, kappa2 = 1.3, 0.8
        psi1 = power_symbol(kappa1, gamma1)
        psi2 = power_symbol(kappa2, gamma2)
        f, xi0 = _mode_field(grid, k=2)
        beta = q * gamma1 / gamma2
        res = g_function(f, psi1, psi2, l=0.0, a=0.0, q=q)
        c = q * kappa2 * abs(xi0) ** gamma2
        for i, t in enumerate(grid.t_grid):
            if t <= 0:
                continue
            expected_q = (kappa1 * abs(xi0) ** gamma1) ** q * window_integral_oracle(
                0.0, t, beta, c
            )
            got = res.values[i, 0]
            assert got == pytest.approx(expected_q ** (1.0 / q), rel=1e-6)

    def test_constant_in_x(self):
        grid = _grid()
        psi1, psi2 = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        f, _ = _mode_field(grid, k=3)
        res = g_function(f, psi1, psi2, l=0.0, a=0.0, q=2.0)
        spread = np.max(res.values[-1]) - np.min(res.values[-1])
        assert spread < 1e-10 * max(np.max(res.values[-1]), 1e-30)


class TestGFunctionBasics:
    def test_zero_field(self):
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.zeros((5, 32, 1)))
        res = g_function(f, power_symbol(1.0, 1.0), power_symbol(1.0, 2.0), 0.0, 0.0, 2.0)
        assert np.all(res.values == 0)

    def test_rejects_small_q(self):
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.zeros((5, 32, 1)))
        with pytest.raises(ValueError):
            g_function(f, power_symbol(1.0, 1.0), power_symbol(1.0, 2.0), 0.0, 0.0, 1.5)

    # q = inf once gave G = 1 and a = nan all zeros, with no error
    @pytest.mark.parametrize("a, q", [(0.0, np.inf), (0.0, np.nan), (np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0)])
    @pytest.mark.parametrize("frozen", [True, False], ids=["g_function", "g_tilde"])
    def test_rejects_non_finite_q_or_window_start(self, a, q, frozen):
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.ones((5, 32, 1)))
        psi1, psi2 = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        with pytest.raises(ValueError):
            if frozen:
                g_function(f, psi1, psi2, 0.0, a, q)
            else:
                g_tilde(f, psi1, psi2, a, q)

    # a d = 2 symbol on a d = 1 grid used to give a G whose class check
    # described the other dimension
    @pytest.mark.parametrize("which", ["psi1", "psi2"])
    def test_rejects_symbols_of_another_dimension(self, which):
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.ones((5, 32, 1)))
        symbols = {"psi1": power_symbol(1.0, 1.0), "psi2": power_symbol(1.0, 2.0)}
        symbols[which] = power_symbol(1.0, symbols[which].gamma, d=2)
        with pytest.raises(ValueError, match="dimension"):
            g_function(f, symbols["psi1"], symbols["psi2"], 0.0, 0.0, 2.0)

    @pytest.mark.parametrize("frozen", [True, False], ids=["g_function", "g_tilde"])
    def test_complex_time_coefficient_rejected(self, frozen):
        # the node plan integrates a separable psi2's coefficient, and the
        # half lattice of real fields takes it real
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.ones((5, 32, 1)))
        psi1 = power_symbol(1.0, 1.0)
        psi2 = replace(_modulated(2.0, 1), time_coeff=lambda r: -(1.0 + 0.5j * r))
        with pytest.raises(ValueError, match="complex time coefficient"):
            if frozen:
                g_function(f, psi1, psi2, 0.0, 0.0, 2.0)
            else:
                g_tilde(f, psi1, psi2, 0.0, 2.0)

    # l = inf once gave G at the modulation's limit k(inf), l = -inf G at
    # l = 0 through the symbol's clamp, and l = nan an error about the symbol
    @pytest.mark.parametrize("l", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("modulated", [True, False], ids=["modulated", "static"])
    def test_non_finite_symbol_time_rejected(self, l, modulated):
        grid = _grid(n=16, nt=5)
        f = SpaceTimeField(grid, 1, np.cos(np.pi * grid.x)[None, :, None] * np.ones((5, 1, 1)))
        psi1 = _modulated(1.0, 1) if modulated else power_symbol(1.0, 1.0)
        with pytest.raises(ValueError, match="symbol times must be finite"):
            g_function(f, psi1, power_symbol(1.0, 2.0), l, 0.0, 2.0)

    # a NaN in a separable psi2's coefficient or profile once reached the
    # caller only as a non-finite G; as psi1 it already raised the symbol's
    # error (TestGTilde)
    @pytest.mark.parametrize(
        "factor",
        [
            {"time_coeff": lambda t: np.where(t > 0.5, np.nan, -1.0)},
            {"xi_profile": lambda xi: np.where(np.abs(xi[..., 0]) > 5.0, np.nan, xi[..., 0] ** 2)},
        ],
        ids=["coefficient", "profile"],
    )
    @pytest.mark.parametrize("frozen", [True, False], ids=["g_function", "g_tilde"])
    def test_separable_psi2_not_finite_rejected(self, factor, frozen):
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.ones((5, 32, 1)))
        psi1, psi2 = power_symbol(1.0, 1.0), replace(_modulated(2.0, 1), **factor)
        with pytest.raises(SymbolEvaluationError, match="non-finite"):
            if frozen:
                g_function(f, psi1, psi2, 0.0, 0.0, 2.0)
            else:
                g_tilde(f, psi1, psi2, 0.0, 2.0)

    def test_failing_class_check_warns_not_fatal(self):
        from lpevo.symbols import SymbolSpec

        grid = _grid(n=32, nt=5)
        f, _ = _mode_field(grid, k=2)
        bad = SymbolSpec(
            eval_fn=lambda t, xi: -np.sum(xi**2, axis=-1) * (2 + np.sin(t * np.sum(xi**2, axis=-1))) + 0j,
            kappa=1.0,
            mu=2.0,
            gamma=2.0,
            n_derivs=2,
            class_flag="S_T",
        )
        # the check flags the symbol; G is still evaluated
        assert not check_symbol_class(bad).passed
        res = g_function(f, bad, power_symbol(1.0, 2.0), 0.0, 0.0, 2.0)
        assert np.all(np.isfinite(res.values))

    def test_monotone_in_window(self):
        grid = _grid(n=32, nt=9)
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(9, 32, 1)) * (1 + 0j)
        f = SpaceTimeField(grid, 1, vals)
        psi1, psi2 = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        wide = g_function(f, psi1, psi2, 0.0, a=0.0, q=2.0)
        narrow = g_function(f, psi1, psi2, 0.0, a=0.5, q=2.0)
        i = len(grid.t_grid) - 1
        assert np.all(wide.values[i] >= narrow.values[i] - 1e-12)

    def test_homogeneity(self):
        grid = _grid(n=32, nt=7)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(7, 32, 2)) + 1j * rng.normal(size=(7, 32, 2))
        f = SpaceTimeField(grid, 2, vals)
        cf = SpaceTimeField(grid, 2, 3.5 * vals)
        psi1, psi2 = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        quad = QuadratureSpec(panels=12, order=4, split_levels=6)
        g1 = g_function(f, psi1, psi2, 0.0, 0.0, 2.0, quad)
        g2 = g_function(cf, psi1, psi2, 0.0, 0.0, 2.0, quad)
        assert g_lp_norm(g2, 2.0) == pytest.approx(3.5 * g_lp_norm(g1, 2.0), rel=1e-10)


class TestWindowStart:
    # tolerances relative to the time span: an absolute 1e-12 accepted a
    # start five steps before the first node at steps of 1e-13, and an
    # absolute 1e-15 skipped every output time at steps of 1e-16
    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_start_before_first_node_rejected_in_any_time_unit(self, scale):
        grid = make_grid(1, 8, 1.0, np.arange(4) * scale)
        f = SpaceTimeField(grid, 1, np.ones((4, 8, 1)))
        with pytest.raises(ValueError, match="before the first time node"):
            g_function(f, power_symbol(1.0, 1.0), power_symbol(1.0, 2.0), 0.0, -5 * scale, 2.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-16])
    def test_no_output_time_skipped_in_any_time_unit(self, scale):
        grid = make_grid(1, 8, 1.0, np.arange(4) * scale)
        f = SpaceTimeField(grid, 1, np.random.default_rng(3).normal(size=(4, 8, 1)))
        quad = QuadratureSpec(panels=4, order=2, split_levels=2)
        res = g_function(f, power_symbol(1.0, 1.0), power_symbol(1.0, 2.0), 0.0, 0.0, 2.0, quad)
        assert np.all(res.values[0] == 0) and np.all(res.values[1:] > 0)

    # a real field under separable symbols takes the stacked Hermitian test
    # of psi1, over no output time here
    @pytest.mark.parametrize("d", [1, 2])
    def test_window_start_at_the_last_node_gives_zero(self, d):
        f = _random_field(d, 8, 1, nt=4, seed=1, real=True)
        res = g_tilde(f, _modulated(1.0, d), _modulated(2.0, d), a=float(f.grid.t_grid[-1]), q=3.0)
        assert res.values.shape == (4,) + (8,) * d and not np.any(res.values)


class TestGTilde:
    def test_time_independent_psi1_reduces_to_g(self):
        grid = _grid(n=32, nt=7)
        rng = np.random.default_rng(2)
        f = SpaceTimeField(grid, 1, rng.normal(size=(7, 32, 1)) * (1 + 0j))
        psi1, psi2 = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        quad = QuadratureSpec(panels=12, order=4, split_levels=6)
        a_res = g_tilde(f, psi1, psi2, 0.0, 2.0, quad)
        b_res = g_function(f, psi1, psi2, l=17.0, a=0.0, q=2.0, quad=quad)
        assert np.max(np.abs(a_res.values - b_res.values)) < 1e-12

    def test_zero_field(self):
        grid = _grid(n=32, nt=5)
        f = SpaceTimeField(grid, 1, np.zeros((5, 32, 1)))
        res = g_tilde(f, power_symbol(1.0, 1.0), power_symbol(1.0, 2.0), 0.0, 2.0)
        assert np.all(res.values == 0)

    def test_separable_psi1_not_finite_at_an_output_time_rejected(self):
        # the stack of a separable psi1, its coefficient at every output time
        # times its profile, is checked as each evaluation of psi1 is
        def coeff(t):
            return np.where(np.asarray(t) > 0.8, np.nan, -1.0)

        def profile(xi):
            return np.abs(xi[..., 0])

        psi1 = SymbolSpec(
            eval_fn=lambda t, xi: coeff(t) * profile(xi) + 0j, kappa=1.0, mu=10.0, gamma=1.0, n_derivs=2,
            time_coeff=coeff, xi_profile=profile,
        )
        f = _random_field(1, 16, 1, nt=4, seed=5, real=True)
        assert np.sum(f.grid.t_grid > 0.8) == 1
        quad = QuadratureSpec(4, 4, 2)
        with pytest.raises(SymbolEvaluationError, match="non-finite"):
            g_tilde(f, psi1, power_symbol(1.0, 2.0), f.grid.a, 3.0, quad)
        # frozen at a time where it is finite, the same psi1 passes
        assert np.all(np.isfinite(g_function(f, psi1, power_symbol(1.0, 2.0), 0.5, f.grid.a, 3.0, quad).values))

    def test_modulated_psi1_single_mode_oracle(self):
        # |psi1(t, xi0)| enters the integrand at the outer time
        grid = _grid(nt=9)
        kappa1, gamma1 = 1.0, 1.0
        kappa2, gamma2 = 1.0, 2.0
        q = 2.0
        psi1 = power_symbol(
            kappa1, gamma1, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5
        )
        psi2 = power_symbol(kappa2, gamma2)
        f, xi0 = _mode_field(grid, k=2)
        res = g_tilde(f, psi1, psi2, a=0.0, q=q)
        beta = q * gamma1 / gamma2
        c = q * kappa2 * abs(xi0) ** gamma2
        i = len(grid.t_grid) - 1
        t = grid.t_grid[i]
        amp = (kappa1 + 0.5 * np.exp(-t)) * abs(xi0) ** gamma1
        expected_q = amp**q * window_integral_oracle(0.0, t, beta, c)
        assert res.values[i, 0] == pytest.approx(expected_q ** (1.0 / q), rel=1e-6)


class TestGLpNorm:
    def test_zero(self):
        grid = _grid(n=32, nt=5)
        res = GFunctionResult(grid, 2.0, np.zeros((5, 32)))
        assert g_lp_norm(res, 2.0) == 0.0

    def test_constant_one(self):
        L = 5.0
        grid = make_grid(1, 64, L, np.linspace(0, 1, 9))
        res = GFunctionResult(grid, 2.0, np.ones((9, 64)))
        assert g_lp_norm(res, 2.0) == pytest.approx(np.sqrt(2 * L), rel=1e-12)

    def test_rejects_p_below_q(self):
        grid = _grid(n=32, nt=5)
        res = GFunctionResult(grid, 3.0, np.zeros((5, 32)))
        with pytest.raises(ValueError):
            g_lp_norm(res, 2.0)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_p(self, p):
        grid = _grid(n=32, nt=5)
        res = GFunctionResult(grid, 2.0, np.full((5, 32), 3.0))
        with pytest.raises(ValueError):
            g_lp_norm(res, p)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_result_rejects_negative_or_nan_values(self, bad):
        values = np.ones((5, 32))
        values[2, 7] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GFunctionResult(_grid(n=32, nt=5), 2.0, values)


# -- the batched core against node-by-node references -------------------------

def _interp_hat(f_hat, t_grid, s):
    """f^ linearly interpolated in time at one s, as the method defines it."""
    j = min(max(int(np.searchsorted(t_grid, s, side="right")) - 1, 0), len(t_grid) - 2)
    lam = (s - t_grid[j]) / (t_grid[j + 1] - t_grid[j])
    return (1.0 - lam) * f_hat[j] + lam * f_hat[j + 1]


def per_node_reference(f, psi1, psi2, l, a, q, quad):
    """G f with one inverse transform per (t, s-node); l = None tracks t."""
    grid = f.grid
    xi = grid.freq_vectors()
    beta = q * psi1.gamma / psi2.gamma
    f_hat = lattice_forward(f.values, grid)
    out = np.zeros((len(grid.t_grid),) + grid.spatial_shape())
    for i, t in enumerate(grid.t_grid):
        if t <= a:
            continue
        mult1 = eval_symbol(psi1, t if l is None else l, xi)
        s_nodes, w_nodes = graded_quadrature(a, float(t), beta, quad)
        for s, w in zip(s_nodes, w_nodes):
            window = np.exp(integrated_symbol(psi2, s, float(t), xi))
            spec = (mult1 * window)[..., None] * _interp_hat(f_hat, grid.t_grid, s)
            out[i] += w * vector_norm(lattice_inverse(spec, grid)) ** q
    return out ** (1.0 / q)


def _random_field(d, n, m, nt, seed, real=False):
    """Gaussian samples, complex or real; a real field under Hermitian
    multipliers takes the core's half-lattice path."""
    grid = make_grid(d, n, 0.5, (np.arange(nt) + 0.5) / nt)
    rng = np.random.default_rng(seed)
    shape = (nt,) + (n,) * d + (m,)
    values = rng.normal(size=shape) + (0.0 if real else 1j * rng.normal(size=shape))
    return SpaceTimeField(grid, m, values)


def _refined_pair(f):
    """``f`` without its Nyquist modes, and the same band-limited function on
    the lattice twice as fine over the same box and times, by zero-padding
    its coefficients in FFT order.  A real field stays real on both, since
    the Nyquist modes are the ones that pair with themselves."""
    grid, n, d, m = f.grid, f.grid.n, f.grid.d, f.m
    keep = np.arange(n) != n // 2
    coeffs = lattice_forward(f.values, grid) * functools.reduce(np.multiply.outer, [keep] * d)[..., None]
    fine_grid = make_grid(d, 2 * n, grid.half_length, grid.t_grid)
    fine_index = np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) + n)
    padded = np.zeros((len(grid.t_grid),) + (2 * n,) * d + (m,), dtype=complex)
    padded[np.ix_(np.arange(len(grid.t_grid)), *[fine_index] * d, np.arange(m))] = coeffs
    coarse, fine = lattice_inverse(coeffs, grid), lattice_inverse(padded, fine_grid)
    if not np.any(f.values.imag):
        coarse, fine = coarse.real, fine.real
    return SpaceTimeField(grid, m, coarse), SpaceTimeField(fine_grid, m, fine)


def _modulated(gamma, d, amp=0.5, rate=2.0):
    return power_symbol(
        1.0, gamma, k_fn=lambda t: amp * np.exp(-rate * t), k_bound=amp,
        k_deriv_bound=amp * rate, d=d,
    )


def _non_separable(d):
    # psi(t, xi) = -|xi|^2 (1 + 0.5 t / (1 + |xi|)): no time/frequency split
    def evaluate(t, xi):
        r = np.sqrt(np.sum(xi**2, axis=-1))
        return -(r**2) * (1.0 + 0.5 * t / (1.0 + r)) + 0j

    return SymbolSpec(eval_fn=evaluate, kappa=1.0, mu=10.0, gamma=2.0, n_derivs=2, d=d)


def _drift(gamma, d, c=0.7):
    # psi(t, xi) = -|xi|^gamma + i c (1 + t) xi_1: complex on the lattice, so
    # the core must keep its imaginary part.  It is Hermitian on every pair
    # c, n - c but complex on the self-paired Nyquist row, so a real field
    # under it must keep the full lattice
    def evaluate(t, xi):
        r = np.sqrt(np.sum(xi**2, axis=-1))
        return -(r**gamma) + 1j * c * (1.0 + t) * xi[..., 0]

    return SymbolSpec(eval_fn=evaluate, kappa=1.0, mu=10.0, gamma=gamma, n_derivs=2, d=d)


def _psi2(kind, d):
    return {
        "static": power_symbol(1.0, 2.0, d=d),
        "separable": _modulated(2.0, d),
        "general": _non_separable(d),
    }[kind]


def _with_real(*cases):
    """Each case with a complex field under its own id, then with a real
    field under the id suffixed "-real"."""
    params = []
    for real in (False, True):
        for case in cases:
            case = case if isinstance(case, tuple) else (case,)
            name = "-".join(map(str, case)) + ("-real" if real else "")
            params.append(pytest.param(*case, real, id=name))
    return params


def _small_batches(monkeypatch, grid):
    """Cap a batch at 7 nodes of the full lattice, 11 to 13 of the half one,
    so that the reference cases' 144 or 24 nodes per output time take
    several batches, the last one partial."""
    monkeypatch.setattr(gfunction, "_BATCH_ENTRIES", 7 * grid.n**grid.d)


class TestBatchedCore:
    # 144 nodes per output time
    QUAD = QuadratureSpec(panels=20, order=6, split_levels=4)

    # q = 3 under every variant and symbol kind; q = 2, 5 and 2.5 take the
    # other branches of the power |u|_V^q (none, the square of |u|_V^2 times
    # its square root, and pow) under ids of their own
    CASES = [
        pytest.param(variant, kind, 3.0, id=f"{variant}-{kind}")
        for kind in ("static", "separable", "general")
        for variant in ("g_function", "g_tilde")
    ] + [
        pytest.param("g_function", kind, q, id=f"g_function-{kind}-q{q:g}")
        for q in (2.0, 5.0, 2.5)
        for kind in ("static", "separable")
    ]

    @pytest.mark.parametrize("d,n,m,real", _with_real((1, 64, 2), (1, 32, 1), (2, 8, 1), (2, 8, 2)))
    @pytest.mark.parametrize("variant,kind,q", CASES)
    def test_matches_per_node_reference(self, monkeypatch, d, n, m, real, variant, kind, q):
        f = _random_field(d, n, m, nt=4, seed=20 + d + m, real=real)
        _small_batches(monkeypatch, f.grid)
        psi2 = _psi2(kind, d)
        psi1 = _modulated(1.0, d, amp=0.3, rate=1.0)
        quad = self.QUAD if kind != "general" else QuadratureSpec(panels=4, order=4, split_levels=2)
        if variant == "g_function":
            got = g_function(f, psi1, psi2, l=0.2, a=f.grid.a, q=q, quad=quad).values
            want = per_node_reference(f, psi1, psi2, 0.2, f.grid.a, q, quad)
        else:
            got = g_tilde(f, psi1, psi2, a=f.grid.a, q=q, quad=quad).values
            want = per_node_reference(f, psi1, psi2, None, f.grid.a, q, quad)
        assert np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    # s = (2 pi)^(-1) (pi / L)^2 is 1.6e-4 at L = 100, so summing |u / s|^q
    # for |u| near 1 would overflow from q of about 80
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_large_q_keeps_the_range_of_the_signed_inverse(self, monkeypatch, real):
        f = _random_field(2, 8, 1, nt=4, seed=70, real=real)
        f = SpaceTimeField(make_grid(2, 8, 100.0, f.grid.t_grid), 1, f.values)
        _small_batches(monkeypatch, f.grid)
        psi1, psi2 = _modulated(1.0, 2, amp=0.3, rate=1.0), power_symbol(1.0, 2.0, d=2)
        quad = QuadratureSpec(panels=4, order=4, split_levels=2)
        got = g_function(f, psi1, psi2, l=0.2, a=f.grid.a, q=120.0, quad=quad).values
        want = per_node_reference(f, psi1, psi2, 0.2, f.grid.a, 120.0, quad)
        assert np.all(np.isfinite(got)) and np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    # a real field under the drift symbol must keep the full lattice
    @pytest.mark.parametrize("d,n,real", _with_real((1, 32), (2, 8)))
    @pytest.mark.parametrize("which", ["psi1", "psi2"])
    @pytest.mark.parametrize("variant", ["g_function", "g_tilde"])
    def test_complex_symbol_matches_per_node_reference(self, monkeypatch, d, n, real, which, variant):
        f = _random_field(d, n, 2, nt=4, seed=40 + d, real=real)
        _small_batches(monkeypatch, f.grid)
        if which == "psi1":
            psi1, psi2 = _drift(1.0, d), power_symbol(1.0, 2.0, d=d)
            quad = self.QUAD
        else:
            psi1, psi2 = _modulated(1.0, d, amp=0.3, rate=1.0), _drift(2.0, d)
            quad = QuadratureSpec(panels=4, order=4, split_levels=2)
        l = 0.2 if variant == "g_function" else None
        if variant == "g_function":
            got = g_function(f, psi1, psi2, l=l, a=f.grid.a, q=3.0, quad=quad).values
        else:
            got = g_tilde(f, psi1, psi2, a=f.grid.a, q=3.0, quad=quad).values
        want = per_node_reference(f, psi1, psi2, l, f.grid.a, 3.0, quad)
        assert np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    # every lattice of the reference tests, full and half
    @pytest.mark.parametrize("d,n,real", _with_real((1, 64), (1, 32), (2, 8)))
    def test_reference_cases_span_a_partial_batch(self, monkeypatch, d, n, real):
        grid = make_grid(d, n, 0.5, [0.0, 1.0])
        _small_batches(monkeypatch, grid)
        lattice = n ** (d - 1) * (n // 2 + 1 if real else n)
        batch = gfunction._BATCH_ENTRIES // lattice
        for quad in (self.QUAD, QuadratureSpec(panels=4, order=4, split_levels=2)):
            nodes = len(graded_quadrature(0.0, 1.0, 1.0, quad)[0])
            assert nodes > batch and nodes % batch != 0

    @pytest.mark.parametrize("m,real", _with_real(1, 2))
    @pytest.mark.parametrize("kind", ["static", "separable", "general"])
    def test_batch_size_leaves_g_unchanged(self, monkeypatch, kind, m, real):
        f = _random_field(1, 32, m, nt=4, seed=50 + m, real=real)
        psi1, psi2 = _modulated(1.0, 1, amp=0.3, rate=1.0), _psi2(kind, 1)
        quad = self.QUAD if kind != "general" else QuadratureSpec(panels=4, order=4, split_levels=2)
        results = []
        # batches of one node, of a few, of 10 and of a whole output time
        for entries in (1, 7 * 32, 10 * 32, gfunction._BATCH_ENTRIES, 2**20):
            monkeypatch.setattr(gfunction, "_BATCH_ENTRIES", entries)
            results.append(g_tilde(f, psi1, psi2, a=f.grid.a, q=3.0, quad=quad).values)
        assert np.max(results[0]) > 0
        assert all(np.array_equal(results[0], r) for r in results[1:])

    def test_buffers_sized_from_the_quadrature_nodes(self, monkeypatch):
        # a quadrature that returns each node twice at half weight: the batch
        # buffers follow its node count, not the QuadratureSpec's
        f = _random_field(1, 16, 1, nt=4, seed=80)
        psi1, psi2 = _modulated(1.0, 1, amp=0.3, rate=1.0), power_symbol(1.0, 2.0)
        quad = QuadratureSpec(4, 4, 2)
        want = g_function(f, psi1, psi2, 0.2, f.grid.a, 3.0, quad).values

        def doubled(*args):
            s, w = graded_quadrature(*args)
            return np.repeat(s, 2), np.repeat(w / 2.0, 2)

        monkeypatch.setattr(gfunction, "graded_quadrature", doubled)
        got = g_function(f, psi1, psi2, 0.2, f.grid.a, 3.0, quad).values
        assert np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_peak_memory_flat_in_the_node_count(self, monkeypatch):
        # the batches and their work arrays are capped, so 8 times the
        # nodes per window leave the transient peak of G where it was.  The
        # plan alone grows with the nodes, by a weight, lambda and a
        # coefficient of 8 bytes and a one-byte interval index per node:
        # 768 nodes per output time add some 58 KB, too little for the 1.05
        # bound on the 2.5 MiB work arrays to see, so the plan has its own
        plans, node_plan = [], gfunction._node_plan

        def measured(*args):
            plan = node_plan(*args)
            plans.append((len(plan[1]), sum(x.nbytes for x in plan[1:] if x is not None)))
            return plan

        monkeypatch.setattr(gfunction, "_node_plan", measured)
        f = _random_field(2, 32, 1, nt=4, seed=90)
        psi1, psi2 = _modulated(1.0, 2, amp=0.3, rate=1.0), power_symbol(1.0, 2.0, d=2)
        peaks = []
        for quad in (QuadratureSpec(8, 8, 4), QuadratureSpec(92, 8, 4)):
            tracemalloc.start()
            try:
                g_function(f, psi1, psi2, 0.2, f.grid.a, 3.0, quad)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]
        assert [nodes for nodes, _ in plans] == [3 * 96, 3 * 768]
        for nodes, size in plans:
            assert size <= 25 * nodes

    @pytest.mark.parametrize(
        "d,n,m,real",
        [
            pytest.param(1, 64, 2, False, id="1-64-2"),
            pytest.param(2, 16, 2, False, id="2-16-2"),
            pytest.param(1, 128, 2, True, id="1-128-2-real"),
            pytest.param(2, 16, 2, True, id="2-16-2-real"),
        ],
    )
    @pytest.mark.parametrize("kind", ["static", "separable", "general"])
    def test_one_forward_and_one_inverse_per_batch(self, monkeypatch, kind, d, n, m, real):
        # one inverse per batch: one batch per output time at the default
        # cap, and several, the last partial, under a cap of a few nodes of
        # the full lattice.  A static or separable psi2's window integrals
        # come from the node plan, built once per G, so only a general psi2
        # calls integrated_symbol, once per batch
        calls = {"forward": 0, "inverse": 0, "symbol": []}
        lock = threading.Lock()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                with lock:  # the workers count concurrently
                    calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counted_symbol(psi, s, *args):
            calls["symbol"].append(len(s))
            return integrated_symbol(psi, s, *args)

        monkeypatch.setattr(gfunction, "lattice_forward", counted("forward", lattice_forward))
        monkeypatch.setattr(gfunction, "lattice_inverse", counted("inverse", lattice_inverse))
        monkeypatch.setattr(gfunction, "integrated_symbol", counted_symbol)
        f = _random_field(d, n, m, nt=5, seed=60, real=real)
        a = 0.25
        live = int(np.sum(f.grid.t_grid > a))
        general = kind == "general"
        quad, few = (QuadratureSpec(panels=4, order=4, split_levels=2), 10) if general else (self.QUAD, 40)
        nodes = len(graded_quadrature(a, 1.0, 1.5, quad)[0])
        # a real field under Hermitian multipliers works on the half lattice,
        # n // 2 + 1 along the last axis; a general psi2 keeps the full one
        lattice = n ** (d - 1) * (n // 2 + 1 if real and not general else n)
        default_cap = gfunction._BATCH_ENTRIES
        for workers in (1, 2):
            monkeypatch.setattr(gfunction, "_workers", lambda rows: workers)
            for cap, split in ((default_cap, False), (few * n**d, True)):
                monkeypatch.setattr(gfunction, "_BATCH_ENTRIES", cap)
                calls.update(forward=0, inverse=0, symbol=[])
                g_function(f, _modulated(1.0, d), _psi2(kind, d), 0.0, a, 3.0, quad)
                batch = cap // lattice
                sizes = [min(batch, nodes - lo) for lo in range(0, nodes, batch)]
                assert (len(sizes) > 1 and sizes[-1] < batch) == split
                symbol = sizes * live if general else []
                want = {"forward": 1, "inverse": len(sizes) * live, "symbol": symbol}
                if workers == 1:
                    assert calls == want
                else:
                    # two workers append their batch sizes in an order that
                    # thread timing sets: the sizes compare as a multiset
                    counted_sizes = collections.Counter(calls["symbol"])
                    assert {**calls, "symbol": counted_sizes} == {**want, "symbol": collections.Counter(symbol)}

    @pytest.mark.parametrize("variant", ["g_function", "g_tilde"])
    def test_static_symbols_evaluated_once_per_g(self, variant):
        calls = []

        def counted(spec):
            def evaluate(t, xi):
                calls.append(spec.name)
                return spec.eval_fn(t, xi)

            return SymbolSpec(
                eval_fn=evaluate, kappa=spec.kappa, mu=spec.mu, gamma=spec.gamma,
                n_derivs=spec.n_derivs, time_independent=True, name=spec.name,
            )

        f = _random_field(1, 64, 2, nt=6, seed=70)
        psi1 = counted(power_symbol(1.0, 1.0))
        psi2 = counted(power_symbol(1.0, 2.0))
        # a time-independent psi1 gives one row however its time is set, so
        # g_tilde, whose psi1 tracks the output time, evaluates it once too
        if variant == "g_function":
            g_function(f, psi1, psi2, 0.0, f.grid.a, 3.0, self.QUAD)
        else:
            g_tilde(f, psi1, psi2, f.grid.a, 3.0, self.QUAD)
        assert sorted(calls) == sorted([psi1.name, psi2.name])


class TestThreadedCore:
    # 4 live output times of 144 nodes each on an (n = 32) lattice
    QUAD = QuadratureSpec(panels=20, order=6, split_levels=4)

    @staticmethod
    def _g(f, variant, kind, workers, monkeypatch):
        monkeypatch.setattr(gfunction, "_workers", lambda rows: workers)
        psi1, psi2 = _modulated(1.0, 1, amp=0.3, rate=1.0), _psi2(kind, 1)
        quad = TestThreadedCore.QUAD if kind != "general" else QuadratureSpec(panels=4, order=4, split_levels=2)
        if variant == "g_function":
            return g_function(f, psi1, psi2, 0.2, 0.25, 3.0, quad).values
        return g_tilde(f, psi1, psi2, 0.25, 3.0, quad).values

    @pytest.mark.parametrize("m,real", _with_real(2))
    @pytest.mark.parametrize("kind", ["static", "separable", "general"])
    @pytest.mark.parametrize("variant", ["g_function", "g_tilde"])
    @pytest.mark.parametrize("cap", ["default", "few"])
    def test_bit_identical_for_every_worker_count(self, monkeypatch, cap, variant, kind, m, real):
        # each output time is summed by one worker, in the serial order, so
        # G is the same to the bit at 1, 2 and 3 workers, and at more
        # workers than output times, some of them idle
        f = _random_field(1, 32, m, nt=5, seed=110, real=real)
        if cap == "few":
            _small_batches(monkeypatch, f.grid)
        live = int(np.sum(f.grid.t_grid > 0.25))
        serial = self._g(f, variant, kind, 1, monkeypatch)
        assert live == 4 and np.all(serial[f.grid.t_grid > 0.25] > 0)
        for workers in (2, 3, live + 2):
            assert np.array_equal(self._g(f, variant, kind, workers, monkeypatch), serial), workers

    def test_many_workers_under_fast_switching(self, monkeypatch):
        # more workers than CPUs and output times, switching every
        # microsecond: a row that a worker lost or wrote twice would show
        f = _random_field(1, 32, 2, nt=9, seed=111)
        serial = self._g(f, "g_tilde", "separable", 1, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self._g(f, "g_tilde", "separable", 12, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert np.max(serial) > 0 and np.array_equal(threaded, serial)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, workers):
        # a general psi2 that turns NaN after t = 0.35: the first of the
        # output times 0.3, 0.5, 0.7 and 0.9, the calling thread's at every
        # worker count, has its window before it, and the others raise, at 4
        # workers in the started threads alone
        def evaluate(t, xi):
            return np.full(xi.shape[:-1], np.nan if t > 0.35 else -1.0, dtype=complex) * np.sum(xi**2, axis=-1)

        psi2 = SymbolSpec(eval_fn=evaluate, kappa=1.0, mu=10.0, gamma=2.0, n_derivs=2)
        f = _random_field(1, 32, 2, nt=5, seed=112)
        monkeypatch.setattr(gfunction, "_workers", lambda rows: workers)
        before = threading.active_count()
        with pytest.raises(SymbolEvaluationError):
            g_function(f, _modulated(1.0, 1), psi2, 0.0, 0.25, 3.0, QuadratureSpec(4, 4, 2))
        assert threading.active_count() == before

    def test_workers_follow_the_cpus_and_the_rows(self, monkeypatch):
        monkeypatch.setattr(gfunction.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [gfunction._workers(rows) for rows in (0, 1, 2, 3, 64)] == [1, 1, 2, 3, 3]
        monkeypatch.setattr(gfunction.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert gfunction._workers(64) == gfunction._MAX_WORKERS
        # where affinity is not available, the CPU count
        monkeypatch.delattr(gfunction.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(gfunction.os, "cpu_count", lambda: 2)
        assert gfunction._workers(64) == 2


class TestNodePlan:
    # graded time nodes and a window start a = 0.1 between two of them: the
    # windows ending at 0.125 and 0.28125 are shorter than one panel, the
    # one ending at 0.5 ends on an anchor, and those ending at 1.125 to 2
    # span several anchors
    T_GRID = 2.0 * (np.arange(9) / 8.0) ** 2
    A = 0.1
    BETA = 1.5

    def _plan(self, psi2, quad=QuadratureSpec()):
        """The output times, the node plan as a dict and the nodes, one row
        per output time."""
        times = self.T_GRID[self.T_GRID > self.A]
        fields = ("per_time", "weights", "index", "lam", "windows")
        plan = dict(zip(fields, gfunction._node_plan(psi2, self.A, times, self.BETA, quad, self.T_GRID)))
        s, w = graded_quadrature(self.A, times, self.BETA, quad)
        assert plan["per_time"] * len(times) == len(s) and np.array_equal(plan["weights"], w)
        return times, plan, s.reshape(len(times), -1)

    def test_windows_cover_short_anchored_and_long(self):
        times = self.T_GRID[self.T_GRID > self.A]
        width = gfunction._PANEL_WIDTH
        assert width == 0.25 and not np.any(self.T_GRID == self.A)
        assert np.sum(times - self.A < width) == 2 and 0.5 in times
        assert np.sum(times - self.A > 4 * width) == 3

    def test_separable_coefficient_integrals_match_the_closed_form(self):
        amp, rate = 0.5, 2.0
        psi2 = _modulated(2.0, 1, amp=amp, rate=rate)
        times, plan, s = self._plan(psi2)
        got = plan["windows"].reshape(s.shape)
        # integral_s^t -(1 + amp e^(-rate r)) dr, with e^(-rate s) - e^(-rate t)
        # as e^(-rate t) expm1(rate (t - s)), which keeps its digits as s -> t
        span = times[:, None] - s
        want = -span - (amp / rate) * np.exp(-rate * times[:, None]) * np.expm1(rate * span)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
        # the same integrals as one integrated_symbol call per output time,
        # whose profile is 1 at xi = 1
        for t, row, coeff in zip(times, s, got):
            np.testing.assert_allclose(coeff, integrated_symbol(psi2, row, float(t), np.array([[1.0]]))[:, 0], rtol=1e-14, atol=0)

    # each output time's windows are integrated in a call of their own, so a
    # time planned alone must give its row of the full plan, bit for bit
    @pytest.mark.parametrize("kind", ["static", "separable", "generic"])
    def test_each_output_time_alone_equals_its_row(self, kind):
        psi2 = {"static": power_symbol(1.0, 2.0), "separable": _modulated(2.0, 1), "generic": _non_separable(1)}[kind]
        times, plan, _ = self._plan(psi2)
        per = plan["per_time"]
        for i, t in enumerate(times):
            alone = gfunction._node_plan(psi2, self.A, times[i : i + 1], self.BETA, QuadratureSpec(), self.T_GRID)
            assert alone[0] == per
            row = slice(i * per, (i + 1) * per)
            for got, name in zip(alone[1:], ("weights", "index", "lam", "windows")):
                assert np.array_equal(got, plan[name][row]), (t, name)

    # c(t) = -(1 + t^7) has degree 7, so 8-point Gauss-Legendre integrates it
    # exactly on every panel: the windows must match the antiderivative to
    # rounding, their difference taken as (t - s) sum_k t^k s^(7-k) / 8 so
    # that short windows keep their digits
    @staticmethod
    def _septic_integrals(s, t):
        s, t = np.broadcast_arrays(s, t)
        return -(t - s) * (1.0 + sum(t**k * s ** (7 - k) for k in range(8)) / 8.0)

    def test_septic_coefficient_integrals_are_exact(self):
        psi2 = power_symbol(1.0, 2.0, k_fn=lambda r: r**7, k_bound=2.0**7, k_deriv_bound=7 * 2.0**6)
        assert gfunction._GL_ORDER == 8
        # the windows ending at 0.125 lie inside the first panel, those
        # ending at 0.5 end on an anchor, and those ending at 2 cross up to
        # seven anchors
        times, plan, s = self._plan(psi2)
        want = self._septic_integrals(s, times[:, None])
        np.testing.assert_allclose(plan["windows"].reshape(s.shape), want, rtol=1e-14, atol=0)
        # a start on an anchor, an end on one, a window inside the first
        # panel and one across four anchors and more, each in its own call
        for starts, t in [([0.25, 0.5, 0.3], 1.0), ([0.1, 0.49], 0.5), ([0.01, 0.2], 0.24), ([0.05, 0.0], 1.3)]:
            got = integrated_symbol(psi2, np.array(starts), t, np.array([[1.0]]))[:, 0]
            assert not np.any(got.imag)
            np.testing.assert_allclose(got.real, self._septic_integrals(np.array(starts), t), rtol=1e-14, atol=0)

    def test_time_independent_and_generic_windows(self):
        times, plan, s = self._plan(power_symbol(1.0, 2.0))
        assert np.array_equal(plan["windows"].reshape(s.shape), times[:, None] - s)
        _, plan, s = self._plan(_non_separable(1), QuadratureSpec(4, 4, 2))
        assert np.array_equal(plan["windows"], s.ravel())

    def test_interval_index_and_weight(self):
        times, plan, s = self._plan(power_symbol(1.0, 2.0))
        for node, j, lam in zip(s.ravel(), plan["index"], plan["lam"]):
            want = min(max(int(np.searchsorted(self.T_GRID, node, side="right")) - 1, 0), len(self.T_GRID) - 2)
            assert j == want and lam == (node - self.T_GRID[j]) / (self.T_GRID[j + 1] - self.T_GRID[j])


class TestParsevalOracle:
    """q = 2: sum_x G(t, x)^2 dx^d equals, by lattice Parseval,
    (2L)^d sum_s w_s sum_xi |psi1|^2 |exp int_s^t psi2|^2 |f^(s, xi)|^2,
    with closed-form symbols and no inverse transform."""

    @pytest.mark.parametrize("d,n,m,real", _with_real((1, 64, 2), (2, 16, 1)))
    @pytest.mark.parametrize("variant", ["g_function", "g_tilde"])
    def test_energy_per_time(self, d, n, m, real, variant):
        f = _random_field(d, n, m, nt=6, seed=30 + d, real=real)
        grid = f.grid
        k1, g1, amp1, rate1 = 1.0, 1.0, 0.3, 1.0
        k2, g2, amp2, rate2 = 1.0, 2.0, 0.5, 2.0
        psi1 = _modulated(g1, d, amp1, rate1)
        psi2 = _modulated(g2, d, amp2, rate2)
        quad = QuadratureSpec(panels=16, order=6, split_levels=6)
        l = 0.4
        if variant == "g_function":
            res = g_function(f, psi1, psi2, l=l, a=grid.a, q=2.0, quad=quad)
        else:
            res = g_tilde(f, psi1, psi2, a=grid.a, q=2.0, quad=quad)
        got = np.sum(res.values**2, axis=tuple(range(1, d + 1))) * grid.dx**d

        r = np.linalg.norm(grid.freq_vectors(), axis=-1)
        f_hat = lattice_forward(f.values, grid)
        beta = 2.0 * g1 / g2
        want = np.zeros(len(grid.t_grid))
        for i, t in enumerate(grid.t_grid):
            if t <= grid.a:
                continue
            t1 = l if variant == "g_function" else t
            psi1_sq = ((k1 + amp1 * np.exp(-rate1 * t1)) * r**g1) ** 2
            for s, w in zip(*graded_quadrature(grid.a, float(t), beta, quad)):
                # int_s^t -(k2 + amp2 e^(-rate2 r)) dr, times |xi|^g2
                c = -k2 * (t - s) - amp2 / rate2 * (np.exp(-rate2 * s) - np.exp(-rate2 * t))
                energy = vector_norm(_interp_hat(f_hat, grid.t_grid, s)) ** 2
                want[i] += w * np.sum(psi1_sq * np.exp(2.0 * c * r**g2) * energy)
        want *= (2.0 * grid.half_length) ** d
        assert np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)


class TestInvariances:
    """G of static power symbols commutes with lattice shifts, with unitary
    maps of V, for real fields with reflections x -> -x, with translations
    in time and with parabolic dilations, to 1e-12 of its largest value.

    A multiplier laid out in centred order against coefficients in FFT
    order is still a multiplier, only the wrong one, so it passes both; the
    single-mode oracle catches it."""

    QUAD = QuadratureSpec(panels=4, order=2, split_levels=2)
    CASES = dict(
        d=st.sampled_from([1, 2]),
        n=st.sampled_from([8, 16]),
        m=st.sampled_from([1, 2]),
        variant=st.sampled_from(["g_function", "g_tilde"]),
        q=st.sampled_from([2.0, 3.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )

    def _g(self, f, variant, q):
        psi1, psi2 = power_symbol(1.0, 1.0, d=f.grid.d), power_symbol(1.0, 2.0, d=f.grid.d)
        if variant == "g_function":
            return g_function(f, psi1, psi2, 0.0, f.grid.a, q, self.QUAD).values
        return g_tilde(f, psi1, psi2, f.grid.a, q, self.QUAD).values

    @settings(max_examples=15, deadline=None)
    @given(shift=st.tuples(st.integers(-20, 20), st.integers(-20, 20)), **CASES)
    def test_lattice_shift(self, d, n, m, variant, q, seed, shift):
        f = _random_field(d, n, m, nt=3, seed=seed)
        axes = tuple(range(1, d + 1))
        moved = SpaceTimeField(f.grid, m, np.roll(f.values, shift[:d], axis=axes))
        want = np.roll(self._g(f, variant, q), shift[:d], axis=axes)
        assert np.max(np.abs(self._g(moved, variant, q) - want)) <= 1e-12 * np.max(want)

    @settings(max_examples=15, deadline=None)
    @given(**CASES)
    def test_unitary_in_v(self, d, n, m, variant, q, seed):
        f = _random_field(d, n, m, nt=3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        turned = SpaceTimeField(f.grid, m, f.values @ u.T)
        want = self._g(f, variant, q)
        assert np.max(np.abs(self._g(turned, variant, q) - want)) <= 1e-12 * np.max(want)

    @settings(max_examples=15, deadline=None)
    @given(axes=st.sampled_from([(1,), (2,), (1, 2)]), **CASES)
    def test_reflection(self, d, n, m, variant, q, seed, axes):
        # x_j -> -x_j is the storage index j -> n - j mod n, the pairing of
        # c with n - c that the half lattice of a real field relies on
        f = _random_field(d, n, m, nt=3, seed=seed, real=True)
        axes = tuple(ax for ax in axes if ax <= d) or (1,)

        def reflect(values):
            return np.roll(np.flip(values, axes), 1, axes)

        mirrored = SpaceTimeField(f.grid, m, reflect(f.values))
        want = reflect(self._g(f, variant, q))
        assert np.max(np.abs(self._g(mirrored, variant, q) - want)) <= 1e-12 * np.max(want)

    @settings(max_examples=15, deadline=None)
    @given(tau=st.floats(min_value=-1.0, max_value=1.0), **CASES)
    def test_time_translation(self, d, n, m, variant, q, seed, tau):
        # time-independent symbols: T(t, s) depends on t - s only, so moving
        # the nodes and a by tau moves G with them, up to the roundoff of
        # the moved nodes, which grows with them: about 7e-14 of max G for
        # |tau| <= 1, and 5e-13 at |tau| = 4
        f = _random_field(d, n, m, nt=3, seed=seed)
        grid = make_grid(d, n, f.grid.half_length, f.grid.t_grid + tau)
        moved = SpaceTimeField(grid, m, f.values)
        want = self._g(f, variant, q)
        assert np.max(np.abs(self._g(moved, variant, q) - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("d, m, real", [(1, 2, False), (2, 1, True)], ids=["1d-complex", "2d-real"])
    def test_spatial_refinement(self, d, m, real):
        # a band-limited field is one function on every lattice of its box,
        # and G acts on it mode by mode, so the G of the finer lattice, read
        # at the coarse points, is the coarse G; a real field takes the half
        # lattice on both
        f, fine = _refined_pair(_random_field(d, 8, m, nt=3, seed=23, real=real))
        want = self._g(f, "g_function", 3.0)
        points = (slice(None),) + (slice(None, None, 2),) * d
        assert np.max(np.abs(self._g(fine, "g_function", 3.0)[points] - want)) <= 1e-13 * np.max(want)

    @settings(max_examples=15, deadline=None)
    @given(scale=st.sampled_from([0.25, 0.5, 0.7, 2.0, 3.0]), **CASES)
    def test_parabolic_dilation(self, d, n, m, variant, q, seed, scale):
        # the same samples on the box stretched by lambda and the times
        # (a, the first node, with them) by lambda^gamma2, gamma2 = 2 for
        # the psi2 of _g: xi -> xi / lambda leaves T(t, s) alone, L gains
        # lambda^(-gamma1) and the weight (t - s)^(beta - 1) ds gains
        # lambda^(gamma2 beta), so G^q gains lambda^(gamma2 beta - q gamma1)
        # = 1, as beta = q gamma1 / gamma2
        f = _random_field(d, n, m, nt=3, seed=seed)
        grid = make_grid(d, n, scale * f.grid.half_length, scale**2.0 * f.grid.t_grid)
        dilated = SpaceTimeField(grid, m, f.values)
        want = self._g(f, variant, q)
        assert np.max(np.abs(self._g(dilated, variant, q) - want)) <= 1e-12 * np.max(want)


class TestNegativeControls:
    """Where the inequality fails, the ratio it bounds must grow under
    refinement, while the case it holds for stays flat: a bounded ratio on
    a finite grid says nothing until the laboratory shows it sees growth."""

    def test_p_below_q_grows_under_time_refinement(self):
        # cos(2 pi x) times the hat at the time node 0.25 of T uniform nodes
        # has time width eps ~ 1/T, and ||G f||_p / ||f||_p ~ eps^(1/q - 1/p)
        # once the window has passed, unbounded as eps -> 0 for p < q.  At
        # T = 17 / 33 / 65 the ratios read 0.7165 / 0.7816 / 0.9049 at
        # p = 1.2, doublings by 1.091 and 1.158, and 0.6136 / 0.5900 /
        # 0.5809 at p = q = 2, doublings by 0.962 and 0.985
        psi1, psi2 = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        ratios = []
        for T in (17, 33, 65):
            grid = make_grid(1, 32, 0.5, np.linspace(0.0, 1.0, T))
            values = np.zeros((T, 32, 1))
            values[(T - 1) // 4, :, 0] = np.cos(2 * np.pi * grid.x)
            f = SpaceTimeField(grid, 1, values)
            g = g_function(f, psi1, psi2, 0.0, 0.0, 2.0, QuadratureSpec(panels=256))
            ratios.append([lp_norm(g.values, grid, p) / lebesgue_norm(f, p) for p in (1.2, 2.0)])
        below, equal = np.array(ratios).T
        assert np.all(below[1:] / below[:-1] > 1.05)
        assert np.all(equal[1:] / equal[:-1] < 1.0)

    def test_symbol_outside_s1_grows_under_space_refinement(self):
        # psi2 = i |xi|^2, the Schroedinger group, smooths nothing, so with
        # psi1 = -|xi| the step-1 ratio grows like the largest wave number
        # of the field, here n/4: 9.54 / 17.48 / 34.45 at n = 16 / 32 / 64,
        # doublings by 1.83 and 1.97.  The heat symbol reads 0.621 / 0.658 /
        # 0.673, doublings by 1.06 and 1.02.  The class check rejects the
        # Schroedinger symbol on (S1) alone
        schroedinger = SymbolSpec(
            eval_fn=lambda t, xi: 1j * np.sum(xi**2, axis=-1),
            kappa=1.0,
            mu=10.0,
            gamma=2.0,
            n_derivs=2,
            time_independent=True,
        )
        report = check_symbol_class(schroedinger)
        assert not report.passed_s1 and report.passed_s2
        psi1, heat = power_symbol(1.0, 1.0), power_symbol(1.0, 2.0)
        ratios = []
        for n in (16, 32, 64):
            grid = make_grid(1, n, 0.5, np.linspace(0.0, 1.0, 17))
            rng = np.random.default_rng(3)
            coeffs = rng.normal(size=(17, n)) + 1j * rng.normal(size=(17, n))
            values = np.fft.ifft(coeffs * (np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n // 4), axis=1)
            f = SpaceTimeField(grid, 1, values[..., None])
            norm = lebesgue_norm(f, 2.0)
            ratios.append([lp_norm(g_function(f, psi1, psi2, 0.0, 0.0, 2.0).values, grid, 2.0) / norm for psi2 in (schroedinger, heat)])
        unbounded, bounded = np.array(ratios).T
        assert np.all(unbounded[1:] / unbounded[:-1] > 1.7)
        assert np.all(bounded[1:] / bounded[:-1] < 1.1)
