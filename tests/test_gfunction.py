import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

import lpevo.gfunction as gfunction
from lpevo.evolution import integrated_symbol
from lpevo.gfunction import (
    GFunctionResult,
    QuadratureSpec,
    g_function,
    g_lp_norm,
    g_tilde,
    graded_quadrature,
)
from lpevo.grid import SpaceTimeField, lattice_forward, lattice_inverse, make_grid, vector_norm
from lpevo.symbols import SymbolSpec, eval_symbol, power_symbol


def _grid(n=64, L=np.pi, nt=17, t1=1.0):
    return make_grid(1, n, L, np.linspace(0.0, t1, nt))


def _mode_field(grid, k=2, m=1, envelope=None):
    xi0 = grid.freq[grid.n // 2 + k]
    base = np.exp(1j * xi0 * grid.x)
    T = len(grid.t_grid)
    env = np.ones(T) if envelope is None else envelope(grid.t_grid)
    vals = env[:, None, None] * np.repeat(base[:, None], m, axis=1)[None, :, :]
    return SpaceTimeField(grid, m, vals), xi0


def window_integral_oracle(a, t, beta, c):
    """int_a^t (t-s)^(beta-1) e^{-c(t-s)} ds by the incomplete-gamma closed form."""
    return gamma_fn(beta) * gammainc(beta, c * (t - a)) / c**beta


class TestGradedQuadrature:
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
        with pytest.warns(UserWarning):
            res = g_function(f, bad, power_symbol(1.0, 2.0), 0.0, 0.0, 2.0, check_classes=True)
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
        res = GFunctionResult(grid, 2.0, 0.0, 0.0, "fixed", np.zeros((5, 32)))
        assert g_lp_norm(res, 2.0) == 0.0

    def test_constant_one(self):
        L = 5.0
        grid = make_grid(1, 64, L, np.linspace(0, 1, 9))
        res = GFunctionResult(grid, 2.0, 0.0, 0.0, "fixed", np.ones((9, 64)))
        assert g_lp_norm(res, 2.0) == pytest.approx(np.sqrt(2 * L), rel=1e-12)

    def test_rejects_p_below_q(self):
        grid = _grid(n=32, nt=5)
        res = GFunctionResult(grid, 3.0, 0.0, 0.0, "fixed", np.zeros((5, 32)))
        with pytest.raises(ValueError):
            g_lp_norm(res, 2.0)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_p(self, p):
        grid = _grid(n=32, nt=5)
        res = GFunctionResult(grid, 2.0, 0.0, 0.0, "fixed", np.full((5, 32), 3.0))
        with pytest.raises(ValueError):
            g_lp_norm(res, p)


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


def _random_field(d, n, m, nt, seed):
    grid = make_grid(d, n, 0.5, (np.arange(nt) + 0.5) / nt)
    rng = np.random.default_rng(seed)
    shape = (nt,) + (n,) * d + (m,)
    return SpaceTimeField(grid, m, rng.normal(size=shape) + 1j * rng.normal(size=shape))


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


class TestBatchedCore:
    # 144 nodes: more than one chunk of 128 (n^d m = 128) and not a multiple
    QUAD = QuadratureSpec(panels=20, order=6, split_levels=4)

    @pytest.mark.parametrize("d,n,m", [(1, 64, 2), (1, 32, 1), (2, 8, 1), (2, 8, 2)])
    @pytest.mark.parametrize("kind", ["static", "separable", "general"])
    @pytest.mark.parametrize("variant", ["g_function", "g_tilde"])
    def test_matches_per_node_reference(self, d, n, m, kind, variant):
        f = _random_field(d, n, m, nt=4, seed=20 + d + m)
        psi2 = {
            "static": power_symbol(1.0, 2.0, d=d),
            "separable": _modulated(2.0, d),
            "general": _non_separable(d),
        }[kind]
        psi1 = _modulated(1.0, d, amp=0.3, rate=1.0)
        quad = self.QUAD if kind != "general" else QuadratureSpec(panels=4, order=4, split_levels=2)
        if variant == "g_function":
            got = g_function(f, psi1, psi2, l=0.2, a=f.grid.a, q=3.0, quad=quad).values
            want = per_node_reference(f, psi1, psi2, 0.2, f.grid.a, 3.0, quad)
        else:
            got = g_tilde(f, psi1, psi2, a=f.grid.a, q=3.0, quad=quad).values
            want = per_node_reference(f, psi1, psi2, None, f.grid.a, 3.0, quad)
        assert np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_reference_case_spans_a_partial_chunk(self):
        chunk = gfunction._CHUNK_ENTRIES // (64 * 2)
        nodes = len(graded_quadrature(0.0, 1.0, 1.0, self.QUAD)[0])
        assert nodes > chunk and nodes % chunk != 0


class TestParsevalOracle:
    """q = 2: sum_x G(t, x)^2 dx^d equals, by lattice Parseval,
    sum_s w_s sum_xi |psi1|^2 |exp int_s^t psi2|^2 |f^(s, xi)|^2 dxi^d,
    with closed-form symbols and no inverse transform."""

    @pytest.mark.parametrize("d,n,m", [(1, 64, 2), (2, 16, 1)])
    @pytest.mark.parametrize("variant", ["g_function", "g_tilde"])
    def test_energy_per_time(self, d, n, m, variant):
        f = _random_field(d, n, m, nt=6, seed=30 + d)
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

        r = grid.freq_norm()
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
        want *= grid.dxi**d
        assert np.max(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)
