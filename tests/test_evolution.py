import numpy as np
import pytest

from lpevo.evolution import (
    _gl_rule,
    apply_evolution,
    apply_pseudo_diff,
    evolution_kernel,
    evolution_multiplier,
    integrated_symbol,
    kernel_l1_norm,
)
from lpevo.grid import SpatialField, apply_multiplier, lebesgue_norm, make_grid
from lpevo.symbols import SymbolSpec, power_symbol


def _grid(n=256, L=20.0, t=(0.0, 1.0)):
    return make_grid(1, n, L, t)


def _modulated():
    return power_symbol(
        1.0, 2.0, k_fn=lambda t: 0.5 * np.exp(-t), k_bound=0.5, k_deriv_bound=0.5
    )


def _generic():
    # the modulated symbol without the separable hints
    return SymbolSpec(
        eval_fn=lambda t, xi: -(1.0 + 0.5 * np.exp(-t)) * np.sum(xi**2, axis=-1) + 0j,
        kappa=1.0,
        mu=10.0,
        gamma=2.0,
        n_derivs=2,
    )


def _modulated_integral(s, t):
    """integral_s^t -(1 + 0.5 e^{-r}) dr for 0 <= s < t."""
    return -((t - s) + 0.5 * (np.exp(-s) - np.exp(-t)))


_SYMBOL_KINDS = {"static": lambda: power_symbol(1.0, 2.0), "separable": _modulated, "generic": _generic}


def _random_band_limited(grid, seed=0, m=1, j_hi=16):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.spatial_shape() + (m,), dtype=complex)
    k = np.arange(grid.n) - grid.n // 2
    band = (np.abs(k) >= 1) & (np.abs(k) <= j_hi)
    coeffs[band] = rng.normal(size=(band.sum(), m)) + 1j * rng.normal(size=(band.sum(), m))
    from lpevo.grid import lattice_inverse

    return SpatialField(grid, m, lattice_inverse(coeffs, grid))


def _mp_gauss_legendre(n, dps=40):
    """Gauss-Legendre nodes and weights by Newton iteration on P_n at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        nodes, weights = [], []
        for i in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):  # Bonnet: k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x**2 - 1)
                step = p1 / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** (-dps + 5):
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x**2) * dp**2))
        order = sorted(range(n), key=lambda j: nodes[j])
        return (np.array([float(nodes[j]) for j in order]), np.array([float(weights[j]) for j in order]))


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_integrates_monomials_exactly(self, n):
        z, w = _gl_rule(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * z**k) - exact) <= 1e-14, k

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_40_digit_newton(self, n):
        z, w = _gl_rule(n)
        z_ref, w_ref = _mp_gauss_legendre(n)
        assert np.max(np.abs(z - z_ref)) <= 2e-14
        assert np.max(np.abs(w - w_ref) / w_ref) <= 2e-14


class TestIntegratedSymbol:
    def test_time_independent(self):
        spec = power_symbol(1.0, 2.0)
        assert integrated_symbol(spec, 0.0, 1.0, np.array([1.0])) == pytest.approx(-1.0)

    def test_closed_form_antiderivative(self):
        # integral_0^1 -(1 + 0.5 e^{-r}) dr = -(1 + 0.5(1 - e^{-1}))
        spec = _modulated()
        expected = -(1.0 + 0.5 * (1.0 - np.exp(-1.0)))
        got = integrated_symbol(spec, 0.0, 1.0, np.array([1.0]))
        assert got == pytest.approx(expected, rel=1e-13)
        # a batch of window starts, sharing panels, against the same closed form
        s = np.array([0.0, 0.1, 0.3, 0.5, 0.9])
        got = integrated_symbol(spec, s, 1.0, np.array([1.0]))
        np.testing.assert_allclose(got, _modulated_integral(s, 1.0), rtol=1e-13)

    def test_zero_frequency(self):
        spec = _modulated()
        assert integrated_symbol(spec, 0.0, 1.0, np.array([0.0])) == pytest.approx(0.0)

    def test_rejects_t_not_after_s(self):
        spec = power_symbol(1.0, 2.0)
        with pytest.raises(ValueError):
            integrated_symbol(spec, 1.0, 1.0, np.array([1.0]))
        for make in _SYMBOL_KINDS.values():
            for s in ([0.1, 1.0], [[0.2, 0.4], [1.5, 0.3]]):
                with pytest.raises(ValueError):
                    integrated_symbol(make(), np.array(s), 1.0, np.array([1.0]))

    def test_generic_callable_path(self):
        generic = _generic()
        expected = -(1.0 + 0.5 * (1.0 - np.exp(-1.0))) * 4.0
        got = integrated_symbol(generic, 0.0, 1.0, np.array([2.0]))
        assert got == pytest.approx(expected, rel=1e-12)
        s = np.array([0.0, 0.1, 0.3, 0.5, 0.9])
        got = integrated_symbol(generic, s, 1.0, np.array([2.0]))
        np.testing.assert_allclose(got, 4.0 * _modulated_integral(s, 1.0), rtol=1e-12)

    @pytest.mark.parametrize(
        "starts, t",
        [
            # 2-d starts: shared panels, a start on a panel anchor, and
            # windows that begin in different panels
            ([[0.0, 0.1, 0.3], [0.26, 0.5, 0.74]], 1.0),
            # no multiple of the panel width inside any window: no shared panel
            ([0.05, 0.1, 0.15], 0.2),
        ],
        ids=["2d-shared", "no-shared-panel"],
    )
    @pytest.mark.parametrize("kind", sorted(_SYMBOL_KINDS))
    def test_batched_equals_scalar(self, kind, starts, t):
        spec = _SYMBOL_KINDS[kind]()
        s = np.array(starts)
        xi = np.array([[0.0], [1.0], [-2.5]])
        got = integrated_symbol(spec, s, t, xi)
        assert got.shape == s.shape + (3,)
        for idx in np.ndindex(s.shape):
            want = integrated_symbol(spec, float(s[idx]), t, xi)
            np.testing.assert_allclose(got[idx], want, rtol=1e-15, atol=0)


class TestKernels:
    def test_heat_kernel_golden(self):
        g = _grid(n=1024, L=20.0)
        spec = power_symbol(1.0, 2.0)
        k = evolution_kernel(spec, 0.0, 1.0, g)
        exact = (4 * np.pi) ** -0.5 * np.exp(-g.x**2 / 4)
        window = np.abs(g.x) <= g.half_length / 2
        assert np.max(np.abs(k.values.real - exact)[window]) < 1e-6
        assert np.max(np.abs(k.values.imag)) < 1e-10

    def test_cauchy_kernel_golden(self):
        g = _grid(n=4096, L=64.0)
        spec = power_symbol(1.0, 1.0)
        k = evolution_kernel(spec, 0.0, 1.0, g)
        window = np.abs(g.x) <= 10.0
        exact = (1 / np.pi) / (1 + g.x**2)
        assert np.max(np.abs(k.values.real - exact)[window]) < 1e-4

    def test_kernel_mass_one(self):
        g = _grid(n=512, L=20.0)
        k = evolution_kernel(_modulated(), 0.0, 0.7, g)
        assert np.sum(k.values.real) * g.dx == pytest.approx(1.0, abs=1e-8)

    def test_l1_norm_of_positive_kernel(self):
        g = _grid(n=512, L=20.0)
        k = evolution_kernel(power_symbol(1.0, 2.0), 0.0, 0.5, g)
        assert kernel_l1_norm(k) == pytest.approx(1.0, abs=1e-8)

    def test_l1_norm_zero(self):
        g = _grid(n=16, L=1.0)
        assert kernel_l1_norm(np.zeros(16), g) == 0.0

    def test_rejects_t_equal_s(self):
        g = _grid()
        with pytest.raises(ValueError):
            evolution_kernel(power_symbol(1.0, 2.0), 1.0, 1.0, g)


class TestApplyEvolution:
    def test_identity_at_equal_times(self):
        g = _grid(n=64)
        f = _random_band_limited(g)
        out = apply_evolution(power_symbol(1.0, 2.0), 0.5, 0.5, f)
        assert out is f

    def test_single_mode_eigenfunction(self):
        g = _grid(n=64, L=np.pi)
        xi0 = g.freq[g.n // 2 + 3]
        f = SpatialField(g, 1, np.exp(1j * xi0 * g.x)[:, None])
        spec = _modulated()
        out = apply_evolution(spec, 0.0, 1.0, f)
        factor = np.exp(integrated_symbol(spec, 0.0, 1.0, np.array([xi0])))
        assert np.max(np.abs(out.values - factor * f.values)) < 1e-12

    def test_composition_evolution_property(self):
        g = _grid(n=128, L=10.0)
        spec = _modulated()
        f = _random_band_limited(g, seed=5, m=2)
        one = apply_evolution(spec, 0.0, 1.0, f)
        two = apply_evolution(spec, 0.7, 1.0, apply_evolution(spec, 0.0, 0.7, f))
        assert np.max(np.abs(one.values - two.values)) < 1e-10

    def test_matches_direct_convolution(self):
        # small-grid direct circular convolution oracle for the multiplier path
        g = _grid(n=32, L=8.0)
        spec = power_symbol(1.0, 2.0)
        f = _random_band_limited(g, seed=2, j_hi=8)
        out = apply_evolution(spec, 0.0, 0.5, f)
        k = evolution_kernel(spec, 0.0, 0.5, g).values
        direct = np.zeros_like(f.values)
        for i in range(g.n):
            acc = 0.0 + 0j
            for j in range(g.n):
                # kernel sample at offset (i-j)*dx lives at index i-j+n/2
                acc += k[(i - j + g.n // 2) % g.n] * f.values[j, 0]
            direct[i, 0] = acc * g.dx
        assert np.max(np.abs(out.values - direct)) < 1e-10

    def test_young_inequality(self):
        g = _grid(n=128, L=10.0)
        spec = _modulated()
        f = _random_band_limited(g, seed=9, m=3)
        k1 = kernel_l1_norm(evolution_kernel(spec, 0.0, 0.4, g))
        for p in (1.0, 2.0, 4.0):
            lhs = lebesgue_norm(apply_evolution(spec, 0.0, 0.4, f), p)
            assert lhs <= k1 * lebesgue_norm(f, p) * (1 + 1e-6)

    def test_multiplier_modulus_bound(self):
        g = _grid(n=128, L=10.0)
        spec = _modulated()
        mult = evolution_multiplier(spec, 0.0, 0.3, g)
        bound = np.exp(-spec.kappa * 0.3 * g.freq_norm() ** spec.gamma)
        assert np.all(np.abs(mult) <= bound + 1e-12)


class TestApplyPseudoDiff:
    def test_eigenfunction(self):
        g = _grid(n=64, L=np.pi)
        xi0 = g.freq[g.n // 2 + 5]
        f = SpatialField(g, 1, np.exp(1j * xi0 * g.x)[:, None])
        out = apply_pseudo_diff(power_symbol(1.0, 2.0), 0.0, f)
        assert np.max(np.abs(out.values - (-(xi0**2)) * f.values)) < 1e-10

    def test_rejects_frequency_side_field(self):
        g = _grid(n=16, L=1.0)
        f = SpatialField(g, 1, np.ones((16, 1)), side="freq")
        with pytest.raises(ValueError):
            apply_pseudo_diff(power_symbol(1.0, 2.0), 0.0, f)
        with pytest.raises(ValueError):
            apply_multiplier(f, np.ones(16))

    def test_iterate_equals_squared_symbol(self):
        g = _grid(n=64, L=5.0)
        spec = power_symbol(1.0, 1.5)
        sq = SymbolSpec(
            eval_fn=lambda t, xi: (np.sum(xi**2, axis=-1) ** 1.5).astype(complex),
            kappa=1.0,
            mu=10.0,
            gamma=3.0,
            n_derivs=2,
        )
        f = _random_band_limited(g, seed=11, j_hi=8)
        twice = apply_pseudo_diff(spec, 0.0, apply_pseudo_diff(spec, 0.0, f))
        once = apply_pseudo_diff(sq, 0.0, f)
        scale = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) < 1e-12 * max(scale, 1.0)

    def test_fractional_laplacian_on_mode(self):
        # |xi|^(gamma/q) multiplier of (-Delta)^(gamma/2q): check on one mode
        from lpevo.symbols import fractional_laplacian_symbol

        g = _grid(n=64, L=np.pi)
        gamma, q = 2.0, 2.0
        spec = fractional_laplacian_symbol(gamma / q)
        xi0 = g.freq[g.n // 2 + 4]
        f = SpatialField(g, 1, np.exp(1j * xi0 * g.x)[:, None])
        out = apply_pseudo_diff(spec, 0.0, f)
        assert np.max(np.abs(out.values - (-abs(xi0)) * f.values)) < 1e-10
