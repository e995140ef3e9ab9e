"""G's two multipliers, which live in ``lpevo.gfunction``: the lattice
symbol psi1 and the integrated symbol exp(int_s^t psi2), with the
Gauss-Legendre rule and the lattice transforms that apply them."""

import dataclasses

import numpy as np
import pytest

from lpevo.gfunction import _gl_rule, integrated_symbol, symbol_on_lattice
from lpevo.grid import SpaceTimeField, lattice_forward, lattice_inverse, lebesgue_norm, make_grid
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
    """(n, m) samples of a random field with lattice modes 1 <= |k| <= j_hi."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.spatial_shape() + (m,), dtype=complex)
    k = np.abs(np.fft.fftfreq(grid.n, 1.0 / grid.n))  # |wave number|, in FFT order
    band = (k >= 1) & (k <= j_hi)
    coeffs[band] = rng.normal(size=(band.sum(), m)) + 1j * rng.normal(size=(band.sum(), m))
    return lattice_inverse(coeffs, grid)


def _kernel(spec, s, t, g):
    """The convolution kernel of T(t, s), whose mass is the multiplier at 0:
    the inverse transform of exp(integral_s^t psi) over 2L, whose entry j is
    the kernel at the offset j dx, periodic in 2L."""
    mult = np.exp(integrated_symbol(spec, s, t, g.freq_vectors()))
    return lattice_inverse(mult[:, None], g)[:, 0] / (2.0 * g.half_length)


def _offsets(g):
    """The offset of each kernel entry, wrapped into [-L, L)."""
    return g.dx * ((np.arange(g.n) + g.n // 2) % g.n - g.n // 2)


def _spatial_norm(values, g, p):
    """Spatial L^p norm, as the norm of the field held constant on the
    grid's time interval [0, 1]."""
    return lebesgue_norm(SpaceTimeField(g, values.shape[-1], [values] * 2), p)


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
        calls = []
        spec = _SYMBOL_KINDS[kind]()
        if kind == "separable":
            coeff = spec.time_coeff
            spec = dataclasses.replace(spec, time_coeff=lambda r: calls.append(r.size) or coeff(r))
        s = np.array(starts)
        xi = np.array([[0.0], [1.0], [-2.5]])
        got = integrated_symbol(spec, s, t, xi)
        assert got.shape == s.shape + (3,)
        for idx in np.ndindex(s.shape):
            want = integrated_symbol(spec, float(s[idx]), t, xi)
            np.testing.assert_allclose(got[idx], want, rtol=1e-15, atol=0)
        # one coefficient call per integrated_symbol call: the batch, then each start
        if kind == "separable":
            assert len(calls) == 1 + s.size

    @pytest.mark.parametrize("kind", sorted(_SYMBOL_KINDS))
    def test_empty_starts(self, kind):
        # no window start gives an empty result, whatever the symbol's kind
        xi = np.array([[0.0], [1.0], [-2.5]])
        for s in (np.array([]), np.zeros((2, 0))):
            got = integrated_symbol(_SYMBOL_KINDS[kind](), s, 1.0, xi)
            assert got.shape == s.shape + (3,)

    @pytest.mark.parametrize("kind", sorted(_SYMBOL_KINDS))
    def test_rejects_complex_starts_or_frequencies(self, kind):
        # a cast to float once dropped the imaginary parts with only a
        # ComplexWarning
        spec = _SYMBOL_KINDS[kind]()
        with pytest.raises(ValueError, match="window starts must be real"):
            integrated_symbol(spec, np.array([0.0, 0.5j]), 1.0, np.array([1.0]))
        with pytest.raises(ValueError, match="frequencies must be real"):
            integrated_symbol(spec, 0.0, 1.0, np.array([[1.0], [1.0 + 1.0j]]))

    @pytest.mark.parametrize("s, t", [(0.0, np.nan), (np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf)])
    @pytest.mark.parametrize("kind", sorted(_SYMBOL_KINDS))
    def test_rejects_non_finite_s_or_t(self, kind, s, t):
        # a static symbol once gave NaN, and the others numpy's errors from
        # building the panels
        spec = _SYMBOL_KINDS[kind]()
        with pytest.raises(ValueError, match="finite s and t"):
            integrated_symbol(spec, s, t, np.array([1.0]))
        with pytest.raises(ValueError, match="finite s and t"):
            integrated_symbol(spec, np.array([0.0, s]), t, np.array([1.0]))


class TestKernels:
    def test_heat_kernel_golden(self):
        g = _grid(n=1024, L=20.0)
        k = _kernel(power_symbol(1.0, 2.0), 0.0, 1.0, g)
        x = _offsets(g)
        exact = (4 * np.pi) ** -0.5 * np.exp(-x**2 / 4)
        window = np.abs(x) <= g.half_length / 2
        assert np.max(np.abs(k.real - exact)[window]) < 1e-6
        assert np.max(np.abs(k.imag)) < 1e-10

    def test_cauchy_kernel_golden(self):
        g = _grid(n=4096, L=64.0)
        k = _kernel(power_symbol(1.0, 1.0), 0.0, 1.0, g)
        x = _offsets(g)
        window = np.abs(x) <= 10.0
        exact = (1 / np.pi) / (1 + x**2)
        assert np.max(np.abs(k.real - exact)[window]) < 1e-4

    def test_kernel_mass_one(self):
        g = _grid(n=512, L=20.0)
        k = _kernel(_modulated(), 0.0, 0.7, g)
        assert np.sum(k.real) * g.dx == pytest.approx(1.0, abs=1e-8)

    def test_l1_norm_of_positive_kernel(self):
        # the heat kernel is positive, so its L^1 norm is its mass
        g = _grid(n=512, L=20.0)
        k = _kernel(power_symbol(1.0, 2.0), 0.0, 0.5, g)
        assert np.sum(np.abs(k)) * g.dx == pytest.approx(1.0, abs=1e-8)

    def test_rejects_t_equal_s(self):
        # T(s, s) is the identity, whose kernel is no function on the lattice
        with pytest.raises(ValueError):
            _kernel(power_symbol(1.0, 2.0), 1.0, 1.0, _grid())


class TestApplyEvolution:
    """T(t, s) f as the lattice transform of f times exp(integral_s^t psi)."""

    def test_identity_at_equal_times(self):
        # t = s itself is rejected; as t decreases to s, T(t, s) tends to the
        # identity, for the exact, the separable and the panel integral alike
        g = _grid(n=64)
        f = _random_band_limited(g)
        for make in _SYMBOL_KINDS.values():
            mult = np.exp(integrated_symbol(make(), 0.5, 0.5 + 1e-9, g.freq_vectors()))
            out = lattice_inverse(mult[:, None] * lattice_forward(f, g), g)
            assert np.max(np.abs(out - f)) < 1e-8 * np.max(np.abs(f))

    def test_single_mode_eigenfunction(self):
        g = _grid(n=64, L=np.pi)
        xi0 = g.freq[3]
        f = np.exp(1j * xi0 * g.x)[:, None]
        spec = _modulated()
        mult = np.exp(integrated_symbol(spec, 0.0, 1.0, g.freq_vectors()))
        out = lattice_inverse(mult[:, None] * lattice_forward(f, g), g)
        factor = np.exp(integrated_symbol(spec, 0.0, 1.0, np.array([xi0])))
        assert np.max(np.abs(out - factor * f)) < 1e-12

    def test_composition_evolution_property(self):
        # T(1, 0.7) T(0.7, 0) = T(1, 0): the exponents add
        g = _grid(n=128, L=10.0)
        xi = g.freq_vectors()
        for spec in (_modulated(), _generic()):
            split = integrated_symbol(spec, 0.0, 0.7, xi) + integrated_symbol(spec, 0.7, 1.0, xi)
            np.testing.assert_allclose(split, integrated_symbol(spec, 0.0, 1.0, xi), rtol=1e-13)

    def test_matches_direct_convolution(self):
        # small-grid direct circular convolution oracle for the multiplier path
        g = _grid(n=32, L=8.0)
        spec = power_symbol(1.0, 2.0)
        f = _random_band_limited(g, seed=2, j_hi=8)
        mult = np.exp(integrated_symbol(spec, 0.0, 0.5, g.freq_vectors()))
        out = lattice_inverse(mult[:, None] * lattice_forward(f, g), g)
        k = _kernel(spec, 0.0, 0.5, g)
        direct = np.zeros_like(f)
        for i in range(g.n):
            acc = 0.0 + 0j
            for j in range(g.n):
                # kernel sample at offset (i-j)*dx lives at index (i-j) mod n
                acc += k[(i - j) % g.n] * f[j, 0]
            direct[i, 0] = acc * g.dx
        assert np.max(np.abs(out - direct)) < 1e-10

    def test_young_inequality(self):
        g = _grid(n=128, L=10.0)
        spec = _modulated()
        f = _random_band_limited(g, seed=9, m=3)
        mult = np.exp(integrated_symbol(spec, 0.0, 0.4, g.freq_vectors()))
        out = lattice_inverse(mult[:, None] * lattice_forward(f, g), g)
        k1 = np.sum(np.abs(_kernel(spec, 0.0, 0.4, g))) * g.dx
        for p in (1.0, 2.0, 4.0):
            assert _spatial_norm(out, g, p) <= k1 * _spatial_norm(f, g, p) * (1 + 1e-6)

    def test_multiplier_modulus_bound(self):
        g = _grid(n=128, L=10.0)
        spec = _modulated()
        mult = np.exp(integrated_symbol(spec, 0.0, 0.3, g.freq_vectors()))
        bound = np.exp(-spec.kappa * 0.3 * np.abs(g.freq) ** spec.gamma)
        assert np.all(np.abs(mult) <= bound + 1e-12)


class TestApplyPseudoDiff:
    def test_eigenfunction(self):
        # L(l) f: the lattice transform of f times psi(l, xi)
        g = _grid(n=64, L=np.pi)
        xi0 = g.freq[5]
        f = np.exp(1j * xi0 * g.x)[:, None]
        mult = symbol_on_lattice(power_symbol(1.0, 2.0), 0.0, g)
        out = lattice_inverse(mult[:, None] * lattice_forward(f, g), g)
        assert np.max(np.abs(out - (-(xi0**2)) * f)) < 1e-10

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

        def apply(symbol, v):
            mult = symbol_on_lattice(symbol, 0.0, g)
            return lattice_inverse(mult[:, None] * lattice_forward(v, g), g)

        twice = apply(spec, apply(spec, f))
        once = apply(sq, f)
        scale = np.max(np.abs(once))
        assert np.max(np.abs(twice - once)) < 1e-12 * max(scale, 1.0)

    def test_fractional_laplacian_on_mode(self):
        # -|xi|^(gamma/q), the symbol of -(-Delta)^(gamma/2q): check on one mode
        g = _grid(n=64, L=np.pi)
        gamma, q = 2.0, 2.0
        xi0 = g.freq[4]
        f = np.exp(1j * xi0 * g.x)[:, None]
        mult = symbol_on_lattice(power_symbol(1.0, gamma / q), 0.0, g)
        out = lattice_inverse(mult[:, None] * lattice_forward(f, g), g)
        assert np.max(np.abs(out - (-abs(xi0)) * f)) < 1e-10
