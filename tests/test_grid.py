import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpevo.grid import (
    SpaceTimeField,
    SpectralGrid,
    lattice_forward,
    lattice_inverse,
    lebesgue_norm,
    make_grid,
    vector_norm,
)


def _grid_1d(n=64, L=10.0, t=(0.0, 1.0)):
    return make_grid(1, n, L, t)


class TestMakeGrid:
    def test_basic_lattice(self):
        g = make_grid(1, 8, np.pi, [0.0, 1.0])
        assert g.dx == pytest.approx(np.pi / 4)
        # L = pi makes xi_k = k
        assert np.allclose(g.freq, np.arange(-4, 4))

    def test_freq_lattice_symmetric_with_zero_once(self):
        g = make_grid(1, 16, 3.0, [0.0, 1.0])
        assert np.count_nonzero(g.freq == 0.0) == 1
        # every positive frequency has a negative partner (half-open lattice)
        pos = g.freq[g.freq > 0]
        assert all(-x in g.freq for x in pos)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(1, 7, 1.0, [0.0, 1.0])

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValueError):
            make_grid(1, 8, 1.0, [0.0, 1.0, 0.5])

    def test_2d_freq_step(self):
        g = make_grid(2, 16, 8.0, [0.0, 0.5, 1.0])
        # direct arithmetic pi*k/L
        assert np.diff(g.freq)[0] == pytest.approx(np.pi / 8)


class TestTransforms:
    def test_roundtrip_random(self):
        g = _grid_1d()
        rng = np.random.default_rng(0)
        f = rng.normal(size=(g.n, 2)) + 1j * rng.normal(size=(g.n, 2))
        back = lattice_inverse(lattice_forward(f, g), g)
        err = np.max(np.abs(back - f)) / np.max(np.abs(f))
        assert err < 1e-12

    def test_gaussian_self_dual(self):
        g = _grid_1d(n=256, L=12.0)
        spec = lattice_forward(np.exp(-g.x**2 / 2)[:, None], g)
        expected = np.exp(-g.freq**2 / 2)
        assert np.max(np.abs(spec[:, 0] - expected)) < 1e-8

    def test_zero_maps_to_zero(self):
        g = _grid_1d()
        assert np.all(lattice_forward(np.zeros((g.n, 1)), g) == 0)

    def test_single_mode_point_mass(self):
        # geometric-sum oracle: sum_j exp(i(xi0-xi_k)x_j) is n at k=k0, 0 otherwise
        g = _grid_1d(n=32, L=4.0)
        k0 = 5
        xi0 = g.freq[g.n // 2 + k0]
        spec = lattice_forward(np.exp(1j * xi0 * g.x)[:, None], g)[:, 0]
        weight = (2 * np.pi) ** -0.5 * 2 * g.half_length
        expected = np.zeros(g.n, dtype=complex)
        expected[g.n // 2 + k0] = weight
        assert np.max(np.abs(spec - expected)) < 1e-10 * weight

    def test_parseval(self):
        g = _grid_1d(n=128, L=7.0)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(g.n, 3)) + 1j * rng.normal(size=(g.n, 3))
        spec = lattice_forward(f, g)
        lhs = np.sum(np.abs(f) ** 2) * g.dx
        rhs = np.sum(np.abs(spec) ** 2) * g.dxi
        assert abs(lhs - rhs) / lhs < 1e-10

    def test_roundtrip_2d(self):
        g = make_grid(2, 16, 3.0, [0.0, 1.0])
        rng = np.random.default_rng(1)
        f = rng.normal(size=(16, 16, 1)) * (1 + 0j)
        back = lattice_inverse(lattice_forward(f, g), g)
        assert np.max(np.abs(back - f)) < 1e-12


class TestLatticeArrays:
    """lattice_forward/lattice_inverse on (..., *spatial, component) arrays
    against the defining sums, evaluated as dense matrices."""

    @staticmethod
    def _dft(g, sign):
        # exp(sign * i x_j xi_k) over the spatial lattice and the centred frequencies
        return np.exp(sign * 1j * np.multiply.outer(g.x, g.freq))

    # n = 6 is built directly, as make_grid takes powers of two >= 8 only:
    # it is the even n with odd n/2, whose transforms carry a factor -1
    @pytest.mark.parametrize("n,L", [(6, 2.0), (8, 1.0), (16, 0.5), (32, 3.0)])
    def test_1d_matches_direct_sum(self, n, L):
        g = SpectralGrid(1, n, L, np.array([0.0, 1.0]))
        rng = np.random.default_rng(n)
        vals = rng.normal(size=(3, n, 2)) + 1j * rng.normal(size=(3, n, 2))
        want = (2 * np.pi) ** -0.5 * g.dx * np.einsum("jk,tjc->tkc", self._dft(g, -1), vals)
        got = lattice_forward(vals, g)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        back = (2 * np.pi) ** -0.5 * g.dxi * np.einsum("jk,tkc->tjc", self._dft(g, 1), vals)
        assert np.max(np.abs(lattice_inverse(vals, g) - back)) < 1e-13 * np.max(np.abs(back))

    def test_2d_matches_direct_sum(self):
        g = make_grid(2, 8, 2.0, [0.0, 1.0])
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(8, 8, 1)) + 1j * rng.normal(size=(8, 8, 1))
        e = self._dft(g, -1)
        want = (2 * np.pi) ** -1 * g.dx**2 * np.einsum("ak,bl,abc->klc", e, e, vals)
        got = lattice_forward(vals, g)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_inverse_into_its_input(self):
        g = make_grid(1, 16, 1.0, [0.0, 1.0])
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(4, 16, 1)) + 1j * rng.normal(size=(4, 16, 1))
        want = lattice_inverse(vals, g)
        work = vals.copy()
        got = lattice_inverse(work, g, out=work)
        assert got is work and np.array_equal(got, want)

    # bare(X) = (-1)^(j_1 + ... + j_d) roll(lattice_inverse(X), n/2) / s; n = 6,
    # with n/2 odd, built directly, as in test_1d_matches_direct_sum
    @pytest.mark.parametrize("n", [6, 8, 16])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_bare_inverse_is_shifted_and_unscaled(self, d, n, real):
        g = SpectralGrid(d, n, 0.75, np.array([0.0, 1.0]))
        rng = np.random.default_rng(20 * d + n)
        shape = (3,) + (n,) * d + (2,)
        if real:
            full = lattice_forward(rng.normal(size=shape), g)
            vals = full[..., : n // 2 + 1, :].copy()
            want = lattice_inverse(full, g).real
        else:
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = lattice_inverse(vals, g)
        given_vals = vals.copy()
        out = np.empty(shape) if real else None
        bare = lattice_inverse(vals, g, out=out, real=real, bare=True)
        assert np.array_equal(vals, given_vals)  # bare mode leaves values as they were
        assert bare.shape == shape
        s = (2 * np.pi) ** (-d / 2) * g.dxi**d
        axes = tuple(range(1, d + 1))
        back = np.roll(bare, (n // 2,) * d, axes)
        tol = 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(np.abs(back) * s - np.abs(want))) <= tol
        # the sign is the character (-1)^(j_1 + ... + j_d) of the lattice point
        j = np.indices((n,) * d).sum(axis=0)
        sign = np.where(j % 2 == 0, 1.0, -1.0).reshape((1,) + (n,) * d + (1,))
        assert np.max(np.abs(np.roll(sign, (n // 2,) * d, axes) * back * s - want)) <= tol
        if real:
            assert bare is out
            with pytest.raises(ValueError, match="Hermitian half"):
                lattice_inverse(full, g, real=True, bare=True)
            # the Hermitian half has no signed inverse
            with pytest.raises(ValueError, match="bare only"):
                lattice_inverse(vals, g, out=out, real=True)

    def test_real_input(self):
        g = make_grid(1, 16, 1.0, [0.0, 1.0])
        vals = np.random.default_rng(7).normal(size=(16, 1))
        assert np.array_equal(lattice_inverse(vals, g), lattice_inverse(vals + 0j, g))
        assert np.array_equal(lattice_forward(vals, g), lattice_forward(vals + 0j, g))


class TestLebesgueNorm:
    def test_zero(self):
        g = _grid_1d()
        f = SpaceTimeField(g, 1, np.zeros((2, g.n, 1)))
        assert lebesgue_norm(f, 2) == 0.0

    def test_constant_field(self):
        # f = 1 on (0,1)x(-L,L), p=2 -> (2L)^(1/2)
        L = 5.0
        g = make_grid(1, 64, L, np.linspace(0, 1, 9))
        f = SpaceTimeField(g, 1, np.ones((9, 64, 1)))
        assert lebesgue_norm(f, 2) == pytest.approx(np.sqrt(2 * L), rel=1e-12)

    def test_rejects_p_below_one(self):
        g = _grid_1d()
        f = SpaceTimeField(g, 1, np.ones((2, g.n, 1)))
        with pytest.raises(ValueError):
            lebesgue_norm(f, 0.5)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_non_finite_p(self, p):
        # the constant 3 used to give 1.0 at p = inf, and nan at p = nan
        g = _grid_1d()
        f = SpaceTimeField(g, 1, np.full((2, g.n, 1), 3.0))
        with pytest.raises(ValueError):
            lebesgue_norm(f, p)

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.floats(min_value=-50, max_value=50, allow_nan=False),
        p=st.floats(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_homogeneity(self, c, p, seed):
        g = _grid_1d(n=16, t=(0.0, 0.3, 1.0))
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(3, 16, 2)) + 1j * rng.normal(size=(3, 16, 2))
        f = SpaceTimeField(g, 2, v)
        cf = SpaceTimeField(g, 2, c * v)
        assert lebesgue_norm(cf, p) == pytest.approx(abs(c) * lebesgue_norm(f, p), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16), p=st.floats(min_value=1, max_value=5))
    def test_triangle_inequality(self, seed, p):
        g = _grid_1d(n=16, t=(0.0, 0.3, 1.0))
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(3, 16, 2)) * (1 + 0j)
        v = rng.normal(size=(3, 16, 2)) * (1 + 0j)
        fu, fv = SpaceTimeField(g, 2, u), SpaceTimeField(g, 2, v)
        fs = SpaceTimeField(g, 2, u + v)
        assert lebesgue_norm(fs, p) <= lebesgue_norm(fu, p) + lebesgue_norm(fv, p) + 1e-12


class TestFieldValidation:
    def test_rejects_nan(self):
        g = _grid_1d(n=16)
        v = np.ones((2, 16, 1), dtype=complex)
        v[1, 3, 0] = np.nan
        with pytest.raises(ValueError):
            SpaceTimeField(g, 1, v)

    def test_rejects_bad_shape(self):
        g = _grid_1d(n=16)
        with pytest.raises(ValueError):
            SpaceTimeField(g, 1, np.ones((2, 8, 1)))
        with pytest.raises(ValueError):
            SpaceTimeField(g, 1, np.ones((3, 16, 1)))


def test_vector_norm():
    v = np.array([[3.0, 4.0]])
    assert vector_norm(v)[0] == pytest.approx(5.0)
