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
    lp_norm,
    make_grid,
    vector_norm,
)


def _grid_1d(n=64, L=10.0, t=(0.0, 1.0)):
    return make_grid(1, n, L, t)


class TestMakeGrid:
    def test_basic_lattice(self):
        g = make_grid(1, 8, np.pi, [0.0, 1.0])
        assert g.dx == pytest.approx(np.pi / 4)
        # L = pi makes xi_k = k, in FFT order: 0, the positive wave numbers,
        # the Nyquist -n/2, then the negative ones
        assert np.array_equal(g.freq, [0, 1, 2, 3, -4, -3, -2, -1])

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

    # a bool is an integer to isinstance and 2.0 is in (1, 2): d = True and
    # d = 2.0 once built a grid, and n = 8.0 raised a TypeError from &; a NaN
    # node was reported as out of order, since order was checked first
    @pytest.mark.parametrize(
        "d, n, t, match",
        [
            (3, 8, [0.0, 1.0], "spatial dimension"),
            (True, 8, [0.0, 1.0], "spatial dimension"),
            (2.0, 8, [0.0, 1.0], "spatial dimension"),
            (1, 8.0, [0.0, 1.0], "n must be an integer"),
            (1, np.float64(16.0), [0.0, 1.0], "n must be an integer"),
            (1, 8, [0.0], "at least two"),
            (1, 8, [0.0, np.inf], "finite"),
            (1, 8, [0.0, np.nan, 1.0], "finite"),
        ],
        ids=["d=3", "d=True", "d=2.0", "n=8.0", "n=float64", "one-node", "inf-node", "nan-node"],
    )
    def test_rejects_dimension_size_and_time_nodes(self, d, n, t, match):
        with pytest.raises(ValueError, match=match):
            make_grid(d, n, 1.0, t)

    @pytest.mark.parametrize("half_length", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_half_length_not_positive_and_finite(self, half_length):
        with pytest.raises(ValueError, match="half_length"):
            make_grid(1, 8, half_length, [0.0, 1.0])

    # a cast to float once dropped the imaginary parts of the time nodes
    # with only a ComplexWarning, into a grid on their real parts
    def test_rejects_complex_time_nodes(self):
        t = np.array([0.0, 1.0 + 1.0j])
        with pytest.raises(ValueError, match="t_nodes must be real"):
            make_grid(1, 8, 1.0, t)
        with pytest.raises(ValueError, match="t_grid must be real"):
            SpectralGrid(d=1, n=8, half_length=1.0, t_grid=t)

    # every operator relies on these, so a grid built directly checks them
    # too: d = 3, n = 12, L = -1 on decreasing times was once a grid, with
    # dx = -1/6
    @pytest.mark.parametrize(
        "d, n, half_length, t, match",
        [
            (3, 12, -1.0, [1.0, 0.0], "spatial dimension"),
            (True, 6, 1.0, [0.0, 1.0], "spatial dimension"),
            (1, 1, 1.0, [0.0, 1.0], "n must be an integer >= 2"),
            (1, 6.0, 1.0, [0.0, 1.0], "n must be an integer"),
            (1, 6, -1.0, [0.0, 1.0], "half_length"),
            (1, 6, np.inf, [0.0, 1.0], "half_length"),
            (1, 6, 1.0, [1.0, 0.0], "strictly increasing"),
            (1, 6, 1.0, [0.0], "at least two"),
            (1, 6, 1.0, [[0.0, 1.0]], "one axis"),
            (1, 6, 1.0, [0.0, np.nan], "finite"),
        ],
        ids=["d=3-n=12-L<0", "d=True", "n=1", "n=6.0", "L<0", "L=inf", "decreasing", "one-node", "2-d-nodes", "nan-node"],
    )
    def test_a_grid_built_directly_checks_its_lattice(self, d, n, half_length, t, match):
        with pytest.raises(ValueError, match=match):
            SpectralGrid(d=d, n=n, half_length=half_length, t_grid=t)

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
        # the continuous transform (2 pi)^(-1/2) int f e^(-i x xi) dx at xi_k
        # is (2L) (2 pi)^(-1/2) (-1)^k F_k: x_0 = -L gives e^(-i x_0 xi_k) = (-1)^k
        g = _grid_1d(n=256, L=12.0)
        spec = lattice_forward(np.exp(-g.x**2 / 2)[:, None], g)
        sign = np.where(np.arange(g.n) % 2 == 0, 1.0, -1.0)
        continuous = 2 * g.half_length * (2 * np.pi) ** -0.5 * sign * spec[:, 0]
        expected = np.exp(-g.freq**2 / 2)
        assert np.max(np.abs(continuous - expected)) < 1e-8

    def test_zero_maps_to_zero(self):
        g = _grid_1d()
        assert np.all(lattice_forward(np.zeros((g.n, 1)), g) == 0)

    def test_single_mode_point_mass(self):
        # geometric-sum oracle: n^(-1) sum_j exp(i(xi0-xi_k)(x_j - x_0)) is 1
        # at k = k0 and 0 otherwise, so the mode exp(i xi0 x) has the single
        # coefficient exp(i xi0 x_0) = (-1)^k0, at the index k0 mod n; a
        # positive, a negative and the Nyquist wave number
        g = _grid_1d(n=32, L=4.0)
        for k0 in (5, -3, -16):
            xi0 = np.pi * k0 / g.half_length
            spec = lattice_forward(np.exp(1j * xi0 * g.x)[:, None], g)[:, 0]
            expected = np.zeros(g.n, dtype=complex)
            expected[k0 % g.n] = (-1.0) ** k0
            assert g.freq[k0 % g.n] == xi0
            assert np.max(np.abs(spec - expected)) < 1e-13

    def test_parseval(self):
        g = _grid_1d(n=128, L=7.0)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(g.n, 3)) + 1j * rng.normal(size=(g.n, 3))
        spec = lattice_forward(f, g)
        # the mean of |f|^2 over the lattice is the sum of |F_k|^2
        lhs = np.mean(np.sum(np.abs(f) ** 2, axis=-1))
        rhs = np.sum(np.abs(spec) ** 2)
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
        # exp(sign * i (x_j - x_0) xi_k) over the spatial lattice and the
        # frequencies in FFT order
        return np.exp(sign * 1j * np.multiply.outer(g.x + g.half_length, g.freq))

    @staticmethod
    def _check_real_half(g, full, field):
        # the real field from the Hermitian half of its coefficients, the
        # indices 0..n/2 of the last spatial axis, into out; the half is kept
        half = full[..., : g.n // 2 + 1, :].copy()
        given = half.copy()
        out = np.empty(field.shape)
        assert lattice_inverse(half, g, out=out, real=True) is out
        assert np.array_equal(half, given)
        assert np.max(np.abs(out - field)) < 1e-13 * np.max(np.abs(field))
        with pytest.raises(ValueError, match="Hermitian half"):
            lattice_inverse(full, g, real=True)

    # n = 6 is built directly, as make_grid takes powers of two >= 8 only:
    # it is the even n with odd n/2
    @pytest.mark.parametrize("n,L", [(6, 2.0), (8, 1.0), (16, 0.5), (32, 3.0)])
    def test_1d_matches_direct_sum(self, n, L):
        g = SpectralGrid(1, n, L, np.array([0.0, 1.0]))
        rng = np.random.default_rng(n)
        vals = rng.normal(size=(3, n, 2)) + 1j * rng.normal(size=(3, n, 2))
        want = np.einsum("jk,tjc->tkc", self._dft(g, -1), vals) / n
        got = lattice_forward(vals, g)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        back = np.einsum("jk,tkc->tjc", self._dft(g, 1), vals)
        assert np.max(np.abs(lattice_inverse(vals, g) - back)) < 1e-13 * np.max(np.abs(back))
        self._check_real_half(g, np.einsum("jk,tjc->tkc", self._dft(g, -1), vals.real) / n, vals.real)

    def test_2d_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        for n in (6, 8):
            g = SpectralGrid(2, n, 2.0, np.array([0.0, 1.0]))
            vals = rng.normal(size=(n, n, 1)) + 1j * rng.normal(size=(n, n, 1))
            e, conj = self._dft(g, -1), self._dft(g, 1)
            want = np.einsum("ak,bl,abc->klc", e, e, vals) / n**2
            got = lattice_forward(vals, g)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
            back = np.einsum("ak,bl,klc->abc", conj, conj, vals)
            assert np.max(np.abs(lattice_inverse(vals, g) - back)) < 1e-13 * np.max(np.abs(back))
            self._check_real_half(g, np.einsum("ak,bl,abc->klc", e, e, vals.real) / n**2, vals.real)

    @classmethod
    def _direct_sum(cls, g, sign, vals):
        # the dense matrix _dft(g, sign) applied along each spatial axis of
        # (batch, *spatial, component) values
        e = cls._dft(g, sign)
        for axis in range(1, g.d + 1):
            vals = np.moveaxis(np.tensordot(e, vals, axes=([1], [axis])), 0, axis)
        return vals

    # G's layout: a leading batch axis, d spatial axes and a component axis;
    # n = 6, with n/2 odd, built directly, as in test_1d_matches_direct_sum
    @pytest.mark.parametrize("n", [6, 8, 16])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_batched_inverse_matches_direct_sum(self, d, n, real):
        g = SpectralGrid(d, n, 0.75, np.array([0.0, 1.0]))
        rng = np.random.default_rng(20 * d + n)
        shape = (3,) + (n,) * d + (2,)
        if real:
            field = rng.normal(size=shape)
            full = self._direct_sum(g, -1, field) / n**d
            assert np.max(np.abs(lattice_forward(field, g) - full)) < 1e-13 * np.max(np.abs(full))
            self._check_real_half(g, full, field)
            return
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        given = vals.copy()
        want = self._direct_sum(g, 1, vals)
        out = np.empty(shape, dtype=complex)
        got = lattice_inverse(vals, g, out=out)
        assert got is out and got.shape == shape
        assert np.array_equal(vals, given)  # a separate out leaves the values as they were
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_inverse_into_its_input(self):
        g = make_grid(1, 16, 1.0, [0.0, 1.0])
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(4, 16, 1)) + 1j * rng.normal(size=(4, 16, 1))
        want = lattice_inverse(vals, g)
        work = vals.copy()
        got = lattice_inverse(work, g, out=work)
        assert got is work and np.array_equal(got, want)

    def test_rejects_values_without_a_component_axis(self):
        with pytest.raises(ValueError, match="component axis"):
            lattice_forward(np.ones(16), _grid_1d(n=16))

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


class TestLpNorm:
    def _grid(self, d=1):
        return make_grid(d, 8, 1.0, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_one(self, d):
        # (2L)^d over a unit time span
        assert lp_norm(np.ones((5,) + (8,) * d), self._grid(d), 3.0) == pytest.approx(2.0 ** (d / 3), rel=1e-12)

    @pytest.mark.parametrize("shape", [(5, 1), (5, 8, 1), (4, 8), (5, 8, 8), (5, 16)])
    def test_rejects_samples_off_the_grid(self, shape):
        # a (5, 1) array of ones used to broadcast against the weights and
        # give 0.354
        with pytest.raises(ValueError, match="not scalar samples"):
            lp_norm(np.ones(shape), self._grid(), 2.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_rejects_negative_or_non_finite_samples(self, bad):
        # negative samples used to give nan with a RuntimeWarning, nan ones nan
        values = np.ones((5, 8))
        values[3, 2] = bad
        with pytest.raises(ValueError, match="finite nonnegative"):
            lp_norm(values, self._grid(), 2.0)

    @pytest.mark.parametrize("p", [0.0, 0.5, -2.0, np.inf, np.nan])
    def test_rejects_p_outside_one_to_infinity(self, p):
        # p = 0 used to raise ZeroDivisionError
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            lp_norm(np.ones((5, 8)), self._grid(), p)

    def test_rejects_complex_samples(self):
        with pytest.raises(ValueError, match="must be real"):
            lp_norm(np.ones((5, 8)) + 0j, self._grid(), 2.0)


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

    # m = 0 used to construct, and G then divided by it; a float m = 1.0
    # and a bool m = True matched the shape of the values
    @pytest.mark.parametrize("m,width", [(0, 0), (-1, 1), (1.0, 1), (np.float64(2.0), 2), (True, 1)])
    def test_rejects_m_other_than_an_integer_of_at_least_one(self, m, width):
        g = _grid_1d(n=16)
        with pytest.raises(ValueError, match="m must be an integer"):
            SpaceTimeField(g, m, np.ones((2, 16, width)))

    def test_accepts_a_numpy_integer_m(self):
        assert SpaceTimeField(_grid_1d(n=16), np.int64(2), np.ones((2, 16, 2))).m == 2


def test_vector_norm():
    v = np.array([[3.0, 4.0]])
    assert vector_norm(v)[0] == pytest.approx(5.0)
