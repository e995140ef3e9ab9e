import numpy as np
import pytest

from lpevo.grid import SpatialField, lattice_inverse, lebesgue_norm, make_grid
from lpevo.lp import (
    besov_norm,
    besov_norm_report,
    build_partition,
    delta_j,
    dyadic_profile,
    s0_project,
    smooth_cutoff,
    sobolev_norm,
)


def _grid(n=128, L=np.pi):
    return make_grid(1, n, L, [0.0, 1.0])


def _mode(grid, k, m=1):
    xi0 = grid.freq[grid.n // 2 + k]
    vals = np.repeat(np.exp(1j * xi0 * grid.x)[:, None], m, axis=1)
    return SpatialField(grid, m, vals), xi0


def _band_limited(grid, seed=0, m=1, k_hi=None):
    rng = np.random.default_rng(seed)
    part = build_partition(grid)
    k_hi = k_hi or int(2.0**part.j_max * grid.half_length / np.pi)
    coeffs = np.zeros(grid.spatial_shape() + (m,), dtype=complex)
    k = np.arange(grid.n) - grid.n // 2
    band = (np.abs(k) >= 1) & (np.abs(k) <= k_hi)
    coeffs[band] = rng.normal(size=(band.sum(), m)) + 1j * rng.normal(size=(band.sum(), m))
    return SpatialField(grid, m, lattice_inverse(coeffs, grid))


class TestProfile:
    def test_support_low_side(self):
        assert dyadic_profile(np.array([0.3, 0.5])) == pytest.approx([0.0, 0.0])

    def test_support_high_side(self):
        assert dyadic_profile(np.array([2.0, 3.0])) == pytest.approx([0.0, 0.0])

    def test_telescoping_pointwise(self):
        xi = 1.3
        total = sum(dyadic_profile(np.array(xi / 2.0**j)) for j in range(-30, 31))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_phi_one_plus_phi_two(self):
        # only Phi(1) is nonzero there: chi(1)-chi(2) = 1, Phi(2) = 0
        assert dyadic_profile(np.array(1.0)) + dyadic_profile(np.array(2.0)) == pytest.approx(1.0)

    def test_range(self):
        r = np.linspace(0, 4, 1000)
        phi = dyadic_profile(r)
        assert np.all(phi >= 0) and np.all(phi <= 1)

    def test_cutoff_monotone(self):
        r = np.linspace(0.5, 2.5, 500)
        chi = smooth_cutoff(r)
        assert np.all(np.diff(chi) <= 1e-15)


class TestPartition:
    def test_telescoping_on_lattice_band(self):
        g = _grid(n=256)
        part = build_partition(g)
        xin = g.freq_norm()
        total = sum(part.block_multiplier(j) for j in range(part.j_min, part.j_max + 1))
        band = (xin >= 2.0 ** (part.j_min - 1) * 2) & (xin <= 2.0**part.j_max)
        assert np.max(np.abs(total[band] - 1.0)) < 1e-10

    def test_low_plus_blocks_is_identity_multiplier(self):
        g = _grid(n=256)
        part = build_partition(g)
        xin = g.freq_norm()
        total = part.low_multiplier() + sum(
            part.block_multiplier(j) for j in range(1, part.j_max + 1)
        )
        band = xin <= 2.0**part.j_max
        assert np.max(np.abs(total[band] - 1.0)) < 1e-10

    def test_too_coarse_grid_rejected(self):
        g = make_grid(1, 8, 0.5, [0.0, 1.0])
        with pytest.raises(ValueError):
            build_partition(g)


class TestBlockOperators:
    def test_single_mode_scaled_by_profile(self):
        g = _grid(n=256)
        part = build_partition(g)
        j = 3
        # lattice k index at |xi| = 2^j (L = pi makes xi_k = k)
        f, xi0 = _mode(g, 2**j)
        out = delta_j(part, j, f)
        expected = dyadic_profile(np.array(abs(xi0) / 2.0**j)) * f.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_almost_orthogonality_exact(self):
        g = _grid(n=256)
        part = build_partition(g)
        f = _band_limited(g, seed=1)
        scale = np.max(np.abs(f.values))
        for i, j in [(1, 3), (2, 4), (1, 4), (2, 5)]:
            # the composed operator is diagonal on the lattice: its multiplier
            # vanishes identically for separated blocks
            assert np.all(part.block_multiplier(i) * part.block_multiplier(j) == 0.0)
            # field-level composition passes through two transforms: zero to
            # roundoff
            out = delta_j(part, i, delta_j(part, j, f))
            assert np.max(np.abs(out.values)) < 5e-15 * scale

    def test_block_out_of_range(self):
        g = _grid(n=128)
        part = build_partition(g)
        f = _band_limited(g)
        with pytest.raises(ValueError):
            delta_j(part, part.j_max + 1, f)

    def test_zero_field(self):
        g = _grid(n=128)
        part = build_partition(g)
        f = SpatialField(g, 1, np.zeros((g.n, 1)))
        assert np.all(delta_j(part, 2, f).values == 0)

    def test_s0_keeps_low_spectrum(self):
        g = _grid(n=256)
        part = build_partition(g)
        # |xi0| <= 1/2: chi = 1 there (L=pi lattice has no such nonzero mode;
        # use the k=0 constant field)
        f = SpatialField(g, 1, np.ones((g.n, 1)))
        out = s0_project(part, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_s0_kills_high_spectrum(self):
        g = _grid(n=256)
        part = build_partition(g)
        f, _ = _mode(g, 8)  # |xi| = 8 >= 2
        out = s0_project(part, f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_decomposition_reconstructs(self):
        g = _grid(n=256)
        part = build_partition(g)
        f = _band_limited(g, seed=3, m=2)
        total = s0_project(part, f).values.copy()
        for j in range(1, part.j_max + 1):
            total += delta_j(part, j, f).values
        assert np.max(np.abs(total - f.values)) < 1e-8


class TestNorms:
    def test_besov_zero(self):
        g = _grid(n=128)
        part = build_partition(g)
        f = SpatialField(g, 1, np.zeros((g.n, 1)))
        assert besov_norm(part, f, 0.0, 2.0) == 0.0

    def test_besov_single_mode_two_blocks(self):
        # at |xi0| = 2^j only blocks j and j+1 can act; direct two-term oracle
        g = _grid(n=256)
        part = build_partition(g)
        j = 3
        f, xi0 = _mode(g, 2**j)
        p = 2.0
        fp = lebesgue_norm(f, p)
        expected = 0.0
        for jj in range(1, part.j_max + 1):
            w = dyadic_profile(np.array(abs(xi0) / 2.0**jj))
            expected += (w * fp) ** p
        assert besov_norm(part, f, 0.0, p) == pytest.approx(expected ** (1 / p), rel=1e-10)

    def test_besov_p2_overlap_bound(self):
        # Parseval with at-most-2-fold overlap: besov^2 <= (1 + c_ov) |f|_2^2
        g = _grid(n=256)
        part = build_partition(g)
        xin = g.freq_norm()
        weight = part.low_multiplier() ** 2 + sum(
            part.block_multiplier(j) ** 2 for j in range(1, part.j_max + 1)
        )
        c_ov = float(np.max(weight))
        assert c_ov <= 1.0 + 1e-12  # blocks overlap pairwise and sum to one
        for seed in range(5):
            f = _band_limited(g, seed=seed)
            b = besov_norm(part, f, 0.0, 2.0)
            l2 = lebesgue_norm(f, 2.0)
            # norm form adds the low and block terms: at most sqrt(2) inflation
            assert b**2 <= 2.0 * (1.0 + c_ov) * l2**2 + 1e-12

    def test_besov_rejects_small_p(self):
        g = _grid(n=128)
        part = build_partition(g)
        f = _band_limited(g)
        with pytest.raises(ValueError):
            besov_norm(part, f, 0.0, 0.5)

    def test_sobolev_alpha_zero_is_lebesgue(self):
        g = _grid(n=128)
        f = _band_limited(g, seed=4, m=3)
        for p in (1.0, 2.0, 3.5):
            assert sobolev_norm(f, 0.0, p) == pytest.approx(lebesgue_norm(f, p), rel=1e-12)

    def test_sobolev_single_mode(self):
        g = _grid(n=128)
        f, xi0 = _mode(g, 5)
        for alpha in (-1.0, 0.5, 2.0):
            expected = (1 + xi0**2) ** (alpha / 2) * lebesgue_norm(f, 3.0)
            assert sobolev_norm(f, alpha, 3.0) == pytest.approx(expected, rel=1e-10)

    def test_sobolev_zero_field(self):
        g = _grid(n=128)
        f = SpatialField(g, 1, np.zeros((g.n, 1)))
        assert sobolev_norm(f, 1.0, 2.0) == 0.0

    def test_truncation_report(self):
        g = _grid(n=128)
        part = build_partition(g)
        f = _band_limited(g, seed=5)
        rep = besov_norm_report(part, f, 0.0, 2.0)
        assert rep["norm"] == pytest.approx(besov_norm(part, f, 0.0, 2.0))
        assert 0.0 <= rep["truncated_energy_fraction"] <= 1.0

