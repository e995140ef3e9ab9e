import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpevo import maximal as maximal_module
from lpevo.grid import make_grid, vector_norm
from lpevo.maximal import (
    _graded_maximal_time,
    _window_sharp,
    build_filtration_levels,
    containment_radius,
    filtration_sharp,
    maximal_values,
    nested_n1,
    sharp_parabolic,
)


def _grid(n=1024, L=16.0, nt=2):
    return make_grid(1, n, L, np.linspace(0.0, 1.0, nt))


def _cells_grid(n=16, L=1.0, T=64, span=1.0):
    # time nodes at cell centers of a dyadic box [0, span)
    t = (np.arange(T) + 0.5) * (span / T)
    return make_grid(1, n, L, t)


def _sharp_oracle(h, mt, mx):
    """Direct enumeration of the sharp function for one window shape.

    The mean oscillation of the (2mt+1) x (2mx+1)^d window at each center,
    with zero rows outside the box and n-periodic space, then the sup over
    every window position containing the point.  Works in the dtype of
    ``h``.
    """
    T, n, d = h.shape[0], h.shape[1], h.ndim - 1
    padded = np.pad(h, [(2 * mt, 2 * mt)] + [(0, 0)] * d)
    span = np.arange(-mx, mx + 1)
    osc = np.empty((T + 2 * mt,) + h.shape[1:], dtype=h.dtype)
    for idx in np.ndindex(osc.shape):
        c, x = idx[0], idx[1:]  # center row c - mt
        cells = padded[np.ix_(np.arange(c, c + 2 * mt + 1), *[(xi + span) % n for xi in x])]
        osc[idx] = np.mean(np.abs(cells - cells.mean()))
    out = np.empty_like(h)
    for idx in np.ndindex(h.shape):
        i, x = idx[0], idx[1:]
        out[idx] = osc[np.ix_(np.arange(i, i + 2 * mt + 1), *[(xi + span) % n for xi in x])].max()
    return out


# shapes (d, n, T, mt, mx) whose commonest residue weight is not 0, with that
# base weight, which they take once _LOOKUP_MOVES is 0.  d = 1: 15 of 16
# residues once; 13 = 8 + 5 cells, twice on five of 8 residues; 19 = 2 * 8 + 3
# cells, wider than 2n.  d = 2: 7 of 8 residues once per axis; 13 cells per
# axis (2 x 1 on 30 residues); 15 = 8 + 7 cells (2 x 2 on 49); 23 = 2 * 8 + 7
# cells, wider than 2n (3 x 3 on 49)
_LOOKUP_SHAPES = {
    (1, 16, 8, 2, 7): 1,
    (1, 8, 4, 1, 6): 2,
    (1, 8, 3, 2, 9): 2,
    (2, 8, 6, 1, 3): 1,
    (2, 8, 6, 1, 6): 2,
    (2, 8, 4, 2, 7): 4,
    (2, 8, 3, 1, 11): 9,
}


def _set_plan_constant(monkeypatch, name, value):
    """Set a constant that shape plans read, under a plan cache of the
    test's own: no plan cached before serves the test, and none it builds
    outlives it."""
    monkeypatch.setattr(maximal_module, name, value)
    monkeypatch.setattr(maximal_module, "_shape_plan", functools.cache(maximal_module._shape_plan.__wrapped__))


def _lookup_if_listed(monkeypatch, d, n, T, mt, mx):
    """Let a shape of _LOOKUP_SHAPES take its base weight however few moves
    that removes, and check its base weight; other shapes keep the default
    rule."""
    if (d, n, T, mt, mx) in _LOOKUP_SHAPES:
        _set_plan_constant(monkeypatch, "_LOOKUP_MOVES", 0)
        assert maximal_module._shape_plan(T, n, d, mt, mx).base == _LOOKUP_SHAPES[d, n, T, mt, mx]


def _cap_field(d):
    return np.random.default_rng(18).normal(size=(6,) + (8,) * d)


@functools.cache
def _cap_oracle(d, mt, mx):
    """The oracle of test_chunk_cap_leaves_values, once for all its caps."""
    return _sharp_oracle(_cap_field(d), mt, mx)


def _graded_loop_reference(batch, edges):
    # the per-center loop that _graded_maximal_time vectorizes
    n = batch.shape[-1]
    widths = np.diff(edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    flat = batch.reshape(-1, n)
    out = np.zeros_like(flat)
    for b, row in enumerate(flat):
        prefix = np.concatenate([[0.0], np.cumsum(row * widths)])
        for i, c in enumerate(centers):
            radii = np.abs(edges - c)
            mass = np.interp(c + radii, edges, prefix) - np.interp(c - radii, edges, prefix)
            out[b, i] = np.max(mass / (2.0 * radii))
    return out.reshape(batch.shape)


def _graded_time_reference(h, t):
    """maximal_values(h, grid, "time") by the graded rule, which takes every
    cell edge as a radius on any time grid."""
    dt = np.diff(t)
    edges = np.concatenate([[t[0] - dt[0] / 2], (t[:-1] + t[1:]) / 2, [t[-1] + dt[-1] / 2]])
    return np.moveaxis(_graded_maximal_time(np.moveaxis(h, 0, -1), edges), -1, 0)


def _ball_brute_force(h):
    """Sup over every distinct periodic cell-inclusion ball of an (n, n)
    field, centre by centre: one mask per distinct squared distance."""
    n = h.shape[0]
    idx = np.arange(n)
    out = np.empty_like(h)
    for i, j in np.ndindex(h.shape):
        di = np.minimum(np.abs(idx - i), n - np.abs(idx - i))
        dj = np.minimum(np.abs(idx - j), n - np.abs(idx - j))
        dist2 = di[:, None] ** 2 + dj[None, :] ** 2
        out[i, j] = max(np.mean(h[dist2 <= r2]) for r2 in np.unique(dist2))
    return out


class TestMaximalSpace:
    def test_constant(self):
        g = _grid(n=64, L=2.0)
        out = maximal_values(vector_norm(np.full((64, 1), -3.0 + 0j)), g, "space")
        assert np.allclose(out, 3.0)

    def test_indicator_analytic_oracle(self):
        # h = 1 on [-1, 1]: maximal = 1 on |x| <= 1; outside, the average
        # (r - |x| + 1)/(2r) over (x-r, x+r) rises with r up to r = |x| + 1,
        # and 1/r after that, so maximal = 1/(1+|x|) away from the wrap
        g = _grid(n=1024, L=16.0)
        vals = (np.abs(g.x) <= 1.0).astype(complex)[:, None]
        out = maximal_values(vector_norm(vals), g, "space")
        window = np.abs(g.x) <= g.half_length / 2
        x = g.x[window]
        exact = np.where(np.abs(x) <= 1.0, 1.0, 1.0 / (1.0 + np.abs(x)))
        # the lattice indicator has cell-resolution edges; allow O(dx) slack
        assert np.max(np.abs(out[window] - exact)) < 2 * g.dx

    def test_indicator_point_value(self):
        # optimal radius r = 4 at x = 3 gives 1/4
        g = _grid(n=2048, L=16.0)
        vals = (np.abs(g.x) <= 1.0).astype(complex)[:, None]
        out = maximal_values(vector_norm(vals), g, "space")
        j = np.argmin(np.abs(g.x - 3.0))
        assert out[j] == pytest.approx(0.25, abs=2 * g.dx)

    def test_dominates_pointwise_value(self):
        g = _grid(n=128, L=4.0)
        rng = np.random.default_rng(1)
        vals = np.abs(rng.normal(size=(128, 1))) + 0j
        out = maximal_values(vector_norm(vals), g, "space")
        assert np.all(out >= np.abs(vals[:, 0]) - 1e-12)

    def test_brute_force_oracle_small_grid(self):
        g = _grid(n=16, L=2.0)
        rng = np.random.default_rng(2)
        h = np.abs(rng.normal(size=16))
        out = maximal_values(h[None, :], g, "space")[0]
        # brute force: all windows (k+1/2)dx plus the full period
        best = np.zeros(16)
        for i in range(16):
            for k in range(8):
                window = [(i + d) % 16 for d in range(-k, k + 1)]
                best[i] = max(best[i], np.mean(h[window]))
            best[i] = max(best[i], np.mean(h))
        assert np.allclose(out, best, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    def test_2d_brute_force_every_ball(self, n):
        g = make_grid(2, n, 1.0, [0.0, 1.0])
        h = np.abs(np.random.default_rng(20 + n).normal(size=(n, n)))
        np.testing.assert_allclose(maximal_values(h, g, "space"), _ball_brute_force(h), rtol=1e-12, atol=0.0)

    # rows 1, n, n + 1; the d = 1 cases keep their ids
    @pytest.mark.parametrize(
        "d, rows", [(1, 1), (1, 16), (1, 17), (2, 1), (2, 16), (2, 17)], ids=["1", "16", "17", "2d-1", "2d-16", "2d-17"]
    )
    def test_batched_equals_row_wise(self, d, rows):
        g = make_grid(d, 16, 2.0, [0.0, 1.0])
        h = np.abs(np.random.default_rng(10).normal(size=(rows,) + (16,) * d))
        out = maximal_values(h, g, "space")
        for b in range(rows):
            row = maximal_values(h[b : b + 1], g, "space")[0]
            assert np.allclose(out[b], row, rtol=0.0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        n=st.sampled_from([8, 16]),
        shift=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_commutes_with_lattice_symmetries(self, d, n, shift, seed):
        # a shift moves every window sum with its cells, in the same order;
        # a reflection or a transposition reorders the offsets of a distance
        g = make_grid(d, n, 1.0, [0.0, 1.0])
        h = np.abs(np.random.default_rng(seed).normal(size=(3,) + (n,) * d))
        out = maximal_values(h, g, "space")
        axes = tuple(range(1, d + 1))
        moved = maximal_values(np.roll(h, shift[:d], axis=axes), g, "space")
        assert np.array_equal(moved, np.roll(out, shift[:d], axis=axes))
        for ax in axes:
            flipped = maximal_values(np.flip(h, axis=ax), g, "space")
            np.testing.assert_allclose(flipped, np.flip(out, axis=ax), rtol=1e-12, atol=0.0)
        if d == 2:
            swapped = maximal_values(np.swapaxes(h, 1, 2), g, "space")
            np.testing.assert_allclose(swapped, np.swapaxes(out, 1, 2), rtol=1e-12, atol=0.0)

    def test_spacetime_field_equals_spatial_rows(self):
        g = _cells_grid(n=16, T=8)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(8, 16, 2)) + 1j * rng.normal(size=(8, 16, 2))
        out = maximal_values(vector_norm(vals), g, "space")
        for k in range(8):
            row = maximal_values(vector_norm(vals[k]), g, "space")
            assert np.allclose(out[k], row, rtol=0.0, atol=1e-12)

    def test_2d_constant(self):
        g = make_grid(2, 16, 2.0, [0.0, 1.0])
        out = maximal_values(vector_norm(np.full((16, 16, 1), 2.0 + 0j)), g, "space")
        assert np.allclose(out, 2.0)


class TestMaximalTime:
    def test_constant(self):
        g = _cells_grid(T=32)
        out = maximal_values(vector_norm(np.full((32, 16, 1), 1.5 + 0j)), g, "time")
        # zero extension: averages over windows reaching past the box shrink
        assert np.max(out) == pytest.approx(1.5, rel=1e-12)
        assert np.all(out <= 1.5 + 1e-12)

    def test_brute_force_oracle(self):
        g = _cells_grid(n=16, T=16)
        rng = np.random.default_rng(3)
        h = np.abs(rng.normal(size=(16, 16)))
        out = maximal_values(h, g, "time")
        dt = np.diff(g.t_grid)[0]
        for j in (0, 7):
            col = h[:, j]
            for i in range(16):
                best = 0.0
                for k in range(16):
                    r = (k + 0.5) * dt
                    lo, hi = max(i - k, 0), min(i + k + 1, 16)
                    best = max(best, np.sum(col[lo:hi]) * dt / (2 * r))
                assert out[i, j] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    def test_graded_equals_loop(self, batch):
        edges = np.concatenate([[0.0], np.cumsum(np.random.default_rng(15).uniform(0.05, 0.4, 9))])
        h = np.abs(np.random.default_rng(16).normal(size=batch + (9,)))
        out = _graded_maximal_time(h, edges)
        assert np.array_equal(out, _graded_loop_reference(h, edges))

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_graded_path_whatever_the_time_unit(self, scale):
        # steps 1, 2, 4, 8 are graded in any unit; an absolute tolerance of
        # 1e-8 would take them for uniform at the nanosecond scale
        t = np.array([0.0, 1.0, 3.0, 7.0, 15.0]) * scale
        g = make_grid(1, 16, 1.0, t)
        h = np.abs(np.random.default_rng(17).normal(size=(5, 16)))
        assert np.allclose(maximal_values(h, g, "time"), _graded_time_reference(h, t), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d, T", [(1, 2), (1, 7), (2, 16)])
    def test_uniform_rule_equals_graded_rule(self, d, T):
        # the graded rule is exact on any grid, so it is the oracle of the
        # running sum that uniform time cells take
        t = 0.3 + 0.05 * np.arange(T)
        g = make_grid(d, 8, 1.0, t)
        h = np.abs(np.random.default_rng(T).normal(size=(T,) + (8,) * d))
        np.testing.assert_allclose(maximal_values(h, g, "time"), _graded_time_reference(h, t), rtol=1e-12, atol=0.0)

    def test_graded_time_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.7, 1.5])
        g = make_grid(1, 16, 1.0, t)
        rng = np.random.default_rng(4)
        h = np.abs(rng.normal(size=(5, 16)))
        out = maximal_values(h, g, "time")
        assert out.shape == (5, 16)
        assert np.all(out >= 0)


_OPERATORS = {
    "maximal-space": lambda h, g: maximal_values(h, g, "space"),
    "maximal-time": lambda h, g: maximal_values(h, g, "time"),
    "sharp": lambda h, g: sharp_parabolic(h, g, gamma=1.0),
    "filtration": lambda h, g: filtration_sharp(h, g, gamma=1.0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operator", sorted(_OPERATORS))
def test_non_finite_input_rejected(operator, bad):
    # an 8 x 8 dyadic field (gamma = 1); one NaN would otherwise spread over
    # a row of the maximal or the whole filtration sharp function
    g = make_grid(1, 8, 0.5, (np.arange(8) + 0.5) / 8)
    h = np.abs(np.random.default_rng(21).normal(size=(8, 8)))
    h[3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        _OPERATORS[operator](h, g)


@pytest.mark.parametrize("operator", sorted(_OPERATORS))
def test_complex_input_rejected(operator):
    # a cast to float would drop the imaginary part with only a
    # ComplexWarning and return the operator of the real part
    g = make_grid(1, 8, 0.5, (np.arange(8) + 0.5) / 8)
    h = np.full((8, 8), 1.0 + 1.0j)
    with pytest.raises(ValueError, match="real"):
        _OPERATORS[operator](h, g)


def test_unknown_axis_rejected():
    g = make_grid(1, 8, 0.5, (np.arange(8) + 0.5) / 8)
    with pytest.raises(ValueError, match="axis must be 'space' or 'time'"):
        maximal_values(np.ones((8, 8)), g, "x")


# leading batch axes in space stay allowed (test_batched_equals_row_wise)
@pytest.mark.parametrize(
    "d,axis,shape",
    [(1, "space", (8, 15)), (1, "space", (8,)), (2, "space", (8, 16, 8)), (1, "time", (7, 16)), (2, "time", (16,))],
)
def test_values_off_the_grid_rejected(d, axis, shape):
    g = make_grid(d, 16, 0.5, (np.arange(8) + 0.5) / 8)
    with pytest.raises(ValueError, match="lattice|time nodes"):
        maximal_values(np.ones(shape), g, axis)


_SPACE_TIME_OPERATORS = {
    "sharp": lambda h, g: sharp_parabolic(h, g, gamma=1.0),
    "filtration": lambda h, g: filtration_sharp(h, g, gamma=1.0),
}


# a space-time field has one time row per node and exactly the lattice
# after it: no batch axis, no vector axis
@pytest.mark.parametrize("shape", [(8, 15), (7, 16), (8, 16, 1)])
@pytest.mark.parametrize("operator", sorted(_SPACE_TIME_OPERATORS))
def test_space_time_values_off_the_grid_rejected(operator, shape):
    g = make_grid(1, 16, 0.5, (np.arange(8) + 0.5) / 8)
    with pytest.raises(ValueError, match="space-time array on the grid"):
        _SPACE_TIME_OPERATORS[operator](np.ones(shape), g)


# the windows count time in cells of one length
@pytest.mark.parametrize("operator", sorted(_SPACE_TIME_OPERATORS))
def test_nonuniform_time_cells_rejected(operator):
    g = make_grid(1, 8, 0.5, np.array([0.0, 0.1, 0.3, 0.7, 1.5]))
    with pytest.raises(ValueError, match="uniform time cells"):
        _SPACE_TIME_OPERATORS[operator](np.ones((5, 8)), g)


_GAMMA_OPERATORS = {
    "sharp": sharp_parabolic,
    "filtration": filtration_sharp,
    "nested_n1": lambda h, g, gamma: nested_n1(g, gamma),
    "ladder": lambda h, g, gamma: maximal_module._default_radius_ladder(g, gamma),
    "levels": lambda h, g, gamma: build_filtration_levels(g, gamma),
    # a level built directly: its radius read gamma unchecked
    "containment_radius": lambda h, g, gamma: containment_radius(
        dataclasses.replace(build_filtration_levels(g, 1.0)[-2], gamma=gamma), g
    ),
}


# gamma = -1 used to return a sharp function, 0 and inf to divide by zero,
# and NaN to fail converting a window to an integer
@pytest.mark.parametrize("gamma", [-1.0, 0.0, np.inf, np.nan])
@pytest.mark.parametrize("operator", sorted(_GAMMA_OPERATORS))
def test_gamma_not_finite_and_positive_rejected(operator, gamma):
    g = make_grid(1, 8, 0.5, (np.arange(8) + 0.5) / 8)
    h = np.abs(np.random.default_rng(22).normal(size=(8, 8)))
    with pytest.raises(ValueError, match="gamma must be finite and > 0"):
        _GAMMA_OPERATORS[operator](h, g, gamma)


class TestSharpParabolic:
    def test_constant_is_zero(self):
        g = _cells_grid()
        h = np.full((64, 16), 4.2)
        out = sharp_parabolic(h, g, gamma=2.0)
        assert np.all(out >= 0)
        # a 3 x 5 window holding a point of rows 2..61 lies in the box; one
        # holding row 0 or 1 may reach row -1, and sees the jump to 0 there
        small = _window_sharp(h, {(1, 2)})
        assert np.allclose(small[2:-2], 0.0, atol=1e-14)
        assert np.all(small[:2] > 0.1)

    def test_halfspace_indicator_brute_force(self):
        # h = 1 on x >= 0: direct sums over every 3 x 5 window holding a
        # point on the interface, in the box and at its first row
        g = _cells_grid(n=16, T=16, span=1.0)
        h = (g.x >= 0).astype(float)[None, :].repeat(16, axis=0)
        mt, mx = 1, 2
        out = _window_sharp(h, {(mt, mx)})

        def osc(a, b):  # the window centred at time row a, space column b
            cells = np.array(
                [h[r, c % 16] if 0 <= r < 16 else 0.0 for r in range(a - mt, a + mt + 1) for c in range(b - mx, b + mx + 1)]
            )
            return np.mean(np.abs(cells - cells.mean()))

        for i, j in [(8, 8), (0, 8)]:
            best = max(osc(a, b) for a in range(i - mt, i + mt + 1) for b in range(j - mx, j + mx + 1))
            assert out[i, j] == pytest.approx(best, rel=1e-12)

    def test_offsets_brute_force(self):
        # sup of the centered oscillation over every window containing the
        # point; the space window (2*5+1 cells) is longer than the period
        h = np.random.default_rng(13).normal(size=(6, 8))
        mt, mx = 2, 5
        out = _window_sharp(h, {(mt, mx)})
        zero_ext = np.pad(h, [(2 * mt, 2 * mt), (0, 0)])

        def osc(a, b):  # centered window at time row a, space column b
            rows = zero_ext[a + mt : a + 3 * mt + 1]
            cells = rows[:, np.arange(b - mx, b + mx + 1) % 8]
            return np.mean(np.abs(cells - cells.mean()))

        for i in range(6):
            for j in range(8):
                best = max(
                    osc(a, b)
                    for a in range(i - mt, i + mt + 1)
                    for b in range(j - mx, j + mx + 1)
                )
                assert out[i, j] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("lookup", [False, True])
    @pytest.mark.parametrize(
        "d, n, T, mt, mx",
        [
            (1, 8, 6, 2, 1),
            (1, 8, 3, 4, 6),  # time window past the box, space window past the period
            (1, 16, 5, 40, 2),  # radius far past the box: one time class in the box
            (2, 8, 4, 1, 2),
            (2, 8, 3, 3, 5),
            (2, 8, 4, 12, 1),
        ]
        + list(_LOOKUP_SHAPES),
    )
    def test_direct_enumeration_oracle(self, monkeypatch, d, n, T, mt, mx, lookup):
        # every shape by moves alone (no base weight removes n^d moves), then
        # with the base weight taken however few moves that removes: the
        # shapes of _LOOKUP_SHAPES run once without and once with the lookup
        _set_plan_constant(monkeypatch, "_LOOKUP_MOVES", 0 if lookup else n**d)
        if (d, n, T, mt, mx) in _LOOKUP_SHAPES:
            expected = _LOOKUP_SHAPES[d, n, T, mt, mx] if lookup else 0
            assert maximal_module._shape_plan(T, n, d, mt, mx).base == expected
        h = np.random.default_rng(17).normal(size=(T,) + (n,) * d)
        np.testing.assert_allclose(_window_sharp(h, {(mt, mx)}), _sharp_oracle(h, mt, mx), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sup_over_the_ladder_oracle(self, d, gamma):
        # the public operator is the direct enumeration's sup over the window
        # shapes of the default ladder, from the one-cell window to windows
        # past the box and the period
        g = make_grid(d, 8, 0.5, (np.arange(5) + 0.5) / 5)
        h = np.random.default_rng(23).normal(size=(5,) + (8,) * d)
        shapes = {
            maximal_module._window_halfwidths(r, gamma, 1 / 5, g.dx)
            for r in maximal_module._default_radius_ladder(g, gamma)
        }
        mt, mx = max(shapes)
        assert (0, 0) in shapes and 2 * mt + 1 > 5 and 2 * mx + 1 > 8
        exact = np.max([_sharp_oracle(h, mt, mx) for mt, mx in shapes], axis=0)
        np.testing.assert_allclose(sharp_parabolic(h, g, gamma), exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("cap", [1, 100, 1000, 2**15])
    def test_chunk_cap_leaves_values(self, monkeypatch, d, cap):
        # chunks of one pair, chunks that cut time classes, one chunk; the
        # second window is longer than the period, so its moves carry
        # weights 1 and 2 (and 4 in d = 2) in every chunk.  Then, with the
        # base weight taken whenever it removes a move, the last three take
        # the lookup, whose runs of classes the cap cuts as well: base
        # weight 1 (7 of 8 residues), 2 in d = 1 and 2 in d = 2 (13 = 8 + 5
        # cells), and 3 or 9 (23 = 2 * 8 + 7 cells, wider than 2n)
        _set_plan_constant(monkeypatch, "_CHUNK_ENTRIES", cap)
        h = _cap_field(d)
        for lookup_moves, shapes in (
            (maximal_module._LOOKUP_MOVES, ((4, 2), (4, 6))),
            (0, ((4, 3), (4, 6), (4, 11))),
        ):
            _set_plan_constant(monkeypatch, "_LOOKUP_MOVES", lookup_moves)
            for mt, mx in shapes:
                assert (maximal_module._shape_plan(6, 8, d, mt, mx).base != 0) == (lookup_moves == 0)
                out = _window_sharp(h, {(mt, mx)})
                np.testing.assert_allclose(out, _cap_oracle(d, mt, mx), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize(
        "d, n, T, mt, mx",
        [(1, 16, 8, 2, 3), (2, 8, 6, 1, 2), (1, 16, 8, 1, 0), (1, 16, 8, 2, 7), (2, 8, 6, 1, 3), (2, 8, 6, 1, 6)],
    )
    def test_offset_costs_no_more_than_the_mean(self, monkeypatch, d, n, T, mt, mx, offset):
        # an offset c shifts every value and mean alike, so the oscillation
        # only loses the digits the mean loses, about eps * c; an identity
        # sum |v - mu| = 2 sum max(v, mu) - sum v - W mu on uncentred values
        # cancels terms of size c and loses more (9e-13 against 5e-13 at
        # c = 1e3 in d = 2).  The last three shapes take the base-weight
        # lookup, whose sorted rows are centred too
        _lookup_if_listed(monkeypatch, d, n, T, mt, mx)
        h = offset + np.random.default_rng(1).normal(size=(T,) + (n,) * d)
        out = _window_sharp(h, {(mt, mx)})
        exact = _sharp_oracle(h.astype(np.longdouble), mt, mx)
        rel = np.max(np.abs(out - exact) / np.abs(exact))
        assert rel <= 1e-15 + 5e-16 * offset

    def test_peak_memory_is_a_few_chunks(self):
        # the sharp-2d grid (d = 2, n = 16, L = 1/2, 16 cell-centred times,
        # gamma = 1) with the default ladder; its widest window (mx = 15)
        # outgrows the period, so its residues carry weights 4 (225), 2 (30)
        # and 1 (the residue 0, 0): the base weight 4 goes to the lookup and
        # leaves the residual weights -2 and -3 to 31 moves
        g = make_grid(2, 16, 0.5, (np.arange(16) + 0.5) / 16)
        ladder = maximal_module._default_radius_ladder(g, 1.0)
        widest = maximal_module._window_halfwidths(ladder[-1], 1.0, 1 / 16, g.dx)
        plan = maximal_module._shape_plan(16, 16, 2, *widest)
        assert plan.base == 4
        assert [(weight, len(cuts)) for weight, cuts in plan.moves] == [(-2, 30), (-3, 1)]
        h = np.random.default_rng(19).normal(size=(16, 16, 16))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sharp_parabolic(h, g, gamma=1.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * maximal_module._CHUNK_ENTRIES * 8 + 16 * h.nbytes

    def test_plans_are_cached_and_read_only(self):
        # one plan serves every call on its grid and window shape
        plan = maximal_module._shape_plan(6, 8, 2, 1, 3)
        assert maximal_module._shape_plan(6, 8, 2, 1, 3) is plan
        for a in [plan.count, plan.of_center, plan.rep] + [a for chunk in plan.chunks for a in chunk]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(min_value=1, max_value=12), mt=st.integers(min_value=0, max_value=15))
    def test_plan_classes_by_rows(self, T, mt):
        # the in-box rows of each center's window, enumerated: a class is one
        # row set, its representative center maps back to it, and the run a
        # plan keeps for row r is every class whose rows hold r
        plan = maximal_module._shape_plan(T, 8, 1, mt, 1)
        rows = [set(range(max(c - mt, 0), min(c + mt, T - 1) + 1)) for c in range(-mt, T + mt)]
        classes = [rows[c] for c in plan.rep]
        assert np.array_equal(plan.of_center[plan.rep], np.arange(len(classes)))
        assert all(rows[c] == classes[k] for c, k in enumerate(plan.of_center))
        assert len(set(map(frozenset, classes))) == len(classes)
        assert plan.count.tolist() == [len(held) for held in classes]
        for r in range(T):
            assert set(plan.held[r]) == {k for k, held in enumerate(classes) if r in held}

    @pytest.mark.parametrize("d, n, T, moves", [(2, 16, 16, 397), (1, 64, 64, 170)], ids=["sharp-2d", "static-1d"])
    def test_default_ladder_moves(self, d, n, T, moves):
        # the moves of the default ladder's shapes on the sharp-2d and
        # static-1d grids (L = 1/2, cell-centred times, gamma = 1), a cost
        # that needs no clock: with every residue a move they were 942 and
        # 332, and the base-weight lookup takes the windows that cover the
        # period (mx = 7, 11, 15 of 16, and 31, 45, 63 of 64)
        g = make_grid(d, n, 0.5, (np.arange(T) + 0.5) / T)
        shapes = {
            maximal_module._window_halfwidths(r, 1.0, 1 / T, g.dx)
            for r in maximal_module._default_radius_ladder(g, 1.0)
        }
        plans = [maximal_module._shape_plan(T, n, d, mt, mx) for mt, mx in shapes]
        assert sum(len(cuts) for p in plans for _, cuts in p.moves) == moves

    @settings(max_examples=12, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        n=st.sampled_from([8, 16]),
        T=st.integers(min_value=2, max_value=5),
        mt=st.integers(min_value=0, max_value=7),
        mx=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_oracle_property(self, d, n, T, mt, mx, seed):
        h = np.random.default_rng(seed).normal(size=(T,) + (n,) * d)
        np.testing.assert_allclose(_window_sharp(h, {(mt, mx)}), _sharp_oracle(h, mt, mx), rtol=1e-12, atol=0.0)

    def test_shift_invariance(self):
        g = _cells_grid(n=16, T=32)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(32, 16))
        out = sharp_parabolic(h, g, gamma=2.0)
        shifted = np.roll(h, 3, axis=1)  # spatial lattice shift
        out2 = sharp_parabolic(shifted, g, gamma=2.0)
        assert np.allclose(out2, np.roll(out, 3, axis=1), atol=1e-12)

    def test_shift_invariance_2d(self):
        g = make_grid(2, 8, 1.0, (np.arange(8) + 0.5) / 8)
        rng = np.random.default_rng(12)
        h = rng.normal(size=(8, 8, 8))
        out = sharp_parabolic(h, g, gamma=2.0)
        shifted = np.roll(h, (3, 5), axis=(1, 2))  # spatial lattice shift
        out2 = sharp_parabolic(shifted, g, gamma=2.0)
        assert np.allclose(out2, np.roll(out, (3, 5), axis=(1, 2)), atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        n=st.sampled_from([8, 16]),
        T=st.integers(min_value=2, max_value=8),
        gamma=st.sampled_from([1.0, 2.0]),
        shift=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_commutes_with_symmetries(self, d, n, T, gamma, shift, seed):
        # space wraps and each window is symmetric about its centre in time
        # and along each space axis, so a shift by any vector, the
        # reflection j -> -j mod n of one axis and time reversal on uniform
        # cells move the sharp function with the field
        g = make_grid(d, n, 0.5, (np.arange(T) + 0.5) / T)
        h = np.random.default_rng(seed).normal(size=(T,) + (n,) * d)
        out = sharp_parabolic(h, g, gamma)
        axes = tuple(range(1, d + 1))
        mirror = (-np.arange(n)) % n
        maps = [lambda a: np.roll(a, shift[:d], axis=axes), lambda a: a[::-1]]
        maps += [lambda a, ax=ax: np.take(a, mirror, axis=ax) for ax in axes]
        for move in maps:
            np.testing.assert_allclose(sharp_parabolic(move(h), g, gamma), move(out), rtol=1e-12, atol=0.0)

    def test_bounded_by_local_averages(self):
        # |h - mu| <= |h| + |mu| gives osc(Q) <= 2 avg_Q |h|.  A window Q of
        # half-widths (mt, mx) that holds a point lies in the window of
        # half-widths (2mt, 2mx) centred on it, which has (4mt + 1)/(2mt + 1)
        # < 2 times the rows and (4mx + 1)/(2mx + 1) < 2 times the cells of a
        # row, so avg_Q |h| < 2^(1+d) times its average; that average is at
        # most M_t M_x |h| (past the period, a wrapped space window averages
        # whole periods and one centred window).  Here d = 1
        g = _cells_grid(n=16, T=32)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(32, 16))
        sharp = sharp_parabolic(h, g, gamma=2.0)
        mx = maximal_values(
            maximal_values(np.abs(h), g, "space"), g, "time"
        )
        assert np.all(sharp <= 2 * 2**2 * mx + 1e-10)


class TestFiltration:
    def test_levels_and_cells(self):
        g = _cells_grid(n=16, L=1.0, T=64)
        levels = build_filtration_levels(g, gamma=2.0)
        finest = levels[-1]
        assert finest.time_side == pytest.approx(np.diff(g.t_grid)[0])
        assert finest.space_side == pytest.approx(g.dx)

    def test_parent_contains_child_random_points(self):
        # every level is anchored at the box corner and each side of a parent
        # is one or two sides of its children, so each child cube lies in
        # exactly one parent cube, with measure ratio at most 2^(1+d)
        g = _cells_grid(n=16, L=1.0, T=64)
        levels = build_filtration_levels(g, gamma=2.0)
        rng = np.random.default_rng(8)
        pts = np.stack([rng.uniform(0, 1, 500), rng.uniform(-1, 1, 500)], axis=1)
        origin = np.array([g.a, -g.half_length])  # the box corner
        for fine, coarse in zip(levels[1:], levels[:-1]):
            ratio = np.array([coarse.time_side / fine.time_side, coarse.space_side / fine.space_side])
            assert ratio[0] == 2.0 and ratio[1] in (1.0, 2.0)
            assert coarse.cube_measure(1) / fine.cube_measure(1) <= 2.0 ** (1 + 1)
            # the parent of each point's cube is the point's cube one level up
            child = np.floor((pts - origin) / [fine.time_side, fine.space_side])
            parent = np.floor((pts - origin) / [coarse.time_side, coarse.space_side])
            assert np.array_equal(np.floor(child / ratio), parent)

    def test_two_value_oracle(self):
        # h = alpha on one level-n cube, beta elsewhere: parent-level
        # oscillation is 2|alpha-beta| rho (1-rho), rho = child/parent ratio
        g = _cells_grid(n=16, L=1.0, T=64)
        levels = build_filtration_levels(g, gamma=2.0)
        # choose the level one step above cells with a time-only split
        fine = levels[-1]
        coarse = levels[-2]
        alpha, beta = 3.0, 1.0
        h = np.full((64, 16), beta)
        # first child cube of the first parent cube: cells [0:cpt, 0:cpx]
        dt = np.diff(g.t_grid)[0]
        cpt_f = int(fine.time_side / dt)
        cpx_f = int(fine.space_side / g.dx)
        h[:cpt_f, :cpx_f] = alpha
        sharp, _ = filtration_sharp(h, g, gamma=2.0)
        rho = fine.cube_measure(1) / coarse.cube_measure(1)
        expected = 2 * abs(alpha - beta) * rho * (1 - rho)
        # the point inside the alpha-cube sees at least the parent oscillation
        assert sharp[0, 0] >= expected - 1e-12

    def test_constant_zero_inside(self, monkeypatch):
        # no level coarser than the box, so no cube reaches past it
        monkeypatch.setattr(maximal_module, "_COARSE_LEVELS", 0)
        g = _cells_grid(n=16, L=1.0, T=64)
        h = np.full((64, 16), 2.0)
        sharp, levels = filtration_sharp(h, g, gamma=2.0)
        assert levels[0].time_side == 1.0
        # in-box levels see no oscillation for constants
        assert np.allclose(sharp, 0.0, atol=1e-13)

    def test_pointwise_domination_by_cube_sharp(self):
        g = _cells_grid(n=16, L=1.0, T=64)
        rng = np.random.default_rng(9)
        h = rng.normal(size=(64, 16))
        fsharp, levels = filtration_sharp(h, g, gamma=2.0)
        n1 = nested_n1(g, gamma=2.0)
        dt = np.diff(g.t_grid)[0]
        shapes = {maximal_module._window_halfwidths(containment_radius(lvl, g), 2.0, dt, g.dx) for lvl in levels}
        qsharp = _window_sharp(h, shapes)
        assert np.all(fsharp <= 2 * n1**2 * qsharp + 1e-10)

    def test_cells_that_do_not_close_the_filtration_rejected(self):
        # dt = 2^-5 and dx = 2^-6 at gamma = 1: the finest level would not
        # be one cell per cube
        g = _cells_grid(n=64, L=0.5, T=32)
        with pytest.raises(ValueError, match="do not close the filtration"):
            build_filtration_levels(g, gamma=1.0)

    def test_misaligned_grid_rejected(self):
        g = make_grid(1, 16, 1.0, np.linspace(0.0, 1.0, 10))  # dt not dyadic
        with pytest.raises(ValueError):
            build_filtration_levels(g, gamma=2.0)
