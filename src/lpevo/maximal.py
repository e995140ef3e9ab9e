"""Maximal functions, the sharp function over parabolic cubes, and the
nested space-time dyadic filtration.

Conventions shared by every operator here:

- fields are cell samples; a node owns the cell around it (half-open), so
  sups over radii reduce to the finite set of windows that differ in the
  cells they hold.  An interval's average is monotone in the radius
  between the radii where its edges cross cell edges, and a d = 2 ball
  holds the cells whose centres lie inside, which change where r^2 passes
  a squared cell offset.  The maximal function takes every such window,
  in d = 1 and d = 2 alike, so it is the exact supremum over all radii of
  the periodized (space) or zero-extended (time) averages.
- space extends periodically (radii capped at the box half-period, where
  the window covers the whole circle); time extends by zero, matching
  compactly supported test functions on the real line.
- parabolic cubes are (t-R, t+R) x B(R^(1/gamma))(x); on the lattice a cube
  is the set of cells whose centers fall inside, so each ladder radius
  yields an integer window shape.

The sharp function's algorithm is described in :func:`sharp_parabolic`.

The filtration uses the nested variant of the anisotropic dyadic partition:
level n has time side 2^-n and space side 2^-floor(n/gamma), so each cube
sits inside exactly one parent cube with measure ratio at most 2^(1+d).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from lpevo.grid import SpectralGrid

# floats in one gathered block of sharp_parabolic: (class, row) pairs x
# points of the lattice wrapped once; larger blocks buy little speed on two
# cores and raise the peak memory of an estimate
_CHUNK_ENTRIES = 2**16
# moves one base-weight lookup costs (a binary search in a sorted row, then
# k mu + S_k): about 30 at d = 1, n = 64 and 15-20 at d = 2, n = 16 on two
# cores, where a move reads one cell per point; a shape takes the base
# weight only when it removes more moves than this
_LOOKUP_MOVES = 32
# window ends (rows x ends per row) in one block of the graded time maximal,
# which holds two such blocks of floats
_GRADED_ENDS = 2**14
# filtration levels above level 0, so the coarsest cubes have time side 2^3
_COARSE_LEVELS = 3

__all__ = [
    "FiltrationLevel",
    "maximal_values",
    "sharp_parabolic",
    "filtration_sharp",
    "build_filtration_levels",
    "containment_radius",
    "nested_n1",
    "default_radius_ladder",
]


# -- exact maximal averages ----------------------------------------------------

def _uniform_steps(dt: np.ndarray) -> bool:
    """Whether all steps equal the first to a relative 1e-12; with no absolute
    tolerance, the verdict does not depend on the time unit."""
    return bool(np.allclose(dt, dt[0], rtol=1e-12, atol=0.0))


def _window_sup(values: np.ndarray, reach: tuple[int, ...], mode: str) -> np.ndarray:
    """Sup over nested cell windows of the averages of nonnegative cell
    values, along the trailing len(reach) axes of ``values``.

    The trailing axes are padded once by np.pad ``mode``: "wrap" (periodic)
    takes the offsets -r..n-1-r per axis, every residue once, and
    "constant" (zero extension) the offsets -r..r.  The slices of the
    offsets k are added into one running sum in order of |k|^2, and at each
    break of |k|^2 the sum over the offsets so far, divided by their count,
    is one window average: the cells whose centres lie within a radius of
    the centre cell.  With r = n/2 under "wrap", the largest window is the
    whole period.
    """
    lead = values.ndim - len(reach)
    shape = values.shape[lead:]
    spans = [range(-r, n - r if mode == "wrap" else r + 1) for r, n in zip(reach, shape)]
    pad = [(r, span[-1]) for r, span in zip(reach, spans)]
    padded = np.pad(values, [(0, 0)] * lead + pad, mode=mode)
    offsets = sorted(itertools.product(*spans), key=lambda k: sum(c * c for c in k))
    dist = [sum(c * c for c in k) for k in offsets] + [-1]
    total = np.zeros_like(values)
    best = np.zeros_like(values)
    for count, k in enumerate(offsets, start=1):
        total += padded[(...,) + tuple(slice(r + c, r + c + n) for r, c, n in zip(reach, k, shape))]
        if dist[count] != dist[count - 1]:
            np.maximum(best, total / count, out=best)
    return best


def _graded_maximal_time(batch: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Zero-extension maximal along the last axis for nonuniform cells.

    Every cell edge is a radius of every centre, and a window's mass is the
    difference of the prefix sums, interpolated linearly at its two ends as
    np.interp does.  The ends are the same for every row, so their cells
    and offsets are found once and apply to the prefix sums of all rows in
    one array expression, in blocks of at most _GRADED_ENDS window ends.
    """
    n = batch.shape[-1]
    widths = np.diff(edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    # candidate radii per center: every cell edge
    radii = np.abs(edges[None, :] - centers[:, None])
    reach = np.stack([centers[:, None] + radii, centers[:, None] - radii])
    # np.interp's rule: the cell edges[j] <= x < edges[j+1], the first prefix
    # sum below the first edge and the last one from the last edge on
    cell = np.searchsorted(edges, reach, side="right") - 1
    inside = (cell >= 0) & (cell < n)
    cell = np.clip(cell, 0, n)
    offset = np.where(inside, reach - edges[np.minimum(cell, n - 1)], 0.0)
    twice = 2.0 * radii
    flat = batch.reshape(-1, n)
    out = np.empty_like(flat)
    step = max(1, _GRADED_ENDS // reach.size)
    ends, spare = np.empty((2, step) + reach.shape)
    for lo in range(0, flat.shape[0], step):
        rows = flat[lo : lo + step]
        prefix = np.zeros((rows.shape[0], n + 1))
        np.cumsum(rows * widths, axis=1, out=prefix[:, 1:])
        # slope past the last edge: 0, where the offset is 0 too
        slope = np.zeros_like(prefix)
        np.divide(np.diff(prefix, axis=1), widths, out=slope[:, :-1])
        # prefix sums at the window ends, then each window's mass over 2r
        mass = np.take(slope, cell, axis=1, out=ends[: rows.shape[0]])
        mass *= offset
        mass += np.take(prefix, cell, axis=1, out=spare[: rows.shape[0]])
        ratio = np.subtract(mass[:, 0], mass[:, 1], out=spare[: rows.shape[0], 0])
        ratio /= twice
        out[lo : lo + step] = ratio.max(axis=-1)
    return out.reshape(batch.shape)


def _real(values: np.ndarray) -> np.ndarray:
    """``values`` as floats; complex input raises, since a cast would drop
    its imaginary part with only a warning."""
    if np.iscomplexobj(values):
        raise ValueError("values must be real, got a complex array")
    return np.asarray(values, dtype=float)


def maximal_values(values: np.ndarray, grid: SpectralGrid, axis: str) -> np.ndarray:
    """Pointwise supremum over radii of window averages of finite,
    nonnegative real cell values, along space (periodic) or time (zero
    extension, time axis leading).

    Both are exact: in space, in d = 1 and d = 2 alike, every distinct
    cell-inclusion ball up to the whole period; in time, every radius.
    In space leading axes batch; in time axis 0 holds the time nodes.
    Time steps equal to a relative 1e-12 take the running-sum rule of
    space, any other grid the graded one, whatever the time unit."""
    values = _real(values)
    if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
        raise ValueError("maximal_values expects finite nonnegative values")
    if axis == "space":
        if values.shape[-grid.d :] != grid.spatial_shape():
            raise ValueError(f"trailing axes of {values.shape} are not the lattice {grid.spatial_shape()}")
        return _window_sup(values, (grid.n // 2,) * grid.d, "wrap")
    if axis == "time":
        t = grid.t_grid
        if values.shape[:1] != t.shape:
            raise ValueError(f"axis 0 of {values.shape} does not match the {len(t)} time nodes")
        dt = np.diff(t)
        moved = np.moveaxis(values, 0, -1)
        if _uniform_steps(dt):
            out = _window_sup(moved, (len(t) - 1,), "constant")
        else:
            edges = np.concatenate([[t[0] - dt[0] / 2], (t[:-1] + t[1:]) / 2, [t[-1] + dt[-1] / 2]])
            out = _graded_maximal_time(moved, edges)
        return np.moveaxis(out, -1, 0)
    raise ValueError(f"axis must be 'space' or 'time', got {axis!r}")


# -- parabolic sharp function -------------------------------------------------

def _space_time_values(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """``values`` as floats, if they are a finite real scalar space-time
    array on ``grid``."""
    values = _real(values)
    if values.shape != (len(grid.t_grid),) + grid.spatial_shape() or not np.all(np.isfinite(values)):
        raise ValueError("values must be a finite scalar space-time array on the grid")
    return values


def _check_gamma(gamma: float) -> None:
    """The parabolic scaling exponent gamma must be finite and positive."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")


def _uniform_dt(grid: SpectralGrid) -> float:
    dt = np.diff(grid.t_grid)
    if not _uniform_steps(dt):
        raise ValueError("sharp/filtration operators require uniform time cells")
    return float(dt[0])


def default_radius_ladder(grid: SpectralGrid, gamma: float) -> np.ndarray:
    """Geometric ladder of cube radii from one-cell cubes up to the box."""
    _check_gamma(gamma)
    dt = _uniform_dt(grid)
    r_lo = 0.5 * min(dt, grid.dx**gamma)
    span = grid.b - grid.a
    r_hi = max(span, (2 * grid.half_length) ** gamma)
    count = max(2, int(np.ceil(np.log(r_hi / r_lo) / np.log(2.0 ** 0.5))) + 1)
    return r_lo * (2.0 ** 0.5) ** np.arange(count)


def _window_halfwidths(radius: float, gamma: float, dt: float, dx: float) -> tuple[int, int]:
    # cells whose center lies strictly within the open window
    mt = max(int(np.ceil(radius / dt - 1e-12)) - 1, 0)
    mx = max(int(np.ceil(radius ** (1.0 / gamma) / dx - 1e-12)) - 1, 0)
    return mt, mx


def _time_classes(T: int, mt: int, ext: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-box row intervals of the windows centered at rows -ext..T-1+ext.

    Returns the distinct intervals as (first row, row count) and, for each
    center, the index of its interval.
    """
    centers = np.arange(-ext, T + ext)
    lo = np.maximum(centers - mt, 0)
    hi = np.minimum(centers + mt, T - 1)
    keys, of_center = np.unique(lo * T + hi, return_inverse=True)
    lo, hi = np.divmod(keys, T)
    return lo, hi - lo + 1, of_center


def _pair_chunks(lo: np.ndarray, count: np.ndarray, step: int):
    """The (class, in-box row) pairs of the time classes, in chunks of at
    most ``step`` pairs.

    Yields each chunk's rows, the class of each pair and the starts of the
    class segments (for ``np.add.reduceat``).  A class cut by a chunk edge
    gives one segment in each chunk.
    """
    cls = np.repeat(np.arange(count.size), count)
    rows = lo[cls] + np.arange(cls.size) - (np.cumsum(count) - count)[cls]
    for a in range(0, cls.size, step):
        part = cls[a : a + step]
        yield rows[a : a + step], part, np.flatnonzero(np.diff(part, prepend=-1))


def _sliding_max(a: np.ndarray, half: int, axis: int) -> np.ndarray:
    """Max over the windows a[i..i+2*half] along ``axis``, which comes out
    2*half entries shorter; windows of doubling width take log passes."""
    a = np.moveaxis(a, axis, 0)
    width, span = 2 * half + 1, 1
    while 2 * span <= width:
        a = np.maximum(a[:-span], a[span:])
        span *= 2
    # two windows of `span` entries cover one of `width`
    return np.moveaxis(np.maximum(a[: a.shape[0] - (width - span)], a[width - span :]), 0, axis)


def _row_max_sum(ordered: np.ndarray, suffix: np.ndarray, mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    """F(mu) = sum_y max(v_y, mu) at every entry of ``mu``, for a row v
    sorted into ``ordered`` with its suffix sums S_k = ordered[k:].sum():
    F(mu) = k mu + S_k, k the entries <= mu.  Overwrites ``mu``; the result
    goes to ``out``."""
    k = np.searchsorted(ordered, mu, side="right")
    np.take(suffix, k, out=out)
    mu *= k
    out += mu
    return out


@dataclass(frozen=True)
class _ShapePlan:
    """The work of one window shape (see ``_shape_plan``)."""

    mt: int
    mx: int
    lo: np.ndarray  # first in-box row of each time class
    count: np.ndarray  # in-box rows of each time class
    of_center: np.ndarray  # time class of each center
    shifts: np.ndarray  # distinct space shifts mod n
    mult: np.ndarray  # how many of -mx..mx land on each shift
    base: int  # the base weight c, taken from every residue by one lookup per (pair, point)
    moves: list[tuple[int, list[tuple[slice, ...]]]]  # (weight - base, moves), heaviest first
    lattice: int  # points of the lattice wrapped once
    step: int  # pairs per chunk


def _shape_plan(T: int, n: int, d: int, mt: int, mx: int, offsets: bool) -> _ShapePlan:
    """The time classes, space shifts and moves of one window shape, and the
    pairs a chunk of at most _CHUNK_ENTRIES floats holds.

    Every residue s of the n^d lattice has a weight: the product over axes
    of how many of -mx..mx land on it, 0 off the window.  The base weight is
    the commonest weight, taken only when it removes more than
    _LOOKUP_MOVES moves (else 0); every residue whose weight differs from it
    is a move, the slices of the cells s..s+n-1 of the lattice wrapped once,
    carrying the residual weight.  The moves are grouped by residual weight,
    which may be negative.
    """
    # centers whose window can reach an in-box point sit up to mt rows
    # outside the box once offsets move the windows
    lo, count, of_center = _time_classes(T, mt, mt if offsets else 0)
    shifts, mult = np.unique(np.arange(-mx, mx + 1) % n, return_counts=True)
    axis_weight = np.zeros(n, dtype=int)
    axis_weight[shifts] = mult
    weight = functools.reduce(np.multiply.outer, [axis_weight] * d)
    kinds, counts = np.unique(weight, return_counts=True)
    base = int(kinds[np.argmax(counts)])  # the lighter of equally common weights
    if np.count_nonzero(weight) - np.count_nonzero(weight != base) <= _LOOKUP_MOVES:
        base = 0
    moved = weight != base
    cuts = [slice(s, s + n) for s in range(n)]
    groups: dict[int, list[tuple[slice, ...]]] = {}
    # residues in C order: with no base weight, the shifts' product order
    for s, w in zip(np.argwhere(moved).tolist(), weight[moved].tolist()):
        groups.setdefault(w - base, []).append(tuple(cuts[c] for c in s))
    lattice = (n + int(shifts[-1])) ** d
    step = min(max(1, _CHUNK_ENTRIES // lattice), int(count.sum()))
    moves = sorted(groups.items(), key=lambda group: -group[0])
    return _ShapePlan(mt, mx, lo, count, of_center, shifts, mult, base, moves, lattice, step)


def sharp_parabolic(
    values: np.ndarray,
    grid: SpectralGrid,
    gamma: float,
    ladder: np.ndarray | None = None,
    offsets: bool = True,
) -> np.ndarray:
    """Mean-oscillation supremum over parabolic cubes containing each point.

    ``values`` is a real scalar space-time array (time leading).  Cubes are
    the lattice windows of the radius ladder, a non-empty 1-d array of
    finite radii > 0 (the default ladder if None); with ``offsets`` the
    supremum also ranges over every window position containing the point
    (via a maximum filter), matching the definition's arbitrary cube
    centers.
    Time extends by zero outside the box; space wraps periodically.

    The oscillation is exact, not sampled.  Per window shape it is reduced
    to the distinct work:

    - centers whose windows cover the same in-box rows share the mean and
      the oscillation, so each such time class is computed once; its zero
      rows outside the box add (out-of-box cells) x |mean| in closed form;
    - the space shifts fold onto at most n distinct periodic shifts per
      axis, each weighted by how often it occurs; a move is one shift per
      axis, and the moves are grouped by weight;
    - where most residues of the lattice share one weight c (a window
      that covers the period), c goes to one lookup per (pair, point) in
      the sorted centred row, and the moves carry w - c on the others,
      which may be negative; a shape takes c only where that removes more
      than _LOOKUP_MOVES moves, the measured cost of one lookup.

    Over in-box cells v of total weight W and a mean mu, sum |v - mu| =
    2 sum max(v, mu) - sum v - W mu, so a move costs one max and one add per
    cell, and sum v is a window sum.  Every in-box row r is centred on its
    spatial mean c_r first: v' = v - c_r and mu' = mu - c_r keep the terms
    of the identity on the scale of the oscillation rather than of the
    values, so an offset added to the field costs no more digits than it
    does in the mean.  The window sums of v and v' come from one periodic
    roll-sum.  The weight groups are nested (Horner), so each costs one
    multiply, not one per move.

    The base weight's sum is c F_r(mu'), with F_r(mu) the sum of max(v', mu)
    over the whole centred row r.  Each row is sorted once per call and
    keeps its suffix sums, so F_r(mu') = k mu' + S_k, with k the entries
    <= mu' found by one binary search and S_k the sum of the n^d - k
    largest.  It is taken on the same centred row and mu' as the moves, so
    its terms keep their scale.  The lookup and the residual moves together
    carry the weight c n^d + sum |w - c|, between 1.0 and 1.31 times W on
    the default ladders of the benchmark grids, so the rounding stays that
    of a sum over the window, however the weight is split.

    Window sums add cells directly, so a one-cell window returns the cell
    value exactly.  The (class, in-box row) pairs are gathered in chunks:
    a chunk's rows are taken along time from a time-first copy of the
    centred lattice wrapped once, then transposed once into a C-ordered
    (space..., pair) block, and mu' per pair is laid out alike, so each move
    reads one slab that numpy runs as a single inner loop.  A block holds
    at most _CHUNK_ENTRIES floats (one pair if a lattice alone is larger);
    it, its gather buffer and two pair buffers are allocated once per call,
    however large the window.
    """
    _check_gamma(gamma)
    values = _space_time_values(values, grid)
    dt = _uniform_dt(grid)
    if ladder is None:
        ladder = default_radius_ladder(grid, gamma)
    ladder = _real(ladder)
    if ladder.ndim != 1 or not ladder.size or not np.all((0 < ladder) & (ladder < np.inf)):
        raise ValueError(f"ladder must be a non-empty 1-d array of finite radii > 0, got {ladder!r}")

    T = values.shape[0]
    d, n = grid.d, grid.n
    spatial = grid.spatial_shape()
    shapes = sorted({_window_halfwidths(r, gamma, dt, grid.dx) for r in ladder})
    plans = [_shape_plan(T, n, d, mt, mx, offsets) for mt, mx in shapes]
    # the output before the buffers: a long-lived array allocated after
    # them takes the space they free, and the next call's buffers then grow
    # the heap
    sharp = np.zeros_like(values)
    block_buf = np.empty(max(p.step * p.lattice for p in plans))
    gather_buf = np.empty_like(block_buf)
    mu_buf = np.empty(max(p.step for p in plans) * n**d)
    acc_buf = np.empty_like(mu_buf)

    ref = values.mean(axis=tuple(range(1, d + 1)))  # c_r of every in-box row
    centred = values - ref.reshape((T,) + (1,) * d)
    both = np.stack([values, centred])
    # each centred row sorted, with its suffix sums, for _row_max_sum
    ordered = np.sort(centred.reshape(T, -1), axis=1)
    suffix = np.zeros((T, n**d + 1))
    np.cumsum(ordered[:, ::-1], axis=1, out=suffix[:, -2::-1])
    for p in plans:
        mt, mx, count = p.mt, p.mx, p.count
        side = (2 * mx + 1) ** d
        cells = (2 * mt + 1) * side
        chunks = list(_pair_chunks(p.lo, count, p.step))
        # window sums of v and v' over the weighted periodic shifts; a window
        # longer than the period counts cells more than once
        window = both
        for ax in range(2, d + 2):
            window = sum(k * np.roll(window, -s, axis=ax) for s, k in zip(p.shifts, p.mult))
        sums = np.zeros((2, count.size) + spatial)
        for rows, cls, seg in chunks:
            gathered = gather_buf[: rows.size * n**d].reshape((rows.size,) + spatial)
            # indexed, not bound to loop names, so no view outlives the shape
            for k in range(2):
                np.take(window[k], rows, axis=0, out=gathered, mode="clip")
                sums[k, cls[seg]] += np.add.reduceat(gathered, seg, axis=0)
        mu = sums[0] / cells

        wrapped = np.pad(centred, [(0, 0)] + [(0, int(p.shifts[-1]))] * d, mode="wrap")
        max_sum = np.zeros((count.size,) + spatial)
        lightest = p.moves[-1][0]
        for rows, cls, seg in chunks:
            pairs = rows.size
            gathered = gather_buf[: pairs * wrapped[0].size].reshape((pairs,) + wrapped.shape[1:])
            np.take(wrapped, rows, axis=0, out=gathered, mode="clip")
            block = block_buf[: gathered.size].reshape(wrapped.shape[1:] + (pairs,))
            np.copyto(block, np.moveaxis(gathered, 0, -1))
            # mu' of every pair, laid out like the block
            gathered = gather_buf[: pairs * n**d].reshape((pairs,) + spatial)
            np.take(mu, cls, axis=0, out=gathered, mode="clip")
            mu_pairs = mu_buf[: gathered.size].reshape(spatial + (pairs,))
            np.subtract(np.moveaxis(gathered, 0, -1), ref[rows], out=mu_pairs)
            tmp = gather_buf[: mu_pairs.size].reshape(mu_pairs.shape)
            acc = acc_buf[: mu_pairs.size].reshape(mu_pairs.shape)
            # sum over moves of weight x max(v', mu'): acc holds the sum over
            # the groups so far in units of the last group's weight
            acc.fill(0.0)
            unit = p.moves[0][0]
            for weight, cuts in p.moves:
                if weight != unit:
                    acc *= unit / weight
                unit = weight
                for cut in cuts:
                    np.maximum(block[cut], mu_pairs, out=tmp)
                    acc += tmp
            # less W mu' / 2 per row (W = side) in the same unit, which is
            # now the lightest weight; the class sums are scaled back below
            np.multiply(mu_pairs, side / (2.0 * lightest), out=tmp)
            acc -= tmp
            max_sum[cls[seg]] += np.moveaxis(np.add.reduceat(acc, seg, axis=-1), -1, 0)
        if p.base:
            # base x F_r(mu') over the classes holding each in-box row r, up
            # to a chunk's pairs at a time, in the pair buffers
            scale = p.base / lightest
            for r in range(T):
                held = np.flatnonzero((p.lo <= r) & (r < p.lo + count))
                for a in range(0, held.size, p.step):
                    part = held[a : a + p.step]
                    mu_r = mu_buf[: part.size * n**d].reshape((part.size,) + spatial)
                    np.subtract(np.take(mu, part, axis=0, out=mu_r), ref[r], out=mu_r)
                    f_r = _row_max_sum(ordered[r], suffix[r], mu_r, acc_buf[: mu_r.size].reshape(mu_r.shape))
                    f_r *= scale
                    max_sum[part] += f_r
        out_rows = ((2 * mt + 1 - count) * side).reshape((-1,) + (1,) * d)
        osc = (2.0 * lightest * max_sum - sums[1] + out_rows * np.abs(mu)) / cells
        osc = osc[p.of_center]
        if offsets:
            # sup over the window positions containing each point: the
            # centers of in-box rows are all computed, and space wraps
            osc = _sliding_max(osc, mt, 0)
            for ax in range(1, d + 1):
                pad = [(0, 0)] * (d + 1)
                pad[ax] = (mx, mx)
                osc = _sliding_max(np.pad(osc, pad, mode="wrap"), mx, ax)
        np.maximum(sharp, osc, out=sharp)
        # this shape's arrays go before the next shape allocates its own, so
        # the transient peak is one shape's, not the sum of two
        del chunks, window, sums, mu, wrapped, max_sum, osc
    return sharp


# -- nested anisotropic dyadic filtration ------------------------------------

@dataclass(frozen=True)
class FiltrationLevel:
    """Level n of the nested filtration: time side 2^-n, space side
    2^-floor(n/gamma), anchored at the box corner."""

    n: int
    gamma: float
    time_side: float
    space_side: float

    def __post_init__(self):
        _check_gamma(self.gamma)

    def cube_measure(self, d: int) -> float:
        return self.time_side * self.space_side**d


def _cells_per_side(level: FiltrationLevel, dt: float, dx: float) -> tuple[int, int]:
    """The cells along a time side and along a space side of a level's cubes."""
    return int(round(level.time_side / dt)), int(round(level.space_side / dx))


def _dyadic_exponent(value: float, name: str) -> int:
    e = round(math.log2(value))
    if not np.isclose(value, 2.0**e, rtol=1e-9):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return int(e)


def build_filtration_levels(grid: SpectralGrid, gamma: float) -> list[FiltrationLevel]:
    """Levels n = -_COARSE_LEVELS, ..., log2(1/dt): from cubes coarser than
    the box down to single cells.

    Requires dyadic cell sides (dt = 2^-a, dx = 2^-b with b = floor(a/gamma))
    so the finest level is exactly one cell per cube.
    """
    _check_gamma(gamma)
    dt = _uniform_dt(grid)
    a_exp = _dyadic_exponent(1.0 / dt, "1/dt")
    b_exp = _dyadic_exponent(1.0 / grid.dx, "1/dx")
    if math.floor(a_exp / gamma) != b_exp:
        raise ValueError(
            "grid cells do not close the filtration: need floor(log2(1/dt)/gamma) "
            f"== log2(1/dx), got {a_exp}/{gamma} vs {b_exp}"
        )
    levels = []
    for n in range(-_COARSE_LEVELS, a_exp + 1):
        levels.append(
            FiltrationLevel(
                n=n,
                gamma=gamma,
                time_side=2.0**-n,
                space_side=2.0 ** -math.floor(n / gamma),
            )
        )
    return levels


def filtration_sharp(
    values: np.ndarray, grid: SpectralGrid, gamma: float
) -> tuple[np.ndarray, list[FiltrationLevel]]:
    """Sharp function over the nested filtration: sup over levels of the mean
    oscillation on the unique cube containing each cell (zero extension for
    the cube volume outside the box)."""
    values = _space_time_values(values, grid)
    dt = _uniform_dt(grid)
    levels = build_filtration_levels(grid, gamma)
    cell_meas = dt * grid.dx**grid.d
    d = grid.d
    sharp = np.zeros_like(values)
    it_cells = np.arange(values.shape[0])
    ix_cells = np.arange(grid.n)
    for level in levels:
        cpt, cpx = _cells_per_side(level, dt, grid.dx)
        ti = it_cells // cpt
        xi = ix_cells // cpx
        # the flat index of each cell's cube on the (time, space...) cube grid
        flat = np.ravel_multi_index(np.ix_(ti, *[xi] * d), (ti[-1] + 1,) + (xi[-1] + 1,) * d).ravel()
        counts = np.bincount(flat)
        sums = np.bincount(flat, weights=values.ravel())
        cube_meas = level.cube_measure(d)
        mu = sums * cell_meas / cube_meas
        dev = np.abs(values.ravel() - mu[flat])
        osc_in = np.bincount(flat, weights=dev) * cell_meas
        outside = cube_meas - counts * cell_meas
        osc = (osc_in + outside * np.abs(mu)) / cube_meas
        sharp = np.maximum(sharp, osc[flat].reshape(values.shape))
    return sharp, levels


def nested_n1(grid: SpectralGrid, gamma: float) -> float:
    """Measure ratio |Q(R0)|/|P| of the smallest ladder cube containing a
    filtration cube, maximized over levels (the implemented analogue of the
    containment constant)."""
    dt = _uniform_dt(grid)
    best = 0.0
    for level in build_filtration_levels(grid, gamma):
        cpt, cpx = _cells_per_side(level, dt, grid.dx)
        r0 = containment_radius(level, grid)
        mt, mx = _window_halfwidths(r0, gamma, dt, grid.dx)
        if mt < cpt - 1 or mx < cpx - 1:
            raise AssertionError("containment radius failed to cover the cube")
        q_meas = (2 * mt + 1) * dt * ((2 * mx + 1) * grid.dx) ** grid.d
        best = max(best, q_meas / level.cube_measure(grid.d))
    return best


def containment_radius(level: FiltrationLevel, grid: SpectralGrid) -> float:
    """Smallest parabolic-cube radius whose lattice window contains the
    level cube from any of the cube's own cells."""
    dt = _uniform_dt(grid)
    cpt, cpx = _cells_per_side(level, dt, grid.dx)
    r_time = (cpt - 1) * dt if cpt > 1 else 0.0
    r_space = ((cpx - 1) * grid.dx) ** level.gamma if cpx > 1 else 0.0
    base = max(r_time, r_space, 0.25 * min(dt, grid.dx**level.gamma))
    return base * (1 + 1e-9)
