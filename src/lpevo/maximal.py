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
Its window sums and maxima reduce runs of N cells in about log2 N passes
of dyadic blocks.  Its shapes run widest first, and each later shape sums
only the windows whose oscillation can raise the sup so far: Cauchy-Schwarz bounds the L^1
oscillation by the L^2 one, which window sums of v and v^2 give, and a
slack derived from the rounding of both sums makes the bound hold for the
computed values.  A skipped window is one whose oscillation the sup would
not have taken, so the result is bit-identical to summing every window.

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

from lpevo.grid import SpectralGrid, real_array

# (class, row) pairs x points of the lattice wrapped once, in one chunk of
# sharp_parabolic: a bound on the floats of its gathered block; larger
# blocks buy little speed on two cores and raise the peak memory of an
# estimate
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


def maximal_values(values: np.ndarray, grid: SpectralGrid, axis: str) -> np.ndarray:
    """Pointwise supremum over radii of window averages of finite,
    nonnegative real cell values, along space (periodic) or time (zero
    extension, time axis leading).

    Both are exact: in space, in d = 1 and d = 2 alike, every distinct
    cell-inclusion ball up to the whole period; in time, every radius.
    In space leading axes batch; in time axis 0 holds the time nodes.
    Time steps equal to a relative 1e-12 take the running-sum rule of
    space, any other grid the graded one, whatever the time unit."""
    values = real_array(values, "values")
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
    values = real_array(values, "values")
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


def _default_radius_ladder(grid: SpectralGrid, gamma: float) -> np.ndarray:
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


def _runs(a: np.ndarray, axis: int, op, length, first=None) -> np.ndarray:
    """``op`` (np.add or np.maximum) over runs of consecutive cells of
    ``a`` along ``axis``.

    Without ``first`` the axis is periodic, and cell i of the output holds
    the run of ``length`` cells from i - length // 2 on, mod the period, so
    a run past the period holds cells more than once.  With ``first``, cell
    k of the output holds the run first[k] .. first[k] + length[k] - 1
    inside the axis: the in-box cells of a zero-extended window, the only
    ones a sum or a maximum needs.

    Level j of the table holds ``op`` over the 2^j cells from each cell on.
    Each run whose length has bit j takes its next block from it, then two
    shifted slices build level j + 1 in a second buffer.  A maximum is exact
    in any grouping, and a sum of N cells still rounds at most N - 1 times
    on each cell's path.
    """
    a = a.swapaxes(0, axis)
    cells, start = a.shape[0], -np.inf if op is np.maximum else 0.0
    if first is None:
        # the n + length - 1 cells the runs read, wrapped by np.take
        index = np.arange(cells + length - 1) - length // 2
        out = np.full(a.shape, start)
    else:
        index = np.arange(cells)
        out = np.full(np.shape(first) + a.shape[1:], start)
    # the cells copied by index, C-ordered so that each level's slices are
    # contiguous, then a cell of op's identity for the runs a level skips
    size, top, span = index.size, int(np.max(length)), 1
    table, spare = np.empty((2, size + 1) + a.shape[1:])
    np.take(a, index, axis=0, out=table[:size], mode="wrap")
    table[size] = spare[size] = start
    while True:
        done = length & (span - 1)  # the cells each run has taken
        if first is None and length & span:
            op(out, table[done : done + cells], out=out)
        elif first is not None:
            op(out, table[np.where(length & span, first + done, size)], out=out)
        if 2 * span > top:
            return out.swapaxes(0, axis)
        rows = size - 2 * span + 1
        op(table[:rows], table[span : span + rows], out=spare[:rows])
        table, spare = spare, table
        span *= 2


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
    """The work of one window shape (see ``_shape_plan``); cached, so read-only."""

    mt: int
    mx: int
    lo: np.ndarray  # first in-box row of each time class
    count: np.ndarray  # in-box rows of each time class
    held_lo: np.ndarray  # first time class holding each in-box row
    held_count: np.ndarray  # time classes holding each in-box row, a run from held_lo
    base: int  # the base weight c, taken from every residue by one lookup per (pair, point)
    moves: tuple[tuple[int, tuple[tuple[slice, ...], ...]], ...]  # (weight - base, moves), heaviest first
    extent: int  # cells the moves read on each axis: n + the largest residue of a move
    step: int  # pairs per chunk


@functools.cache
def _shape_plan(T: int, n: int, d: int, mt: int, mx: int) -> _ShapePlan:
    """The time classes, moves and pairs per chunk of one window shape, a
    chunk of at most _CHUNK_ENTRIES floats; built once per grid and shape.

    Every residue s of the n^d lattice has a weight: the product over axes
    of how many of -mx..mx land on it, 0 off the window.  The base weight is
    the commonest weight, taken only when it removes more than
    _LOOKUP_MOVES moves (else 0); every residue whose weight differs from it
    is a move, the slices of the cells s..s+n-1 of the lattice wrapped once,
    carrying the residual weight.  The moves are grouped by residual weight,
    which may be negative.  A chunk holds _CHUNK_ENTRIES // (n + the largest
    shift)^d pairs, whatever cells its moves read.
    """
    # the time classes: the distinct in-box row intervals, as (first row,
    # row count), of the windows of centers up to mt rows outside the box.
    # Both ends of a window rise with its center, so the classes holding a
    # row r run from the first ending at or past r to the last starting at
    # or before it
    centers = np.arange(-mt, T + mt)
    first, last = np.maximum(centers - mt, 0), np.minimum(centers + mt, T - 1)
    lo, last = np.divmod(np.unique(first * T + last), T)
    count = last - lo + 1
    held_lo = np.searchsorted(last, np.arange(T))
    held_count = np.searchsorted(lo, np.arange(T), "right") - held_lo
    shifts, mult = np.unique(np.arange(-mx, mx + 1) % n, return_counts=True)
    axis_weight = np.zeros(n, dtype=int)
    axis_weight[shifts] = mult
    weight = functools.reduce(np.multiply.outer, [axis_weight] * d)
    kinds, counts = np.unique(weight, return_counts=True)
    base = int(kinds[np.argmax(counts)])  # the lighter of equally common weights
    if np.count_nonzero(weight) - np.count_nonzero(weight != base) <= _LOOKUP_MOVES:
        base = 0
    cuts = [slice(s, s + n) for s in range(n)]
    # each weight's residues in C order: with no base weight, the shifts'
    # product order
    moves = tuple(
        (w - base, tuple(tuple(cuts[c] for c in s) for s in np.argwhere(weight == w).tolist()))
        for w in kinds[::-1].tolist()
        if w != base
    )
    extent = n + int(np.argwhere(weight != base).max())
    step = min(max(1, _CHUNK_ENTRIES // (n + int(shifts[-1])) ** d), int(count.sum()))
    for a in (lo, count, held_lo, held_count):
        a.flags.writeable = False
    return _ShapePlan(mt, mx, lo, count, held_lo, held_count, base, moves, extent, step)


def sharp_parabolic(values: np.ndarray, grid: SpectralGrid, gamma: float) -> np.ndarray:
    """Mean-oscillation supremum over the parabolic cubes containing each
    point, at every position, as the definition's arbitrary centres ask.

    ``values`` is a finite real scalar space-time array (time leading) on
    uniform time cells.  The cubes are the lattice windows, mt time and mx
    space cells on either side of a centre, of a sqrt(2) ladder of radii
    from one-cell cubes up to the box.  Time extends by zero outside the
    box; space wraps periodically.  A maximum filter takes each shape's
    oscillation over the window positions holding each point.

    The oscillation is exact, not sampled.  Per window shape it is reduced
    to the distinct work:

    - centers whose windows cover the same in-box rows share the mean and
      the oscillation, so each such time class is computed once; its zero
      rows outside the box add (out-of-box cells) x |mean| in closed form.
      Both ends of a window rise with its centre, so the classes holding
      an in-box row form one run;
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
    does in the mean.  Only v' is window-summed: along each space axis by
    a centred periodic run of 2 mx + 1 cells at every point, then along
    time by one run per class over its in-box rows, since the zero rows
    past the box add nothing.  The row means are summed by the same runs:
    mu = (sum_W v' + side sum_r c_r) / cells, with side the cells of a row.
    The weight groups are nested (Horner), so each costs one multiply, not
    one per move.

    The base weight's sum is c F_r(mu'), with F_r(mu) the sum of max(v', mu)
    over the whole centred row r.  Each row is sorted once per call and
    keeps its suffix sums, so F_r(mu') = k mu' + S_k, with k the entries
    <= mu' found by one binary search and S_k the sum of the n^d - k
    largest.  It is taken on the same centred row and mu' as the moves, so
    its terms keep their scale.  The lookup and the residual moves together
    carry the weight c n^d + sum |w - c|, between 1.0 and 1.31 times W on
    the default ladders of the benchmark grids, so the rounding stays that
    of a sum over the window, however the weight is split.

    Every window sum and maximum, the bound's least running sup and the
    sup over positions (in time, over the run of classes holding each row)
    included, is one primitive, ``_runs``: it reads a run of N cells as at
    most log2 N + 1 blocks of 2^j cells.  Plans are cached per grid and
    shape, and the one-cell window, of oscillation 0, is skipped.

    Each call wraps the centred lattice once on every space axis, to
    2 n - 1 cells, with time last.  A plan keeps the shape, not its pairs:
    each call cuts the (class, in-box row) pairs of all classes into chunks
    of _CHUNK_ENTRIES // (n + the largest shift)^d pairs, at least one, and
    sums a chunk's kept pairs at once.  One gather along time fills a
    chunk's C-ordered (space..., pair) block.  It takes only the cells the
    shape's moves read on each axis: n plus the largest residue of a move,
    which is n for a window that covers the period and leaves one residual
    move, at residue 0.  mu' per pair is laid out alike: one gather from the
    kept classes' means, which each shape lays out class last once, less
    the row means.  So each move reads one slab that numpy runs as a single
    inner loop.  A block holds at most _CHUNK_ENTRIES floats unless a
    lattice alone is larger; the block and three pair buffers are allocated
    once per call, however large the window.

    **Pruning.**  The shapes run widest first, and a later shape sums only
    the time classes that can raise the running sup.  Over a window of N
    cells, n_in in the box and out = N - n_in zero cells past it (cells
    counted as the window sums weight them), let L(a) = (sum_in |v - a| +
    out |a|) / N and E(a) = sum_in (v - a)^2 + out a^2.  Cauchy-Schwarz
    gives L(mu) <= (E(mu) / N)^(1/2) at the computed mean mu.  E comes from
    window sums of u = (v - level) / m, with level the field's mean and m =
    max(max |v - level|, |level|), summed beside v' by the same runs:
    with nu = (mu - level) / m, S_u = sum_in u (the sum of v' plus side
    times the sum of (c_r - level) / m) and Q_u = sum_in u^2,

        E(mu) / m^2 = Q_u - 2 nu S_u + n_in nu^2 + out (mu / m)^2.

    In units of m no square overflows, and an offset added to the field
    does not enter the terms of Q_u or S_u.

    The slack covers the rounding of both computations.  Every sum that
    either makes (window sums, moves, suffix sums of the sorted rows, the
    chunks' and the rows' accumulations) adds at most K = 2 (n^d + 2 T) +
    (2 mt + 1) + d (2 mx + 1) terms, so to first order it errs by at most
    K eps times the sum of its terms' magnitudes: in any grouping, such as
    the runs' dyadic blocks, a sum of N terms rounds at most N - 1 times on
    each term's path (N. J. Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 4).  Set r = max |v - level|
    / m and h = |level| / m.  In units of m, |v'| <= 2 r, |mu'| <= r + |nu|,
    |nu| <= nu_max = r + h out / N + s (r + h) and |mu| <= mu_max = (r + h)
    (1 + s), where the s terms take the rounding of mu and of the row
    means, with s = 8 K eps: a factor 2 for the doubled sum of the
    identity, 2 for second-order terms and 2 to spare.  The L^1
    computation's terms carry the plan's weight C = c n^d + sum |w - c| per
    in-box row (c the base weight here), so the computed oscillation is
    within m d_1 of L(mu), and the computed E(mu) / m^2 within d_2 of the
    exact one:

        d_1 = s (C count (3 r + nu_max) + out mu_max) / N,
        d_2 = s (n_in (r + nu_max)^2 + out mu_max^2).

    So B = m ((E(mu) / m^2 + d_2) / N)^(1/2) + m d_1 bounds the computed
    oscillation; d_2 >= s E(mu) / m^2 also covers the rounding of the
    square root and of the products by m.  A class is skipped when, at
    every spatial centre, B is at most the least running sup over the
    window's in-box cells.  Its windows add to the sup only at those cells,
    where the max would keep the sup, so they get oscillation 0 instead,
    which no sup reads.  The skipped pairs leave the chunks only after the
    cut, so a kept class keeps its segments: every oscillation the sup
    reads is the same float, and a max over the same floats is exact.  The
    result is therefore bit-identical to summing every class.  The first
    shape meets a zero sup, so it keeps every class and takes no bound.
    """
    _check_gamma(gamma)
    values = _space_time_values(values, grid)
    dt = _uniform_dt(grid)
    shapes = {_window_halfwidths(r, gamma, dt, grid.dx) for r in _default_radius_ladder(grid, gamma)}
    return _window_sharp(values, shapes)


def _raising_classes(
    p: _ShapePlan, sharp, mu, sums, squares, level_sums, level: float, reach: float, magnitude: float
) -> np.ndarray:
    """Which time classes of plan ``p`` may raise the running ``sharp``:
    those with a window whose bound B (see :func:`sharp_parabolic`, where
    ``magnitude`` is m) exceeds the least of ``sharp`` over the window's
    in-box cells.

    Per class and spatial centre, ``mu`` is the window mean, ``sums`` the
    window sum of v' and ``squares`` that of ((v - level) / m)^2;
    ``level_sums`` is the sum of (c_r - level) / m over each class's rows.
    """
    T, n, d = sharp.shape[0], sharp.shape[1], sharp.ndim - 1
    mt, mx = p.mt, p.mx
    side = (2 * mx + 1) ** d
    cells = (2 * mt + 1) * side
    inside = p.count * side
    outside = cells - inside
    per_class = (-1,) + (1,) * d
    # the slack per class, from the largest |v - level|, |nu| and |mu|
    r, h = reach / magnitude, abs(level) / magnitude
    slack = 8 * (2 * (n**d + 2 * T) + 2 * mt + 1 + d * (2 * mx + 1)) * np.finfo(float).eps
    nu_max = r + h * outside / cells + slack * (r + h)
    mu_max = (r + h) * (1 + slack)
    carried = p.base * n**d + sum(abs(w) * len(cuts) for w, cuts in p.moves)
    slack_o2 = slack * (inside * (r + nu_max) ** 2 + outside * mu_max**2)
    slack_l1 = slack * (carried * p.count * (3 * r + nu_max) + outside * mu_max) / cells
    # (E(mu) / m^2 + d_2) / N: the in-box deviations from the level less
    # nu, squared, and mu^2 on each zero cell past the box
    nu = (mu - level) / magnitude
    spread = sums / magnitude + (side * level_sums).reshape(per_class)
    spread *= -2.0 * nu
    spread += squares
    spread += inside.reshape(per_class) * nu**2
    spread += outside.reshape(per_class) * np.square(mu / magnitude)
    spread += slack_o2.reshape(per_class)
    spread /= cells
    bound = np.sqrt(spread, out=spread)
    bound += slack_l1.reshape(per_class)
    bound *= magnitude
    # minus the least running sharp over the in-box cells of each window
    low = -sharp
    for ax in range(1, d + 1):
        low = _runs(low, ax, np.maximum, 2 * mx + 1)
    low = _runs(low, 0, np.maximum, p.count, p.lo)
    # a nan bound keeps its class
    return ~np.all(bound <= -low, axis=tuple(range(1, d + 1)))


def _kept_pairs(p: _ShapePlan, keep: np.ndarray, before: np.ndarray):
    """The pairs of plan ``p``'s kept time classes: the (class, in-box row)
    pairs of every class, cut into chunks of ``p.step`` pairs, less the
    skipped ones.  Yields each chunk's kept rows, their classes renumbered
    among the kept ones (``before`` counts the kept classes before each
    class) and the class segments' starts, for ``np.add.reduceat``.  Cut
    before filtering, a kept class keeps its segments and its sums."""
    cls = np.repeat(np.arange(p.count.size), p.count)
    rows = p.lo[cls] + np.arange(cls.size) - (np.cumsum(p.count) - p.count)[cls]
    for a in range(0, cls.size, p.step):
        sel = a + np.flatnonzero(keep[cls[a : a + p.step]])
        if sel.size:
            part = before[cls[sel]]
            yield rows[sel], part, np.flatnonzero(np.diff(part, prepend=-1))


def _window_sharp(values: np.ndarray, shapes: set[tuple[int, int]]) -> np.ndarray:
    """The sharp function of a float space-time array over the windows of
    half-widths (mt, mx) in ``shapes``, as :func:`sharp_parabolic` says."""
    T, n, d = values.shape[0], values.shape[1], values.ndim - 1
    spatial = values.shape[1:]
    # widest windows first: they raise the running sup early, so fewer
    # classes of the narrower ones can raise it
    order = sorted(set(shapes) - {(0, 0)}, key=lambda s: ((2 * s[0] + 1) * (2 * s[1] + 1) ** d, s), reverse=True)
    plans = [_shape_plan(T, n, d, mt, mx) for mt, mx in order]
    # the output before the buffers: a long-lived array allocated after
    # them takes the space they free, and the next call's buffers then grow
    # the heap
    sharp = np.zeros_like(values)
    block_buf = np.empty(max((p.step * p.extent**d for p in plans), default=0))
    mu_buf, acc_buf, tmp_buf = np.empty((3, max((p.step for p in plans), default=0) * n**d))

    ref = values.mean(axis=tuple(range(1, d + 1)))  # c_r of every in-box row
    centred = values - ref.reshape((T,) + (1,) * d)
    # each centred row sorted, with its suffix sums, for _row_max_sum
    ordered = np.sort(centred.reshape(T, -1), axis=1)
    suffix = np.zeros((T, n**d + 1))
    np.cumsum(ordered[:, ::-1], axis=1, out=suffix[:, -2::-1])
    # the centred lattice wrapped once on every space axis, time last: the
    # cells s..s+n-1 of every shift s mod n, C-ordered for a gather of rows
    lattice = np.moveaxis(centred, 0, -1)[np.ix_(*[np.arange(2 * n - 1) % n] * d)]
    # the bound's moments, in units of the field's magnitude: the squared
    # deviations from the field's mean level are window-summed beside v',
    # the row means' deviations beside the row means
    level = ref.mean()
    deviation = values - level
    reach = float(np.max(np.abs(deviation)))
    magnitude = max(reach, abs(level)) or 1.0
    deviation /= magnitude
    moments = np.stack([centred, np.square(deviation)])
    row_moments = np.stack([ref, (ref - level) / magnitude])
    del deviation
    for p in plans:
        mt, mx, count = p.mt, p.mx, p.count
        side = (2 * mx + 1) ** d
        cells = (2 * mt + 1) * side
        # the first shape meets a zero sharp function: it keeps every class
        # and needs no bound, so its window sums leave the squares out
        first = p is plans[0]
        # window sums of v' and of the squares per row, axis by axis; a
        # window longer than the period counts cells more than once
        window = moments[:1] if first else moments
        for ax in range(2, d + 2):
            window = _runs(window, ax, np.add, 2 * mx + 1)
        # then along time over each class's in-box rows, where the zero
        # rows past the box add nothing, and the row means alike
        moment_sums = _runs(window, 1, np.add, count, p.lo)
        sums = moment_sums[0]
        ref_sums, level_sums = _runs(row_moments, 1, np.add, count, p.lo)
        mu = (sums + side * ref_sums.reshape((-1,) + (1,) * d)) / cells
        if first:
            keep = np.ones(count.size, dtype=bool)
        else:
            keep = _raising_classes(p, sharp, mu, sums, moment_sums[1], level_sums, level, reach, magnitude)
        kept = np.flatnonzero(keep)
        before = np.concatenate([[0], np.cumsum(keep)])
        mu_kept = mu[kept]
        # the kept classes' means class last, as a chunk's pairs take them
        mu_last = np.moveaxis(mu_kept, 0, -1).copy()
        source = lattice[(slice(p.extent),) * d]
        max_sum = np.zeros((kept.size,) + spatial)
        lightest = p.moves[-1][0]
        for rows, cls, seg in _kept_pairs(p, keep, before):
            pairs = rows.size
            # the chunk's C-ordered (space..., pair) block and mu' per pair
            # alike, so each move reads one slab that numpy runs as a single
            # inner loop
            block = block_buf[: p.extent**d * pairs].reshape(source.shape[:-1] + (pairs,))
            np.take(source, rows, axis=-1, out=block, mode="clip")
            mu_pairs = mu_buf[: pairs * n**d].reshape(spatial + (pairs,))
            np.take(mu_last, cls, axis=-1, out=mu_pairs, mode="clip")
            mu_pairs -= ref[rows]
            tmp = tmp_buf[: mu_pairs.size].reshape(mu_pairs.shape)
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
            # base x F_r(mu') over the run of kept classes holding each
            # in-box row r, up to a chunk's pairs at a time, in the pair buffers
            scale = p.base / lightest
            for r, (lo, held) in enumerate(zip(p.held_lo, p.held_count)):
                run = range(before[lo], before[lo + held])
                for a in run[:: p.step]:
                    part = slice(a, min(a + p.step, run.stop))
                    mu_r = mu_buf[: (part.stop - a) * n**d].reshape((part.stop - a,) + spatial)
                    np.subtract(mu_kept[part], ref[r], out=mu_r)
                    f_r = _row_max_sum(ordered[r], suffix[r], mu_r, acc_buf[: mu_r.size].reshape(mu_r.shape))
                    f_r *= scale
                    max_sum[part] += f_r
        out_rows = ((2 * mt + 1 - count) * side).reshape((-1,) + (1,) * d)
        # the skipped classes' windows stay at 0, which no sup reads
        osc = np.zeros_like(mu)
        osc[kept] = (2.0 * lightest * max_sum - sums[kept] + out_rows[kept] * np.abs(mu_kept)) / cells
        # sup over the window positions containing each point: in time, the
        # run of classes holding its row; space wraps
        osc = _runs(osc, 0, np.maximum, p.held_count, p.held_lo)
        for ax in range(1, d + 1):
            osc = _runs(osc, ax, np.maximum, 2 * mx + 1)
        np.maximum(sharp, osc, out=sharp)
        # this shape's arrays go before the next shape allocates its own, so
        # the transient peak is one shape's, not the sum of two
        del window, moment_sums, sums, mu, mu_kept, mu_last, max_sum, osc
    return sharp


# -- nested anisotropic dyadic filtration ------------------------------------

@dataclass(frozen=True)
class FiltrationLevel:
    """A level n of the nested filtration: time side 2^-n, space side
    2^-floor(n/gamma), anchored at the box corner."""

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
    return [
        FiltrationLevel(gamma=gamma, time_side=2.0**-n, space_side=2.0 ** -math.floor(n / gamma))
        for n in range(-_COARSE_LEVELS, a_exp + 1)
    ]


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
