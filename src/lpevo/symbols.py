"""Operator symbols psi(t, xi) and numerical checkers for their class conditions.

A symbol of order gamma is admissible when, for constants kappa, mu > 0 and
derivative count N:

- (S1) Re psi(t, xi) <= -kappa*|xi|^gamma,
- (S2) |d^alpha_xi psi(t, xi)| <= mu*|xi|^(gamma-|alpha|) for |alpha| <= N,
- (S3) additionally |d_t d^alpha_xi psi| <= mu*|xi|^(gamma-|alpha|).

Class "S" requires (S1)+(S2); class "S_T" requires (S1)+(S3).  The checker
samples (t, xi) points away from the coordinate hyperplanes and takes every
d^alpha_xi with |alpha| <= N by Chebyshev differentiation on the box
xi + rho[-1, 1]^d: N_pts = 20 first-kind Chebyshev points per axis and
rho = 0.4*|xi|, so each box keeps a distance 0.6*|xi| from the origin, where
radial symbols are not smooth.  Interpolation error decays geometrically in
N_pts for a symbol analytic near the box, while roundoff grows like
eps*(c*N_pts*|xi|/rho)^k at order k.  With these two fixed, the error on
power symbols is a few 1e-6 of |xi|^(gamma-k) at k = 6, 1e-4 at k = 7 and
5e-3 at k = 8, past the checker's 1e-3 tolerance, so N is capped at 7.  The
t-derivative of (S3) is a difference of step 1e-2: central where t >= 1e-2,
and the second-order one-sided (-3f(t) + 4f(t+h) - f(t+2h))/(2h) below,
so it is second order at t = 0 too.

A symbol that SymbolSpec.factors() splits into c(t) p(xi) runs one fine
and one coarse box pass of p, scaled at each sample time by c(t), and takes
its (S3) difference on c: a time-independent symbol has c = 1 and
p = psi(0, .), where G evaluates it, so its (S3) constants are exactly 0.
Any other symbol runs both passes at each sample time, and for class S_T
the fine one again at the (S3) neighbours, whose difference amplifies the
passes' roundoff by 1/(2h) = 50.  On -(1 + e^(-t)/2)|xi|^2 without its
factors, the raw (S3) constants where the exact one is 0 read 1.41e-4
(d = 1, order 6) and 2.4e-7 (d = 2, order 4), against 3.2e-7 and 3.6e-10
split; differencing the box values before the contraction read 1.35e-4 and
9.5e-8, no cure, so the two-pass difference stays.  The check trusts what
a symbol declares only after testing it on the (S1) values at the sample
times: a time-independent symbol must not change with t, and a separable
one's time_coeff*xi_profile must be its eval_fn, each to 1e-12 of
max |psi|, else ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lpevo.grid import real_array

__all__ = [
    "SymbolSpec",
    "SymbolEvaluationError",
    "ClassCheckReport",
    "power_symbol",
    "eval_symbol",
    "check_symbol_class",
]

CLASS_S = "S"
CLASS_S_T = "S_T"

# Chebyshev points per box axis, box radius over |xi|, (S3) time step, the
# tolerance of every verdict, and the highest derivative order the boxes
# resolve within it (see the module docstring)
_CHEB_POINTS = 20
_BOX_RADIUS = 0.4
_T_STEP = 1e-2
_TOL = 1e-3
_MAX_ORDER = 7
# box points per evaluation of the symbol: the boxes of all d = 2 samples at
# once would hold 96 x 20 x 20 points and their temporaries
_BOX_POINTS = 2**12
# how far, relative to max |psi|, the sample values may stray from what a
# symbol declares: no change in t, or its separable factorization
_DECLARED_TOL = 1e-12


class SymbolEvaluationError(ValueError):
    """Raised when a user symbol callable returns non-finite values."""


def _check_count(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SymbolSpec:
    """Evaluable symbol with its admissibility constants.

    ``eval_fn(t, xi)`` takes a scalar time and an (..., d) frequency array
    and returns a complex (...) array.  ``time_coeff``/``xi_profile`` are an
    optional separable factorization psi(t, xi) = time_coeff(t)*xi_profile(xi),
    given both or neither; ``time_coeff`` takes a scalar or an array of
    times and returns real values of the same shape.  ``time_independent``
    marks symbols with psi(t, xi) = psi(xi).  A symbol is given for t >= 0:
    lpevo calls ``eval_fn`` and ``time_coeff`` only there, through
    :meth:`factors` and :func:`eval_symbol`, which take max(t, 0).  The
    square function calls the ``eval_fn`` of a symbol that :meth:`factors`
    does not split from several threads at once, so it must be safe to call
    concurrently.
    """

    eval_fn: Callable[[float, np.ndarray], np.ndarray]
    kappa: float
    mu: float
    gamma: float
    n_derivs: int
    class_flag: str = CLASS_S
    d: int = 1
    time_independent: bool = False
    time_coeff: Callable[[np.ndarray], np.ndarray] | None = None
    xi_profile: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"

    def __post_init__(self):
        if not all(0 < c < np.inf for c in (self.kappa, self.mu, self.gamma)):
            raise ValueError("kappa, mu, gamma must all be positive and finite")
        _check_count("d", self.d)
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d!r}")
        _check_count("n_derivs", self.n_derivs)
        if self.n_derivs < self.d // 2 + 1:
            raise ValueError("n_derivs must be at least floor(d/2)+1")
        if self.class_flag not in (CLASS_S, CLASS_S_T):
            raise ValueError(f"unknown class flag {self.class_flag!r}")
        if (self.time_coeff is None) != (self.xi_profile is None):
            raise ValueError("time_coeff and xi_profile must be given together")

    @property
    def separable(self) -> bool:
        return self.time_coeff is not None and self.xi_profile is not None

    def factors(self) -> tuple[Callable | None, Callable] | None:
        """The split psi(t, xi) = c(t) p(xi) that the square function and the
        class check read: (None, psi(0, .)) for a time-independent symbol,
        whose c is 1, (c, p) for a separable one, and None for any other.
        c is ``time_coeff`` at max(t, 0) for times of any shape, and real,
        else ValueError; p takes a real (..., d) frequency array, else
        ValueError; c and p raise SymbolEvaluationError on a non-finite
        value, as :func:`eval_symbol` does."""
        if self.time_independent:
            return None, functools.partial(eval_symbol, self, 0.0)
        if self.separable:
            profile = lambda xi: _finite(self, self.xi_profile(_frequencies(self, xi)))
            return functools.partial(_coefficient, self), profile
        return None


def _finite(spec: SymbolSpec, values):
    """``values``, which a callable of ``spec`` returned, if all are finite."""
    if not np.all(np.isfinite(values)):
        raise SymbolEvaluationError(f"symbol {spec.name!r} returned non-finite values")
    return values


def _coefficient(spec: SymbolSpec, t):
    """``time_coeff`` at max(t, 0), real if its imaginary part is zero."""
    c = _finite(spec, spec.time_coeff(np.maximum(t, 0.0)))
    if np.iscomplexobj(c) and np.any(c.imag):
        raise ValueError(f"symbol {spec.name!r} has a complex time coefficient")
    return c.real


def _frequencies(spec: SymbolSpec, xi) -> np.ndarray:
    """``xi`` as a real (..., d) array, d the symbol's, else ValueError."""
    xi = np.atleast_1d(real_array(xi, "frequencies"))
    if xi.shape[-1] != spec.d:
        raise ValueError(f"frequencies must be an (..., {spec.d}) array, got shape {xi.shape}")
    return xi


def eval_symbol(spec: SymbolSpec, t: float | np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate psi at clamped time max(t, 0) on an (..., d) frequency array,
    d the symbol's dimension, else ValueError.

    t is one finite time, or a 1-d array of them whose values are stacked
    along a leading axis: a separable symbol's in one evaluation of the
    coefficient that :meth:`SymbolSpec.factors` hands out, at every time,
    times its profile, any other's in one ``eval_fn`` call per time.  The
    clamp extends symbols defined for t >= 0 to the negative times that a
    window start a < 0 can produce.
    """
    times = real_array(t, "symbol times")
    if times.ndim > 1 or not np.all(np.isfinite(times)):
        raise ValueError(f"symbol times must be finite, in a scalar or a 1-d array, got {t}")
    times = np.maximum(times, 0.0)
    xi = _frequencies(spec, xi)
    if times.ndim == 0:
        out = spec.eval_fn(float(times), xi)
    elif spec.separable:
        out = np.multiply.outer(_coefficient(spec, times), spec.xi_profile(xi))
    else:
        out = [spec.eval_fn(float(x), xi) for x in times]
    return _finite(spec, np.asarray(out, dtype=complex))


def _xi_norm(xi: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(xi, dtype=float) ** 2, axis=-1))


def _derivative_coefficient_bound(gamma: float, order: int, d: int) -> float:
    # crude upper bound on the |xi|^gamma derivative coefficients; only used
    # to preset mu so the margin checks normalize sensibly
    c = 1.0
    for i in range(order):
        c *= abs(gamma - i) + i + d
    return max(c, 1.0)


def power_symbol(
    kappa: float,
    gamma: float,
    k_fn: Callable[[float], float] | None = None,
    k_bound: float = 0.0,
    k_deriv_bound: float = 0.0,
    d: int = 1,
    n_derivs: int = 6,
) -> SymbolSpec:
    """psi(t, xi) = -(kappa + k(t))*|xi|^gamma with bounded modulation k >= 0.

    With k differentiable and |k| <= k_bound, |k'| <= k_deriv_bound this
    family satisfies (S1), (S2) and (S3).  ``k_fn`` is called on arrays of
    times, as ``time_coeff`` is, and only at t >= 0: the clamp is
    :func:`eval_symbol`'s and :meth:`SymbolSpec.factors`'.
    """
    # before mu, whose bound takes range(n_derivs) and adds the bounds of k
    _check_count("n_derivs", n_derivs)
    for name, bound in (("k_bound", k_bound), ("k_deriv_bound", k_deriv_bound)):
        if not 0 <= bound < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {bound}")
    if k_fn is None:
        coeff = lambda t: -kappa + 0.0 * t  # keeps the shape of t, and scalars stay cheap
        time_indep = True
    else:
        coeff = lambda t: -(kappa + k_fn(t))
        time_indep = False
    profile = lambda xi: _xi_norm(xi) ** gamma

    def evaluate(t, xi):
        return coeff(t) * profile(xi) + 0j

    mu = (kappa + k_bound + k_deriv_bound) * _derivative_coefficient_bound(
        gamma, n_derivs, d
    )
    return SymbolSpec(
        eval_fn=evaluate,
        kappa=kappa,
        mu=mu,
        gamma=gamma,
        n_derivs=n_derivs,
        class_flag=CLASS_S_T,
        d=d,
        time_independent=time_indep,
        time_coeff=coeff,
        xi_profile=profile,
        name=f"power(kappa={kappa}, gamma={gamma})",
    )


def _sample_points(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Times and (n_samples, d) frequencies of the class check: 24
    log-spaced radii in [0.1, 64], on both half-lines in d = 1 and on four
    rays between the axes in d = 2, so no point lies on a coordinate
    hyperplane."""
    r = np.geomspace(0.1, 64.0, 24)
    if d == 1:
        xi = np.concatenate([r, -r])[:, None]
    else:
        ang = np.linspace(0.2, np.pi / 2 - 0.2, 4)
        xi = (r[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)).reshape(-1, 2)
    return np.array([0.0, 0.5, 1.0, 2.0]), xi


@dataclass
class ClassCheckReport:
    """Worst-case margins of the class conditions over the sample set.

    Margins divide by mu: ``s1_margin`` is max (Re psi + kappa |xi|^gamma) /
    mu.  ``s2_constants[k]`` is the raw constant max |d^alpha psi| /
    |xi|^(gamma-k) over all multi-indices with |alpha| = k.
    ``derivative_error`` is max_k |C_k(N) - C_k(N-4)| / mu, the change in the
    (S2) constants when the same boxes are differentiated with a coarser
    Chebyshev rule: it stays near roundoff for a symbol that is smooth on
    every box, and is large for one that is not.
    """

    class_flag: str
    tol: float
    s1_margin: float
    s2_margin: float
    s3_margin: float | None
    s2_constants: dict[int, float]
    s3_constants: dict[int, float]
    derivative_error: float
    passed_s1: bool
    passed_s2: bool
    passed_s3: bool | None

    @property
    def passed(self) -> bool:
        if self.class_flag == CLASS_S_T:
            return self.passed_s1 and bool(self.passed_s3)
        return self.passed_s1 and self.passed_s2


def _chebyshev_at_zero(n_points: int, max_order: int) -> np.ndarray:
    """T_m^(k)(0) = k! [x^k] T_m for m < n_points and k <= max_order, as
    exact integers: the coefficients come from T_(m+1) = 2x T_m - T_(m-1)
    in integer arithmetic."""
    coeffs = [[1], [0, 1]]
    while len(coeffs) < n_points:
        nxt = [0] + [2 * c for c in coeffs[-1]]
        for i, c in enumerate(coeffs[-2]):
            nxt[i] -= c
        coeffs.append(nxt)
    return np.array(
        [[math.factorial(k) * (c[k] if k < len(c) else 0) for c in coeffs[:n_points]] for k in range(max_order + 1)]
    )


@functools.cache
def _chebyshev_rule(n_points: int, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points x_j on [-1, 1] and the weight rows
    W[k, j] = l_j^(k)(0), the k-th derivative at 0 of the j-th Lagrange
    basis polynomial, for k <= max_order.

    The interpolant is sum_m c_m T_m with c given by the discrete cosine
    transform of the values, so W = [T_m^(k)(0)] @ (values -> c).  The sum
    cancels heavily, so it runs in extended precision where the platform has
    it: rows rounded once to float64 cut the order-6 error on power symbols
    five- to twentyfold.  Cached, so read-only.
    """
    theta = (2 * np.arange(n_points, dtype=np.longdouble) + 1) * np.arccos(np.longdouble(-1))
    theta /= 2 * n_points
    to_coeffs = (2.0 / n_points) * np.cos(np.outer(np.arange(n_points), theta))
    to_coeffs[0] /= 2
    rows = _chebyshev_at_zero(n_points, max_order).astype(np.longdouble) @ to_coeffs
    nodes, rows = np.cos(theta).astype(float), rows.astype(float)
    nodes.flags.writeable = rows.flags.writeable = False
    return nodes, rows


class _BoxRule:
    """Every d^alpha_xi, alpha_i <= max_order, at the sample points, from
    values on a tensor grid of ``n_points`` Chebyshev points per axis on each
    box xi + rho[-1, 1]^d.  The symbol is evaluated on the boxes of a few
    sample points at a time, at most _BOX_POINTS points per call."""

    def __init__(self, xi: np.ndarray, n_points: int, max_order: int):
        nodes, self.rows = _chebyshev_rule(n_points, max_order)
        d = xi.shape[-1]
        # component first, so building a chunk's points runs over whole boxes
        self.xi = xi.T.reshape((d, -1) + (1,) * d)
        self.offsets = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"))[:, None]
        self.rho = (_BOX_RADIUS * _xi_norm(xi)).reshape((-1,) + (1,) * d)
        self.order = np.indices((max_order + 1,) * d).sum(axis=0)  # |alpha|
        self.scale = self.rho**-self.order  # d/dxi = (1/rho) d/dx on every axis
        self.step = max(1, _BOX_POINTS // n_points**d)

    def derivatives(self, spec: SymbolSpec, t: float) -> np.ndarray:
        """(n_samples,) + (max_order + 1,)*d array of d^alpha psi(t, xi)."""
        out = np.empty(self.scale.shape, dtype=complex)
        for a in range(0, len(out), self.step):
            part = slice(a, a + self.step)
            points = self.xi[:, part] + self.rho[part] * self.offsets
            vals = eval_symbol(spec, t, np.moveaxis(points, 0, -1))
            for _ in range(self.order.ndim):  # each pass contracts the leading box axis
                vals = np.tensordot(vals, self.rows, axes=(1, 1))
            out[part] = vals
        return out * self.scale


def check_symbol_class(spec: SymbolSpec) -> ClassCheckReport:
    """Sample-based verification of (S1), (S2) and, for class S_T, (S3).

    (S1) is checked on psi at the sample points at the four sample times.
    The same values test what the symbol declares: a ``time_independent``
    psi that changes over the sample times by more than _DECLARED_TOL of
    its largest |psi|, or a separable one whose time_coeff*xi_profile
    differs from eval_fn by more than _DECLARED_TOL of max |psi| at some
    sample time, raises ValueError.  Every xi-derivative with |alpha| <= N
    is taken by Chebyshev differentiation: psi is evaluated on the boxes
    xi + rho[-1, 1]^d, rho = _BOX_RADIUS*|xi|, each a tensor grid of
    _CHEB_POINTS first-kind Chebyshev points per axis, in calls of at most
    _BOX_POINTS points, and each d^alpha at the centre is a contraction with
    cached 1-d weight rows.  A rule of _CHEB_POINTS - 4 points on the same
    boxes gives ``derivative_error``.  A psi that :meth:`SymbolSpec.factors`
    splits into c(t) p(xi) runs this fine and this coarse pass once, on p,
    times c at each sample time, with c = 1 for a time-independent psi;
    any other runs both at each sample time, and for class S_T the fine one
    also at the (S3) neighbours.  The t-derivative is a difference of step
    _T_STEP, of c times the fine pass or of two passes, which amplifies
    their roundoff by 1/(2 _T_STEP): central where t >= _T_STEP, else the
    second-order one-sided start, so no sample reaches below t = 0.  Each
    verdict allows _TOL.  Raises ValueError for N > _MAX_ORDER, where
    roundoff, which grows like eps*(c*_CHEB_POINTS*|xi|/rho)^k, exceeds
    _TOL.
    """
    if spec.n_derivs > _MAX_ORDER:
        raise ValueError(
            f"n_derivs = {spec.n_derivs}: derivatives above order {_MAX_ORDER} "
            "are lost to roundoff on the Chebyshev boxes"
        )
    t_values, xi = _sample_points(spec.d)

    n = spec.n_derivs
    fine = _BoxRule(xi, _CHEB_POINTS, n)
    coarse = _BoxRule(xi, _CHEB_POINTS - 4, n)
    xnorm = _xi_norm(xi)
    order = fine.order
    # |xi|^(gamma - |alpha|) for every sample and multi-index
    weight = xnorm.reshape((-1,) + (1,) * spec.d) ** (spec.gamma - order)

    def constants(deriv: np.ndarray) -> np.ndarray:
        ratio = np.abs(deriv) / weight
        return np.array([np.max(ratio[:, order == k]) for k in range(n + 1)])

    check_s3 = spec.class_flag == CLASS_S_T
    vals = np.stack([eval_symbol(spec, t, xi) for t in t_values])
    size = np.max(np.abs(vals), axis=-1)
    if spec.time_independent and np.max(np.abs(vals - vals[0])) > _DECLARED_TOL * np.max(size):
        raise ValueError(f"symbol {spec.name!r} is marked time-independent but changes with t")
    if spec.separable:
        # at an array of times eval_symbol takes psi from its factors
        split = eval_symbol(spec, t_values, xi)
        if np.any(np.max(np.abs(split - vals), axis=-1) > _DECLARED_TOL * size):
            raise ValueError(f"symbol {spec.name!r}: time_coeff * xi_profile differs from eval_fn")
    s1_margin = float(np.max(vals.real + spec.kappa * xnorm**spec.gamma)) / spec.mu
    split = spec.factors()
    if split is None:
        fine_boxes = coarse_boxes = 1.0
        fine_at, coarse_at = (functools.partial(rule.derivatives, spec) for rule in (fine, coarse))
    else:
        # psi = c(t) p(xi): the boxes of p once, times c at each time, whose
        # difference (S3) takes, 0 for c = 1
        coeff, profile = split
        flat = replace(spec, eval_fn=lambda t, xi: profile(xi))
        fine_boxes, coarse_boxes = fine.derivatives(flat, 0.0), coarse.derivatives(flat, 0.0)
        fine_at = coarse_at = coeff or (lambda t: 1.0)
    s2_raw = s2_coarse = s3_raw = np.zeros(n + 1)
    for t in t_values:
        here = fine_at(t)
        s2_raw = np.maximum(s2_raw, constants(here * fine_boxes))
        s2_coarse = np.maximum(s2_coarse, constants(coarse_at(t) * coarse_boxes))
        if check_s3:
            ahead = fine_at(t + _T_STEP)
            if t >= _T_STEP:
                diff = ahead - fine_at(t - _T_STEP)
            else:
                diff = 4.0 * ahead - 3.0 * here - fine_at(t + 2.0 * _T_STEP)
            s3_raw = np.maximum(s3_raw, constants(diff * fine_boxes / (2.0 * _T_STEP)))

    s2_margin = float(np.max(s2_raw)) / spec.mu
    # (S3) covers m = 0 and m = 1; the m = 0 part is the (S2) family
    s3_margin = max(s2_margin, float(np.max(s3_raw)) / spec.mu) if check_s3 else None
    return ClassCheckReport(
        class_flag=spec.class_flag,
        tol=_TOL,
        s1_margin=s1_margin,
        s2_margin=s2_margin,
        s3_margin=s3_margin,
        s2_constants={k: float(c) for k, c in enumerate(s2_raw)},
        s3_constants={k: float(c) for k, c in enumerate(s3_raw)} if check_s3 else {},
        derivative_error=float(np.max(np.abs(s2_raw - s2_coarse))) / spec.mu,
        passed_s1=s1_margin <= _TOL,
        passed_s2=s2_margin <= 1.0 + _TOL,
        passed_s3=(s3_margin <= 1.0 + _TOL) if check_s3 else None,
    )
