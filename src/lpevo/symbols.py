"""Operator symbols psi(t, xi) and numerical checkers for their class conditions.

A symbol of order gamma is admissible when, for constants kappa, mu > 0 and
derivative count N:

- (S1) Re psi(t, xi) <= -kappa*|xi|^gamma,
- (S2) |d^alpha_xi psi(t, xi)| <= mu*|xi|^(gamma-|alpha|) for |alpha| <= N,
- (S3) additionally |d_t d^alpha_xi psi| <= mu*|xi|^(gamma-|alpha|).

Class "S" requires (S1)+(S2); class "S_T" requires (S1)+(S3).  The checkers
sample (t, xi) points away from the coordinate hyperplanes and estimate
derivatives by Richardson-extrapolated central differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SymbolSpec",
    "SymbolEvaluationError",
    "SymbolSampleSpec",
    "ClassCheckReport",
    "power_symbol",
    "fractional_laplacian_symbol",
    "eval_symbol",
    "check_symbol_class",
]

CLASS_S = "S"
CLASS_S_T = "S_T"

_EXHAUSTIVE_ORDER_CAP = 4


class SymbolEvaluationError(ValueError):
    """Raised when a user symbol callable returns non-finite values."""


@dataclass(frozen=True)
class SymbolSpec:
    """Evaluable symbol with its admissibility constants.

    ``eval_fn(t, xi)`` takes a scalar time and an (..., d) frequency array
    and returns a complex (...) array.  ``time_coeff``/``xi_profile`` are an
    optional separable factorization psi(t, xi) = time_coeff(t)*xi_profile(xi)
    used for fast time integration; ``time_coeff`` takes a scalar or an array
    of times and returns values of the same shape, and is called once per
    array of quadrature nodes.  ``time_independent`` marks symbols with
    psi(t, xi) = psi(xi).
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
        if self.kappa <= 0 or self.mu <= 0 or self.gamma <= 0:
            raise ValueError("kappa, mu, gamma must all be positive")
        if self.n_derivs < self.d // 2 + 1:
            raise ValueError("n_derivs must be at least floor(d/2)+1")
        if self.class_flag not in (CLASS_S, CLASS_S_T):
            raise ValueError(f"unknown class flag {self.class_flag!r}")

    @property
    def separable(self) -> bool:
        return self.time_coeff is not None and self.xi_profile is not None


def eval_symbol(spec: SymbolSpec, t: float, xi: np.ndarray) -> np.ndarray:
    """Evaluate psi at clamped time max(t, 0) on an (..., d) frequency array.

    The clamp extends symbols defined for t >= 0 to the negative times that a
    window start a < 0 can produce.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.asarray(spec.eval_fn(max(float(t), 0.0), xi), dtype=complex)
    if not np.all(np.isfinite(out)):
        raise SymbolEvaluationError(f"symbol {spec.name!r} returned non-finite values")
    return out


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
    times, as ``time_coeff`` is.
    """
    if k_fn is None:
        coeff = lambda t: -kappa + 0.0 * t  # keeps the shape of t, and scalars stay cheap
        time_indep = True
    else:
        coeff = lambda t: -(kappa + k_fn(np.maximum(t, 0.0)))
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


def fractional_laplacian_symbol(order: float, d: int = 1, n_derivs: int = 6) -> SymbolSpec:
    """psi(xi) = -|xi|^order, the symbol whose negation realizes (-Delta)^(order/2).

    Only the modulus |psi| enters the verified estimates, so the sign
    convention is fixed to the admissible (negative real part) branch.
    """
    return power_symbol(kappa=1.0, gamma=order, d=d, n_derivs=n_derivs)


@dataclass(frozen=True)
class SymbolSampleSpec:
    """Sample points for class checking; xi points must avoid the coordinate
    hyperplanes (some component equal to zero)."""

    t_values: np.ndarray
    xi_values: np.ndarray  # (n_samples, d)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t_values, dtype=float))
        xi = np.atleast_2d(np.asarray(self.xi_values, dtype=float))
        if np.any(np.min(np.abs(xi), axis=-1) == 0.0):
            raise ValueError("sample xi points must avoid the coordinate hyperplanes")
        object.__setattr__(self, "t_values", t)
        object.__setattr__(self, "xi_values", xi)

    @staticmethod
    def log_spaced(d: int, xi_lo: float = 0.1, xi_hi: float = 64.0, n_xi: int = 24,
                   t_values=(0.0, 0.5, 1.0, 2.0)) -> "SymbolSampleSpec":
        r = np.geomspace(xi_lo, xi_hi, n_xi)
        if d == 1:
            xi = np.stack([np.concatenate([r, -r])], axis=-1)
        else:
            ang = np.linspace(0.2, np.pi / 2 - 0.2, 4)
            pts = []
            for rho in r:
                for th in ang:
                    pts.append([rho * np.cos(th), rho * np.sin(th)])
            xi = np.asarray(pts)
        return SymbolSampleSpec(np.asarray(t_values), xi)


@dataclass
class ClassCheckReport:
    """Worst-case margins of the class conditions over the sample set.

    ``s2_constants[k]`` is the raw constant max |d^alpha psi| / |xi|^(gamma-k)
    over all sampled multi-indices with |alpha| = k; margins divide by mu.
    """

    class_flag: str
    tol: float
    s1_margin: float
    s2_margin: float
    s3_margin: float | None
    s2_constants: dict[int, float]
    s3_constants: dict[int, float]
    orders_checked: list[tuple[int, ...]]
    randomized_orders: bool
    passed_s1: bool
    passed_s2: bool
    passed_s3: bool | None

    @property
    def passed(self) -> bool:
        if self.class_flag == CLASS_S_T:
            return self.passed_s1 and bool(self.passed_s3)
        return self.passed_s1 and self.passed_s2

    def to_dict(self) -> dict:
        return {
            "class_flag": self.class_flag,
            "tol": self.tol,
            "s1_margin": self.s1_margin,
            "s2_margin": self.s2_margin,
            "s3_margin": self.s3_margin,
            "s2_constants": {str(k): v for k, v in self.s2_constants.items()},
            "s3_constants": {str(k): v for k, v in self.s3_constants.items()},
            "orders_checked": [list(a) for a in self.orders_checked],
            "randomized_orders": self.randomized_orders,
            "passed": self.passed,
        }


def _multi_indices(d: int, max_order: int):
    for order in range(max_order + 1):
        for alpha in itertools.product(range(order + 1), repeat=d):
            if sum(alpha) == order:
                yield alpha


def _fd_xi_derivative(fn, xi: np.ndarray, alpha: tuple[int, ...], h_scale: float) -> np.ndarray:
    """Nested central differences for the mixed xi-derivative d^alpha."""
    if sum(alpha) == 0:
        return fn(xi)
    axis = next(i for i, a in enumerate(alpha) if a > 0)
    rest = tuple(a - 1 if i == axis else a for i, a in enumerate(alpha))
    h = h_scale * np.maximum(1.0, np.abs(xi[..., axis]))
    step = np.zeros_like(xi)
    step[..., axis] = h
    hi = _fd_xi_derivative(fn, xi + step, rest, h_scale)
    lo = _fd_xi_derivative(fn, xi - step, rest, h_scale)
    return (hi - lo) / (2.0 * h)


def _richardson_xi(fn, xi, alpha, h_scale):
    d1 = _fd_xi_derivative(fn, xi, alpha, h_scale)
    d2 = _fd_xi_derivative(fn, xi, alpha, h_scale / 2.0)
    return (4.0 * d2 - d1) / 3.0


def check_symbol_class(
    spec: SymbolSpec,
    sample_spec: SymbolSampleSpec | None = None,
    tol: float = 1e-3,
    fd_step: float = 1e-4,
    rng_seed: int = 0,
) -> ClassCheckReport:
    """Sample-based verification of (S1), (S2) and, for class S_T, (S3).

    Derivatives use central differences with step fd_step*max(1, |xi_i|) per
    axis, Richardson-extrapolated once.  Multi-indices are exhaustive up to
    order min(N, 4); for larger N a seeded random subset is checked and the
    report flags it.
    """
    if fd_step < 1e-12:
        raise ValueError("finite-difference step underflow")
    if sample_spec is None:
        sample_spec = SymbolSampleSpec.log_spaced(spec.d)
    xi = sample_spec.xi_values
    if xi.shape[-1] != spec.d:
        raise ValueError("sample dimension does not match symbol dimension")

    xnorm = _xi_norm(xi)
    orders = list(_multi_indices(spec.d, min(spec.n_derivs, _EXHAUSTIVE_ORDER_CAP)))
    randomized = False
    if spec.n_derivs > _EXHAUSTIVE_ORDER_CAP:
        rng = np.random.default_rng(rng_seed)
        extra = []
        for order in range(_EXHAUSTIVE_ORDER_CAP + 1, spec.n_derivs + 1):
            choices = [a for a in _multi_indices(spec.d, order) if sum(a) == order]
            take = min(4, len(choices))
            idx = rng.choice(len(choices), size=take, replace=False)
            extra += [choices[i] for i in idx]
        orders += extra
        randomized = True

    s1_margin = -np.inf
    s2_raw: dict[int, float] = {}
    s3_raw: dict[int, float] = {}
    check_s3 = spec.class_flag == CLASS_S_T
    dt = fd_step

    for t in sample_spec.t_values:
        fn = lambda z: eval_symbol(spec, t, z)
        vals = fn(xi)
        s1_margin = max(s1_margin, float(np.max(vals.real + spec.kappa * xnorm**spec.gamma)))
        for alpha in orders:
            k = sum(alpha)
            dv = _richardson_xi(fn, xi, alpha, fd_step) if k > 0 else vals
            ratio = np.abs(dv) / xnorm ** (spec.gamma - k)
            s2_raw[k] = max(s2_raw.get(k, 0.0), float(np.max(ratio)))
            if check_s3:
                fn_hi = lambda z: eval_symbol(spec, t + dt, z)
                fn_lo = lambda z: eval_symbol(spec, max(t - dt, 0.0), z)
                span = dt + min(dt, t)  # clamped lower step near t=0
                dvt_hi = _richardson_xi(fn_hi, xi, alpha, fd_step) if k > 0 else fn_hi(xi)
                dvt_lo = _richardson_xi(fn_lo, xi, alpha, fd_step) if k > 0 else fn_lo(xi)
                dvt = (dvt_hi - dvt_lo) / span
                ratio_t = np.abs(dvt) / xnorm ** (spec.gamma - k)
                s3_raw[k] = max(s3_raw.get(k, 0.0), float(np.max(ratio_t)))

    s2_margin = max(v / spec.mu for v in s2_raw.values())
    # (S3) covers m = 0 and m = 1; the m = 0 part is the (S2) family
    s3_margin = None
    if check_s3:
        s3_margin = max(s2_margin, max(v / spec.mu for v in s3_raw.values()))

    scale = float(spec.mu)
    passed_s1 = s1_margin <= tol * scale
    passed_s2 = s2_margin <= 1.0 + tol
    passed_s3 = (s3_margin <= 1.0 + tol) if check_s3 else None
    return ClassCheckReport(
        class_flag=spec.class_flag,
        tol=tol,
        s1_margin=s1_margin,
        s2_margin=s2_margin,
        s3_margin=s3_margin,
        s2_constants=s2_raw,
        s3_constants=s3_raw,
        orders_checked=orders,
        randomized_orders=randomized,
        passed_s1=passed_s1,
        passed_s2=passed_s2,
        passed_s3=passed_s3,
    )
