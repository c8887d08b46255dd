"""Special functions: polylogarithm, incomplete gamma, thermal wavelength,
normalized Hermite eigenfunctions, and the package's one loop-series engine.

All routines are pure and operate in 64-bit floating point.  Infinite sums
are truncated with certified tail bounds controlled by `SeriesControl`.

Every loop-length sum of the package (the polylogarithm for xi < 1, the loop
sums of `thermo`, the windows of `rdm` and the open-trap rdm), and every row
of a `thermo.gbec_band_sum`, is summed by `_series`: at most `_DIRECT_CAP`
terms directly, the rest by `_em_sum`, an endpoint Euler-Maclaurin tail
whose quadrature error estimate is checked against rel_tol (a
TruncationWarning when it is not met).  The tail calls its integrand at one
loop length at a time; the rdm windows and the band rows (and, in `thermo`,
nu and Omega) hand it one that runs on Python floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, TruncationWarning

_EULER_GAMMA = 0.5772156649015328606

# longest direct stretch of every loop-length sum (polylog, nu, Omega, the
# rdm windows and the open-trap rdm) and of every g-BEC band row; a longer
# sum, or a trap with an axis that has not relaxed by then, takes the
# Euler-Maclaurin tail `_em_sum`
_DIRECT_CAP = 10**4


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, particle mass and reference angular frequency.

    Defaults to the natural convention hbar = m = omega0 = 1.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega0: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0 or self.omega0 <= 0:
            raise DomainError("physical constants must be strictly positive")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation and cutoff policy for all infinite sums.

    sigma is the short/macroscopic loop-cutoff exponent (N = floor(kappa^-sigma));
    sigma2 is the second exponent of the anisotropic upper cutoffs
    (M = floor(kappa^-sigma2 e^{...}), see `rdm.loop_decompose`).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    sigma: float = 1.25
    sigma2: float = 0.0

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_CONTROL = SeriesControl()
DEFAULT_CONSTANTS = PhysicalConstants()


def _zeta_em(theta: float, abs_tol: float) -> float:
    """Direct partial sum of zeta(theta), theta>1, with Euler-Maclaurin tail.

    The tail beyond N is the integral N^(1-theta)/(theta-1) plus the half-term
    and the B2 correction; the remainder is bounded by
    theta*(theta+1)*(theta+2)/720 * N^(-theta-3), which fixes N.
    """
    # choose N so the certified remainder bound is below abs_tol
    c = theta * (theta + 1.0) * (theta + 2.0) / 720.0
    n = max(16, 2 * int(math.ceil((c / abs_tol) ** (1.0 / (theta + 3.0)))))
    k = np.arange(1, n + 1, dtype=float)
    partial = float(np.sum(k ** (-theta)))
    tail = n ** (1.0 - theta) / (theta - 1.0) - 0.5 * n ** (-theta) \
        + (theta / 12.0) * n ** (-theta - 1.0)
    return partial + tail


def _em_sum(f, l1: float, l2: float, rates, rel_tol: float,
            total: float) -> float:
    """sum_{l=l1}^{l2} f(l) by endpoint Euler-Maclaurin: the integral of f
    (adaptive quadrature in log loop-length, with knots at the scales 1/r of
    the decay rates r) plus (f(l1)+f(l2))/2 and (f'(l2)-f'(l1))/12, with f'
    taken by central differences.  l2 <= l1 gives the single term f(l1).

    Warns (TruncationWarning, carrying the estimate) when the quadrature
    error estimate exceeds rel_tol of |total + the sum|, total being what
    the caller has already summed.  This is the one tail of the package's
    loop-length sums: `_series` and `thermo._LoopProduct`.
    """
    if l2 <= l1:
        return f(l1)
    v1, v2 = math.log(l1), math.log(l2)
    knots = sorted({min(max(math.log(1.0 / r), v1), v2)
                    for r in rates if r > 0.0})

    def integrand(v: float) -> float:
        l = math.exp(v)
        return f(l) * l

    val, err = integrate.quad(integrand, v1, v2, points=knots, limit=500,
                              epsabs=1e-300, epsrel=1e-11)
    d1 = 0.5 * (f(l1 + 1.0) - f(l1 - 1.0))
    d2 = 0.5 * (f(l2 + 1.0) - f(l2 - 1.0))
    s = val + 0.5 * (f(l1) + f(l2)) + (d2 - d1) / 12.0
    if err > rel_tol * abs(total + s):
        warnings.warn(TruncationWarning(err))
    return s


def _series(f, l1: int, l2: int, rates, rel_tol: float,
            f_float=None) -> float:
    """sum_{l=l1}^{l2} f(l) for a vectorised summand f: the first
    `_DIRECT_CAP` terms directly, the rest by `_em_sum` (rates and rel_tol
    as there).  l2 < l1 gives 0.

    The tail integrand is f_float, the same summand at one float loop
    length, when given (the rdm windows pass one on Python floats), and
    float(f(l)) otherwise."""
    l_direct = min(l2, l1 + _DIRECT_CAP - 1)
    total = float(np.sum(f(np.arange(l1, l_direct + 1, dtype=float))))
    if l2 == l_direct:
        return total
    if f_float is None:
        def f_float(l: float) -> float:
            return float(f(l))
    return total + _em_sum(f_float, l_direct + 1.0, float(l2), rates,
                           rel_tol, total)


def _geometric_series(f, alpha: float, ctl: SeriesControl) -> float:
    """sum_{l>=1} f(l) for a positive vectorised summand with
    f(l) <= e^{-alpha l}, by `_series` up to the first length n at which the
    geometric tail bound e^{-alpha(n+1)}/(1-e^{-alpha}) falls below
    ctl.abs_tol and below one ulp of f(1), a lower bound of the sum: the
    truncation then stays below the rounding of the sum however small the
    sum is."""
    log_tol = math.log(min(ctl.abs_tol, math.ulp(float(f(1.0)))))
    n = math.ceil((log_tol + math.log(-math.expm1(-alpha))) / -alpha)
    return _series(f, 1, n, [alpha], ctl.rel_tol)


def polylog(theta: float, xi: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Polylogarithm g_theta(xi) = sum_{n>=1} xi^n / n^theta for real
    0 <= xi <= 1, with absolute error below ctl.abs_tol.

    xi = 1 requires theta > 1 (otherwise the series diverges).  For xi < 1
    the series stops where its geometric tail bound xi^(n+1)/(1-xi) is below
    ctl.abs_tol (`_geometric_series`).
    """
    if theta <= 0:
        raise DomainError("polylog order must be positive")
    if not (0.0 <= xi <= 1.0):
        raise DomainError(f"polylog argument {xi} outside [0, 1]")
    if xi == 0.0:
        return 0.0
    if xi == 1.0:
        if theta <= 1.0:
            raise DomainError("polylog diverges at xi=1 for theta <= 1")
        return _zeta_em(theta, ctl.abs_tol)
    if theta == 1.0:
        return -math.log1p(-xi)
    alpha = -math.log(xi)
    # xi^l = xi e^{-alpha(l-1)}: the first term is exact even for xi << 1
    return _geometric_series(
        lambda l: xi * np.exp(-alpha * (l - 1.0) - theta * np.log(l)),
        alpha, ctl)


def gamma0(x: float) -> float:
    """Incomplete gamma Gamma_0(x) = int_x^inf e^-t / t dt for x > 0.

    Small arguments use the alternating series
    -gamma - ln x - sum_k (-x)^k / (k k!); large arguments use the standard
    continued fraction e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    evaluated by the modified Lentz algorithm.
    """
    if x <= 0:
        raise DomainError("gamma0 requires x > 0")
    if x < 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            total -= term / k
            if abs(term) < 1e-18 * max(1.0, abs(total)):
                break
        return total
    # modified Lentz for the continued fraction of E1(x)
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -i * i
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x) * h


def de_broglie(beta: float, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Thermal de Broglie wavelength sqrt(2 pi hbar^2 beta / m)."""
    if beta <= 0:
        raise DomainError("de_broglie requires beta > 0")
    return math.sqrt(2.0 * math.pi * consts.hbar**2 * beta / consts.mass)


def hermite_eigenfunction(s: int, x: float, kappa: float,
                          consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Normalized harmonic-oscillator eigenfunction psi_s(x) for the trap
    with angular frequency omega0*kappa.

    Uses the stable three-term recurrence on the normalized Hermite functions
    with a per-step rescaling guard (values stay finite for s up to 1e4 even
    deep in the classically forbidden region).
    """
    if s < 0 or int(s) != s:
        raise DomainError("quantum number s must be a nonnegative integer")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    return float(hermite_eigen_table(int(s), x, kappa, consts)[-1])


def hermite_eigen_table(s_max: int, x: float, kappa: float,
                        consts: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Array of psi_s(x) for s = 0..s_max (inclusive), same units as
    `hermite_eigenfunction`; one recurrence pass instead of s_max passes."""
    if s_max < 0:
        raise DomainError("s_max must be nonnegative")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    c = consts.mass * consts.omega0 * kappa / consts.hbar
    u = math.sqrt(c) * x
    out = np.empty(s_max + 1)
    # carry the Gaussian in log-domain to survive |u| beyond ~38
    log_scale = -0.5 * u * u
    h_prev = 0.0
    h = math.pi ** (-0.25)
    out[0] = h * math.exp(log_scale)
    for s in range(1, s_max + 1):
        h_next = math.sqrt(2.0 / s) * u * h - math.sqrt((s - 1.0) / s) * h_prev
        h_prev, h = h, h_next
        mag = max(abs(h), abs(h_prev))
        if mag > 1e100:
            h /= 1e100
            h_prev /= 1e100
            log_scale += math.log(1e100)
        if h == 0.0:
            out[s] = 0.0
        else:
            log_val = math.log(abs(h)) + log_scale
            out[s] = math.copysign(math.exp(log_val), h) if log_val > -745.0 else 0.0
    return out * c ** 0.25
