"""Special functions: polylogarithm, incomplete gamma, thermal wavelength,
normalized Hermite eigenfunctions.

All routines are pure and operate in 64-bit floating point.  Infinite sums
are truncated with certified tail bounds controlled by `SeriesControl`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_EULER_GAMMA = 0.5772156649015328606

# guard on the direct polylog series; the tail bound is met long before it
_MAX_TERMS = 10**7


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


def _polylog_em(theta: float, alpha: float, abs_tol: float) -> float:
    """g_theta(e^-alpha) for theta > 1 and small alpha > 0, where the direct
    series converges too slowly for a certified geometric cutoff.

    Euler-Maclaurin: partial sum to N plus the exact tail integral
    int_N^inf e^{-alpha l} l^-theta dl (adaptive quadrature), the half-term
    and the B2 correction; the remainder is O(N^-theta-3) and well below
    abs_tol for the N used here.
    """
    from scipy import integrate

    n = 4096
    k = np.arange(1, n + 1, dtype=float)
    partial = float(np.sum(np.exp(-alpha * k) / k**theta))
    tail, _ = integrate.quad(lambda l: math.exp(-alpha * l) * l ** (-theta),
                             n, np.inf, limit=200, epsabs=0.1 * abs_tol,
                             epsrel=1e-12)
    f_n = math.exp(-alpha * n) / n**theta
    fp_n = -f_n * (alpha + theta / n)
    return partial + tail - 0.5 * f_n - fp_n / 12.0


def polylog(theta: float, xi: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Polylogarithm g_theta(xi) = sum_{n>=1} xi^n / n^theta for real
    0 <= xi <= 1, with absolute error below ctl.abs_tol.

    xi = 1 requires theta > 1 (otherwise the series diverges).  For xi < 1 the
    tail beyond N is certified by the smaller of the geometric bound
    term*xi/(1-xi) and the zeta-integral bound xi^(N+1) * N^(1-theta)/(theta-1).
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
    if theta > 1.0 and xi > math.exp(-0.01):
        return _polylog_em(theta, -math.log(xi), ctl.abs_tol)

    total = 0.0
    n = 0
    chunk = 4096
    log_xi = math.log(xi)
    while n < _MAX_TERMS:
        m = np.arange(n + 1, min(n + chunk, _MAX_TERMS) + 1, dtype=float)
        total += float(np.sum(np.exp(m * log_xi) / m ** theta))
        n = int(m[-1])
        next_term = math.exp((n + 1) * log_xi) / (n + 1) ** theta
        tail = next_term * xi / (1.0 - xi) if xi < 1.0 else math.inf
        if theta > 1.0:
            tail = min(tail, math.exp((n + 1) * log_xi) * n ** (1.0 - theta) / (theta - 1.0))
        if tail < ctl.abs_tol:
            return total
        chunk = min(2 * chunk, 2 * 10**6)
    raise ConvergenceError(
        f"polylog({theta}, {xi}): tail bound not met within {_MAX_TERMS} terms")


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
