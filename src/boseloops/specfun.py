"""Special functions: polylogarithm, thermal wavelength, a table of
normalized Hermite eigenfunctions, and the loop-series engine `_series`.

All routines are pure and operate in 64-bit floating point.  Infinite sums
are truncated where a certified tail bound falls below their rounding.

Every loop-length sum of the package is summed directly when its terms fit
in `_DIRECT_CAP`; a longer one has a direct stretch and an endpoint
Euler-Maclaurin tail.  The tail's error estimate, its quadrature's estimate
plus the endpoint remainder (11/720)|third difference| read off the summand
where the tail starts, is checked against rel_tol (a TruncationWarning when
it is not met).  Past the cap, the loop sums nu and Omega of `thermo` and
the windows of `rdm` sum directly only the `_direct_length` loops after
which that remainder falls below 1e-4 rel_tol of the sum, worked out from
the summand's slowest decay rate; the polylogarithm for xi < 1, the
open-trap rdm and every row of a `thermo.gbec_band_sum`, whose contract or
tests are at rounding level, sum the whole cap.  `_series` sums the
polylogarithm, the rdm windows, the open-trap rdm and the band rows; its
tail `_em_sum` is an adaptive quadrature that calls its integrand at one
loop length at a time (the rdm windows and the band rows hand it one that
runs on Python floats).  Their
summands depend on the point and the gap, so no tail of theirs is evaluated
twice.  The tail of nu and Omega has the same endpoint terms, but its
integrand has a gap-independent factor P_l - 1, which `thermo._LoopProduct`
tabulates once per gap solve on a fixed Gauss-Legendre grid.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, TruncationWarning, check_positive

# longest direct stretch of every loop-length sum and of every g-BEC band
# row.  A sum that fits in it is summed directly: a tail (`_em_sum`'s
# quadrature, or for nu and Omega the tabulated rule of
# `thermo._LoopProduct`) costs about as much as this many direct terms.  A
# longer sum takes a tail after the whole cap (polylog, the open-trap rdm,
# the band rows) or after `_direct_length` terms (nu, Omega, the rdm
# windows).
_DIRECT_CAP = 10**4

# the endpoint terms of that tail, (f(l1) + f(l2))/2 plus f' by central
# differences over 12, leave a remainder of about (1/720 + 1/72)|f'''| =
# (11/720)|f'''| at each end
_EM_REMAINDER = 11.0 / 720.0


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, particle mass and reference angular frequency.

    Defaults to the natural convention hbar = m = omega0 = 1.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega0: float = 1.0

    def __post_init__(self):
        check_positive(self, "hbar", "mass", "omega0")


@dataclass(frozen=True)
class SeriesControl:
    """Tolerance and cutoff policy for the loop-length sums.

    rel_tol bounds each tail quadrature's error estimate relative to its sum
    and sets where a loop factor counts as relaxed.  sigma is the
    short/macroscopic loop-cutoff exponent (N = floor(kappa^-sigma));
    sigma2 is the second exponent of the anisotropic upper cutoffs
    (M = floor(kappa^-sigma2 e^{...}), see `rdm.loop_decompose`).  zeta, the
    polylogarithm at xi = 1, is summed to half an ulp whatever the control,
    so the critical numbers nu_c and nu_m take none.
    """

    rel_tol: float = 1e-10
    sigma: float = 1.25
    sigma2: float = 0.0

    def __post_init__(self):
        check_positive(self, "rel_tol")
        for name in ("sigma", "sigma2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, not "
                                  f"{getattr(self, name)!r}")


DEFAULT_CONTROL = SeriesControl()
DEFAULT_CONSTANTS = PhysicalConstants()


@functools.cache
def _zeta_em(theta: float) -> float:
    """Direct partial sum of zeta(theta), theta>1, with Euler-Maclaurin tail.

    The tail beyond N is the integral N^(1-theta)/(theta-1) plus the half-term
    and the B2 correction; the remainder is bounded by
    theta*(theta+1)*(theta+2)/720 * N^(-theta-3), and N brings it below
    half an ulp of zeta.  A constant of theta alone: each theta is summed
    once per process.
    """
    # half an ulp of 1 is at most half an ulp of zeta > 1
    c = theta * (theta + 1.0) * (theta + 2.0) / 720.0
    n = max(16, 2 * int(math.ceil((2.0 * c / math.ulp(1.0))
                                  ** (1.0 / (theta + 3.0)))))
    k = np.arange(1, n + 1, dtype=float)
    partial = float(np.sum(k ** (-theta)))
    tail = n ** (1.0 - theta) / (theta - 1.0) - 0.5 * n ** (-theta) \
        + (theta / 12.0) * n ** (-theta - 1.0)
    return partial + tail


def _direct_length(rate: float, rel_tol: float) -> int:
    """Shortest direct stretch after which the endpoint Euler-Maclaurin tail
    of a loop summand that decays at `rate` or faster leaves a remainder
    below tol = 1e-4 rel_tol of the sum; at least 2 loops, at most
    `_DIRECT_CAP` (read at call time).  nu, Omega and the rdm windows take
    it when their sum does not fit in the cap.  The tolerance's 1e-4 keeps
    the remainder near the accuracy the tail quadratures deliver, which
    tests pin at 1e-12 to 1e-14 of the sum, while the length grows only
    like tol^{-1/4}.

    Each summand of nu, Omega and the rdm windows is a mix of exponentials
    e^{-c l} with c >= rate: P_l - 1 expands into e^{-l sum_j m_j a_j},
    m != 0, times e^{-l w0} and, for Omega, 1/l = int_0^inf e^{-tl} dt; a
    window is the Mehler expansion of the kernel less its dyad, whose
    weights psi_m(x) psi_m(y) are positive on the diagonal and, off it,
    bounded by the diagonal's.  With n loops summed directly from l1, one
    exponential leaves the remainder (11/720) c^3 e^{-c(l1 + n)} against
    its sum e^{-c l1} / (1 - e^{-c}), a share below (11/720) c^4 e^{-cn},
    and the largest share over c >= rate bounds the mix's.  It lies at
    c = 4/n while rate n <= 4, which gives n = (4/e) (11/(720 tol))^{1/4}
    (1,636 loops at tol = 1e-14), and at c = rate beyond, where
    (11/720) rate^4 e^{-rate n} = tol; the two meet at rate n = 4, so the
    length is continuous and falls as the rate grows.  The amplitudes q
    and s of a window set the weights of its exponentials, not their
    rates, so the rate and the tolerance alone fix the length.
    """
    k = _EM_REMAINDER / (1e-4 * rel_tol)
    n = 4.0 / math.e * k ** 0.25
    if rate * n > 4.0:
        n = math.log(k * rate**4) / rate
    return min(_DIRECT_CAP, max(2, math.ceil(n)))


def _em_sum(f, l1: float, l2: float, rates, rel_tol: float,
            total: float) -> float:
    """sum_{l=l1}^{l2} f(l) by endpoint Euler-Maclaurin: the integral of f
    (adaptive quadrature in log loop-length, with knots at the scales 1/r of
    the decay rates r) plus (f(l1)+f(l2))/2 and (f'(l2)-f'(l1))/12, with f'
    taken by central differences.  l2 <= l1 gives the single term f(l1).

    The error estimate is the quadrature's plus the endpoint remainder
    (11/720)|third difference of f| over l1 - 2 ... l1 + 1, which takes one
    more evaluation of f.  Warns (TruncationWarning, carrying the estimate)
    when it exceeds rel_tol of |total + the sum|, total being what the
    caller has already summed.  This is the tail of `_series`; the loop
    sums nu and Omega take `thermo._LoopProduct`'s tabulated rule instead.
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
    f0, f1, f2, f3 = (f(l1 + k) for k in (-2.0, -1.0, 0.0, 1.0))
    d1 = 0.5 * (f3 - f1)
    d2 = 0.5 * (f(l2 + 1.0) - f(l2 - 1.0))
    s = val + 0.5 * (f2 + f(l2)) + (d2 - d1) / 12.0
    err += _EM_REMAINDER * abs(f3 - 3.0 * f2 + 3.0 * f1 - f0)
    if err > rel_tol * abs(total + s):
        warnings.warn(TruncationWarning(err))
    return s


def _series(f, l1: int, l2: int, rates, rel_tol: float,
            f_float=None, stretch: int | None = None) -> float:
    """sum_{l=l1}^{l2} f(l) for a vectorised summand f: directly when its
    terms fit in `_DIRECT_CAP`, else the first `stretch` terms
    (`_DIRECT_CAP` when not given) directly and the rest by `_em_sum`
    (rates and rel_tol as there).  l2 < l1 gives 0.

    The tail integrand is f_float, the same summand at one float loop
    length, when given (the rdm windows pass one on Python floats), and
    float(f(l)) otherwise."""
    n = stretch if stretch and l2 - l1 >= _DIRECT_CAP else _DIRECT_CAP
    l_direct = min(l2, l1 + n - 1)
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
    geometric tail bound e^{-alpha(n+1)}/(1-e^{-alpha}) falls below one ulp
    of f(1), a lower bound of the sum: the truncation then stays below the
    rounding of the sum however small the sum is."""
    log_tol = math.log(math.ulp(float(f(1.0))))
    n = math.ceil((log_tol + math.log(-math.expm1(-alpha))) / -alpha)
    return _series(f, 1, n, [alpha], ctl.rel_tol)


def polylog(theta: float, xi: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Polylogarithm g_theta(xi) = sum_{n>=1} xi^n / n^theta for real
    0 <= xi <= 1, truncated below its rounding.

    xi = 1 requires theta > 1 (otherwise the series diverges); `_zeta_em`
    stops below half an ulp and ctl is not read.  For xi < 1 the series
    stops where its geometric tail bound xi^(n+1)/(1-xi) is below one ulp of
    the first term (`_geometric_series`, whose tail takes ctl.rel_tol).
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
        return _zeta_em(theta)
    if theta == 1.0:
        return -math.log1p(-xi)
    alpha = -math.log(xi)
    # xi^l = xi e^{-alpha(l-1)}: the first term is exact even for xi << 1
    return _geometric_series(
        lambda l: xi * np.exp(-alpha * (l - 1.0) - theta * np.log(l)),
        alpha, ctl)


def de_broglie(beta: float, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Thermal de Broglie wavelength sqrt(2 pi hbar^2 beta / m)."""
    if beta <= 0:
        raise DomainError("de_broglie requires beta > 0")
    return math.sqrt(2.0 * math.pi * consts.hbar**2 * beta / consts.mass)


def hermite_eigen_table(s_max: int, x: float, kappa: float,
                        consts: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Array of the normalized harmonic-oscillator eigenfunctions psi_s(x),
    s = 0..s_max (inclusive), for the trap with angular frequency
    omega0*kappa.

    One pass of the stable three-term recurrence on the normalized Hermite
    functions, with a per-step rescaling guard (values stay finite for s up
    to 1e4 even deep in the classically forbidden region).
    """
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
