"""Reduced density matrix of the trapped ideal Bose gas.

Loop-series evaluation with a certified split: once every per-axis Mehler
factor has relaxed onto the ground-state dyad (loop length beyond L*), the
remainder is an exact geometric series in e^{-beta(E0-mu)} and is summed in
closed form.  Equivalently, the full series equals

    rdm(x,y) = noncondensate(x,y) + Psi0(x)Psi0(y) / (e^{beta(E0-mu)} - 1),

where the noncondensate part sums the dyad-subtracted kernels and converges
after ~L* terms even arbitrarily close to criticality.  One evaluator,
`_noncond_windows`, takes sorted loop-length cutoffs (math.inf as the only
open end) and returns the dyad-subtracted sum of each window between them.
The full series is one call of it on [0, inf]; the short/meso/macro
decomposition and each anisotropic window sum of `aniso` are one call on
cutoffs from `_window_cutoffs`.  It derives the geometry, the dyad, L* and
the direct stretch once per call, and sums each window, like the open-trap
(kappa -> 0) series, by the loop-series engine `specfun._series`: a window
within `specfun._DIRECT_CAP` loops directly, a longer one the
`specfun._direct_length` of the summand's slowest rate w0 + min_j a_j
loops directly (1,636 at most at the default rel_tol, against the
open-trap series' whole cap), the rest by the Euler-Maclaurin tail
`specfun._em_sum`, whose error estimate, the quadrature's plus the
endpoint remainder, is checked against rel_tol of the sum (a
TruncationWarning when it is not met).  The direct stretch takes the
vectorised window summand; the tail integrates its float form
(`_window_summands`), which runs on Python floats and `math`.  That is
rdm's only quadrature: the barometric radii are closed forms.  Every trapped
observable takes a `thermo.Equilibrium` and reads its gap, so all windows of
one (target, trap) share a single solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import specfun
from .errors import (DomainError, ModelError, OriginError, RegimeError,
                     TruncationWarning)
from .kernels import (Isotropic, Quasi2D, TrapModel, _check_points,
                      _log_dyad, axis_inverse_lengths, axis_omega_kappa,
                      axis_rates, ground_state_product)
from .specfun import (DEFAULT_CONSTANTS, DEFAULT_CONTROL, PhysicalConstants,
                      SeriesControl, _geometric_series, _series, de_broglie,
                      hermite_eigen_table, polylog)
from .thermo import (_NORMAL_EXP, CanonicalTarget, Equilibrium,
                     _log1mexp_float, _nu_critical_trap, bose, critical_side,
                     log1mexp, mu_open_trap, nu_critical)

_CRAMER = 1.0865


def _kernel_axes(x, y, beta: float, trap: TrapModel) -> tuple[list, float]:
    """Per axis the floats (a, q, s) of `_delta_exponent`: the rate a of
    `axis_rates`, q = 2 c x y (from x y itself) and s = c (x-y)^2 with c of
    `axis_inverse_lengths`; and log Psi0(x) Psi0(y) from the same c."""
    x, y = _check_points(x, y, trap)
    c = axis_inverse_lengths(trap)
    return list(zip(axis_rates(beta, trap).tolist(),
                    (2.0 * c * (x * y)).tolist(),
                    (c * (x - y) ** 2).tolist())), _log_dyad(x, y, c)


def _delta_exponent(l, axes):
    """log[ K(l beta) / dyad ] at ascending loop lengths l (a 1-d array).

    axes holds per axis the floats (a, q, s) of `_kernel_axes`; with
    u = a l each axis adds the Mehler exponent
      -0.5 log(1-e^{-2u}) + e^{-u} [q - (q + s) e^{-u}] / (1-e^{-2u})
      = -0.5 log(1-e^{-2u}) + q e^{-u}/(1+e^{-u}) - s e^{-2u}/(1-e^{-2u}),
    which decays like e^{-u}; the cancellation against the dyad is done
    analytically so no large logs are ever subtracted numerically.  In the
    second form the two terms cancel only where the exponent itself is
    near 0: on an axis with y = 0 the q term is exactly 0 and on the
    diagonal x = y the s term is.  Axes of equal rate (adjacent in every
    trap model) share one evaluation of the functions of u; the axes are
    still added in order.

    As in `thermo._log_product`, each rate is evaluated only where its
    terms are normal floats: the q term on the prefix of l with
    u < `_NORMAL_EXP`, the terms of 2u on the prefix with
    2u < `_NORMAL_EXP`.  Beyond them a term is below the smallest normal
    float, so leaving it out moves no bit of a window sum, and no
    exponential of a subnormal result is taken.
    """
    l = np.asarray(l, dtype=float)
    out = np.zeros_like(l)
    for a, run in groupby(axes, key=itemgetter(0)):
        u = a * l
        n1 = int(np.searchsorted(u, _NORMAL_EXP))
        n2 = int(np.searchsorted(u, 0.5 * _NORMAL_EXP))
        u = u[:n1]
        eu = np.exp(-u)
        half_log = 0.5 * log1mexp(2.0 * u[:n2])
        # e^{-2u}/(1-e^{-2u}) = e^{-u}/(1+e^{-u}) * e^{-u}/(1-e^{-u}), in
        # place: no more arrays alive than the two fractions need
        plus, minus = eu / (1.0 + eu), eu[:n2] / -np.expm1(-u[:n2])
        minus *= plus[:n2]
        # free each rate's arrays before the next rate's are made
        del u, eu
        for _, q, s in run:
            out[:n2] -= half_log
            out[:n2] += q * plus[:n2] - s * minus
            out[n2:n1] += q * plus[n2:]
        del half_log, plus, minus
    return out


def _window_summands(axes, w0: float, log_dyad: float):
    """The window summand e^{-l w0} [K(x,y; l beta) - dyad] (axes as in
    `_delta_exponent`): vectorised, for the direct stretch, and at one
    float loop length on Python floats, for the quadrature tail."""
    def summand(l):
        dlt = _delta_exponent(l, axes)
        base = -l * w0 + log_dyad
        # far in the Gaussian tail the dyad underflows while the kernel
        # itself is fine; switch to the summed-exponent form there
        big = dlt > 35.0
        safe = np.where(big, 0.0, dlt)
        return np.where(big, np.exp(base + dlt), np.exp(base) * np.expm1(safe))

    def summand_float(l: float) -> float:
        # the same normal-float rule as `_delta_exponent`
        dlt, prev = 0.0, None
        for a, q, s in axes:
            if a != prev:
                u = a * l
                eu = math.exp(-u) if u < _NORMAL_EXP else 0.0
                plus = eu / (1.0 + eu)
                half_log = minus = 0.0
                if 2.0 * u < _NORMAL_EXP:
                    half_log = 0.5 * _log1mexp_float(2.0 * u)
                    minus = plus * (eu / -math.expm1(-u))
                prev = a
            dlt = dlt - half_log + (q * plus - s * minus)
        base = -l * w0 + log_dyad
        if dlt > 35.0:
            return math.exp(base + dlt)
        return math.exp(base) * math.expm1(dlt)

    return summand, summand_float


def _relax_length(axes, rel_tol) -> int:
    """Loop length beyond which every dyad-subtracted factor is below
    rel_tol/(3d) in log, so the summand is negligible relative to the dyad;
    axes as in `_delta_exponent`, whose amplitude 1 + c((x+y)^2 + (x-y)^2)
    is 1 + 2(q + s)."""
    dim = len(axes)
    worst = 1.0
    for a, q, s in axes:
        amp = 1.0 + 2.0 * (q + s)
        u_star = math.log(max(math.e, amp * 3.0 * dim / rel_tol))
        worst = max(worst, u_star / a)
    return int(math.ceil(worst))


def _noncond_windows(x, y, eq: Equilibrium, cuts) -> list[float]:
    """Sums over the loop-length windows (cuts[i], cuts[i+1]] of
    e^{-l beta gap} [K(x,y; l beta) - dyad], dyad = Psi0(x)Psi0(y), at the
    gap of eq.

    cuts is nondecreasing, starts at 0 or above and may end at math.inf; an
    empty window gives 0.0.  The geometry, the dyad, the relaxation length
    L* and the direct stretch are derived once for all windows.  Terms
    beyond L* contribute below rel_tol relative to the macroscopic tail and
    are dropped.  Each window is one `specfun._series` call, whose direct
    stretch, for a window longer than `specfun._DIRECT_CAP`, is the
    `specfun._direct_length` of the summand's slowest rate w0 + min_j a_j,
    and which warns (TruncationWarning) when its tail's error estimate
    exceeds rel_tol of the window sum.
    """
    if cuts[0] < 0:
        raise DomainError("loop lengths start at 1")
    beta, trap, ctl = eq.beta, eq.trap, eq.ctl
    axes, log_dyad = _kernel_axes(x, y, beta, trap)
    w0 = beta * eq.gap
    l_star = _relax_length(axes, ctl.rel_tol)
    # headroom covers the (logarithmically growing) subtracted exponent
    cut = (1500.0 - min(log_dyad, 0.0)) / w0 if w0 > 0.0 else math.inf
    a = [a_j for a_j, _, _ in axes]
    stretch = specfun._direct_length(w0 + min(a), ctl.rel_tol)
    summand, summand_float = _window_summands(axes, w0, log_dyad)

    sums = []
    for lo, hi in zip(cuts, cuts[1:]):
        l_lo = lo + 1
        upper = min(hi, l_star)
        if cut < 8e18:
            upper = min(upper, l_lo + int(cut) + 1)
        sums.append(_series(summand, l_lo, upper, a + [w0], ctl.rel_tol,
                            summand_float, stretch)
                    if upper >= l_lo else 0.0)
    return sums


def _geometric_window(w0: float, lo, hi) -> float:
    """sum_{l=lo+1}^{hi} e^{-l w0}; hi may be math.inf."""
    if hi <= lo:
        return 0.0
    head = math.exp(-(lo + 1) * w0) / (-math.expm1(-w0))
    if math.isinf(hi):
        return head
    return head * (-math.expm1(-(hi - lo) * w0))


def rdm_columns(x, y, eq: Equilibrium) -> tuple[float, float, float]:
    """r(x,y), |kappa|^{d/2} r(x,y) and the noncondensate part, the three
    columns of an `rdm` row, from one window sum: `rdm_loops`,
    `rdm_rescaled` and `noncondensate` to the bit."""
    trap = eq.trap
    non = noncondensate(x, y, eq)
    full = non + ground_state_product(x, y, trap) \
        * float(bose(eq.beta * eq.gap))
    return full, trap.kappa_abs ** (trap.dim / 2.0) * full, non


def rdm_loops(x, y, eq: Equilibrium) -> float:
    """Reduced density matrix r(x,y) by the loop series at the solved mu."""
    return rdm_columns(x, y, eq)[0]


def noncondensate(x, y, eq: Equilibrium) -> float:
    """rdm_loops minus the ground-state term
    Psi0(x)Psi0(y)/(e^{beta(E0-mu)}-1)."""
    return _noncond_windows(x, y, eq, [0, math.inf])[0]


def rdm_rescaled(x, y, eq: Equilibrium) -> float:
    """|kappa|^{d/2} r(x,y): the combination with a finite open-trap limit
    above criticality."""
    return rdm_columns(x, y, eq)[1]


def rdm_eigen(x, y, eq: Equilibrium, s_max: int = 200) -> float:
    """Eigenfunction-expansion form r(x,y) = sum_s psi_s(x) psi_s(y) n_s,
    truncated at per-axis quantum number s_max.

    Independent of the loop representation; the truncation tail is bounded
    with the uniform sup bound on normalized oscillator eigenfunctions and a
    TruncationWarning is emitted if the bound exceeds ctl.rel_tol of |r|.
    """
    trap, beta, ctl = eq.trap, eq.beta, eq.ctl
    xv, yv = _check_points(x, y, trap)
    w0 = beta * eq.gap
    consts = trap.consts
    a = axis_rates(beta, trap)
    kappa_eff = axis_omega_kappa(trap) / consts.omega0

    # axis j of the trap is axis j of the (s_max + 1)^d grid
    s = np.arange(0, s_max + 1, dtype=float)
    excite, p = 0.0, 1.0
    for j in range(trap.dim):
        shape = [-1 if i == j else 1 for i in range(trap.dim)]
        px = hermite_eigen_table(s_max, float(xv[j]), kappa_eff[j], consts)
        py = hermite_eigen_table(s_max, float(yv[j]), kappa_eff[j], consts)
        excite = excite + a[j] * s.reshape(shape)
        p = p * (px * py).reshape(shape)
    val = float(np.sum(p * bose(w0 + excite)))

    sup = _CRAMER**2 / math.sqrt(math.pi) \
        * float(np.prod(np.sqrt(axis_inverse_lengths(trap))))
    a_min = float(np.min(a))
    tail_bound = sup * trap.dim * float(bose(w0 + a_min * (s_max + 1))) \
        / float(np.prod(-np.expm1(-a)))
    if tail_bound > ctl.rel_tol * abs(val):
        warnings.warn(TruncationWarning(tail_bound))
    return val


@dataclass(frozen=True)
class LoopDecomposition:
    """Exact three-way partition of the loop series at the short and macro
    cutoffs; total = short_sum + meso_sum + macro_sum in that order."""

    short_cutoff: int
    macro_cutoff: float  # integer-valued, or math.inf when beyond 2^62
    short_sum: float
    meso_sum: float
    macro_sum: float
    total: float


def _window_cutoffs(trap: TrapModel, ctl: SeriesControl,
                    chi: float) -> tuple[int, int | float]:
    """Short cutoff N = floor(kappa^-sigma) and upper cutoff
    M = max(N, floor(kappa^-sigma2 e^{chi s})), s the model's `suppression`:
    an integer, or math.inf once beyond 2^62, and M = N for isotropic traps.
    The macroscopic cutoff is chi = 1 (Quasi1D) or 2 (Quasi2D)."""
    n_short = int(math.floor(trap.kappa ** (-ctl.sigma)))
    if isinstance(trap, Isotropic):
        return n_short, n_short
    log_m = chi * trap.suppression - ctl.sigma2 * math.log(trap.kappa)
    if log_m >= 62.0 * math.log(2.0):
        return n_short, math.inf
    return n_short, max(math.floor(math.exp(log_m)), n_short)


def loop_decompose(x, y, eq: Equilibrium) -> LoopDecomposition:
    """Split the loop series at N = floor(kappa^-sigma) (short/long) and at
    the model-specific macroscopic cutoff M (meso/macro).

    Isotropic traps use the two-way split (M = N, empty meso window).  Each
    window's raw sum is evaluated as its dyad-subtracted sum plus the exact
    geometric dyad window, so the partition identity holds by construction.
    """
    trap, ctl = eq.trap, eq.ctl
    if isinstance(trap, Isotropic) and not 1.0 < ctl.sigma < 1.5:
        raise DomainError("isotropic short cutoff requires 1 < sigma < 3/2")
    if ctl.sigma <= 0:
        raise DomainError("sigma must be positive")
    w0 = eq.beta * eq.gap
    dyad = ground_state_product(x, y, trap)
    n_short, m_macro = _window_cutoffs(
        trap, ctl, 2.0 if isinstance(trap, Quasi2D) else 1.0)
    cuts = [0, n_short, m_macro, math.inf]
    short_sum, meso_sum, macro_sum = (
        sub + dyad * _geometric_window(w0, lo, hi) for sub, lo, hi
        in zip(_noncond_windows(x, y, eq, cuts), cuts, cuts[1:]))
    total = short_sum + meso_sum + macro_sum
    return LoopDecomposition(n_short, float(m_macro), short_sum, meso_sum,
                             macro_sum, total)


def open_trap_rdm(x, y, beta: float, nu: float, d: int,
                  ctl: SeriesControl = DEFAULT_CONTROL,
                  consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Open-trap (kappa -> 0) limit of the reduced density matrix.

    Below the critical band of nu_c (every nu for d=1): lambda^-d sum_l
    l^{-d/2} e^{l beta mu0} e^{-pi|x-y|^2/(lambda^2 l)} with mu0 < 0 the
    open-trap chemical potential.  +inf where `divergence_law` names a law;
    d=3 within the band, on both sides of nu_c, takes mu0 = 0.
    """
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != (d,) or yv.shape != (d,):
        raise DomainError(f"points must have dimension {d}")
    lam = de_broglie(beta, consts)
    q = math.pi * float(np.sum((xv - yv) ** 2)) / lam**2

    if divergence_law(beta, nu, d, consts) is not None:
        return math.inf
    in_band = critical_side(nu, nu_critical(beta, d, consts)) == 0
    alpha = 0.0 if in_band else -beta * mu_open_trap(beta, nu, d, consts, ctl)

    half = 0.5 * d
    z = math.exp(-alpha)

    def summand(l):
        # z^l = z e^{-alpha(l-1)}: the first term is exact even for z << 1
        return z * np.exp(-alpha * (l - 1.0) - q / l - half * np.log(l))

    if z < 1.0:
        total = _geometric_series(summand, alpha, ctl)
    else:
        # z = 1 (d=3 in the band): the direct stretch, then the midpoint-rule
        # tail: the closed form of int_m^inf l^{-3/2} e^{-q/l} dl, m = N + 1/2,
        # plus f'(m)/24; the next term is O(N^{-9/2})
        m = specfun._DIRECT_CAP + 0.5
        total = _series(summand, 1, specfun._DIRECT_CAP, [], ctl.rel_tol)
        if q > 0.0:
            total += math.sqrt(math.pi / q) * math.erf(math.sqrt(q / m))
        else:
            total += 2.0 / math.sqrt(m)
        total += float(summand(m)) * (q / m - half) / m / 24.0
    return total / lam**d


def divergence_law(beta: float, nu: float, d: int,
                   consts: PhysicalConstants = DEFAULT_CONSTANTS) -> str | None:
    """Tag describing how the open-trap rdm diverges, or None if finite: d=2
    diverges within the critical band of nu_c and above it, d=3 above it.
    It reads nu_c alone, so it takes no series control."""
    side = critical_side(nu, nu_critical(beta, d, consts))
    if d == 2 and side >= 0:
        return "logarithmic-in-kappa"
    if side > 0:
        return "power-law-in-kappa"
    return None


def local_density_scaled(x, delta: float, eq: Equilibrium,
                         rescaled: bool = False) -> float:
    """Diagonal density at the dilated point x kappa^-delta (isotropic traps).

    With rescaled=True the |kappa|^{d/2}-rescaled matrix is evaluated instead.
    """
    trap = eq.trap
    if not isinstance(trap, Isotropic):
        raise ModelError("delta-scaled densities are defined for isotropic traps")
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (trap.dim,):
        raise DomainError(f"point must have dimension {trap.dim}")
    if delta > 0.0 and float(np.max(np.abs(xv))) == 0.0:
        raise OriginError("scaled density undefined at the origin for delta > 0")
    point = xv * trap.kappa ** (-delta)
    if rescaled:
        return rdm_rescaled(point, point, eq)
    return rdm_loops(point, point, eq)


def condensate_density(beta: float, nu: float, d: int,
                       consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Open-trap condensate density, the kappa->0 limit of the rescaled
    diagonal rdm at the trap centre:
    2^{d/2} (hbar omega0 beta)^{d/2} (nu - nu_c) / lambda^d, and 0 unless
    nu > nu_c; a closed form, with no series control."""
    nu_c = nu_critical(beta, d, consts)
    if not nu > nu_c:
        return 0.0
    return 2.0 ** (d / 2.0) * (consts.hbar * consts.omega0 * beta) ** (d / 2.0) \
        * (nu - nu_c) / de_broglie(beta, consts) ** d


def scaled_density_profile(delta: float, target: CanonicalTarget, d: int,
                           consts: PhysicalConstants = DEFAULT_CONSTANTS,
                           ctl: SeriesControl = DEFAULT_CONTROL,
                           rescaled: bool = False):
    """The closed-form kappa->0 limit of the delta-scaled density, as a
    function of the point x: the regime and, below nu_c, the open-trap mu0
    are found once for a whole profile, not once per point.  The function
    returns None where no limit is claimed (the d = 2 noncondensate
    window); inside the critical band this raises RegimeError.

    Unrescaled, the limit is the semiclassical density
    lambda^-d g_{d/2}(e^{beta(mu0 - V)}), with mu0 = 0 above nu_c and
    V(x) = m omega0^2 |x|^2 / 2 at delta = 1, V = 0 at delta < 1; except
    above nu_c at delta < 1, where it is None for d = 2 and +inf for d = 3
    at delta <= 1/2.  Rescaled, it is the condensate density above nu_c at
    delta < 1/2, times e^{-m omega0 |x|^2 / hbar} at delta = 1/2, and 0
    otherwise."""
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    beta, nu = target.beta, target.nu
    lam = de_broglie(beta, consts)
    side = critical_side(nu, nu_critical(beta, d, consts))
    if side == 0:
        raise RegimeError("nu inside the critical band")
    mu0 = mu_open_trap(beta, nu, d, consts, ctl=ctl) \
        if side < 0 and not rescaled else 0.0

    def limit(x) -> float | None:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        r2 = float(np.sum(xv**2))
        if rescaled:
            if side < 0 or delta > 0.5:
                return 0.0
            amp = condensate_density(beta, nu, d, consts)
            if delta < 0.5:
                return amp
            return amp * math.exp(-consts.mass * consts.omega0 * r2
                                  / consts.hbar)
        if side > 0 and delta < 1.0:
            if d == 2:
                return None
            if delta <= 0.5:
                return math.inf
        v_x = 0.5 * consts.mass * consts.omega0**2 * r2 if delta == 1.0 \
            else 0.0
        return polylog(d / 2.0, math.exp(beta * (mu0 - v_x)), ctl) / lam**d

    return limit


@dataclass(frozen=True)
class BarometricRadii:
    """Mean square single-axis radii of the thermal (delta=1) and condensate
    (delta=1/2, rescaled) open-trap profiles, plus the two candidate closed
    forms for their quotient."""

    r2_thermal: float
    r2_condensate: float
    ratio: float
    ratio_single_beta: float
    ratio_double_beta: float
    printed_form_consistent: bool


def barometric_radii(target: CanonicalTarget, trap: TrapModel) -> BarometricRadii:
    """<x_j^2> of the two supercritical open-trap profiles in closed form.

    Thermal profile: g_{d/2}(e^{-beta V(r)}); condensate profile:
    e^{-m omega0 r^2 / hbar}.  Requires d in {2,3} and nu > nu_c.  Only
    zeta values enter, so no series control is taken.
    """
    consts, d = trap.consts, trap.dim
    if d not in (2, 3):
        raise DomainError("barometric radii require d in {2, 3}")
    beta, nu = target.beta, target.nu
    nu_c = _nu_critical_trap(beta, trap)
    if not nu > nu_c:
        raise RegimeError("barometric radii require nu > nu_c")
    omega0 = trap.omega0
    # per axis <x^2> = zeta(d+1)/(2 b zeta(d)), b = beta m omega0^2/2, for
    # g_{d/2}(e^{-b r^2}), and hbar/(2 m omega0) for e^{-m omega0 r^2/hbar}
    zr = polylog(float(d + 1), 1.0) / polylog(float(d), 1.0)
    r2_th = zr / (beta * consts.mass * omega0**2)
    r2_co = consts.hbar / (2.0 * consts.mass * omega0)
    ratio = r2_th / r2_co
    single = 2.0 * zr / (consts.hbar * omega0 * beta)
    double = single / beta
    return BarometricRadii(r2_th, r2_co, ratio, single, double,
                           abs(ratio - double) <= 1e-6 * abs(ratio))
