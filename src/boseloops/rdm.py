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
cutoffs from `_window_cutoffs`.  It derives the geometry, the dyad and L*
once per call, and sums each window, like the open-trap (kappa -> 0)
series, by the package's one loop-series engine `specfun._series`: its
first `specfun._DIRECT_CAP` loops directly, the rest by the Euler-Maclaurin
tail `specfun._em_sum`, whose quadrature error estimate is checked against
rel_tol of the sum (a TruncationWarning when it is not met).  The direct
stretch takes the vectorised window summand; the tail integrates its float
form (`_window_summands`), which runs on Python floats and `math`.  That is the
only quadrature: the barometric radii are closed forms.  Every trapped
observable takes a `thermo.Equilibrium` and reads its gap, so all windows of
one (target, trap) share a single solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (DomainError, ModelError, OriginError, RegimeError,
                     TruncationWarning)
from .kernels import (Isotropic, Quasi1D, Quasi2D, TrapModel, _check_points,
                      axis_omega_kappa, ground_state_product,
                      log_ground_state_product)
from .specfun import (DEFAULT_CONSTANTS, DEFAULT_CONTROL, PhysicalConstants,
                      SeriesControl, _geometric_series, _series, de_broglie,
                      hermite_eigen_table, polylog)
from .thermo import (CRITICAL_BAND, CanonicalTarget, Equilibrium,
                     _log1mexp_float, _nu_critical_trap, bose, log1mexp,
                     mu_open_trap, nu_critical)

_CRAMER = 1.0865


def _axis_geometry(x, y, trap: TrapModel):
    """Per-axis oscillator constants c_j = m omega_j kappa_j / hbar and the
    squared sum/difference coordinates."""
    x, y = _check_points(x, y, trap)
    wk = axis_omega_kappa(trap)
    c = trap.consts.mass * wk / trap.consts.hbar
    return c, (x + y) ** 2, (x - y) ** 2, trap.consts.hbar * wk


def _delta_exponent(l, axes):
    """log[ K(l beta) / dyad ] as a function of loop length l (vectorized).

    axes holds per axis the floats a = beta hbar omega kappa,
    p = c (x+y)^2 / 2 and m = c (x-y)^2 / 2; with u = a l each axis adds
      -0.5 log(1-e^{-2u}) + p e^{-u}/(1+e^{-u}) - m e^{-u}/(1-e^{-u}),
    which decays like e^{-u}; the cancellation against the dyad is done
    analytically so no large logs are ever subtracted numerically.
    """
    l = np.asarray(l, dtype=float)
    out = np.zeros_like(l)
    for a, p, m in axes:
        u = a * l
        eu = np.exp(-u)
        out = out - 0.5 * log1mexp(2.0 * u) \
            + (p * (eu / (1.0 + eu)) - m * (eu / -np.expm1(-u)))
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
        dlt = 0.0
        for a, p, m in axes:
            u = a * l
            eu = math.exp(-u)
            dlt = dlt - 0.5 * _log1mexp_float(2.0 * u) \
                + (p * (eu / (1.0 + eu)) - m * (eu / -math.expm1(-u)))
        base = -l * w0 + log_dyad
        if dlt > 35.0:
            return math.exp(base + dlt)
        return math.exp(base) * math.expm1(dlt)

    return summand, summand_float


def _relax_length(beta, c, sq_plus, sq_minus, hw, dim, rel_tol) -> int:
    """Loop length beyond which every dyad-subtracted factor is below
    rel_tol/(3d) in log, so the summand is negligible relative to the dyad."""
    worst = 1.0
    for j in range(dim):
        amp = 1.0 + c[j] * (sq_plus[j] + sq_minus[j])
        u_star = math.log(max(math.e, amp * 3.0 * dim / rel_tol))
        worst = max(worst, u_star / (beta * hw[j]))
    return int(math.ceil(worst))


def _noncond_windows(x, y, eq: Equilibrium, cuts) -> list[float]:
    """Sums over the loop-length windows (cuts[i], cuts[i+1]] of
    e^{-l beta gap} [K(x,y; l beta) - dyad], dyad = Psi0(x)Psi0(y), at the
    gap of eq.

    cuts is nondecreasing, starts at 0 or above and may end at math.inf; an
    empty window gives 0.0.  The geometry, the dyad and the relaxation
    length L* are derived once for all windows.  Terms beyond L* contribute
    below rel_tol relative to the macroscopic tail and are dropped.  Each
    window is one `specfun._series` call, which warns (TruncationWarning)
    when its quadrature error estimate exceeds rel_tol of the window sum.
    """
    if cuts[0] < 0:
        raise DomainError("loop lengths start at 1")
    beta, trap, ctl = eq.beta, eq.trap, eq.ctl
    c, sq_plus, sq_minus, hw = _axis_geometry(x, y, trap)
    log_dyad = log_ground_state_product(x, y, trap)
    w0 = beta * eq.gap
    l_star = _relax_length(beta, c, sq_plus, sq_minus, hw, trap.dim, ctl.rel_tol)
    # headroom covers the (logarithmically growing) subtracted exponent
    cut = (1500.0 - min(log_dyad, 0.0)) / w0 if w0 > 0.0 else math.inf
    a = (beta * hw).tolist()
    axes = list(zip(a, (0.5 * c * sq_plus).tolist(),
                    (0.5 * c * sq_minus).tolist()))
    summand, summand_float = _window_summands(axes, w0, log_dyad)

    sums = []
    for lo, hi in zip(cuts, cuts[1:]):
        l_lo = lo + 1
        upper = min(hi, l_star)
        if cut < 8e18:
            upper = min(upper, l_lo + int(cut) + 1)
        sums.append(_series(summand, l_lo, upper, a + [w0], ctl.rel_tol,
                            summand_float) if upper >= l_lo else 0.0)
    return sums


def _geometric_window(w0: float, lo, hi) -> float:
    """sum_{l=lo+1}^{hi} e^{-l w0}; hi may be math.inf."""
    if hi <= lo:
        return 0.0
    head = math.exp(-(lo + 1) * w0) / (-math.expm1(-w0))
    if math.isinf(hi):
        return head
    return head * (-math.expm1(-(hi - lo) * w0))


def rdm_loops(x, y, eq: Equilibrium) -> float:
    """Reduced density matrix r(x,y) by the loop series at the solved mu."""
    dyad = ground_state_product(x, y, eq.trap)
    return _noncond_windows(x, y, eq, [0, math.inf])[0] \
        + dyad * float(bose(eq.beta * eq.gap))


def noncondensate(x, y, eq: Equilibrium) -> float:
    """rdm_loops minus the ground-state term
    Psi0(x)Psi0(y)/(e^{beta(E0-mu)}-1)."""
    return _noncond_windows(x, y, eq, [0, math.inf])[0]


def rdm_rescaled(x, y, eq: Equilibrium) -> float:
    """|kappa|^{d/2} r(x,y): the combination with a finite open-trap limit
    above criticality."""
    trap = eq.trap
    return trap.kappa_abs ** (trap.dim / 2.0) * rdm_loops(x, y, eq)


def rdm_eigen(x, y, eq: Equilibrium, s_max: int = 200) -> float:
    """Eigenfunction-expansion form r(x,y) = sum_s psi_s(x) psi_s(y) n_s,
    truncated at per-axis quantum number s_max.

    Independent of the loop representation; the truncation tail is bounded
    with the uniform sup bound on normalized oscillator eigenfunctions and a
    TruncationWarning is emitted if the bound exceeds ctl.abs_tol.
    """
    trap, beta, ctl = eq.trap, eq.beta, eq.ctl
    xv, yv = _check_points(x, y, trap)
    w0 = beta * eq.gap
    hw = trap.consts.hbar * axis_omega_kappa(trap)
    a = beta * hw
    consts = trap.consts

    prods = []
    for j in range(trap.dim):
        kappa_eff = hw[j] / (consts.hbar * consts.omega0)
        px = hermite_eigen_table(s_max, float(xv[j]), kappa_eff, consts)
        py = hermite_eigen_table(s_max, float(yv[j]), kappa_eff, consts)
        prods.append(px * py)

    if trap.dim == 1:
        s = np.arange(0, s_max + 1, dtype=float)
        val = float(np.sum(prods[0] * bose(w0 + a[0] * s)))
    else:
        s = np.arange(0, s_max + 1, dtype=float)
        shapes = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)][: trap.dim]
        e = w0 + sum(a[j] * s.reshape(shapes[j]) for j in range(trap.dim))
        weights = bose(e)
        p = prods[0].reshape(shapes[0])
        for j in range(1, trap.dim):
            p = p * prods[j].reshape(shapes[j])
        val = float(np.sum(p * weights))

    c = consts.mass * hw / consts.hbar
    sup = _CRAMER**2 / math.sqrt(math.pi) * float(np.prod(np.sqrt(c)))
    a_min = float(np.min(a))
    tail_bound = sup * trap.dim * float(bose(w0 + a_min * (s_max + 1))) \
        / float(np.prod(-np.expm1(-a)))
    if tail_bound > ctl.abs_tol:
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
                    chi: float) -> tuple[int, int | float, int]:
    """Short cutoff N = floor(kappa^-sigma), upper cutoff
    M = max(N, floor(kappa^-sigma2 e^{chi s})), s = kappa_c^2/kappa^2
    (Quasi1D) or sqrt(kappa_c/kappa) (Quasi2D), and the quasi-2D split point
    S = max(N, floor(kappa^-sigma2 / kappa_perp)) of `aniso.q2d_chi_split`.

    M is an integer, or math.inf once it exceeds 2^62; isotropic traps have
    M = N, and S = N except for Quasi2D.  The macroscopic cutoff is chi = 1
    (Quasi1D) or 2 (Quasi2D).
    """
    n_short = int(math.floor(trap.kappa ** (-ctl.sigma)))
    if isinstance(trap, Isotropic):
        return n_short, n_short, n_short
    split = n_short
    if isinstance(trap, Quasi1D):
        log_m = chi * (trap.kappa_c**2 / trap.kappa**2)
    elif isinstance(trap, Quasi2D):
        log_m = chi * math.sqrt(trap.kappa_c / trap.kappa)
        split = max(int(math.floor(trap.kappa ** (-ctl.sigma2)
                                   / trap.kappas[1])), n_short)
    else:  # pragma: no cover
        raise ModelError("unsupported trap model")
    log_m -= ctl.sigma2 * math.log(trap.kappa)
    if log_m >= 62.0 * math.log(2.0):
        return n_short, math.inf, split
    return n_short, max(math.floor(math.exp(log_m)), n_short), split


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
    n_short, m_macro, _ = _window_cutoffs(
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

    Subcritical: lambda^-d sum_l l^{-d/2} e^{l beta mu0} e^{-pi|x-y|^2/(lambda^2 l)}
    with mu0 < 0 the open-trap chemical potential.  Above nu_c (d=3), or at and
    above nu_c (d=2), the limit is +inf; d=3 exactly at nu_c stays finite.
    """
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != (d,) or yv.shape != (d,):
        raise DomainError(f"points must have dimension {d}")
    lam = de_broglie(beta, consts)
    q = math.pi * float(np.sum((xv - yv) ** 2)) / lam**2

    if d >= 2:
        nu_c = nu_critical(beta, d, consts, ctl)
        if nu > nu_c or (d == 2 and nu >= nu_c * (1.0 - CRITICAL_BAND)):
            return math.inf
        if d == 3 and abs(nu - nu_c) < CRITICAL_BAND * nu_c:
            alpha = 0.0
        else:
            alpha = -beta * mu_open_trap(beta, nu, d, consts, ctl=ctl)
    else:
        alpha = -beta * mu_open_trap(beta, nu, 1, consts, ctl=ctl)

    half = 0.5 * d
    z = math.exp(-alpha)

    def summand(l):
        # z^l = z e^{-alpha(l-1)}: the first term is exact even for z << 1
        return z * np.exp(-alpha * (l - 1.0) - q / l - half * np.log(l))

    if z < 1.0:
        total = _geometric_series(summand, alpha, ctl)
    else:
        # z = 1 (d=3 at nu_c): the direct stretch, then the midpoint-rule
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
                   consts: PhysicalConstants = DEFAULT_CONSTANTS,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> str | None:
    """Tag describing how the open-trap rdm diverges, or None if finite."""
    if d == 1:
        return None
    nu_c = nu_critical(beta, d, consts, ctl)
    if d == 2 and nu >= nu_c * (1.0 - CRITICAL_BAND):
        return "logarithmic-in-kappa"
    if d == 3 and nu > nu_c * (1.0 + CRITICAL_BAND):
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
                       consts: PhysicalConstants = DEFAULT_CONSTANTS,
                       ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Open-trap condensate density, the kappa->0 limit of the rescaled
    diagonal rdm at the trap centre:
    2^{d/2} (hbar omega0 beta)^{d/2} (nu - nu_c) / lambda^d, and 0 unless
    nu > nu_c."""
    nu_c = nu_critical(beta, d, consts, ctl)
    if not nu > nu_c:
        return 0.0
    return 2.0 ** (d / 2.0) * (consts.hbar * consts.omega0 * beta) ** (d / 2.0) \
        * (nu - nu_c) / de_broglie(beta, consts) ** d


def scaled_density_limit(x, delta: float, target: CanonicalTarget, d: int,
                         consts: PhysicalConstants = DEFAULT_CONSTANTS,
                         ctl: SeriesControl = DEFAULT_CONTROL,
                         rescaled: bool = False) -> float | None:
    """Closed-form kappa->0 limit of the delta-scaled density.

    Returns None where no limit is claimed (d=2 noncondensate window).
    Raises RegimeError inside the critical band.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    beta, nu = target.beta, target.nu
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    lam = de_broglie(beta, consts)
    v_x = 0.5 * consts.mass * consts.omega0**2 * float(np.sum(xv**2))
    nu_c = nu_critical(beta, d, consts, ctl)

    if math.isfinite(nu_c) and abs(nu - nu_c) < CRITICAL_BAND * nu_c:
        raise RegimeError("nu inside the critical band")
    if nu < nu_c:
        if rescaled:
            return 0.0
        mu0 = mu_open_trap(beta, nu, d, consts, ctl=ctl)
        z = math.exp(beta * (mu0 - (v_x if delta == 1.0 else 0.0)))
        return polylog(d / 2.0, z, ctl) / lam**d

    # supercritical
    if rescaled:
        amp = condensate_density(beta, nu, d, consts, ctl)
        if delta < 0.5:
            return amp
        if delta == 0.5:
            return amp * math.exp(-consts.mass * consts.omega0
                                  * float(np.sum(xv**2)) / consts.hbar)
        return 0.0
    if d == 2 and delta < 1.0:
        return None
    if delta == 1.0:
        return polylog(d / 2.0, math.exp(-beta * v_x), ctl) / lam**d
    if d == 3 and delta > 0.5:
        return polylog(1.5, 1.0, ctl) / lam**3
    return math.inf


def semiclassical_density(x, beta: float, mu: float, d: int,
                          consts: PhysicalConstants = DEFAULT_CONSTANTS,
                          ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Semiclassical local density lambda^-d g_{d/2}(e^{beta(mu - V(x))})
    with V(x) = m omega0^2 |x|^2 / 2."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (d,):
        raise DomainError(f"point must have dimension {d}")
    v_x = 0.5 * consts.mass * consts.omega0**2 * float(np.sum(xv**2))
    if mu - v_x >= 0.0:
        raise DomainError("semiclassical density requires mu - V(x) < 0")
    lam = de_broglie(beta, consts)
    return polylog(d / 2.0, math.exp(beta * (mu - v_x)), ctl) / lam**d


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


def barometric_radii(target: CanonicalTarget, trap: TrapModel,
                     ctl: SeriesControl = DEFAULT_CONTROL) -> BarometricRadii:
    """<x_j^2> of the two supercritical open-trap profiles in closed form.

    Thermal profile: g_{d/2}(e^{-beta V(r)}); condensate profile:
    e^{-m omega0 r^2 / hbar}.  Requires d in {2,3} and nu > nu_c.
    """
    consts, d = trap.consts, trap.dim
    if d not in (2, 3):
        raise DomainError("barometric radii require d in {2, 3}")
    beta, nu = target.beta, target.nu
    nu_c = _nu_critical_trap(beta, trap, ctl)
    if not nu > nu_c:
        raise RegimeError("barometric radii require nu > nu_c")
    omega0 = trap.omega0
    # per axis <x^2> = zeta(d+1)/(2 b zeta(d)), b = beta m omega0^2/2, for
    # g_{d/2}(e^{-b r^2}), and hbar/(2 m omega0) for e^{-m omega0 r^2/hbar}
    zr = polylog(float(d + 1), 1.0, ctl) / polylog(float(d), 1.0, ctl)
    r2_th = zr / (beta * consts.mass * omega0**2)
    r2_co = consts.hbar / (2.0 * consts.mass * omega0)
    ratio = r2_th / r2_co
    single = 2.0 * zr / (consts.hbar * omega0 * beta)
    double = single / beta
    return BarometricRadii(r2_th, r2_co, ratio, single, double,
                           abs(ratio - double) <= 1e-6 * abs(ratio))
