"""Bulk grand-canonical quantities: loop-series particle numbers, grand
potential, critical numbers, chemical-potential inversion into a solved
`Equilibrium`, occupations and g-BEC band sums.

The central object is the loop series sum_l z^l Tr G(l beta), with weight 1
for nu = |kappa|^d sum_l z^l Tr G(l beta) and weight 1/l for Omega.  Near
condensation the gap Delta = E0 - mu becomes tiny and naive truncation would
need ~1/(beta*Delta) terms.  The gap-independent product
P_l = prod_j (1-e^{-a_j l})^{-1} is built once per gap solve, in
`_LoopProduct`, for both series, over one direct stretch l <= L of at most
`specfun._DIRECT_CAP` = 10^4 loops.  When every axis has relaxed by L (P_l
within tolerance of 1), the remainder is summed in closed form (a geometric
series for nu, a logarithm for Omega).  Otherwise, as for the slow axes of
the anisotropic models and of small-kappa isotropic traps, the remainder
beyond L is the package's one loop-series tail `specfun._em_sum`: an
endpoint Euler-Maclaurin tail whose integral is an adaptive quadrature, with
its error estimate checked against rel_tol; its integrand evaluates log P on
Python floats, one loop length at a time.

`solve_gap` inverts nu for the gap by Brent's method on log nu against
log Delta, from a bracket grown around the closed-form `gap_asymptotic`;
`mu_open_trap` inverts the open-trap g_d the same way, on log g_d.

`gbec_band_sum` sums occupations over rows of mode levels, each row one
`specfun._series` (the same direct stretch and tail) of a Bose factor
times a level weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .errors import BracketError, DomainError, ModelError, RegimeError
from .kernels import (Isotropic, Quasi1D, Quasi2D, TrapModel, axis_omega_kappa,
                      eigenvalue, ground_energy)
from .specfun import (DEFAULT_CONTROL, PhysicalConstants, SeriesControl,
                      _em_sum, polylog)

# window outside which a nu is considered safely away from a critical value
CRITICAL_BAND = 1e-6

_LN2 = math.log(2.0)


def log1mexp(v):
    """log(1 - e^{-v}) for v > 0, stable near both endpoints."""
    v = np.asarray(v, dtype=float)
    big = v > math.log(2.0)
    safe_big = np.where(big, v, 1.0)
    safe_small = np.where(big, 1.0, v)
    return np.where(big, np.log1p(-np.exp(-safe_big)),
                    np.log(-np.expm1(-safe_small)))


def _log1mexp_float(v: float) -> float:
    """`log1mexp` of one float, with the same two branches."""
    if v > _LN2:
        return math.log1p(-math.exp(-v))
    return math.log(-math.expm1(-v))


def bose(v):
    """Bose factor 1/(e^v - 1) for v > 0."""
    return 1.0 / np.expm1(np.asarray(v, dtype=float))


def _iso_degeneracy(n, d: int):
    """Degeneracy of the isotropic level n in d dimensions."""
    if d == 1:
        return 1.0
    if d == 2:
        return n + 1.0
    return (n + 1.0) * (n + 2.0) / 2.0


@dataclass(frozen=True)
class CanonicalTarget:
    """Target rescaled particle number nu at inverse temperature beta."""

    beta: float
    nu: float

    def __post_init__(self):
        if self.beta <= 0 or self.nu <= 0:
            raise DomainError("beta and nu must be positive")


def _axis_rates(beta: float, trap: TrapModel) -> np.ndarray:
    """Per-axis loop decay rates a_j = beta * hbar * omega_j * kappa_j."""
    return beta * trap.consts.hbar * axis_omega_kappa(trap)


def _split_axes(a: np.ndarray, ln_fac: float):
    """Choose the direct-summation length L and identify slow axes.

    L is the loop length beyond which every factor (1-e^{-a_j l})^{-1} is
    within tolerance of 1, capped at `specfun._DIRECT_CAP`; the axes that
    need longer are slow, and the remainder beyond L is then the
    Euler-Maclaurin tail.
    """
    l_req = ln_fac / a
    big_l = int(math.ceil(min(float(np.max(l_req)), specfun._DIRECT_CAP)))
    return big_l, l_req > big_l


class _LoopProduct:
    """Gap-independent part of the loop sums for one (beta, trap, ctl): the
    direct length L, the slow axes and log P_l for l = 1..L.

    `sum` (weight 1, for nu) and `log_partition` (weight 1/l, for Omega) add
    the gap-dependent factor e^{-l w0} and the tail beyond L, so a gap solve
    builds P_l once for all its trial gaps.  The tail is `_em_sum` up to the
    loop length where the gap factor has died out; its integrand calls
    `_log_p` at one loop length at a time, on the rates as Python floats.
    """

    def __init__(self, beta: float, trap: TrapModel, ctl: SeriesControl):
        self.a = _axis_rates(beta, trap)
        self._rates = self.a.tolist()
        self.rel_tol = ctl.rel_tol
        ln_fac = math.log(2.0 * trap.dim / ctl.rel_tol)
        self.big_l, self.slow = _split_axes(self.a, ln_fac)
        self.l = np.arange(1, self.big_l + 1, dtype=float)
        # one axis at a time: no (axes x L) temporaries
        self.log_p = np.zeros_like(self.l)
        for a_j in self.a:
            self.log_p -= log1mexp(np.minimum(a_j * self.l, 745.0))

    def _log_p(self, l: float) -> float:
        """log P(l) at a real loop length l, summed over the axes in order."""
        total = 0.0
        for a in self._rates:
            total += _log1mexp_float(min(a * l, 745.0))
        return -total

    def _tail(self, log_f, w0: float, log_scale: float, total: float) -> float:
        """sum_{l>L} e^{log_f(l)}, ending where the gap factor
        e^{log_scale - l w0} carried by log_f has died out."""
        def f(l: float) -> float:
            val = log_f(l)
            return math.exp(val) if val > -745.0 else 0.0

        l_max = min(1e306, (2000.0 + abs(log_scale)) / w0)
        return _em_sum(f, self.big_l + 1.0, l_max, self._rates + [w0],
                       self.rel_tol, total)

    def sum(self, w0: float, log_scale: float) -> float:
        """e^{log_scale} sum_{l>=1} e^{-l w0} P_l."""
        total = float(np.sum(np.exp(log_scale - self.l * w0 + self.log_p)))
        if not np.any(self.slow):
            return total + math.exp(log_scale - (self.big_l + 1) * w0) \
                / (-math.expm1(-w0))
        return total + self._tail(
            lambda l: log_scale - l * w0 + self._log_p(l), w0, log_scale,
            total)

    def log_partition(self, w0: float) -> float:
        """sum_{l>=1} e^{-l w0} P_l / l: the P_l = 1 part exactly as
        -log(1 - e^{-w0}), the P_l - 1 part over l <= L and, with slow axes,
        the tail (with fast axes only, P_l - 1 < rel_tol / 2 beyond L)."""
        l = self.l
        total = float(np.sum(np.exp(-l * w0) * np.expm1(self.log_p) / l))
        total += -float(log1mexp(w0))
        if not np.any(self.slow):
            return total

        def log_f(l: float) -> float:  # log(P - 1) = log P + log(1 - 1/P)
            log_p = self._log_p(l)
            return -l * w0 + log_p + _log1mexp_float(log_p) - math.log(l)

        return total + self._tail(log_f, w0, 0.0, total)


def nu_rescaled(eq: Equilibrium) -> float:
    """Rescaled particle number nu = |kappa|^d sum_l z^l Tr G(l beta).

    The scale factor is applied inside the summation so that nu stays
    representable even when the slowest axis rate (and with it |kappa|^d)
    underflows any fixed floating-point window.
    """
    trap = eq.trap
    log_scale = trap.dim * math.log(trap.kappa_abs)
    return _LoopProduct(eq.beta, trap, eq.ctl).sum(eq.beta * eq.gap,
                                                   log_scale)


def nu_eigen_sum(eq: Equilibrium, n_max: int = 400) -> float:
    """Eigenvalue-sum form of nu, truncated at per-axis quantum number n_max.

    Independent cross-check of the loop form; exact up to the truncation tail
    (geometric with per-axis ratio e^{-a_j n_max}).
    """
    trap = eq.trap
    a = _axis_rates(eq.beta, trap)
    w0 = eq.beta * eq.gap
    if isinstance(trap, Isotropic):
        n = np.arange(0, n_max + 1, dtype=float)
        val = float(np.sum(_iso_degeneracy(n, trap.d) * bose(w0 + a[0] * n)))
    else:
        grids = np.meshgrid(*[np.arange(0, n_max + 1, dtype=float)] * 3,
                            indexing="ij", sparse=True)
        e = w0 + sum(a[j] * grids[j] for j in range(3))
        val = float(np.sum(bose(e)))
    return trap.kappa_abs ** trap.dim * val


def grand_potential(eq: Equilibrium) -> float:
    """Grand-canonical potential per the loop-trace series
    Omega = -(1/beta) sum_l (z^l / l) Tr G(l beta).

    Writes Tr G(l beta) = e^{-E0 l beta} P_l with P_l -> 1 and resums the
    P_l = 1 part exactly as (1/beta) log(1 - e^{-beta Delta}); the P_l - 1
    part shares the direct stretch and the slow-axis tail of `nu_rescaled`.
    """
    loops = _LoopProduct(eq.beta, eq.trap, eq.ctl)
    return -loops.log_partition(eq.beta * eq.gap) / eq.beta


def nu_open_trap(beta: float, mu: float, d: int,
                 consts: PhysicalConstants = PhysicalConstants(),
                 ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Open-trap limit nu = g_d(e^{beta mu}) / (hbar omega0 beta)^d, mu < 0."""
    if mu >= 0:
        raise DomainError("nu_open_trap requires mu < 0")
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    return polylog(float(d), math.exp(beta * mu), ctl) / \
        (consts.hbar * consts.omega0 * beta) ** d


def nu_critical(beta: float, d: int,
                consts: PhysicalConstants = PhysicalConstants(),
                ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Critical open-trap number: +inf for d=1, g_d(1)/(hbar omega0 beta)^d else."""
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    if beta <= 0:
        raise DomainError("beta must be positive")
    if d == 1:
        return math.inf
    return polylog(float(d), 1.0, ctl) / (consts.hbar * consts.omega0 * beta) ** d


def _nu_critical_trap(beta: float, trap: TrapModel,
                      ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """nu_c with the trap's effective omega0 (geometric mean for anisotropic)."""
    return nu_critical(beta, trap.dim, replace(trap.consts, omega0=trap.omega0),
                       ctl)


def nu_m(beta: float, trap: TrapModel, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Second critical number of the quasi-1D model:
    nu_c + omega_c^2/(hbar beta omega0^3) with omega_c = omega_perp kappa_c."""
    if not isinstance(trap, Quasi1D):
        raise ModelError("nu_m is defined for the Quasi1D model only")
    omega_c = trap.omega_perp * trap.kappa_c
    return _nu_critical_trap(beta, trap, ctl) + \
        omega_c**2 / (trap.consts.hbar * beta * trap.omega0**3)


def solve_gap(target: CanonicalTarget, trap: TrapModel,
              ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Invert nu(mu) = target.nu for the gap Delta = E0 - mu > 0.

    Finds the root of log nu(Delta) - log target.nu in log(Delta) by Brent's
    method, from one `_LoopProduct` for all trial gaps.  The search starts at
    `gap_asymptotic`, clamped into the window [1e-300*E0, E0 + 50/beta], and
    grows a bracket away from it (first step 0.5 in log Delta, each next
    step four times longer) until nu crosses the target; within the
    critical band, where there is no closed-form guess, the bracket is the
    whole window.  log nu is nearly linear in log Delta in every regime
    (nu ~ 1/Delta when condensed), so few evaluations are needed.  The gap
    (not mu) is the primary unknown because deep in the condensed regimes
    Delta is exponentially small and would be lost entirely to rounding in
    E0 - mu.  Raises BracketError when nu does not cross the target within
    the window.
    """
    beta, nu = target.beta, target.nu
    e0 = ground_energy(trap)
    log_scale = trap.dim * math.log(trap.kappa_abs)
    log_nu = math.log(nu)
    loops = _LoopProduct(beta, trap, ctl)

    def f(log_delta: float) -> float:
        s = loops.sum(beta * math.exp(log_delta), log_scale)
        return math.log(s) - log_nu if s > 0.0 else -math.inf

    lo_edge = math.log(1e-300 * e0)
    hi_edge = math.log(e0 + 50.0 / beta)

    def unbracketed() -> BracketError:
        return BracketError(f"nu={nu} not bracketed by the gap window "
                            f"[{math.exp(lo_edge)}, {math.exp(hi_edge)}]")

    try:
        guess = gap_asymptotic(target, trap, ctl)
    except RegimeError:
        guess = math.nan
    if math.isfinite(guess) and guess > 0.0:
        x = min(max(math.log(guess), lo_edge), hi_edge)
        fx = f(x)
        # nu falls as the gap grows: above the target, the root lies up
        up = fx > 0.0
        edge = hi_edge if up else lo_edge
        y, fy, step = x, fx, 0.5
        while fy != 0.0 and (fy > 0.0) == up:
            if y == edge:
                raise unbracketed()
            x, fx = y, fy
            y = min(y + step, edge) if up else max(y - step, edge)
            fy = f(y)
            step *= 4.0
        (lo, f_lo), (hi, f_hi) = sorted([(x, fx), (y, fy)])
    else:
        lo, hi = lo_edge, hi_edge
        f_lo, f_hi = f(lo), f(hi)
        if f_lo < 0.0 or f_hi > 0.0:
            raise unbracketed()
    known = {lo: f_lo, hi: f_hi}
    from scipy import optimize
    root = optimize.brentq(lambda x: known[x] if x in known else f(x),
                           lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    return math.exp(root)


def solve_mu(target: CanonicalTarget, trap: TrapModel,
             ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """mu = E0 - solve_gap.  Note this difference rounds to E0 once the gap
    falls below E0's floating-point resolution; gap-sensitive work should use
    solve_gap directly."""
    return ground_energy(trap) - solve_gap(target, trap, ctl)


@dataclass(frozen=True)
class Equilibrium:
    """A trap at inverse temperature beta with its gap Delta = E0 - mu > 0.

    Every loop-series observable (`nu_rescaled`, `grand_potential`, the `rdm`
    and `aniso` sums, ...) reads the gap from here, so a (target, trap) is
    solved once however many observables are evaluated at it.
    `Equilibrium.solve` finds the gap of a canonical target with one
    `solve_gap`; a gap E0 - mu known from a given mu goes to the constructor.
    """

    beta: float
    trap: TrapModel
    ctl: SeriesControl
    gap: float

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if not self.gap > 0.0:
            raise DomainError("the gap E0 - mu must be positive")

    @classmethod
    def solve(cls, target: CanonicalTarget, trap: TrapModel,
              ctl: SeriesControl = DEFAULT_CONTROL) -> Equilibrium:
        """The equilibrium at target.nu, by one `solve_gap`."""
        return cls(target.beta, trap, ctl, solve_gap(target, trap, ctl))


def occupation(eq: Equilibrium, s) -> float:
    """Occupation |kappa|^d / (e^{beta(E_s - mu)} - 1) at the solved mu."""
    trap = eq.trap
    s = tuple(int(v) for v in s)
    if len(s) != trap.dim or any(v < 0 for v in s):
        eigenvalue(trap, s)  # delegate the error reporting
    wk = axis_omega_kappa(trap)
    excite = trap.consts.hbar * float(np.dot(wk, np.asarray(s, dtype=float)))
    w = eq.beta * (eq.gap + excite)
    return trap.kappa_abs ** trap.dim * float(bose(w))


def _band_series(u0: float, a: float, n0: int, n1: int, weight,
                 rel_tol: float) -> float:
    """sum_{n=n0}^{n1} weight(n) / (e^{u0 + a n} - 1) for u0, a > 0 by
    `specfun._series`; its tail takes the summand on Python floats as
    weight(n) e^{-v} / (1 - e^{-v}), finite for every v = u0 + a n."""
    def f(n):
        return weight(n) * bose(u0 + a * n)

    def f_float(n: float) -> float:
        v = u0 + a * n
        return weight(n) * math.exp(-v) / -math.expm1(-v)

    return specfun._series(f, n0, n1, [a], rel_tol, f_float)


def gbec_band_sum(eq: Equilibrium, epsilon: float) -> float:
    """Sum of occupations over the band 0 < sum_j kappa_j s_j <= epsilon
    (ground state excluded), one `_band_series` per row of levels: the
    isotropic levels, weighted by their degeneracy; for a quasi-1D trap the
    slow-axis levels at each level n of the perpendicular pair, times its
    degeneracy n+1; for a quasi-2D trap the levels n of the degenerate
    pair, weighted by n+1, at each level of the stiff axis."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError("epsilon must lie in (0, 1]")
    trap, rel_tol = eq.trap, eq.ctl.rel_tol
    a = _axis_rates(eq.beta, trap).tolist()
    kap = trap.kappas
    w0 = eq.beta * eq.gap

    if isinstance(trap, Isotropic):
        total = _band_series(w0, a[0], 1, int(math.floor(epsilon / kap[0])),
                             lambda n: _iso_degeneracy(n, trap.d), rel_tol)
    elif isinstance(trap, Quasi1D):
        # fast perpendicular pair (kappa_perp = kappa), slow axis 1
        total = 0.0
        for n_perp in range(int(math.floor(epsilon / kap[1])) + 1):
            s1_hi = int(math.floor((epsilon - kap[1] * n_perp) / kap[0]))
            total += (n_perp + 1) * _band_series(
                w0 + a[1] * n_perp, a[0], 1 if n_perp == 0 else 0, s1_hi,
                lambda n: 1.0, rel_tol)
    elif isinstance(trap, Quasi2D):
        total = 0.0
        for s1 in range(int(math.floor(epsilon / kap[0])) + 1):
            n_hi = int(math.floor((epsilon - kap[0] * s1) / kap[1]))
            total += _band_series(w0 + a[0] * s1, a[1], 1 if s1 == 0 else 0,
                                  n_hi, lambda n: n + 1.0, rel_tol)
    else:  # pragma: no cover
        raise ModelError("unsupported trap model")
    return trap.kappa_abs ** trap.dim * total


def mu_open_trap(beta: float, nu: float, d: int,
                 consts: PhysicalConstants = PhysicalConstants(),
                 ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Subcritical open-trap chemical potential mu0 < 0 solving
    g_d(e^{beta mu}) = nu (hbar omega0 beta)^d: log(1 - e^{-rhs}) / beta
    for d = 1, else Brent's method on log g_d(e^x) - log rhs over
    x = beta mu in [-745, 0], to rounding."""
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    rhs = nu * (consts.hbar * consts.omega0 * beta) ** d
    if d == 1:
        return _log1mexp_float(rhs) / beta
    if rhs >= polylog(float(d), 1.0, ctl):
        raise RegimeError("nu at or above nu_c: no subcritical open-trap mu")
    # log g_d(e^x) is nearly linear in x where g_d(e^x) ~ e^x
    log_rhs = math.log(rhs)

    def f(x: float) -> float:
        return math.log(polylog(float(d), math.exp(x), ctl)) - log_rhs

    from scipy import optimize
    x = optimize.brentq(f, -745.0, 0.0, xtol=1e-300, rtol=8.9e-16,
                        maxiter=200)
    return x / beta


def gap_asymptotic(target: CanonicalTarget, trap: TrapModel,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Leading-order closed-form prediction for the gap E0 - mu at the
    trap's kappa, per regime.  Raises RegimeError within the critical band."""
    beta, nu = target.beta, target.nu
    nu_c = _nu_critical_trap(beta, trap, ctl)
    h = trap.consts.hbar

    def check_away(value, name):
        if math.isfinite(value) and abs(nu - value) < CRITICAL_BAND * value:
            raise RegimeError(f"nu within the critical band of {name}")

    def open_trap_gap():
        return -mu_open_trap(beta, nu, trap.dim,
                             replace(trap.consts, omega0=trap.omega0), ctl=ctl)

    check_away(nu_c, "nu_c")
    if isinstance(trap, Isotropic):
        if trap.d == 1 or nu < nu_c:
            return open_trap_gap()
        return trap.kappa ** trap.d / (beta * (nu - nu_c))
    if isinstance(trap, Quasi1D):
        numm = nu_m(beta, trap, ctl)
        check_away(numm, "nu_m")
        if nu < nu_c:
            return open_trap_gap()
        if nu < numm:
            return math.exp(-h * trap.omega1 * beta * (nu - nu_c)
                            / trap.kappa**2) / beta
        k1, kp, _ = trap.kappas
        return k1 * kp**2 / (beta * (nu - numm))
    if isinstance(trap, Quasi2D):
        if nu < nu_c:
            return open_trap_gap()
        k1, kp, _ = trap.kappas
        return k1 * kp**2 / (beta * (nu - nu_c))
    raise ModelError("unsupported trap model")  # pragma: no cover

