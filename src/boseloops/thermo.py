"""Bulk grand-canonical quantities: loop-series particle numbers, grand
potential, critical numbers, chemical-potential inversion into a solved
`Equilibrium`, occupations and g-BEC band sums.

The central object is the loop series sum_l z^l Tr G(l beta), with weight 1
for nu = |kappa|^d sum_l z^l Tr G(l beta) and weight 1/l for Omega.  Near
condensation the gap Delta = E0 - mu becomes tiny and naive truncation would
need ~1/(beta*Delta) terms.  The gap-independent product
P_l = prod_j (1-e^{-a_j l})^{-1} is built once per gap solve, in
`_LoopProduct`, for both series, over one direct stretch l <= L: the
length after which every axis has relaxed when that fits in
`specfun._DIRECT_CAP` = 10^4 loops, else the `specfun._direct_length` of
the slowest rate, after which the tail's endpoint remainder is below
1e-4 rel_tol of the sum (1,636 loops at the default rel_tol when the
slowest rate is below about 0.0024).  Each distinct axis rate is evaluated
once, on the prefix of loops where its term is a normal float (a_j l below
about 708.4), so the build takes no exponential of a subnormal and needs no
clamp.  Beyond L, P_l = 1 + (P_l - 1): the P_l = 1 part is summed in closed
form for every trap (for nu the geometric series of the ground-state
occupation, the trace analogue of `rdm`'s dyad; for Omega a logarithm over
all l).  When every axis has relaxed by L (P_l within tolerance of 1), that
is all.  Otherwise, as for the slow axes of the anisotropic models and of
small-kappa isotropic traps, the P_l - 1 part beyond L is an endpoint
Euler-Maclaurin tail whose integral is a fixed composite Gauss-Legendre
rule in log l.  `_LoopProduct` builds one table of loop-length columns
(the stretch, the endpoint lengths L + 1, L + 2 and the rule's nodes) with
log P_l and weight rows per series, so each trial gap, for nu (weight 1)
and Omega (weight 1/l) alike, is one vectorised exponential and a few
weighted sums; the 8-point rule's difference from the 16-point one, plus
the endpoint remainder, is the error estimate checked against rel_tol.  The
summand decays like e^{-(w0 + a_min) l}, and the tail ends after
2000 + |log scale| e-folds of that decay, so the rule never has to resolve
the gap's cut-off e^{-l w0} of the ground-state part.

`solve_gap` inverts nu for the gap by safeguarded Newton steps on log nu
against log Delta (`_newton_root`), from the closed-form `gap_asymptotic`:
each trial gap takes nu and its slope from the same exponentials, the
slope's terms being nu's weighted by the loop length l
(`_LoopProduct.sum_and_slope`).  `mu_open_trap` inverts the open-trap g_d
with the same root finder, on log g_d with slope g_{d-1}/g_d.

`gbec_band_sum` sums occupations over rows of mode levels, each row one
`specfun._series` (a direct stretch of `specfun._DIRECT_CAP` levels, then
the adaptive Euler-Maclaurin tail `specfun._em_sum`) of a Bose factor
times a level degeneracy, along the run of equal axes with the smallest
kappa_j; the other run, if any, numbers the rows.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import specfun
from .errors import (BracketError, DomainError, ModelError, RegimeError,
                     TruncationWarning, check_positive)
from .kernels import (Isotropic, Quasi1D, TrapModel, axis_rates, eigenvalue,
                      ground_energy)
from .specfun import (DEFAULT_CONTROL, PhysicalConstants, SeriesControl,
                      polylog)

# relative half-width of the critical band; read only by `critical_side`
CRITICAL_BAND = 1e-6

_LN2 = math.log(2.0)

# e^{-u} is a normal float while u < _NORMAL_EXP (about 708.4);
# beyond it a loop term log(1 - e^{-u}) is below the smallest normal float
_NORMAL_EXP = -math.log(sys.float_info.min)


def log1mexp(v):
    """log(1 - e^{-v}) for v > 0, stable near both endpoints; each branch
    runs only on the arguments that take it."""
    v = np.asarray(v, dtype=float)
    big = v > _LN2
    small = ~big
    out = np.empty_like(v)
    out[big] = np.log1p(-np.exp(-v[big]))
    out[small] = np.log(-np.expm1(-v[small]))
    return out


def _log1mexp_float(v: float) -> float:
    """`log1mexp` of one float, with the same two branches."""
    if v > _LN2:
        return math.log1p(-math.exp(-v))
    return math.log(-math.expm1(-v))


def bose(v):
    """Bose factor 1/(e^v - 1) for v > 0: e^{-v}, its value to rounding,
    where e^v - 1 overflows (v beyond about 709.78)."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(v)
    # 1/(e^v - 1) is 0 only where e^v - 1 overflowed
    over = out == 0.0
    if over.any():
        out = np.where(over, np.exp(-v), out)
    return out


def _degeneracy(n, k: int):
    """Degeneracy of level n of k = 1, 2 or 3 equal axes."""
    if k == 1:
        return 1.0
    if k == 2:
        return n + 1.0
    return (n + 1.0) * (n + 2.0) / 2.0


@dataclass(frozen=True)
class CanonicalTarget:
    """Target rescaled particle number nu at inverse temperature beta."""

    beta: float
    nu: float

    def __post_init__(self):
        check_positive(self, "beta", "nu")


def _split_axes(a: np.ndarray, ln_fac: float, rel_tol: float):
    """Choose the direct-summation length L and whether an axis is slow.

    L is the loop length beyond which every factor (1-e^{-a_j l})^{-1} is
    within tolerance of 1, when that fits in `specfun._DIRECT_CAP`; then no
    axis is slow.  Else the axes that need longer are slow, the remainder
    beyond L is the Euler-Maclaurin tail, and L is the
    `specfun._direct_length` after which that tail meets its remainder
    target: P_l - 1 decays at the slowest rate or faster, whatever the gap.
    """
    big_l = int(math.ceil(float(np.max(ln_fac / a))))
    if big_l <= specfun._DIRECT_CAP:
        return big_l, False
    return specfun._direct_length(float(np.min(a)), rel_tol), True


# the positive nodes x and their weights of the 16- and 8-point
# Gauss-Legendre rules on [-1, 1] (the roots of the Legendre polynomial P_n,
# weight 2 / ((1 - x^2) P_n'(x)^2)), correctly rounded; each rule also has
# the nodes -x.  Written out, they load no linear algebra and no libm
# trigonometry.
_GAUSS_LEGENDRE = {
    16: ((0.09501250983763744, 0.1894506104550685),
         (0.2816035507792589, 0.18260341504492358),
         (0.45801677765722737, 0.16915651939500254),
         (0.6178762444026438, 0.14959598881657674),
         (0.755404408355003, 0.12462897125553388),
         (0.8656312023878318, 0.09515851168249279),
         (0.9445750230732326, 0.062253523938647894),
         (0.9894009349916499, 0.027152459411754096)),
    8: ((0.1834346424956498, 0.362683783378362),
        (0.525532409916329, 0.31370664587788727),
        (0.7966664774136267, 0.22238103445337448),
        (0.9602898564975363, 0.10122853629037626)),
}


def _unit_panel():
    """The merged nodes of the 16- and 8-point Gauss-Legendre rules on the
    panel [0, 1], ascending, and their weights as two rows (16-point,
    8-point), each zero at the other rule's nodes."""
    merged = sorted((0.5 + 0.5 * sign * x,
                     0.5 * w if n == 16 else 0.0, 0.5 * w if n == 8 else 0.0)
                    for n, rule in _GAUSS_LEGENDRE.items()
                    for x, w in rule for sign in (-1.0, 1.0))
    t, *w = zip(*merged)
    return np.array(t), np.array(w)


_PANEL_NODES, _PANEL_WEIGHTS = _unit_panel()


def _log_product(rates, l: np.ndarray) -> np.ndarray:
    """log P_l = -sum_j log(1 - e^{-a_j l}) at ascending loop lengths l,
    accumulated over the rates in order.  Rate a_j is evaluated only on the
    prefix of l with a_j l < `_NORMAL_EXP`, where its term is a normal
    float; beyond it the term is below the smallest normal float, far under
    half an ulp of the slowest axis's term, so leaving it out moves no bit
    of log P_l.  A rate equal to the one before (adjacent in every trap
    model) reuses its evaluation, and no (axes x l) temporary is made."""
    log_p = np.zeros_like(l)
    prev = None
    for a_j in rates:
        if a_j != prev:
            u = a_j * l
            n = int(np.searchsorted(u, _NORMAL_EXP))
            term = log1mexp(u[:n])
            prev = a_j
        log_p[:n] -= term
    return log_p


class _LoopProduct:
    """Gap-independent part of the loop sums for one (beta, trap, ctl),
    built once per gap solve: the direct length L, the slow axes and a table
    of loop-length columns, the stretch l = 1..L and, with slow axes, L + 1,
    L + 2 and the tail's nodes, with l, log P_l and weight rows per series.
    A trial gap takes one exponential on the first `_columns` and sums it
    times a row: e^{log_scale - l w0} P_l for nu (`sum_and_slope`),
    e^{-l w0} for Omega (`log_partition`, whose rows carry (P_l - 1)/l and
    are built on its first call); each adds the P_l = 1 part beyond L.

    With slow axes the P_l - 1 part beyond L is an endpoint
    Euler-Maclaurin sum: the integral from L + 1 in v = log l plus
    f(L+1)/2 - (f(L+2) - f(L))/24 (central differences for f'(L + 1); the
    terms at the far end are below e^{-2000}).  The integral runs over
    unit-width panels in v, each with merged 16- and 8-point Gauss-Legendre
    nodes, from log(L + 1) to where every rate's term has left the normal
    floats (a_min l = `_NORMAL_EXP`, at most l = 1e306): beyond it
    P_l - 1 is exactly 0.  `_rows` puts the endpoint coefficients at
    L ... L + 2 and the 16-point weights at the nodes, with the P_l - 1
    factor and the Jacobian l as factors, not in the exponent, where they
    would add the rounding of a larger sum; its error rows give |G8 - G16|
    and the endpoint remainder (11/720)|third difference of the summand over
    L - 1 ... L + 2|, which `_check` compares with rel_tol.
    """

    def __init__(self, beta: float, trap: TrapModel, ctl: SeriesControl):
        self.a = axis_rates(beta, trap)
        rates = self.a.tolist()
        self.rel_tol = ctl.rel_tol
        ln_fac = math.log(2.0 * trap.dim / ctl.rel_tol)
        self.big_l, self.slow = _split_axes(self.a, ln_fac, ctl.rel_tol)
        big_l = float(self.big_l)
        self.l = np.arange(1.0, big_l + (3.0 if self.slow else 1.0))
        self.log_p = _log_product(rates, self.l)
        if self.slow:
            self._v1 = math.log(big_l + 1.0)
            self._a_min = min(rates)
            v_end = math.log(min(1e306, _NORMAL_EXP / self._a_min))
            self._panels = math.ceil(v_end - self._v1)
            nodes = np.exp((self._v1 + np.arange(self._panels, dtype=float)
                            [:, None] + _PANEL_NODES).ravel())
            # `_log_product` takes ascending lengths: under a short stretch
            # the first nodes lie below L + 2
            node_log_p = _log_product(
                [a_j for a_j in rates if a_j * nodes[0] < _NORMAL_EXP], nodes)
            self.l = np.concatenate([self.l, nodes])
            self.log_p = np.concatenate([self.log_p, node_log_p])
            # nu's terms carry P_l, so its P_l - 1 factor is 1 - 1/P_l
            self._nu = self._rows(-np.expm1(-self.log_p[self.big_l - 2:]), 1.0)

    def _rows(self, fac: np.ndarray, stretch):
        """One series' row, stretch on l = 1..L, and with slow axes its G8 -
        G16 row at the nodes and its third-difference row over L - 1 ...
        L + 2, for the P_l - 1 factor fac of its terms from L - 1 on."""
        big_l, row = self.big_l, np.zeros(self.l.size)
        row[:big_l] = stretch
        if not self.slow:
            return row, None, None
        row[big_l - 1:big_l + 2] += np.array([1.0 / 24.0, 0.5, -1.0 / 24.0]) \
            * fac[1:4]
        w16, w8 = np.tile(_PANEL_WEIGHTS, self._panels)
        node_fac = fac[4:] * self.l[big_l + 2:]
        row[big_l + 2:] = w16 * node_fac
        return row, (w8 - w16) * node_fac, \
            np.array([-1.0, 3.0, -3.0, 1.0]) * fac[:4]

    @cached_property
    def _omega(self):
        """Omega's rows, on (P_l - 1)/l (+inf where it overflows)."""
        with np.errstate(over="ignore"):
            fac = np.expm1(self.log_p) / self.l
        return self._rows(fac[self.big_l - 2:], fac[:self.big_l])

    def _columns(self, w0: float, log_scale: float) -> int:
        """The columns a trial gap takes: with slow axes, the tail's panels
        only up to l_max = (2000 + |log_scale|) / (w0 + a_min)."""
        if not self.slow:
            return self.l.size
        l_max = min(1e306, (2000.0 + abs(log_scale)) / (w0 + self._a_min))
        return self.big_l + 2 + 24 * min(
            self._panels, max(0, math.ceil(math.log(l_max) - self._v1)))

    def _check(self, rows, e: np.ndarray, total: float):
        """Warn when the tail's error estimate on e exceeds rel_tol |total|."""
        _, diff, d3 = rows
        n = self.big_l + 2
        err = abs(float(np.dot(diff[:e.size - n], e[n:]))) \
            + specfun._EM_REMAINDER * abs(float(np.dot(d3, e[n - 4:n])))
        if err > self.rel_tol * abs(total):
            warnings.warn(TruncationWarning(err))

    def sum(self, w0: float, log_scale: float) -> float:
        """e^{log_scale} sum_{l>=1} e^{-l w0} P_l, by `sum_and_slope`."""
        return self.sum_and_slope(w0, log_scale)[0]

    def sum_and_slope(self, w0: float,
                      log_scale: float) -> tuple[float, float]:
        """The sum s = e^{log_scale} sum_{l>=1} e^{-l w0} P_l, and w0 S with
        S = e^{log_scale} sum_{l>=1} l e^{-l w0} P_l = -ds/dw0, so that
        d log s / d log w0 = -w0 S / s.  s sums nu's row (1 on every column
        without slow axes) times the terms e^{log_scale - l w0} P_l, plus
        the P_l = 1 part beyond L exactly (the ground-state occupation's
        geometric series).  w0 S dots the same products with l, times w0 (a
        row times l, made once, would overflow where the nodes pass
        l = 1e154), and adds the geometric part's l-weighted sum in closed
        form.  S has no error estimate: it only steers the Newton steps of
        `solve_gap`, whose root the sign of s - nu fixes, and which take an
        S beyond the floats (+inf) as no usable slope."""
        m = self._columns(w0, log_scale)
        l = self.l[:m]
        e = np.exp(log_scale - w0 * l + self.log_p[:m])
        terms = self._nu[0][:m] * e if self.slow else e
        total = float(terms.sum())
        slope = w0 * float(np.dot(terms, l))
        # with q = 1 - e^{-w0}: sum_{l>L} e^{-l w0} = g = e^{-(L+1) w0}/q
        # and sum_{l>L} l e^{-l w0} = g (L + 1 + e^{-w0}/q)
        q = -math.expm1(-w0)
        geo = math.exp(log_scale - (self.big_l + 1) * w0) / q
        total += geo
        slope += geo * w0 * (self.big_l + 1 + math.exp(-w0) / q)
        if self.slow:
            self._check(self._nu, e, total)
        return total, slope

    def log_partition(self, w0: float) -> float:
        """sum_{l>=1} e^{-l w0} P_l / l: the P_l = 1 part exactly as
        -log(1 - e^{-w0}), the P_l - 1 part by Omega's row (with fast axes
        only, P_l - 1 < rel_tol / 2 beyond L)."""
        m = self._columns(w0, 0.0)
        e = np.exp(-w0 * self.l[:m])
        total = float((self._omega[0][:m] * e).sum()) - float(log1mexp(w0))
        if self.slow:
            self._check(self._omega, e, total)
        return total


def nu_rescaled(eq: Equilibrium) -> float:
    """Rescaled particle number nu = |kappa|^d sum_l z^l Tr G(l beta).

    Tr G(l beta) = e^{-E0 l beta} P_l, and nu is the ground-state
    occupation's geometric series (the P_l = 1 part, in closed form beyond
    the direct stretch) plus the loop sum of P_l - 1, whose slow-axis tail
    is the quadrature rule of `_LoopProduct`'s columns.  The scale factor is
    applied inside the summation so that nu stays representable even when the
    slowest axis rate (and with it |kappa|^d) underflows any fixed
    floating-point window.
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
    a = axis_rates(eq.beta, trap)
    w0 = eq.beta * eq.gap
    if isinstance(trap, Isotropic):
        n = np.arange(0, n_max + 1, dtype=float)
        val = float(np.sum(_degeneracy(n, trap.d) * bose(w0 + a[0] * n)))
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
    Raises DomainError when Omega lies beyond the float range.
    """
    loops = _LoopProduct(eq.beta, eq.trap, eq.ctl)
    # Omega has no |kappa|^d scale: past the float range (isotropic d = 3
    # at beta = 1: kappa below about 1.7e-103) its sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        log_z = loops.log_partition(eq.beta * eq.gap)
    if not math.isfinite(log_z):
        raise DomainError(f"Omega at kappa={eq.trap.kappa!r} lies beyond "
                          "the float range")
    return -log_z / eq.beta


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
                consts: PhysicalConstants = PhysicalConstants()) -> float:
    """Critical open-trap number: +inf for d=1, zeta(d)/(hbar omega0 beta)^d
    else; it takes no series control (zeta is summed to half an ulp)."""
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    if not beta > 0:
        raise DomainError(f"beta must be positive, not {beta!r}")
    if d == 1:
        return math.inf
    try:
        nu_c = polylog(float(d), 1.0) \
            / (consts.hbar * consts.omega0 * beta) ** d
    except ArithmeticError:  # the power overflowed, or underflowed to 0
        nu_c = math.inf
    if not 0.0 < nu_c < math.inf:
        raise DomainError(f"nu_c at beta={beta!r}, hbar={consts.hbar!r} and "
                          f"omega0={consts.omega0!r} lies beyond the float "
                          "range")
    return nu_c


def _nu_critical_trap(beta: float, trap: TrapModel) -> float:
    """nu_c with the trap's effective omega0 (geometric mean for anisotropic),
    from beta and the trap alone."""
    return nu_critical(beta, trap.dim, replace(trap.consts, omega0=trap.omega0))


def nu_m(beta: float, trap: TrapModel) -> float:
    """Second critical number of the quasi-1D model:
    nu_c + omega_c^2/(hbar beta omega0^3) with omega_c = omega_perp kappa_c,
    a closed form in beta and the trap."""
    if not isinstance(trap, Quasi1D):
        raise ModelError("nu_m is defined for the Quasi1D model only")
    omega_c = trap.omega_perp * trap.kappa_c
    return _nu_critical_trap(beta, trap) + \
        omega_c**2 / (trap.consts.hbar * beta * trap.omega0**3)


def _newton_root(f, x: float, lo: float, hi: float, xtol: float,
                 unbracketed: str) -> float:
    """The root of a decreasing f on [lo, hi] by safeguarded Newton steps
    from x; f(x) returns (f, f').  Every evaluation updates the sign
    bracket: the largest x with f > 0 and the smallest with f < 0, one of
    which is the latest x.  Until both are known, a step that leaves the
    window, or that has no usable slope, goes to the window edge ahead, and
    f keeping its sign there raises BracketError(unbracketed); after that, a
    step that leaves the bracket is replaced by bisection.  Stops when the
    step is at most xtol + 8.9e-16 |x| (the tolerances of scipy's
    brentq)."""
    below = above = None
    while True:
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            below = x
        else:
            above = x
        newton = x - fx / dfx if -math.inf < dfx < 0.0 else math.nan
        if below is None or above is None:
            edge = hi if above is None else lo
            if x == edge:
                raise BracketError(unbracketed)
            step = newton if min(x, edge) <= newton <= max(x, edge) else edge
        elif below < newton < above \
                or abs(newton - x) <= xtol + 8.9e-16 * abs(newton):
            step = newton
        else:
            step = 0.5 * (below + above)
        if abs(step - x) <= xtol + 8.9e-16 * abs(step):
            return step
        x = step


def solve_gap(target: CanonicalTarget, trap: TrapModel,
              ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Invert nu(mu) = target.nu for the gap Delta = E0 - mu > 0.

    Finds the root of log nu(Delta) - log target.nu in x = log(Delta) by
    safeguarded Newton steps (`_newton_root`), from one `_LoopProduct` for
    all trial gaps: each gives nu and its slope d log nu / dx = -w0 S / nu
    from one exponential per loop length (`_LoopProduct.sum_and_slope`).
    The window is [the smallest normal float, E0 + 50/beta] (so every trial
    gap is a normal float, however small E0 is).  The steps start at
    `gap_asymptotic`, clamped into the window; within the critical band,
    where there is no closed-form guess, at the window's upper edge.  log nu
    is nearly linear in log Delta in every regime (nu ~ 1/Delta when
    condensed), so few evaluations are needed.  The gap (not mu) is the
    primary unknown because deep in the condensed regimes Delta is
    exponentially small and would be lost entirely to rounding in E0 - mu.
    Raises BracketError when nu does not cross the target within the window.
    """
    beta, nu = target.beta, target.nu
    e0 = ground_energy(trap)
    log_scale = trap.dim * math.log(trap.kappa_abs)
    log_nu = math.log(nu)
    loops = _LoopProduct(beta, trap, ctl)

    def f(log_delta: float) -> tuple[float, float]:
        w0 = beta * math.exp(log_delta)
        s, slope = loops.sum_and_slope(w0, log_scale)
        if s > 0.0:
            return math.log(s) - log_nu, -slope / s
        return -math.inf, math.nan

    lo_edge = math.log(sys.float_info.min)
    hi_edge = math.log(e0 + 50.0 / beta)

    try:
        guess = gap_asymptotic(target, trap, ctl)
    except RegimeError:
        guess = math.nan
    x = min(max(math.log(guess), lo_edge), hi_edge) \
        if math.isfinite(guess) and guess > 0.0 else hi_edge
    return math.exp(_newton_root(
        f, x, lo_edge, hi_edge, 1e-12,
        f"nu={nu} not bracketed by the gap window "
        f"[{math.exp(lo_edge)}, {math.exp(hi_edge)}]"))


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
        check_positive(self, "beta")
        if not self.gap > 0.0:
            raise DomainError("the gap E0 - mu must be positive")

    @classmethod
    def solve(cls, target: CanonicalTarget, trap: TrapModel,
              ctl: SeriesControl = DEFAULT_CONTROL) -> Equilibrium:
        """The equilibrium at target.nu, by one `solve_gap`."""
        return cls(target.beta, trap, ctl, solve_gap(target, trap, ctl))


def occupation(eq: Equilibrium, s) -> float:
    """Occupation |kappa|^d / (e^{beta Delta + sum_j a_j s_j} - 1) of mode s."""
    trap = eq.trap
    s = tuple(int(v) for v in s)
    if len(s) != trap.dim or any(v < 0 for v in s):
        eigenvalue(trap, s)  # delegate the error reporting
    excite = float(np.dot(axis_rates(eq.beta, trap), np.asarray(s, float)))
    return trap.kappa_abs ** trap.dim * float(bose(eq.beta * eq.gap + excite))


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
    (ground state excluded), one `_band_series` per row of levels.  Adjacent
    axes of equal (kappa_j, rate) form a run, its level n of degeneracy
    `_degeneracy(n, k)` for k axes; each row runs along the run of the
    smallest kappa_j, and the other run (quasi-1D: the perpendicular pair,
    quasi-2D: the stiff axis), if any, numbers the rows."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError("epsilon must lie in (0, 1]")
    trap, rel_tol = eq.trap, eq.ctl.rel_tol
    axes = zip(trap.kappas, axis_rates(eq.beta, trap).tolist())
    runs = [(k_j, a_j, len(list(g))) for (k_j, a_j), g in groupby(axes)]
    if len(runs) > 2:
        raise ModelError("gbec_band_sum takes at most two runs of equal axes")
    (k_s, a_s, d_s), *rows = sorted(runs, key=itemgetter(0))
    k_r, a_r, d_r = rows[0] if rows else (0.0, 0.0, 1)
    w0 = eq.beta * eq.gap
    total = 0.0
    for n in range(int(math.floor(epsilon / k_r)) + 1 if rows else 1):
        total += _degeneracy(n, d_r) * _band_series(
            w0 + a_r * n, a_s, 1 if n == 0 else 0,
            int(math.floor((epsilon - k_r * n) / k_s)),
            lambda m: _degeneracy(m, d_s), rel_tol)
    return trap.kappa_abs ** trap.dim * total


def mu_open_trap(beta: float, nu: float, d: int,
                 consts: PhysicalConstants = PhysicalConstants(),
                 ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Subcritical open-trap chemical potential mu0 < 0 solving
    g_d(e^{beta mu}) = nu (hbar omega0 beta)^d = rhs: log(1 - e^{-rhs}) / beta
    for d = 1, else safeguarded Newton steps (`_newton_root`) on
    log rhs - log g_d(e^x) over x = beta mu in [-745, 0], to rounding, with
    slope -g_{d-1}(e^x) / g_d(e^x) (`polylog` gives g_1(z) = -log(1 - z) in
    closed form).  A residual of at most 4 eps (1 + |log rhs|), the
    rounding of log g_d, counts as 0, so near nu_c the steps end at the
    root rather than bisect through that noise.
    As e^x <= g_d(e^x) <= zeta(d) e^x, the root lies at or above
    log(rhs / zeta(d)), where the steps start."""
    if d not in (1, 2, 3):
        raise DomainError("d must be 1, 2 or 3")
    rhs = nu * (consts.hbar * consts.omega0 * beta) ** d
    if d == 1:
        return _log1mexp_float(rhs) / beta
    zeta = polylog(float(d), 1.0)
    if rhs >= zeta:
        raise RegimeError("nu at or above nu_c: no subcritical open-trap mu")
    log_rhs = math.log(rhs)
    noise = 4.0 * sys.float_info.epsilon * (1.0 + abs(log_rhs))

    def f(x: float) -> tuple[float, float]:
        z = math.exp(x)
        g = polylog(float(d), z, ctl)
        residual = log_rhs - math.log(g)
        if abs(residual) <= noise:
            # a root: `_newton_root` returns without reading the slope
            return 0.0, math.nan
        g_lower = polylog(d - 1.0, z, ctl) if z < 1.0 else math.inf
        return residual, -g_lower / g

    x = max(-745.0, log_rhs - math.log(zeta))
    return _newton_root(f, x, -745.0, 0.0, 1e-300,
                        f"g_{d} = {rhs} not bracketed by beta mu in "
                        "[-745, 0]") / beta


def critical_side(nu: float, critical: float) -> int:
    """The one rule of every regime decision: -1 if nu is below the critical
    number (nu_c or nu_m), 0 within `CRITICAL_BAND` relative of it, +1
    above.  A critical number of +inf (nu_c for d = 1) is never reached."""
    if abs(nu - critical) < CRITICAL_BAND * critical:
        return 0
    return -1 if nu < critical else 1


def gap_asymptotic(target: CanonicalTarget, trap: TrapModel,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Leading-order closed-form prediction for the gap E0 - mu at the
    trap's kappa, per regime (below nu_c the open-trap -mu0 for every
    model).  Raises RegimeError within the critical band of nu_c or nu_m."""
    beta, nu = target.beta, target.nu
    nu_c = _nu_critical_trap(beta, trap)
    side = critical_side(nu, nu_c)
    if side == 0:
        raise RegimeError("nu within the critical band of nu_c")
    if side < 0:
        return -mu_open_trap(beta, nu, trap.dim,
                             replace(trap.consts, omega0=trap.omega0), ctl=ctl)
    if isinstance(trap, Isotropic):
        try:
            return trap.kappa ** trap.d / (beta * (nu - nu_c))
        except OverflowError:
            raise DomainError(f"kappa^d at kappa={trap.kappa!r} lies beyond "
                              "the float range") from None
    # quasi-2D above nu_c, quasi-1D above nu_m
    nu_star = nu_c
    if isinstance(trap, Quasi1D):
        nu_star = nu_m(beta, trap)
        side = critical_side(nu, nu_star)
        if side == 0:
            raise RegimeError("nu within the critical band of nu_m")
        if side < 0:
            return math.exp(-trap.consts.hbar * trap.omega1 * beta
                            * (nu - nu_c) / trap.kappa**2) / beta
    k1, kp, _ = trap.kappas
    return k1 * kp**2 / (beta * (nu - nu_star))
