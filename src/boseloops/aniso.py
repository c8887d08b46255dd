"""Quasi-1D and quasi-2D specializations: regime classification, mesoscopic
loop-window sums and their closed-form predictors.

Both anisotropic models share the loop-window engine of `rdm`, and every
window is summed at the gap of one solved `thermo.Equilibrium`; what differs
is where the windows are cut and which closed form the window is compared
against.  Quasi-1D has a second critical number nu_m and a mesoscopic sum
that diverges (as kappa -> 0) like a known exponential; quasi-2D has no
generalized condensate, and its mesoscopic window converges to a finite
additional term independent of position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ModelError, RegimeError
from .kernels import (Isotropic, Quasi1D, Quasi2D, TrapModel,
                      axis_inverse_lengths, axis_rates)
from .rdm import _noncond_windows, _window_cutoffs
from .specfun import de_broglie, polylog
from .thermo import (CanonicalTarget, Equilibrium, _nu_critical_trap,
                     critical_side, nu_m)


@dataclass(frozen=True)
class AnisotropicRegime:
    """Condensation regime of an anisotropic trap.

    tag: 'subcritical', 'gbec_only' or 'coexistence' (Quasi1D),
    'supercritical' (Quasi2D); eta = nu/nu_c; critical_boundary marks nu
    within the critical band (`thermo.critical_side`) of nu_c or nu_m, where
    `thermo.gap_asymptotic` raises.
    """

    tag: str
    eta: float
    critical_boundary: bool


def classify(target: CanonicalTarget, trap: TrapModel) -> AnisotropicRegime:
    """Regime of (beta, nu) relative to nu_c (and nu_m for Quasi1D), both
    closed forms in beta and the trap."""
    if isinstance(trap, Isotropic):
        raise ModelError("classify applies to anisotropic traps")
    beta, nu = target.beta, target.nu
    nu_c = _nu_critical_trap(beta, trap)
    eta = nu / nu_c
    boundary = critical_side(nu, nu_c) == 0
    if isinstance(trap, Quasi1D):
        numm = nu_m(beta, trap)
        boundary = boundary or critical_side(nu, numm) == 0
        if nu < nu_c:
            tag = "subcritical"
        elif nu < numm:
            tag = "gbec_only"
        else:
            tag = "coexistence"
    else:
        tag = "subcritical" if nu < nu_c else "supercritical"
    return AnisotropicRegime(tag, eta, boundary)


def meso_q1d(x, y, eq: Equilibrium) -> float:
    """log of the mesoscopic (dyad-subtracted) loop-window sum for Quasi1D,
    window (N, M] with N = floor(kappa^-sigma) and the macroscopic cutoff
    M = floor(kappa^-sigma2 e^{kappa_c^2/kappa^2}) of `rdm.loop_decompose`
    (treated as infinite once it exceeds 2^62)."""
    if not isinstance(eq.trap, Quasi1D):
        raise ModelError("meso_q1d requires a Quasi1D trap")
    n_short, m = _window_cutoffs(eq.trap, eq.ctl, 1.0)
    val = _noncond_windows(x, y, eq, [n_short, m])[0]
    if not val > 0.0:
        raise DomainError("mesoscopic window sum is not positive; no log")
    return math.log(val)


@dataclass(frozen=True)
class MesoPrediction:
    """Closed-form prediction for log of the Quasi1D mesoscopic sum:
    log = log_prefactor + exponent, the prefactor
    m omega_perp kappa_perp / (sqrt(pi) hbar lambda)."""

    regime: str
    exponent: float
    log_prefactor: float

    @property
    def log_value(self) -> float:
        return self.log_prefactor + self.exponent


def meso_q1d_prediction(target: CanonicalTarget,
                        trap: Quasi1D) -> MesoPrediction:
    """Predicted asymptotics of the Quasi1D mesoscopic sum for nu > nu_c, in
    the regime of `classify`: exponent g_3(1)(eta-1)/(2 a_perp^2), a_perp of
    `axis_rates`, for 'gbec_only', omega_c^2/(2 omega_perp^2 kappa^2) else.
    A closed form: no series control is taken."""
    if not isinstance(trap, Quasi1D):
        raise ModelError("meso_q1d_prediction requires a Quasi1D trap")
    beta = target.beta
    if not target.nu > _nu_critical_trap(beta, trap):
        raise RegimeError("mesoscopic prediction applies for nu > nu_c")
    regime = classify(target, trap)
    if regime.tag == "gbec_only":
        exponent = polylog(3.0, 1.0) * (regime.eta - 1.0) \
            / (2.0 * float(axis_rates(beta, trap)[1]) ** 2)
    else:
        omega_c = trap.omega_perp * trap.kappa_c
        exponent = omega_c**2 / (2.0 * trap.omega_perp**2 * trap.kappa**2)
    pref = float(axis_inverse_lengths(trap)[1]) \
        / (math.sqrt(math.pi) * de_broglie(beta, trap.consts))
    return MesoPrediction(regime.tag, exponent, math.log(pref))


def q2d_additional_limit(beta: float, trap: Quasi2D) -> float:
    """Printed closed-form kappa -> 0 value of the quasi-2D additional term:
    2 sqrt(m omega_c / (pi hbar)) / lambda^2 with omega_c = omega_1 kappa_c.

    The window of `additional_q2d` tends to one half of this value.  For
    l > N = floor(kappa^-sigma) the fast axis has relaxed to psi_1(x_1)^2,
    and the two slow axes leave the dyad-subtracted summand
    psi_1^2 (c_perp/pi) / (e^{2 beta hbar omega_perp kappa_perp l} - 1),
    c_perp = m omega_perp kappa_perp / hbar.  Summed over l > N this is
    psi_1^2 log(1/(2 beta hbar omega_perp kappa_perp N)) / lambda^2 to
    leading order, and with kappa_perp = kappa e^{-sqrt(kappa_c/kappa)} it
    tends to sqrt(m omega_c / (pi hbar)) / lambda^2.  The printed factor 2
    would need the slow axes to stay unrelaxed up to chi = 2, i.e.
    kappa_perp = kappa e^{-2 sqrt(kappa_c/kappa)}; which side is meant is
    not settled.  It is formed from m/hbar and beta hbar, as loop sums are.
    """
    m_hbar = trap.consts.mass / trap.consts.hbar
    omega_c = trap.omega1 * trap.kappa_c
    return 2.0 * math.sqrt(m_hbar * omega_c / math.pi) * m_hbar \
        / (2.0 * math.pi * (beta * trap.consts.hbar))


def additional_q2d(x, y, eq: Equilibrium, chi: float = 2.0) -> float:
    """Quasi-2D mesoscopic (dyad-subtracted) loop-window sum, window
    (N, M~] with N = floor(kappa^-sigma) and
    M~ = floor(kappa^-sigma2 e^{chi sqrt(kappa_c/kappa)})."""
    if not isinstance(eq.trap, Quasi2D):
        raise ModelError("additional_q2d requires a Quasi2D trap")
    if chi <= 0:
        raise DomainError("chi must be positive")
    n_short, m = _window_cutoffs(eq.trap, eq.ctl, chi)
    return _noncond_windows(x, y, eq, [n_short, m])[0]


@dataclass(frozen=True)
class ChiSplit:
    """Quasi-2D mesoscopic window split at the intermediate cutoff
    floor(kappa^-sigma2 / kappa_perp): the two windows' sums and
    predicted_half, one half of `q2d_additional_limit`.

    The relaxed slow-axis summand (see `q2d_additional_limit`) has decayed by
    l ~ 1/(2 kappa_perp), so with the documented model nearly all of the
    window lies in first_half, which tends to predicted_half; second_half
    falls off like sqrt(kappa) (1% of predicted_half at kappa=0.005).
    """

    first_half: float
    second_half: float
    predicted_half: float


def q2d_chi_split(x, y, eq: Equilibrium) -> ChiSplit:
    """Split the chi=2 window at floor(kappa^-sigma2 / kappa_perp), 1/kappa
    times the chi=1 cutoff of `additional_q2d` (1,750 against 87 at
    kappa=0.05), and report both partial sums.

    The documented window puts its mass in the first part; equal halves
    would need kappa_perp = kappa e^{-2 sqrt(kappa_c/kappa)} (see
    `q2d_additional_limit`).
    """
    trap = eq.trap
    if not isinstance(trap, Quasi2D):
        raise ModelError("q2d_chi_split requires a Quasi2D trap")
    n_short, m = _window_cutoffs(trap, eq.ctl, 2.0)
    mid = max(int(math.floor(trap.kappa ** (-eq.ctl.sigma2)
                             / trap.kappas[1])), n_short)
    first, second = _noncond_windows(x, y, eq, [n_short, mid, max(m, mid)])
    return ChiSplit(first, second,
                    0.5 * q2d_additional_limit(eq.beta, trap))
