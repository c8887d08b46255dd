"""Heat and Mehler semigroup kernels, trap models, d-dimensional products
and traces.

Trap models carry the per-axis frequency scalings:
  Isotropic: kappa_j = kappa on every axis, frequency omega0;
  Quasi1D:   kappa_1 = kappa*exp(-kappa_c^2/kappa^2), kappa_perp = kappa;
  Quasi2D:   kappa_1 = kappa, kappa_perp = kappa*exp(-sqrt(kappa_c/kappa)).
Each anisotropic model's `suppression` is that exponent.  Every loop series
takes its per-axis rates and inverse lengths from `axis_rates` and
`axis_inverse_lengths`; the oracle kernels keep their own forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, check_positive
from .specfun import DEFAULT_CONSTANTS, PhysicalConstants


def _log_sinh(u):
    """log(sinh(u)) for u > 0, stable for both tiny and huge u."""
    u = np.asarray(u, dtype=float)
    small = u < 1e-3
    safe = np.where(small, 1.0, u)
    out = np.where(small,
                   np.log(np.where(u > 0, u, 1.0)) + np.log1p(u * u / 6.0),
                   safe + np.log1p(-np.exp(-2.0 * safe)) - math.log(2.0))
    return out


def _coth(v):
    """coth(v) for v > 0 with a series fallback below 1e-6."""
    v = np.asarray(v, dtype=float)
    small = v < 1e-6
    safe = np.where(small, 1.0, v)
    return np.where(small, 1.0 / np.where(v > 0, v, 1.0) + v / 3.0,
                    1.0 / np.tanh(safe))


@dataclass(frozen=True)
class Isotropic:
    """Isotropic trap in d dimensions with per-axis frequency omega0*kappa."""

    d: int
    kappa: float
    consts: PhysicalConstants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2 or 3")
        check_positive(self, "kappa")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def omega0(self) -> float:
        return self.consts.omega0

    @property
    def kappas(self) -> tuple[float, ...]:
        return (self.kappa,) * self.d

    @property
    def omegas(self) -> tuple[float, ...]:
        return (self.consts.omega0,) * self.d

    @property
    def kappa_abs(self) -> float:
        return self.kappa


@dataclass(frozen=True)
class _Anisotropic:
    """Shared plumbing of the two 3-dimensional anisotropic models."""

    kappa: float
    kappa_c: float
    omega1: float = 1.0
    omega_perp: float = 1.0
    consts: PhysicalConstants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        check_positive(self, "kappa", "omega1", "omega_perp")
        if not self.kappa_c >= 0:
            raise DomainError(
                f"kappa_c must be nonnegative, not {self.kappa_c!r}")
        # kappa_abs is the cube root of the product of the kappa_j
        k = self.kappas
        if min(*k, k[0] * k[1] * k[2]) < sys.float_info.min:
            raise DomainError(
                f"kappa={self.kappa!r} is too small for kappa_c="
                f"{self.kappa_c!r}: an axis scaling kappa_j or their product "
                "falls below the smallest normal float")

    @property
    def dim(self) -> int:
        return 3

    @property
    def omega0(self) -> float:
        return (self.omega1 * self.omega_perp**2) ** (1.0 / 3.0)

    @property
    def omegas(self) -> tuple[float, ...]:
        return (self.omega1, self.omega_perp, self.omega_perp)

    @property
    def kappa_abs(self) -> float:
        k = self.kappas
        return (k[0] * k[1] * k[2]) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Quasi1D(_Anisotropic):
    """Longitudinal frequency exponentially softer than the transverse ones."""

    @property
    def suppression(self) -> float:
        """kappa_c^2/kappa^2: kappa_1 = kappa e^{-suppression}."""
        return self.kappa_c**2 / self.kappa**2

    @property
    def kappas(self) -> tuple[float, ...]:
        k1 = self.kappa * math.exp(-self.suppression)
        return (k1, self.kappa, self.kappa)


@dataclass(frozen=True)
class Quasi2D(_Anisotropic):
    """Transverse frequencies exponentially softer than the longitudinal one."""

    @property
    def suppression(self) -> float:
        """sqrt(kappa_c/kappa): kappa_perp = kappa e^{-suppression}."""
        return math.sqrt(self.kappa_c / self.kappa)

    @property
    def kappas(self) -> tuple[float, ...]:
        kp = self.kappa * math.exp(-self.suppression)
        return (self.kappa, kp, kp)


TrapModel = Isotropic | Quasi1D | Quasi2D


def axis_omega_kappa(trap: TrapModel) -> np.ndarray:
    """Per-axis products omega_j * kappa_j."""
    return np.array([w * k for w, k in zip(trap.omegas, trap.kappas)])


def axis_rates(beta: float, trap: TrapModel) -> np.ndarray:
    """Per-axis loop decay rates a_j = (beta hbar) omega_j kappa_j."""
    return beta * trap.consts.hbar * axis_omega_kappa(trap)


def axis_inverse_lengths(trap: TrapModel) -> np.ndarray:
    """Per-axis inverse square lengths c_j = (m/hbar) omega_j kappa_j."""
    return trap.consts.mass / trap.consts.hbar * axis_omega_kappa(trap)


def ground_energy(trap: TrapModel) -> float:
    """E0 = sum_j hbar omega_j kappa_j / 2."""
    return 0.5 * trap.consts.hbar * float(np.sum(axis_omega_kappa(trap)))


def eigenvalue(trap: TrapModel, s) -> float:
    """E_s = sum_j hbar omega_j kappa_j (s_j + 1/2)."""
    s = tuple(int(v) for v in s)
    if len(s) != trap.dim:
        raise DimensionMismatch(f"index length {len(s)} != trap dimension {trap.dim}")
    if any(v < 0 for v in s):
        raise DomainError("eigenvalue indices must be nonnegative")
    wk = axis_omega_kappa(trap)
    return trap.consts.hbar * float(np.dot(wk, np.asarray(s) + 0.5))


def heat_kernel_1d(x: float, y: float, t: float,
                   consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Free heat kernel sqrt(m/(2 pi hbar^2 t)) exp(-m(x-y)^2/(2 hbar^2 t))."""
    if t <= 0:
        raise DomainError("t must be positive")
    a = consts.mass / (2.0 * math.pi * consts.hbar**2 * t)
    return math.sqrt(a) * math.exp(-math.pi * a * (x - y) ** 2)


def log_mehler_kernel_1d(x, y, t, omega_kappa: float,
                         consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """log of the 1D Mehler kernel; vectorized over t (t > 0 required).

    The exponent form keeps the kernel usable for loop lengths up to
    ~exp(kappa_c^2/kappa^2) where the linear-domain value underflows.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("t must be positive")
    if omega_kappa <= 0:
        raise DomainError("omega_kappa must be positive")
    c = consts.mass * omega_kappa / consts.hbar
    u = consts.hbar * omega_kappa * t
    half = 0.5 * u
    quad = (x + y) ** 2 * np.tanh(half) + (x - y) ** 2 * _coth(half)
    return 0.5 * (math.log(c / (2.0 * math.pi)) - _log_sinh(u)) - 0.25 * c * quad


def mehler_kernel_1d(x: float, y: float, t: float, omega_kappa: float,
                     consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """1D Mehler kernel of the harmonic semigroup with frequency omega*kappa."""
    return float(np.exp(log_mehler_kernel_1d(x, y, t, omega_kappa, consts)))


def _check_points(x, y, trap: TrapModel):
    """x and y as arrays of the trap's dimension.  Raises DomainError unless
    c_j (|x_j| + |y_j|)^2 < 1e300 on every axis (c_j of
    `axis_inverse_lengths`): then no kernel exponent c (x -+ y)^2, c x y or
    c (x^2 + y^2), nor a sum of them over the axes, overflows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (trap.dim,) or y.shape != (trap.dim,):
        raise DimensionMismatch(
            f"points of dimension {x.shape}/{y.shape} for a {trap.dim}-dimensional trap")
    with np.errstate(over="ignore", invalid="ignore"):
        reach = axis_inverse_lengths(trap) * (np.abs(x) + np.abs(y)) ** 2
    if not (reach < 1e300).all():
        raise DomainError(f"points x={x.tolist()} and y={y.tolist()} lie "
                          "beyond the float range of the kernel exponents")
    return x, y


def log_kernel_d(x, y, t, trap: TrapModel):
    """log of the d-dimensional product kernel; vectorized over t."""
    x, y = _check_points(x, y, trap)
    wk = axis_omega_kappa(trap)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for j in range(trap.dim):
        out = out + log_mehler_kernel_1d(x[j], y[j], t, wk[j], trap.consts)
    return out


def kernel_d(x, y, t: float, trap: TrapModel) -> float:
    """d-dimensional Mehler kernel: product of per-axis 1D kernels."""
    return float(np.exp(log_kernel_d(x, y, t, trap)))


def log_semigroup_trace(t, trap: TrapModel):
    """log of prod_j (2 sinh(hbar omega_j kappa_j t / 2))^-1; vectorized."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("t must be positive")
    wk = axis_omega_kappa(trap)
    out = np.zeros_like(t)
    for j in range(trap.dim):
        u = 0.5 * trap.consts.hbar * wk[j] * t
        out = out - (math.log(2.0) + _log_sinh(u))
    return out


def semigroup_trace(t: float, trap: TrapModel) -> float:
    """Trace of the d-dimensional semigroup at time t."""
    return float(np.exp(log_semigroup_trace(t, trap)))


def _log_dyad(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> float:
    """log Psi0(x) Psi0(y) at checked points, c of `axis_inverse_lengths`."""
    return 0.5 * float(np.sum(np.log(c / math.pi))) \
        - 0.5 * float(np.sum(c * (x * x + y * y)))


def log_ground_state_product(x, y, trap: TrapModel) -> float:
    """log of the ground-state dyad Psi0(x) Psi0(y); finite even where the
    dyad itself underflows (far in the Gaussian tail)."""
    x, y = _check_points(x, y, trap)
    return _log_dyad(x, y, axis_inverse_lengths(trap))


def ground_state_product(x, y, trap: TrapModel) -> float:
    """Ground-state dyad Psi0(x) Psi0(y) = prod_j (c_j/pi)^(1/2)
    exp(-c_j (x_j^2+y_j^2)/2) with c_j = `axis_inverse_lengths`; raises
    DomainError where the dyad overflows."""
    log_dyad = log_ground_state_product(x, y, trap)
    try:
        return math.exp(log_dyad)
    except OverflowError:
        raise DomainError(
            f"the ground-state dyad at mass={trap.consts.mass!r}, "
            f"hbar={trap.consts.hbar!r} and kappa={trap.kappa!r} lies "
            "beyond the float range") from None
