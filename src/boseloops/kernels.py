"""Heat and Mehler semigroup kernels, trap models, d-dimensional products
and traces.

Trap models carry the per-axis frequency scalings:
  Isotropic: kappa_j = kappa on every axis, frequency omega0;
  Quasi1D:   kappa_1 = kappa*exp(-kappa_c^2/kappa^2), kappa_perp = kappa;
  Quasi2D:   kappa_1 = kappa, kappa_perp = kappa*exp(-sqrt(kappa_c/kappa)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
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
        if self.kappa <= 0:
            raise DomainError("kappa must be positive")

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
        if self.kappa <= 0 or self.kappa_c < 0:
            raise DomainError("kappa must be positive and kappa_c nonnegative")
        if self.omega1 <= 0 or self.omega_perp <= 0:
            raise DomainError("frequencies must be positive")
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
    def kappas(self) -> tuple[float, ...]:
        k1 = self.kappa * math.exp(-self.kappa_c**2 / self.kappa**2)
        return (k1, self.kappa, self.kappa)


@dataclass(frozen=True)
class Quasi2D(_Anisotropic):
    """Transverse frequencies exponentially softer than the longitudinal one."""

    @property
    def kappas(self) -> tuple[float, ...]:
        kp = self.kappa * math.exp(-math.sqrt(self.kappa_c / self.kappa))
        return (self.kappa, kp, kp)


TrapModel = Isotropic | Quasi1D | Quasi2D


def axis_omega_kappa(trap: TrapModel) -> np.ndarray:
    """Per-axis products omega_j * kappa_j."""
    return np.array([w * k for w, k in zip(trap.omegas, trap.kappas)])


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (trap.dim,) or y.shape != (trap.dim,):
        raise DimensionMismatch(
            f"points of dimension {x.shape}/{y.shape} for a {trap.dim}-dimensional trap")
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


def log_ground_state_product(x, y, trap: TrapModel) -> float:
    """log of the ground-state dyad Psi0(x) Psi0(y); finite even where the
    dyad itself underflows (far in the Gaussian tail)."""
    x, y = _check_points(x, y, trap)
    wk = axis_omega_kappa(trap)
    c = trap.consts.mass * wk / trap.consts.hbar
    return 0.5 * float(np.sum(np.log(c / math.pi))) \
        - 0.5 * float(np.sum(c * (x * x + y * y)))


def ground_state_product(x, y, trap: TrapModel) -> float:
    """Ground-state dyad Psi0(x) Psi0(y) = prod_j (c_j/pi)^(1/2)
    exp(-c_j (x_j^2+y_j^2)/2) with c_j = m omega_j kappa_j / hbar."""
    return math.exp(log_ground_state_product(x, y, trap))
