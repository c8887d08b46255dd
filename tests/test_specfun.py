"""Special-function oracles: frozen reference values and dual-route checks."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from boseloops import specfun
from boseloops.errors import DomainError, TruncationWarning
from boseloops.specfun import (DEFAULT_CONSTANTS, DEFAULT_CONTROL,
                               PhysicalConstants, SeriesControl, de_broglie,
                               hermite_eigen_table, polylog)

# frozen reference constants (Riemann zeta values, independently tabulated)
ZETA_3_2 = 2.6123753486854883433
ZETA_2 = 1.6449340668482264365
ZETA_5_2 = 1.3414872572509171798
ZETA_3 = 1.2020569031595942854
# dilogarithm at 1/2: pi^2/12 - ln^2(2)/2
LI2_HALF = 0.5822405264650125059


class TestPolylog:
    @pytest.mark.parametrize("theta,expected", [
        (1.5, ZETA_3_2), (2.0, ZETA_2), (2.5, ZETA_5_2), (3.0, ZETA_3)])
    def test_zeta_values(self, theta, expected):
        assert polylog(theta, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_dilog_half(self):
        assert polylog(2.0, 0.5) == pytest.approx(LI2_HALF, abs=1e-12)

    def test_order_one_closed_form(self):
        for xi in (0.1, 0.5, 0.9, 0.999999):
            assert polylog(1.0, xi) == pytest.approx(-math.log1p(-xi), rel=1e-13)

    def test_matches_direct_series(self):
        # independent brute-force summation
        for theta in (0.5, 1.5, 3.0):
            for xi in (0.3, 0.9):
                n = np.arange(1, 2_000_000, dtype=float)
                brute = float(np.sum(xi**n / n**theta))
                assert polylog(theta, xi) == pytest.approx(brute, rel=1e-12)

    def test_near_one_continuity(self):
        # the Euler-Maclaurin branch must join the direct branch smoothly
        lo = polylog(1.5, math.exp(-0.0100001))
        hi = polylog(1.5, math.exp(-0.0099999))
        assert hi > lo
        assert hi - lo < 1e-4

    def test_near_one_vs_quadrature(self):
        # g_theta(e^-a) = (1/Gamma(theta)) int_0^inf t^{theta-1}/(e^{t+a}-1) dt
        for theta in (1.5, 2.5):
            for alpha in (1e-6, 1e-3):
                val, _ = integrate.quad(
                    lambda t: t ** (theta - 1.0) * math.exp(-t - alpha)
                    / (-math.expm1(-t - alpha)), 0.0, np.inf, limit=200)
                ref = val / special.gamma(theta)
                assert polylog(theta, math.exp(-alpha)) == pytest.approx(
                    ref, rel=1e-8)

    @pytest.mark.parametrize("theta", [0.5, 1.5, 2.5, 3.0])
    def test_near_one_vs_mpmath(self, theta):
        # alpha = 3.3e-3 is where the series first outgrows the direct
        # stretch; the smallest alphas need ~10^13 terms
        with mpmath.workdps(40):
            for alpha in (1e-2, 3.3e-3, 1e-3, 1e-5, 1e-7, 1e-9, 1e-12):
                xi = math.exp(-alpha)
                ref = float(mpmath.polylog(theta, mpmath.mpf(xi)))
                assert polylog(theta, xi) == pytest.approx(ref, rel=1e-13,
                                                           abs=0.0)

    @pytest.mark.parametrize("theta", [1.5, 2.0, 2.5, 3.0, 4.0])
    def test_zeta_vs_mpmath(self, theta):
        # the Euler-Maclaurin remainder of zeta(theta) stops below half an
        # ulp, so only the rounding of the direct sum is left
        with mpmath.workdps(30):
            ref = float(mpmath.zeta(theta))
        assert polylog(theta, 1.0) == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("theta", [0.5, 1.5, 2.5, 3.0])
    def test_small_argument_vs_mpmath(self, theta):
        # g_theta(xi) = xi + xi^2/2^theta + ...: the first term stays exact
        # for xi far below 1
        with mpmath.workdps(40):
            for xi in (1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1e-5,
                       1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
                ref = float(mpmath.polylog(theta, mpmath.mpf(xi)))
                assert polylog(theta, xi) == pytest.approx(ref, rel=1e-15,
                                                           abs=0.0)

    def test_tail_quadrature_error_is_reported(self, monkeypatch):
        # the Euler-Maclaurin tail warns, when it exceeds rel_tol of the
        # sum, with its error estimate: the quadrature's (patched here to
        # the size of the remainder) plus the endpoint remainder
        # (11/720)|third difference of the summand over l1 - 2 ... l1 + 1|,
        # computed here in mpmath; the tail starts at l1 = 10^4 + 1
        xi = math.exp(-1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            ref = polylog(1.5, xi)
        l1 = specfun._DIRECT_CAP + 1
        with mpmath.workdps(40):
            f = [mpmath.mpf(xi) ** l / mpmath.mpf(l) ** 1.5
                 for l in range(l1 - 2, l1 + 2)]
            rem = float(11 * abs(f[3] - 3 * f[2] + 3 * f[1] - f[0]) / 720)
        quad_err = 2.0 * rem
        real = integrate.quad

        def sloppy(*args, **kwargs):
            val, _err = real(*args, **kwargs)
            return val, quad_err
        monkeypatch.setattr(integrate, "quad", sloppy)
        with pytest.warns(TruncationWarning) as record:
            assert polylog(1.5, xi, SeriesControl(rel_tol=1e-30)) == ref
        err, = record[0].message.args
        assert err == pytest.approx(quad_err + rem, rel=1e-3, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            polylog(1.0, 1.0)
        with pytest.raises(DomainError):
            polylog(2.0, 1.5)
        with pytest.raises(DomainError):
            polylog(2.0, -0.1)
        with pytest.raises(DomainError):
            polylog(0.0, 0.5)

    def test_zero_argument(self):
        assert polylog(2.0, 0.0) == 0.0


class TestDeBroglie:
    def test_natural_units(self):
        assert de_broglie(1.0) == pytest.approx(math.sqrt(2.0 * math.pi),
                                                rel=1e-15)

    def test_scaling(self):
        c = PhysicalConstants(hbar=2.0, mass=0.5)
        assert de_broglie(3.0, c) == pytest.approx(
            math.sqrt(2.0 * math.pi * 4.0 * 3.0 / 0.5), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            de_broglie(0.0)


class TestHermite:
    def test_ground_and_first_states(self):
        # psi_0 = (c/pi)^{1/4} e^{-c x^2/2}, psi_1 = sqrt(2c) x psi_0
        c = 0.7
        for x in (-1.3, 0.0, 0.4, 2.0):
            psi0 = (c / math.pi) ** 0.25 * math.exp(-0.5 * c * x * x)
            psi1 = math.sqrt(2.0 * c) * x * psi0
            assert hermite_eigen_table(0, x, c)[0] == pytest.approx(
                psi0, rel=1e-13, abs=1e-300)
            assert hermite_eigen_table(1, x, c)[1] == pytest.approx(
                psi1, rel=1e-13, abs=1e-300)

    def test_orthonormality(self):
        kappa = 0.5
        for s, t in ((0, 0), (3, 3), (7, 7), (2, 5), (0, 8)):
            val, _ = integrate.quad(
                lambda x: hermite_eigen_table(s, x, kappa)[s]
                * hermite_eigen_table(t, x, kappa)[t], -np.inf, np.inf,
                limit=200)
            assert val == pytest.approx(1.0 if s == t else 0.0, abs=1e-10)

    def test_deep_tunneling_finite(self):
        # far in the forbidden region the values underflow to 0, never nan
        tab = hermite_eigen_table(300, 60.0, 1.0)
        assert np.all(np.isfinite(tab))

    def test_domain(self):
        with pytest.raises(DomainError):
            hermite_eigen_table(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            hermite_eigen_table(2, 0.0, 0.0)


class TestConfigObjects:
    def test_series_control_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=0.0)
        # the retired absolute tolerance is no field any more
        with pytest.raises(TypeError):
            SeriesControl(abs_tol=1e-12)

    def test_constants_validation(self):
        with pytest.raises(DomainError):
            PhysicalConstants(hbar=-1.0)

    def test_defaults(self):
        assert DEFAULT_CONTROL.sigma == 1.25
        assert DEFAULT_CONSTANTS.hbar == 1.0


class TestDirectLength:
    """`specfun._direct_length`: the direct stretch after which the endpoint
    Euler-Maclaurin tail leaves a remainder below 1e-4 rel_tol of the sum."""

    @staticmethod
    def _remainder_share(c, n):
        # one exponential e^{-cl} summed from l = 1: n loops directly, then
        # the integral from n + 1, f(n + 1)/2 and f' by central differences
        # over 12; its error against the whole sum e^{-c}/(1 - e^{-c})
        with mpmath.workdps(40):
            c = mpmath.mpf(c)
            tail = mpmath.exp(-c * (n + 1)) / -mpmath.expm1(-c)
            em = mpmath.exp(-c * (n + 1)) / c \
                + mpmath.exp(-c * (n + 1)) / 2 \
                - (mpmath.exp(-c * (n + 2)) - mpmath.exp(-c * n)) / 24
            return float(abs(tail - em) / (mpmath.exp(-c) / -mpmath.expm1(-c)))

    @pytest.mark.parametrize("rate", [0.0, 1e-9, 1e-5, 1e-3, 2.4e-3, 3e-3,
                                      1e-2, 0.1, 0.44, 1.0, 10.0])
    def test_remainder_below_target(self, rate):
        # every exponential that decays at the rate or faster, the slowest
        # included and the worst (c = 4/n) where it is faster, meets
        # 1e-4 rel_tol, the bound the length is built on
        n = specfun._direct_length(rate, DEFAULT_CONTROL.rel_tol)
        assert 2 <= n <= specfun._DIRECT_CAP
        for c in {max(rate, 1e-12), max(rate, 4.0 / n), 2.0 * rate + 1e-12,
                  10.0 * rate + 1e-12}:
            assert self._remainder_share(c, n) <= 1e-14

    def test_continuous_and_falling_in_the_rate(self):
        # the power-law length (1,636 loops at rel_tol 1e-10) meets the
        # exponential one at rate n = 4 without a jump, and the length
        # never grows with the rate
        rates = np.geomspace(1e-4, 10.0, 4001)
        n = np.array([specfun._direct_length(r, DEFAULT_CONTROL.rel_tol)
                      for r in rates])
        assert n[0] == 1_636
        assert np.all(np.diff(n) <= 0)
        # neighbouring rates 0.23% apart move the length by at most 0.4%
        assert np.all(-np.diff(n) <= 0.004 * n[:-1] + 1)

    def test_tolerance_and_cap(self, monkeypatch):
        # the length grows like rel_tol^{-1/4} up to the cap, which is read
        # at call time
        short = specfun._direct_length(1e-6, 1e-6)
        assert short == pytest.approx(1_636 / 10.0, abs=1.0)
        assert specfun._direct_length(1e-6, 1e-30) == specfun._DIRECT_CAP
        monkeypatch.setattr(specfun, "_DIRECT_CAP", 100)
        assert specfun._direct_length(1e-6, 1e-10) == 100
