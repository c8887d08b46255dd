"""Inequality and property-based tests.

The hyperbolic and exponential bounds below underpin the convergence
estimates used throughout the series engines; they are checked numerically
on a dense sample, using the package's stable helpers where one exists.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boseloops.aniso import (additional_q2d, meso_q1d, q2d_additional_limit,
                             q2d_chi_split)
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, _coth, _log_sinh,
                               mehler_kernel_1d)
from boseloops.rdm import loop_decompose, rdm_columns, rdm_loops
from boseloops.specfun import DEFAULT_CONTROL, PhysicalConstants, polylog
from boseloops.thermo import (CanonicalTarget, Equilibrium, bose,
                              gbec_band_sum, log1mexp, nu_rescaled,
                              occupation)

RNG = np.random.default_rng(20260824)
X_SAMPLE = RNG.uniform(0.0, 100.0, size=10_000)
X_POS = X_SAMPLE[X_SAMPLE > 0.0]


class TestHyperbolicBounds:
    def test_cosh_bounds(self):
        # 1 <= cosh x <= e^x
        c = np.cosh(X_SAMPLE)
        assert np.all(c >= 1.0)
        assert np.all(c <= np.exp(X_SAMPLE))

    def test_sinh_bounds(self):
        # x <= sinh x <= e^x / 2, via the log-stable helper
        s = np.exp(_log_sinh(X_POS))
        assert np.all(s >= X_POS)
        # the ratio approaches 1/2 from below; allow a few ulp of rounding
        assert np.all(np.exp(_log_sinh(X_POS) - X_POS) <= 0.5 * (1.0 + 1e-14))

    def test_tanh_bounds(self):
        t = np.tanh(X_SAMPLE)
        assert np.all(t >= 0.0)
        assert np.all(t <= 1.0)

    def test_coth_bounds(self):
        # 1/x <= coth x <= (1 + x)/x for x > 0
        c = _coth(X_POS)
        assert np.all(c >= 1.0 / X_POS)
        assert np.all(c <= (1.0 + X_POS) / X_POS)


class TestExponentialBounds:
    def test_one_minus_exp_bounds(self):
        # x/(1+x) < 1 - e^{-x} < x for x > 0, with 1 - e^{-x} from log1mexp
        om = np.exp(log1mexp(X_POS))
        assert np.all(om > X_POS / (1.0 + X_POS))
        assert np.all(om < X_POS)

    def test_expm1_bounds(self):
        # x <= e^x - 1 <= x e^x
        e = np.expm1(X_POS)
        assert np.all(e >= X_POS)
        assert np.all(e <= X_POS * np.exp(X_POS))

    @pytest.mark.parametrize("p,q", [(0.5, 1.0), (1.0, 0.3), (2.0, 1.0),
                                     (3.0, 0.05), (1.5, 2.0)])
    def test_power_times_exponential_bound(self, p, q):
        # x^p e^{-qx} <= (2p/(e q))^p e^{-qx/2}, proved by maximizing the
        # left side against the half-rate envelope; checked in log form
        lhs = p * np.log(X_POS) - q * X_POS
        rhs = p * (math.log(2.0 * p / q) - 1.0) - 0.5 * q * X_POS
        assert np.all(lhs <= rhs + 1e-12)


class TestHypothesisProperties:
    @given(theta=st.floats(0.6, 4.0), xi=st.floats(0.01, 0.95))
    def test_polylog_monotone(self, theta, xi):
        # increasing in xi, decreasing in theta
        assert polylog(theta, xi * 1.02) > polylog(theta, xi)
        assert polylog(theta + 0.3, xi) < polylog(theta, xi)

    @given(u=st.floats(1e-10, 500.0))
    def test_log1mexp_matches_direct(self, u):
        direct = math.log(-math.expm1(-u))
        assert float(log1mexp(u)) == pytest.approx(direct, rel=1e-12)

    @given(gap=st.floats(1e-6, 5.0))
    def test_bose_positive_decreasing(self, gap):
        assert 0.0 < float(bose(2.0 * gap)) < float(bose(gap))

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0),
           t=st.floats(0.05, 5.0), wk=st.floats(0.05, 2.0))
    def test_mehler_positive_symmetric(self, x, y, t, wk):
        k = mehler_kernel_1d(x, y, t, wk)
        assert k > 0.0
        assert k == pytest.approx(mehler_kernel_1d(y, x, t, wk), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(nu=st.floats(0.1, 20.0), kappa=st.floats(0.05, 0.9))
    def test_gap_solver_residual(self, nu, kappa):
        trap = Isotropic(3, kappa)
        eq = Equilibrium.solve(CanonicalTarget(1.0, nu), trap)
        assert nu_rescaled(eq) == pytest.approx(nu, rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(nu=st.floats(0.5, 5.0), x0=st.floats(-1.0, 1.0),
           y0=st.floats(-1.0, 1.0))
    def test_rdm_symmetry_and_cauchy_schwarz(self, nu, x0, y0):
        eq = Equilibrium.solve(CanonicalTarget(1.0, nu), Isotropic(1, 0.4))
        x, y = np.array([x0]), np.array([y0])
        rxy = rdm_loops(x, y, eq)
        assert rxy == pytest.approx(rdm_loops(y, x, eq), rel=1e-11)
        assert rxy ** 2 <= rdm_loops(x, x, eq) \
            * rdm_loops(y, y, eq) * (1.0 + 1e-11)

    @settings(max_examples=15, deadline=None)
    @given(nu=st.floats(0.5, 6.0), kappa=st.floats(0.15, 0.6))
    def test_loop_partition_exact(self, nu, kappa):
        trap = Quasi1D(kappa, 1.0)
        dec = loop_decompose(np.zeros(3), np.zeros(3),
                             Equilibrium.solve(CanonicalTarget(1.0, nu), trap))
        assert dec.short_sum + dec.meso_sum + dec.macro_sum == dec.total


def _loop_observables(eq):
    """Every loop-engine result of eq at one off-diagonal pair, the
    model-specific windows and the quasi-2D closed-form limit included;
    Omega is left out, since its division by beta adds a rounding of its
    own."""
    x, y = np.array([0.5, 0.2, 0.0]), np.array([0.1, 0.0, 0.0])
    out = {"nu_rescaled": nu_rescaled(eq),
           "occupation": occupation(eq, (1, 2, 0)),
           "gbec_band_sum": gbec_band_sum(eq, 0.05),
           "rdm_columns": rdm_columns(x, y, eq),
           "loop_decompose": loop_decompose(x, y, eq)}
    if isinstance(eq.trap, Quasi1D):
        out["meso_q1d"] = meso_q1d(x, y, eq)
    if isinstance(eq.trap, Quasi2D):
        split = q2d_chi_split(x, y, eq)
        out["additional_q2d"] = additional_q2d(x, y, eq)
        out["q2d_chi_split"] = (split.first_half, split.second_half,
                                split.predicted_half)
        out["q2d_additional_limit"] = q2d_additional_limit(eq.beta, eq.trap)
    return out


# hbar = m = h at beta = 1/h, kept where beta hbar = 1 and beta (h Delta) =
# Delta hold exactly, so that the twin's a_j, c_j and beta gap are the
# natural-units floats
_TWINS = [(h, delta) for h in (3.0, 5.0, 0.7, 1.3) for delta in (1e-6, 3e-3)
          if (1.0 / h) * h == 1.0 and (1.0 / h) * (h * delta) == delta]


class TestUnitTwins:
    """A loop series depends on hbar and m only through beta hbar and
    m/hbar (the per-axis scales of `kernels.axis_rates` and
    `kernels.axis_inverse_lengths`), so a twin in other units whose scales
    are the same floats gives the natural-units results to the bit."""

    @pytest.mark.parametrize("make", [
        lambda c: Isotropic(3, 1e-3, c), lambda c: Isotropic(3, 0.37, c),
        lambda c: Quasi1D(0.3, 1.0, consts=c),
        lambda c: Quasi2D(0.01, 1.0, consts=c),
        lambda c: Quasi2D(0.03, 1.0, consts=c)],
        ids=["iso-1e-3", "iso-0.37", "q1d-0.3", "q2d-0.01", "q2d-0.03"])
    @pytest.mark.parametrize("h,delta", _TWINS)
    def test_bit_identical_to_natural_units(self, make, h, delta):
        natural = Equilibrium(1.0, make(PhysicalConstants()),
                              DEFAULT_CONTROL, delta)
        twin = Equilibrium(1.0 / h, make(PhysicalConstants(hbar=h, mass=h)),
                           DEFAULT_CONTROL, h * delta)
        assert _loop_observables(twin) == _loop_observables(natural)

    def test_every_case_kept(self):
        assert len(_TWINS) == 8
