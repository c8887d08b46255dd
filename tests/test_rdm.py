"""Reduced-density-matrix tests: dual representations, loop-window
partitions, open-trap limits and profile laws."""

import math
import warnings

import numpy as np
import pytest

from boseloops.errors import (DomainError, ModelError, OriginError,
                              RegimeError, TruncationWarning)
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, ground_energy,
                               ground_state_product)
from boseloops.rdm import (BarometricRadii, LoopDecomposition, barometric_radii,
                           divergence_law, local_density_scaled,
                           loop_decompose, noncondensate, open_trap_rdm,
                           rdm_eigen, rdm_loops, rdm_rescaled,
                           scaled_density_profile)
from boseloops.specfun import (PhysicalConstants, SeriesControl, de_broglie,
                               polylog)
from boseloops.thermo import CanonicalTarget, Equilibrium, bose, nu_critical

ZETA_3 = 1.2020569031595942854


def _target(nu=2.0, beta=1.0):
    return CanonicalTarget(beta, nu)


def _eq(trap, nu=2.0, ctl=SeriesControl()):
    return Equilibrium.solve(_target(nu), trap, ctl)


class TestDualRepresentation:
    @pytest.mark.parametrize("trap", [Isotropic(1, 0.5), Isotropic(2, 0.4)])
    def test_loops_vs_eigen(self, trap):
        eq = _eq(trap, 3.0)
        for x0, y0 in ((0.0, 0.0), (0.7, -0.4), (1.5, 1.2)):
            x = np.full(trap.dim, x0)
            y = np.full(trap.dim, y0)
            a = rdm_loops(x, y, eq)
            b = rdm_eigen(x, y, eq, s_max=160)
            assert a == pytest.approx(b, abs=1e-9, rel=1e-9)

    def test_truncation_warning(self):
        trap = Isotropic(1, 0.02)  # slow spectrum: s_max=20 cannot converge
        with pytest.warns(TruncationWarning):
            rdm_eigen(np.zeros(1), np.zeros(1), _eq(trap, 1.0), s_max=20)

    def test_truncation_bound_in_units(self):
        # hbar = m = 4 at beta/4 and 4 times the gap has the same rates
        # a_j, the same c_j = m omega_j kappa_j / hbar and the same w0 as the
        # unit equilibrium: the same value and the same warned bound (the
        # bound once took c_j = m omega_j kappa_j and was 4^{3/2} larger)
        trap = Isotropic(3, 0.2)
        twin = Isotropic(3, 0.2, PhysicalConstants(hbar=4.0, mass=4.0))
        x = np.full(3, 0.3)
        found = []
        for eq in (Equilibrium(1.0, trap, SeriesControl(), 0.05),
                   Equilibrium(0.25, twin, SeriesControl(), 0.2)):
            with pytest.warns(TruncationWarning) as record:
                val = rdm_eigen(x, np.zeros(3), eq, s_max=12)
            found.append((val, record[0].message.args[0]))
        assert found[0][0] == found[1][0] == 0.39765819167778527
        assert found[0][1] == found[1][1] == pytest.approx(2.2810, rel=1e-4)


class TestStructure:
    def test_symmetry_and_positivity(self):
        eq = _eq(Isotropic(3, 0.4), 3.0)
        x = np.array([0.3, -0.2, 0.5])
        y = np.array([-0.1, 0.4, 0.0])
        rxy = rdm_loops(x, y, eq)
        ryx = rdm_loops(y, x, eq)
        assert rxy == pytest.approx(ryx, rel=1e-11)
        assert rdm_loops(x, x, eq) > 0.0

    def test_cauchy_schwarz(self):
        eq = _eq(Isotropic(2, 0.5), 2.5)
        x = np.array([0.8, -0.3])
        y = np.array([-0.5, 1.1])
        rxy = rdm_loops(x, y, eq)
        assert rxy**2 <= rdm_loops(x, x, eq) \
            * rdm_loops(y, y, eq) * (1.0 + 1e-12)

    def test_noncondensate_plus_condensate(self):
        trap = Isotropic(3, 0.1)
        eq = _eq(trap, 2.0 * ZETA_3)
        x = np.array([0.2, 0.0, -0.3])
        full = rdm_loops(x, x, eq)
        split = noncondensate(x, x, eq) \
            + ground_state_product(x, x, trap) * float(bose(eq.gap))
        assert full == pytest.approx(split, rel=1e-12)

    @pytest.mark.parametrize("trap", [Isotropic(3, 0.2), Quasi2D(0.05, 1.0)])
    def test_columns_from_one_window_sum(self, trap, monkeypatch):
        # the three columns of an rdm row are the three functions to the
        # bit, from one window sum
        from boseloops import rdm
        from boseloops.rdm import rdm_columns
        eq = _eq(trap, 2.0)
        x, y = np.array([0.3, -0.2, 0.5]), np.array([-0.1, 0.4, 0.0])
        want = (rdm_loops(x, y, eq), rdm_rescaled(x, y, eq),
                noncondensate(x, y, eq))
        calls = []
        real = rdm._noncond_windows

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(rdm, "_noncond_windows", counted)
        assert rdm_columns(x, y, eq) == want
        assert len(calls) == 1

    def test_rescaled_scaling(self):
        trap = Isotropic(3, 0.2)
        eq = _eq(trap, 2.0)
        x = np.zeros(3)
        assert rdm_rescaled(x, x, eq) == pytest.approx(
            trap.kappa ** 1.5 * rdm_loops(x, x, eq), rel=1e-14)


class TestLoopDecomposition:
    @pytest.mark.parametrize("trap", [Isotropic(3, 0.2), Quasi1D(0.4, 1.0),
                                      Quasi2D(0.3, 1.0)])
    def test_partition_identity(self, trap):
        eq = _eq(trap, 3.0)
        x = np.array([0.1, -0.2, 0.3])
        dec = loop_decompose(x, x, eq)
        assert isinstance(dec, LoopDecomposition)
        # the three windows partition the full series
        assert dec.short_sum + dec.meso_sum + dec.macro_sum == dec.total
        assert dec.total == pytest.approx(rdm_loops(x, x, eq), rel=1e-8)
        assert dec.short_sum >= 0.0 and dec.total > 0.0

    def test_window_additivity(self):
        from boseloops.rdm import _noncond_windows
        eq = _eq(Isotropic(3, 0.3), 2.5)
        x = np.zeros(3)
        whole, = _noncond_windows(x, x, eq, [0, 500])
        parts = _noncond_windows(x, x, eq, [0, 99]) \
            + _noncond_windows(x, x, eq, [99, 500])
        assert whole == pytest.approx(sum(parts), rel=1e-12)
        # one call on [a, b, c] gives the single-window calls bit for bit
        assert _noncond_windows(x, x, eq, [0, 99, 500]) == parts
        # windows that cross the end of the direct stretch at 10^4 loops
        eq = _eq(Isotropic(3, 1e-4), 2.4)
        whole, = _noncond_windows(x, x, eq, [0, 50_000])
        parts = _noncond_windows(x, x, eq, [0, 20_000]) \
            + _noncond_windows(x, x, eq, [20_000, 50_000])
        assert whole == pytest.approx(sum(parts), rel=1e-12)
        assert _noncond_windows(x, x, eq, [0, 20_000, 50_000]) == parts

    @pytest.mark.parametrize("trap,nu,l_lo,l_hi", [
        (Isotropic(3, 1e-5), 2.4, 1, 1_778_279),
        (Isotropic(3, 1e-5), 2.4, 1_778_280, 2_000_000),
        (Quasi2D(0.01, 1.0), 2.0, 317, 2_000_000),
        (Quasi1D(0.3, 1.0), 4.0, 5, 66_910)])
    def test_long_window_matches_direct_sum(self, monkeypatch, trap, nu,
                                            l_lo, l_hi):
        # independent route for the Euler-Maclaurin tail of a window: the
        # direct sum over every loop of it, with the cap raised above the
        # window
        from boseloops import rdm, specfun
        from boseloops.rdm import _noncond_windows
        eq = _eq(trap, nu)
        points = [(np.zeros(3), np.zeros(3)),
                  (np.array([1.0, 0.5, 0.0]), np.zeros(3))]
        cuts = [l_lo - 1, l_hi]
        tail = [_noncond_windows(x, y, eq, cuts)[0] for x, y in points]
        monkeypatch.setattr(specfun, "_DIRECT_CAP", 2 * 10**6)
        sizes = []
        real = rdm._delta_exponent

        def recorded(l, *args):
            sizes.append(np.size(l))
            return real(l, *args)
        monkeypatch.setattr(rdm, "_delta_exponent", recorded)
        for (x, y), val in zip(points, tail):
            assert val == pytest.approx(
                _noncond_windows(x, y, eq, cuts)[0], rel=1e-12, abs=0.0)
        # the reference summed every loop of the window directly
        assert sizes == [l_hi - l_lo + 1] * 2

    @pytest.mark.parametrize("trap,nu", [
        (Isotropic(3, 1e-5), 2.4), (Quasi1D(0.3, 1.0), 4.0),
        (Quasi2D(0.01, 1.0), 2.0)])
    def test_float_summand_matches_array_summand(self, trap, nu):
        # the tail integrand is the float form of the direct stretch's
        # vectorised summand; both round the same expression
        from boseloops.kernels import (axis_omega_kappa,
                                       log_ground_state_product)
        from boseloops.rdm import (_delta_exponent, _kernel_axes,
                                   _window_summands)
        eq = _eq(trap, nu)
        loops = np.unique(np.concatenate([
            np.arange(1.0, 101.0), np.round(np.logspace(0.0, 12.0, 241))]))
        c0 = axis_omega_kappa(trap)[0]
        # c_0 x_0^2 = 36 puts the dyad deep in its Gaussian tail, where the
        # summand takes the dlt > 35 form
        deep = np.array([6.0 / math.sqrt(c0), 0.0, 0.0])
        points = [(np.zeros(3), np.zeros(3)),
                  (np.array([1.0, 0.5, -0.4]), np.array([0.3, -0.2, 0.1])),
                  (np.array([1.0, 0.5, 0.0]), np.array([0.0, -0.3, 0.2])),
                  (deep, deep)]
        for x, y in points:
            axes = _kernel_axes(x, y, eq.beta, trap)[0]
            assert max(a for a, _, _ in axes) * loops[-1] >= 745.0
            summand, summand_float = _window_summands(
                axes, eq.beta * eq.gap, log_ground_state_product(x, y, trap))
            expected = summand(loops)
            for l, want in zip(loops, expected):
                assert summand_float(float(l)) == pytest.approx(
                    want, rel=1e-14, abs=0.0)
        # the last point, deep, took the dlt > 35 form
        assert np.max(_delta_exponent(loops, axes)) > 35.0

    @pytest.mark.parametrize("u", [1e-8, 1e-5, 1.0, 10.0, 30.0])
    @pytest.mark.parametrize("x, y", [(math.sqrt(0.6), 0.0), (1.0, 1.0),
                                      (3.0, 3.0), (1.0, 0.999)],
                             ids=["y0", "diag", "diag-far", "near-diag"])
    def test_delta_exponent_vs_mpmath(self, x, y, u):
        # one axis with c = 1 against the Mehler exponent at 50 digits.
        # y = 0 (p = m = 0.3 in the (x +- y)^2 form) is where
        # p e^{-u}/(1+e^{-u}) and m e^{-u}/(1-e^{-u}) cancel (1.1e-4 off at
        # u = 30); on the diagonal at small u, e^{-u}[2xy - (x^2+y^2)e^{-u}]
        # cancels instead (4.4e-9 off at x = y = 3, u = 1e-8)
        import mpmath
        from boseloops.rdm import _delta_exponent
        with mpmath.workdps(50):
            e = mpmath.exp(-mpmath.mpf(u))
            xm, ym = mpmath.mpf(x), mpmath.mpf(y)
            mehler = e * (2 * xm * ym - (xm**2 + ym**2) * e) / (1 - e**2)
            want = float(-mpmath.log(1 - e**2) / 2 + mehler)
        axes = [(u, 2.0 * x * y, (x - y) ** 2)]
        got = float(_delta_exponent(np.array([1.0]), axes)[0])
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_points_checked_once_per_window_call(self, monkeypatch):
        # `_noncond_windows` checks the points and forms c_j once for the
        # kernel axes and the dyad, whose log is that of
        # `log_ground_state_product` bit for bit
        from boseloops import kernels, rdm
        trap = Quasi2D(0.05, 1.0)
        eq = _eq(trap, 2.0)
        x, y = np.array([0.5, 0.2, 0.0]), np.array([0.1, 0.0, 0.3])
        assert rdm._kernel_axes(x, y, eq.beta, trap)[1] \
            == kernels.log_ground_state_product(x, y, trap)
        calls = []
        real = kernels._check_points

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(kernels, "_check_points", counted)
        monkeypatch.setattr(rdm, "_check_points", counted)
        sums = rdm._noncond_windows(x, y, eq, [0, 10, 1_000, math.inf])
        assert len(calls) == 1 and len(sums) == 3

    def test_delta_exponent_evaluates_each_rate_once(self, monkeypatch):
        # the degenerate soft pair of a quasi-2D trap shares one evaluation
        from boseloops import rdm
        from boseloops.rdm import _delta_exponent, _kernel_axes
        trap = Quasi2D(0.005, 1.0)
        axes = _kernel_axes(np.array([1.0, 0.5, -0.4]),
                            np.array([0.3, -0.2, 0.1]), 1.0, trap)[0]
        assert axes[1][0] == axes[2][0] != axes[0][0]
        calls = []
        real = rdm.log1mexp

        def counted(v):
            calls.append(np.size(v))
            return real(v)
        monkeypatch.setattr(rdm, "log1mexp", counted)
        _delta_exponent(np.arange(1.0, 101.0), axes)
        assert calls == [100] * 2

    def test_window_tails_take_the_float_summand(self, monkeypatch):
        # the vectorised summand runs once per non-empty window, on its
        # direct stretch; no tail callback goes through it
        from boseloops import rdm
        from boseloops.aniso import additional_q2d, q2d_chi_split
        ndims = []
        real = rdm._delta_exponent

        def recorded(l, *args):
            ndims.append(np.ndim(l))
            return real(l, *args)
        monkeypatch.setattr(rdm, "_delta_exponent", recorded)
        x, y = np.array([1.0, 0.5, 0.0]), np.zeros(3)
        # windows (0, N] and (N, inf); (N, M] is empty with M = N
        loop_decompose(x, y, _eq(Isotropic(3, 1e-5), 2.4))
        assert ndims == [1, 1]
        ndims.clear()
        eq = _eq(Quasi2D(0.005, 1.0), 2.0)
        additional_q2d(x, y, eq)
        q2d_chi_split(x, y, eq)
        assert ndims == [1, 1, 1]

    def test_window_quadrature_error_is_reported(self, monkeypatch):
        # the window tail warns with its error estimate, the quadrature's
        # plus the far smaller endpoint remainder, when that exceeds
        # rel_tol of the window sum
        import scipy.integrate

        eq = Equilibrium(1.0, Isotropic(3, 1e-5), SeriesControl(), 1e-7)
        x = np.array([1.0, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            ref = noncondensate(x, x, eq)
        real = scipy.integrate.quad

        def sloppy(*args, **kwargs):
            val, _err = real(*args, **kwargs)
            return val, 1e-3 * ref
        monkeypatch.setattr(scipy.integrate, "quad", sloppy)
        with pytest.warns(TruncationWarning) as record:
            assert noncondensate(x, x, eq) == ref
        err, = record[0].message.args
        assert 1e-3 * ref <= err <= (1e-3 + 1e-14) * ref

    def test_short_stretch_warns_with_endpoint_remainder(self, monkeypatch):
        # forced to 4 direct loops, the tail of this window starts where
        # the fast axis (rate 0.05) has not relaxed: the endpoint remainder
        # (11/720)|third difference of the summand at loops 3 ... 6| is far
        # above rel_tol of the sum, and the warning carries it (with the
        # quadrature's own estimate set to 0)
        import scipy.integrate

        from boseloops import specfun
        from boseloops.kernels import log_ground_state_product
        from boseloops.rdm import _kernel_axes, _window_summands
        trap = Quasi2D(0.05, 1.0)
        eq = _eq(trap, 2.0)
        x, y = np.array([0.5, 0.0, 0.0]), np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            ref = noncondensate(x, y, eq)
        monkeypatch.setattr(specfun, "_direct_length", lambda rate, tol: 4)
        real = scipy.integrate.quad
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *args, **kw: (real(*args, **kw)[0], 0.0))
        with pytest.warns(TruncationWarning) as record:
            short = noncondensate(x, y, eq)
        _, f = _window_summands(_kernel_axes(x, y, 1.0, trap)[0],
                                eq.beta * eq.gap,
                                log_ground_state_product(x, y, trap))
        f3, f4, f5, f6 = (f(l) for l in (3.0, 4.0, 5.0, 6.0))
        rem = 11.0 / 720.0 * abs(f6 - 3.0 * f5 + 3.0 * f4 - f3)
        assert record[0].message.args == (rem,)
        assert rem > 1e-6 * abs(short)
        assert short != ref

    def test_delta_exponent_takes_no_subnormal_term(self, monkeypatch):
        # each rate's terms are evaluated only on the loops where they are
        # normal floats: no argument at or beyond the normal-float bound of
        # e^{-u} reaches log1mexp, whose argument 2u stops there; what is
        # left out is below the smallest normal float
        import sys

        from boseloops import rdm
        from boseloops.rdm import _delta_exponent, _kernel_axes
        normal_exp = -math.log(sys.float_info.min)
        axes = _kernel_axes(np.array([1.0, 0.5, -0.4]),
                            np.array([0.3, -0.2, 0.1]), 1.0,
                            Quasi2D(0.05, 1.0))[0]
        l = np.arange(1.0, 30_001.0)
        seen = []
        real = rdm.log1mexp

        def recorded(v):
            seen.append((np.size(v), np.max(v)))
            return real(v)
        monkeypatch.setattr(rdm, "log1mexp", recorded)
        got = _delta_exponent(l, axes)
        # the stiff rate 0.05 crosses both bounds within the stretch, the
        # soft pair's rate neither
        stiff, soft = axes[0][0], axes[1][0]
        n2 = int(np.sum(2.0 * stiff * l < normal_exp))
        assert n2 < l.size and 2.0 * soft * l[-1] < normal_exp
        assert seen[0][0] == n2 and seen[1][0] == l.size
        assert max(v for _, v in seen) < normal_exp
        # the whole-stretch form, every term evaluated
        ref = np.zeros_like(l)
        for a, q, s in axes:
            u = a * l
            eu = np.exp(-u)
            plus, minus = eu / (1.0 + eu), eu / -np.expm1(-u)
            minus *= plus
            ref -= 0.5 * real(2.0 * u)
            ref += q * plus - s * minus
        assert np.allclose(got, ref, rtol=0.0, atol=sys.float_info.min)
        assert np.array_equal(got[:n2], ref[:n2])

    def test_isotropic_sigma_window(self):
        trap = Isotropic(3, 0.2)
        with pytest.raises(DomainError):
            loop_decompose(np.zeros(3), np.zeros(3),
                           _eq(trap, 1.0, SeriesControl(sigma=2.0)))

    def test_isotropic_macro_equals_short_cutoff(self):
        trap = Isotropic(3, 0.2)
        dec = loop_decompose(np.zeros(3), np.zeros(3), _eq(trap, 1.0))
        assert dec.macro_cutoff == float(dec.short_cutoff)
        assert dec.meso_sum == 0.0

    def test_quasi1d_macro_cutoff_overflow_policy(self):
        trap = Quasi1D(0.1, 1.0)  # e^{100} loop lengths: beyond any integer
        eq = _eq(trap, 3.0)
        x = np.zeros(3)
        dec = loop_decompose(x, x, eq)
        assert math.isinf(dec.macro_cutoff)
        assert dec.macro_sum == 0.0
        # the meso window is (N, inf]: its dyad-subtracted sum plus the
        # geometric dyad window
        from boseloops.rdm import _geometric_window, _noncond_windows
        cuts = [dec.short_cutoff, math.inf]
        assert dec.meso_sum == _noncond_windows(x, x, eq, cuts)[0] \
            + ground_state_product(x, x, trap) \
            * _geometric_window(eq.beta * eq.gap, *cuts)


class TestOpenTrapLimit:
    def test_subcritical_diagonal_closed_form(self):
        # independent route: lambda^-d g_{d/2}(e^{beta mu0}) at x=y
        from boseloops.thermo import mu_open_trap
        for d, nu in ((1, 2.0), (2, 0.8), (3, 0.7)):
            lam = de_broglie(1.0)
            mu0 = mu_open_trap(1.0, nu, d)
            ref = polylog(d / 2.0, math.exp(mu0)) / lam**d
            x = np.zeros(d)
            assert open_trap_rdm(x, x, 1.0, nu, d) == pytest.approx(
                ref, rel=1e-9)

    @pytest.mark.parametrize("nu", [16.0, 20.0])
    def test_d1_near_zero_mu_vs_mpmath(self, nu):
        # mu0 ~ -e^{-nu}: the series needs ~10^8 (nu=16) and ~10^10 (nu=20)
        # loops, nearly all of them in the Euler-Maclaurin tail
        import mpmath
        from boseloops.thermo import mu_open_trap
        # z = e^{mu0} is formed in mpmath: rounding it to a float would move
        # alpha = -mu0 by ~1e-16/|mu0| relative (1e-8 of the sum at nu=20)
        mu0 = mu_open_trap(1.0, nu, 1)
        with mpmath.workdps(30):
            ref = float(mpmath.polylog(0.5, mpmath.exp(mpmath.mpf(mu0)))) \
                / de_broglie(1.0)
        assert open_trap_rdm(np.zeros(1), np.zeros(1), 1.0, nu, 1) \
            == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_d3_critical_point_tail(self, monkeypatch):
        # at nu_c the closed-form tail follows 10^4 direct loops; it must
        # agree with zeta(3/2) on the diagonal and, off it, with a direct
        # stretch of 10^6 loops
        from boseloops import specfun
        lam = de_broglie(1.0)
        y = np.array([3.0, 0.0, 0.0])
        diag = open_trap_rdm(np.zeros(3), np.zeros(3), 1.0, ZETA_3, 3)
        off = open_trap_rdm(np.zeros(3), y, 1.0, ZETA_3, 3)
        assert diag == pytest.approx(2.6123753486854883433 / lam**3,
                                     rel=1e-14, abs=0.0)
        monkeypatch.setattr(specfun, "_DIRECT_CAP", 10**6)
        assert off == pytest.approx(open_trap_rdm(np.zeros(3), y, 1.0,
                                                  ZETA_3, 3),
                                    rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d,nu", [(2, 1.6), (3, 1.2)])
    def test_far_offdiagonal_vs_direct_sum(self, d, nu):
        # |x-y| = 300: the terms peak thousands of loops out and the sum is
        # far below 1e-12, yet it must hold its own digits; the direct sum
        # over every loop up to 10^6 (e^{-alpha l} < 1e-500 there) is the
        # independent route
        from boseloops.thermo import mu_open_trap
        lam = de_broglie(1.0)
        y = np.zeros(d)
        y[0] = 300.0
        alpha = -mu_open_trap(1.0, nu, d)
        q = math.pi * 300.0**2 / lam**2
        l = np.arange(1, 10**6 + 1, dtype=float)
        ref = float(np.sum(np.exp(-alpha * l - q / l - 0.5 * d * np.log(l))))
        assert open_trap_rdm(np.zeros(d), y, 1.0, nu, d) == pytest.approx(
            ref / lam**d, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,nu", [(2, 1.6), (3, 1.2)])
    def test_far_offdiagonal_exact_alpha(self, d, nu):
        # |x-y| = 3000: the sum scales like e^{-2 sqrt(q alpha)}, so a
        # relative error in alpha = -beta mu0 comes out sqrt(q alpha) times
        # larger (75 at d=3); the independent route is math.fsum of the terms
        # at the exact alpha up to 4*10^5 loops, where they have fallen below
        # 1e-150 of the largest
        from boseloops.thermo import mu_open_trap
        lam = de_broglie(1.0)
        y = np.zeros(d)
        y[0] = 3000.0
        alpha = -mu_open_trap(1.0, nu, d)
        q = math.pi * 3000.0**2 / lam**2
        l = np.arange(1, 4 * 10**5 + 1, dtype=float)
        ref = math.fsum(np.exp(-alpha * l - q / l - 0.5 * d * np.log(l)))
        assert open_trap_rdm(np.zeros(d), y, 1.0, nu, d) == pytest.approx(
            ref / lam**d, rel=1e-12, abs=0.0)

    def test_offdiagonal_decay(self):
        x = np.zeros(3)
        y = np.array([1.0, 0.0, 0.0])
        near = open_trap_rdm(x, x, 1.0, 0.7, 3)
        far = open_trap_rdm(x, y, 1.0, 0.7, 3)
        assert 0.0 < far < near

    def test_supercritical_divergence(self):
        assert math.isinf(open_trap_rdm(np.zeros(3), np.zeros(3), 1.0,
                                        2.0 * ZETA_3, 3))
        assert math.isinf(open_trap_rdm(np.zeros(2), np.zeros(2), 1.0,
                                        nu_critical(1.0, 2), 2))

    def test_d3_critical_point_finite(self):
        val = open_trap_rdm(np.zeros(3), np.zeros(3), 1.0, ZETA_3, 3)
        lam = de_broglie(1.0)
        assert val == pytest.approx(polylog(1.5, 1.0) / lam**3, rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("f", [1 - 2e-6, 1 - 5e-7, 1.0, 1 + 5e-7, 1 + 2e-6])
    def test_one_band_rule(self, d, f):
        # open_trap_rdm is +inf exactly where divergence_law names a law,
        # and scaled_density_profile raises exactly within the band; d = 3
        # within the band takes the finite critical value on both sides
        nu = f * nu_critical(1.0, d)
        x = np.zeros(d)
        val = open_trap_rdm(x, x, 1.0, nu, d)
        law = divergence_law(1.0, nu, d)
        assert math.isinf(val) == (law is not None)
        in_band = abs(f - 1.0) < 1e-6
        assert (law is None) == (f < 1.0 - 1e-6 or (d == 3 and in_band))
        if d == 3 and in_band:
            assert val == pytest.approx(
                polylog(1.5, 1.0) / de_broglie(1.0) ** 3, rel=1e-14)
        x[0] = 0.5
        try:
            scaled_density_profile(1.0, _target(nu), d)(x)
            raised = False
        except RegimeError:
            raised = True
        assert raised == in_band

    def test_divergence_law_tags(self):
        assert divergence_law(1.0, 5.0, 1) is None
        assert divergence_law(1.0, 0.5, 3) is None
        assert divergence_law(1.0, 2.0 * ZETA_3, 3) == "power-law-in-kappa"
        assert divergence_law(1.0, 10.0, 2) == "logarithmic-in-kappa"


class TestScaledProfiles:
    def test_origin_rejected_for_positive_delta(self):
        trap = Isotropic(3, 0.1)
        with pytest.raises(OriginError):
            local_density_scaled(np.zeros(3), 1.0, _eq(trap, 1.0))

    def test_anisotropic_rejected(self):
        with pytest.raises(ModelError):
            local_density_scaled(np.ones(3), 1.0, _eq(Quasi1D(0.3, 1.0), 1.0))

    def test_delta_zero_is_plain_diagonal(self):
        eq = _eq(Isotropic(3, 0.2), 2.0)
        x = np.array([0.4, 0.1, -0.2])
        assert local_density_scaled(x, 0.0, eq) == pytest.approx(
            rdm_loops(x, x, eq), rel=1e-12)

    def test_limit_branches(self):
        target = _target(2.0 * ZETA_3)
        x = np.array([0.5, 0.0, 0.0])
        # unrescaled, delta=1: semiclassical closed form
        lim = scaled_density_profile(1.0, target, 3)(x)
        lam = de_broglie(1.0)
        assert lim == pytest.approx(
            polylog(1.5, math.exp(-0.125)) / lam**3, rel=1e-10)
        # rescaled branches: plateau, Gaussian shoulder, zero
        amp = 2.0 ** 1.5 * (target.nu - ZETA_3) / lam**3
        assert scaled_density_profile(0.2, target, 3, rescaled=True)(x) \
            == pytest.approx(amp, rel=1e-12)
        assert scaled_density_profile(0.5, target, 3, rescaled=True)(x) \
            == pytest.approx(amp * math.exp(-0.25), rel=1e-12)
        assert scaled_density_profile(0.9, target, 3, rescaled=True)(x) \
            == 0.0
        # d=2 noncondensate window claims no limit
        assert scaled_density_profile(0.3, target, 2)(np.array([0.5, 0.0])) \
            is None
        # d=3 unrescaled, shallow delta: divergent
        assert math.isinf(scaled_density_profile(0.2, target, 3)(x))

    @pytest.mark.parametrize("call, match", [
        (lambda: open_trap_rdm(np.zeros(4), np.zeros(4), 1.0, 0.5, 4),
         "d must be 1, 2 or 3"),
        (lambda: open_trap_rdm(np.zeros(2), np.zeros(3), 1.0, 0.5, 3),
         "points must have dimension 3"),
        (lambda: local_density_scaled(np.ones(3), 1.5,
                                      _eq(Isotropic(3, 0.2), 1.0)),
         "delta must lie in"),
        (lambda: local_density_scaled(np.ones(2), 0.5,
                                      _eq(Isotropic(3, 0.2), 1.0)),
         "point must have dimension 3"),
        (lambda: scaled_density_profile(-0.1, _target(0.5), 3),
         "delta must lie in"),
    ], ids=["open-trap-d", "open-trap-point", "scaled-delta",
            "scaled-point", "profile-delta"])
    def test_domain_checks(self, call, match):
        with pytest.raises(DomainError, match=match):
            call()

    def test_critical_band_rejected(self):
        x = np.array([0.5, 0.0, 0.0])
        with pytest.raises(RegimeError):
            scaled_density_profile(1.0, _target(ZETA_3 * (1 + 1e-9)), 3)(x)


class TestBarometricRadii:
    def test_d3_closed_forms(self):
        trap = Isotropic(3, 0.1)
        res = barometric_radii(_target(2.0 * ZETA_3), trap)
        assert isinstance(res, BarometricRadii)
        # condensate profile e^{-r^2}: per-axis <x^2> = 1/2 (natural units)
        assert res.r2_condensate == pytest.approx(0.5, rel=1e-8)
        assert res.ratio == pytest.approx(res.r2_thermal / res.r2_condensate,
                                          rel=1e-12)
        # in natural units the two candidate quotient forms coincide
        assert res.ratio_single_beta == pytest.approx(res.ratio_double_beta,
                                                      rel=1e-12)
        assert res.printed_form_consistent

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_radii_nonnatural_constants(self, d, beta):
        # independent route: mpmath quadrature of the radial moments of the
        # two profiles g_{d/2}(e^{-b r^2}), b = beta m omega0^2/2, and
        # e^{-m omega0 r^2/hbar}
        import mpmath
        consts = PhysicalConstants(hbar=1.3, mass=0.7, omega0=2.1)
        nu = 3.0 * polylog(float(d), 1.0) \
            / (consts.hbar * consts.omega0 * beta) ** d
        res = barometric_radii(_target(nu, beta), Isotropic(d, 0.1, consts))
        with mpmath.workdps(16):
            b = mpmath.mpf(beta) * consts.mass * consts.omega0**2 / 2
            a = mpmath.mpf(consts.mass) * consts.omega0 / consts.hbar
            if d == 2:
                def thermal(r):
                    return -mpmath.log(-mpmath.expm1(-b * r * r))
            else:
                def thermal(r):
                    return mpmath.polylog(1.5, mpmath.exp(-b * r * r))

            def r2(profile):
                num, den = (mpmath.quad(lambda r: r**p * profile(r),
                                        [0, 1, mpmath.inf])
                            for p in (d + 1, d - 1))
                return float(num / (d * den))

            r2_th = r2(thermal)
            r2_co = r2(lambda r: mpmath.exp(-a * r * r))
        assert res.r2_thermal == pytest.approx(r2_th, rel=1e-12, abs=0.0)
        assert res.r2_condensate == pytest.approx(r2_co, rel=1e-12, abs=0.0)

    def test_thermal_wider_than_condensate(self):
        trap = Isotropic(2, 0.1)
        res = barometric_radii(_target(8.0), trap)
        assert res.r2_thermal > res.r2_condensate

    def test_subcritical_rejected(self):
        with pytest.raises(RegimeError):
            barometric_radii(_target(0.5), Isotropic(3, 0.1))

    def test_d1_rejected(self):
        with pytest.raises(DomainError):
            barometric_radii(_target(2.0), Isotropic(1, 0.1))
