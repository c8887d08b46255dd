"""Thermodynamics tests: dual-route particle numbers, gap solving,
asymptotic laws and band sums."""

import ast
import inspect
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from boseloops import aniso, rdm, specfun, thermo
from boseloops.errors import (BracketError, DimensionMismatch, DomainError,
                              ModelError, RegimeError, TruncationWarning)
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, ground_energy)
from boseloops.specfun import DEFAULT_CONTROL, SeriesControl
from boseloops.thermo import (CanonicalTarget, Equilibrium, _band_series,
                              _nu_critical_trap, bose, critical_side,
                              gap_asymptotic,
                              gbec_band_sum, grand_potential, log1mexp,
                              mu_open_trap, nu_critical, nu_eigen_sum, nu_m,
                              nu_open_trap, nu_rescaled, occupation,
                              solve_gap)

ZETA_3 = 1.2020569031595942854
ZETA_2 = 1.6449340668482264365
# e^{-u} is a normal float exactly while u is below this (about 708.4)
NORMAL_EXP = -math.log(sys.float_info.min)


def _eq(trap, gap, beta=1.0):
    return Equilibrium(beta, trap, DEFAULT_CONTROL, gap)


class TestStatePoints:
    def test_mu_must_be_below_ground(self):
        tr = Isotropic(3, 0.5)
        with pytest.raises(DomainError):
            _eq(tr, 0.0)
        with pytest.raises(DomainError):
            _eq(tr, -0.1)
        with pytest.raises(DomainError):
            _eq(tr, 0.1, beta=0.0)

    def test_target_validation(self):
        with pytest.raises(DomainError):
            CanonicalTarget(0.0, 1.0)
        with pytest.raises(DomainError):
            CanonicalTarget(1.0, -2.0)


class TestHelpers:
    def test_log1mexp_small_and_large(self):
        assert float(log1mexp(1e-12)) == pytest.approx(math.log(1e-12),
                                                       rel=1e-9)
        assert float(log1mexp(50.0)) == pytest.approx(-math.exp(-50.0),
                                                      rel=1e-6)

    def test_log1mexp_matches_two_branch_where(self):
        # each branch computed only where it is taken gives the bits of
        # both branches computed everywhere and picked by np.where
        v = np.concatenate([
            np.logspace(-300.0, math.log10(800.0), 20_001),
            np.linspace(0.5, 0.9, 4_001),
            [math.nextafter(math.log(2.0), 0.0), math.log(2.0),
             math.nextafter(math.log(2.0), 1.0)]])
        big = v > math.log(2.0)
        ref = np.where(big, np.log1p(-np.exp(-np.where(big, v, 1.0))),
                       np.log(-np.expm1(-np.where(big, 1.0, v))))
        assert big.any() and not big.all()
        assert np.array_equal(log1mexp(v), ref)
        assert np.array_equal(log1mexp(v[::-1]), ref[::-1])
        assert float(log1mexp(v[0])) == ref[0]

    def test_bose(self):
        assert float(bose(math.log(2.0))) == pytest.approx(1.0, rel=1e-14)
        # e^v - 1 overflows beyond v = 709.78; there the factor is e^{-v}
        # (subnormal, then 0), with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bose([700.0, 720.0, 800.0])
        assert got.tolist() == [1.0 / float(np.expm1(700.0)),
                                float(np.exp(-720.0)), 0.0]


class TestLoopNumber:
    @pytest.mark.parametrize("trap,n_max", [
        (Isotropic(1, 0.7), 700), (Isotropic(2, 0.4), 700),
        (Isotropic(3, 0.3), 700), (Quasi2D(0.6, 0.5), 250)])
    def test_loop_vs_eigen_sum(self, trap, n_max):
        # two structurally independent summations of the same quantity
        eq = _eq(trap, 0.05)
        assert nu_rescaled(eq) == pytest.approx(nu_eigen_sum(eq, n_max),
                                                rel=1e-9)

    def test_quasi1d_vs_brute_force(self):
        # spectral brute force with the (n+1) transverse degeneracy
        trap = Quasi1D(0.5, 1.0)
        beta, gap = 1.0, 0.02
        eq = _eq(trap, gap, beta)
        a1 = beta * trap.kappas[0]
        ap = beta * trap.kappas[1]
        s = np.arange(0, 20_000, dtype=float)[:, None]
        n = np.arange(0, 120, dtype=float)[None, :]
        brute = trap.kappa_abs**3 * float(
            np.sum((n + 1.0) / np.expm1(beta * gap + a1 * s + ap * n)))
        assert nu_rescaled(eq) == pytest.approx(brute, rel=1e-9)

    def test_slow_axis_tail_continuity(self, monkeypatch):
        # these traps relax within 2*10^6 loops but not within the 10^4 of
        # the cap: the Euler-Maclaurin tail after their computed direct
        # stretch must agree with the long direct stretch, which runs until
        # every axis has relaxed, and its geometric tail, also at condensed
        # gaps far below the slowest rate
        traps = [Quasi1D(0.4, 1.0), Quasi1D(0.35, 1.0), Quasi2D(0.05, 1.0),
                 Quasi2D(0.03, 1.0), Isotropic(3, 1e-3)]
        em = [thermo._LoopProduct(1.0, t, DEFAULT_CONTROL) for t in traps]
        monkeypatch.setattr(specfun, "_DIRECT_CAP", 2 * 10**6)
        for trap, tail in zip(traps, em):
            ref = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
            assert not ref.slow and tail.slow
            assert ref.big_l > 10 * tail.big_l
            log_scale = trap.dim * math.log(trap.kappa_abs)
            for gap in (1e-2, 1e-6, 1e-12, 1e-15, 1e-20, 1e-100):
                assert tail.sum(gap, log_scale) == pytest.approx(
                    ref.sum(gap, log_scale), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-9])
    def test_tail_vs_mode_sum(self, gap):
        # independent route for traps whose slow axes relax between 10^4 and
        # 2*10^6 loops: the eigen-mode sum, added exactly.  Modes above
        # excitation energy 42 carry e^{-42}(42^2/2 + 42 + 1) < 1e-15 of it
        trap = Quasi1D(0.4, 1.0)
        a1, ap = trap.kappas[0], trap.kappas[1]
        rows = [(n + 1.0) * bose(gap + ap * n + a1 * np.arange(
                    math.ceil((42.0 - ap * n) / a1), dtype=float))
                for n in range(math.ceil(42.0 / ap))]
        modes = trap.kappa_abs**3 * math.fsum(np.concatenate(rows).tolist())
        assert nu_rescaled(_eq(trap, gap)) == pytest.approx(modes, rel=1e-14,
                                                            abs=0.0)
        trap = Isotropic(3, 1e-3)
        n = np.arange(math.ceil(42.0 / trap.kappa), dtype=float)
        modes = trap.kappa**3 * math.fsum(
            ((n + 1.0) * (n + 2.0) / 2.0 * bose(gap + trap.kappa * n)).tolist())
        assert nu_rescaled(_eq(trap, gap)) == pytest.approx(modes, rel=1e-14,
                                                            abs=0.0)

    # nu at gaps 1e-300 ... 1, pinned from the form that integrated all of
    # e^{-l w0} P_l; Omega where it is a float (for these isotropic traps
    # |Omega| ~ zeta(4)/kappa^3 is beyond the float range)
    GAPS = (1e-300, 1e-200, 1e-100, 1e-30, 1e-15, 1e-6, 1e-3, 1.0)
    EXTREME = [
        (Isotropic(3, 1e-200),
         [1.2020569031595743] * 5
         + [1.2020552582330502, 1.2004161730537273, 0.38699542421019834],
         None),
        (Isotropic(3, 1e-300),
         [1.2020569031595874] * 5
         + [1.2020552582332626, 1.200416173053506, 0.38699542421019884],
         None),
        (Quasi2D(9e-6, 1.0),
         [1.2020858368940561] + [1.202064305461483] * 4
         + [1.2020626604607019, 1.200423539717667, 0.3869972636075928],
         [-5.026737720779513e+304] * 4
         + [-5.026737720779507e+304, -5.026732137948557e+304,
            -5.021158699168881e+304, -1.7511097653428388e+304]),
        (Quasi1D(0.0379, 1.0),
         [2.252334746876576, 1.9215889991450663, 1.5908433738022973,
          1.3593214360623598, 1.3097095922609445, 1.2799407143831492,
          1.2682517304428378, 0.40276437861349007],
         [-4.612057099732581e+306] * 4
         + [-4.612057099732574e+306, -4.61205186471541e+306,
            -4.606866230886869e+306, -1.60130022670154e+306])]

    @pytest.mark.parametrize("trap,nus,omegas", EXTREME,
                             ids=["iso-1e-200", "iso-1e-300", "q2d-9e-6",
                                  "q1d-0.0379"])
    def test_extreme_traps_finite_and_pinned(self, trap, nus, omegas):
        # slowest rates 1e-200 ... 1.7e-304: the tail's summand keeps every
        # scale in one exponent, so nothing overflows or warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, gap in enumerate(self.GAPS):
                eq = _eq(trap, gap)
                nu = nu_rescaled(eq)
                assert math.isfinite(nu)
                assert nu == pytest.approx(nus[i], rel=1e-12, abs=0.0)
                if omegas is not None:
                    omega = grand_potential(eq)
                    assert math.isfinite(omega)
                    assert omega == pytest.approx(omegas[i], rel=1e-12,
                                                  abs=0.0)

    @pytest.mark.parametrize("target,trap", [
        (CanonicalTarget(1.0, 2.0), Quasi2D(0.01, 1.0)),
        (CanonicalTarget(1.0, 2.4), Isotropic(3, 1e-5))],
        ids=["q2d-0.01", "iso-1e-5"])
    def test_tail_integrand_calls(self, monkeypatch, target, trap):
        # the slow-axis tail of P - 1 is a quadrature grid built once per
        # solve, so no trial gap runs an adaptive quadrature
        import scipy.integrate

        calls = []
        real = scipy.integrate.quad

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(scipy.integrate, "quad", counted)
        assert thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL).slow
        solve_gap(target, trap)
        assert calls == []

    def test_extreme_axis_separation(self):
        # longitudinal rate ~1e-175: everything must stay finite and solvable
        trap = Quasi1D(0.05, 1.0)
        assert trap.kappas[0] > 0.0
        target = CanonicalTarget(1.0, 2.0 * nu_m(1.0, trap))
        gap = solve_gap(target, trap)
        assert 0.0 < gap < ground_energy(trap)
        # the gap is far below E0's float resolution; the residual is taken
        # at the gap itself
        assert nu_rescaled(_eq(trap, gap)) == pytest.approx(target.nu,
                                                            rel=1e-8)


def _outer_log_p(a, l):
    """log P_l at the lengths l from all axes at once on the (axes x l)
    grid, each term kept where it is a normal float."""
    u = np.outer(a, l)
    return -np.sum(np.where(u < NORMAL_EXP,
                            log1mexp(np.minimum(u, NORMAL_EXP)), 0.0), axis=0)


class TestLoopProduct:
    @staticmethod
    def _log1mexp_sizes(monkeypatch):
        sizes = []
        real = thermo.log1mexp

        def counted(v):
            sizes.append(np.size(v))
            return real(v)
        monkeypatch.setattr(thermo, "log1mexp", counted)
        return sizes

    @pytest.mark.parametrize("trap", [Quasi2D(0.05, 1.0), Quasi1D(0.3, 1.0),
                                      Isotropic(3, 0.01), Quasi1D(0.25, 1.0),
                                      Quasi2D(0.005, 1.0)])
    def test_axis_accumulation_matches_outer_product(self, trap):
        # reference: all axes at once on the (axes x L) grid, summed over
        # axes, on the columns of the direct stretch
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        l = prod.l[:prod.big_l]
        assert np.array_equal(l, np.arange(1.0, prod.big_l + 1.0))
        ref = -np.sum(log1mexp(np.minimum(np.outer(prod.a, l), 745.0)),
                      axis=0)
        assert np.array_equal(prod.log_p[:prod.big_l], ref)

    def test_product_built_once_per_solve(self, monkeypatch):
        # P_l is gap-independent: one solve builds it once, one rate at a
        # time; the degenerate soft pair shares one evaluation
        trap = Quasi2D(0.1, 1.0)
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert not prod.slow and prod.big_l == 5_863
        assert prod.a[0] * prod.big_l < NORMAL_EXP
        sizes = self._log1mexp_sizes(monkeypatch)
        solve_gap(CanonicalTarget(1.0, 2.0), trap)
        assert sizes == [5_863] * 2

    def test_product_built_once_with_slow_axis(self, monkeypatch):
        # the stiff pair shares one evaluation, which ends where its term
        # leaves the normal floats, before the end of the direct stretch;
        # the slow axis is evaluated once on the stretch and its endpoint
        # lengths L + 1, L + 2 and once on the tail's nodes, where the stiff
        # pair takes none, and no trial gap evaluates a loop factor
        trap = Quasi1D(0.5, 1.2)
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert prod.slow and prod.big_l == 1_636
        assert prod.big_l == specfun._direct_length(prod.a[0],
                                                    DEFAULT_CONTROL.rel_tol)
        stiff = prod.a[1]
        assert prod.a[2] == stiff
        n_stiff = int(np.sum(stiff * prod.l < NORMAL_EXP))
        assert n_stiff == 1_416
        assert stiff * n_stiff < NORMAL_EXP <= stiff * (n_stiff + 1)
        assert stiff * (prod.big_l + 1) >= NORMAL_EXP
        nodes = prod.l[prod.big_l + 2:]
        n_grid = int(np.sum(prod.a[0] * nodes < NORMAL_EXP))
        assert 0 < n_grid <= nodes.size
        sizes = self._log1mexp_sizes(monkeypatch)
        solve_gap(CanonicalTarget(1.0, 4.0), trap)
        assert sizes == [1_638, n_stiff, n_grid]

    @pytest.mark.parametrize("kappa", [0.4, 0.35, 0.3, 0.25])
    def test_product_build_takes_no_subnormal_term(self, kappa, monkeypatch):
        # the q1d-thermo ladder: no argument at or beyond the normal-float
        # bound of e^{-u} reaches log1mexp while P_l is built
        seen = []
        real = thermo.log1mexp

        def recorded(v):
            seen.append(np.max(v))
            return real(v)
        monkeypatch.setattr(thermo, "log1mexp", recorded)
        # (the slow and the stiff rate on the direct stretch with its
        # endpoint lengths, and on the tail's nodes: the stiff term is still
        # a normal float at the first node)
        prod = thermo._LoopProduct(1.0, Quasi1D(kappa, 1.0), DEFAULT_CONTROL)
        assert prod.a[1] * prod.l[prod.big_l + 2] < NORMAL_EXP
        assert len(seen) == 4 and max(seen) < NORMAL_EXP

    def test_isotropic_product_is_one_evaluation(self, monkeypatch):
        # one evaluation of the shared rate on the direct stretch with its
        # endpoint lengths L + 1, L + 2, and one on the tail's nodes
        sizes = self._log1mexp_sizes(monkeypatch)
        prod = thermo._LoopProduct(1.0, Isotropic(3, 1e-5), DEFAULT_CONTROL)
        n_grid = int(np.sum(prod.a[0] * prod.l[prod.big_l + 2:] < NORMAL_EXP))
        assert prod.big_l == 1_636
        assert sizes == [1_638, n_grid]

    def test_panel_rule_is_gauss_legendre(self):
        # on [0, 1] the 16-point row integrates t^k exactly for k < 32 and
        # the 8-point row for k < 16, at numpy's Gauss-Legendre nodes
        t, w = thermo._PANEL_NODES, thermo._PANEL_WEIGHTS
        assert t.shape == (24,) and w.shape == (2, 24)
        assert np.all(np.diff(t) > 0.0)
        for row, n in ((0, 16), (1, 8)):
            for k in range(2 * n):
                assert w[row] @ t**k == pytest.approx(1.0 / (k + 1), rel=0.0,
                                                      abs=1e-15)
            x, wx = np.polynomial.legendre.leggauss(n)
            on = w[row] > 0.0
            assert np.allclose(t[on], 0.5 * (1.0 + x), rtol=0.0, atol=1e-15)
            assert np.allclose(w[row, on], 0.5 * wx, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("trap", [Quasi1D(0.5, 1.2), Quasi2D(0.01, 1.0),
                                      Isotropic(3, 1e-5)])
    def test_float_tail_matches_array_form(self, trap):
        # log P on every column of the table against the outer-product form
        # over the axes, each term kept where it is a normal float (the
        # quasi-1D stiff pair has left them by L + 1): bit for bit, on the
        # direct stretch, the endpoint lengths L + 1, L + 2 and the
        # ascending nodes
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        l, n = prod.l, prod.big_l + 2
        assert np.array_equal(l[:n], np.arange(1.0, n + 1.0))
        assert l[n] > prod.big_l + 1.0 and np.all(np.diff(l[n:]) > 0.0)
        start = prod.a * (prod.big_l + 1.0)
        keep = np.abs(log1mexp(start)) >= sys.float_info.min
        assert np.all(start[~keep] >= NORMAL_EXP)
        assert (~keep).any() == isinstance(trap, Quasi1D)
        assert np.array_equal(prod.log_p, _outer_log_p(prod.a, l))
        # the panels end in the one whose end is the first past
        # a_min l = NORMAL_EXP (capped at l = 1e306), beyond which every
        # kept term has left the normal floats and P_l - 1 is 0
        v_end = math.log(min(1e306, NORMAL_EXP / prod.a.min()))
        last = prod._v1 + prod._panels
        assert last - 1.0 < v_end <= last
        assert l.size == n + 24 * prod._panels

    def test_short_stretch_grid_is_taken_in_order(self):
        # under a loose rel_tol the stretch is shorter than the first node's
        # distance from L + 1, so L + 2 lies above it: log P on the table is
        # still the outer-product form at each length, and nu agrees with
        # the default control's to the loose tolerance
        trap = Isotropic(3, 1e-5)
        loose = SeriesControl(rel_tol=1e-4)
        prod = thermo._LoopProduct(1.0, trap, loose)
        assert prod.slow and prod.big_l < 189
        assert prod.l[prod.big_l + 2] < prod.big_l + 2.0
        assert np.array_equal(prod.log_p, _outer_log_p(prod.a, prod.l))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu = nu_rescaled(Equilibrium(1.0, trap, loose, 1e-9))
        assert nu == pytest.approx(nu_rescaled(_eq(trap, 1e-9)), rel=1e-4)

    def test_tail_quadrature_error_is_reported(self):
        # the tail's estimate is |G8 - G16| of its two Gauss-Legendre rules
        # plus the endpoint remainder (11/720)|third difference of the
        # summand over L - 1 ... L + 2|; it meets the default rel_tol and
        # warns, carrying it, under a tolerance no double-precision sum can
        # meet
        trap = Quasi1D(0.3, 1.0)
        eq = _eq(trap, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            nu = nu_rescaled(eq)
        tight = SeriesControl(rel_tol=1e-30)
        prod = thermo._LoopProduct(1.0, trap, tight)
        log_scale = 3.0 * math.log(trap.kappa_abs)
        n = prod.big_l + 2
        # at this gap the tail runs over the whole table
        assert (2000.0 + abs(log_scale)) / (1e-6 + prod.a[0]) > prod.l[-1]
        # nu's error rows: the two rules' weight difference at the nodes
        # and the signed third difference, times 1 - 1/P_l (and the nodes'
        # Jacobian l)
        _, diff, d3 = prod._nu
        fac = -np.expm1(-prod.log_p)
        w16, w8 = np.tile(thermo._PANEL_WEIGHTS, prod._panels)
        assert np.array_equal(diff, (w8 - w16) * (fac[n:] * prod.l[n:]))
        assert np.array_equal(d3, np.array([-1.0, 3.0, -3.0, 1.0])
                              * fac[n - 4:n])
        e = np.exp(log_scale - 1e-6 * prod.l + prod.log_p)
        g8_g16 = float(np.dot(diff, e[n:]))
        rem = 11.0 / 720.0 * abs(float(np.dot(d3, e[n - 4:n])))
        # both against their plain forms: G8 - G16 over the nodes by fsum,
        # the remainder by the third difference of the summand, with only
        # the slow axis (the stiff pair's terms have left the normal floats
        # by L - 1); each is a near-cancellation, known to about 1e-3
        f = e[n:] * fac[n:] * prod.l[n:]
        assert g8_g16 == pytest.approx(math.fsum(w8 * f) - math.fsum(w16 * f),
                                       rel=1e-2)
        l = prod.big_l + np.arange(-1.0, 3.0)
        assert prod.a[1] * l[0] >= NORMAL_EXP
        log_p = -log1mexp(prod.a[0] * l)
        f_end = np.exp(log_scale - 1e-6 * l + log_p) * -np.expm1(-log_p)
        assert rem == pytest.approx(
            11.0 / 720.0 * abs(float(np.diff(f_end, 3)[0])), rel=1e-2)
        assert 0.0 < rem < abs(g8_g16) <= DEFAULT_CONTROL.rel_tol * nu
        with pytest.warns(TruncationWarning) as record:
            assert nu_rescaled(Equilibrium(1.0, trap, tight, 1e-6)) \
                == pytest.approx(nu, rel=1e-14, abs=0.0)
        assert record[0].message.args == (abs(g8_g16) + rem,)


class TestCriticalNumbers:
    def test_d3_value(self):
        assert nu_critical(1.0, 3) == pytest.approx(ZETA_3, abs=1e-12)

    def test_d2_value(self):
        assert nu_critical(1.0, 2) == pytest.approx(ZETA_2, abs=1e-12)

    def test_d1_divergent(self):
        assert math.isinf(nu_critical(1.0, 1))

    def test_beta_scaling(self):
        assert nu_critical(2.0, 3) == pytest.approx(ZETA_3 / 8.0, rel=1e-12)

    def test_nu_m_closed_form(self):
        trap = Quasi1D(0.3, 1.5, omega1=1.0, omega_perp=1.0)
        beta = 1.0
        expected = _nu_critical_trap(beta, trap) \
            + (1.0 * 1.5) ** 2 / (beta * trap.omega0 ** 3)
        assert nu_m(beta, trap) == pytest.approx(expected, rel=1e-14)

    def test_nu_m_isotropic_rejected(self):
        with pytest.raises(ModelError):
            nu_m(1.0, Isotropic(3, 0.3))

    @pytest.mark.parametrize("fn", [
        thermo.nu_critical, thermo._nu_critical_trap, thermo.nu_m,
        rdm.divergence_law, rdm.condensate_density, rdm.barometric_radii,
        aniso.classify, aniso.meso_q1d_prediction],
        ids=lambda fn: fn.__name__)
    def test_no_series_control(self, fn):
        # zeta at xi = 1 is summed to half an ulp whatever the control, so
        # the critical numbers and what reads only them take none
        assert "ctl" not in inspect.signature(fn).parameters


class TestSolvers:
    @pytest.mark.parametrize("trap,nu", [
        (Isotropic(3, 0.1), 0.5 * ZETA_3),
        (Isotropic(3, 0.1), 2.0 * ZETA_3),
        (Isotropic(2, 0.05), 3.0),
        (Isotropic(1, 0.2), 5.0),
        (Quasi1D(0.3, 1.0), 4.0),
        (Quasi2D(0.1, 1.0), 2.0),
    ])
    def test_round_trip(self, trap, nu):
        eq = Equilibrium.solve(CanonicalTarget(1.0, nu), trap)
        assert nu_rescaled(eq) == pytest.approx(nu, rel=1e-9)

    def test_gap_below_double_resolution_of_mu(self):
        # the gap stays meaningful even when E0 - gap rounds back to E0
        trap = Quasi2D(0.005, 1.0)
        target = CanonicalTarget(1.0, 2.0 * _nu_critical_trap(1.0, trap))
        gap = solve_gap(target, trap)
        assert 0.0 < gap < 1e-17

    def test_monotone_in_nu(self):
        trap = Isotropic(3, 0.2)
        gaps = [solve_gap(CanonicalTarget(1.0, nu), trap)
                for nu in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_unreachable_nu_raises(self):
        # nu grows like kappa^3 / gap: at the window's lower edge, the
        # smallest normal float, this trap reaches about 1.2e306
        with pytest.raises(BracketError):
            solve_gap(CanonicalTarget(1.0, 1e308), Isotropic(3, 0.3))

    @pytest.mark.parametrize("kappa", [1e-24, 1e-30, 1e-60, 1e-102])
    def test_tiny_isotropic_trap_solves(self, kappa):
        # E0 = 1.5 kappa: for these 1e-300 E0 is below the normal floats,
        # and the window's lower edge is the smallest normal float
        trap = Isotropic(3, kappa)
        gap = solve_gap(CanonicalTarget(1.0, 2.4), trap)
        assert sys.float_info.min <= gap < ground_energy(trap)
        assert nu_rescaled(_eq(trap, gap)) == pytest.approx(2.4, rel=1e-12)

    def test_tiny_isotropic_gap_below_normal_floats_raises(self):
        # the gap kappa^3 / (beta (nu - nu_c)) would be subnormal
        with pytest.raises(BracketError):
            solve_gap(CanonicalTarget(1.0, 2.4), Isotropic(3, 1e-103))

    @pytest.mark.parametrize("kappa", [0.03785, 0.038, 0.0382, 0.0383])
    def test_quasi1d_gap_near_normal_float_limit(self, kappa):
        # the coexistence gap k1 kp^2 / (beta (nu - nu_m)) lies between the
        # smallest normal float and 1e-300 E0
        trap = Quasi1D(kappa, 1.0)
        gap = solve_gap(CanonicalTarget(1.0, 4.0), trap)
        assert sys.float_info.min <= gap < 1e-300
        assert nu_rescaled(_eq(trap, gap)) == pytest.approx(4.0, rel=1e-12)


def _window_gap(target, trap):
    """The gap by Brent's method on nu - target.nu over the whole window
    [1e-300*E0, E0 + 50/beta] in log Delta: an independent route to the
    root of `solve_gap`."""
    from scipy import optimize

    beta = target.beta
    log_scale = trap.dim * math.log(trap.kappa_abs)
    loops = thermo._LoopProduct(beta, trap, DEFAULT_CONTROL)
    e0 = ground_energy(trap)
    root = optimize.brentq(
        lambda x: loops.sum(beta * math.exp(x), log_scale) - target.nu,
        math.log(1e-300 * e0), math.log(e0 + 50.0 / beta),
        xtol=1e-12, rtol=8.9e-16, maxiter=200)
    return math.exp(root)


# the kappa ladders of the benchmark workloads (bench/workloads.py)
_BENCH_LADDER = (
    [(Quasi1D(k, 1.0), 4.0) for k in (0.4, 0.35, 0.3, 0.25)]
    + [(Quasi2D(k, 1.0), 2.0)
       for k in (0.05, 0.03, 0.02, 0.01, 0.005, 0.0035)]
    + [(Isotropic(3, k), 2.4)
       for k in (1e-5, 5e-6, 3e-6, 2e-6, 1e-6, 5e-7)])


def _solver_cases():
    cases = list(_BENCH_LADDER)
    for d in (1, 2, 3):  # subcritical (every nu for d = 1)
        for kappa in (0.3, 0.01):
            trap = Isotropic(d, kappa)
            nu_c = _nu_critical_trap(1.0, trap)
            cases += [(trap, 0.3 * nu_c if d > 1 else 0.3),
                      (trap, 0.8 * nu_c if d > 1 else 5.0)]
    trap = Quasi1D(0.3, 1.0)  # g-BEC only: nu_c < nu < nu_m
    nu_c, numm = _nu_critical_trap(1.0, trap), nu_m(1.0, trap)
    cases += [(trap, nu_c + 0.1 * (numm - nu_c)), (trap, 0.5 * (nu_c + numm))]
    # the critical band: no closed-form guess, the whole window
    for trap in (Isotropic(3, 0.01), Quasi2D(0.01, 1.0)):
        nu_c = _nu_critical_trap(1.0, trap)
        cases += [(trap, nu_c * (1.0 - 1e-7)), (trap, nu_c * (1.0 + 1e-7))]
    cases.append((Isotropic(1, 0.2), 50.0))  # open-trap guess e^{-50}
    trap = Quasi2D(0.005, 1.0)  # a gap below 1e-17
    cases.append((trap, 2.0 * _nu_critical_trap(1.0, trap)))
    return cases


def _case_id(value):
    if isinstance(value, float):
        return f"nu{value:.9g}"
    return f"{type(value).__name__}-d{value.dim}-k{value.kappa:g}"


class TestTailOracle:
    @pytest.mark.parametrize("trap,nu", _BENCH_LADDER, ids=_case_id)
    def test_tail_matches_adaptive_quadrature(self, trap, nu):
        # oracle: the endpoint Euler-Maclaurin sum `specfun._em_sum` (scipy's
        # adaptive quad) over the scalar P - 1 summand, for nu and Omega,
        # at 1e-6 ... 1e6 times the solved gap; the head, the direct
        # stretch and the closed-form P = 1 part beyond it, by fsum
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert prod.slow
        big_l = prod.big_l
        rates = [a for a in prod.a.tolist() if a * (big_l + 1.0) < NORMAL_EXP]
        l, log_p = prod.l[:big_l], prod.log_p[:big_l]
        gap = solve_gap(CanonicalTarget(1.0, nu), trap)
        for factor in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            w0 = gap * factor
            for per_loop in (False, True):
                log_scale = 0.0 if per_loop \
                    else trap.dim * math.log(trap.kappa_abs)
                if per_loop:
                    whole = prod.log_partition(w0)
                    head = math.fsum(np.exp(-l * w0) * np.expm1(log_p) / l) \
                        - thermo._log1mexp_float(w0)
                else:
                    whole = prod.sum(w0, log_scale)
                    head = math.fsum(np.exp(log_scale - l * w0 + log_p)) \
                        + math.exp(log_scale - (big_l + 1) * w0) \
                        / -math.expm1(-w0)

                def f(l):
                    log_p = -math.fsum(thermo._log1mexp_float(a * l)
                                       for a in rates if a * l < NORMAL_EXP)
                    val = log_scale - l * w0 + log_p \
                        - (math.log(l) if per_loop else 0.0)
                    return math.exp(val) * -math.expm1(-log_p) \
                        if val > -745.0 else 0.0

                l_max = min(1e306, (2000.0 + abs(log_scale))
                            / (w0 + min(rates)))
                ref = specfun._em_sum(f, big_l + 1.0, l_max,
                                      prod.a.tolist() + [w0],
                                      DEFAULT_CONTROL.rel_tol, whole)
                assert whole - head == pytest.approx(
                    ref, rel=0.0, abs=1e-13 * abs(whole))


def _count_nu_evaluations(monkeypatch):
    """Count the calls of `_LoopProduct.sum_and_slope`, the evaluation of
    nu (and its slope) that `solve_gap` makes per trial gap."""
    calls = []
    real = thermo._LoopProduct.sum_and_slope

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)
    monkeypatch.setattr(thermo._LoopProduct, "sum_and_slope", counted)
    return calls


# the critical band, where no closed-form guess applies, and the nu
# evaluations that Brent's method on log nu over the whole gap window takes
# on each
_CRITICAL_CASES = [
    (trap, factor, brent)
    for trap, brents in ((Isotropic(3, 0.01), (14, 14)),
                         (Isotropic(3, 1e-4), (20, 24)),
                         (Quasi2D(0.02, 1.0), (20, 20)),
                         (Quasi1D(0.3, 1.0), (17, 17)))
    for factor, brent in zip((1.0, 1.0 + 5e-7), brents)]


class TestGapSolver:
    @pytest.mark.parametrize("trap,nu", _BENCH_LADDER, ids=_case_id)
    def test_few_nu_evaluations(self, trap, nu, monkeypatch):
        # from the closed-form guess, every bench-ladder solve needs at most
        # 5 evaluations of nu and its slope (Brent's method on log nu from a
        # bracket grown around the guess takes 5-8); at least one shows that
        # the count sees the solve's evaluations
        calls = _count_nu_evaluations(monkeypatch)
        solve_gap(CanonicalTarget(1.0, nu), trap)
        assert 1 <= len(calls) <= 5

    @pytest.mark.parametrize(
        "trap,factor,brent", _CRITICAL_CASES,
        ids=[f"{_case_id(trap)}-nu_c*{factor:.7g}"
             for trap, factor, _ in _CRITICAL_CASES])
    def test_critical_band_evaluations(self, trap, factor, brent,
                                       monkeypatch):
        # from the window's upper edge, no more evaluations than Brent's
        # method over the whole window
        nu = factor * _nu_critical_trap(1.0, trap)
        calls = _count_nu_evaluations(monkeypatch)
        gap = solve_gap(CanonicalTarget(1.0, nu), trap)
        assert 1 <= len(calls) <= brent
        assert nu_rescaled(_eq(trap, gap)) == pytest.approx(nu, rel=1e-12)

    @pytest.mark.parametrize("trap,slow", [(Quasi1D(0.3, 1.0), True),
                                           (Quasi2D(0.1, 1.0), False)],
                             ids=["slow-axis", "relaxed"])
    @pytest.mark.parametrize("w0", [1e-1, 1e-4, 1e-8])
    def test_slope_matches_central_difference(self, trap, slow, w0):
        # w0 S / w0 = S = -d sum / d w0, from the exponentials of the sum
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert prod.slow == slow
        log_scale = 3.0 * math.log(trap.kappa_abs)
        slope = prod.sum_and_slope(w0, log_scale)[1]
        h = 1e-5 * w0
        diff = (prod.sum(w0 - h, log_scale) - prod.sum(w0 + h, log_scale)) \
            / (2.0 * h)
        assert slope / w0 == pytest.approx(diff, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("trap,nu", [(Quasi1D(0.4, 1.0), 4.0),
                                         (Quasi2D(0.05, 1.0), 2.0)],
                             ids=_case_id)
    def test_sums_match_every_loop(self, trap, nu):
        # oracle: math.fsum over every loop up to where each P_l - 1 term is
        # below e^{-50} a_min, the P_l = 1 part in closed form
        # (sum_l e^{-l w0} = 1/(e^{w0} - 1), sum_l l e^{-l w0} =
        # e^{w0}/(e^{w0} - 1)^2, sum_l e^{-l w0}/l = -log(1 - e^{-w0})) and
        # the P_l - 1 part term by term: nu, w0 S and Omega at 0.1, 1 and
        # 10 times the solved gap
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert prod.slow
        a_min = float(prod.a.min())
        l = np.arange(1.0, math.ceil((50.0 - math.log(a_min)) / a_min))
        p_1 = np.expm1(-np.sum(np.log(-np.expm1(-np.outer(prod.a, l))),
                               axis=0))
        log_scale = trap.dim * math.log(trap.kappa_abs)
        gap = solve_gap(CanonicalTarget(1.0, nu), trap)
        for factor in (0.1, 1.0, 10.0):
            w0 = gap * factor
            x = np.exp(-l * w0) * p_1
            geo = 1.0 / math.expm1(w0)
            s, w0_s = prod.sum_and_slope(w0, log_scale)
            assert s == pytest.approx(
                math.exp(log_scale) * (geo + math.fsum(x)), rel=1e-12)
            assert w0_s == pytest.approx(
                w0 * math.exp(log_scale)
                * (geo * geo * math.exp(w0) + math.fsum(l * x)), rel=1e-12)
            assert prod.log_partition(w0) == pytest.approx(
                math.fsum(x / l) - math.log(-math.expm1(-w0)), rel=1e-12)

    def test_no_scipy_optimize(self):
        # one root finder in the package: `_newton_root`
        package = Path(thermo.__file__).parent
        imports = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imports += [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imports += [node.module] + [f"{node.module}.{a.name}"
                                                for a in node.names]
        assert imports and not [m for m in imports
                                if m.startswith("scipy.optimize")]

    @pytest.mark.parametrize("trap,nu", _solver_cases(), ids=_case_id)
    def test_matches_window_solve(self, trap, nu):
        target = CanonicalTarget(1.0, nu)
        gap = solve_gap(target, trap)
        assert nu_rescaled(_eq(trap, gap)) / nu - 1.0 == pytest.approx(
            0.0, abs=1e-11)
        assert gap == pytest.approx(_window_gap(target, trap), rel=1e-12,
                                    abs=0.0)


def _omega_mode_sum(trap, gap, n_slow=2000, n_perp=300):
    """beta Omega = sum over modes of (n+1) log(1 - e^{-(beta gap + a_perp n
    + a_1 s)}) for Quasi1D at beta = 1: the slow quantum number s summed
    directly up to n_slow, beyond it by Euler-Maclaurin with the closed-form
    integral -Li2(e^{-v})/a_1 (Li2(e^{-v}) = spence(1 - e^{-v}))."""
    from scipy.special import spence

    a1, ap = trap.kappas[0], trap.kappas[1]
    n = np.arange(n_perp, dtype=float)
    u = gap + ap * n
    s = np.arange(n_slow, dtype=float)
    head = np.sum(np.log(-np.expm1(-(u[:, None] + a1 * s))), axis=1)
    v = u + a1 * n_slow
    tail = -spence(-np.expm1(-v)) / a1 + 0.5 * np.log(-np.expm1(-v)) \
        - a1 / np.expm1(v) / 12.0
    return float(np.sum((n + 1.0) * (head + tail)))


class TestGrandPotential:
    # Omega at gap 1e-3, beta 1, by the plain direct sum over all loop
    # lengths l <= max_j ln(2d/rel_tol)/a_j (these traps need no tail)
    DIRECT = [(Quasi1D(0.4, 1.0), -13708.726837889773),
              (Quasi1D(0.35, 1.0), -130994.3741238266),
              (Quasi1D(0.3, 1.0), -3748515.9658986414),
              (Quasi2D(0.05, 1.0), -68188909.74458598),
              (Quasi2D(0.02, 1.0), -189435612465.3532),
              (Isotropic(3, 0.01), -1099295.1312358335),
              (Isotropic(3, 1e-5), -1081140004224442.2)]

    @staticmethod
    def _check_particle_number(trap, gap):
        # dOmega/dgap = -dOmega/dmu equals the (unrescaled) particle number
        h = 1e-6
        om_p = grand_potential(_eq(trap, gap + h))
        om_m = grand_potential(_eq(trap, gap - h))
        n_exp = nu_rescaled(_eq(trap, gap)) / trap.kappa_abs ** trap.dim
        assert (om_p - om_m) / (2.0 * h) == pytest.approx(n_exp, rel=1e-7)

    def test_mu_derivative_gives_particle_number(self):
        self._check_particle_number(Isotropic(3, 0.4), 0.3)

    @pytest.mark.parametrize("trap", [
        Quasi1D(0.25, 1.0), Quasi1D(0.2, 1.0), Quasi2D(0.01, 1.0),
        Quasi2D(0.005, 1.0), Quasi2D(0.0035, 1.0), Isotropic(3, 5e-7)])
    def test_mu_derivative_with_slow_axes(self, trap):
        self._check_particle_number(trap, 1e-3)

    @pytest.mark.parametrize("trap,ref", DIRECT)
    def test_matches_direct_sum(self, trap, ref):
        assert grand_potential(_eq(trap, 1e-3)) == pytest.approx(ref,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.3, 0.25])
    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-12, 1e-100])
    def test_slow_axis_vs_mode_sum(self, kappa, gap):
        trap = Quasi1D(kappa, 1.0)
        assert grand_potential(_eq(trap, gap)) == pytest.approx(
            _omega_mode_sum(trap, gap), rel=1e-12)

    @pytest.mark.parametrize("kappa", [1e-104, 1e-200])
    def test_beyond_float_range_raises(self, kappa):
        # |Omega| ~ zeta(4) / (beta kappa^3) exceeds the float range
        with pytest.raises(DomainError, match=f"kappa={kappa!r}"):
            grand_potential(_eq(Isotropic(3, kappa), 1e-3))

    def test_near_float_range_is_finite(self):
        assert grand_potential(_eq(Isotropic(3, 1e-100), 1e-3)) \
            == pytest.approx(-1.0811219978182353e+300, rel=1e-14, abs=0.0)

    def test_decreasing_in_mu(self):
        trap = Isotropic(2, 0.5)
        vals = [grand_potential(_eq(trap, g)) for g in (1.0, 0.5, 0.1)]
        assert vals[0] > vals[1] > vals[2]


class TestOpenTrapLaws:
    def test_nu_open_trap_matches_small_kappa(self):
        # the kappa-dependent number converges to the open-trap closed form
        beta, mu = 1.0, -0.4
        ref = nu_open_trap(beta, mu, 3)
        trap = Isotropic(3, 0.005)
        eq = _eq(trap, -mu, beta)
        assert nu_rescaled(eq) == pytest.approx(ref, rel=2e-2)

    def test_mu_open_trap_inverts(self):
        for d in (1, 2, 3):
            nu = 0.4 if d > 1 else 2.5
            mu0 = mu_open_trap(1.0, nu, d)
            assert mu0 < 0.0
            assert nu_open_trap(1.0, mu0, d) == pytest.approx(nu, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mu_open_trap_vs_mpmath(self, d):
        # the root finder on log g_d(e^x) resolves mu0 to rounding up to
        # 0.98 nu_c
        import mpmath

        nu_c = nu_critical(1.0, d)
        with mpmath.workdps(40):
            for frac in (0.01, 0.3, 0.8, 0.9, 0.98):
                nu = frac * nu_c
                mu0 = mu_open_trap(1.0, nu, d)
                ref = mpmath.findroot(
                    lambda x: mpmath.polylog(d, mpmath.exp(x)) - nu,
                    (mu0 * 1.001, mu0 * 0.999), solver="secant")
                assert mu0 == pytest.approx(float(ref), rel=5e-14, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("frac,rel", [(0.999, 5e-13), (1.0 - 1e-6, 3e-10)])
    def test_mu_open_trap_near_nu_c(self, d, frac, rel, monkeypatch):
        # near nu_c the steps end once the residual is below the rounding
        # of log g_d, instead of bisecting through that noise (a stop rule
        # on the step alone takes 27 to 47 polylog calls here); mu0 is as
        # accurate as the conditioning of g_d near z = 1 allows
        import mpmath

        calls = []
        real = thermo.polylog

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(thermo, "polylog", counting)
        nu = frac * nu_critical(1.0, d)
        mu0 = mu_open_trap(1.0, nu, d)
        assert len(calls) <= 15
        with mpmath.workdps(40):
            ref = mpmath.findroot(
                lambda x: mpmath.polylog(d, mpmath.exp(x)) - nu,
                (mu0 * 1.001, mu0 * 0.999), solver="secant")
        assert mu0 == pytest.approx(float(ref), rel=rel, abs=0.0)

    def test_mu_open_trap_d1_large_nu(self):
        # mu0 = log(1 - e^{-50}) = -e^{-50}(1 + e^{-50}/2 + ...), not 0
        assert mu_open_trap(1.0, 50.0, 1) == pytest.approx(
            -math.exp(-50.0), rel=1e-15, abs=0.0)
        assert gap_asymptotic(CanonicalTarget(1.0, 40.0),
                              Isotropic(1, 0.2)) > 0.0

    @pytest.mark.parametrize("call, match", [
        (lambda: nu_open_trap(1.0, 0.0, 3), "requires mu < 0"),
        (lambda: nu_open_trap(1.0, -0.5, 4), "d must be 1, 2 or 3"),
        (lambda: nu_critical(1.0, 0), "d must be 1, 2 or 3"),
        (lambda: nu_critical(0.0, 3), "beta must be positive"),
        (lambda: mu_open_trap(1.0, 0.5, 4), "d must be 1, 2 or 3"),
    ], ids=["nu-open-mu", "nu-open-d", "nu-critical-d", "nu-critical-beta",
            "mu-open-d"])
    def test_domain_checks(self, call, match):
        with pytest.raises(DomainError, match=match):
            call()

    def test_mu_open_trap_supercritical_rejected(self):
        with pytest.raises(RegimeError):
            mu_open_trap(1.0, 2.0 * ZETA_3, 3)


class TestCriticalSide:
    @pytest.mark.parametrize("factor,side", [
        (1.0 - 2e-6, -1), (1.0 - 5e-7, 0), (1.0, 0), (1.0 + 5e-7, 0),
        (1.0 + 2e-6, 1)])
    def test_three_answers(self, factor, side):
        assert critical_side(factor * ZETA_3, ZETA_3) == side

    def test_infinite_critical_number_never_reached(self):
        # nu_c = +inf for d = 1
        assert critical_side(1e300, math.inf) == -1

    def test_band_read_only_here(self):
        # one rule: CRITICAL_BAND is named in no other module, and in
        # thermo only read by critical_side
        package = Path(thermo.__file__).parent
        users = sorted(p.name for p in package.glob("*.py")
                       if "CRITICAL_BAND" in p.read_text())
        assert users == ["thermo.py"]
        tree = ast.parse((package / "thermo.py").read_text())
        readers = {fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Name)
                   and node.id == "CRITICAL_BAND"}
        assert readers == {"critical_side"}


class TestGapAsymptotics:
    def test_supercritical_isotropic(self):
        trap = Isotropic(3, 0.01)
        target = CanonicalTarget(1.0, 2.0 * ZETA_3)
        pred = gap_asymptotic(target, trap)
        assert pred == pytest.approx(0.01**3 / ZETA_3, rel=1e-12)
        assert solve_gap(target, trap) == pytest.approx(pred, rel=0.05)

    def test_subcritical_reduces_to_open_trap(self):
        trap = Isotropic(3, 0.05)
        target = CanonicalTarget(1.0, 0.5 * ZETA_3)
        assert gap_asymptotic(target, trap) == pytest.approx(
            -mu_open_trap(1.0, 0.5 * ZETA_3, 3), rel=1e-12)

    def test_critical_band_rejected(self):
        trap = Isotropic(3, 0.05)
        with pytest.raises(RegimeError):
            gap_asymptotic(CanonicalTarget(1.0, ZETA_3 * (1.0 + 1e-8)), trap)

    def test_quasi1d_regimes(self):
        trap = Quasi1D(0.25, 1.0)
        beta = 1.0
        nuc = _nu_critical_trap(beta, trap)
        numm = nu_m(beta, trap)
        mid = gap_asymptotic(CanonicalTarget(beta, 0.5 * (nuc + numm)), trap)
        assert mid == pytest.approx(
            math.exp(-(0.5 * (numm - nuc)) / 0.25**2), rel=1e-12)
        k1, kp, _ = trap.kappas
        deep = gap_asymptotic(CanonicalTarget(beta, 2.0 * numm), trap)
        assert deep == pytest.approx(k1 * kp**2 / (beta * numm), rel=1e-12)


def _plain(n):
    return 1.0


def _linear(n):
    return n + 1.0


def _fsum_band(u0, a, n0, n1, weight):
    """math.fsum of weight(n) / (e^{u0 + a n} - 1) over n0..n1, with the
    Bose factor as e^{-v} / (1 - e^{-v}) so that no term overflows."""
    n = np.arange(n0, n1 + 1, dtype=float)
    v = u0 + a * n
    return math.fsum(weight(n) * np.exp(-v) / -np.expm1(-v))


class TestBoseRangeSum:
    def test_against_direct_enumeration(self):
        # cross the end of the direct stretch and compare with brute force
        u0, a = 0.05, 1e-5
        for weight in (_plain, _linear):
            assert _band_series(u0, a, 1, 700_000, weight,
                                DEFAULT_CONTROL.rel_tol) == pytest.approx(
                _fsum_band(u0, a, 1, 700_000, weight), rel=1e-13, abs=0.0)

    def test_empty_range(self):
        assert _band_series(0.1, 0.1, 5, 4, _plain,
                            DEFAULT_CONTROL.rel_tol) == 0.0

    # every range crosses the 10^4-term direct stretch; on (0.1, 1e-9, 0,
    # 520_000) with the linear weight, a 10^5-term head plus a closed-form
    # B2 Euler-Maclaurin tail is 2.2e-10 off
    @pytest.mark.parametrize("a, n0, n1", [(1e-9, 0, 520_000),
                                           (1e-6, 1, 250_000),
                                           (1e-4, 7, 10_500)])
    @pytest.mark.parametrize("u0", [1e-12, 1e-6, 0.1])
    def test_against_fsum(self, u0, a, n0, n1):
        for weight in (_plain, _linear):
            assert _band_series(u0, a, n0, n1, weight,
                                DEFAULT_CONTROL.rel_tol) == pytest.approx(
                _fsum_band(u0, a, n0, n1, weight), rel=1e-13, abs=0.0)

    def test_tail_beyond_exp_overflow(self):
        # u0 + a n reaches 1000 in the tail, where 1/expm1 would overflow
        u0, a, n1 = 0.1, 1e-2, 100_000
        for weight in (_plain, _linear):
            assert _band_series(u0, a, 0, n1, weight,
                                DEFAULT_CONTROL.rel_tol) == pytest.approx(
                _fsum_band(u0, a, 0, n1, weight), rel=1e-13, abs=0.0)


class TestOccupationAndBand:
    def test_ground_occupation(self):
        trap = Isotropic(3, 0.2)
        eq = Equilibrium.solve(CanonicalTarget(1.0, 2.0), trap)
        occ = occupation(eq, (0, 0, 0))
        assert occ == pytest.approx(trap.kappa**3 * float(bose(eq.gap)),
                                    rel=1e-10)

    def test_ground_occupation_past_expm1_overflow(self):
        # beta Delta = 720.15 (mu = -720): kappa^3 e^{-beta Delta} is
        # subnormal, so it carries only about 7 significant digits
        trap = Isotropic(3, 0.1)
        eq = Equilibrium(1.0, trap, DEFAULT_CONTROL, 720.15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            occ = occupation(eq, (0, 0, 0))
        assert occ == pytest.approx(trap.kappa**3 * math.exp(-720.15),
                                    rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("s, error", [
        ((0, 0), DimensionMismatch), ((0, -1, 0), DomainError)])
    def test_bad_index_rejected(self, s, error):
        with pytest.raises(error):
            occupation(_eq(Isotropic(3, 0.2), 0.1), s)

    def test_excited_below_ground(self):
        trap = Isotropic(3, 0.2)
        eq = Equilibrium.solve(CanonicalTarget(1.0, 2.0), trap)
        assert occupation(eq, (1, 0, 0)) < occupation(eq, (0, 0, 0))

    def test_band_sum_vs_brute_force(self):
        trap = Quasi1D(0.4, 1.0)
        beta, eps = 1.0, 0.05
        eq = Equilibrium.solve(CanonicalTarget(beta, 3.0), trap)
        band = gbec_band_sum(eq, eps)
        gap = eq.gap
        k1, kp, _ = trap.kappas
        total = 0.0
        for n1 in range(int(eps / kp) + 1):
            for n2 in range(int(eps / kp) + 1):
                s_hi = int(math.floor((eps - kp * (n1 + n2)) / k1))
                if s_hi < 0:
                    continue
                s_lo = 1 if n1 == n2 == 0 else 0
                s = np.arange(s_lo, s_hi + 1, dtype=float)
                if len(s):
                    total += float(np.sum(1.0 / np.expm1(
                        beta * gap + beta * k1 * s + beta * kp * (n1 + n2))))
        assert band == pytest.approx(trap.kappa_abs**3 * total, rel=1e-9)

    def test_quasi2d_band_vs_direct_sum(self):
        # about 1.9e6 modes: the pair level n (degeneracy n+1) per level s1
        trap = Quasi2D(0.005, 1.0)
        beta, eps = 1.0, 0.006
        eq = Equilibrium.solve(CanonicalTarget(beta, 2.0), trap)
        k1, kp, _ = trap.kappas
        terms = []
        for s1 in range(int(eps / k1) + 1):
            n_hi = int(math.floor((eps - k1 * s1) / kp))
            terms.append(_fsum_band(beta * (eq.gap + k1 * s1), beta * kp,
                                    1 if s1 == 0 else 0, n_hi, _linear))
        assert gbec_band_sum(eq, eps) == pytest.approx(
            trap.kappa_abs**3 * math.fsum(terms), rel=1e-13, abs=0.0)

    def test_band_arrays_stay_within_direct_stretch(self, monkeypatch):
        # 10^7 isotropic levels below epsilon: the Bose factor must never
        # be evaluated on more than one direct stretch at once
        sizes = []
        real_bose = thermo.bose

        def recording_bose(v):
            sizes.append(np.size(v))
            return real_bose(v)

        monkeypatch.setattr(thermo, "bose", recording_bose)
        band = gbec_band_sum(_eq(Isotropic(3, 1e-7), 1e-3), 1.0)
        assert band > 0.0
        assert sizes and max(sizes) <= specfun._DIRECT_CAP

    @pytest.mark.parametrize("kappa", [0.2, 0.07])
    def test_merged_axes_match_isotropic(self, kappa):
        # kappa_c = 0: all three quasi-1D axes are equal and form one run;
        # epsilon lies off the level grid of both kappas
        eps, beta = 0.53, 1.0
        iso = Equilibrium.solve(CanonicalTarget(beta, 2.0), Isotropic(3, kappa))
        q1d = Equilibrium(beta, Quasi1D(kappa, 0.0), DEFAULT_CONTROL, iso.gap)
        assert nu_rescaled(q1d) == pytest.approx(nu_rescaled(iso), rel=1e-14)
        assert gbec_band_sum(q1d, eps) == pytest.approx(
            gbec_band_sum(iso, eps), rel=1e-14)

    def test_band_requires_valid_epsilon(self):
        with pytest.raises(DomainError):
            gbec_band_sum(Equilibrium.solve(CanonicalTarget(1.0, 1.0),
                                            Isotropic(3, 0.3)), 0.0)

    def test_band_empty_when_epsilon_below_first_level(self):
        eq = Equilibrium.solve(CanonicalTarget(1.0, 1.0), Isotropic(3, 0.3))
        assert gbec_band_sum(eq, 0.05) == 0.0


class TestDirectStretch:
    # about 12 kappa per model across the ladders' range, each at a
    # condensed, a deep and a large gap; the isotropic sweep starts where
    # nu and Omega still relax within the cap (kappa above about 2.5e-3)
    SWEEP = {"quasi2d": [Quasi2D(k, 1.0)
                         for k in np.geomspace(0.05, 0.002, 12)],
             "quasi1d": [Quasi1D(k, 1.0)
                         for k in np.geomspace(0.4, 0.05, 12)],
             "isotropic": [Isotropic(3, k)
                           for k in np.geomspace(4e-3, 1e-7, 13)]}

    @staticmethod
    def _sums(trap):
        log_scale = trap.dim * math.log(trap.kappa_abs)
        loops = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        x, y = np.array([0.5, 0.2, 0.0]), np.array([0.0, 0.1, 0.3])
        sums = []
        for gap in (1e-300, 1e-12, 1.0):
            eq = _eq(trap, gap)
            sums.append((loops.sum(gap, log_scale), loops.log_partition(gap),
                         rdm.noncondensate(x, y, eq)))
        return loops.big_l, sums

    @pytest.mark.parametrize("model", SWEEP)
    def test_continuity_sweep(self, model, monkeypatch):
        # nu, Omega and an off-diagonal window sum from the computed
        # stretch agree with the cap's stretch, forced through
        # `specfun._direct_length`, across the ladders and across the
        # switch from a sum within the cap to a tail, and no call warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trap in self.SWEEP[model]:
                big_l, sums = self._sums(trap)
                with monkeypatch.context() as m:
                    m.setattr(specfun, "_direct_length",
                              lambda rate, rel_tol: specfun._DIRECT_CAP)
                    long_l, refs = self._sums(trap)
                assert big_l == long_l < specfun._DIRECT_CAP \
                    or big_l < long_l == specfun._DIRECT_CAP
                for got, want in zip(sums, refs):
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
