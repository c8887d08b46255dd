"""Thermodynamics tests: dual-route particle numbers, gap solving,
asymptotic laws and band sums."""

import math
import warnings

import numpy as np
import pytest

from boseloops import specfun, thermo
from boseloops.errors import (BracketError, DomainError, ModelError,
                              RegimeError, TruncationWarning)
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, ground_energy)
from boseloops.specfun import DEFAULT_CONTROL
from boseloops.thermo import (CanonicalTarget, Equilibrium, _band_series,
                              _nu_critical_trap, bose, gap_asymptotic,
                              gbec_band_sum, grand_potential, log1mexp,
                              mu_open_trap, nu_critical, nu_eigen_sum, nu_m,
                              nu_open_trap, nu_rescaled, occupation,
                              solve_gap, solve_mu)

ZETA_3 = 1.2020569031595942854
ZETA_2 = 1.6449340668482264365


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

    def test_bose(self):
        assert float(bose(math.log(2.0))) == pytest.approx(1.0, rel=1e-14)


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
        # the default direct stretch: the Euler-Maclaurin tail from 10^4 + 1
        # must agree with the long direct stretch and its geometric tail
        traps = [Quasi1D(0.4, 1.0), Quasi1D(0.35, 1.0), Quasi2D(0.05, 1.0),
                 Quasi2D(0.03, 1.0), Isotropic(3, 1e-3)]
        em = [thermo._LoopProduct(1.0, t, DEFAULT_CONTROL) for t in traps]
        monkeypatch.setattr(specfun, "_DIRECT_CAP", 2 * 10**6)
        for trap, tail in zip(traps, em):
            ref = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
            assert not ref.slow.any() and tail.slow.any()
            log_scale = trap.dim * math.log(trap.kappa_abs)
            for gap in (1e-2, 1e-6, 1e-12):
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
                                      Isotropic(3, 0.01)])
    def test_axis_accumulation_matches_outer_product(self, trap):
        # reference: all axes at once on the (axes x L) grid, summed over axes
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert np.array_equal(prod.l, np.arange(1.0, prod.big_l + 1.0))
        ref = -np.sum(log1mexp(np.minimum(np.outer(prod.a, prod.l), 745.0)),
                      axis=0)
        assert np.array_equal(prod.log_p, ref)

    def test_product_built_once_per_solve(self, monkeypatch):
        # P_l is gap-independent: one solve builds it once, one axis at a time
        trap = Quasi2D(0.1, 1.0)
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        assert not prod.slow.any() and prod.big_l == 5_863
        sizes = self._log1mexp_sizes(monkeypatch)
        solve_gap(CanonicalTarget(1.0, 2.0), trap)
        assert sum(sizes) == 3 * 5_863

    def test_product_built_once_with_slow_axis(self, monkeypatch):
        # the quadrature tail that runs per trial gap works on floats
        trap = Quasi1D(0.3, 1.0)
        assert thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL).slow.any()
        sizes = self._log1mexp_sizes(monkeypatch)
        solve_gap(CanonicalTarget(1.0, 4.0), trap)
        assert sizes == [10_000] * 3

    @pytest.mark.parametrize("trap", [Quasi1D(0.3, 1.0), Quasi2D(0.01, 1.0),
                                      Isotropic(3, 1e-5)])
    def test_float_tail_matches_array_form(self, trap):
        # the tail's float form of log P against the numpy form of the
        # direct stretch, with the same branches and clamp.  libm and
        # numpy's vectorised exp/log1p/expm1 round differently for about 1
        # argument in 1000, so a few points may differ in the last bits
        prod = thermo._LoopProduct(1.0, trap, DEFAULT_CONTROL)
        grid = np.logspace(math.log10(1e4 + 1.0), 300.0, 2000)
        differ = 0
        for l in grid.tolist():
            ref = -np.sum(log1mexp(np.minimum(prod.a * l, 745.0)))
            log_p = prod._log_p(l)
            differ += log_p != ref
            assert abs(log_p - ref) <= 2.0 * math.ulp(ref)
        assert differ <= len(grid) // 100

    def test_tail_quadrature_error_is_reported(self, monkeypatch):
        import scipy.integrate

        trap = Quasi1D(0.3, 1.0)
        eq = _eq(trap, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            nu = nu_rescaled(eq)
        real = scipy.integrate.quad

        def sloppy(*args, **kwargs):
            val, _err = real(*args, **kwargs)
            return val, 1e-3 * nu
        monkeypatch.setattr(scipy.integrate, "quad", sloppy)
        with pytest.warns(TruncationWarning) as record:
            assert nu_rescaled(eq) == nu
        assert record[0].message.args == (1e-3 * nu,)


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
        assert solve_mu(target, trap) == ground_energy(trap)  # documented loss

    def test_monotone_in_nu(self):
        trap = Isotropic(3, 0.2)
        gaps = [solve_gap(CanonicalTarget(1.0, nu), trap)
                for nu in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_unreachable_nu_raises(self):
        with pytest.raises(BracketError):
            solve_gap(CanonicalTarget(1.0, 1e305), Isotropic(3, 0.3))


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


class TestGapSolver:
    @pytest.mark.parametrize("trap,nu", _BENCH_LADDER, ids=_case_id)
    def test_few_nu_evaluations(self, trap, nu, monkeypatch):
        # from the closed-form guess, every bench-ladder solve needs at most
        # 10 evaluations of nu, bracket included (a whole-window Brent
        # solve on nu needs 22-27)
        calls = []
        real = thermo._LoopProduct.sum

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)
        monkeypatch.setattr(thermo._LoopProduct, "sum", counted)
        solve_gap(CanonicalTarget(1.0, nu), trap)
        assert len(calls) <= 10

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
    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    def test_slow_axis_vs_mode_sum(self, kappa, gap):
        trap = Quasi1D(kappa, 1.0)
        assert grand_potential(_eq(trap, gap)) == pytest.approx(
            _omega_mode_sum(trap, gap), rel=1e-12)

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
        # Brent on log g_d(e^x) resolves mu0 to rounding up to 0.98 nu_c
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

    def test_mu_open_trap_d1_large_nu(self):
        # mu0 = log(1 - e^{-50}) = -e^{-50}(1 + e^{-50}/2 + ...), not 0
        assert mu_open_trap(1.0, 50.0, 1) == pytest.approx(
            -math.exp(-50.0), rel=1e-15, abs=0.0)
        assert gap_asymptotic(CanonicalTarget(1.0, 40.0),
                              Isotropic(1, 0.2)) > 0.0

    def test_mu_open_trap_supercritical_rejected(self):
        with pytest.raises(RegimeError):
            mu_open_trap(1.0, 2.0 * ZETA_3, 3)


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

    def test_band_requires_valid_epsilon(self):
        with pytest.raises(DomainError):
            gbec_band_sum(Equilibrium.solve(CanonicalTarget(1.0, 1.0),
                                            Isotropic(3, 0.3)), 0.0)

    def test_band_empty_when_epsilon_below_first_level(self):
        eq = Equilibrium.solve(CanonicalTarget(1.0, 1.0), Isotropic(3, 0.3))
        assert gbec_band_sum(eq, 0.05) == 0.0
