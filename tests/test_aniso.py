"""Anisotropic-model tests: regime classification, mesoscopic windows and
their closed-form predictors."""

import math

import numpy as np
import pytest

from boseloops.aniso import (AnisotropicRegime, ChiSplit, MesoPrediction,
                             additional_q2d, classify, meso_q1d,
                             meso_q1d_prediction, q2d_additional_limit,
                             q2d_chi_split)
from boseloops.errors import DomainError, ModelError, RegimeError
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, ground_energy,
                               ground_state_product, log_kernel_d)
from boseloops.rdm import _noncond_windows, loop_decompose
from boseloops.specfun import DEFAULT_CONTROL, SeriesControl, de_broglie
from boseloops.thermo import (CanonicalTarget, Equilibrium, _nu_critical_trap,
                              gap_asymptotic, nu_m)

BETA = 1.0


class TestClassify:
    def test_isotropic_rejected(self):
        with pytest.raises(ModelError):
            classify(CanonicalTarget(BETA, 1.0), Isotropic(3, 0.3))

    def test_quasi1d_regimes(self):
        trap = Quasi1D(0.3, 1.0)
        nuc = _nu_critical_trap(BETA, trap)
        numm = nu_m(BETA, trap)
        assert classify(CanonicalTarget(BETA, 0.5 * nuc), trap).tag \
            == "subcritical"
        assert classify(CanonicalTarget(BETA, 0.5 * (nuc + numm)), trap).tag \
            == "gbec_only"
        assert classify(CanonicalTarget(BETA, 2.0 * numm), trap).tag \
            == "coexistence"

    def test_quasi2d_regimes(self):
        trap = Quasi2D(0.3, 1.0)
        nuc = _nu_critical_trap(BETA, trap)
        assert classify(CanonicalTarget(BETA, 0.5 * nuc), trap).tag \
            == "subcritical"
        assert classify(CanonicalTarget(BETA, 2.0 * nuc), trap).tag \
            == "supercritical"

    def test_boundary_flag(self):
        trap = Quasi2D(0.3, 1.0)
        nuc = _nu_critical_trap(BETA, trap)
        reg = classify(CanonicalTarget(BETA, nuc * (1.0 + 1e-9)), trap)
        assert isinstance(reg, AnisotropicRegime)
        assert reg.critical_boundary
        assert not classify(CanonicalTarget(BETA, 2.0 * nuc), trap) \
            .critical_boundary

    @pytest.mark.parametrize("trap", [Quasi1D(0.3, 1.0), Quasi2D(0.3, 1.0)])
    def test_boundary_is_where_gap_asymptotic_raises(self, trap):
        # both read thermo.critical_side, each band relative to its own
        # critical number (nu_m's band used to be scaled by nu_c)
        criticals = [_nu_critical_trap(BETA, trap)]
        if isinstance(trap, Quasi1D):
            criticals.append(nu_m(BETA, trap))
        for crit in criticals:
            for f in (1 - 2e-6, 1 - 7e-7, 1 - 5e-7, 1.0, 1 + 5e-7, 1 + 8e-7,
                      1 + 2e-6):
                target = CanonicalTarget(BETA, f * crit)
                boundary = classify(target, trap).critical_boundary
                assert boundary == (abs(f - 1.0) < 1e-6)
                try:
                    gap_asymptotic(target, trap)
                    raised = False
                except RegimeError:
                    raised = True
                assert raised == boundary, (crit, f)

    def test_eta(self):
        trap = Quasi2D(0.3, 1.0)
        nuc = _nu_critical_trap(BETA, trap)
        assert classify(CanonicalTarget(BETA, 2.0 * nuc), trap).eta \
            == pytest.approx(2.0, rel=1e-12)


class TestMesoQuasi1D:
    def test_vs_brute_force(self):
        # enumerate the defined window sum directly from the kernels
        kappa = 0.4
        trap = Quasi1D(kappa, 1.0)
        eq = Equilibrium.solve(
            CanonicalTarget(BETA, 1.5 * _nu_critical_trap(BETA, trap)), trap)
        gap = eq.gap
        x = np.zeros(3)
        n = int(math.floor(kappa ** -1.25))
        m = int(math.floor(math.exp(1.0 / kappa**2)))
        e0 = ground_energy(trap)
        dyad = ground_state_product(x, x, trap)
        l = np.arange(n + 1, m + 1, dtype=float)
        log_k = log_kernel_d(x, x, l * BETA, trap) + e0 * l * BETA
        brute = float(np.sum(np.exp(-l * BETA * gap)
                             * (np.exp(log_k) - dyad)))
        assert meso_q1d(x, x, eq) == pytest.approx(math.log(brute), abs=1e-10)

    def test_window_ends_at_macro_cutoff_with_sigma2(self):
        # M = floor(kappa^-sigma2 e^{kappa_c^2/kappa^2}) = 651, not the 518
        # of e^{kappa_c^2/kappa^2} alone; in the coexistence regime the gap
        # is small enough that loops 519..651 carry 6% of the window
        trap = Quasi1D(0.4, 1.0)
        eq = Equilibrium.solve(CanonicalTarget(BETA, 2.0 * nu_m(BETA, trap)),
                               trap, SeriesControl(sigma2=0.25))
        x = np.zeros(3)
        dec = loop_decompose(x, x, eq)
        assert dec.macro_cutoff == 651.0
        window, = _noncond_windows(x, x, eq, [dec.short_cutoff,
                                              int(dec.macro_cutoff)])
        assert meso_q1d(x, x, eq) == pytest.approx(math.log(window),
                                                   rel=1e-12)

    def test_model_check(self):
        eq = Equilibrium.solve(CanonicalTarget(BETA, 1.0), Quasi2D(0.3, 1.0))
        with pytest.raises(ModelError):
            meso_q1d(np.zeros(3), np.zeros(3), eq)

    def test_grows_as_kappa_shrinks(self):
        vals = []
        for kappa in (0.4, 0.3, 0.25):
            trap = Quasi1D(kappa, 1.0)
            eq = Equilibrium.solve(CanonicalTarget(BETA, 2.0 * nu_m(BETA, trap)),
                                   trap)
            vals.append(meso_q1d(np.zeros(3), np.zeros(3), eq))
        assert vals[0] < vals[1] < vals[2]


class TestMesoPrediction:
    def test_regime_split(self):
        trap = Quasi1D(0.3, 1.0)
        nuc = _nu_critical_trap(BETA, trap)
        numm = nu_m(BETA, trap)
        mid = meso_q1d_prediction(
            CanonicalTarget(BETA, 0.5 * (nuc + numm)), trap)
        deep = meso_q1d_prediction(CanonicalTarget(BETA, 2.0 * numm), trap)
        assert isinstance(mid, MesoPrediction)
        assert mid.regime == "gbec_only"
        assert deep.regime == "coexistence"
        # coexistence exponent saturates at omega_c^2/(2 omega_perp^2 kappa^2)
        assert deep.exponent == pytest.approx(1.0 / (2.0 * 0.09), rel=1e-12)
        assert deep.log_value == deep.log_prefactor + deep.exponent

    def test_regime_is_classify_tag(self):
        # one regime decision: at nu_m exactly both say 'coexistence'
        trap = Quasi1D(0.3, 1.0)
        nuc = _nu_critical_trap(BETA, trap)
        numm = nu_m(BETA, trap)
        for nu in (1.5 * nuc, numm * (1 - 5e-7), numm, numm * (1 + 5e-7),
                   2.0 * numm):
            target = CanonicalTarget(BETA, nu)
            assert meso_q1d_prediction(target, trap).regime \
                == classify(target, trap).tag
        assert meso_q1d_prediction(CanonicalTarget(BETA, numm), trap) \
            .regime == "coexistence"

    def test_prefactor_normalizations_agree(self):
        # the two printed prefactor forms are algebraically identical: the
        # predictor's m omega_perp kappa_perp / (sqrt(pi) hbar lambda) and
        # kappa_perp sqrt(m^3 omega_perp^2 / (2 pi^2 beta hbar^4))
        for kappa in (0.4, 0.3, 0.25):
            trap = Quasi1D(kappa, 1.0)
            pred = meso_q1d_prediction(
                CanonicalTarget(BETA, 2.0 * nu_m(BETA, trap)), trap)
            c = trap.consts
            second = trap.kappas[1] * math.sqrt(
                c.mass**3 * trap.omega_perp**2
                / (2.0 * math.pi**2 * BETA * c.hbar**4))
            assert pred.log_prefactor == pytest.approx(math.log(second),
                                                       abs=1e-12)

    def test_subcritical_rejected(self):
        trap = Quasi1D(0.3, 1.0)
        with pytest.raises(RegimeError):
            meso_q1d_prediction(
                CanonicalTarget(BETA, 0.5 * _nu_critical_trap(BETA, trap)),
                trap)


class TestAdditionalQuasi2D:
    def test_limit_closed_form(self):
        trap = Quasi2D(0.05, 1.0)
        lam = de_broglie(BETA)
        expected = 2.0 * math.sqrt(1.0 / math.pi) / lam**2
        assert q2d_additional_limit(BETA, trap) == pytest.approx(
            expected, rel=1e-14)

    def test_positive_and_window_monotone_in_chi(self):
        trap = Quasi2D(0.05, 1.0)
        eq = Equilibrium.solve(
            CanonicalTarget(BETA, 1.5 * _nu_critical_trap(BETA, trap)), trap)
        x = np.zeros(3)
        small = additional_q2d(x, x, eq, chi=1.0)
        large = additional_q2d(x, x, eq, chi=2.0)
        assert 0.0 < small <= large

    def test_chi_split_is_a_partition(self):
        trap = Quasi2D(0.05, 1.0)
        eq = Equilibrium.solve(
            CanonicalTarget(BETA, 1.5 * _nu_critical_trap(BETA, trap)), trap)
        x = np.zeros(3)
        split = q2d_chi_split(x, x, eq)
        assert isinstance(split, ChiSplit)
        whole = additional_q2d(x, x, eq, chi=2.0)
        assert split.first_half + split.second_half == pytest.approx(
            whole, rel=1e-9)
        assert split.predicted_half == pytest.approx(
            0.5 * q2d_additional_limit(BETA, trap), rel=1e-14)

    @pytest.mark.parametrize("kappa", [0.005, 0.001])
    def test_window_relaxed_slow_axes(self, kappa):
        # leading order of the relaxed slow-axis window (derivation in the
        # q2d_additional_limit docstring); the rest is the Euler-Maclaurin
        # endpoint term, 1/(2 N log(...)) relative: 5e-5 at kappa=0.005
        trap = Quasi2D(kappa, 1.0)
        eq = Equilibrium.solve(
            CanonicalTarget(BETA, 1.5 * _nu_critical_trap(BETA, trap)), trap)
        consts = trap.consts
        kappa_1, kappa_perp, _ = trap.kappas
        psi1_sq = math.sqrt(consts.mass * trap.omega1 * kappa_1
                            / (math.pi * consts.hbar))
        n_short = math.floor(kappa ** -DEFAULT_CONTROL.sigma)
        log_window = -math.log(2.0 * BETA * consts.hbar * trap.omega_perp
                               * kappa_perp * n_short)
        expected = psi1_sq * log_window / de_broglie(BETA, consts) ** 2
        x = np.zeros(3)
        assert additional_q2d(x, x, eq) == pytest.approx(expected, rel=1e-4)

    def test_chi_split_mass_in_first_window(self):
        # the relaxed slow-axis summand has decayed by l ~ 1/(2 kappa_perp),
        # i.e. chi = 1
        trap = Quasi2D(0.005, 1.0)
        eq = Equilibrium.solve(
            CanonicalTarget(BETA, 1.5 * _nu_critical_trap(BETA, trap)), trap)
        x = np.zeros(3)
        split = q2d_chi_split(x, x, eq)
        assert 0.0 < split.second_half < 0.02 * split.first_half

    def test_chi_validation(self):
        eq = Equilibrium.solve(CanonicalTarget(BETA, 1.0), Quasi2D(0.05, 1.0))
        with pytest.raises(DomainError):
            additional_q2d(np.zeros(3), np.zeros(3), eq, chi=0.0)

    def test_model_check(self):
        eq = Equilibrium.solve(CanonicalTarget(BETA, 1.0), Quasi1D(0.3, 1.0))
        with pytest.raises(ModelError):
            additional_q2d(np.zeros(3), np.zeros(3), eq)
