"""Acceptance suite: end-to-end convergence checks of the asymptotic laws
at desk scale.

Each criterion is a separate test (or parametrized case) with its tolerance
stated inline.  The asymptotic laws are kappa -> 0 statements, so where a
single finite kappa carries a known finite-kappa term, the test checks the
limit itself rather than loosening the tolerance:

* criterion 7 (delta=1 profile): the finite-kappa profile carries two exact
  parts of the loop sum that vanish as kappa -> 0.  The fugacity shift
  e^{beta E0}, E0 = 3 hbar omega0 kappa/2, moves the noncondensate density
  by (3/2) g_{1/2}(e^{-beta V}) / g_{3/2}(e^{-beta V}) times kappa to first
  order (3.02, 2.12, 1.58, 1.51 at r = 0.6, 1, 2, 3); the Richardson
  extrapolant 2 v(kappa/2) - v(kappa) removes it.  The condensate term
  Psi_0(x/kappa)^2/(e^{beta Delta}-1) ~ (nu-nu_c) pi^{-3/2} kappa^{-3/2}
  e^{-r^2/kappa} is not linear in kappa (28.6 times the limit at r=0.2,
  kappa=0.01), so kappa is chosen small enough that it stays below a tenth
  of the 2% band, and the test asserts that it does;
* criterion 9 (quasi-1D mesoscopic exponent): `meso_q1d_prediction` claims
  log-asymptotics, log S = exponent + O(1).  The O(1) gap to `log_value`
  (-0.50 at kappa=0.4, -0.21 at kappa=0.2) is a prefactor, not an exponent
  error, so the test checks the finite-difference slope
  d log S / d exponent between kappa and a 10% neighbour, which must be 1
  within 10%.

Criterion 10 (quasi-2D additional term) is red, and kept as an honest
failure: the program disagrees with itself, and the documents cannot say
which side is right.  With the documented model, kappa_perp =
kappa e^{-sqrt(kappa_c/kappa)}, the fast axis has relaxed for l > N =
floor(kappa^-sigma), and the two slow axes leave the dyad-subtracted
summand psi_1(x_1)^2 (c_perp/pi) / (e^{2 beta hbar omega_perp kappa_perp l} - 1)
with c_perp = m omega_perp kappa_perp / hbar.  Summed over l > N it gives
psi_1^2 log(1/(2 beta hbar omega_perp kappa_perp N)) / lambda^2 to leading
order, which tends to sqrt(m omega_c/(pi hbar))/lambda^2: one half of
`q2d_additional_limit`.  All of that mass sits at l <~ 1/(2 kappa_perp),
i.e. chi <= 1.  `additional_q2d` matches this to 5e-5 at kappa=0.005 (the
observed ratio 0.4286 to the printed limit), and the second chi-window holds
1% of the predicted half (`tests/test_aniso.py` pins both).  The printed
constant 2 sqrt(m omega_c/(pi hbar))/lambda^2 and the equal-halves split
would both need the slow axes to stay unrelaxed up to chi=2, i.e.
kappa_perp = kappa e^{-2 sqrt(kappa_c/kappa)}.  Both criterion-10 tests
check the printed values and fail.
"""

import json
import math
import time

import numpy as np
import pytest

from boseloops.cli import main
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, axis_omega_kappa,
                               mehler_kernel_1d, semigroup_trace)
from boseloops.rdm import (loop_decompose, local_density_scaled, noncondensate,
                           rdm_eigen, rdm_loops, rdm_rescaled,
                           scaled_density_profile)
from boseloops.specfun import de_broglie, polylog
from boseloops.thermo import (CanonicalTarget, Equilibrium, _nu_critical_trap,
                              gap_asymptotic, gbec_band_sum, nu_critical,
                              nu_m, nu_rescaled, solve_gap)
from boseloops.aniso import (additional_q2d, meso_q1d, meso_q1d_prediction,
                             q2d_additional_limit, q2d_chi_split)

ZETA_3 = 1.2020569031595942854
BETA = 1.0


class TestCriterion1DualRepresentation:
    def test_fifty_randomized_d1_cases(self):
        rng = np.random.default_rng(1)
        start = time.monotonic()
        for _ in range(50):
            kappa = float(rng.uniform(0.2, 1.0))
            nu = float(rng.uniform(0.3, 5.0))
            x = np.array([float(rng.uniform(-1.5, 1.5))])
            y = np.array([float(rng.uniform(-1.5, 1.5))])
            eq = Equilibrium.solve(CanonicalTarget(BETA, nu), Isotropic(1, kappa))
            a = rdm_loops(x, y, eq)
            b = rdm_eigen(x, y, eq, s_max=200)
            assert a == pytest.approx(b, abs=1e-8), \
                f"loops vs eigen mismatch at kappa={kappa}, nu={nu}"
        assert time.monotonic() - start < 30.0


class TestCriterion2TraceIdentity:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_quadrature_matches_closed_form(self, d, t):
        from scipy import integrate
        trap = Isotropic(d, 0.4)
        wk = axis_omega_kappa(trap)[0]
        q1, _ = integrate.quad(lambda x: mehler_kernel_1d(x, x, t, wk),
                               -np.inf, np.inf)
        assert q1 ** d == pytest.approx(semigroup_trace(t, trap), rel=1e-6)


class TestCriterion3CriticalNumbers:
    def test_nu_c_d3(self):
        # zeta(3)/(hbar omega0)^3 in natural units, via the polylog engine
        assert nu_critical(BETA, 3) == pytest.approx(
            polylog(3.0, 1.0), abs=1e-10)
        assert nu_critical(BETA, 3) == pytest.approx(ZETA_3, abs=1e-10)

    def test_nu_m_closed_form(self):
        trap = Quasi1D(0.3, 1.5)
        omega_c = trap.omega_perp * trap.kappa_c
        expected = _nu_critical_trap(BETA, trap) \
            + omega_c ** 2 / (BETA * trap.omega0 ** 3)
        assert nu_m(BETA, trap) == pytest.approx(expected, abs=1e-12)


class TestCriterion4GapAsymptotics:
    def test_isotropic_ladder(self):
        target = CanonicalTarget(BETA, 2.0 * ZETA_3)
        errs = []
        for kappa in (0.2, 0.1, 0.05, 0.02, 0.01):
            trap = Isotropic(3, kappa)
            gap = solve_gap(target, trap)
            pred = gap_asymptotic(target, trap)
            assert pred == pytest.approx(kappa ** 3 / (BETA * ZETA_3),
                                         rel=1e-12)
            errs.append(abs(gap - pred) / pred)
        assert all(a > b for a, b in zip(errs, errs[1:])), \
            f"relative error not monotone down the ladder: {errs}"
        assert errs[-1] < 0.05

    def test_quasi2d_analogue(self):
        trap = Quasi2D(0.01, 1.0)
        target = CanonicalTarget(BETA, 2.0 * _nu_critical_trap(BETA, trap))
        gap = solve_gap(target, trap)
        pred = gap_asymptotic(target, trap)
        assert abs(gap - pred) / pred < 0.05


class TestCriterion5CondensateValue:
    def test_rescaled_rdm_odlro(self):
        lam = de_broglie(BETA)
        target = CanonicalTarget(BETA, 2.0 * ZETA_3)
        amp = 2.0 ** 1.5 * BETA ** 1.5 * (target.nu - ZETA_3) / lam ** 3
        eq = Equilibrium.solve(target, Isotropic(3, 0.005))
        pairs = [((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                 ((0.3, 0.0, 0.0), (-0.2, 0.1, 0.0)),
                 ((0.5, 0.5, 0.0), (0.0, 0.0, 0.4)),
                 ((0.8, 0.0, 0.0), (0.0, 0.8, 0.0)),
                 ((-0.4, 0.3, 0.2), (0.1, -0.5, 0.3))]
        for x, y in pairs:
            val = rdm_rescaled(np.asarray(x), np.asarray(y), eq)
            assert abs(val - amp) / amp < 0.02, f"pair {x},{y}"


class TestCriterion6LogLaw2D:
    def test_noncondensate_slope(self):
        lam = de_broglie(BETA)
        target = CanonicalTarget(BETA, 2.0 * nu_critical(BETA, 2))
        kappas = (0.1, 0.05, 0.02, 0.01, 0.005)
        x = np.zeros(2)
        vals = [noncondensate(x, x, Equilibrium.solve(target, Isotropic(2, k)))
                for k in kappas]
        slope = np.polyfit([math.log(1.0 / k) for k in kappas], vals, 1)[0]
        assert slope == pytest.approx(1.0 / lam ** 2, rel=0.05)


class TestCriterion7Profiles:
    # checks the kappa -> 0 limit: the Richardson extrapolant over
    # (kappa, kappa/2) removes the O(kappa) fugacity shift, and kappa is small
    # enough that the condensate term is below a tenth of the 2% band at both
    # points (see module docstring)
    KAPPA = 0.0025

    @pytest.mark.parametrize("r", [0.2, 0.6, 1.0, 2.0, 3.0])
    def test_delta_one_pointwise(self, r):
        target = CanonicalTarget(BETA, 2.0 * ZETA_3)
        x = np.array([r, 0.0, 0.0])
        pred = scaled_density_profile(1.0, target, 3)(x)
        lam = de_broglie(BETA)
        assert pred == pytest.approx(
            polylog(1.5, math.exp(-0.5 * r * r)) / lam ** 3, rel=1e-10)
        vals = []
        for kappa in (self.KAPPA, 0.5 * self.KAPPA):
            # condensate term (nu-nu_c) pi^{-3/2} kappa^{-3/2} e^{-r^2/kappa}
            cond = (target.nu - ZETA_3) * math.pi ** -1.5 * kappa ** -1.5 \
                * math.exp(-r * r / kappa)
            assert cond / pred < 0.1 * 0.02, \
                f"condensate term {cond / pred:.3g} of the limit at r={r}"
            eq = Equilibrium.solve(target, Isotropic(3, kappa))
            vals.append(local_density_scaled(x, 1.0, eq))
        limit = 2.0 * vals[1] - vals[0]
        rel = abs(limit - pred) / pred
        assert rel < 0.02, \
            f"delta=1 profile off by {rel:.3g} at r={r} (tolerance 2%)"

    def test_delta_half_gaussian_width(self):
        eq = Equilibrium.solve(CanonicalTarget(BETA, 2.0 * ZETA_3),
                               Isotropic(3, 0.01))
        rs = np.array([0.3, 0.5, 0.7, 0.9, 1.1])
        logs = [math.log(local_density_scaled(np.array([r, 0.0, 0.0]), 0.5,
                                              eq, rescaled=True))
                for r in rs]
        slope = np.polyfit(rs ** 2, logs, 1)[0]
        width = math.sqrt(-1.0 / slope)
        assert width == pytest.approx(1.0, rel=0.02)  # hbar/(m omega0) = 1


class TestCriterion8GbecPlateau:
    # kappa=0.25, kappa_c=6 puts the controlling small parameter
    # kappa^2/kappa_c^2 at ~1.7e-3 (kappa_1 ~ 1e-250), i.e. the same
    # asymptotic depth as kappa=0.01 in the isotropic checks
    TRAP = Quasi1D(0.25, 6.0)

    def test_gbec_window(self):
        nuc = _nu_critical_trap(BETA, self.TRAP)
        numm = nu_m(BETA, self.TRAP)
        nu = 0.5 * (nuc + numm)
        band = gbec_band_sum(
            Equilibrium.solve(CanonicalTarget(BETA, nu), self.TRAP), 0.05)
        assert band == pytest.approx(nu - nuc, rel=0.05)

    def test_coexistence_window(self):
        nuc = _nu_critical_trap(BETA, self.TRAP)
        numm = nu_m(BETA, self.TRAP)
        band = gbec_band_sum(
            Equilibrium.solve(CanonicalTarget(BETA, 2.0 * numm), self.TRAP),
            0.05)
        assert band == pytest.approx(numm - nuc, rel=0.05)


class TestCriterion9MesoExponent:
    # checks the exponent, not the O(1) prefactor: the slope
    # d log S / d exponent between kappa and a 10% neighbour (see module
    # docstring).
    @pytest.mark.parametrize("kappa", [0.4, 0.3, 0.25])
    def test_exponent_match(self, kappa):
        x = np.zeros(3)
        logs, exponents = [], []
        for k in (kappa, kappa * 1.1 if kappa > 0.36 else kappa / 1.1):
            trap = Quasi1D(k, 1.0)
            target = CanonicalTarget(BETA, 2.0 * nu_m(BETA, trap))
            logs.append(meso_q1d(x, x, Equilibrium.solve(target, trap)))
            exponents.append(meso_q1d_prediction(target, trap).exponent)
        slope = (logs[1] - logs[0]) / (exponents[1] - exponents[0])
        assert abs(slope - 1.0) < 0.10, \
            f"log S grows {slope:.3g} times as fast as the exponent at " \
            f"kappa={kappa} (tolerance 10%)"


class TestCriterion10AdditionalTerm:
    # both halves are red: the documented window tends to half the printed
    # limit, and its mass sits in the first chi-half (see module docstring)
    TRAP = Quasi2D(0.005, 1.0)

    def _eq(self):
        target = CanonicalTarget(BETA, 1.5 * _nu_critical_trap(BETA, self.TRAP))
        return Equilibrium.solve(target, self.TRAP)

    def test_limit_value(self):
        x = np.zeros(3)
        add = additional_q2d(x, x, self._eq())
        limit = q2d_additional_limit(BETA, self.TRAP)
        rel = abs(add - limit) / limit
        assert rel < 0.05, \
            f"additional term is {add / limit:.4f} of the printed limit " \
            f"(off by {rel:.3g}, tolerance 5%; converges to 1/2 of it)"

    def test_chi_split_halves(self):
        x = np.zeros(3)
        split = q2d_chi_split(x, x, self._eq())
        half = split.predicted_half
        rel1 = abs(split.first_half - half) / half
        rel2 = abs(split.second_half - half) / half
        assert rel1 < 0.10 and rel2 < 0.10, \
            f"chi-split halves off by {rel1:.3g}/{rel2:.3g} (tolerance " \
            "10%; the second window carries ~2% of the first)"


class TestCriterion11PropertySuites:
    def test_inequality_sample(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 100.0, size=10_000)
        x = x[x > 0.0]
        assert np.all(np.cosh(x) <= np.exp(x))
        assert np.all(np.sinh(x) >= x)
        assert np.all(np.tanh(x) <= 1.0)
        assert np.all(-np.expm1(-x) < x)
        assert np.all(np.expm1(x) >= x)

    def test_loop_partition_exact(self):
        trap = Quasi1D(0.3, 1.0)
        dec = loop_decompose(np.zeros(3), np.zeros(3),
                             Equilibrium.solve(CanonicalTarget(BETA, 3.0), trap))
        assert dec.short_sum + dec.meso_sum + dec.macro_sum == dec.total

    def test_solver_residual(self):
        trap = Isotropic(3, 0.1)
        eq = Equilibrium.solve(CanonicalTarget(BETA, 2.0), trap)
        assert nu_rescaled(eq) == pytest.approx(2.0, rel=1e-9)

    def test_cli_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "isotropic", "d": 3,
                                   "kappa_ladder": [0.3, 0.1], "nu": 2.0}))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["thermo", "--config", str(cfg), "--output",
                         str(out), "--threads", "2"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
