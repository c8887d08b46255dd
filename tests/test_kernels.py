"""Kernel and trap-model tests: dual-route checks against eigenfunction
expansions and free-particle limits."""

import math
import sys

import numpy as np
import pytest

from boseloops.errors import DimensionMismatch, DomainError
from boseloops.kernels import (Isotropic, Quasi1D, Quasi2D, axis_omega_kappa,
                               eigenvalue, ground_energy, ground_state_product,
                               heat_kernel_1d, kernel_d, log_kernel_d,
                               log_mehler_kernel_1d, mehler_kernel_1d,
                               semigroup_trace)
from boseloops.specfun import hermite_eigen_table


class TestTrapModels:
    def test_isotropic_properties(self):
        tr = Isotropic(3, 0.2)
        assert tr.dim == 3
        assert tr.kappas == (0.2, 0.2, 0.2)
        assert tr.kappa_abs == 0.2
        assert tr.omega0 == 1.0

    def test_quasi1d_axis_scalings(self):
        tr = Quasi1D(0.4, 1.0)
        k1, kp1, kp2 = tr.kappas
        assert k1 == pytest.approx(0.4 * math.exp(-1.0 / 0.16), rel=1e-15)
        assert kp1 == kp2 == 0.4
        assert tr.kappa_abs == pytest.approx((k1 * 0.16) ** (1 / 3), rel=1e-12)

    def test_quasi2d_axis_scalings(self):
        tr = Quasi2D(0.25, 1.0)
        k1, kp1, kp2 = tr.kappas
        assert k1 == 0.25
        assert kp1 == kp2 == pytest.approx(0.25 * math.exp(-2.0), rel=1e-15)

    def test_anisotropic_omega0_geometric_mean(self):
        tr = Quasi1D(0.4, 1.0, omega1=2.0, omega_perp=0.5)
        assert tr.omega0 == pytest.approx((2.0 * 0.25) ** (1 / 3), rel=1e-14)

    def test_quasi1d_degenerates_to_isotropic(self):
        # kappa_c = 0 removes the axis separation entirely
        tr = Quasi1D(0.3, 0.0)
        assert tr.kappas == (0.3, 0.3, 0.3)

    def test_validation(self):
        with pytest.raises(DomainError):
            Isotropic(4, 0.2)
        with pytest.raises(DomainError):
            Isotropic(2, 0.0)
        with pytest.raises(DomainError):
            Quasi1D(0.2, -1.0)
        with pytest.raises(DomainError):
            Quasi2D(0.2, 1.0, omega1=0.0)

    def test_underflowing_axis_kappa_rejected(self):
        # an axis scaling, or the product whose cube root is kappa_abs,
        # below the smallest normal float is an error that names kappa.
        # For Quasi1D kappa_1 = kappa e^{-kappa_c^2/kappa^2} leaves the
        # normal floats below about 0.0377 kappa_c and the product below
        # 0.03784 kappa_c; for Quasi2D the product leaves them first, below
        # about 8.8e-6 kappa_c
        with pytest.raises(DomainError, match="kappa=0.0376"):
            Quasi1D(0.0376, 1.0)
        with pytest.raises(DomainError, match="kappa=0.03 "):
            Quasi1D(0.03, 1.0)
        with pytest.raises(DomainError, match="kappa=0.0378"):
            Quasi1D(0.0378, 1.0)
        with pytest.raises(DomainError, match="kappa=8.7e-06"):
            Quasi2D(8.7e-6, 1.0)
        for trap in (Quasi1D(0.0379, 1.0), Quasi2D(8.9e-6, 1.0)):
            assert min(trap.kappas) >= sys.float_info.min
            assert trap.kappa_abs ** 3 >= sys.float_info.min


class TestSpectrum:
    def test_ground_energy(self):
        tr = Isotropic(3, 0.4)
        assert ground_energy(tr) == pytest.approx(1.5 * 0.4, rel=1e-14)

    def test_eigenvalue_ladder(self):
        tr = Isotropic(2, 0.3)
        assert eigenvalue(tr, (0, 0)) == pytest.approx(ground_energy(tr))
        assert eigenvalue(tr, (2, 1)) == pytest.approx(0.3 * (2.5 + 1.5))

    def test_eigenvalue_errors(self):
        tr = Isotropic(2, 0.3)
        with pytest.raises(DimensionMismatch):
            eigenvalue(tr, (1,))
        with pytest.raises(DomainError):
            eigenvalue(tr, (1, -1))


class TestMehlerKernel:
    def test_short_time_free_limit(self):
        # for t << 1/(omega kappa) the trap is invisible
        for x, y in ((0.0, 0.0), (0.3, -0.2), (1.0, 1.4)):
            mehler = mehler_kernel_1d(x, y, 1e-7, 0.5)
            free = heat_kernel_1d(x, y, 1e-7)
            assert mehler == pytest.approx(free, rel=1e-6)

    def test_vs_eigenfunction_expansion(self):
        # independent route: K(x,y;t) = sum_s psi_s(x) psi_s(y) e^{-E_s t}
        wk, t = 0.8, 1.3
        s = np.arange(0, 301, dtype=float)
        energies = wk * (s + 0.5)
        for x, y in ((0.0, 0.0), (0.5, -1.0), (1.2, 0.7)):
            px = hermite_eigen_table(300, x, wk)
            py = hermite_eigen_table(300, y, wk)
            brute = float(np.sum(px * py * np.exp(-energies * t)))
            assert mehler_kernel_1d(x, y, t, wk) == pytest.approx(
                brute, rel=1e-12)

    def test_symmetry(self):
        assert mehler_kernel_1d(0.4, -1.1, 0.7, 0.6) == pytest.approx(
            mehler_kernel_1d(-1.1, 0.4, 0.7, 0.6), rel=1e-15)

    def test_log_form_consistency(self):
        val = mehler_kernel_1d(0.2, 0.9, 2.0, 0.4)
        assert math.log(val) == pytest.approx(
            float(log_mehler_kernel_1d(0.2, 0.9, 2.0, 0.4)), rel=1e-12)

    def test_log_form_survives_underflow(self):
        # linear-domain kernel underflows; the log form stays finite
        lk = float(log_mehler_kernel_1d(40.0, 40.0, 1.0, 1.0))
        assert math.isfinite(lk)
        assert lk < -700.0

    def test_long_time_ground_state_projection(self):
        # K(x,y;t) -> e^{-E0 t} psi_0(x) psi_0(y)
        tr = Isotropic(1, 0.5)
        t = 80.0
        x, y = np.array([0.3]), np.array([-0.6])
        expected = math.exp(-ground_energy(tr) * t) \
            * ground_state_product(x, y, tr)
        assert kernel_d(x, y, t, tr) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mehler_kernel_1d(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            mehler_kernel_1d(0.0, 0.0, 1.0, 0.0)


class TestProductKernel:
    def test_product_structure(self):
        tr = Isotropic(3, 0.3)
        x = np.array([0.1, -0.4, 0.8])
        y = np.array([0.0, 0.2, -0.5])
        per_axis = 1.0
        for j in range(3):
            per_axis *= mehler_kernel_1d(x[j], y[j], 0.9, 0.3)
        assert kernel_d(x, y, 0.9, tr) == pytest.approx(per_axis, rel=1e-13)

    def test_dimension_check(self):
        tr = Isotropic(2, 0.3)
        with pytest.raises(DimensionMismatch):
            kernel_d(np.zeros(3), np.zeros(2), 1.0, tr)

    def test_vectorized_over_t(self):
        tr = Isotropic(2, 0.3)
        x, y = np.zeros(2), np.zeros(2)
        ts = np.array([0.5, 1.0, 2.0])
        logs = log_kernel_d(x, y, ts, tr)
        for i, t in enumerate(ts):
            assert logs[i] == pytest.approx(
                math.log(kernel_d(x, y, float(t), tr)), rel=1e-13)


class TestTrace:
    @pytest.mark.parametrize("trap", [Isotropic(1, 0.4), Isotropic(2, 0.3),
                                      Isotropic(3, 0.6), Quasi1D(0.4, 1.0),
                                      Quasi2D(0.3, 1.0)])
    def test_vs_eigen_sum(self, trap):
        # independent route: geometric sums over the spectrum
        t = 1.2
        wk = axis_omega_kappa(trap)
        expected = 1.0
        for j in range(trap.dim):
            u = wk[j] * t
            expected *= math.exp(-0.5 * u) / (-math.expm1(-u))
        assert semigroup_trace(t, trap) == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_t(self):
        tr = Isotropic(3, 0.5)
        assert semigroup_trace(0.5, tr) > semigroup_trace(1.0, tr) \
            > semigroup_trace(2.0, tr)

    def test_diagonal_integral_consistency(self):
        # integral of the kernel diagonal over space reproduces the trace
        from scipy import integrate
        tr = Isotropic(1, 0.7)
        wk = axis_omega_kappa(tr)[0]
        q, _ = integrate.quad(lambda x: mehler_kernel_1d(x, x, 1.0, wk),
                              -np.inf, np.inf)
        assert q == pytest.approx(semigroup_trace(1.0, tr), rel=1e-10)


class TestGroundStateProduct:
    def test_normalization(self):
        from scipy import integrate
        tr = Isotropic(1, 0.6)
        val, _ = integrate.quad(
            lambda x: ground_state_product(np.array([x]), np.array([x]), tr),
            -np.inf, np.inf)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_log_form_survives_tail(self):
        from boseloops.kernels import log_ground_state_product
        tr = Isotropic(3, 1.0)
        x = np.array([40.0, 0.0, 0.0])
        assert ground_state_product(x, x, tr) == 0.0  # underflow in linear form
        assert math.isfinite(log_ground_state_product(x, x, tr))
