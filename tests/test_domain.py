"""Inputs outside a function's domain raise a typed `DomainError` that
names the field or input: NaN in a constructor, and finite inputs whose
intermediate results leave the float range.  No bare ArithmeticError, and
no numpy warning, comes first."""

import math
import re
import types

import numpy as np
import pytest

from boseloops.errors import DomainError
from boseloops.kernels import Isotropic, Quasi1D, Quasi2D, ground_state_product
from boseloops.rdm import noncondensate
from boseloops.specfun import DEFAULT_CONTROL, PhysicalConstants, SeriesControl
from boseloops.thermo import (CanonicalTarget, Equilibrium, gap_asymptotic,
                              nu_critical)

NAN = math.nan


@pytest.mark.parametrize("build,field", [
    (lambda: Isotropic(3, NAN), "kappa"),
    (lambda: Quasi1D(NAN, 1.0), "kappa"),
    (lambda: Quasi1D(0.3, NAN), "kappa_c"),
    (lambda: Quasi2D(0.3, 1.0, omega1=NAN), "omega1"),
    (lambda: Quasi2D(0.3, 1.0, omega_perp=NAN), "omega_perp"),
    (lambda: PhysicalConstants(hbar=NAN), "hbar"),
    (lambda: PhysicalConstants(mass=NAN), "mass"),
    (lambda: PhysicalConstants(omega0=NAN), "omega0"),
    (lambda: SeriesControl(rel_tol=NAN), "rel_tol"),
    (lambda: SeriesControl(sigma=NAN), "sigma"),
    (lambda: SeriesControl(sigma2=NAN), "sigma2"),
    (lambda: CanonicalTarget(NAN, 2.0), "beta"),
    (lambda: CanonicalTarget(1.0, NAN), "nu"),
    (lambda: Equilibrium(NAN, Isotropic(3, 0.5), DEFAULT_CONTROL, 0.1),
     "beta"),
    (lambda: Equilibrium(1.0, Isotropic(3, 0.5), DEFAULT_CONTROL, NAN), "gap"),
    (lambda: nu_critical(NAN, 3), "beta"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_nan_is_rejected_naming_the_field(build, field):
    with pytest.raises(DomainError, match=rf"\b{field}\b"):
        build()


class TestTypedOverflow:
    """Each call below raised OverflowError, ZeroDivisionError or a math
    range error; the numpy overflow is turned into an error by the suite's
    warning filter, so the typed error must come before it."""

    def test_gap_asymptotic_kappa_power(self):
        with pytest.raises(DomainError, match=r"kappa=1e\+300"):
            gap_asymptotic(CanonicalTarget(1.0, 5.0), Isotropic(3, 1e300))

    @pytest.mark.parametrize("beta,consts", [
        (1e300, PhysicalConstants()), (1e-300, PhysicalConstants()),
        (1.0, PhysicalConstants(hbar=1e-200)),
        (1.0, PhysicalConstants(omega0=1e200))])
    def test_nu_critical_beyond_the_float_range(self, beta, consts):
        with pytest.raises(DomainError, match=re.escape(f"beta={beta!r}")):
            nu_critical(beta, 3, consts)

    def test_noncondensate_far_point(self):
        eq = Equilibrium(1.0, Isotropic(3, 0.5), DEFAULT_CONTROL, 0.1)
        with pytest.raises(DomainError, match="x=.1e\\+200"):
            noncondensate(np.array([1e200, 0.0, 0.0]), np.zeros(3), eq)

    def test_ground_state_product_huge_mass(self):
        trap = Isotropic(3, 1.0, PhysicalConstants(mass=1e308))
        with pytest.raises(DomainError, match=r"mass=1e\+308"):
            ground_state_product(np.zeros(3), np.zeros(3), trap)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from boseloops import *", namespace)
    modules = [name for name, value in namespace.items()
               if isinstance(value, types.ModuleType)
               and not name.startswith("__")]
    assert modules == []
    assert {"Isotropic", "Equilibrium", "loop_decompose"} <= namespace.keys()
