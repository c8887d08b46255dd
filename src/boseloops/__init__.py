"""Loop-series thermodynamics and reduced density matrices of the
harmonically trapped ideal Bose gas (isotropic, quasi-1D and quasi-2D)."""

__version__ = "0.1.0"

from .errors import (BoseloopsError, BracketError, DimensionMismatch,
                     DomainError, ModelError, OriginError, RegimeError,
                     TruncationWarning)
from .kernels import (Isotropic, Quasi1D, Quasi2D, TrapModel, ground_energy,
                      ground_state_product, heat_kernel_1d, kernel_d,
                      mehler_kernel_1d, semigroup_trace)
from .specfun import PhysicalConstants, SeriesControl, de_broglie, polylog
from .thermo import (CanonicalTarget, Equilibrium, gbec_band_sum,
                     grand_potential, mu_open_trap, nu_critical, nu_m,
                     nu_open_trap, nu_rescaled, occupation)
from .rdm import (BarometricRadii, LoopDecomposition, barometric_radii,
                  local_density_scaled, loop_decompose, noncondensate,
                  open_trap_rdm, rdm_eigen, rdm_loops, rdm_rescaled,
                  scaled_density_profile)
from .aniso import (AnisotropicRegime, ChiSplit, MesoPrediction,
                    additional_q2d, classify, meso_q1d, meso_q1d_prediction,
                    q2d_additional_limit, q2d_chi_split)

import types as _types

__all__ = [name for name, value in sorted(globals().items()) if not (
    name.startswith("_") or isinstance(value, _types.ModuleType))]
