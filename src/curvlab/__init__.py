"""curvlab: a pointwise tensor-calculus engine and verification lab for
conformally invariant curvature identities.

Exact rational arithmetic on homogeneous frames, truncated-Taylor-jet
differentiation on coordinate charts, a generalized Kronecker delta
contraction kernel, and a harness of named verification suites with
seeded, reproducible reports.
"""

from .conformal import (ConformalFactor, LinearizationResult, linearize,
                        linearize_fd, naturality_rank_test, rescale,
                        verify_ac_identities, verify_pfaffian_identity)
from .errors import (ConfigError, CurvLabError, DegenerateMetricError,
                     DimensionError, ExactnessError, JetOrderError,
                     ScalarKindError, SlotError)
from .geometry import (ChartContext, CurvatureStack, FrameContext,
                       GeometryContext, ProductContext, bach, cotton, product)
from .invariants import (InvariantPolynomial, WeightedOneForm,
                         conformal_killing_K, functional_density,
                         lovelock_E, omega_k, p_phi_scalar, pfaffian_k,
                         pfaffian_of, phi_w_c_form, rho_phi,
                         star_p_phi_form, star_rho_general, T_k_W, xi_k)
from .jets import Dual, Jet, JetAlgebra
from .models import (berger_frame, berger_product, flat_chart, fs_cp2_chart,
                     killing_field_T, product_8d, random_chart,
                     round_sphere_chart)
from .polys import Poly, RationalFunc
from .report import Check, VerificationReport
from .scalars import exact_sqrt, rational_sqrt
from .tensors import (AltForm, Permutation, Tensor, antisymmetrize, contract,
                      contract_with, epsilon_form, generalized_delta,
                      gkd_contract, hodge_star, lower_slot, raise_slot)

__version__ = "0.1.0"


def __getattr__(name):
    """``SUITES`` and ``run_suite``, imported on first use: the suites (and
    the config reader they use) are not needed to compute anything."""
    if name in ("SUITES", "run_suite"):
        from . import suites
        return getattr(suites, name)
    raise AttributeError(f"module 'curvlab' has no attribute {name!r}")
