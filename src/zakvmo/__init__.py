"""Numerical toolkit for Zak-transform analysis of Gabor Riesz sequences on
rational lattices: the Zak transform as a quasi-periodic field,
singular-value Riesz bounds, additional-shift invariance solvers,
mean-oscillation (VMO) diagnostics, exact SL(2,Q) factorization with
metaplectic transport, and uncertainty-product divergence sweeps."""

from .core import GridError, SampledFunction, ScalarField2D, fourier_transform, inner_product, sample_function, tf_shift
from .gabor import (
    InvarianceReport,
    RieszFailureError,
    RieszReport,
    SeparableLattice,
    coefficient_recovery,
    divisibility_check,
    gram_riesz_oracle,
    invariance_solve,
    m_matrix,
    product_relation_residual,
    riesz_bounds,
    zz_matrix,
)
from .metaplectic import MetaplecticChain, apply_generator, apply_metaplectic, check_zak_formulas, covariance_residual
from .symplectic import GeneratorStep, RationalMatrix2, lattice_density, lattice_reduce, sl2_factorize
from .uncertainty import DivergenceSweep, MomentSpec, feichtinger_norm_estimate, gagliardo_seminorm, uncertainty_product, weighted_moment
from .vmo import Cube, OscillationReport, check_inequalities, mean, mean_function, mean_oscillation, vmo_decay_profile
from .zak import AliasingError, check_zak_identities, inverse_zak, zak_transform

__version__ = "0.1.0"

# The kernels have one numpy implementation and no compiled path; the flag
# stays because run metadata records it.
USING_NUMBA = False
