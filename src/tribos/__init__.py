"""Spectral structure of three-boson zero-range models.

Efimov ladders of the Skornyakov-Ter-Martirosian contact model, the
Thomas singular solution, and positivity certificates for the model
regularized by a delta/|y| three-body term.
"""

__version__ = "0.1.0"

from .ladder import (acot, build_ladder, mu_n, p_of_x, quantization_residual, theta_from_xi,
                     x_of_p, xi_from_theta, xi_mu)
from .oracle import (QuadratureBudgetError, TransformCheck, check_transforms,
                     convolution_balance, cosine_transform, coth_log_kernel,
                     coth_transform_analytic, factorization_check, m_log_kernel,
                     m_transform_analytic, odd_extension_check)
from .specfun import k0, sinh_ratio, tanh_over_s
from .stm import (ModelParams, RadialGrid, SpectralScan, assemble, build_grid,
                  closed_form_residual, coulomb_kernel, coulomb_row_integral, residual,
                  scan_bound_states, scan_spectrum, smallest_eigenvalue, tms_kernel)
from .symbols import (EfimovConstant, SymbolScan, certify_positivity, default_s0, delta0,
                      delta_bound, delta_to_gamma, eval_g, eval_reg_symbol, find_s0,
                      gamma_bound, gamma_to_delta, symbol_samples)
from .thomas import ThomasPoint, boundary_coefficient, pde_residual, thomas_psi

__all__ = [name for name in dir() if not name.startswith("_")]
