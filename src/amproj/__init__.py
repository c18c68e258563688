"""Angular-momentum projection of Slater determinants.

A replaced-column determinant engine (one elimination of A answers every
column-substituted determinant query), rotation kernels over Wigner small-d
matrices, ladder-series projection operators with their disk-integral
representation, and a projected-spectrum pipeline with two independent
energy routes.
"""

from .angmom import (AngMomLabel, QuadratureRule, clebsch_gordan, gauss_legendre_cos,
                     jacobi_polynomial, ladder_apply, rotation_matrix)
from .lalg import SolutionTable, brute_force_determinant, replaced_determinant, solution_table
from .manybody import (KernelSweep, Model, OneBodyOperator, Orbital, SlaterState,
                       TwoBodyOperator, brillouin_check, hf_energy, kernel_sweep,
                       make_slater_state, one_body_numerators, ph_amplitude,
                       sweep_from_rotations, thouless_expand, two_body_numerators,
                       two_ph_kernel)
from .projector import (AxialStateVector, FockVector, GammaSeries,
                        ho_gamma_triangular_solve, ho_projector_apply,
                        integral_projector_matrix, lowdin_apply, lowdin_gamma,
                        lowdin_series_diagonal)
from .spectrum import (SpectrumRequest, SpectrumResult, compare_routes, energy_spectrum,
                       norm_kernel)

__version__ = "0.1.0"
