"""Angular-momentum projection of Slater determinants.

A replaced-column determinant engine (one elimination of A answers every
column-substituted determinant query), rotation kernels over Wigner small-d
matrices, ladder-series projection operators with their disk-integral
representation, and a projected-spectrum pipeline with two independent
energy routes.
"""

from .angmom import (AngMomLabel, QuadratureRule, clebsch_gordan, gauss_legendre,
                     hypergeom_2f1_terminating, jacobi_polynomial, ladder_apply,
                     rotation_matrix)
from .lalg import (SolutionTable, adjugate, brute_force_determinant, replaced_determinant,
                   solution_table)
from .manybody import (KernelSweep, Model, OneBodyOperator, Orbital, RotationKernelSample,
                       SlaterState, TwoBodyOperator, brillouin_check, hf_energy,
                       kernel_sweep, lowdin_one_body, lowdin_two_body, make_slater_state,
                       overlap_kernel, ph_amplitude, thouless_expand, two_ph_kernel)
from .projector import (AxialStateVector, FockVector, GammaSeries,
                        ho_gamma_triangular_solve, ho_projector_apply,
                        integral_projector_matrix, lowdin_apply, lowdin_gamma,
                        lowdin_series_diagonal)
from .spectrum import (SpectrumRequest, SpectrumResult, compare_routes,
                       energy_spectrum, energy_spectrum_brillouin,
                       energy_spectrum_lowdin, norm_kernel)

__version__ = "0.1.0"
