"""Single table of numeric defaults shared by the library and the CLI.

Every tolerance or node count that a command-line flag can override is
defined here, nowhere else.  The beta rule of the projected spectrum is not:
its size is derived from the state (`spectrum.exact_points`).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # lalg.eliminate_columns (and so every solve, determinant and kernel sweep)
    # flags a matrix whose s_min / s_max is below this ratio
    singular_pivot_factor: float = 1e-13

    # a J component with n_J below norm_floor_factor * max_J n_J is declared absent
    norm_floor_factor: float = 1e-8

    # stability residual above which the particle-hole energy route gets a warning
    brillouin_warn: float = 1e-10

    # projector check suite
    projector_idempotence: float = 1e-9
    projector_annihilation: float = 1e-10
    integral_vs_series: float = 1e-6
    radial_identity_rel: float = 1e-10
    integral_imag_max: float = 1e-10
    radial_points: int = 40
    angular_points: int = 64


DEFAULTS = Tolerances()
