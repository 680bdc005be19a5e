"""volpot: volume and layer potentials of constant-coefficient second-order
elliptic operators, with desk-scale verification of their regularity
identities.

Quick start::

    import numpy as np
    import volpot

    fs = volpot.laplace_fundamental(2)
    disk = volpot.disk()
    one = volpot.get_preset("one")
    volpot.volume_potential(fs, disk, one, np.array([0.0, 0.0]))  # -> -0.25
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, EllipticityError,
                     NearBoundaryError, SingularPointError, SymmetryError,
                     UnsupportedOperatorError, VolpotError)
from .operators import (OperatorCoefficients, anisotropic, apply_operator_fd,
                        ellipticity_margin, factor_principal, from_multiindex,
                        helmholtz_modified, laplacian)
from .fundsol import (FundamentalSolution, fundamental_solution,
                      helmholtz_fundamental, laplace_fundamental,
                      principal_fundamental, sphere_measure)
from .geometry import (BoundaryQuadrature, Domain, VolumeQuadrature,
                       boundary_rule, cosine_star, disk, ellipse,
                       exterior_chord_rule, make_ball, make_star2d,
                       singular_volume_rule, volume_rule)
from .potentials import (PotentialField, boundary_kernel_K, exterior_field,
                         radial_extension, single_layer,
                         subtracted_integral_G, volume_potential,
                         volume_potential_gradient, volume_potential_hessian,
                         volume_potential_negative)
from .schauder import (Modulus, NegativeExponentDensity, canonical_pairing_J,
                       extension_pairing_E, holder_seminorm,
                       integral_functional_I, kernel_class_norm,
                       negative_density, omega_theta_eval)
from .presets import DensityPreset, get_preset, read_samples_csv, \
    tabulated_from_csv, write_samples_csv
from . import verify
