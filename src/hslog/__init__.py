"""Numerics for weighted radial Sobolev functionals with a supercritical
logarithmic perturbation.

The package works on the interval (0, 1] with the weighted measure r^w dr.
It provides:

* parameter validation and the closed-form constants of a parameter tuple,
* piecewise-linear radial profiles on graded meshes with singular-weight
  quadrature,
* the log-perturbed functionals, their energy and derivative pairing,
* the explicit extremal (bubble) family, the best constants S, Sigma_p and
  the rate fits of its norm deviations,
* constrained maximization on the unit gradient sphere and concentration
  diagnostics,
* an amplitude-shooting solver for the associated quasilinear BVP,
* the Young-function family Gamma_{a,b} with Luxemburg-norm machinery,
* a CLI that emits deterministic CSV reports.
"""

from hslog.params import ParamSet, ValidationError, validate_params, check_identities
from hslog.radial import Grid, Profile, make_grid, weighted_integral, dirichlet_norm
from hslog.functionals import LogParams

__version__ = "0.1.0"

__all__ = [
    "ParamSet",
    "ValidationError",
    "validate_params",
    "check_identities",
    "Grid",
    "Profile",
    "make_grid",
    "weighted_integral",
    "dirichlet_norm",
    "LogParams",
    "__version__",
]
