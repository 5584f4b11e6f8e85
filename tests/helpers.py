"""Helpers shared by the test modules."""

import numpy as np

from hslog.analysis import sine_profile
from hslog.functionals import energy_I, ray_terms
from hslog.radial import Grid, Profile, dirichlet_norm


def random_smooth_profile(grid: Grid, rng: np.random.Generator) -> Profile:
    """A sine profile on the first 5 modes, its coefficients rng's next five
    standard normals (the same five that five scalar ``rng.normal()`` calls
    give)."""
    return sine_profile(grid, rng.normal(size=5))


def normalize(u: Profile, ps) -> Profile:
    """u scaled to unit Dirichlet norm, (1 / ||u||) u."""
    return Profile(u.grid, (1.0 / dirichlet_norm(u, ps)) * u.values)


def grid_energy(u: Profile, lp, ps) -> float:
    """The energy of a grid profile, at its grid's node set."""
    return energy_I(u.grid.node_set(ps.theta), u.values, dirichlet_norm(u, ps) ** ps.p, lp, ps,
                    "the energy")


def grid_ray_terms(u: Profile, lp, ps):
    """The ray terms of a grid profile, at its grid's node set."""
    return ray_terms(u.grid.node_set(ps.theta), u.values, lp, ps)


def plain_log_factor(e, u, lp):
    """|ln(tau + |u|)|^e by the plain formula, the reference for J's kernel."""
    return np.abs(np.log(lp.tau + np.abs(u))) ** e
