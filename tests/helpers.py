"""A helper shared by the test modules."""

from hslog.radial import Profile, dirichlet_norm


def normalize(u: Profile, ps) -> Profile:
    """u scaled to unit Dirichlet norm, (1 / ||u||) u."""
    return Profile(u.grid, (1.0 / dirichlet_norm(u, ps)) * u.values)
