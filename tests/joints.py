"""Seeded random joints for the information-theory tests."""

from masinfo.info_theory import DiscreteJoint


def random_joint(rng, alphabet_sizes) -> DiscreteJoint:
    """Seeded random joint over X, Y, Z1..: uniform draws normalized to sum 1 (Dirichlet(1))."""
    shape = tuple(int(a) for a in alphabet_sizes)
    p = rng.random(shape) + 1e-12
    p /= p.sum()
    return DiscreteJoint(("X", "Y") + tuple(f"Z{i}" for i in range(1, len(shape) - 1)), p)
