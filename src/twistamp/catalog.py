"""Ready-made small topologies used by tests, benchmarks, and the docs."""

from .errors import StructuralError, ValidationError
from .graphs import Graph

__all__ = ["triangle", "box", "bowtie", "complete4"]


def _edges(pairs, masses) -> list:
    """(id, source, target, mass) per (source, target) pair, ids from 1,
    with one mass per edge."""
    try:
        masses = list(masses)
    except TypeError:
        raise ValidationError("masses must be a sequence, one per edge") from None
    if len(masses) != len(pairs):
        raise StructuralError(f"{len(pairs)} edges need {len(pairs)} masses, got {len(masses)}")
    return [(i, s, t, m) for i, ((s, t), m) in enumerate(zip(pairs, masses), start=1)]


def triangle(masses=(1, 1, 1), momenta=None) -> Graph:
    """3-cycle: one loop, three edges."""
    return Graph.build([1, 2, 3], _edges([(1, 2), (2, 3), (3, 1)], masses), momenta)


def box(masses=(1, 1, 1, 1), momenta=None) -> Graph:
    """4-cycle: one loop, four edges (the smallest N = 2n + 2 topology)."""
    return Graph.build([1, 2, 3, 4], _edges([(1, 2), (2, 3), (3, 4), (4, 1)], masses), momenta)


def bowtie(masses=(1, 1, 1, 1, 1, 1), momenta=None) -> Graph:
    """Two triangles sharing vertex 3: two loops, six edges (N = 2n + 2)."""
    pairs = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]
    return Graph.build([1, 2, 3, 4, 5], _edges(pairs, masses), momenta)


def complete4(masses=(1, 1, 1, 1, 1, 1), momenta=None) -> Graph:
    """K4: three loops, six edges (N = 2n, the log-divergent shape)."""
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return Graph.build([1, 2, 3, 4], _edges(pairs, masses), momenta)
