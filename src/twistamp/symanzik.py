"""First and second Symanzik polynomials.

S1 comes out of the determinant of the loop-space matrix sum_e a_e c_e c_e^T
and, independently, out of spanning-tree enumeration; the two must agree
exactly (matrix-tree identity). S2 adds the 2-forest momentum sum and the
mass term, with the sign fixed so S2 > 0 on the open simplex for positive
masses and real momenta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import MultiPoly, det_symbolic
from .errors import StructuralError
from .graphs import CycleBasis, FourVector, Graph, _find, _union, cycle_basis, loop_number

__all__ = [
    "SymanzikPair",
    "first_symanzik_det",
    "first_symanzik_trees",
    "second_symanzik",
    "spanning_trees",
    "two_forest_polynomial",
]


@dataclass(frozen=True)
class SymanzikPair:
    """S1 (degree n, 0/1 coefficients) and S2 (degree n+1)."""

    s1: MultiPoly
    s2: MultiPoly


def first_symanzik_det(g: Graph, basis: CycleBasis | None = None) -> MultiPoly:
    """det(sum_e a_e c_e c_e^T) over the n-dimensional loop space."""
    basis = basis or cycle_basis(g)
    n = basis.n
    n_edges = g.n_edges
    if n == 0:
        return MultiPoly.constant(1, n_edges)
    rows = []
    for k in range(n):
        row = []
        for l in range(n):
            coeffs = [basis.loops[k][e] * basis.loops[l][e] for e in range(n_edges)]
            row.append(MultiPoly.linear(coeffs))
        rows.append(row)
    return det_symbolic(rows)


def _forests(g: Graph, size: int):
    """Acyclic subsets of `size` edges, as (sorted edge positions, union-find
    parent map over the vertices), in lexicographic order."""
    for idxs in itertools.combinations(range(g.n_edges), size):
        parent = {v: v for v in g.vertices}
        if all(_union(parent, g.edges[i].source, g.edges[i].target) for i in idxs):
            yield idxs, parent


def spanning_trees(g: Graph):
    """All spanning trees, as sorted tuples of edge positions.

    Explicit enumeration: the graphs here have at most ~10 edges.
    """
    for idxs, _ in _forests(g, g.n_vertices - 1):
        yield idxs


def first_symanzik_trees(g: Graph) -> MultiPoly:
    """Sum over spanning trees T of prod_{e not in T} a_e."""
    n_edges = g.n_edges
    terms = {}
    for tree in spanning_trees(g):
        inside = set(tree)
        exps = tuple(0 if i in inside else 1 for i in range(n_edges))
        terms[exps] = 1
    return MultiPoly(n_edges, terms)


def two_forest_polynomial(g: Graph) -> MultiPoly:
    """Momentum part of S2: sum over 2-forests F of (q^F)^2 prod_{e not in F} a_e.

    The 2-forests are the acyclic sets of V - 2 edges. (q^F)^2 is the
    euclidean square of the total external momentum entering the component
    of the first vertex (the other component carries minus that by
    conservation), so every coefficient is a nonnegative rational. It
    depends only on which momentum-carrying vertices share that component,
    so it is computed once per such set, keyed by a bitmask over them.
    """
    n_edges = g.n_edges
    first = g.vertices[0]
    carriers = [(v, q) for v, q in g.external_momenta.items() if not q.is_zero()]
    weights = {}
    terms = {}
    for idxs, parent in _forests(g, g.n_vertices - 2):
        root0 = _find(parent, first)
        side = sum(1 << k for k, (v, _) in enumerate(carriers) if _find(parent, v) == root0)
        weight = weights.get(side)
        if weight is None:
            q = sum((p for k, (_, p) in enumerate(carriers) if side >> k & 1), FourVector.zero())
            weight = weights[side] = q.norm2()
        if weight:
            inside = set(idxs)
            exps = tuple(0 if i in inside else 1 for i in range(n_edges))
            terms[exps] = weight
    return MultiPoly(n_edges, terms)


def second_symanzik(g: Graph, basis: CycleBasis | None = None, routing=None) -> SymanzikPair:
    """S2 = (2-forest momentum sum) + (sum_e m_e^2 a_e) * S1.

    `routing` is unused (the 2-forest sum reads the vertex momenta directly);
    it stays for callers that pass it positionally. Homogeneity in the edge
    variables (degrees n and n+1) is re-checked on the results.
    """
    basis = basis or cycle_basis(g)
    s1 = first_symanzik_det(g, basis)
    mass = MultiPoly.linear([e.mass * e.mass for e in g.edges])
    s2 = two_forest_polynomial(g) + mass * s1
    n = loop_number(g)
    if s1.homogeneous_degree() != n or s2.homogeneous_degree() != n + 1:
        raise StructuralError("symanzik polynomials failed their homogeneity check")
    return SymanzikPair(s1, s2)
