"""Graph model for loop integrands: validation, cycle bases, momentum routing.

Edges are directed (source -> target) and stored sorted by id; that order
fixes the edge-variable order a1..aN used by every downstream module. All
kinematic data is kept as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebra import as_fraction
from .errors import StructuralError, ValidationError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FourVector",
    "Edge",
    "Graph",
    "CycleBasis",
    "MomentumRouting",
    "loop_number",
    "cycle_basis",
    "route_momenta",
]


class FourVector(NamedTuple):
    """Euclidean 4-vector with exact rational components; q(x) = sum x_i^2."""

    x1: Fraction
    x2: Fraction
    x3: Fraction
    x4: Fraction

    @classmethod
    def make(cls, components) -> "FourVector":
        comps = list(components)
        if len(comps) != 4:
            raise ValidationError(f"a 4-vector needs 4 components, got {len(comps)}")
        return cls(*(as_fraction(c) for c in comps))

    @classmethod
    def zero(cls) -> "FourVector":
        z = Fraction(0)
        return cls(z, z, z, z)

    def __add__(self, other):
        return FourVector(*(a + b for a, b in zip(self, other)))

    def __radd__(self, other):
        if other == 0:
            return self
        return NotImplemented

    def __sub__(self, other):
        return FourVector(*(a - b for a, b in zip(self, other)))

    def __neg__(self):
        return FourVector(*(-a for a in self))

    def scaled(self, c) -> "FourVector":
        c = as_fraction(c)
        return FourVector(*(a * c for a in self))

    def dot(self, other) -> Fraction:
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def norm2(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return not any(self)

    def floats(self) -> np.ndarray:
        import numpy as np

        return np.array([float(a) for a in self])


class Edge(NamedTuple):
    """Directed edge with a strictly positive mass (energy units)."""

    id: int
    source: object
    target: object
    mass: Fraction


@dataclass(frozen=True)
class Graph:
    """Connected simple graph with per-edge masses and conserved external momenta.

    No self-loops and no parallel edges; external momenta hang off vertices
    and must sum to the zero 4-vector.
    """

    vertices: tuple
    edges: tuple
    external_momenta: dict

    def __post_init__(self):
        verts = tuple(self.vertices)
        if len(verts) < 2:
            raise StructuralError("need at least two vertices")
        if len(set(verts)) != len(verts):
            raise StructuralError("duplicate vertex ids")
        vset = set(verts)

        edges = []
        for eid, src, dst, mass in self.edges:
            if not _is_int(eid):
                raise ValidationError(f"edge id {eid!r} is not an integer")
            edges.append(Edge(eid, src, dst, as_fraction(mass)))
        edges.sort(key=lambda e: e.id)
        if not edges:
            raise StructuralError("need at least one edge")
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate edge ids")
        endpoint_pairs = set()
        for e in edges:
            if e.source not in vset or e.target not in vset:
                raise StructuralError(f"edge {e.id} touches an unknown vertex")
            if e.source == e.target:
                raise StructuralError(f"edge {e.id} is a self-loop")
            pair = frozenset((e.source, e.target))
            if pair in endpoint_pairs:
                raise StructuralError(f"edge {e.id} duplicates an existing edge")
            endpoint_pairs.add(pair)
            if e.mass <= 0:
                raise ValidationError(f"edge {e.id} needs a strictly positive mass")

        momenta = {}
        for v, q in dict(self.external_momenta or {}).items():
            if v not in vset:
                raise ValidationError(f"external momentum attached to unknown vertex {v!r}")
            momenta[v] = FourVector.make(q)
        total = sum(momenta.values(), FourVector.zero())
        if not total.is_zero():
            raise ValidationError("external momenta must sum to zero")

        parent = {v: v for v in verts}
        if sum(_union(parent, e.source, e.target) for e in edges) != len(verts) - 1:
            raise StructuralError("graph must be connected")

        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "external_momenta", momenta)
        object.__setattr__(self, "_index", {e.id: i for i, e in enumerate(edges)})

    @classmethod
    def build(cls, vertices, edges, external_momenta=None) -> "Graph":
        return cls(tuple(vertices), tuple(edges), dict(external_momenta or {}))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def momentum(self, v) -> FourVector:
        return self.external_momenta.get(v, FourVector.zero())

    def index_of(self, edge_id) -> int:
        try:
            return self._index[edge_id]
        except KeyError:
            raise StructuralError(f"no edge with id {edge_id!r}") from None


def _is_int(value) -> bool:
    # bool is a subclass of int, but True is neither an edge id nor a seed
    return isinstance(value, int) and not isinstance(value, bool)


def loop_number(g: Graph) -> int:
    """First Betti number E - V + 1 (graphs are validated connected)."""
    return g.n_edges - g.n_vertices + 1


def _find(parent, v):
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent, a, b) -> bool:
    """Merge the components of a and b; False if they were already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


def _rooted_tree(g: Graph, tree=None):
    """A spanning tree rooted at the first vertex: the given edge positions,
    or by default the greedy lowest-id tree.

    Returns (up, order): up[v] = (parent, edge position, +1 if the edge
    points v -> parent else -1) for every non-root vertex, and the vertices
    in parents-first order.
    """
    if tree is None:
        parent = {v: v for v in g.vertices}
        tree = [idx for idx, e in enumerate(g.edges) if _union(parent, e.source, e.target)]
    adjacency = {v: [] for v in g.vertices}
    for idx in tree:
        e = g.edges[idx]
        adjacency[e.source].append((e.target, idx, -1))
        adjacency[e.target].append((e.source, idx, 1))
    root = g.vertices[0]
    up = {}
    order = [root]
    for v in order:
        for w, idx, direction in adjacency[v]:
            if w != root and w not in up:
                up[w] = (v, idx, direction)
                order.append(w)
    return up, order


@dataclass(frozen=True)
class CycleBasis:
    """Rows are independent circulations with entries in {-1, 0, +1};
    column e holds the coefficient of edge e on each basis loop."""

    loops: tuple

    @property
    def n(self) -> int:
        return len(self.loops)

    def column(self, e: int) -> tuple:
        return tuple(row[e] for row in self.loops)


def _fundamental_cycles(g: Graph, tree=None) -> list:
    """One row per chord of the spanning tree (see _rooted_tree), in edge
    order, over the edge positions.

    Chord e closes exactly one cycle: coefficient +1 on e, and +/-1 on the
    tree path from target(e) back to source(e) according to whether the
    path traverses a tree edge along or against its direction. That path is
    the climb from target(e) to the root minus the climb from source(e); the
    edges above their common ancestor cancel.
    """
    up, _ = _rooted_tree(g, tree)
    in_tree = {idx for _, idx, _ in up.values()}

    def climb(row, v, sign):
        while v in up:
            v, idx, direction = up[v]
            row[idx] += sign * direction

    rows = []
    for idx, e in enumerate(g.edges):
        if idx in in_tree:
            continue
        row = [0] * g.n_edges
        row[idx] = 1
        climb(row, e.target, 1)
        climb(row, e.source, -1)
        rows.append(tuple(row))
    return rows


def cycle_basis(g: Graph) -> CycleBasis:
    """Fundamental cycles of the lowest-id spanning tree, one per extra edge
    (see _fundamental_cycles)."""
    return CycleBasis(tuple(_fundamental_cycles(g)))


@dataclass(frozen=True)
class MomentumRouting:
    """External shift 4-vector per edge id; zero on every non-tree edge."""

    shifts: dict

    def of(self, edge_id) -> FourVector:
        return self.shifts[edge_id]


def route_momenta(g: Graph) -> MomentumRouting:
    """Shifts supported on the lowest-id spanning tree.

    Removing a tree edge splits the tree in two; the edge carries the total
    external momentum entering its source-side component, flowing
    source -> target. With the tree rooted, that is +/- the momentum summed
    over the subtree below the edge (conservation gives the other side).
    Per-vertex balance is re-checked exactly.
    """
    up, order = _rooted_tree(g)
    below = {v: g.momentum(v) for v in g.vertices}
    shifts = {e.id: FourVector.zero() for e in g.edges}
    for v in reversed(order[1:]):
        parent, idx, direction = up[v]
        shifts[g.edges[idx].id] = below[v] if direction > 0 else -below[v]
        below[parent] = below[parent] + below[v]

    routing = MomentumRouting(shifts)
    _check_flow(g, routing)
    return routing


def _check_flow(g: Graph, routing: MomentumRouting) -> None:
    for v in g.vertices:
        balance = FourVector.zero()
        for e in g.edges:
            s = routing.of(e.id)
            if e.source == v:
                balance = balance + s
            if e.target == v:
                balance = balance - s
        if balance != g.momentum(v):
            raise ValidationError(f"momentum balance failed at vertex {v!r}")
