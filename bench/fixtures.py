"""Benchmark fixtures: five N = 2n+2 graphs with exact rational kinematics.

Every fixture has a fixed kinematic *shape* (masses and external momenta
drawn once from SHAPE_SEED) and an overall rational energy scale drawn from
the workload seed. The amplitude is homogeneous in that scale, so the
relative standard error of each estimator, and hence every time-to-1%
figure, depends only on the shape: a different seed changes every number the
program computes but not the statistical difficulty of the problem. Moving
the shape itself moves the heavy-tailed simplex errors by up to 3x at a
fixed sampler seed, which no run-to-run bound could absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SHAPE_SEED = 2013
# the scale is p/q for two distinct primes, so every seed gives rationals of
# about the same size and the exact layer does about the same work
SCALE_PRIMES = (7, 11, 13, 17)

# name -> (vertices, directed edges (id, source, target), vertices carrying
# external momenta, loop number). box and bowtie come from twistamp.catalog.
TOPOLOGIES = {
    "box": ([1, 2, 3, 4], [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 1)], [1, 2, 3, 4], 1),
    "bowtie": (
        [1, 2, 3, 4, 5],
        [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4), (5, 4, 5), (6, 5, 3)],
        [1, 2, 4, 5],
        2,
    ),
    # two vertices joined by three 2-edge paths: every pair of loops shares edges
    "theta": (
        [1, 2, 3, 4, 5],
        [(1, 1, 3), (2, 3, 2), (3, 1, 4), (4, 4, 2), (5, 1, 5), (6, 5, 2)],
        [1, 3, 4, 5],
        2,
    ),
    # K4 on 1..4 with edges 1-2 and 3-4 subdivided (by 5 and 6): no 1- or
    # 2-loop subgraph is log divergent, so all three integrals converge
    "loop3": (
        [1, 2, 3, 4, 5, 6],
        [(1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 1, 4), (5, 2, 3), (6, 2, 4), (7, 3, 6), (8, 6, 4)],
        [1, 2, 3, 4],
        3,
    ),
    # loop3 plus a path 5-7-6: triangle-free, so no K4 (the only 6-edge
    # 3-loop graph, log divergent) sits inside it
    "loop4": (
        [1, 2, 3, 4, 5, 6, 7],
        [
            (1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 1, 4), (5, 2, 3),
            (6, 2, 4), (7, 3, 6), (8, 6, 4), (9, 5, 7), (10, 7, 6),
        ],
        [1, 2, 3, 4],
        4,
    ),
}

CATALOG = ("box", "bowtie")


@dataclass(frozen=True)
class Spec:
    """Exact kinematics of one fixture: everything Graph.build needs."""

    name: str
    loops: int
    vertices: tuple
    edges: tuple  # (id, source, target, mass)
    momenta: dict  # vertex -> 4 Fractions

    def document(self) -> dict:
        """The graph as a `twistamp integrate` input file."""
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"id": i, "source": s, "target": t, "mass": str(m)}
                for i, s, t, m in self.edges
            ],
            "external_momenta": {
                str(v): [str(c) for c in q] for v, q in self.momenta.items()
            },
        }


def _shape(name: str):
    """Masses in [3/4, 5/4] and momentum components in [-1/2, 1/2]."""
    vertices, edges, external, _ = TOPOLOGIES[name]
    rnd = random.Random(SHAPE_SEED + list(TOPOLOGIES).index(name))
    masses = [Fraction(rnd.randint(6, 10), 8) for _ in edges]
    momenta = {}
    total = [Fraction(0)] * 4
    for v in external[:-1]:
        q = [Fraction(rnd.randint(-2, 2), 4) for _ in range(4)]
        momenta[v] = q
        total = [a + b for a, b in zip(total, q)]
    momenta[external[-1]] = [-a for a in total]
    return masses, momenta


def make_specs(names, seed: int) -> list:
    """One Spec per name: the fixed shape times a scale drawn from `seed`."""
    rnd = random.Random(seed)
    specs = []
    for name in names:
        vertices, edges, _, loops = TOPOLOGIES[name]
        scale = Fraction(*rnd.sample(SCALE_PRIMES, 2))
        masses, momenta = _shape(name)
        specs.append(
            Spec(
                name,
                loops,
                tuple(vertices),
                tuple((i, s, t, m * scale) for (i, s, t), m in zip(edges, masses)),
                {v: [c * scale for c in q] for v, q in momenta.items()},
            )
        )
    return specs


@dataclass
class Prepared:
    """A built fixture with the objects a prepared problem would hold."""

    spec: Spec
    graph: object
    basis: object
    routing: object
    symanzik: object
    forms: list


def prepare(ta, spec: Spec) -> Prepared:
    """Graph.build validation, cycle basis, routing, S1/S2 and forms.

    This is the set-up that `setup_s` times. It also asserts the loop number
    and N = 2n + 2, so a fixture can never silently change shape.
    """
    if spec.name in CATALOG:
        factory = getattr(ta, spec.name)
        g = factory(masses=tuple(m for *_, m in spec.edges), momenta=spec.momenta)
    else:
        g = ta.Graph.build(spec.vertices, spec.edges, spec.momenta)
    n = ta.loop_number(g)
    if n != spec.loops or g.n_edges != 2 * n + 2:
        raise RuntimeError(
            f"fixture {spec.name}: n={n}, N={g.n_edges}; expected n={spec.loops}, N=2n+2"
        )
    basis = ta.cycle_basis(g)
    routing = ta.route_momenta(g)
    sym = ta.second_symanzik(g, basis, routing)
    forms = ta.propagator_forms(g, basis, routing)
    return Prepared(spec, g, basis, routing, sym, forms)


def matchings(n: int) -> int:
    """(d-1)!! perfect matchings of d = 2n + 2 indices."""
    count = 1
    for k in range(2 * n + 1, 0, -2):
        count *= k
    return count
