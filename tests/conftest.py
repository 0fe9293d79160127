"""Shared helpers: random rational kinematics, random graphs, random forms."""

import math
import random
from fractions import Fraction

import numpy as np

from twistamp import FourVector, Graph


def random_fraction(rnd: random.Random, lo=-4, hi=4, max_den=4, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rnd.randint(lo, hi), rnd.randint(1, max_den))
        if f or not nonzero:
            return f


def random_positive_fraction(rnd: random.Random, hi=4, max_den=3) -> Fraction:
    return Fraction(rnd.randint(1, hi), rnd.randint(1, max_den))


def random_momenta(rnd: random.Random, vertices) -> dict:
    """Random rational external momenta that conserve exactly."""
    vertices = list(vertices)
    momenta = {}
    running = FourVector.zero()
    for v in vertices[:-1]:
        q = FourVector.make([random_fraction(rnd) for _ in range(4)])
        momenta[v] = q
        running = running + q
    momenta[vertices[-1]] = -running
    return momenta


def with_random_kinematics(factory, rnd: random.Random) -> Graph:
    """Rebuild a catalog topology with random masses and conserving momenta."""
    skeleton = factory()
    masses = tuple(random_positive_fraction(rnd) for _ in skeleton.edges)
    momenta = random_momenta(rnd, skeleton.vertices)
    return factory(masses=masses, momenta=momenta)


def random_connected_graph(rnd: random.Random, max_edges=8) -> Graph:
    """Random simple connected graph with at least one loop and <= max_edges edges."""
    while True:
        n_verts = rnd.randint(3, 6)
        vertices = list(range(1, n_verts + 1))
        edges = set()
        for v in vertices[1:]:
            u = rnd.randint(1, v - 1)
            edges.add((u, v))
        possible = [
            (u, v)
            for i, u in enumerate(vertices)
            for v in vertices[i + 1 :]
            if (u, v) not in edges
        ]
        rnd.shuffle(possible)
        extra = rnd.randint(1, max(1, max_edges - len(edges)))
        for pair in possible[:extra]:
            if len(edges) >= max_edges:
                break
            edges.add(pair)
        if len(edges) > max_edges or len(edges) <= len(vertices) - 1:
            continue
        edge_list = [
            (i + 1, u, v, random_positive_fraction(rnd))
            for i, (u, v) in enumerate(sorted(edges))
        ]
        return Graph.build(vertices, edge_list)


def random_antisymmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m - m.T


# The multi-loop N = 2n+2 shapes of the benchmark: (vertices, edges as
# (id, source, target)). theta: two vertices joined by three 2-edge paths;
# loop3: K4 with two opposite edges subdivided; loop4: loop3 plus a path 5-7-6.
MULTI_LOOP_TOPOLOGIES = {
    "theta": (
        [1, 2, 3, 4, 5],
        [(1, 1, 3), (2, 3, 2), (3, 1, 4), (4, 4, 2), (5, 1, 5), (6, 5, 2)],
    ),
    "loop3": (
        [1, 2, 3, 4, 5, 6],
        [(1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 1, 4), (5, 2, 3), (6, 2, 4), (7, 3, 6), (8, 6, 4)],
    ),
    "loop4": (
        [1, 2, 3, 4, 5, 6, 7],
        [
            (1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 1, 4), (5, 2, 3),
            (6, 2, 4), (7, 3, 6), (8, 6, 4), (9, 5, 7), (10, 7, 6),
        ],
    ),
}


def multi_loop_graph(name: str, rnd: random.Random) -> Graph:
    """One of MULTI_LOOP_TOPOLOGIES with random masses and conserving momenta."""
    vertices, edges = MULTI_LOOP_TOPOLOGIES[name]
    return Graph.build(
        vertices,
        [(i, s, t, random_positive_fraction(rnd)) for i, s, t in edges],
        random_momenta(rnd, vertices[:4]),
    )


# Calls to each set-up builder of the three estimators when every estimate on
# one graph builds its pieces once: U and F0 are the two Horner plans.
SET_UP_ONCE = {
    "_vanishing_orders": 1,
    "_tropical_sampler": 1,
    "_poly_evaluator": 2,
    "_tree_channels": 1,
    "_block_table": 1,
}


def count_set_up_builds(monkeypatch) -> dict:
    """Wraps each builder named in SET_UP_ONCE in twistamp.integrate with a
    call counter; returns the counts by name, all 0 to begin with."""
    import twistamp.integrate as integrate

    calls = dict.fromkeys(SET_UP_ONCE, 0)

    def counted(name, build):
        def wrapper(*args):
            calls[name] += 1  # one graph's builders run under its lock, one at a time
            return build(*args)

        wrapper.__name__ = build.__name__
        return wrapper

    for name in SET_UP_ONCE:
        monkeypatch.setattr(integrate, name, counted(name, getattr(integrate, name)))
    return calls


def simplex_batches(cfg, dim: int, stream: str, tropical=None):
    """twistamp.integrate._simplex_batches drawing into regions of its own,
    allocated here at the shapes of the config's largest batch, so that the
    thread's workspace stays free for the estimates a test runs meanwhile.
    Yields ((points, log q), runs) as it does, log q None without a
    tropical sampler."""
    from twistamp.integrate import _draw_shapes, _largest_batch, _simplex_batches

    shapes = _draw_shapes(_largest_batch(cfg), dim, tropical)
    regions = [np.empty(math.prod(shape)) for shape in shapes]
    return _simplex_batches(cfg, dim, stream, tropical, regions)


def box_simplex_integral(g: Graph, nodes: int) -> float:
    """The box's parametric integral, over the simplex of da / S2(a)^2 with
    a_4 = 1 - a_1 - a_2 - a_3, by a collapsed (Duffy) Gauss-Legendre rule of
    `nodes` points per axis: a_1 = t_1, a_2 = (1 - t_1) t_2 and a_3 = (1 -
    t_1)(1 - t_2) t_3, of Jacobian (1 - t_1)^2 (1 - t_2). With every mass
    positive S2 has no zero on the closed simplex, so the rule converges
    exponentially in `nodes`. S2 is summed term by term from its exact
    coefficients."""
    from twistamp import second_symanzik

    terms = [(exps, float(c.re)) for exps, c in second_symanzik(g).s2.terms()]
    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = (x + 1.0) / 2.0, w / 2.0
    t2, t3 = np.meshgrid(t, t, indexing="ij")
    weights = np.outer(w, w) * (1.0 - t2)
    slabs = []
    for t1, w1 in zip(t.tolist(), w.tolist()):
        rest = 1.0 - t1
        tail = rest * (1.0 - t2)
        a = [np.full_like(t2, t1), rest * t2, tail * t3, tail * (1.0 - t3)]
        s2 = sum(c * math.prod(a[i] ** k for i, k in enumerate(exps) if k) for exps, c in terms)
        slabs.append(w1 * rest**2 * math.fsum((weights / s2**2).ravel().tolist()))
    return math.fsum(slabs)
