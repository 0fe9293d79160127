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


def parametric_integral(g: Graph, nodes: int) -> float:
    """Eq. (1.1c) without its constant: the integral over the unit simplex
    of S1(a)^(N-2n-2) / S2(a)^(N-2n) da_1 ... da_(N-1), by a collapsed
    (Duffy) Gauss-Legendre rule of `nodes` points per axis: a_1 = t_1, a_k =
    (1 - t_1) ... (1 - t_(k-1)) t_k for k < N and a_N the rest, of Jacobian
    prod_k (1 - t_k)^(N-1-k). With every mass positive S2 has no zero on the
    closed simplex, so the rule converges exponentially in `nodes`. S1 and
    S2 are summed term by term from their exact coefficients, one slab of
    t_1 at a time."""
    from twistamp import loop_number, second_symanzik

    sym = second_symanzik(g)
    n_edges, n = g.n_edges, loop_number(g)

    def at(poly, a):
        return sum(
            float(c.re) * math.prod(a[i] ** k for i, k in enumerate(exps) if k)
            for exps, c in poly.terms()
        )

    x, w = np.polynomial.legendre.leggauss(nodes)
    t, w = (x + 1.0) / 2.0, w / 2.0
    inner = np.meshgrid(*[t] * (n_edges - 2), indexing="ij")  # t_2 .. t_(N-1)
    weights = math.prod(np.meshgrid(*[w] * (n_edges - 2), indexing="ij"))
    for k, t_k in enumerate(inner, start=2):
        weights = weights * (1.0 - t_k) ** (n_edges - 1 - k)
    slabs = []
    for t1, w1 in zip(t.tolist(), w.tolist()):
        rest = np.full_like(inner[0], 1.0 - t1)
        a = [np.full_like(rest, t1)]
        for t_k in inner:
            a.append(rest * t_k)
            rest = rest * (1.0 - t_k)
        a.append(rest)
        values = at(sym.s1, a) ** (n_edges - 2 * n - 2) / at(sym.s2, a) ** (n_edges - 2 * n)
        slab = math.fsum((weights * values).ravel().tolist())
        slabs.append(w1 * (1.0 - t1) ** (n_edges - 2) * slab)
    return math.fsum(slabs)
