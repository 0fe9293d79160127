import random
from fractions import Fraction

import numpy as np
import pytest

from twistamp import (
    Graph,
    MultiPoly,
    bowtie,
    box,
    cycle_basis,
    first_symanzik_det,
    first_symanzik_trees,
    route_momenta,
    second_symanzik,
    spanning_trees,
    triangle,
    two_forest_polynomial,
)
from conftest import (
    multi_loop_graph,
    random_connected_graph,
    random_momenta,
    random_positive_fraction,
    with_random_kinematics,
)


def test_triangle_s1():
    expect = MultiPoly.linear([1, 1, 1])
    assert first_symanzik_det(triangle()) == expect
    assert first_symanzik_trees(triangle()) == expect


def test_box_s1():
    expect = MultiPoly.linear([1, 1, 1, 1])
    assert first_symanzik_det(box()) == expect
    assert first_symanzik_trees(box()) == expect


def test_bowtie_s1_factorizes():
    left = MultiPoly.linear([1, 1, 1, 0, 0, 0])
    right = MultiPoly.linear([0, 0, 0, 1, 1, 1])
    expect = left * right
    assert first_symanzik_det(bowtie()) == expect
    assert first_symanzik_trees(bowtie()) == expect
    assert len(list(spanning_trees(bowtie()))) == 9


def test_single_edge_graph_has_unit_s1():
    g = Graph.build([1, 2], [(1, 1, 2, 1)])
    assert first_symanzik_trees(g) == MultiPoly.constant(1, 1)
    assert first_symanzik_det(g) == MultiPoly.constant(1, 1)


def test_determinant_equals_tree_sum_on_random_graphs():
    rnd = random.Random(77)
    for _ in range(8):
        g = random_connected_graph(rnd)
        basis = cycle_basis(g)
        det = first_symanzik_det(g, basis)
        trees = first_symanzik_trees(g)
        assert det == trees
        # multiplicity-free: every coefficient is 1, one term per tree
        assert all(c == 1 for _, c in det.terms())
        assert det.nterms == len(list(spanning_trees(g)))


def test_s2_zero_momentum_is_mass_times_s1():
    masses = (Fraction(1, 2), Fraction(2), Fraction(3, 4), Fraction(1))
    g = box(masses=masses)
    pair = second_symanzik(g)
    mass_poly = MultiPoly.linear([m * m for m in masses])
    assert pair.s2 == mass_poly * pair.s1


def test_box_equal_mass_s2_is_square():
    m = Fraction(3, 2)
    pair = second_symanzik(box(masses=(m, m, m, m)))
    total = MultiPoly.linear([1, 1, 1, 1])
    assert pair.s2 == total * total * (m * m)


def test_box_two_forest_coefficients_by_hand():
    # q enters at vertex 1 and leaves at vertex 3: every 2-forest cut that
    # separates them carries q^2; the four cuts are {e2,e4},{e2,e3},{e1,e4},{e1,e3}
    q = [Fraction(1, 2), Fraction(1, 3), 0, 1]
    q2 = sum(Fraction(c) ** 2 for c in q)
    g = box(momenta={1: q, 3: [-c for c in q]})
    s2_momentum = two_forest_polynomial(g)
    left = MultiPoly.linear([1, 1, 0, 0])
    right = MultiPoly.linear([0, 0, 1, 1])
    assert s2_momentum == left * right * q2


def test_s2_homogeneities_and_quadratic_momentum_scaling():
    rnd = random.Random(31)
    g = bowtie(
        masses=tuple(random_positive_fraction(rnd) for _ in range(6)),
        momenta=random_momenta(rnd, [1, 2, 3, 4, 5]),
    )
    pair = second_symanzik(g)
    assert pair.s1.homogeneous_degree() == 2
    assert pair.s2.homogeneous_degree() == 3
    # scale all masses and momenta by lam: S2 scales by lam^2, S1 fixed
    lam = Fraction(3, 5)
    scaled = bowtie(
        masses=tuple(e.mass * lam for e in g.edges),
        momenta={v: q.scaled(lam) for v, q in g.external_momenta.items()},
    )
    scaled_pair = second_symanzik(scaled)
    assert scaled_pair.s1 == pair.s1
    assert scaled_pair.s2 == pair.s2 * (lam * lam)


def test_s2_positive_on_interior_samples():
    rnd = random.Random(13)
    rng = np.random.default_rng(13)
    for factory in (triangle, box, bowtie):
        g = factory(
            masses=tuple(random_positive_fraction(rnd) for _ in factory().edges),
            momenta=random_momenta(rnd, factory().vertices),
        )
        pair = second_symanzik(g)
        terms = pair.s2.terms()
        assert not any(c.im for _, c in terms)
        points = rng.dirichlet(np.ones(g.n_edges), size=10_000)
        values = sum(float(c.re) * np.prod(points ** np.array(e), axis=1) for e, c in terms)
        assert (values > 0).all()


def _sympy_symanzik(sympy, g):
    """S1 and S2 by sympy alone from the cycle basis and the routed shifts
    (Bogner-Weinzierl): with L = sum_e a_e alpha_e alpha_e^T,
    B = sum_e a_e alpha_e s_e^T and J = sum_e a_e |s_e|^2,
    S1 = det L and S2 = det L * J - tr(B^T adj(L) B) + (sum_e m_e^2 a_e) det L,
    each as {exponents: Fraction}."""
    basis = cycle_basis(g)
    routing = route_momenta(g)
    a = sympy.symbols(f"a1:{g.n_edges + 1}")

    def rat(x):
        return sympy.Rational(x.numerator, x.denominator)

    L = sympy.zeros(basis.n, basis.n)
    B = sympy.zeros(basis.n, 4)
    J = 0
    mass = 0
    for e, edge in enumerate(g.edges):
        alpha = sympy.Matrix(basis.column(e))
        s = sympy.Matrix([rat(x) for x in routing.of(edge.id)])
        L += a[e] * alpha * alpha.T
        B += a[e] * alpha * s.T
        J += a[e] * s.dot(s)
        mass += a[e] * rat(edge.mass) ** 2
    s1 = L.det(method="berkowitz")
    s2 = s1 * (J + mass) - (B.T * L.adjugate(method="berkowitz") * B).trace()

    def terms(expr):
        poly = sympy.Poly(sympy.expand(expr), *a)
        return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}

    return terms(s1), terms(s2)


@pytest.mark.parametrize("name", ["bowtie", "theta", "loop3"])
def test_symanzik_matches_independent_sympy_oracle(name):
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(53)
    g = with_random_kinematics(bowtie, rnd) if name == "bowtie" else multi_loop_graph(name, rnd)
    s1, s2 = _sympy_symanzik(sympy, g)
    pair = second_symanzik(g)
    for poly, want in ((pair.s1, s1), (pair.s2, s2)):
        assert not any(c.im for _, c in poly.terms())
        assert {e: c.re for e, c in poly.terms()} == want
