import random
from fractions import Fraction

import numpy as np
import pytest

from twistamp import (
    AlternatingForm,
    DegenerateInput,
    GaussianRational,
    Graph,
    MultiPoly,
    SymanzikPair,
    TwistorPoint,
    ValidationError,
    bowtie,
    box,
    build_propagator_form,
    complete4,
    cycle_basis,
    embed4,
    first_symanzik_trees,
    loop_number,
    o_block_form,
    pair,
    pfaffian_numeric,
    pfaffian_symbolic,
    pfaffian_symanzik_ratio,
    propagator_forms,
    quadratic_rank_check,
    route_momenta,
    second_symanzik,
    triangle,
)
from conftest import (
    multi_loop_graph,
    random_connected_graph,
    random_fraction,
    random_momenta,
    random_positive_fraction,
    with_random_kinematics,
)


def test_embed4_examples():
    blk = embed4([1, 0, 0, 0])
    assert (complex(blk.z1), complex(blk.z2), complex(blk.w1), complex(blk.w2)) == (1, 0, 0, 1)
    assert blk.det() == 1
    blk = embed4([0, 0, 1, 0])
    assert (complex(blk.z1), complex(blk.z2), complex(blk.w1), complex(blk.w2)) == (0, 1j, 1j, 0)
    assert blk.det() == 1


def test_embed4_det_is_euclidean_square_exactly():
    rnd = random.Random(3)
    for _ in range(50):
        x = [random_fraction(rnd, max_den=7) for _ in range(4)]
        blk = embed4(x)
        assert blk.det() == sum(Fraction(c) ** 2 for c in x)
        # real slice pattern: w1 = -conj(z2), w2 = conj(z1)
        assert blk.w1 == -blk.z2.conjugate()
        assert blk.w2 == blk.z1.conjugate()


def test_embed4_is_real_linear():
    rnd = random.Random(4)
    for _ in range(20):
        x = [random_fraction(rnd) for _ in range(4)]
        y = [random_fraction(rnd) for _ in range(4)]
        c = random_fraction(rnd)
        bx, by = embed4(x), embed4(y)
        both = embed4([a + c * b for a, b in zip(x, y)])
        for i in range(4):
            assert both[i] == bx[i] + GaussianRational.coerce(c) * by[i]


def test_propagator_form_single_loop_support():
    # zero shift, unit mass
    g = box()
    f = build_propagator_form(g, 1)
    assert f.form.dim == 4
    assert f.form.rank() == 4  # mass 1 makes it rank 4
    # strip the mass by subtracting it out: the loop wedge alone has rank 2
    loop_only = f.form + o_block_form(1).scaled(-1)
    assert loop_only.rank() == 2


def test_propagator_form_mass_pairs_to_m_squared():
    g = box(masses=(Fraction(3, 2),) * 4)
    f = build_propagator_form(g, 2)
    at_zero = TwistorPoint.real_slice(np.zeros((1, 4)))
    assert pair(f, at_zero) == pytest.approx(float(Fraction(3, 2) ** 2))


def test_propagator_form_rank4_for_massive_generic():
    rnd = random.Random(8)
    g = with_random_kinematics(box, rnd)
    for f in propagator_forms(g):
        assert f.form.rank() == 4


def test_pair_reproduces_euclidean_propagator():
    rnd = random.Random(15)
    rng = np.random.default_rng(15)
    for factory in (triangle, box, bowtie):
        g = with_random_kinematics(factory, rnd)
        basis = cycle_basis(g)
        routing = route_momenta(g)
        forms = propagator_forms(g, basis, routing)
        n = basis.n
        for _ in range(100):
            xs = rng.standard_normal((n, 4))
            point = TwistorPoint.real_slice(xs)
            assert point.is_real_slice()
            for f in forms:
                value = pair(f, point)
                alpha = np.array(f.alpha, dtype=float)
                momentum = alpha @ xs + f.shift.floats()
                expect = float(momentum @ momentum) + float(f.mass) ** 2
                assert abs(value - expect) <= 1e-12 * expect
                assert value.real >= float(f.mass) ** 2 * (1 - 1e-12)


def test_pair_at_n1_unit_loop_vector():
    g = box()
    f = build_propagator_form(g, 1)
    point = TwistorPoint.real_slice([[1.0, 0.0, 0.0, 0.0]])
    # alpha = 1, s = 0, so the pairing is q(x) + m^2 = 1 + 1
    assert pair(f, point) == pytest.approx(2.0)


def test_real_slice_blocks_are_the_embed4_blocks():
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((3, 4))
    point = TwistorPoint.real_slice(xs)
    assert point.is_real_slice()
    for (z1, z2, w1, w2), x in zip(point.blocks, xs):
        assert (z1, z2, w1, w2) == tuple(complex(c) for c in embed4(x))
        assert z1 * w2 - z2 * w1 == pytest.approx(x @ x, rel=1e-14)
    with pytest.raises(ValidationError):
        TwistorPoint.real_slice([[0.0, np.nan, 0.0, 0.0]])


def test_quadratic_rank_examples():
    # n=1: e3* ^ e4* gives x3 y4 - x4 y3, rank 4
    e3 = [0, 0, 1, 0]
    e4 = [0, 0, 0, 1]
    alpha = AlternatingForm.from_wedge(e3, e4)
    assert quadratic_rank_check(alpha) == 4
    # adding the mass direction e1* ^ e2* is a constant shift: rank unchanged
    e1 = [1, 0, 0, 0]
    e2 = [0, 1, 0, 0]
    massive = alpha + AlternatingForm.from_wedge(e1, e2)
    assert quadratic_rank_check(massive) == 4
    with pytest.raises(ValidationError):
        quadratic_rank_check(AlternatingForm([[0] * 4] * 4))


def test_quadratic_rank_random_decomposable():
    rnd = random.Random(21)
    for n in (1, 2, 3):
        dim = 2 * n + 2
        for _ in range(10):
            u = [random_fraction(rnd, nonzero=False) for _ in range(dim)]
            w = [random_fraction(rnd, nonzero=False) for _ in range(dim)]
            alpha = AlternatingForm.from_wedge(u, w)
            block = [row[2:] for row in alpha.rows()[2:]]
            if all(x.is_zero() for r in block for x in r):
                continue  # projection away from (e1, e2) collapsed: no quadric
            assert quadratic_rank_check(alpha) == 4


def test_quadratic_rank_degenerate_projection_is_zero():
    # v = e1*, w = e3*: the pairing is affine-linear on the chart, rank 0
    alpha = AlternatingForm.from_wedge([1, 0, 0, 0], [0, 0, 1, 0])
    assert quadratic_rank_check(alpha) == 0


def test_sum_of_forms_nonzero_on_real_slice():
    rnd = random.Random(33)
    rng = np.random.default_rng(33)
    g = with_random_kinematics(bowtie, rnd)
    forms = propagator_forms(g)
    weights = rng.uniform(0.1, 2.0, size=len(forms))
    stack = [f.form.to_numpy() for f in forms]
    total = sum(w * m for w, m in zip(weights, stack))
    dim = total.shape[0]
    z = rng.standard_normal((10_000, dim)) + 1j * rng.standard_normal((10_000, dim))
    rows2 = np.empty_like(z)
    rows2[:, 0::2] = -np.conj(z[:, 1::2])
    rows2[:, 1::2] = np.conj(z[:, 0::2])
    values = np.einsum("bi,ij,bj->b", z, total, rows2)
    assert np.all(np.abs(values) > 1e-12)
    # each summand contributes a nonnegative real pairing on the slice
    singles = np.einsum("bi,ij,bj->b", z, stack[0], rows2)
    assert np.all(singles.real >= -1e-10 * np.maximum(1.0, np.abs(singles)))


def test_propagator_forms_store_only_nonzero_upper_entries():
    rnd = random.Random(72)
    graphs = [with_random_kinematics(box, rnd), with_random_kinematics(bowtie, rnd)]
    graphs += [multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")]
    for g in graphs:
        for f in propagator_forms(g):
            dense = AlternatingForm(f.form.rows())
            assert dense == f.form
            assert hash(dense) == hash(f.form)
            assert f.form._upper
            assert all(i < j and not x.is_zero() for (i, j), x in f.form._upper.items())


def test_loop_block_pfaffian_is_the_first_symanzik_polynomial():
    # the loop block of sum_e a_e Q_e is L (x) J with L = sum_e a_e alpha_e
    # alpha_e^T, and Pf(L (x) J) = det L = S1: the first factor of the block
    # factorization Pf = det L (b - c0^T (L^-1 (x) J) c1)
    rnd = random.Random(76)
    graphs = [with_random_kinematics(f, rnd) for f in (box, bowtie)]
    graphs += [multi_loop_graph(name, rnd) for name in ("theta", "loop3")]
    for g in graphs:
        loop_block = [
            AlternatingForm([row[2:] for row in f.form.rows()[2:]]) for f in propagator_forms(g)
        ]
        assert pfaffian_symbolic(loop_block) == first_symanzik_trees(g)


def test_massless_shifted_form_has_rank_two():
    q = [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0)]
    g = box(momenta={1: q, 3: [-c for c in q]})
    f = build_propagator_form(g, 1)  # shift q rides edge 1
    assert not f.shift.is_zero()
    massless = f.form + o_block_form(1).scaled(-f.mass * f.mass)
    assert massless.rank() == 2


def test_o_block_form_positive_on_slice():
    rng = np.random.default_rng(44)
    q0 = o_block_form(2)
    for _ in range(500):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        row1 = z
        row2 = np.empty_like(z)
        row2[0::2] = -np.conj(z[1::2])
        row2[1::2] = np.conj(z[0::2])
        value = pair(q0, np.stack([row1, row2]))
        expect = abs(z[0]) ** 2 + abs(z[1]) ** 2
        assert value == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_ratio_box_zero_momentum_equal_mass():
    g = box(masses=(Fraction(1, 2),) * 4)
    result = pfaffian_symanzik_ratio(g)
    assert result.exact
    assert result.residual == 0.0
    assert result.lambda2 == 1 + 0j
    # Pf(a) itself equals S2(a) = m^2 (sum a)^2 here
    assert result.pfaffian == result.symanzik.s2


def test_ratio_box_generic_kinematics():
    rnd = random.Random(55)
    for _ in range(3):
        g = with_random_kinematics(box, rnd)
        result = pfaffian_symanzik_ratio(g)
        assert result.exact and result.residual == 0.0
        assert result.lambda2_exact == 1


def test_ratio_bowtie_generic_kinematics():
    rnd = random.Random(56)
    g = with_random_kinematics(bowtie, rnd)
    result = pfaffian_symanzik_ratio(g)
    assert result.exact and result.residual == 0.0
    assert result.lambda2_exact == 1


def _with_unit_masses(vertices, pairs):
    q = [Fraction(1, 2), 0, Fraction(1, 3), 0]
    edges = [(i, u, v, 1) for i, (u, v) in enumerate(pairs, start=1)]
    return Graph.build(vertices, edges, {vertices[0]: q, vertices[1]: [-c for c in q]})


def _cycle(k):
    return _with_unit_masses(list(range(1, k + 1)), [(i, i % k + 1) for i in range(1, k + 1)])


def test_ratio_is_exact_whatever_the_edge_count():
    # Pf = S1 (S2 / S1) by the block factorization needs no N = 2n+2; on a
    # tree (n = 0) the loop block is empty and Pf = S2 outright
    graphs = [
        _with_unit_masses([1, 2, 3, 4], [(1, 3), (3, 4), (4, 2)]),  # path, n = 0
        triangle(),
        _cycle(3),
        _cycle(5),
        _cycle(6),
        _with_unit_masses([1, 2, 3, 4], [(1, 3), (3, 2), (1, 4), (4, 2), (1, 2)]),  # theta(2,2,1)
        _with_unit_masses(  # double box, N = 7, n = 2
            list(range(1, 7)), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (2, 5)]
        ),
        complete4(momenta={1: [1, 0, 0, 0], 2: [-1, 0, 0, 0]}),  # K4, N = 2n
    ]
    rnd = random.Random(58)
    for _ in range(30):
        skeleton = random_connected_graph(rnd)
        graphs.append(
            Graph.build(
                skeleton.vertices,
                [(e.id, e.source, e.target, e.mass) for e in skeleton.edges],
                random_momenta(rnd, skeleton.vertices),
            )
        )
    assert {g.n_edges - 2 * loop_number(g) for g in graphs} >= {0, 1, 2, 3, 4}
    for g in graphs:
        result = pfaffian_symanzik_ratio(g)
        assert result.exact and result.residual == 0.0
        assert result.lambda2_exact == 1


def test_ratio_reports_pf_equals_s2_at_points():
    rnd = random.Random(57)
    g = with_random_kinematics(bowtie, rnd)
    result = pfaffian_symanzik_ratio(g)
    forms = propagator_forms(g)
    rng = np.random.default_rng(5)
    for _ in range(20):
        point = rng.uniform(0.05, 1.0, size=6)
        point /= point.sum()
        exact_pt = [Fraction(p).limit_denominator(10**6) for p in point]
        # independent numeric oracle: Parlett-Reid on sum_e a_e Q_e
        summed = sum(float(a) * f.to_numpy() for a, f in zip(exact_pt, forms))
        pf_val = complex(result.pfaffian.evaluate(exact_pt))
        s2_val = complex(result.symanzik.s2.evaluate(exact_pt))
        assert pf_val == pytest.approx(s2_val, rel=1e-12)
        assert pfaffian_numeric(summed) == pytest.approx(pf_val, rel=1e-12)
        assert abs(pf_val) > 0


def test_ratio_reports_a_broken_identity(monkeypatch):
    # S2 + a1 a2 a3 is no multiple of Pf, so the non-exact branch reports
    # lambda^2 at the all-ones point and the worst relative residual
    def perturbed(g, basis=None, routing=None):
        sym = second_symanzik(g, basis, routing)
        return SymanzikPair(sym.s1, sym.s2 + MultiPoly(g.n_edges, {(1, 1, 1, 0, 0, 0): 1}))

    monkeypatch.setattr("twistamp.twistor.second_symanzik", perturbed)
    result = pfaffian_symanzik_ratio(bowtie())
    assert result.exact is False
    assert result.lambda2_exact == Fraction(2916, 3025)
    assert result.residual.hex() == "0x1.4e0cc85a3c844p-3"
