import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from twistamp import (
    AlternatingForm,
    GaussianRational,
    Graph,
    IntegrationConfig,
    InvariantViolation,
    PrecisionError,
    UnsupportedTopology,
    ValidationError,
    bowtie,
    box,
    complete4,
    cycle_basis,
    direct_amplitude,
    extract_constants,
    feynman_trick_check,
    first_symanzik_det,
    first_symanzik_trees,
    log_divergent_integrand,
    parametric_amplitude,
    pfaffian_amplitude,
    pfaffian_symbolic,
    propagator_forms,
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


def _combined_gap(a, b, err_a, err_b):
    return abs(a - b) / math.hypot(err_a, err_b) if (err_a or err_b) else abs(a - b)


def test_config_validation():
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=999)
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=10_000, seed=-1)


def test_config_rejects_bool_counts():
    # bool is an int subclass: seed=True would run as seed 1
    for field in ("n_samples", "seed"):
        with pytest.raises(ValidationError):
            IntegrationConfig(**{"n_samples": 10_000, field: True})


def test_direct_box_matches_radial_quadrature():
    m = 1.3
    g = box(masses=(Fraction(13, 10),) * 4)
    cfg = IntegrationConfig(n_samples=200_000, seed=3)
    result = direct_amplitude(g, cfg)
    # independent oracle: 2 pi^2 int r^3 / (r^2 + m^2)^4 dr
    radial, _ = quad(lambda r: 2 * math.pi**2 * r**3 / (r**2 + m**2) ** 4, 0, np.inf)
    assert abs(result.estimate - radial) <= 3 * result.std_error
    assert radial == pytest.approx(math.pi**2 / (6 * m**4), rel=1e-9)


def test_direct_scaling_in_mass():
    lam = Fraction(2)
    g = box(masses=(1,) * 4)
    g_scaled = box(masses=(lam,) * 4)
    a = direct_amplitude(g, IntegrationConfig(n_samples=100_000, seed=5))
    b = direct_amplitude(g_scaled, IntegrationConfig(n_samples=100_000, seed=6))
    z = _combined_gap(a.estimate, b.estimate * float(lam) ** 4, a.std_error, b.std_error * float(lam) ** 4)
    assert z < 3


def test_direct_rejects_wrong_topology_and_qmc():
    with pytest.raises(UnsupportedTopology):
        direct_amplitude(triangle(), IntegrationConfig(n_samples=1000, seed=0))
    with pytest.raises(ValidationError):
        direct_amplitude(box(), IntegrationConfig(n_samples=1000, seed=0, qmc=True))


def test_tree_channels_conserve_momentum_and_fix_the_chords():
    from twistamp.integrate import _tree_channels

    rnd = random.Random(5)
    for g in (with_random_kinematics(bowtie, rnd), multi_loop_graph("loop4", rnd)):
        maps, offsets = _tree_channels(g)
        trees = list(spanning_trees(g))
        assert len(maps) == len(trees)
        incidence = np.array(
            [[(e.source == v) - (e.target == v) for e in g.edges] for v in g.vertices]
        )
        momenta = np.array([g.momentum(v).floats() for v in g.vertices])
        for tree, a_t, b_t in zip(trees, maps, offsets):
            chords = [e for e in range(g.n_edges) if e not in tree]
            # q = A y + b carries the chord momenta y and conserves momentum
            assert np.array_equal(a_t[chords], np.eye(len(chords)))
            assert not b_t[chords].any()
            assert not (incidence @ a_t).any()
            np.testing.assert_allclose(incidence @ b_t, momenta, atol=1e-12)


def test_first_symanzik_at_rescaled_h_is_the_sum_over_tree_channels():
    # the direct proposal's density U(h) / T_count: U from the polynomial
    # evaluator after dividing by the largest h, against log-sum-exp over the
    # chord products of the explicit spanning trees
    from scipy.special import logsumexp

    from twistamp.integrate import _poly_evaluator

    g = multi_loop_graph("loop4", random.Random(3))
    basis = cycle_basis(g)
    u_at = _poly_evaluator(first_symanzik_det(g, basis))
    rng = np.random.default_rng(17)
    log_h = rng.uniform(-30.0, 30.0, size=(500, g.n_edges)) * math.log(10.0)
    top = log_h.max(axis=1)
    got = np.log(u_at(np.exp(log_h - top[:, None]))) + basis.n * top
    channels = [
        log_h[:, [e for e in range(g.n_edges) if e not in tree]].sum(axis=1)
        for tree in spanning_trees(g)
    ]
    assert len(channels) == 117
    np.testing.assert_allclose(got, logsumexp(channels, axis=0), rtol=0, atol=1e-10)


def _subdivided_k4_with_a_path():
    """K4 on 1..4 with the edge 1-2 subdivided by 5 (7 edges, 3 loops) plus
    the path 3-6-7-4: n = 4, N = 10 and convergent, unit masses."""
    q = [Fraction(1, 2), 0, Fraction(1, 3), 0]
    edges = [(1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 1, 4), (5, 2, 3), (6, 2, 4), (7, 3, 4)]
    edges += [(8, 3, 6), (9, 6, 7), (10, 7, 4)]
    return Graph.build(
        range(1, 8), [(i, u, v, 1) for i, u, v in edges], {1: q, 2: [-c for c in q]}
    )


def test_tail_dof_follows_the_power_counting():
    from conftest import MULTI_LOOP_TOPOLOGIES

    from twistamp.integrate import _require_convergent, _tail_dof

    def tail_dof(g):
        n, _, orders = _require_convergent(g)
        return _tail_dof(n, orders)

    rnd = random.Random(6)
    graphs = [box(), bowtie()] + [multi_loop_graph(name, rnd) for name in MULTI_LOOP_TOPOLOGIES]
    assert [tail_dof(g) for g in graphs] == [1.0] * 5
    # the subdivided K4 allows only nu < (4*7 - 8*3) / 3, of which half is 2/3
    assert tail_dof(_subdivided_k4_with_a_path()) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_parametric_box_equal_mass_closed_form():
    m = Fraction(1, 2)
    g = box(masses=(m,) * 4)
    result = parametric_amplitude(g, IntegrationConfig(n_samples=10_000, seed=1))
    expect = 1.0 / (6 * float(m) ** 4)
    assert abs(result.estimate - expect) <= max(3 * result.std_error, 1e-12 * expect)


def test_parametric_mass_homogeneity():
    lam = 3.0
    rnd = random.Random(2)
    g = with_random_kinematics(box, rnd)
    scaled = box(
        masses=tuple(e.mass * 3 for e in g.edges),
        momenta={v: q.scaled(3) for v, q in g.external_momenta.items()},
    )
    a = parametric_amplitude(g, IntegrationConfig(n_samples=50_000, seed=7))
    b = parametric_amplitude(scaled, IntegrationConfig(n_samples=50_000, seed=8))
    z = _combined_gap(a.estimate, b.estimate * lam**4, a.std_error, b.std_error * lam**4)
    assert z < 3


def test_parametric_aborts_on_negative_s2(monkeypatch):
    # S2 = F0 + (sum m^2 a) U changes sign with both of its parts
    g = with_random_kinematics(box, random.Random(4))
    for build in (two_forest_polynomial, first_symanzik_trees):
        flipped = -build(g)
        monkeypatch.setattr(f"twistamp.integrate.{build.__name__}", lambda graph, p=flipped: p)
    with pytest.raises(InvariantViolation, match="S2 <= 0"):
        parametric_amplitude(g, IntegrationConfig(n_samples=1000, seed=0))


@pytest.mark.parametrize("graph", [box, bowtie])
def test_a_nan_weight_is_refused(monkeypatch, graph):
    # box keeps the uniform proposal, bowtie mixes in the tropical one
    from twistamp.integrate import _poly_evaluator

    def with_a_nan_lane(poly):
        evaluate = _poly_evaluator(poly)

        def values(points):
            out = evaluate(points)
            out[5] = math.nan
            return out

        return values

    monkeypatch.setattr("twistamp.integrate._poly_evaluator", with_a_nan_lane)
    g = with_random_kinematics(graph, random.Random(4))
    cfg = IntegrationConfig(n_samples=1000, seed=0)
    for run in (parametric_amplitude, direct_amplitude):
        method = run.__name__.removesuffix("_amplitude")
        where = rf"non-finite {method}-method sample in batch 0 \(sample 5\)"
        with pytest.raises(InvariantViolation, match=where):
            run(g, cfg)


@pytest.mark.parametrize("graph", [box, bowtie])
def test_an_infinite_s2_is_refused(monkeypatch, graph):
    # an overflowing S2 would give a weight of exactly 0, which is finite
    from twistamp.integrate import _poly_evaluator

    def with_an_infinite_lane(poly):
        evaluate = _poly_evaluator(poly)

        def values(points):
            out = evaluate(points)
            out[5] = math.inf
            return out

        return values

    monkeypatch.setattr("twistamp.integrate._poly_evaluator", with_an_infinite_lane)
    g = with_random_kinematics(graph, random.Random(4))
    with pytest.raises(InvariantViolation, match="S2 overflowed"):
        parametric_amplitude(g, IntegrationConfig(n_samples=1000, seed=0))


def test_pfaffian_matches_parametric():
    rnd = random.Random(41)
    g = with_random_kinematics(bowtie, rnd)
    cfg_a = IntegrationConfig(n_samples=200_000, seed=11)
    cfg_b = IntegrationConfig(n_samples=200_000, seed=12)
    par = parametric_amplitude(g, cfg_a)
    pf = pfaffian_amplitude(g, cfg_b)
    # lambda^2 = 1, so the two integrands are identical
    assert _combined_gap(par.estimate, pf.estimate, par.std_error, pf.std_error) < 3


def test_batched_pfaffian_matches_scalar():
    from twistamp import pfaffian_numeric
    from twistamp.algebra import _parlett_reid_batch
    from conftest import random_antisymmetric

    rng = np.random.default_rng(17)
    for dim in (2, 4, 6, 8):
        mats = np.stack([random_antisymmetric(rng, dim) for _ in range(50)])
        batch = _parlett_reid_batch(mats)
        for mat, value in zip(mats, batch):
            assert value == pytest.approx(pfaffian_numeric(mat), rel=1e-10)


def test_pfaffian_integrand_matches_symbolic_pipeline():
    rnd = random.Random(42)
    g = with_random_kinematics(box, rnd)
    sym = second_symanzik(g)
    forms = propagator_forms(g)
    stack = np.stack([f.to_numpy() for f in forms])
    from twistamp.algebra import _parlett_reid_batch

    rng = np.random.default_rng(0)
    points = rng.dirichlet(np.ones(4), size=100)
    pf_vals = _parlett_reid_batch(np.einsum("be,eij->bij", points, stack))
    for a, pf in zip(points, pf_vals):
        s2 = complex(sym.s2.evaluate(a))
        assert abs(pf) ** 2 == pytest.approx(abs(s2) ** 2, rel=1e-10)


def test_pfaffian_kernel_against_exact_and_determinant_oracles():
    from twistamp.algebra import _parlett_reid_batch

    # exact oracle: the matching expansion of Pf(sum_e a_e Q_e), signs included
    rnd = random.Random(71)
    graphs = (
        with_random_kinematics(box, rnd),
        with_random_kinematics(bowtie, rnd),
        multi_loop_graph("loop3", rnd),
    )
    for g in graphs:
        forms = [f.form for f in propagator_forms(g)]
        pf_exact = pfaffian_symbolic(forms)
        stack = np.stack([f.to_numpy() for f in forms])
        points = []
        for _ in range(3):
            weights = [random_positive_fraction(rnd) for _ in forms]
            points.append([w / sum(weights) for w in weights])
        mats = np.einsum("be,eij->bij", np.array(points, dtype=float), stack)
        for point, value in zip(points, _parlett_reid_batch(mats)):
            exact = complex(pf_exact.evaluate(point))
            assert abs(value - exact) <= 1e-12 * abs(exact)

    # |Pf|^2 = |det| on random batches
    rng = np.random.default_rng(72)
    for dim, size in ((4, 8195), (6, 3643), (8, 2051), (10, 1313)):
        m = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
        mats = m - np.swapaxes(m, 1, 2)
        mats[1::5, 0, 1] = mats[1::5, 1, 0] = 0.0  # forces a pivot swap at step 0
        singular = size // 2 + 1
        mats[singular, 3, :] = mats[singular, :, 3] = 0.0  # dies mid-elimination
        before = mats.copy()
        pf = _parlett_reid_batch(mats)
        assert np.array_equal(mats, before)
        assert pf[singular] == 0
        others = np.arange(size) != singular
        np.testing.assert_allclose(
            np.abs(pf[others]) ** 2, np.abs(np.linalg.det(mats[others])), rtol=1e-10
        )
        if dim == 4:
            a = mats
            formula = a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3] + a[:, 0, 3] * a[:, 1, 2]
            np.testing.assert_allclose(pf, formula, rtol=1e-12, atol=0)
        # the dead lane leaves its neighbours bit-for-bit alone
        mats[singular] = before[singular - 1]
        assert np.array_equal(_parlett_reid_batch(mats)[others], pf[others])

    # a batch of one must not write through to the caller's matrix
    single = before[:1].copy()
    _parlett_reid_batch(single)
    assert np.array_equal(single, before[:1])


def _block_pfaffians(rows, n):
    """The block kernel on a copy of the assembled rows (K, B), as
    pfaffian_amplitude passes them."""
    from twistamp.integrate import _pfaffian_batch

    rows = rows.copy()
    lmat = np.moveaxis(rows[: n * n].reshape(n, n, -1), -1, 0)
    return _pfaffian_batch(lmat, rows[n * n :].T)


def test_block_pfaffian_matches_parlett_reid():
    from twistamp.algebra import _parlett_reid_batch
    from twistamp.integrate import _SIMPLEX_LANES, _block_table

    rnd = random.Random(74)
    rng = np.random.default_rng(74)
    graphs = [box(), bowtie()]
    graphs += [with_random_kinematics(f, rnd) for f in (box, bowtie)]
    graphs += [multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")]
    for g in graphs:
        n = g.n_edges // 2 - 1
        size = 2 * _SIMPLEX_LANES + 3  # the last chunk is partial
        points = np.concatenate(
            [
                rng.dirichlet(np.ones(g.n_edges), size=size - size // 3),
                rng.dirichlet(np.full(g.n_edges, 0.5), size=size // 3),
            ]
        )
        forms = propagator_forms(g)
        stack = np.stack([f.to_numpy() for f in forms])
        general = _parlett_reid_batch(np.einsum("be,eij->bij", points, stack))
        rows = _block_table([f.form for f in forms], n).T @ points.T
        block = _block_pfaffians(rows, n)
        assert block.shape == (size,)
        np.testing.assert_array_less(np.abs(block - general), 1e-13 * np.abs(general))
        # each lane's value does not depend on where the chunks start
        assert np.array_equal(_block_pfaffians(rows[:, 5:], n), block[5:])
        assert np.array_equal(_block_pfaffians(rows[:, -1:], n), block[-1:])


@pytest.mark.parametrize(
    "key, value",
    [((2, 4), 1), ((3, 5), 1), ((2, 5), Fraction(7, 3)), ((2, 3), GaussianRational(1, 1))],
    ids=["even-even", "odd-odd", "asymmetric-L", "complex-L"],
)
def test_block_table_refuses_forms_outside_the_block_shape(monkeypatch, key, value):
    import twistamp.integrate as integrate

    g = with_random_kinematics(bowtie, random.Random(75))
    forms = propagator_forms(g)
    upper = dict(forms[0].form._upper)
    upper[key] = GaussianRational.coerce(value)
    broken = AlternatingForm._raw(forms[0].form.dim, upper)
    forms[0] = dataclasses.replace(forms[0], form=broken)
    monkeypatch.setattr(integrate, "propagator_forms", lambda graph: forms)
    with pytest.raises(InvariantViolation, match="form 0: loop block"):
        pfaffian_amplitude(g, IntegrationConfig(n_samples=1000, seed=0))


def test_pfaffian_estimate_equals_mean_of_inverse_s2_squared_on_same_draws(monkeypatch):
    from twistamp.integrate import (
        _poly_evaluator,
        _require_convergent,
        _simplex_batches,
        _tropical_sampler,
    )

    rnd = random.Random(73)
    g = with_random_kinematics(bowtie, rnd)
    # 10_000 is not a multiple of the kernel chunk
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 10_000)
    cfg = IntegrationConfig(n_samples=25_000, seed=5)
    result = pfaffian_amplitude(g, cfg)
    s2_at = _poly_evaluator(second_symanzik(g).s2)
    n, n_edges, orders = _require_convergent(g)
    draws = _simplex_batches(cfg, n_edges, "pfaffian", _tropical_sampler(n, orders))
    # each draw a carries weight 1 / (S2(a)^2 q(a)), q the mixture density
    weights = np.concatenate(
        [1.0 / np.square(s2_at(points)) / np.exp(log_q) for points, log_q in draws]
    )
    # lambda^2 = 1: |Pf|^2 = S2^2 point by point
    expect = math.fsum(weights) / weights.size
    assert result.estimate == pytest.approx(expect, rel=1e-12)


def _exact_values(poly, points):
    """MultiPoly.evaluate at float points read as exact rationals."""
    return [poly.evaluate([Fraction(x) for x in row]).re for row in points]


def _assert_within_ulps(values, exact, ulps):
    for value, expect in zip(values.tolist(), exact):
        assert abs(Fraction(value) - expect) <= ulps * 2.0**-52 * abs(expect)


def test_poly_evaluator_matches_exact_evaluation_within_8_ulp():
    from twistamp import MultiPoly
    from twistamp.integrate import _poly_evaluator

    rnd = random.Random(5)
    rng = np.random.default_rng(5)
    graphs = [with_random_kinematics(bowtie, rnd)] + [
        multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")
    ]
    for g in graphs:
        # interior points and points near the faces, where S2 is small
        points = np.concatenate(
            [
                rng.dirichlet(np.ones(g.n_edges), size=8),
                rng.dirichlet(np.full(g.n_edges, 0.2), size=8),
            ]
        )
        for poly in (
            second_symanzik(g).s2,
            two_forest_polynomial(g),
            first_symanzik_trees(g),
        ):
            values = _poly_evaluator(poly)(points)
            assert values.dtype == np.float64
            _assert_within_ulps(values, _exact_values(poly, points), 8)
            # column-major batches (as the tropical mixture yields) give the same bits
            assert np.array_equal(_poly_evaluator(poly)(np.asfortranarray(points)), values)
    with pytest.raises(InvariantViolation):
        _poly_evaluator(MultiPoly(2, {(1, 1): GaussianRational(1, 1)}))


def test_horner_edge_cases_against_exact_evaluation():
    from twistamp import MultiPoly
    from twistamp.integrate import _HORNER_CHUNK, _poly_evaluator

    rng = np.random.default_rng(8)
    cube = MultiPoly(3, {(3, 0, 0): 1})
    mixed = MultiPoly(
        3, {(3, 0, 0): Fraction(1, 3), (1, 1, 1): 2, (0, 0, 2): Fraction(5, 7), (0, 0, 0): 3}
    )
    cases = [
        (MultiPoly.constant(Fraction(7, 3), 3), rng.random((5, 3))),
        (MultiPoly.zero(3), rng.random((5, 3))),
        (cube, rng.random((6, 3))),
        (mixed, rng.random((1, 3))),  # a batch of one
        (mixed, rng.random((2 * _HORNER_CHUNK + 5, 3))),  # ends mid-chunk
    ]
    for poly, points in cases:
        values = _poly_evaluator(poly)(points)
        assert values.shape == (len(points),)
        # the exact oracle on a sample of the lanes, the last chunk included
        lanes = np.unique(np.r_[np.arange(0, len(points), 997), len(points) - 1])
        _assert_within_ulps(values[lanes], _exact_values(poly, points[lanes]), 8)
        # a second evaluator from the same polynomial returns the same bits
        assert np.array_equal(_poly_evaluator(poly)(points), values)
    # each lane's value is independent of where the chunk boundaries fall
    points = cases[-1][1]
    full = _poly_evaluator(mixed)(points)
    assert np.array_equal(_poly_evaluator(mixed)(points[3:]), full[3:])


def test_two_forests_plus_mass_times_trees_is_the_expanded_s2():
    from twistamp import MultiPoly

    rnd = random.Random(13)
    graphs = [with_random_kinematics(f, rnd) for f in (box, bowtie)]
    graphs += [multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")]
    graphs.append(_subdivided_k4_with_a_path())
    for g in graphs:
        mass = MultiPoly.linear([e.mass * e.mass for e in g.edges])
        factored = two_forest_polynomial(g) + mass * first_symanzik_trees(g)
        assert factored == second_symanzik(g).s2


def _exponents(poly):
    """The exponent vectors of poly's terms, as the rows of an int array."""
    return np.array([exps for exps, _ in poly.terms()])


def _subset_minima(poly, n_edges):
    """min over the monomials a^k of poly of sum_{e in S} k_e, per bitmask S."""
    exps = _exponents(poly)
    member = (np.arange(1 << n_edges)[:, None] >> np.arange(n_edges)) & 1
    return (member @ exps.T).min(axis=1)


def test_vanishing_orders_are_the_s2_monomial_minima():
    from twistamp.integrate import _vanishing_orders

    rnd = random.Random(11)
    graphs = [with_random_kinematics(f, rnd) for f in (triangle, box, bowtie, complete4)]
    graphs += [multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")]
    even = 0
    while even < 12:
        skeleton = random_connected_graph(rnd)
        if skeleton.n_edges != 2 * (skeleton.n_edges - skeleton.n_vertices + 1) + 2:
            continue
        even += 1
        graphs.append(
            Graph.build(
                skeleton.vertices,
                [(e.id, e.source, e.target, e.mass) for e in skeleton.edges],
                random_momenta(rnd, skeleton.vertices),
            )
        )
    for g in graphs:
        expect = _subset_minima(second_symanzik(g).s2, g.n_edges)
        assert np.array_equal(_vanishing_orders(g), expect)


def test_tropical_normalisation_is_the_hepp_sum_over_orderings():
    import itertools

    from twistamp.integrate import _TropicalSampler, _require_convergent

    for g in (box(), bowtie()):
        n, n_edges, orders = _require_convergent(g)
        full = (1 << n_edges) - 1
        total = Fraction(0)
        for ordering in itertools.permutations(range(n_edges)):
            subset, term = full, Fraction(1)
            for e in ordering[:-1]:
                subset ^= 1 << e
                term /= subset.bit_count() - 2 * int(orders[subset])
            total += term
        assert _TropicalSampler(n, orders).i_tr == pytest.approx(float(total), rel=1e-12)


def _tropical_setup(g):
    from twistamp.integrate import _require_convergent, _tropical_sampler

    n, n_edges, orders = _require_convergent(g)
    return n_edges, _tropical_sampler(n, orders)


def test_tropical_log_f_is_the_dominant_s2_monomial():
    rnd = random.Random(17)
    rng = np.random.default_rng(17)
    graphs = [with_random_kinematics(bowtie, rnd)] + [
        multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")
    ]
    for g in graphs:
        n_edges, sampler = _tropical_setup(g)
        exps = _exponents(second_symanzik(g).s2)
        columns = np.empty((n_edges, 2000))
        log_f = sampler.draw(rng.random((2 * n_edges - 2, 2000)), columns)
        assert np.allclose(columns.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
        expect = (exps @ np.log(columns)).max(axis=0)
        assert np.allclose(log_f, expect, rtol=1e-12, atol=1e-12)
        uniform = np.ascontiguousarray(rng.dirichlet(np.ones(n_edges), size=2000).T)
        expect = (exps @ np.log(uniform)).max(axis=0)
        assert np.allclose(sampler.log_f(uniform), expect, rtol=1e-12, atol=1e-12)


def test_tropical_lanes_do_not_depend_on_where_the_chunks_start():
    from twistamp.integrate import _SIMPLEX_LANES

    rnd = random.Random(19)
    rng = np.random.default_rng(19)
    size = 2 * _SIMPLEX_LANES + 3  # the last chunk is partial
    graphs = [with_random_kinematics(bowtie, rnd)] + [
        multi_loop_graph(name, rnd) for name in ("theta", "loop4")
    ]
    for g in graphs:
        n_edges, sampler = _tropical_setup(g)
        u = rng.random((2 * n_edges - 2, size))
        drawn = np.empty((n_edges, size))
        log_f = sampler.draw(u, drawn)
        for start in (5, size - 1):
            part = np.empty((n_edges, size - start))
            assert np.array_equal(sampler.draw(u[:, start:], part), log_f[start:])
            assert np.array_equal(part, drawn[:, start:])
        uniform = np.ascontiguousarray(rng.dirichlet(np.ones(n_edges), size=size).T)
        log_f = sampler.log_f(uniform)
        for start in (5, size - 1):
            assert np.array_equal(sampler.log_f(uniform[:, start:]), log_f[start:])
        # equal halves keep the uniform share at 1/2 when both are sliced
        points, log_q = sampler.mix(uniform.T, u)
        part_points, part_log_q = sampler.mix(uniform.T[5:], u[:, 5:])
        for whole, part in ((points, part_points), (log_q, part_log_q)):
            assert np.array_equal(part[: size - 5], whole[5:size])
            assert np.array_equal(part[size - 5 :], whole[size + 5 :])


def _log_f_by_sorting(sampler, columns):
    """log F_tr by sorting each point's coordinates: sum_i m(S_i) (log a_(i)
    - log a_(i-1)) over a_(1) >= a_(2) >= ..., S_i the N - i + 1 smallest."""
    order = np.argsort(-columns, axis=0)
    log_a = np.log(np.maximum(np.take_along_axis(columns, order, axis=0), np.finfo(float).tiny))
    subset = np.full(columns.shape[1], sampler.full)
    above = sampler.orders[sampler.full]
    out = np.zeros(columns.shape[1])
    for i in range(sampler.n_edges):
        subset ^= 1 << order[i]
        below = sampler.orders[subset]
        out += (above - below) * log_a[i]
        above = below
    return out


def test_tropical_log_f_by_pairwise_ranks_matches_sorting_with_ties():
    rnd = random.Random(18)
    rng = np.random.default_rng(18)
    graphs = [with_random_kinematics(bowtie, rnd)] + [
        multi_loop_graph(name, rnd) for name in ("theta", "loop4")
    ]
    for g in graphs:
        n_edges, sampler = _tropical_setup(g)
        columns = np.ascontiguousarray(rng.dirichlet(np.ones(n_edges), size=3000).T)
        # ties: two, three and all coordinates equal, and equal zeros
        columns[1, :500] = columns[0, :500]
        columns[2:4, 500:1000] = columns[0, 500:1000]
        columns[:, 1000:1100] = 1.0 / n_edges
        columns[-2:, 1100:1200] = 0.0
        columns[:, 1200:1400] = np.round(columns[:, 1200:1400], 1)
        got = sampler.log_f(columns)
        np.testing.assert_allclose(got, _log_f_by_sorting(sampler, columns), rtol=1e-14, atol=1e-12)
        # and the dominant monomial itself, which no tie-breaking enters
        exps = _exponents(second_symanzik(g).s2)
        expect = (exps @ np.log(np.maximum(columns, np.finfo(float).tiny))).max(axis=0)
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=1e-12)


def test_accumulator_keeps_a_spread_far_below_the_mean():
    # weights 1e8 + N(0, 1e-3): the sum of squares loses the variance to
    # cancellation, a two-pass merge keeps it
    from twistamp.integrate import _Accumulator

    rng = np.random.default_rng(3)
    batches = [1e8 + 1e-3 * rng.standard_normal(size) for size in (65_536, 65_536, 1000, 7)]
    acc = _Accumulator()
    for batch in batches:
        acc.add(batch)
    mean, err = acc.finalize(2.0)
    values = np.concatenate(batches).tolist()
    n = len(values)
    exact_mean = math.fsum(values) / n
    exact_err = math.sqrt(math.fsum((x - exact_mean) ** 2 for x in values) / n) / math.sqrt(n)
    assert mean == pytest.approx(2.0 * exact_mean, rel=1e-15)
    assert err == pytest.approx(2.0 * exact_err, rel=1e-9)
    # one batch at a time or all at once: the same numbers to rounding
    whole = _Accumulator()
    whole.add(np.concatenate(batches))
    assert whole.finalize(2.0) == pytest.approx((mean, err), rel=1e-9)


def test_mixture_density_is_normalised():
    # under draws from the mixture q, the uniform density (N-1)! over q has
    # mean 1 (and is bounded by 1 / share); a wrong I_tr, F_tr or share in
    # either half of q moves the mean
    from twistamp.integrate import _simplex_batches

    rnd = random.Random(19)
    for g in (with_random_kinematics(bowtie, rnd), multi_loop_graph("loop3", rnd)):
        n_edges, sampler = _tropical_setup(g)
        for qmc in (False, True):
            cfg = IntegrationConfig(n_samples=200_000, seed=19, qmc=qmc)
            ratio = np.concatenate(
                [
                    np.exp(math.lgamma(n_edges) - log_q)
                    for _, log_q in _simplex_batches(cfg, n_edges, "parametric", sampler)
                ]
            )
            assert abs(ratio.mean() - 1.0) < 3 * ratio.std() / math.sqrt(ratio.size)


def test_mixture_weights_stay_below_the_tropical_bound(monkeypatch):
    from twistamp.integrate import _UNIFORM_SHARE, _poly_evaluator, _simplex_batches

    rnd = random.Random(23)
    graphs = [with_random_kinematics(bowtie, rnd)] + [
        multi_loop_graph(name, rnd) for name in ("theta", "loop3")
    ]
    # an odd batch size puts one more sample in the tropical part
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 20_001)
    for g in graphs:
        n_edges, sampler = _tropical_setup(g)
        s2 = second_symanzik(g).s2
        s2_at = _poly_evaluator(s2)
        c_min = min(float(c.re) for _, c in s2.terms())
        bound = sampler.i_tr / ((1.0 - _UNIFORM_SHARE) * c_min**2)
        for qmc in (False, True):
            cfg = IntegrationConfig(n_samples=60_000, seed=7, qmc=qmc)
            for points, log_q in _simplex_batches(cfg, n_edges, "parametric", sampler):
                weights = 1.0 / np.square(s2_at(points)) / np.exp(log_q)
                assert weights.max() <= bound * (1.0 + 1e-12)


def test_one_loop_graphs_keep_the_uniform_proposal(monkeypatch):
    from twistamp.integrate import _poly_evaluator, _simplex_batches

    g = with_random_kinematics(box, random.Random(29))
    n_edges, sampler = _tropical_setup(g)
    assert sampler is None
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 7_000)
    cfg = IntegrationConfig(n_samples=20_000, seed=3)
    s2_at = _poly_evaluator(second_symanzik(g).s2)
    weights = np.concatenate(
        [1.0 / np.square(s2_at(batch)) for batch in _simplex_batches(cfg, n_edges, "parametric")]
    )
    expect = math.fsum(weights) / weights.size / math.factorial(n_edges - 1)
    assert parametric_amplitude(g, cfg).estimate == pytest.approx(expect, rel=1e-12)


def _k4_with_a_path():
    """K4 on 1..4 plus the path 1-5-6-7-2: n = 4, N = 10, and the K4 is a
    log-divergent subgraph (6 edges, 3 loops)."""
    k4 = [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 2, 4), (6, 3, 4)]
    path = [(7, 1, 5), (8, 5, 6), (9, 6, 7), (10, 7, 2)]
    return Graph.build(range(1, 8), [(i, u, v, 1) for i, u, v in k4 + path])


def test_divergent_subgraph_is_refused():
    g = _k4_with_a_path()
    assert g.n_edges == 10 and g.n_edges - g.n_vertices + 1 == 4
    cfg = IntegrationConfig(n_samples=1000, seed=0)
    for run in (direct_amplitude, parametric_amplitude, pfaffian_amplitude):
        with pytest.raises(UnsupportedTopology, match="divergent subgraph"):
            run(g, cfg)


def test_reproducibility_bitwise():
    g = box(masses=(1,) * 4)
    cfg = IntegrationConfig(n_samples=20_000, seed=99)
    for run in (direct_amplitude, parametric_amplitude, pfaffian_amplitude):
        a = run(g, cfg)
        b = run(g, cfg)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error
    other = direct_amplitude(g, IntegrationConfig(n_samples=20_000, seed=100))
    assert other.estimate != direct_amplitude(g, cfg).estimate


def test_multi_batch_run_is_bit_reproducible(monkeypatch):
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 10_000)
    g = box(masses=(1,) * 4)
    cfg = IntegrationConfig(n_samples=40_000, seed=4)
    a = direct_amplitude(g, cfg)
    b = direct_amplitude(g, cfg)
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error


def test_std_error_scales_like_sqrt_n():
    rnd = random.Random(9)
    g = with_random_kinematics(box, rnd)
    small = parametric_amplitude(g, IntegrationConfig(n_samples=100_000, seed=21))
    large = parametric_amplitude(g, IntegrationConfig(n_samples=200_000, seed=22))
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(math.sqrt(2), rel=0.2)


def test_relabelling_edges_leaves_estimates_alone():
    q = [Fraction(1, 2), 0, Fraction(1, 3), 0]
    masses = (Fraction(1), Fraction(3, 4), Fraction(5, 4), Fraction(1, 2))
    g = box(masses=masses, momenta={1: q, 3: [-c for c in q]})
    # same topology, edge ids scrambled (10, 30, 20, 40 keep the cycle order)
    from twistamp import Graph

    relabeled = Graph.build(
        [1, 2, 3, 4],
        [
            (30, 1, 2, masses[0]),
            (10, 2, 3, masses[1]),
            (40, 3, 4, masses[2]),
            (20, 4, 1, masses[3]),
        ],
        {1: q, 3: [-c for c in q]},
    )
    a = parametric_amplitude(g, IntegrationConfig(n_samples=100_000, seed=31))
    b = parametric_amplitude(relabeled, IntegrationConfig(n_samples=100_000, seed=32))
    assert _combined_gap(a.estimate, b.estimate, a.std_error, b.std_error) < 3


def test_change_of_cycle_basis_leaves_estimates_alone():
    # the walked A_T is L^T (L[:, C]^T)^-1 for the loop matrix L of any cycle
    # basis, so the channels, and the estimates, depend on no basis
    from twistamp.integrate import _tree_channels

    rnd = random.Random(61)
    for g in (with_random_kinematics(bowtie, rnd), multi_loop_graph("loop4", rnd)):
        loops = np.array(cycle_basis(g).loops)
        flipped = -loops[::-1]
        mixed = loops.copy()
        mixed[0] += loops[-1]
        maps, _ = _tree_channels(g)
        for tree, a_t in zip(spanning_trees(g), maps):
            chords = [e for e in range(g.n_edges) if e not in tree]
            for basis in (loops, flipped, mixed):
                formula = basis.T @ np.linalg.inv(basis[:, chords].T)
                np.testing.assert_allclose(a_t, formula, rtol=0.0, atol=1e-12)


def test_qmc_parametric_agrees():
    rnd = random.Random(71)
    g = with_random_kinematics(box, rnd)
    plain = parametric_amplitude(g, IntegrationConfig(n_samples=100_000, seed=51))
    sobol = parametric_amplitude(g, IntegrationConfig(n_samples=100_000, seed=52, qmc=True))
    assert sobol.estimate == pytest.approx(plain.estimate, rel=5e-3)


def test_simplex_estimators_times_pi_to_the_2n_match_direct():
    # c(n) = pi^(2n) exactly (Schwinger parametrisation with N = 2n + 2);
    # checks the tropical mixture against the independent direct estimator
    from conftest import MULTI_LOOP_TOPOLOGIES

    q = [Fraction(1, 2), 0, Fraction(1, 3), 0]
    vertices, edges = MULTI_LOOP_TOPOLOGIES["theta"]
    graphs = [
        bowtie(momenta={1: q, 4: [-c for c in q]}),
        Graph.build(vertices, [(i, s, t, 1) for i, s, t in edges], {1: q, 2: [-c for c in q]}),
    ]
    for g in graphs:
        direct = direct_amplitude(g, IntegrationConfig(n_samples=200_000, seed=0))
        for run in (parametric_amplitude, pfaffian_amplitude):
            simplex = run(g, IntegrationConfig(n_samples=100_000, seed=0))
            c = math.pi**4
            z = _combined_gap(
                direct.estimate, c * simplex.estimate, direct.std_error, c * simplex.std_error
            )
            assert z < 3


@pytest.mark.parametrize("name", ["loop3", "loop4", "subdivided_k4"])
def test_extract_constants_gives_pi_to_the_2n_on_three_and_four_loops(name):
    # c(n) = C(n) = pi^(2n) for n = 3, 4; on loop4 the direct estimate used
    # to be too noisy for extract_constants at this sample count, and the
    # subdivided K4 runs the direct proposal with nu = 2/3
    from conftest import MULTI_LOOP_TOPOLOGIES

    if name == "subdivided_k4":
        g = _subdivided_k4_with_a_path()
    else:
        q = [Fraction(1, 2), 0, Fraction(1, 3), 0]
        vertices, edges = MULTI_LOOP_TOPOLOGIES[name]
        g = Graph.build(
            vertices, [(i, s, t, 1) for i, s, t in edges], {1: q, 2: [-c for c in q]}
        )
    c = math.pi ** (2 * (g.n_edges - g.n_vertices + 1))
    consts = extract_constants(g, IntegrationConfig(n_samples=131_072, seed=0))
    direct, parametric = consts.direct, consts.parametric
    z = _combined_gap(
        direct.estimate, c * parametric.estimate, direct.std_error, c * parametric.std_error
    )
    assert z < 3
    assert abs(consts.big_c_hat - c) < 3 * consts.big_c_hat_std_error


def test_direct_on_spread_masses_bowtie_agrees_with_pi_to_the_4_parametric():
    # masses over [1/3, 4]: the per-loop proposal read 0.83-0.87 of this
    g = with_random_kinematics(bowtie, random.Random(31))
    cfg = IntegrationConfig(n_samples=262_144, seed=0)
    direct = direct_amplitude(g, cfg)
    parametric = parametric_amplitude(g, cfg)
    c = math.pi**4
    z = _combined_gap(
        direct.estimate, c * parametric.estimate, direct.std_error, c * parametric.std_error
    )
    assert z < 3
    assert direct.std_error < 0.01 * direct.estimate


def test_qmc_tropical_mixture_agrees_with_mc():
    rnd = random.Random(72)
    g = with_random_kinematics(bowtie, rnd)
    for run in (parametric_amplitude, pfaffian_amplitude):
        plain = run(g, IntegrationConfig(n_samples=100_000, seed=53))
        sobol = run(g, IntegrationConfig(n_samples=100_000, seed=54, qmc=True))
        assert _combined_gap(plain.estimate, sobol.estimate, plain.std_error, sobol.std_error) < 3


def test_feynman_trick_constant_case():
    result = feynman_trick_check([1.0, 1.0, 1.0, 1.0], IntegrationConfig(n_samples=1000, seed=0))
    assert result.lhs == 1.0
    assert result.rhs == pytest.approx(1.0, rel=1e-12)


def test_feynman_trick_n4_random():
    rnd = random.Random(81)
    cfg = IntegrationConfig(n_samples=100_000, seed=2)
    for _ in range(5):
        values = [rnd.uniform(0.5, 3.0) for _ in range(4)]
        result = feynman_trick_check(values, cfg)
        assert abs(result.rhs - result.lhs) <= 3 * result.std_error


def test_feynman_trick_n2_quadrature():
    result = feynman_trick_check([2.0, 5.0])
    assert result.method == "quadrature"
    assert result.rel_gap <= 1e-10
    assert result.lhs == pytest.approx(1.0 / 10.0)


def test_feynman_trick_validation():
    with pytest.raises(ValidationError):
        feynman_trick_check([1.0])
    with pytest.raises(ValidationError):
        feynman_trick_check([1.0, -2.0, 3.0, 4.0])
    for values in ([1.0, math.inf], [1.0, math.nan, 2.0]):
        with pytest.raises(ValidationError):
            feynman_trick_check(values)
    # 1/prod A underflows to 0, the N = 2 integrand overflows, or the Monte
    # Carlo integrand underflows to 0
    for values in ([1e200, 1e200], [1e200] * 4, [1e160, 1e-160], [1e100, 1e100, 1e-100, 1e-100]):
        with pytest.raises(PrecisionError):
            feynman_trick_check(values)


def test_extract_constants_box_gives_pi_squared():
    g = box(masses=(1,) * 4)
    consts = extract_constants(g, IntegrationConfig(n_samples=300_000, seed=13))
    assert abs(consts.c_hat - math.pi**2) <= max(4 * consts.c_hat_std_error, 0.02 * math.pi**2)
    assert consts.big_c_hat == pytest.approx(consts.c_hat, rel=1e-9)  # lambda^2 = 1


def test_extract_constants_universality_across_kinematics():
    rnd = random.Random(91)
    g1 = with_random_kinematics(box, rnd)
    g2 = with_random_kinematics(box, rnd)
    c1 = extract_constants(g1, IntegrationConfig(n_samples=400_000, seed=14))
    c2 = extract_constants(g2, IntegrationConfig(n_samples=400_000, seed=15))
    z = _combined_gap(c1.c_hat, c2.c_hat, c1.c_hat_std_error, c2.c_hat_std_error)
    assert z < 3


def test_extract_constants_refuses_noisy_runs():
    rnd = random.Random(92)
    g = with_random_kinematics(bowtie, rnd)
    with pytest.raises(PrecisionError):
        extract_constants(g, IntegrationConfig(n_samples=1000, seed=0))


def test_log_divergent_integrand_builder():
    g = complete4()
    integrand = log_divergent_integrand(g)
    assert integrand.polynomial.homogeneous_degree() == 3
    point = np.full(6, 1.0 / 6.0)
    value = integrand(point)
    assert value > 0
    # S1 is degree 3, so the raw callable scales by lambda^-6
    assert integrand(2 * point) == pytest.approx(value / 64.0)
    with pytest.raises(UnsupportedTopology):
        log_divergent_integrand(box())
