import concurrent.futures
import dataclasses
import functools
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from twistamp import (
    AlternatingForm,
    FourVector,
    GaussianRational,
    Graph,
    IntegrationConfig,
    IntegrationResult,
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
    SET_UP_ONCE,
    box_simplex_integral,
    count_set_up_builds,
    multi_loop_graph,
    random_connected_graph,
    random_momenta,
    random_positive_fraction,
    simplex_batches,
    with_random_kinematics,
)


def _combined_gap(a, b, err_a, err_b):
    return abs(a - b) / math.hypot(err_a, err_b) if (err_a or err_b) else abs(a - b)


def test_config_validation():
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=999)
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=10_000, seed=-1)
    # randomized QMC is the only simplex sampler: there is no switch
    with pytest.raises(TypeError):
        IntegrationConfig(n_samples=10_000, qmc=True)


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


def test_direct_rejects_wrong_topology():
    with pytest.raises(UnsupportedTopology):
        direct_amplitude(triangle(), IntegrationConfig(n_samples=1000, seed=0))


def test_tree_channels_conserve_momentum_and_fix_the_chords():
    from twistamp.integrate import _tree_channels

    rnd = random.Random(5)
    for g in (with_random_kinematics(bowtie, rnd), multi_loop_graph("loop4", rnd)):
        maps, offsets, chord_edges = _tree_channels(g)
        trees = list(spanning_trees(g))
        assert len(maps) == len(trees)
        incidence = np.array(
            [[(e.source == v) - (e.target == v) for e in g.edges] for v in g.vertices]
        )
        momenta = np.array([g.momentum(v).floats() for v in g.vertices])
        for tree, a_t, b_t, chords in zip(trees, maps, offsets, chord_edges.tolist()):
            assert chords == [e for e in range(g.n_edges) if e not in tree]
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


def _loop4_with_paths(count):
    """loop4 plus the first `count` of the paths 7-8-3, 1-9-2, 4-10-5 and
    6-11-1, each adding one loop and two edges: N = 10 + 2 count, unit masses,
    q = +/-(1/2, 0, 1/3, 0) on vertices 1 and 2."""
    from conftest import MULTI_LOOP_TOPOLOGIES

    q = [Fraction(1, 2), 0, Fraction(1, 3), 0]
    vertices, edges = MULTI_LOOP_TOPOLOGIES["loop4"]
    vertices, edges = list(vertices), list(edges)
    for new, (u, v) in zip(range(8, 8 + count), [(7, 3), (1, 2), (4, 5), (6, 1)]):
        vertices.append(new)
        edges += [(len(edges) + 1, u, new), (len(edges) + 2, new, v)]
    return Graph.build(vertices, [(i, s, t, 1) for i, s, t in edges], {1: q, 2: [-c for c in q]})


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


def _with_a_bad_lane(value):
    """A stand-in for _poly_evaluator whose plans read `value` at lane 5."""
    from twistamp.integrate import _poly_evaluator

    def evaluator(poly):
        evaluate = _poly_evaluator(poly)

        @functools.wraps(evaluate)  # keeps evaluate.work_size
        def values(points, *buffers):
            out = evaluate(points, *buffers)
            out[5] = value
            return out

        return values

    return evaluator


@pytest.mark.parametrize("graph", [box, bowtie])
def test_a_nan_weight_is_refused(monkeypatch, graph):
    # box keeps the uniform proposal, bowtie mixes in the tropical one
    monkeypatch.setattr("twistamp.integrate._poly_evaluator", _with_a_bad_lane(math.nan))
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
    monkeypatch.setattr("twistamp.integrate._poly_evaluator", _with_a_bad_lane(math.inf))
    g = with_random_kinematics(graph, random.Random(4))
    with pytest.raises(InvariantViolation, match="S2 overflowed"):
        parametric_amplitude(g, IntegrationConfig(n_samples=1000, seed=0))


@pytest.mark.parametrize("graph", [box, bowtie])
def test_parametric_evaluates_s2_one_lane_chunk_at_a_time(monkeypatch, graph):
    # the Horner plans run on one lane chunk of a batch, never on all of it
    from twistamp.integrate import _SIMPLEX_LANES, _poly_evaluator

    widths = []

    def recording(poly):
        evaluate = _poly_evaluator(poly)

        @functools.wraps(evaluate)  # keeps evaluate.work_size
        def values(points, *buffers):
            widths.append(len(points))
            return evaluate(points, *buffers)

        return values

    monkeypatch.setattr("twistamp.integrate._poly_evaluator", recording)
    g = with_random_kinematics(graph, random.Random(4))
    parametric_amplitude(g, IntegrationConfig(n_samples=70_000, seed=0))
    assert sum(widths) == 2 * 70_000  # U and F0 once at every sample
    assert max(widths) <= _SIMPLEX_LANES


def test_pfaffian_matches_parametric():
    rnd = random.Random(41)
    g = with_random_kinematics(bowtie, rnd)
    cfg_a = IntegrationConfig(n_samples=200_000, seed=11)
    cfg_b = IntegrationConfig(n_samples=200_000, seed=12)
    par = parametric_amplitude(g, cfg_a)
    pf = pfaffian_amplitude(g, cfg_b)
    # lambda^2 = 1, so the two integrands are identical
    assert _combined_gap(par.estimate, pf.estimate, par.std_error, pf.std_error) < 3


def test_pfaffian_numeric_runs_the_kernel_on_the_antisymmetric_part():
    # pfaffian_numeric is the Parlett-Reid kernel, bit for bit, on an
    # antisymmetric matrix, on one within its tolerance of antisymmetry
    # (whose antisymmetric part it takes) and on an AlternatingForm
    from twistamp import AlternatingForm, pfaffian_numeric
    from twistamp.algebra import _parlett_reid
    from conftest import random_antisymmetric

    rng = np.random.default_rng(17)
    for dim in (2, 4, 6, 8):
        for _ in range(50):
            mat = random_antisymmetric(rng, dim)
            assert pfaffian_numeric(mat) == _parlett_reid(mat)
            near = mat + 1e-14 * np.abs(mat).max() * rng.standard_normal((dim, dim))
            assert pfaffian_numeric(near) == _parlett_reid((near - near.T) / 2.0)
    third = Fraction(1, 3)
    form = AlternatingForm([[0, 2, -1, 0], [-2, 0, 0, third], [1, 0, 0, 5], [0, -third, -5, 0]])
    assert pfaffian_numeric(form) == _parlett_reid(form.to_numpy())
    assert pfaffian_numeric(form) == pytest.approx(2 * 5 + 1 / 3, rel=1e-15)


def test_pfaffian_integrand_matches_symbolic_pipeline():
    rnd = random.Random(42)
    g = with_random_kinematics(box, rnd)
    sym = second_symanzik(g)
    forms = propagator_forms(g)
    stack = np.stack([f.to_numpy() for f in forms])
    from twistamp.algebra import _parlett_reid

    rng = np.random.default_rng(0)
    points = rng.dirichlet(np.ones(4), size=100)
    pf_vals = map(_parlett_reid, np.einsum("be,eij->bij", points, stack))
    for a, pf in zip(points, pf_vals):
        s2 = complex(sym.s2.evaluate(a))
        assert abs(pf) ** 2 == pytest.approx(abs(s2) ** 2, rel=1e-10)


def test_pfaffian_kernel_against_exact_and_determinant_oracles():
    from twistamp.algebra import _parlett_reid

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
        for point, value in zip(points, map(_parlett_reid, mats)):
            exact = complex(pf_exact.evaluate(point))
            assert abs(value - exact) <= 1e-12 * abs(exact)

    # |Pf|^2 = |det| on random matrices, none of them written
    rng = np.random.default_rng(72)
    for dim, size in ((4, 8195), (6, 3643), (8, 2051), (10, 1313)):
        m = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
        mats = m - np.swapaxes(m, 1, 2)
        mats[1::5, 0, 1] = mats[1::5, 1, 0] = 0.0  # forces a pivot swap at step 0
        singular = size // 2 + 1
        mats[singular, 3, :] = mats[singular, :, 3] = 0.0  # dies mid-elimination
        before = mats.copy()
        pf = np.array([_parlett_reid(mat) for mat in mats])
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


def _block_pfaffians(rows, n):
    """The block kernel on a copy of the assembled rows (K, B), as
    pfaffian_amplitude passes them."""
    from twistamp.integrate import _pfaffian_batch

    rows = rows.copy()
    lmat = np.moveaxis(rows[: n * n].reshape(n, n, -1), -1, 0)
    return _pfaffian_batch(lmat, rows[n * n :].T)


def test_block_pfaffian_matches_parlett_reid():
    from twistamp.algebra import _parlett_reid
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
        general = np.array([_parlett_reid(mat) for mat in np.einsum("be,eij->bij", points, stack)])
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
    from twistamp.integrate import _poly_evaluator, _require_convergent, _tropical_sampler

    rnd = random.Random(73)
    g = with_random_kinematics(bowtie, rnd)
    # 10_000 is not a multiple of the kernel chunk
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 10_000)
    cfg = IntegrationConfig(n_samples=25_000, seed=5)
    result = pfaffian_amplitude(g, cfg)
    s2_at = _poly_evaluator(second_symanzik(g).s2)
    n, n_edges, orders = _require_convergent(g)
    draws = simplex_batches(cfg, n_edges, "simplex", _tropical_sampler(orders))
    # each draw a carries weight 1 / (S2(a)^2 q(a)), q the mixture density;
    # lambda^2 = 1: |Pf|^2 = S2^2 point by point
    expect = _replicate_mean(
        (1.0 / np.square(s2_at(points)) / np.exp(log_q), runs)
        for (points, log_q), runs in draws
    )
    assert result.estimate == pytest.approx(expect, rel=1e-12)


def _replicate_mean(weighted):
    """The mean over replicates of each replicate's mean weight, from
    (weights, runs) per batch as _simplex_batches lays them out."""
    by_replicate = {}
    for weights, runs in weighted:
        for replicate, lanes in runs:
            by_replicate.setdefault(replicate, []).extend(weights[lanes].tolist())
    assert sorted(by_replicate) == list(range(len(by_replicate)))
    return math.fsum(math.fsum(w) / len(w) for w in by_replicate.values()) / len(by_replicate)


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
    from twistamp.integrate import _SIMPLEX_LANES, _poly_evaluator

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
        (mixed, rng.random((2 * _SIMPLEX_LANES + 5, 3))),  # wider than two lane chunks
    ]
    for poly, points in cases:
        values = _poly_evaluator(poly)(points)
        assert values.shape == (len(points),)
        # the exact oracle on a sample of the lanes, the last one included
        lanes = np.unique(np.r_[np.arange(0, len(points), 997), len(points) - 1])
        _assert_within_ulps(values[lanes], _exact_values(poly, points[lanes]), 8)
        # a second evaluator from the same polynomial returns the same bits
        assert np.array_equal(_poly_evaluator(poly)(points), values)
    # each lane's value is independent of the lanes evaluated with it
    points = cases[-1][1]
    full = _poly_evaluator(mixed)(points)
    assert np.array_equal(_poly_evaluator(mixed)(points[3:]), full[3:])


# (graph, polynomial) -> (instruction count, SHA-256) of its Horner plan. A
# plan fixes the order of every add and multiply, and so the bits of every
# evaluation; a compiler change that alters any plan shows here.
_HORNER_PLANS = {
    ("box", "U"): (3, "0e1f87d0ddec5f889bd50a732ab4127515ae9b448864f50dab01449733288c7b"),
    ("box", "F0"): (14, "e2b8d6ccd2e6974b10622660d870f9603e5baa21864083cea23873e1c3a7bdcb"),
    ("box", "S2"): (21, "0def514b672b8f4b3be5600d3ba44d814e5f7e13741dc8524e56e511db69185c"),
    ("bowtie", "U"): (11, "3c4dd71e22188ef90866a549c89a58ac71b362f3c47f1a0e1e638120084432e3"),
    ("bowtie", "F0"): (46, "de49e22cbc6d5157c57664b3f8f14e6db1eb877469ffa411bb619b9c69d42066"),
    ("bowtie", "S2"): (74, "606bcde60e56d5833bc49773e832e16b8e27a4a9dfcf3ee65d74759adc4685bc"),
    ("theta", "U"): (15, "56eca06ae19889a151bdc7b194903ea6ed50d80fb2b8812325457dbc93b17d8b"),
    ("theta", "F0"): (40, "fd150c762862e04273ae3f857f50a2ab9bbd7520222954549d20560bd4c67f39"),
    ("theta", "S2"): (91, "1559f10f101168589947e3dc4a656ec37f7e17d500461d721dc0082cf2647b68"),
    ("loop3", "U"): (50, "2937473c66a612d657c076512624674a62bb83126a5240afdde028b92aaf1157"),
    ("loop3", "F0"): (106, "d1a17cf88bdca2161380ef5065a8be41a551b6062413d21267ab11d270e0c383"),
    ("loop3", "S2"): (357, "0b03cc0e2572d7281893db6c4a423ea7c1bb7263ccd5a3e979aecb085600a625"),
    ("loop4", "U"): (165, "08ed4deaea894c9ccfd417a41ec31dc632eaaca8e6400c835fb7c33dfc10a160"),
    ("loop4", "F0"): (325, "e1cce75afa13eff4a8e9f3c7ef01d79cf7ab996699e336cc6ac645155422ce42"),
    ("loop4", "S2"): (1390, "dbbb623fefddf1668e48412e11958dffefb24cab8188116a299417cceeeb60a6"),
}


def test_horner_plans_are_pinned_on_the_benchmark_shapes():
    import hashlib

    from twistamp.integrate import _horner_program

    graphs = {
        "box": with_random_kinematics(box, random.Random(5)),
        "bowtie": with_random_kinematics(bowtie, random.Random(5)),
        **{name: multi_loop_graph(name, random.Random(5)) for name in ("theta", "loop3", "loop4")},
    }
    for name, g in graphs.items():
        polys = {
            "U": first_symanzik_trees(g),
            "F0": two_forest_polynomial(g),
            "S2": second_symanzik(g).s2,
        }
        for which, poly in polys.items():
            program, constants, depth, result = _horner_program(
                [(exps, float(c.re)) for exps, c in poly.terms()], poly.nvars
            )
            text = repr((
                [(f.__name__, a, b, out) for f, a, b, out in program],
                [c.hex() for c in constants], depth, result,
            ))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert (len(program), digest) == _HORNER_PLANS[name, which], (name, which)


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


def _subset_loop_numbers(g):
    """L(S) of every edge subset S by one union-find pass per subset: the
    edges of S that close a cycle when S is added in position order."""
    from twistamp.graphs import _union

    out = []
    for mask in range(1 << g.n_edges):
        parent = {v: v for v in g.vertices}
        out.append(
            sum(
                not _union(parent, e.source, e.target)
                for i, e in enumerate(g.edges)
                if mask >> i & 1
            )
        )
    return out


def test_vanishing_orders_are_the_subset_loop_numbers():
    from twistamp.integrate import _vanishing_orders

    rnd = random.Random(12)
    graphs = [random_connected_graph(rnd, max_edges=12) for _ in range(10)]
    graphs.append(_loop4_with_paths(2))
    assert max(g.n_edges for g in graphs) == 14
    assert sum(g.n_edges > 8 for g in graphs) >= 3
    for g in graphs:
        orders = _vanishing_orders(g)
        loops = _subset_loop_numbers(g)
        assert orders.tolist()[:-1] == loops[:-1]
        assert orders[-1] == loops[-1] + 1 == g.n_edges - g.n_vertices + 2


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
        assert _TropicalSampler(orders).i_tr == pytest.approx(float(total), rel=1e-12)


def _tropical_setup(g):
    from twistamp.integrate import _require_convergent, _tropical_sampler

    n, n_edges, orders = _require_convergent(g)
    return n_edges, _tropical_sampler(orders)


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
        # the mixture density is formed lane by lane
        log_q, part = log_f.copy(), log_f[5:].copy()
        sampler.mixture(log_q, 0.5)
        sampler.mixture(part, 0.5)
        assert np.array_equal(part, log_q[5:])


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
    # weights 1e8 + N(0, 1e-3), merged batch by batch: the running mean
    # stays within rounding of the exact one. Only the replicate means
    # enter an error bar, so the accumulator keeps no spread.
    from twistamp.integrate import _Accumulator

    rng = np.random.default_rng(3)
    batches = [1e8 + 1e-3 * rng.standard_normal(size) for size in (65_536, 65_536, 1000, 7)]
    acc = _Accumulator()
    for batch in batches:
        acc.add(batch)
    values = np.concatenate(batches).tolist()
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(math.fsum(values) / len(values), rel=1e-15)


def test_sobol_points_are_scipys_and_the_direction_numbers_its_table(monkeypatch):
    # the embedded Joe-Kuo rows are scipy's, and with all-zero scramble words
    # a plan's points 0 .. 2^k - 1 are scipy's unscrambled ones in every
    # dimension N or 2N - 2 up to 4 loops, each read from another replicate
    from pathlib import Path

    import scipy.stats._qmc
    from scipy.stats import qmc

    from twistamp import rqmc

    table = np.load(Path(scipy.stats._qmc.__file__).with_name("_sobol_direction_numbers.npz"))
    for j, (poly, initial) in enumerate(rqmc._JOE_KUO):
        row = np.zeros(table["vinit"].shape[1], dtype=np.int64)
        row[: len(initial)] = initial
        assert poly == table["poly"][j] and np.array_equal(row, table["vinit"][j]), j
    monkeypatch.setattr(
        rqmc, "_scrambles", lambda seed, stream, dim: np.zeros((16, 54 * dim), dtype=np.uint64)
    )
    k = 10
    for dim in range(2, 19):
        plan = rqmc.Plan(16 << k, 0, "simplex", dim)
        points = np.empty((dim, 1 << k))
        plan.draw([(dim % 16, 0, 1 << k)], 0, 1 << k, points)
        expect = qmc.Sobol(dim, scramble=False).random_base2(k)
        assert set(map(tuple, points.T.tolist())) == set(map(tuple, expect.tolist())), dim


def test_scramble_words_are_default_rngs_draws():
    # _scrambles draws what numpy's default_rng([seed, code, r]) draws, bit
    # for bit, without numpy.random: seeds of one to four 32-bit words, so
    # entropies of three to six (SeedSequence mixes the words past the
    # fourth in apart), every stream and up to the 64 coordinates of the
    # direction numbers
    from twistamp.rqmc import _METHOD_CODE, _REPLICATES, _scrambles

    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**100 + 3):
        for stream, code in _METHOD_CODE.items():
            for dim in (1, 2, 17, 18, 64):
                words = _scrambles(seed, stream, dim)
                assert words.shape == (_REPLICATES, 54 * dim) and words.dtype == np.uint64
                for r in (0, 7, 15):
                    rng = np.random.default_rng([seed, code, r])
                    rows = rng.integers(0, 1 << 53, size=(dim, 53), dtype=np.uint64)
                    shift = rng.integers(0, 1 << 53, size=dim, dtype=np.uint64)
                    expect = np.concatenate([rows.ravel(), shift])
                    assert np.array_equal(words[r], expect), (seed, stream, dim, r)
    # the words are the package's, whatever numpy is installed: the first
    # two and the last word of a few replicates
    pinned = [
        ((0, "simplex", 1, 0), (0x2961C4B9F57C3, 0xCE0C538692E59, 0xEDA4FC0569C40)),
        ((2**64 + 1, "direct", 18, 7), (0x10BA3492D3A258, 0x150D884A71138F, 0x1440CE4E54D8A5)),
        ((2**100 + 3, "feynman", 64, 15), (0x1464B062E2443D, 0x10E42771FCFD61, 0xC642116FED033)),
    ]
    for (seed, stream, dim, r), expect in pinned:
        words = _scrambles(seed, stream, dim)[r]
        assert (int(words[0]), int(words[1]), int(words[-1])) == expect, (seed, stream, dim, r)


def test_scrambled_sobol_points_are_nets_wherever_the_draws_are_cut():
    from twistamp.rqmc import Plan

    k, count = 10, 3_000
    for dim in (4, 18):
        plan = Plan(16 * count, dim, "simplex", dim)

        def draw(r, lo, out):
            plan.draw([(r, lo, lo + out.shape[1])], 0, out.shape[1], out)

        whole = np.empty((dim, count))
        draw(0, 0, whole)
        # the scramble keeps the net: each coordinate of the first 2^k points
        # falls once in each interval [i, i + 1) / 2^k
        for row in whole[:, : 1 << k]:
            assert np.array_equal(np.sort(np.floor(row * 2**k)), np.arange(2**k))
        cuts = (0, 1, 127, 128, 129, 1_000, count - 1, count)
        pieces = np.empty((dim, count))
        for lo, hi in zip(cuts, cuts[1:]):
            draw(0, lo, pieces[:, lo:hi])
        assert np.array_equal(pieces, whole)
        # the first coordinates alone, as the uniform part draws them
        first = np.empty((3, 300))
        draw(0, 1_000, first)
        assert np.array_equal(first, whole[:3, 1_000:1_300])
        other = np.empty((dim, count))
        draw(1, 0, other)
        assert not np.isin(other, whole).any()


def test_a_plan_draws_any_cut_of_parts_across_replicates():
    # lanes lo..hi of parts of several replicates, laid end to end, equal the
    # parts drawn whole, and those the slices of their replicates drawn
    # whole: cuts at part boundaries and inside parts, one-lane runs, and an
    # out of fewer rows than the plan's dimension
    from twistamp.rqmc import Plan

    dim = 10
    plan = Plan(16 * 3_000 + 5, 3, "simplex", dim)  # replicates 0..4 hold 3 001
    assert plan.sizes == [3_001] * 5 + [3_000] * 11
    replicates = {}
    for r in (0, 3, 7, 15):
        replicates[r] = np.empty((dim, plan.sizes[r]))
        plan.draw([(r, 0, plan.sizes[r])], 0, plan.sizes[r], replicates[r])
    parts = [(0, 0, 300), (3, 128, 1_000), (7, 2_999, 3_000), (15, 500, 2_500), (3, 0, 1)]
    expect = np.concatenate([replicates[r][:, a:b] for r, a, b in parts], axis=1)
    whole = []
    for part in parts:
        out = np.empty((dim, part[2] - part[1]))
        plan.draw([part], 0, out.shape[1], out)
        whole.append(out)
    assert np.array_equal(np.concatenate(whole, axis=1), expect)
    total = expect.shape[1]
    starts = list(itertools.accumulate((b - a for _, a, b in parts), initial=0))
    inside = [7, 129, 300 + 500, total - 1]
    one_lane = [1_300, 1_301, 2_000, 2_001]
    fine = sorted(set(starts + inside + one_lane))
    across = [0, 150, 1_301, total]  # runs over several parts
    for cuts in (fine, across, [0, total]):
        for rows in (dim, 3):
            out = np.full((rows, total), np.nan)
            for lo, hi in zip(cuts, cuts[1:]):
                plan.draw(parts, lo, hi, out[:, lo:hi])
            assert np.array_equal(out, expect[:rows]), (cuts, rows)


def test_radii_invert_the_student_t_radius_cdf():
    # the radius CDF 1 - w^a (1 + a (1 - w)), w = 1 / (1 + |y|^2 / nu), a =
    # nu / 2, gives back every uniform, both ends included: the closed form
    # at nu = 1 and Newton's method at 2/3 (the subdivided K4)
    from twistamp.integrate import _radii

    ends = [2.0**-53, 2.0**-40, 1e-12, 1.0 - 2.0**-20, 1.0 - 2.0**-40, 1.0 - 2.0**-53]
    u = np.concatenate([np.arange(1 << 16) * 2.0**-16, np.round(np.array(ends) * 2**53) * 2.0**-53])
    for nu in (1.0, 2.0 / 3.0):
        r = u.copy()
        _radii(r, nu, np.empty((2, len(u))))
        assert np.all(np.isfinite(r) & (r >= 0.0))
        w = 1.0 / (1.0 + r * r / nu)
        a = nu / 2.0
        np.testing.assert_allclose(1.0 - w**a * (1.0 + a * (1.0 - w)), u, rtol=0.0, atol=1e-12)


def test_chord_draws_are_radii_times_unit_directions():
    # |y| is the radius of _radii, and over Sobol points the direction has
    # the moments of the uniform S^3: mean 0, second moments I / 4, and
    # fourth powers averaging 3 / (4 * 6) = 1/8
    from twistamp.integrate import _radii, _student_t
    from twistamp.rqmc import Plan

    n, w = 3, 1 << 12
    u = np.empty((n, 4, w))
    Plan(16 * w, 5, "direct", 4 * n).draw([(0, 0, w)], 0, w, u.reshape(4 * n, w))
    for nu in (1.0, 2.0 / 3.0):
        y = u.copy()
        radius = y[:, 0].copy()
        _radii(radius, nu, np.empty((2, n, w)))
        _student_t(y, nu, np.empty((2, n, w)))
        norm = np.sqrt(np.square(y).sum(axis=1))
        np.testing.assert_allclose(norm, radius, rtol=1e-14)
        direction = y / norm[:, None, :]
        np.testing.assert_allclose(direction.mean(axis=2), 0.0, atol=2e-4)
        second = np.einsum("kiw,kjw->kij", direction, direction) / w
        np.testing.assert_allclose(second, np.broadcast_to(np.eye(4) / 4, second.shape), atol=2e-3)
        np.testing.assert_allclose((direction**4).mean(axis=2), 0.125, atol=2e-4)


def test_channels_fill_every_aligned_block_nearly_evenly():
    # the channel floor(u T) of the van der Corput coordinate: each aligned
    # block of 2^k points, a (0, k, 1)-net, gives every channel 2^k / T
    # points to within 2 (each channel gains or loses at most one point at
    # either end of its interval), and exactly 2^k / T where T divides 2^k.
    # The lanes come out grouped by channel in their own order.
    from twistamp.integrate import _by_channel
    from twistamp.rqmc import Plan

    plan = Plan(16 << 13, 0, "direct", 5)
    for n_trees in (4, 9, 117):
        for r in range(4):
            u = np.empty((1, 1 << 13))
            plan.draw([(r, 0, 1 << 13)], 0, 1 << 13, u)
            for k in (7, 10, 13):
                for start in range(0, u.shape[1], 1 << k):
                    block = u[0, start : start + (1 << k)]
                    order, counts = _by_channel(block, n_trees)
                    assert counts.sum() == 1 << k
                    if n_trees == 4:
                        assert np.all(counts == 1 << (k - 2))
                    assert np.all(np.abs(counts - (1 << k) / n_trees) < 2)
                    channel = np.floor(block * n_trees)[order]
                    assert np.all(np.diff(channel) >= 0)
                    assert np.all(np.diff(order)[np.diff(channel) == 0] > 0)


def test_box_simplex_estimates_against_the_gauss_legendre_reference():
    # deterministic references, converged to 1e-10 by doubling the rule,
    # make the box's replicate error bars falsifiable: about 2e-5 relative
    # at 65 536 samples on the first box, 7e-4 on the random one. The
    # direct estimate is pi^2 times the simplex one (c(1) = pi^2); its bar
    # is about 1e-4 and 4e-4 relative there
    q1 = [Fraction(1, 4), Fraction(-1, 2), 0, Fraction(1, 4)]
    q2 = [Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2), 0]
    q3 = [0, Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 2)]
    q4 = [-(a + b + c) for a, b, c in zip(q1, q2, q3)]
    graphs = [
        box(
            masses=(Fraction(7, 8), Fraction(5, 4), 1, Fraction(3, 4)),
            momenta={1: q1, 2: q2, 3: q3, 4: q4},
        ),
        with_random_kinematics(box, random.Random(13)),
    ]
    for g in graphs:
        reference = box_simplex_integral(g, 96)
        assert box_simplex_integral(g, 48) == pytest.approx(reference, rel=1e-10)
        for run, c in (
            (parametric_amplitude, 1.0),
            (pfaffian_amplitude, 1.0),
            (direct_amplitude, math.pi**2),
        ):
            for seed in range(8):
                result = run(g, IntegrationConfig(n_samples=65_536, seed=seed))
                z = (result.estimate - c * reference) / result.std_error
                assert abs(z) < 4, (run.__name__, seed, z)
                assert result.std_error < 1e-3 * c * reference


def test_mixture_density_is_normalised():
    # under draws from the mixture q, the uniform density (N-1)! over q has
    # mean 1 (and is bounded by 1 / share); a wrong I_tr, F_tr or share in
    # either half of q moves the mean
    rnd = random.Random(19)
    for g in (with_random_kinematics(bowtie, rnd), multi_loop_graph("loop3", rnd)):
        n_edges, sampler = _tropical_setup(g)
        cfg = IntegrationConfig(n_samples=200_000, seed=19)
        ratio = np.concatenate(
            [
                np.exp(math.lgamma(n_edges) - log_q)
                for (_, log_q), _ in simplex_batches(cfg, n_edges, "simplex", sampler)
            ]
        )
        assert abs(ratio.mean() - 1.0) < 3 * ratio.std() / math.sqrt(ratio.size)


def test_mixture_weights_stay_below_the_tropical_bound(monkeypatch):
    from twistamp.integrate import _UNIFORM_SHARE, _poly_evaluator

    rnd = random.Random(23)
    graphs = [with_random_kinematics(bowtie, rnd)] + [
        multi_loop_graph(name, rnd) for name in ("theta", "loop3")
    ]
    # batches of five replicates of an odd size, 3 751: the tropical part
    # of each has one sample more than the uniform part
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 20_001)
    for g in graphs:
        n_edges, sampler = _tropical_setup(g)
        s2 = second_symanzik(g).s2
        s2_at = _poly_evaluator(s2)
        c_min = min(float(c.re) for _, c in s2.terms())
        bound = sampler.i_tr / ((1.0 - _UNIFORM_SHARE) * c_min**2)
        cfg = IntegrationConfig(n_samples=60_016, seed=7)
        for (points, log_q), _ in simplex_batches(cfg, n_edges, "simplex", sampler):
            weights = 1.0 / np.square(s2_at(points)) / np.exp(log_q)
            assert weights.max() <= bound * (1.0 + 1e-12)


def test_one_loop_graphs_keep_the_uniform_proposal(monkeypatch):
    from twistamp.integrate import _poly_evaluator

    g = with_random_kinematics(box, random.Random(29))
    n_edges, sampler = _tropical_setup(g)
    assert sampler is None
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 7_000)
    cfg = IntegrationConfig(n_samples=20_000, seed=3)
    s2_at = _poly_evaluator(second_symanzik(g).s2)
    expect = _replicate_mean(
        (1.0 / np.square(s2_at(points)), runs)
        for (points, _), runs in simplex_batches(cfg, n_edges, "simplex")
    )
    expect /= math.factorial(n_edges - 1)
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
        maps = _tree_channels(g)[0]
        for tree, a_t in zip(spanning_trees(g), maps):
            chords = [e for e in range(g.n_edges) if e not in tree]
            for basis in (loops, flipped, mixed):
                formula = basis.T @ np.linalg.inv(basis[:, chords].T)
                np.testing.assert_allclose(a_t, formula, rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("name", ["loop3", "loop4", "subdivided_k4", "loop5"])
def test_extract_constants_gives_pi_to_the_2n_on_three_and_four_loops(name):
    # c(n) = C(n) = pi^(2n) for n = 3, 4 and 5; on loop4 the direct estimate
    # used to be too noisy for extract_constants at this sample count, and
    # the subdivided K4 runs the direct proposal with nu = 2/3
    from conftest import MULTI_LOOP_TOPOLOGIES

    if name == "subdivided_k4":
        g = _subdivided_k4_with_a_path()
    elif name == "loop5":
        g = _loop4_with_paths(1)
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


def test_direct_on_a_box_with_one_tiny_mass_agrees_with_pi_squared_parametric():
    # each edge's Student-t has the edge's mass as its scale; one scale for
    # all, the geometric mean of the masses (1e-25 here), almost never
    # sampled the region that carries the integral and read 2.5e-39 +-
    # 2.3e-39 against 2.57
    q = FourVector.make([1, 0, 0, 0])
    g = box(masses=("1e-100", 1, 1, 1), momenta={1: q, 3: -q})
    cfg = IntegrationConfig(n_samples=20_000, seed=0)
    direct = direct_amplitude(g, cfg)
    parametric = parametric_amplitude(g, cfg)
    c = math.pi**2
    z = _combined_gap(
        direct.estimate, c * parametric.estimate, direct.std_error, c * parametric.std_error
    )
    assert z < 3


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
    # entries that are no real number, and an argument that is no iterable;
    # True used to run as 1.0
    for values in (["x", 1, 2], [None, 1], [True, 2, 3], [1.0, np.bool_(True)], 5, None):
        with pytest.raises(ValidationError):
            feynman_trick_check(values)
    # the Sobol points have 64 coordinates at most
    assert feynman_trick_check([1.0] * 64, IntegrationConfig(n_samples=1000)).rel_gap < 1e-12
    with pytest.raises(ValidationError, match="at most 64"):
        feynman_trick_check([1.0] * 65)
    assert feynman_trick_check([1, Fraction(1, 2)]).rel_gap < 1e-10
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


@pytest.mark.parametrize("estimate", [0.0, math.nan, math.inf])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_extract_constants_refuses_a_zero_or_non_finite_estimate(estimate, which):
    # direct and parametric read 0.0 at momenta near 1e150; no ratio is formed
    g = box()
    cfg = IntegrationConfig(n_samples=1000, seed=0)
    methods = ("direct", "parametric", "pfaffian")
    results = [IntegrationResult(1.0, 0.01, 1000, 0, method, 0.0) for method in methods]
    results[which] = dataclasses.replace(results[which], estimate=estimate, std_error=0.0)
    with pytest.raises(PrecisionError, match=f"no ratio with a {methods[which]} estimate"):
        extract_constants(g, cfg, tuple(results))


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


# Pinned estimate and standard error of the direct and parametric methods at
# 100 001 samples (replicates of 6 251 and 6 250 points), seed 0, on the
# graphs of _pinned_graphs. A change to how a stream is consumed, how
# batches, blocks or lane chunks are laid out, or a read of a stale buffer
# moves them far more than the 1e-12 allowed for platform rounding. The
# pfaffian method draws the parametric points, and |Pf| = S2, so it must
# meet the parametric pins too.
PINNED = {
    ("box", "direct"): (0.02283359256060092, 1.5020543870122688e-05),
    ("bowtie", "direct"): (1.4089122639722866, 0.0020638776389900527),
    ("theta", "direct"): (1.0106911925392659, 0.002100356482682156),
    ("loop3", "direct"): (9.503736462979788, 0.03796302506750457),
    ("box", "parametric"): (0.0023171689344739315, 8.822841208852194e-07),
    ("bowtie", "parametric"): (0.014259178812478025, 0.00010635939173189252),
    ("theta", "parametric"): (0.010218211466933937, 4.844180015297129e-05),
    ("loop3", "parametric"): (0.009729731893110856, 6.934848327014081e-05),
}


# The parametric method (and so the pfaffian) at 131 088 samples: replicates
# of 8 193 points, each ending in a one-lane block of one tropical draw.
PINNED_TAIL = {
    ("box", "parametric"): (0.0023162075375577186, 4.49288370023494e-07),
    ("bowtie", "parametric"): (0.014394925575315538, 9.333421168068023e-05),
    ("theta", "parametric"): (0.010268458414659254, 4.879082089724598e-05),
    ("loop3", "parametric"): (0.009722599429303883, 4.8552264867799655e-05),
}


def _pinned_graphs():
    rnd = random.Random(41)
    return {
        "box": with_random_kinematics(box, rnd),
        "bowtie": with_random_kinematics(bowtie, rnd),
        "theta": multi_loop_graph("theta", rnd),
        "loop3": multi_loop_graph("loop3", rnd),
    }


_RUNS = {
    "direct": direct_amplitude,
    "parametric": parametric_amplitude,
    "pfaffian": pfaffian_amplitude,
}


def test_random_streams_are_pinned():
    graphs = _pinned_graphs()
    for pins, n_samples in ((PINNED, 100_001), (PINNED_TAIL, 131_088)):
        cfg = IntegrationConfig(n_samples=n_samples, seed=0)
        for (name, method), (estimate, std_error) in pins.items():
            runs = [method, "pfaffian"] if method == "parametric" else [method]
            for run in runs:
                result = _RUNS[run](graphs[name], cfg)
                assert result.estimate == pytest.approx(estimate, rel=1e-12), (name, run)
                assert result.std_error == pytest.approx(std_error, rel=1e-12), (name, run)


def _estimates(graphs, cfg):
    """(graph index, method) -> float hex of (estimate, std error)."""
    return {
        (i, method): (result.estimate.hex(), result.std_error.hex())
        for i, g in enumerate(graphs)
        for method, run in _RUNS.items()
        for result in [run(g, cfg)]
    }


def test_concurrent_threads_reproduce_the_serial_estimates():
    # each thread has its own workspace; more threads than cores and a short
    # switch interval interleave their batches
    rnd = random.Random(31)
    graphs = [with_random_kinematics(bowtie, rnd), multi_loop_graph("loop3", rnd)]
    cfg = IntegrationConfig(n_samples=20_000, seed=2)
    serial = _estimates(graphs, cfg)
    results = {}

    def run(i):
        results[i] = _estimates(graphs[i % 2 :] + graphs[: i % 2], cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(3):
        rotated = {((g + i) % 2, method): value for (g, method), value in results[i].items()}
        assert rotated == serial


def test_interleaved_batch_generators_yield_what_each_yields_alone(monkeypatch):
    # two live generators, each drawing into regions of its own, and an
    # estimate run between batches in the thread's workspace
    monkeypatch.setattr("twistamp.integrate._BATCH_SIZE", 10_000)
    g = multi_loop_graph("theta", random.Random(37))
    n_edges, sampler = _tropical_setup(g)
    cfgs = [IntegrationConfig(n_samples=25_000, seed=seed) for seed in (1, 2)]
    expect = parametric_amplitude(g, cfgs[0])
    for tropical in (sampler, None):

        def batches(cfg, tropical=tropical):
            for (points, log_q), _ in simplex_batches(cfg, n_edges, "simplex", tropical):
                assert (log_q is None) == (tropical is None)
                yield (points,) if log_q is None else (points, log_q)

        alone = [[tuple(np.copy(a) for a in batch) for batch in batches(cfg)] for cfg in cfgs]
        steps = 0
        for pair in zip(*map(batches, cfgs)):
            nested = parametric_amplitude(g, cfgs[0])
            assert (nested.estimate, nested.std_error) == (expect.estimate, expect.std_error)
            for batch, alone_batch in zip(pair, (alone[0][steps], alone[1][steps])):
                assert len(batch) == len(alone_batch)
                assert all(np.array_equal(a, b) for a, b in zip(batch, alone_batch))
            steps += 1
        assert steps == len(alone[0]) == 3


def test_estimates_do_not_read_what_an_earlier_estimate_left_behind():
    import twistamp.integrate as integrate

    rnd = random.Random(43)
    graphs = [with_random_kinematics(box, rnd), with_random_kinematics(bowtie, rnd)]
    cfg = IntegrationConfig(n_samples=100_001, seed=4)
    first = _estimates(graphs, cfg)
    # loop4's pfaffian estimate grows the workspace and fills it; NaN then
    # poisons every entry that a later estimate might read before writing
    pfaffian_amplitude(multi_loop_graph("loop4", rnd), IntegrationConfig(n_samples=70_000))
    integrate._arena.buffer.fill(math.nan)
    assert _estimates(graphs, cfg) == first


def test_a_second_estimate_reuses_the_thread_workspace():
    import twistamp.integrate as integrate

    g = multi_loop_graph("loop3", random.Random(47))
    cfg = IntegrationConfig(n_samples=70_000, seed=0)
    _estimates([g], cfg)
    buffer = integrate._arena.buffer
    assert buffer.size > 0
    _estimates([g], cfg)
    assert integrate._arena.buffer is buffer


def test_a_refused_feynman_check_gives_the_workspace_back():
    # the held refusal references the frames of the check and of its batch
    # loop; the next estimate must still grow and use the thread's arena.
    # A fresh thread starts with an empty arena.
    import twistamp.integrate as integrate

    g = with_random_kinematics(bowtie, random.Random(53))

    def run():
        with pytest.raises(PrecisionError) as refusal:
            feynman_trick_check([1e150, 1e150, 1e-10], IntegrationConfig(n_samples=2000, seed=0))
        seen = {"busy": integrate._arena.busy, "check": integrate._arena.buffer.size}
        parametric_amplitude(g, IntegrationConfig(n_samples=2000, seed=0))
        seen["estimate"] = integrate._arena.buffer.size
        assert refusal.value.__traceback__ is not None
        return seen

    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        seen = pool.submit(run).result(timeout=60)
    assert not seen["busy"]
    assert seen["check"] == 6_000  # 2 000 points of 3 coordinates
    assert seen["estimate"] > 6_000


def test_a_second_workspace_checkout_in_one_thread_is_refused():
    import twistamp.integrate as integrate

    with integrate._workspace((10,), (3, 4)) as regions:
        assert [region.size for region in regions] == [10, 12]
        with pytest.raises(RuntimeError, match="already checked out"):
            with integrate._workspace((10,)):
                pass
        assert integrate._arena.busy
    assert not integrate._arena.busy


def test_pieces_are_one_lane_wide_only_where_the_run_is():
    from twistamp.integrate import _pieces

    for width in range(3, 10):
        for length in range(1, 41):
            for lo in (0, 5):
                pieces = list(_pieces(lo, lo + length, width))
                starts, stops = zip(*pieces)
                assert starts == (lo, *stops[:-1]) and stops[-1] == lo + length
                assert all(1 <= hi - a <= width for a, hi in pieces)
                if length > 1:
                    assert all(hi - a >= 2 for a, hi in pieces), (width, length)
    # at width 2 a run of 3 lanes would split 1 + 2 (and at 0 or 1 the
    # unguarded loop never ends, hence the islice)
    for width in (0, 1, 2):
        with pytest.raises(ValueError, match="at least 3 lanes"):
            list(itertools.islice(_pieces(0, 3, width), 10))


def _arena_bytes_after(estimates):
    """The size of a fresh thread's arena, which starts empty, after it
    runs estimates()."""
    import twistamp.integrate as integrate

    def run():
        estimates()
        return integrate._arena.buffer.nbytes

    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(run).result(timeout=120)


def test_the_workspace_of_four_loops_stays_under_6_mib():
    # the pfaffian estimate needs the largest arena, 5.75 MiB; the direct
    # one, 5.6 MiB, took 6.7 MiB when its batches held two lane chunks and
    # 14.9 MiB at 65 536 points. Both simplex integrands from one draw add
    # one weight array, 128 KiB, for their scratch is shared: apart,
    # parametric's 1.1 MiB would come on top
    from twistamp.integrate import _simplex_estimates

    g = multi_loop_graph("loop4", random.Random(79))
    cfg = IntegrationConfig(n_samples=131_072, seed=0)
    alone = _arena_bytes_after(lambda: _estimates([g], cfg))
    assert 0 < alone <= 6 * 2**20
    assert _arena_bytes_after(lambda: _simplex_estimates(g, cfg)) == alone + 8 * 16_384


def test_the_direct_workspace_does_not_follow_the_batch_size(monkeypatch):
    # a direct batch is at most one block, whatever _BATCH_SIZE says
    import twistamp.integrate as integrate

    g = multi_loop_graph("loop4", random.Random(79))
    cfg = IntegrationConfig(n_samples=131_072, seed=0)
    sizes = []
    for batch_size in (16_384, 65_536):
        monkeypatch.setattr(integrate, "_BATCH_SIZE", batch_size)
        sizes.append(_arena_bytes_after(lambda: direct_amplitude(g, cfg)))
    assert sizes[0] > 0 and sizes[0] == sizes[1]


def test_an_estimate_builds_one_sobol_stream_per_replicate(monkeypatch):
    # one plan per estimate holds every replicate's stream: at 400 000
    # samples a replicate holds 25 000 points, four blocks, which the plan
    # spreads over two simplex batches or four direct ones
    import twistamp.integrate as integrate
    from twistamp.rqmc import _REPLICATES, Plan

    built, batches = [], []

    class Counted(Plan):
        def __init__(self, n_samples, seed, stream, dim):
            super().__init__(n_samples, seed, stream, dim)
            built.append((dim, self.sizes))

        def batches(self, batch_size):
            for batch in super().batches(batch_size):
                batches.append([r for r, *_ in batch])
                yield batch

    monkeypatch.setattr(integrate, "Plan", Counted)
    g = with_random_kinematics(bowtie, random.Random(89))
    cfg = IntegrationConfig(n_samples=400_000, seed=0)
    runs = [
        (lambda: direct_amplitude(g, cfg), 9),  # 1 + 4n
        (lambda: parametric_amplitude(g, cfg), 10),  # 2N - 2
        (lambda: pfaffian_amplitude(g, cfg), 10),
        (lambda: integrate._simplex_estimates(g, cfg), 10),  # both from one draw
        (lambda: feynman_trick_check([1.0, 2.0, 3.0, 4.0], cfg), 4),  # N
    ]
    for run, dim in runs:
        built.clear()
        batches.clear()
        run()
        assert built == [(dim, [25_000] * _REPLICATES)], dim
        spans = [sum(r in batch for batch in batches) for r in range(_REPLICATES)]
        assert all(count >= 2 for count in spans), spans


def test_the_workspace_does_not_grow_with_the_sample_count():
    g = with_random_kinematics(bowtie, random.Random(83))
    sizes = [
        _arena_bytes_after(lambda n=n: _estimates([g], IntegrationConfig(n_samples=n, seed=0)))
        for n in (40_000, 400_000)
    ]
    assert sizes[0] > 0 and sizes[0] == sizes[1]


def test_weights_do_not_depend_on_the_lane_chunk_width(monkeypatch):
    # narrow chunks cut the direct estimator's channel blocks into narrow
    # pieces and split every simplex batch; on loop3 an edge momentum can sum
    # three chords, so the order of addition shows in the bits. At 100, 1 000
    # and 1 500 lanes a batch of 3 001 samples would end in a one-lane chunk;
    # the chunks are cut so that none is one lane wide. The pfaffian's
    # assembly matmul rounds a lane alike at any chunk width, its last lanes
    # padded to a whole panel: unpadded, loop3 at 131 088 samples read
    # another std error with 16 384-point batches.
    import twistamp.integrate as integrate

    mean = integrate._mean
    weights_seen = []

    def recording(methods, batches, weights, *spent):
        def kept(batch, running):
            values = weights(batch, running)
            weights_seen.extend(v.copy() for v in values if isinstance(v, np.ndarray))
            return values

        return mean(methods, batches, kept, *spent)

    monkeypatch.setattr(integrate, "_mean", recording)
    rnd = random.Random(53)
    graphs = [with_random_kinematics(bowtie, rnd), multi_loop_graph("loop3", rnd)]
    cfg = IntegrationConfig(n_samples=3_001, seed=6)
    _estimates(graphs, cfg)
    expect = weights_seen[:]
    for lanes in (7, 64, 100, 1_000, 1_500):
        monkeypatch.setattr(integrate, "_SIMPLEX_LANES", lanes)
        weights_seen.clear()
        _estimates(graphs, cfg)
        assert len(weights_seen) == len(expect)
        assert all(np.array_equal(a, b) for a, b in zip(weights_seen, expect))

    # Batches hold whole blocks, so the batch size, with the lane width, moves
    # no bit of an estimate: a block per batch (1 250 points over a batch
    # size of 1 000), several, all of them, and the default of two lane
    # chunks; at 131 088 samples every replicate ends in a one-lane block.
    monkeypatch.setattr(integrate, "_mean", mean)
    for n_samples, layouts in (
        (20_000, [(65_536, 8_192), (16_384, 8_192), (1_000, 7), (2_600, 100)]),
        (131_088, [(65_536, 8_192), (16_384, 8_192), (10_000, 1_000)]),
    ):
        cfg = IntegrationConfig(n_samples=n_samples, seed=6)
        seen = []
        for batch_size, lanes in layouts:
            monkeypatch.setattr(integrate, "_BATCH_SIZE", batch_size)
            monkeypatch.setattr(integrate, "_SIMPLEX_LANES", lanes)
            seen.append(
                [
                    (result.estimate.hex(), result.std_error.hex())
                    for g in graphs
                    for run in _RUNS.values()
                    for result in [run(g, cfg)]
                ]
            )
        assert seen[1:] == seen[:1] * (len(layouts) - 1)


# -- one draw, two simplex integrands ---------------------------------------

def test_one_draw_keeps_pf_over_s2_within_1e_11_at_every_sample():
    # |Pf|^2 = S2^2 exactly, so the largest per-sample |Pf|^2 / S2^2 - 1 is
    # float64 rounding of the two evaluations: 1.2e-14 to 2.8e-14 on these
    from twistamp.integrate import _simplex_estimates

    rnd = random.Random(97)
    graphs = [with_random_kinematics(box, rnd), with_random_kinematics(bowtie, rnd)]
    graphs += [multi_loop_graph(name, rnd) for name in ("theta", "loop3", "loop4")]
    for g in graphs:
        (parametric, pfaffian), deviation = _simplex_estimates(
            g, IntegrationConfig(n_samples=20_000, seed=0)
        )
        assert 0.0 < deviation < 1e-11, g.n_edges
        assert pfaffian.estimate == pytest.approx(parametric.estimate, rel=1e-12)
        assert pfaffian.std_error == pytest.approx(parametric.std_error, rel=1e-12)


def test_one_draw_gives_the_bits_of_each_method_alone():
    # the box keeps the uniform proposal; 131 088 samples end every replicate
    # in a one-lane block
    import time

    from twistamp.integrate import _simplex_estimates

    graphs = _pinned_graphs()
    for name, n_samples in (
        ("box", 100_001),
        ("bowtie", 100_001),
        ("bowtie", 131_088),
        ("loop3", 100_001),
        ("loop3", 131_088),
    ):
        g, cfg = graphs[name], IntegrationConfig(n_samples=n_samples, seed=0)
        start = time.perf_counter()
        (parametric, pfaffian), _ = _simplex_estimates(g, cfg)
        wall = time.perf_counter() - start
        for joint, run in ((parametric, parametric_amplitude), (pfaffian, pfaffian_amplitude)):
            alone = run(g, cfg)
            assert (joint.estimate.hex(), joint.std_error.hex()) == (
                alone.estimate.hex(),
                alone.std_error.hex(),
            ), (name, n_samples, alone.method)
            assert joint.method == alone.method
        # the parametric result carries the draw: the two walls split the call's
        assert parametric.wall_time_s > 0.0 and pfaffian.wall_time_s > 0.0
        assert parametric.wall_time_s + pfaffian.wall_time_s <= wall


def test_a_refusal_in_one_draw_ends_only_its_own_method(monkeypatch):
    # a NaN S2 refuses parametric in its first batch; pfaffian runs on with
    # the bits it has alone and then carries the call's whole wall time
    import time

    from twistamp.integrate import _simplex_estimates

    g = with_random_kinematics(bowtie, random.Random(4))
    cfg = IntegrationConfig(n_samples=40_000, seed=0)
    alone = pfaffian_amplitude(g, cfg)
    monkeypatch.setattr("twistamp.integrate._poly_evaluator", _with_a_bad_lane(math.nan))
    start = time.perf_counter()
    (parametric, pfaffian), deviation = _simplex_estimates(g, cfg)
    wall = time.perf_counter() - start
    assert isinstance(parametric, InvariantViolation)
    assert str(parametric) == "non-finite parametric-method sample in batch 0 (sample 5)"
    assert (pfaffian.estimate, pfaffian.std_error) == (alone.estimate, alone.std_error)
    assert 0.0 < pfaffian.wall_time_s <= wall
    assert deviation < 1e-11  # the NaN lane compares false with every bound
    # a refusal shared by both, here of the graph, refuses each
    outcomes, _ = _simplex_estimates(_k4_with_a_path(), cfg)
    assert [type(o) for o in outcomes] == [UnsupportedTopology] * 2


def test_the_pfaffian_of_a_lane_does_not_depend_on_its_chunk_width():
    # OpenBLAS rounds the columns past the last whole panel of 8 of a wide
    # product, and every column of a product 1, 3 or 43 wide, another way
    # than whole panels; the assembly pads the last lanes to a panel
    import twistamp.integrate as integrate

    rng = np.random.default_rng(101)
    for name in ("loop3", "loop4"):
        g = multi_loop_graph(name, random.Random(53))
        problem = integrate._problem(g)
        denominator, shapes = integrate._pfaffian_denominator(g, problem, 8_192)
        regions = [np.empty(math.prod(shape)) for shape in shapes]
        columns = np.ascontiguousarray(rng.dirichlet(np.ones(g.n_edges), size=16_384).T)
        points = columns.T  # the lane-major view of column storage that batches use
        expect = np.empty(len(points))
        for lo in range(0, len(points), 8_192):
            denominator(points[lo : lo + 8_192], expect[lo : lo + 8_192], regions)
        for width in (1, 3, 43, 2_047, 4_095, 8_191):
            count = min(len(points), 300 * width)
            seen = np.empty(count)
            for lo in range(0, count, width):
                hi = min(lo + width, count)
                denominator(points[lo:hi], seen[lo:hi], regions)
            assert np.array_equal(seen, expect[:count]), (name, width)


# -- the prepared problem: one set-up per graph ------------------------------

def test_a_second_estimate_on_a_graph_repeats_the_first_and_a_fresh_graph():
    cfg = IntegrationConfig(n_samples=30_001, seed=8)
    for make in (lambda: with_random_kinematics(bowtie, random.Random(59)),
                 lambda: multi_loop_graph("loop3", random.Random(59))):
        g = make()
        first = _estimates([g], cfg)
        assert _estimates([g], cfg) == first
        assert _estimates([make()], cfg) == first


def test_extract_constants_builds_each_piece_once(monkeypatch):
    calls = count_set_up_builds(monkeypatch)
    g = multi_loop_graph("theta", random.Random(61))
    cfg = IntegrationConfig(n_samples=20_000, seed=1)
    extract_constants(g, cfg)
    assert calls == SET_UP_ONCE
    extract_constants(g, cfg)
    assert calls == SET_UP_ONCE
    # a second graph, equal to the first, builds its own
    extract_constants(multi_loop_graph("theta", random.Random(61)), cfg)
    assert calls == {name: 2 * count for name, count in SET_UP_ONCE.items()}


@pytest.mark.parametrize(
    "graph, message",
    [(_k4_with_a_path(), "divergent subgraph"), (triangle(), "N = 2n[+]2")],
    ids=["divergent-subgraph", "N-not-2n+2"],
)
def test_a_refused_graph_is_refused_on_every_call(monkeypatch, graph, message):
    calls = count_set_up_builds(monkeypatch)
    cfg = IntegrationConfig(n_samples=1000, seed=0)
    for _ in range(2):
        for run in (direct_amplitude, parametric_amplitude, pfaffian_amplitude):
            with pytest.raises(UnsupportedTopology, match=message):
                run(graph, cfg)
    assert not vars(graph).get("_problem")  # nothing was kept
    built = {"_vanishing_orders": 6} if message == "divergent subgraph" else {}
    assert calls == {**dict.fromkeys(SET_UP_ONCE, 0), **built}


def test_threads_racing_on_one_fresh_graph_reproduce_the_serial_bits(monkeypatch):
    cfg = IntegrationConfig(n_samples=20_000, seed=3)
    serial = _estimates([multi_loop_graph("loop3", random.Random(67))], cfg)
    g = multi_loop_graph("loop3", random.Random(67))  # equal, and with nothing built
    calls = count_set_up_builds(monkeypatch)
    results = {}

    def run(i):
        results[i] = _estimates([g], cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(3)] == [serial] * 3
    assert calls == SET_UP_ONCE


def _kept(value, seen=None):
    """Everything reachable from a memo value through containers, object
    attributes and closure cells."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple)):
        children = list(value)
    elif callable(value) and hasattr(value, "__closure__"):
        children = [cell.cell_contents for cell in value.__closure__ or ()]
        children += list(vars(value).values())
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        children = list(vars(value).values())
    else:
        children = []
    for child in children:
        yield from _kept(child, seen)


def test_the_memo_keeps_read_only_arrays_and_nothing_exact():
    from twistamp import MultiPoly

    g = multi_loop_graph("loop3", random.Random(71))
    _estimates([g], IntegrationConfig(n_samples=1000, seed=2))
    memo = vars(g)["_problem"]
    assert set(memo) >= {"shape", "sampler", "u_plan", "f0_plan", "channels", "blocks"}
    kept = list(_kept(memo))
    arrays = [value for value in kept if isinstance(value, np.ndarray)]
    assert len(arrays) >= 9
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    exact = (MultiPoly, Fraction, GaussianRational, Graph)
    assert not [value for value in kept if isinstance(value, exact)]


def test_a_copied_or_pickled_graph_starts_with_nothing_built():
    import copy
    import pickle

    g = with_random_kinematics(bowtie, random.Random(73))
    cfg = IntegrationConfig(n_samples=20_000, seed=5)
    first = _estimates([g], cfg)
    for other in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert other == g and not vars(other)["_problem"]
        assert _estimates([other], cfg) == first
