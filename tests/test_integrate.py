import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from twistamp import (
    CycleBasis,
    Graph,
    IntegrationConfig,
    InvariantViolation,
    PrecisionError,
    SymanzikPair,
    UnsupportedTopology,
    ValidationError,
    bowtie,
    box,
    complete4,
    cycle_basis,
    direct_amplitude,
    extract_constants,
    feynman_trick_check,
    log_divergent_integrand,
    parametric_amplitude,
    pfaffian_amplitude,
    pfaffian_symbolic,
    propagator_forms,
    second_symanzik,
    triangle,
)
from conftest import random_momenta, random_positive_fraction, with_random_kinematics


def _combined_gap(a, b, err_a, err_b):
    return abs(a - b) / math.hypot(err_a, err_b) if (err_a or err_b) else abs(a - b)


def test_config_validation():
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=999)
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=10_000, seed=-1)
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=10_000, batch_size=0)
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=10_000, scale=0.0)
    with pytest.raises(ValidationError):
        IntegrationConfig(n_samples=10_000, scale=math.inf)


def test_config_rejects_bool_counts():
    # bool is an int subclass: batch_size=True would run one sample per batch
    for field in ("n_samples", "seed", "batch_size", "scale"):
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
    g = box()
    sym = second_symanzik(g)
    flipped = SymanzikPair(sym.s1, -sym.s2)
    monkeypatch.setattr("twistamp.integrate.second_symanzik", lambda graph: flipped)
    with pytest.raises(InvariantViolation):
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
    from twistamp.integrate import _pfaffian_batch
    from conftest import random_antisymmetric

    rng = np.random.default_rng(17)
    for dim in (2, 4, 6, 8):
        mats = np.stack([random_antisymmetric(rng, dim) for _ in range(50)])
        batch = _pfaffian_batch(mats)
        for mat, value in zip(mats, batch):
            assert value == pytest.approx(pfaffian_numeric(mat), rel=1e-10)


def test_pfaffian_integrand_matches_symbolic_pipeline():
    rnd = random.Random(42)
    g = with_random_kinematics(box, rnd)
    sym = second_symanzik(g)
    forms = propagator_forms(g)
    stack = np.stack([f.to_numpy() for f in forms])
    from twistamp.integrate import _pfaffian_batch

    rng = np.random.default_rng(0)
    points = rng.dirichlet(np.ones(4), size=100)
    pf_vals = _pfaffian_batch(np.einsum("be,eij->bij", points, stack))
    for a, pf in zip(points, pf_vals):
        s2 = sym.s2.eval_complex(a)
        assert abs(pf) ** 2 == pytest.approx(abs(s2) ** 2, rel=1e-10)


def _three_loop_graph(rnd: random.Random) -> Graph:
    """K4 with edges 1-2 and 3-4 subdivided: n = 3, N = 8, forms of size 8."""
    edges = [(1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 1, 4), (5, 2, 3), (6, 2, 4), (7, 3, 6), (8, 6, 4)]
    return Graph.build(
        range(1, 7),
        [(i, u, v, random_positive_fraction(rnd)) for i, u, v in edges],
        random_momenta(rnd, [1, 2, 3, 4]),
    )


def test_pfaffian_kernel_against_exact_and_determinant_oracles():
    from twistamp.algebra import _PF_CHUNK_BYTES
    from twistamp.integrate import _pfaffian_batch

    # exact oracle: the matching expansion of Pf(sum_e a_e Q_e), signs included
    rnd = random.Random(71)
    graphs = (
        with_random_kinematics(box, rnd),
        with_random_kinematics(bowtie, rnd),
        _three_loop_graph(rnd),
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
        for point, value in zip(points, _pfaffian_batch(mats)):
            exact = complex(pf_exact.evaluate(point))
            assert abs(value - exact) <= 1e-12 * abs(exact)

    # |Pf|^2 = |det| on random batches that end mid-chunk
    rng = np.random.default_rng(72)
    for dim in (4, 6, 8, 10):
        chunk = _PF_CHUNK_BYTES // (16 * dim * dim)
        size = 2 * chunk + 3
        m = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
        mats = m - np.swapaxes(m, 1, 2)
        mats[1::5, 0, 1] = mats[1::5, 1, 0] = 0.0  # forces a pivot swap at step 0
        singular = chunk + 1
        mats[singular, 3, :] = mats[singular, :, 3] = 0.0  # dies mid-elimination
        before = mats.copy()
        pf = _pfaffian_batch(mats)
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
        assert np.array_equal(_pfaffian_batch(mats)[others], pf[others])

    # a batch of one must not write through to the caller's matrix
    single = before[:1].copy()
    _pfaffian_batch(single)
    assert np.array_equal(single, before[:1])


def test_pfaffian_estimate_equals_mean_of_inverse_s2_squared_on_same_draws():
    from twistamp.integrate import _poly_evaluator, _simplex_batches

    rnd = random.Random(73)
    g = with_random_kinematics(bowtie, rnd)
    # 10_000 is not a multiple of the kernel chunk
    cfg = IntegrationConfig(n_samples=25_000, seed=5, batch_size=10_000)
    result = pfaffian_amplitude(g, cfg)
    s2_at = _poly_evaluator(second_symanzik(g).s2)
    draws = _simplex_batches(cfg, g.n_edges, "pfaffian")
    weights = np.concatenate([1.0 / np.square(s2_at(batch).real) for batch in draws])
    # lambda^2 = 1: |Pf|^2 = S2^2 point by point
    expect = math.fsum(weights) / weights.size / math.factorial(g.n_edges - 1)
    assert result.estimate == pytest.approx(expect, rel=1e-12)


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


def test_batch_split_does_not_change_estimate():
    g = box(masses=(1,) * 4)
    a = direct_amplitude(g, IntegrationConfig(n_samples=40_000, seed=4, batch_size=10_000))
    b = direct_amplitude(g, IntegrationConfig(n_samples=40_000, seed=4, batch_size=10_000))
    assert a.estimate == b.estimate


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


def test_change_of_cycle_basis_leaves_estimates_alone(monkeypatch):
    rnd = random.Random(61)
    g = with_random_kinematics(bowtie, rnd)
    basis = cycle_basis(g)
    flipped = CycleBasis(tuple(tuple(-v for v in row) for row in basis.loops)[::-1])
    a = direct_amplitude(g, IntegrationConfig(n_samples=150_000, seed=41))
    monkeypatch.setattr("twistamp.integrate.cycle_basis", lambda graph: flipped)
    b = direct_amplitude(g, IntegrationConfig(n_samples=150_000, seed=42))
    assert _combined_gap(a.estimate, b.estimate, a.std_error, b.std_error) < 3


def test_qmc_parametric_agrees():
    rnd = random.Random(71)
    g = with_random_kinematics(box, rnd)
    plain = parametric_amplitude(g, IntegrationConfig(n_samples=100_000, seed=51))
    sobol = parametric_amplitude(g, IntegrationConfig(n_samples=100_000, seed=52, qmc=True))
    assert sobol.estimate == pytest.approx(plain.estimate, rel=5e-3)


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
    # 1/prod A underflows to 0, or the N = 2 integrand overflows
    for values in ([1e200, 1e200], [1e200] * 4, [1e160, 1e-160]):
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
