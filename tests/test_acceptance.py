"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; seeds are fixed so the whole suite is
deterministic on a given machine.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from twistamp import (
    AlternatingForm,
    IntegrationConfig,
    bowtie,
    box,
    cycle_basis,
    direct_amplitude,
    extract_constants,
    feynman_trick_check,
    first_symanzik_det,
    first_symanzik_trees,
    parametric_amplitude,
    pfaffian_numeric,
    pfaffian_symanzik_ratio,
    propagator_forms,
    quadratic_rank_check,
    route_momenta,
    second_symanzik,
    triangle,
)
from twistamp.cli import EXIT_OK, main as cli_main
from twistamp.algebra import _parlett_reid
from conftest import (
    random_antisymmetric,
    random_connected_graph,
    random_fraction,
    random_momenta,
    with_random_kinematics,
)

SEED = 2012


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded its {budget_s}s runtime budget"


def _combined_z(a, b, err_a, err_b):
    denom = math.hypot(err_a, err_b)
    return abs(a - b) / denom if denom else abs(a - b)


def test_criterion_01_pfaffian_symanzik_identity():
    with criterion(1, "Pf(sum a Q)^2 = lambda^2 S2^2 exactly, lambda^2 constant", 10):
        rnd = random.Random(SEED)
        for factory in (box, bowtie):
            lambdas = []
            for _ in range(5):
                g = with_random_kinematics(factory, rnd)
                result = pfaffian_symanzik_ratio(g)
                assert result.exact, "identity must hold as a polynomial"
                assert result.residual == 0.0
                lambdas.append(result.lambda2_exact)
            assert all(lam == lambdas[0] for lam in lambdas), "lambda^2 must be constant"


def test_criterion_02_symanzik_determinant_vs_trees():
    with criterion(2, "first Symanzik: determinant == spanning-tree sum", 5):
        rnd = random.Random(SEED + 1)
        graphs = [triangle(), box(), bowtie()]
        graphs += [random_connected_graph(rnd, max_edges=8) for _ in range(5)]
        for g in graphs:
            assert first_symanzik_det(g) == first_symanzik_trees(g)


def test_criterion_03_propagator_reproduction():
    with criterion(3, "pairing reproduces the euclidean propagator to 1e-12", 5):
        rnd = random.Random(SEED + 2)
        rng = np.random.default_rng(SEED + 2)
        for factory in (triangle, box, bowtie):
            g = with_random_kinematics(factory, rnd)
            basis = cycle_basis(g)
            routing = route_momenta(g)
            forms = propagator_forms(g, basis, routing)
            n = basis.n
            mats = [f.to_numpy() for f in forms]
            alphas = [np.array(f.alpha, dtype=float) for f in forms]
            shifts = [f.shift.floats() for f in forms]
            masses2 = [float(f.mass) ** 2 for f in forms]
            # vectorized: 1000 real-slice points, evaluated against every edge
            xs = rng.standard_normal((1000, n, 4))
            z1 = xs[:, :, 0] + 1j * xs[:, :, 1]
            z2 = xs[:, :, 3] + 1j * xs[:, :, 2]
            rows1 = np.zeros((1000, 2 * n + 2), dtype=complex)
            rows2 = np.zeros((1000, 2 * n + 2), dtype=complex)
            rows1[:, 0] = 1.0
            rows2[:, 1] = 1.0
            rows1[:, 2::2] = z1
            rows1[:, 3::2] = z2
            rows2[:, 2::2] = -np.conj(z2)
            rows2[:, 3::2] = np.conj(z1)
            for mat, alpha, shift, m2 in zip(mats, alphas, shifts, masses2):
                values = np.einsum("bi,ij,bj->b", rows1, mat, rows2)
                momenta = np.einsum("k,bkc->bc", alpha, xs) + shift[None, :]
                expect = np.square(momenta).sum(axis=1) + m2
                assert np.all(np.abs(values - expect) <= 1e-12 * expect)


def test_criterion_04_quadratic_rank_is_four():
    with criterion(4, "rank of the decomposable quadratic map is 4 (n = 1, 2, 3)", 5):
        rnd = random.Random(SEED + 3)
        for n in (1, 2, 3):
            dim = 2 * n + 2
            done = 0
            while done < 50:
                u = [random_fraction(rnd) for _ in range(dim)]
                w = [random_fraction(rnd) for _ in range(dim)]
                alpha = AlternatingForm.from_wedge(u, w)
                # the chart Gram only sees the block away from (e1, e2); a
                # draw whose projections there are collinear restricts to an
                # affine-linear map (no quadratic part), so reroll those
                block = [row[2:] for row in alpha.rows()[2:]]
                if all(x.is_zero() for r in block for x in r):
                    if not alpha.is_zero():
                        assert quadratic_rank_check(alpha) == 0
                    continue
                assert quadratic_rank_check(alpha) == 4
                done += 1


def test_criterion_05_pfaffian_squares_to_determinant():
    with criterion(5, "Pf(A)^2 = det(A) to 1e-10 relative (dims 4, 6, 8)", 30):
        rng = np.random.default_rng(SEED + 4)
        for dim in (4, 6, 8):
            for _ in range(100):
                A = random_antisymmetric(rng, dim)
                pf = pfaffian_numeric(A)
                det = np.linalg.det(A)
                assert abs(pf**2 - det) <= 1e-10 * abs(det)


def test_criterion_06_desk_scale_box_benchmark():
    with criterion(6, "equal-mass box: direct = pi^2/(6 m^4), parametric = 1/(6 m^4), c = pi^2", 60):
        m = 1.0
        g = box(masses=(1, 1, 1, 1))
        cfg = IntegrationConfig(n_samples=1_000_000, seed=SEED)
        direct = direct_amplitude(g, cfg)
        parametric = parametric_amplitude(g, cfg)

        direct_expect = math.pi**2 / (6 * m**4)
        parametric_expect = 1.0 / (6 * m**4)
        assert abs(direct.estimate - direct_expect) <= 3 * direct.std_error
        assert direct.std_error <= 0.01 * direct.estimate
        assert abs(parametric.estimate - parametric_expect) <= max(
            3 * parametric.std_error, 1e-12 * parametric_expect
        )
        assert parametric.std_error <= 0.01 * parametric.estimate

        c_hat = direct.estimate / parametric.estimate
        assert abs(c_hat - math.pi**2) <= 0.02 * math.pi**2


def test_criterion_07_three_method_cross_agreement():
    with criterion(7, "direct = c * parametric = C * pfaffian, constants stable", 300):
        rnd = random.Random(SEED + 5)
        cases = [
            (box, 2_000_000, SEED, SEED + 1),
            (bowtie, 4_000_000, SEED, SEED + 1),
        ]
        for factory, samples, seed_a, seed_b in cases:
            g1 = with_random_kinematics(factory, rnd)
            g2 = with_random_kinematics(factory, rnd)
            c1 = extract_constants(g1, IntegrationConfig(n_samples=samples, seed=seed_a))
            c2 = extract_constants(g2, IntegrationConfig(n_samples=samples, seed=seed_b))

            # constants are kinematics-independent within 3 combined sigma
            assert _combined_z(c1.c_hat, c2.c_hat, c1.c_hat_std_error, c2.c_hat_std_error) < 3
            assert (
                _combined_z(
                    c1.big_c_hat, c2.big_c_hat, c1.big_c_hat_std_error, c2.big_c_hat_std_error
                )
                < 3
            )

            # the other point's constant rescales parametric/pfaffian onto direct
            for mine, theirs in ((c1, c2), (c2, c1)):
                predicted = theirs.c_hat * mine.parametric.estimate
                err = math.sqrt(
                    mine.direct.std_error**2
                    + (theirs.c_hat * mine.parametric.std_error) ** 2
                    + (mine.parametric.estimate * theirs.c_hat_std_error) ** 2
                )
                assert abs(mine.direct.estimate - predicted) <= 3 * err
                predicted_pf = theirs.big_c_hat * mine.pfaffian.estimate
                err_pf = math.sqrt(
                    mine.direct.std_error**2
                    + (theirs.big_c_hat * mine.pfaffian.std_error) ** 2
                    + (mine.pfaffian.estimate * theirs.big_c_hat_std_error) ** 2
                )
                assert abs(mine.direct.estimate - predicted_pf) <= 3 * err_pf


def test_criterion_08_feynman_trick():
    with criterion(8, "simplex denominator identity: N=4 within 3 sigma, N=2 to 1e-10", 60):
        rnd = random.Random(SEED + 6)
        cfg = IntegrationConfig(n_samples=200_000, seed=SEED)
        for _ in range(20):
            values = [rnd.uniform(0.3, 4.0) for _ in range(4)]
            result = feynman_trick_check(values, cfg)
            assert abs(result.rhs - result.lhs) <= 3 * result.std_error
        a, b = 0.7, 3.2
        n2 = feynman_trick_check([a, b])
        assert n2.method == "quadrature"
        assert abs(n2.rhs - 1.0 / (a * b)) <= 1e-10 / (a * b)


def test_criterion_09_positivity_shadows():
    with criterion(9, "S2 > 0 and |Pf| > 0 at 10^4 interior simplex points", 60):
        rnd = random.Random(SEED + 7)
        rng = np.random.default_rng(SEED + 7)
        for factory in (triangle, box, bowtie):
            g = with_random_kinematics(factory, rnd)
            sym = second_symanzik(g)
            points = rng.dirichlet(np.ones(g.n_edges), size=10_000)
            s2_vals = sum(
                float(c.re) * np.prod(points ** np.array(e), axis=1) for e, c in sym.s2.terms()
            )
            assert np.all(s2_vals > 0), f"S2 must be positive inside ({factory.__name__})"

            if g.n_edges == 2 * (g.n_edges - g.n_vertices + 1) + 2:
                stack = np.stack([f.to_numpy() for f in propagator_forms(g)])
                pf = np.array([_parlett_reid(m) for m in np.einsum("be,eij->bij", points, stack)])
                assert np.all(np.abs(pf) > 0), f"Pf must not vanish inside ({factory.__name__})"


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "identical seeds give byte-identical reports (minus timing)", 60):
        doc = {
            "vertices": [1, 2, 3, 4],
            "edges": [
                {"id": 1, "source": 1, "target": 2, "mass": "1"},
                {"id": 2, "source": 2, "target": 3, "mass": "1/2"},
                {"id": 3, "source": 3, "target": 4, "mass": "3/4"},
                {"id": 4, "source": 4, "target": 1, "mass": "1"},
            ],
            "external_momenta": {
                "1": ["1/2", "0", "1/3", "0"],
                "3": ["-1/2", "0", "-1/3", "0"],
            },
        }
        graph_path = tmp_path / "box.json"
        graph_path.write_text(json.dumps(doc))
        out1 = tmp_path / "report1.json"
        out2 = tmp_path / "report2.json"
        args = ["integrate", str(graph_path), "--samples", "50000", "--seed", "7", "--exact"]
        assert cli_main(args + ["--output", str(out1)]) == EXIT_OK
        assert cli_main(args + ["--output", str(out2)]) == EXIT_OK

        lines1 = [l for l in out1.read_text().splitlines() if "wall_time_s" not in l]
        lines2 = [l for l in out2.read_text().splitlines() if "wall_time_s" not in l]
        assert lines1 == lines2
