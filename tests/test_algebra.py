import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistamp import (
    AlternatingForm,
    GaussianRational,
    MultiPoly,
    StructuralError,
    ValidationError,
    as_fraction,
    box,
    det_symbolic,
    matrix_rank,
    pfaffian_numeric,
    pfaffian_symbolic,
)
from conftest import random_antisymmetric, random_fraction


GR = GaussianRational


def test_gaussian_rational_arithmetic():
    a = GR(Fraction(1, 2), Fraction(1, 3))
    b = GR(Fraction(-2), Fraction(1))
    assert a + b == GR(Fraction(-3, 2), Fraction(4, 3))
    assert a * b == GR(Fraction(-4, 3), Fraction(-1, 6))
    assert (a / b) * b == a
    assert a - a == 0
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert a.norm2() == Fraction(1, 4) + Fraction(1, 9)
    assert complex(GR(1, 2)) == 1 + 2j
    with pytest.raises(ZeroDivisionError):
        a / GR()


def test_numpy_floats_read_as_decimals():
    assert as_fraction(np.float64(0.1)) == Fraction(1, 10)
    assert box(masses=np.ones(4)).edges == box(masses=(1,) * 4).edges


def test_numpy_integers_read_as_integers():
    assert as_fraction(np.int64(3)) == 3
    assert box(masses=np.array([1, 1, 1, 1])) == box()
    with pytest.raises(ValidationError):
        as_fraction(np.bool_(True))


def test_gaussian_rational_is_exact():
    third = GR(Fraction(1, 3))
    assert third + third + third == 1
    assert GR(0, 1) ** 2 == -1


# Property tests of GaussianRational against a reference that keeps a
# Gaussian rational as its (re, im) pair of Fractions.

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

rationals = st.fractions()
pairs = st.tuples(rationals, rationals)
nonzero_pairs = pairs.filter(lambda x: x[0] or x[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    re, im = ref_mul(x, (y[0], -y[1]))
    return (re / n2, im / n2)


def parts(z):
    return (z.re, z.im)


def is_canonical(z):
    return z._d > 0 and math.gcd(z._a, z._b, z._d) == 1


@PROPERTY
@given(pairs, pairs)
def test_gaussian_rational_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GR(*x), GR(*y)
    results = {
        "+": (gx + gy, (x[0] + y[0], x[1] + y[1])),
        "-": (gx - gy, (x[0] - y[0], x[1] - y[1])),
        "*": (gx * gy, ref_mul(x, y)),
        "neg": (-gx, (-x[0], -x[1])),
        "conjugate": (gx.conjugate(), (x[0], -x[1])),
    }
    if y[0] or y[1]:
        results["/"] = (gx / gy, ref_div(x, y))
    for op, (got, want) in results.items():
        assert parts(got) == want, op
        assert is_canonical(got), op
    assert gx.norm2() == x[0] * x[0] + x[1] * x[1]
    assert isinstance(gx.norm2(), Fraction)


@PROPERTY
@given(pairs, st.integers(min_value=0, max_value=5))
def test_gaussian_rational_power_matches_repeated_product(x, k):
    want = (Fraction(1), Fraction(0))
    for _ in range(k):
        want = ref_mul(want, x)
    assert parts(GR(*x) ** k) == want


@PROPERTY
@given(pairs, nonzero_pairs)
def test_gaussian_rational_form_is_canonical(x, y):
    gx, gy = GR(*x), GR(*y)
    # the same value reached three ways has one (a, b, d) and one hash
    same = [gx, (gx * gy) / gy, (gx + gy) - gy, GR(gx.re, gx.im)]
    for z in same:
        assert z == gx
        assert (z._a, z._b, z._d) == (gx._a, gx._b, gx._d)
        assert hash(z) == hash(gx)
        assert is_canonical(z)
    assert parts(gx) == x
    assert isinstance(gx.re, Fraction) and isinstance(gx.im, Fraction)


@PROPERTY
@given(pairs)
def test_gaussian_rational_division_by_zero(x):
    for zero in (GR(), 0, Fraction(0), "0", 0.0):
        with pytest.raises(ZeroDivisionError):
            GR(*x) / zero
    with pytest.raises(ZeroDivisionError):
        x[0] / GR()


@PROPERTY
@given(st.integers(), rationals, st.decimals(allow_nan=False, allow_infinity=False))
def test_gaussian_rational_coerce(n, q, dec):
    assert parts(GR.coerce(n)) == (n, 0)
    assert parts(GR.coerce(q)) == (q, 0)
    assert parts(GR.coerce(str(dec))) == (Fraction(str(dec)), 0)
    z = GR(q, n)
    assert GR.coerce(z) is z


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_gaussian_rational_coerce_reads_floats_through_repr(f):
    assert parts(GR.coerce(f)) == (Fraction(repr(f)), 0)
    assert GR.coerce(np.float64(f)) == GR.coerce(f)


@PROPERTY
@given(st.integers(), rationals, pairs)
def test_gaussian_rational_hash_agrees_with_eq(n, q, x):
    assert GR(n) == n and hash(GR(n)) == hash(n)
    assert GR(q) == q and hash(GR(q)) == hash(q)
    z = GR(*x)
    assert (z == x[0]) == (not x[1])
    if not x[1]:
        assert hash(z) == hash(x[0])
    assert len({z, GR(*x), GR(x[0]) + GR(0, x[1])}) == 1


def test_gaussian_rational_hash_examples():
    assert hash(GR(1)) == hash(1) and hash(GR(-2)) == hash(-2)
    assert hash(GR(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(GR(0.5)) == hash(0.5)
    assert {1: "one", Fraction(1, 2): "half"}[GR(Fraction(2, 4))] == "half"
    assert GR(3) in {3} and 3 in {GR(3)}
    # a float or a string hashes otherwise than its decimal value: not equal
    assert GR(0.1) != 0.1 and 0.1 != GR(0.1) and GR(0.1) not in {0.1}
    assert GR(1) != "1" and "1" != GR(1) and GR(1) not in {"1"}


def test_multipoly_basics():
    p = MultiPoly.linear([1, 2, 3])
    q = MultiPoly.linear([1, 0, 0])
    assert (p * q).terms() == [((2, 0, 0), 1), ((1, 1, 0), 2), ((1, 0, 1), 3)]
    assert p.homogeneous_degree() == 1
    assert (p * p).homogeneous_degree() == 2
    assert (p + 1).homogeneous_degree() is None
    assert (p - p).is_zero()
    assert p.evaluate([1, 1, 1]) == 6
    # coordinates equal to one are skipped; 1 + i and -1 are not
    assert (p**3 + 5).evaluate([1, GR(1, 1), -1]) == GR(5, -8)
    assert p.evaluate([GR(0, 1), 0, 0]) == GR(0, 1)


def test_multipoly_pow_and_text():
    p = MultiPoly.linear([1, 1])
    assert (p**2).text() == "a1^2 + 2*a1*a2 + a2^2"
    assert MultiPoly.zero(2).text() == "0"
    m = MultiPoly(2, {(1, 0): Fraction(-1, 2), (0, 1): GR(0, 1)})
    assert m.text() == "-1/2*a1 + (1i)*a2"


def test_multipoly_rejects_mismatched_vars():
    with pytest.raises(StructuralError):
        MultiPoly.linear([1, 2]) + MultiPoly.linear([1, 2, 3])


def test_alternating_form_validation():
    with pytest.raises(ValidationError):
        AlternatingForm([[0, 1], [1, 0]])
    with pytest.raises(ValidationError):
        AlternatingForm([[1, 0], [0, 1]])
    form = AlternatingForm([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    assert form[0, 1] == Fraction(1, 2)


def test_wedge_entries_match_dense_outer_products():
    rnd = random.Random(71)
    for dim in (2, 5, 8, 10):
        for _ in range(25):
            u = [random_fraction(rnd) if rnd.random() < 0.4 else Fraction(0) for _ in range(dim)]
            w = [
                GR(random_fraction(rnd), random_fraction(rnd)) if rnd.random() < 0.4 else GR()
                for _ in range(dim)
            ]
            form = AlternatingForm.from_wedge(u, w)
            dense = [[w[j] * u[i] - w[i] * u[j] for j in range(dim)] for i in range(dim)]
            for i in range(dim):
                for j in range(dim):
                    assert form[i, j] == dense[i][j]
            assert form == AlternatingForm(dense)
            assert form.rows() == AlternatingForm(dense).rows()
            expect = np.array([[complex(x) for x in row] for row in dense])
            assert np.array_equal(form.to_numpy(), expect)
            assert form.is_zero() == all(x.is_zero() for row in dense for x in row)
            with pytest.raises(IndexError):
                form[0, dim]


def test_pfaffian_2x2_convention():
    a = 2.5 - 0.5j
    assert pfaffian_numeric([[0, a], [-a, 0]]) == pytest.approx(a)


def test_pfaffian_4x4_matches_combinatorial_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = random_antisymmetric(rng, 4)
        expect = A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]
        assert pfaffian_numeric(A) == pytest.approx(expect, rel=1e-12)


def test_pfaffian_block_diagonal_product():
    rng = np.random.default_rng(2)
    for blocks in (2, 3, 4):
        vals = rng.standard_normal(blocks) + 1j * rng.standard_normal(blocks)
        A = np.zeros((2 * blocks, 2 * blocks), complex)
        for k, b in enumerate(vals):
            A[2 * k, 2 * k + 1] = b
            A[2 * k + 1, 2 * k] = -b
        assert pfaffian_numeric(A) == pytest.approx(np.prod(vals), rel=1e-12)
        assert pfaffian_numeric(A) ** 2 == pytest.approx(np.linalg.det(A), rel=1e-10)


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(3)
    for dim in (4, 6, 8):
        for _ in range(100):
            A = random_antisymmetric(rng, dim)
            pf = pfaffian_numeric(A)
            det = np.linalg.det(A)
            assert pf**2 == pytest.approx(det, rel=1e-10)


def test_pfaffian_congruence_transform():
    rng = np.random.default_rng(4)
    for dim in (4, 6):
        for _ in range(20):
            A = random_antisymmetric(rng, dim)
            P = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = pfaffian_numeric(P @ A @ P.T)
            rhs = np.linalg.det(P) * pfaffian_numeric(A)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_pfaffian_rejects_odd_and_asymmetric():
    with pytest.raises(StructuralError):
        pfaffian_numeric(np.zeros((3, 3)))
    bad = np.zeros((2, 2))
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0 + 1e-6
    with pytest.raises(ValidationError):
        pfaffian_numeric(bad)


def _wedge(u, w, dim):
    uu = [Fraction(0)] * dim
    ww = [Fraction(0)] * dim
    for i, v in u.items():
        uu[i] = Fraction(v)
    for i, v in w.items():
        ww[i] = Fraction(v)
    return AlternatingForm.from_wedge(uu, ww)


def _combine(forms, coeffs):
    """Exact sum_i coeffs[i] * forms[i]."""
    out = forms[0].scaled(coeffs[0])
    for f, c in zip(forms[1:], coeffs[1:]):
        out = out + f.scaled(c)
    return out


def test_pfaffian_symbolic_n0_edge_case():
    # two 2x2 forms: Pf(a1 Q1 + a2 Q2) is linear with the (1,2) entries
    q1 = AlternatingForm([[0, 3], [-3, 0]])
    q2 = AlternatingForm([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    pf = pfaffian_symbolic([q1, q2])
    assert pf == MultiPoly.linear([3, Fraction(1, 2)])


def test_pfaffian_symbolic_single_rank2_form_vanishes():
    # one rank-2 form alone in dimension >= 4 has Pf = 0
    q = _wedge({0: 1}, {1: 1}, 4)
    zero = AlternatingForm([[0] * 4] * 4)
    pf = pfaffian_symbolic([q, zero, zero, zero])
    assert pf.is_zero()


def test_pfaffian_symbolic_matches_numeric_at_random_points():
    rnd = random.Random(6)
    forms = []
    for _ in range(4):
        u = {i: random_fraction(rnd) for i in range(4)}
        w = {i: random_fraction(rnd) for i in range(4)}
        forms.append(_wedge(u, w, 4))
    pf = pfaffian_symbolic(forms)
    assert pf.homogeneous_degree() in (0, 2)  # zero poly reports 0
    for _ in range(20):
        point = [random_fraction(rnd) for _ in range(4)]
        summed = _combine(forms, point)
        exact = pf.evaluate(point)
        numeric = pfaffian_numeric(summed.to_numpy())
        assert abs(complex(exact) - numeric) <= 1e-12 * max(1.0, abs(numeric))


def test_pfaffian_symbolic_evaluation_is_exact():
    q1 = _wedge({0: 1, 2: 1}, {1: 1, 3: 2}, 4)
    q2 = _wedge({0: Fraction(1, 3)}, {3: 1}, 4)
    q3 = _wedge({1: 1}, {2: Fraction(2, 5)}, 4)
    q4 = _wedge({2: 1}, {3: 1}, 4)
    forms = [q1, q2, q3, q4]
    pf = pfaffian_symbolic(forms)
    point = [Fraction(1, 7), Fraction(2, 3), Fraction(3), Fraction(5, 2)]
    direct = pf.evaluate(point)
    # independent exact evaluation: Pf of the summed 4x4 by the 3-term formula
    m = _combine(forms, point)
    expect = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert direct == expect


def test_det_symbolic_1x1_and_diagonal():
    ell = MultiPoly.linear([2, -1])
    assert det_symbolic([[ell]]) == ell
    d1 = MultiPoly.linear([1, 0])
    d2 = MultiPoly.linear([0, 3])
    zero = MultiPoly.zero(2)
    assert det_symbolic([[d1, zero], [zero, d2]]) == d1 * d2


def test_det_symbolic_2x2_cofactor_and_evaluation_oracle():
    rnd = random.Random(9)
    entries = [[MultiPoly.linear([random_fraction(rnd) for _ in range(3)]) for _ in range(2)] for _ in range(2)]
    det = det_symbolic(entries)
    cofactor = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    assert det == cofactor
    for _ in range(10):
        pt = [random_fraction(rnd) for _ in range(3)]
        mat = np.array([[complex(e.evaluate(pt)) for e in row] for row in entries])
        assert complex(det.evaluate(pt)) == pytest.approx(np.linalg.det(mat), abs=1e-12)


def test_det_symbolic_homogeneity():
    rnd = random.Random(12)
    dim = 3
    entries = [
        [MultiPoly.linear([random_fraction(rnd) for _ in range(4)]) for _ in range(dim)]
        for _ in range(dim)
    ]
    det = det_symbolic(entries)
    assert det.is_zero() or det.homogeneous_degree() == dim


def test_matrix_rank_numeric():
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(5)) == 5
    u = np.array([1.0, 2.0, 0.5, -1.0])
    w = np.array([0.0, 1.0, 1.0, 3.0])
    assert matrix_rank(np.outer(u, w) - np.outer(w, u)) == 2


def test_matrix_rank_exact():
    third = Fraction(1, 3)
    rows = [[third, 2 * third], [third * 2, 4 * third]]  # rank 1 exactly
    assert matrix_rank(rows) == 1
    form = AlternatingForm.from_wedge([1, 0, 0, 0], [0, 1, 0, 0])
    assert matrix_rank(form) == 2
    assert form.rank() == 2



def _sympy_det(sympy, rows, nvars):
    """Expanded determinant by sympy of a matrix of linear forms, each given
    by its coefficient list, as {exponents: Fraction}."""
    from sympy.polys.matrices import DomainMatrix

    ring, *gens = sympy.ring([f"a{i + 1}" for i in range(nvars)], sympy.QQ)
    entries = [
        [sum((sympy.QQ(c.numerator, c.denominator) * g for c, g in zip(x, gens)), ring.zero) for x in row]
        for row in rows
    ]
    det = DomainMatrix(entries, (len(rows), len(rows)), ring.to_domain()).det()
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in det.items()}


def _rational_terms(poly):
    assert all(not c.im for _, c in poly.terms())
    return {e: c.re for e, c in poly.terms()}


def test_det_symbolic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(31)
    nvars = 3
    for dim in range(1, 6):
        for _ in range(4):
            # about one entry in four is zero, so the expansion skips some
            coeffs = [
                [
                    [random_fraction(rnd) for _ in range(nvars)]
                    if rnd.random() < 0.75
                    else [Fraction(0)] * nvars
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ]
            det = det_symbolic([[MultiPoly.linear(x) for x in row] for row in coeffs])
            assert _rational_terms(det) == _sympy_det(sympy, coeffs, nvars)


def test_pfaffian_symbolic_squares_to_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(32)
    nvars = 3
    for dim in range(2, 9, 2):
        for _ in range(3):
            forms = []
            for _ in range(nvars):
                rows = [[Fraction(0)] * dim for _ in range(dim)]
                for i in range(dim):
                    for j in range(i + 1, dim):
                        if rnd.random() < 0.75:
                            rows[i][j] = random_fraction(rnd)
                            rows[j][i] = -rows[i][j]
                forms.append(AlternatingForm(rows))
            coeffs = [[[f[i, j].re for f in forms] for j in range(dim)] for i in range(dim)]
            pf = pfaffian_symbolic(forms)
            assert _rational_terms(pf * pf) == _sympy_det(sympy, coeffs, nvars)
