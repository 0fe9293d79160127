"""Exact Gaussian-rational arithmetic, sparse multivariate polynomials, and
pfaffians/determinants of small alternating matrices.

Coefficients are Gaussian rationals (a + b i)/d held as three Python ints
(d > 0, gcd(a, b, d) = 1), so every symbolic result in this module is exact
and its arithmetic never builds a `fractions.Fraction`; their `re` and `im`
are read out as `Fraction`s. The symbolic pfaffian and determinant share one
expansion, `_pfaffian_expand`: the perfect-matching sum grouped by the
partner of the lowest index and memoized on the remaining indices; a
determinant is the pfaffian of [[0, M], [-M^T, 0]] up to sign. The only
floating-point code path is the numeric pfaffian (one Parlett-Reid
kernel on one matrix), which exists to cross-check the exact routines and
the pfaffian estimator's block kernel.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import StructuralError, ValidationError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "as_fraction",
    "GaussianRational",
    "MultiPoly",
    "AlternatingForm",
    "pfaffian_numeric",
    "pfaffian_symbolic",
    "det_symbolic",
    "matrix_rank",
]


def as_fraction(value) -> Fraction:
    """Exact rational from an integer (any numbers.Integral but bool, so numpy
    integers too), Fraction, decimal string, or float.

    Floats (numpy's included) are read through repr(float(value)), so 0.1
    parses as 1/10 rather than as the binary expansion of the double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError("booleans are not numbers here")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value {value!r}")
        return Fraction(repr(float(value)))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {value!r} as a rational number") from exc
    raise ValidationError(f"cannot interpret a {type(value).__name__} as an exact rational")


class GaussianRational:
    """Exact complex rational (a + b i)/d, stored as Python ints with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal (a, b, d).

    Arithmetic runs on the ints alone; `as_fraction` reads only values that
    enter from outside (the constructor and `coerce`). `re` and `im` are
    `Fraction`-valued properties. A real value hashes as its `Fraction` (so as
    the int when integral), since it compares equal to one. Instances are
    treated as immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = as_fraction(re)
        im = as_fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        a, b, d = p * s, r * q, q * s
        g = math.gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if type(value) is int:
            return _raw_gr(value, 0, 1)
        value = as_fraction(value)
        return _raw_gr(value.numerator, 0, value.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def conjugate(self) -> "GaussianRational":
        return _raw_gr(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _gr_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _gr_add(self, -other)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _gr_add(other, -self)

    def __mul__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _gr_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _gr_div(self, other)

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _gr_div(other, self)

    def __neg__(self):
        return _raw_gr(-self._a, -self._b, self._d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("only nonnegative integer powers are supported")
        out = _raw_gr(1, 0, 1)
        for _ in range(exponent):
            out = _gr_mul(out, self)
        return out

    def __eq__(self, other):
        # floats and strings read as decimals in arithmetic, but they hash
        # otherwise (hash(0.1) is that of the double), so they compare unequal
        other = None if isinstance(other, (float, str)) else _operand(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a if self._d == 1 else Fraction(self._a, self._d))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _raw_gr(a: int, b: int, d: int) -> GaussianRational:
    # internal: (a, b, d) is already canonical
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = a, b, d
    return out


def _make_gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for d > 0, with the common gcd divided out."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _raw_gr(a, b, d)


def _operand(value):
    """The other operand of an arithmetic operator as a GaussianRational, or
    None when it is no exact number (the operator then returns NotImplemented)."""
    if type(value) is GaussianRational:
        return value
    try:
        return GaussianRational.coerce(value)
    except ValidationError:
        return None


def _gr_add(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    d = x._d
    if d == y._d:
        return _make_gr(x._a + y._a, x._b + y._b, d)
    e = y._d
    return _make_gr(x._a * e + y._a * d, x._b * e + y._b * d, d * e)


def _gr_mul(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    a, b, c, e = x._a, x._b, y._a, y._b
    return _make_gr(a * c - b * e, a * e + b * c, x._d * y._d)


def _gr_div(x: GaussianRational, y: GaussianRational) -> GaussianRational:
    # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
    a, b, c, e, f = x._a, x._b, y._a, y._b, y._d
    n2 = c * c + e * e
    if not n2:
        raise ZeroDivisionError("division by zero")
    return _make_gr((a * c + b * e) * f, (b * c - a * e) * f, x._d * n2)


_GR_ZERO = GaussianRational()


class MultiPoly:
    """Sparse polynomial in variables a1..aN over the Gaussian rationals.

    Terms map exponent tuples to nonzero coefficients; instances are treated
    as immutable after construction.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        nvars = int(nvars)
        if nvars < 0:
            raise StructuralError("variable count must be nonnegative")
        merged: dict = {}
        for exps, coeff in dict(terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != nvars or any(e < 0 for e in key):
                raise StructuralError(f"bad exponent vector {exps!r} for {nvars} variables")
            val = GaussianRational.coerce(coeff)
            if key in merged:
                val = merged[key] + val
            if val.is_zero():
                merged.pop(key, None)
            else:
                merged[key] = val
        self.nvars = nvars
        self._terms = merged

    @classmethod
    def _raw(cls, nvars, terms):
        # internal: terms are already clean (no zeros, valid keys)
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def linear(cls, coeffs):
        """sum_i coeffs[i] * a_{i+1}"""
        coeffs = list(coeffs)
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            exps = [0] * n
            exps[i] = 1
            terms[tuple(exps)] = c
        return cls(n, terms)

    def terms(self):
        """Canonically ordered (exponents, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def homogeneous_degree(self):
        """Common total degree of every term; None if mixed; 0 for the zero poly."""
        degrees = {sum(e) for e in self._terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def _coerce_other(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise StructuralError("polynomials live in different variable sets")
            return other
        return MultiPoly.constant(other, self.nvars)

    def __add__(self, other):
        other = self._coerce_other(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = c
                continue
            val = _gr_add(cur, c)
            if val._a or val._b:
                out[exps] = val
            else:
                del out[exps]
        return MultiPoly._raw(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) + (-self)

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if c.is_zero():
                return MultiPoly.zero(self.nvars)
            return MultiPoly._raw(self.nvars, {e: _gr_mul(v, c) for e, v in self._terms.items()})
        other = self._coerce_other(other)
        out: dict = {}
        get = out.get
        right = list(other._terms.items())
        for e1, c1 in self._terms.items():
            for e2, c2 in right:
                key = tuple(map(operator.add, e1, e2))
                val = _gr_mul(c1, c2)
                cur = get(key)
                if cur is None:
                    # a product of nonzero Gaussian rationals is nonzero
                    out[key] = val
                    continue
                val = _gr_add(cur, val)
                if val._a or val._b:
                    out[key] = val
                else:
                    del out[key]
        return MultiPoly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("only nonnegative integer powers are supported")
        out = MultiPoly.constant(1, self.nvars)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def evaluate(self, point) -> GaussianRational:
        """Exact value at a point with rational (or Gaussian-rational) entries."""
        pt = [GaussianRational.coerce(p) for p in point]
        if len(pt) != self.nvars:
            raise StructuralError("point has the wrong number of coordinates")
        # a coordinate equal to one leaves every product alone, so at the
        # all-ones point each term is just its coefficient
        active = [(i, p) for i, p in enumerate(pt) if p != 1]
        total = _GR_ZERO
        for exps, coeff in self._terms.items():
            v = coeff
            for i, p in active:
                for _ in range(exps[i]):
                    v = _gr_mul(v, p)
            total = _gr_add(total, v)
        return total

    def text(self) -> str:
        """Canonical rendering, terms in descending lexicographic order."""
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms():
            mono = "*".join(
                f"a{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            if coeff.im:
                body = f"({coeff})" + (f"*{mono}" if mono else "")
                sign = "+"
            else:
                r = coeff.re
                sign = "-" if r < 0 else "+"
                r = abs(r)
                if not mono:
                    body = str(r)
                elif r == 1:
                    body = mono
                else:
                    body = f"{r}*{mono}"
            pieces.append((sign, body))
        head_sign, head = pieces[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"MultiPoly(<{self.nterms} terms in {self.nvars} vars>)"


class AlternatingForm:
    """Antisymmetric matrix of exact GaussianRational entries, stored as its
    nonzero upper entries {(i, j): A[i, j]}, i < j, the format `_pfaffian_expand`
    reads. Only the rows constructor validates; the other builders fill it."""

    __slots__ = ("dim", "_upper")

    def __init__(self, rows):
        rows = tuple(tuple(GaussianRational.coerce(x) for x in row) for row in rows)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise StructuralError("alternating form must be square")
        upper = {}
        for i in range(dim):
            if not rows[i][i].is_zero():
                raise ValidationError("diagonal of an alternating form must vanish")
            for j in range(i):
                if rows[i][j] != -rows[j][i]:
                    raise ValidationError("matrix is not exactly antisymmetric")
                if not rows[j][i].is_zero():
                    upper[(j, i)] = rows[j][i]
        self.dim = dim
        self._upper = upper

    @classmethod
    def _raw(cls, dim, upper):
        # internal: upper holds only nonzero entries, keyed (i, j) with i < j
        form = cls.__new__(cls)
        form.dim = dim
        form._upper = upper
        return form

    @classmethod
    def from_wedge(cls, u, w):
        """u w^T - w u^T for coefficient vectors u, w (rank <= 2)."""
        u = [GaussianRational.coerce(x) for x in u]
        w = [GaussianRational.coerce(x) for x in w]
        if len(u) != len(w):
            raise StructuralError("wedge factors must have equal length")
        support = [i for i in range(len(u)) if u[i] or w[i]]
        upper = {(i, j): u[i] * w[j] - w[i] * u[j] for i in support for j in support if i < j}
        return cls._raw(len(u), {k: x for k, x in upper.items() if not x.is_zero()})

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"no entry {key!r} in a form of dimension {self.dim}")
        if i > j:
            return -self._upper.get((j, i), _GR_ZERO)
        return self._upper.get((i, j), _GR_ZERO)

    def rows(self):
        return tuple(tuple(self[i, j] for j in range(self.dim)) for i in range(self.dim))

    def scaled(self, c) -> "AlternatingForm":
        c = GaussianRational.coerce(c)
        upper = {k: x * c for k, x in self._upper.items() if not c.is_zero()}
        return AlternatingForm._raw(self.dim, upper)

    def __add__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        if other.dim != self.dim:
            raise StructuralError("dimension mismatch")
        out = dict(self._upper)
        for k, x in other._upper.items():
            out[k] = out[k] + x if k in out else x
        return AlternatingForm._raw(self.dim, {k: x for k, x in out.items() if not x.is_zero()})

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        return self.dim == other.dim and self._upper == other._upper

    def __hash__(self):
        return hash((self.dim, frozenset(self._upper.items())))

    def is_zero(self) -> bool:
        return not self._upper

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        return np.array([[complex(x) for x in row] for row in self.rows()], dtype=complex)

    def rank(self) -> int:
        return matrix_rank(self)

    def __repr__(self):
        return f"AlternatingForm(dim={self.dim})"


# ---------------------------------------------------------------------------
# the one signed expansion: symbolic pfaffians and determinants


def _pfaffian_expand(entries, dim: int, nvars: int) -> MultiPoly:
    """Pfaffian of the dim x dim alternating matrix whose nonzero upper
    entries are entries[(i, j)], i < j (absent pairs are zero).

    Expands along the lowest remaining index,
    Pf(A) = sum_k (-1)^(k+1) A[r0, rk] Pf(A without r0, rk) for the remaining
    indices r0 < r1 < ..., memoized on the tuple of remaining indices: the
    perfect-matching sum grouped by the partner of the lowest index, with
    O(2^dim) minors instead of (dim-1)!! matchings.
    """
    memo = {(): MultiPoly.constant(1, nvars)}

    def minor(rest):
        out = memo.get(rest)
        if out is None:
            out = MultiPoly.zero(nvars)
            for k in range(1, len(rest)):
                entry = entries.get((rest[0], rest[k]))
                if entry is None:
                    continue
                sub = minor(rest[1:k] + rest[k + 1 :])
                if not sub.is_zero():
                    out = out + entry * sub if k % 2 else out - entry * sub
            memo[rest] = out
        return out

    return minor(tuple(range(dim)))


def pfaffian_symbolic(forms) -> MultiPoly:
    """Pfaffian of sum_e a_e * forms[e] as an exact polynomial in a1..aN.

    Homogeneous of degree dim/2. Sign convention: Pf([[0, 1], [-1, 0]]) = 1,
    extended by the perfect-matching sum with crossing-number signs, which
    `_pfaffian_expand` evaluates grouped by the partner of the lowest index.
    """
    forms = list(forms)
    if not forms:
        raise StructuralError("need at least one form")
    dim = forms[0].dim
    if dim % 2:
        raise StructuralError("pfaffian needs even dimension")
    if any(f.dim != dim for f in forms):
        raise StructuralError("all forms must share one dimension")
    nvars = len(forms)
    terms = {}
    for e, form in enumerate(forms):
        exps = (0,) * e + (1,) + (0,) * (nvars - e - 1)
        for key, x in form._upper.items():
            terms.setdefault(key, {})[exps] = x
    entries = {key: MultiPoly._raw(nvars, t) for key, t in terms.items()}
    return _pfaffian_expand(entries, dim, nvars)


def det_symbolic(matrix) -> MultiPoly:
    """Exact determinant of a square matrix M of MultiPoly entries, as
    (-1)^(n(n-1)/2) Pf([[0, M], [-M^T, 0]]).

    Expanding that pfaffian along its lowest index is the Laplace expansion
    of det M along its rows, with memoized minors.
    """
    rows = [list(r) for r in matrix]
    dim = len(rows)
    if any(len(r) != dim for r in rows):
        raise StructuralError("determinant needs a square matrix")
    if dim == 0:
        raise StructuralError("determinant needs a nonempty matrix")
    entries = {
        (i, dim + j): x for i, row in enumerate(rows) for j, x in enumerate(row) if not x.is_zero()
    }
    pf = _pfaffian_expand(entries, 2 * dim, rows[0][0].nvars)
    return -pf if dim * (dim - 1) // 2 % 2 else pf


# pfaffian_numeric rejects a matrix with |A + A^T| above this times max(1, |A|)
_ASYM_TOL = 1e-12


def _parlett_reid(mat) -> complex:
    """Pfaffian of one antisymmetric matrix (d, d), by partially pivoted
    Parlett-Reid elimination (Wimmer, arXiv:1102.3440) on a complex copy.
    The input is never written.

    Step k swaps the largest |A[i, k]|, i > k, into row and column k+1
    (flipping the sign), multiplies the pivot A[k, k+1] into the product
    and clears row and column k from the trailing block by a rank-2
    congruence update. A matrix whose pivot column is exactly zero has
    Pf = 0.
    """
    import numpy as np

    A = np.array(mat, dtype=complex)
    pf = 1.0 + 0j
    for k in range(0, len(A) - 1, 2):
        pivot = k + 1 + int(np.abs(A[k + 1 :, k]).argmax())
        if pivot != k + 1:
            # rows and columns before k are never read again
            A[[k + 1, pivot], k:] = A[[pivot, k + 1], k:]
            A[k:, [k + 1, pivot]] = A[k:, [pivot, k + 1]]
            pf = -pf
        piv = A[k, k + 1]
        if piv == 0:
            return 0j
        pf *= piv
        tau = A[k, k + 2 :] / piv  # empty at the last step
        outer = tau[:, None] * A[k + 2 :, k + 1][None]
        A[k + 2 :, k + 2 :] += outer - outer.T
    return complex(pf)


def pfaffian_numeric(form) -> complex:
    """Pfaffian of an antisymmetric matrix by Parlett-Reid elimination.

    Partial pivoting keeps the congruence transforms bounded; the running
    product of the 2x2 block pivots times the permutation sign is Pf(A),
    with Pf([[0, a], [-a, 0]]) = a and Pf(A)^2 = det(A) (see
    _parlett_reid). The Monte Carlo estimators do not use it (the pfaffian
    estimator has its own block kernel).
    """
    import numpy as np

    if isinstance(form, AlternatingForm):
        A = form.to_numpy()
    else:
        A = np.array(form, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise StructuralError("pfaffian needs a square matrix")
    dim = A.shape[0]
    if dim % 2:
        raise StructuralError("pfaffian needs even dimension")
    if dim == 0:
        return 1.0 + 0j
    scale = float(np.abs(A).max())
    if float(np.abs(A + A.T).max()) > _ASYM_TOL * max(1.0, scale):
        raise ValidationError("matrix is not antisymmetric within tolerance")
    return _parlett_reid((A - A.T) / 2.0)


def matrix_rank(matrix) -> int:
    """Rank of a matrix (an AlternatingForm or rows of scalars) by exact
    Gaussian-rational elimination; float entries are read as by as_fraction."""
    rows = matrix.rows() if isinstance(matrix, AlternatingForm) else matrix
    m = [[GaussianRational.coerce(x) for x in row] for row in rows]
    nrows = len(m)
    if not nrows:
        return 0
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise StructuralError("rank needs a rectangular matrix")
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            if m[r][col].is_zero():
                continue
            factor = m[r][col] / m[row][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
