"""Exact Gaussian-rational arithmetic, sparse multivariate polynomials, and
pfaffians/determinants of small alternating matrices.

Coefficients are pairs of `fractions.Fraction`, so every symbolic result in
this module is exact. The only floating-point code paths are the numeric
pfaffian (one batched, cache-blocked Parlett-Reid kernel; a single matrix is
a batch of one) and the SVD rank, which exist to cross-check the exact
routines and to serve the Monte Carlo integrators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StructuralError, ValidationError

__all__ = [
    "as_fraction",
    "GaussianRational",
    "MultiPoly",
    "AlternatingForm",
    "combine_forms",
    "pfaffian_numeric",
    "pfaffian_symbolic",
    "det_symbolic",
    "matrix_rank",
]


def as_fraction(value) -> Fraction:
    """Exact rational from an int, Fraction, decimal string, or float.

    Floats are read through repr(), so 0.1 parses as 1/10 rather than as the
    binary expansion of the double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError("booleans are not numbers here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {value!r} as a rational number") from exc
    raise ValidationError(f"cannot interpret a {type(value).__name__} as an exact rational")


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(as_fraction(value))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        n2 = other.norm2()
        if not n2:
            raise ZeroDivisionError("division by zero")
        num = self * other.conjugate()
        return GaussianRational(num.re / n2, num.im / n2)

    def __rtruediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("only nonnegative integer powers are supported")
        out = GaussianRational(Fraction(1))
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


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
    def variable(cls, index, nvars):
        if not 0 <= index < nvars:
            raise StructuralError(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

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

    def coefficient(self, exps) -> GaussianRational:
        return self._terms.get(tuple(exps), _GR_ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

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
            val = c if cur is None else cur + c
            if val.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = val
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
            return MultiPoly._raw(self.nvars, {e: v * c for e, v in self._terms.items()})
        other = self._coerce_other(other)
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                cur = out.get(key)
                val = c1 * c2 if cur is None else cur + c1 * c2
                if val.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = val
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
        total = _GR_ZERO
        for exps, coeff in self._terms.items():
            v = coeff
            for p, e in zip(pt, exps):
                for _ in range(e):
                    v = v * p
            total = total + v
        return total

    def eval_complex(self, point) -> complex:
        """Double-precision value at a complex (or real) point."""
        pt = [complex(p) for p in point]
        if len(pt) != self.nvars:
            raise StructuralError("point has the wrong number of coordinates")
        total = 0j
        for exps, coeff in self._terms.items():
            v = complex(coeff)
            for p, e in zip(pt, exps):
                if e:
                    v *= p**e
            total += v
        return total

    def compiled(self):
        """(exponent matrix, coefficient vector) for vectorized evaluation."""
        items = self.terms()
        exps = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), self.nvars)
        coeffs = np.array([complex(c) for _, c in items], dtype=complex)
        return exps, coeffs

    def text(self, var: str = "a") -> str:
        """Canonical rendering, terms in descending lexicographic order."""
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms():
            mono = "*".join(
                f"{var}{i + 1}" + (f"^{e}" if e > 1 else "")
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
    """Antisymmetric square matrix with exact GaussianRational entries."""

    __slots__ = ("dim", "_rows", "units")

    def __init__(self, rows, units: str = ""):
        rows = tuple(tuple(GaussianRational.coerce(x) for x in row) for row in rows)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise StructuralError("alternating form must be square")
        for i in range(dim):
            if not rows[i][i].is_zero():
                raise ValidationError("diagonal of an alternating form must vanish")
            for j in range(i):
                if rows[i][j] != -rows[j][i]:
                    raise ValidationError("matrix is not exactly antisymmetric")
        self.dim = dim
        self._rows = rows
        self.units = units

    @classmethod
    def zero(cls, dim, units: str = ""):
        z = GaussianRational()
        return cls([[z] * dim for _ in range(dim)], units)

    @classmethod
    def from_wedge(cls, u, w, units: str = ""):
        """u w^T - w u^T for coefficient vectors u, w (rank <= 2)."""
        u = [GaussianRational.coerce(x) for x in u]
        w = [GaussianRational.coerce(x) for x in w]
        if len(u) != len(w):
            raise StructuralError("wedge factors must have equal length")
        rows = [[u[i] * w[j] - w[i] * u[j] for j in range(len(u))] for i in range(len(u))]
        return cls(rows, units)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def rows(self):
        return self._rows

    def scaled(self, c) -> "AlternatingForm":
        c = GaussianRational.coerce(c)
        return AlternatingForm([[x * c for x in row] for row in self._rows], self.units)

    def __add__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        if other.dim != self.dim:
            raise StructuralError("dimension mismatch")
        return AlternatingForm(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            self.units,
        )

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        return self.dim == other.dim and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self._rows for x in row)

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(x) for x in row] for row in self._rows], dtype=complex)

    def rank(self) -> int:
        return _exact_rank(self._rows)

    def __repr__(self):
        return f"AlternatingForm(dim={self.dim})"


def combine_forms(forms, coeffs) -> AlternatingForm:
    """Exact linear combination sum_i coeffs[i] * forms[i]."""
    forms = list(forms)
    coeffs = [GaussianRational.coerce(c) for c in coeffs]
    if len(forms) != len(coeffs):
        raise StructuralError("need one coefficient per form")
    if not forms:
        raise StructuralError("need at least one form")
    out = AlternatingForm.zero(forms[0].dim, forms[0].units)
    for f, c in zip(forms, coeffs):
        out = out + f.scaled(c)
    return out


# ---------------------------------------------------------------------------
# perfect matchings and permutations


def _pairings(items):
    """Perfect matchings, always pairing the smallest remaining index first."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1 :]
        for tail in _pairings(rest):
            yield [(first, items[k])] + tail


def _matching_sign(pairs) -> int:
    """(-1)**crossings; pairs come ordered with increasing minima."""
    sign = 1
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        if a < c < b < d:
            sign = -sign
    return sign


def _perm_sign(perm) -> int:
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def pfaffian_symbolic(forms) -> MultiPoly:
    """Pfaffian of sum_e a_e * forms[e] as an exact polynomial in a1..aN.

    Homogeneous of degree dim/2. Sign convention: Pf([[0, 1], [-1, 0]]) = 1,
    extended by the perfect-matching expansion with crossing-number signs.
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

    def unit(e):
        exps = [0] * nvars
        exps[e] = 1
        return tuple(exps)

    entry = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            entry[(i, j)] = MultiPoly(
                nvars, {unit(e): forms[e][i, j] for e in range(nvars)}
            )
    total = MultiPoly.zero(nvars)
    for pairs in _pairings(range(dim)):
        term = MultiPoly.constant(_matching_sign(pairs), nvars)
        for i, j in pairs:
            term = term * entry[(i, j)]
        total = total + term
    return total


def det_symbolic(matrix, nvars=None) -> MultiPoly:
    """Exact determinant of a square matrix of MultiPoly entries (Leibniz)."""
    rows = [list(r) for r in matrix]
    dim = len(rows)
    if any(len(r) != dim for r in rows):
        raise StructuralError("determinant needs a square matrix")
    if dim == 0:
        if nvars is None:
            raise StructuralError("empty determinant needs an explicit variable count")
        return MultiPoly.constant(1, nvars)
    nv = rows[0][0].nvars
    total = MultiPoly.zero(nv)
    for perm in itertools.permutations(range(dim)):
        term = MultiPoly.constant(_perm_sign(perm), nv)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


# Working set of one Parlett-Reid chunk, chunk * d * d complex128 entries,
# so that the chunk and the temporaries of its rank-2 updates stay near the
# L2 cache. On a 2-vCPU Xeon with 2 MiB of L2 per core, 65 536 matrices at
# d = 4..10 ran fastest with 0.5-2 MiB (1 MiB within 2% of the best); 256 KiB
# was up to 30% slower, 6 MiB up to 50% and 16 MiB up to 95%.
_PF_CHUNK_BYTES = 1 << 20

# pfaffian_numeric rejects a matrix with |A + A^T| above this times max(1, |A|)
_ASYM_TOL = 1e-12
# matrix_rank counts the singular values above this times the largest
_RANK_RTOL = 1e-9


def _parlett_reid(A: np.ndarray) -> np.ndarray:
    """Pfaffians of the batch-last stack A (d, d, b); A is overwritten.

    Step k swaps the largest |A[i, k]|, i > k, into row and column k+1
    (flipping the sign), multiplies the pivot A[k, k+1] into the product
    and clears row and column k from the trailing block by a rank-2
    congruence update. A matrix whose pivot column is exactly zero has
    Pf = 0.
    """
    dim, _, b = A.shape
    pf = np.ones(b, dtype=complex)
    dead = np.zeros(b, dtype=bool)
    for k in range(0, dim - 1, 2):
        pivot = k + 1 + np.abs(A[k + 1 :, k]).argmax(axis=0)
        swap = np.flatnonzero(pivot != k + 1)
        if swap.size:
            # rows and columns before k are never read again
            tgt = pivot[swap]
            rows = A[k + 1, k:, swap]
            A[k + 1, k:, swap] = A[tgt, k:, swap]
            A[tgt, k:, swap] = rows
            cols = A[k:, k + 1, swap]
            A[k:, k + 1, swap] = A[k:, tgt, swap]
            A[k:, tgt, swap] = cols
            pf[swap] = -pf[swap]
        piv = A[k, k + 1]
        zero = piv == 0
        dead |= zero
        pf *= piv
        if k + 2 < dim:
            tau = A[k, k + 2 :] / np.where(zero, 1.0, piv)
            col = A[k + 2 :, k + 1]
            outer = tau[:, None] * col[None]
            A[k + 2 :, k + 2 :] += outer - outer.swapaxes(0, 1)
    pf[dead] = 0.0
    return pf


def _pfaffian_batch(mats) -> np.ndarray:
    """Pfaffians of a batch of antisymmetric matrices (B, d, d).

    Partially pivoted Parlett-Reid elimination (Wimmer, arXiv:1102.3440),
    run batch-last so that every step acts on contiguous length-b vectors,
    over chunks of b = _PF_CHUNK_BYTES // (16 d^2) matrices so that the
    trailing updates stay in cache. The input is never written.
    """
    mats = np.asarray(mats)
    batch, dim, _ = mats.shape
    out = np.empty(batch, dtype=complex)
    chunk = max(1, _PF_CHUNK_BYTES // (16 * dim * dim))
    for start in range(0, batch, chunk):
        # astype always copies: for a chunk of one matrix moveaxis returns a
        # view that already counts as C-contiguous
        A = np.moveaxis(mats[start : start + chunk], 0, -1).astype(complex, order="C")
        out[start : start + A.shape[2]] = _parlett_reid(A)
    return out


def pfaffian_numeric(form) -> complex:
    """Pfaffian of an antisymmetric matrix by Parlett-Reid elimination.

    Partial pivoting keeps the congruence transforms bounded; the running
    product of the 2x2 block pivots times the permutation sign is Pf(A),
    with Pf([[0, a], [-a, 0]]) = a and Pf(A)^2 = det(A). This is the batch
    kernel `_pfaffian_batch` on a batch of one.
    """
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
    A = (A - A.T) / 2.0
    return complex(_pfaffian_batch(A[None])[0])


def _is_exact_scalar(x) -> bool:
    return isinstance(x, (GaussianRational, Fraction)) or (
        isinstance(x, int) and not isinstance(x, bool)
    )


def _exact_rank(rows) -> int:
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


def matrix_rank(matrix) -> int:
    """Rank of a matrix.

    Exact fraction elimination when all entries are exact scalars, SVD with
    threshold _RANK_RTOL * s_max otherwise.
    """
    if isinstance(matrix, AlternatingForm):
        return _exact_rank(matrix.rows())
    if not isinstance(matrix, np.ndarray):
        rows = [list(r) for r in matrix]
        if rows and all(_is_exact_scalar(x) for r in rows for x in r):
            return _exact_rank(rows)
        matrix = np.array(
            [[complex(x) for x in r] for r in rows] if rows else [], dtype=complex
        )
    A = np.asarray(matrix, dtype=complex)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > _RANK_RTOL * s[0]).sum())
