"""Propagators as alternating forms on C^(2n+2).

A real 4-vector embeds in a 2x2 complex block whose determinant is the
euclidean square; each edge of a loop graph then defines an alternating
form whose pairing with an identity-framed 2-plane (the chart of
complexified momentum space inside the Grassmannian of 2-planes) evaluates
the edge propagator (loop momentum + shift)^2 + m^2. Summed with positive
weights the forms stay nonzero on the real slice, and their symbolic
pfaffian squares to the second Symanzik polynomial times a constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    AlternatingForm,
    GaussianRational,
    MultiPoly,
    matrix_rank,
    pfaffian_symbolic,
)
from .errors import (
    DegenerateInput,
    StructuralError,
    UnsupportedTopology,
    ValidationError,
)
from .graphs import (
    CycleBasis,
    FourVector,
    Graph,
    MomentumRouting,
    cycle_basis,
    loop_number,
    route_momenta,
)
from .symanzik import SymanzikPair, second_symanzik

if TYPE_CHECKING:
    import numpy as np

# absolute tolerance of TwistorPoint.is_real_slice on w = (-conj z2, conj z1)
_REAL_SLICE_TOL = 1e-12
# random rational points probed for the residual when Pf^2 != lambda^2 S2^2
_N_PROBE = 100

__all__ = [
    "TwistorBlock",
    "TwistorPoint",
    "PropagatorForm",
    "embed4",
    "build_propagator_form",
    "propagator_forms",
    "pair",
    "o_block_form",
    "quadratic_rank_check",
    "PfaffianSymanzikRatio",
    "pfaffian_symanzik_ratio",
]


class TwistorBlock(NamedTuple):
    """2x2 block (z1, z2; w1, w2) with det = euclidean square of the source."""

    z1: GaussianRational
    z2: GaussianRational
    w1: GaussianRational
    w2: GaussianRational

    def det(self) -> GaussianRational:
        return self.z1 * self.w2 - self.z2 * self.w1


def embed4(x) -> TwistorBlock:
    """Exact block of a real 4-vector:
    z1 = x1 + i x2, z2 = i x3 + x4, w1 = i x3 - x4, w2 = x1 - i x2.

    Real-linear, and det(block) = x1^2 + x2^2 + x3^2 + x4^2 identically.
    """
    v = x if isinstance(x, FourVector) else FourVector.make(x)
    return TwistorBlock(
        GaussianRational(v.x1, v.x2),
        GaussianRational(v.x4, v.x3),
        GaussianRational(-v.x4, v.x3),
        GaussianRational(v.x1, -v.x2),
    )


@dataclass(frozen=True)
class TwistorPoint:
    """Identity-framed 2-plane, rows (1 0 z1^1 z2^1 ...; 0 1 w1^1 w2^1 ...).

    On the real slice w1 = -conj(z2) and w2 = conj(z1) per block.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(complex(c) for c in b) for b in self.blocks)
        if any(len(b) != 4 for b in blocks):
            raise ValidationError("each block needs (z1, z2, w1, w2)")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def real_slice(cls, xs) -> "TwistorPoint":
        """Point of the euclidean slice built from per-loop real 4-vectors."""
        import numpy as np

        arr = np.atleast_2d(np.asarray(xs, dtype=float))
        if arr.shape[1] != 4:
            raise ValidationError("loop vectors need 4 components")
        return cls(tuple(embed4(x) for x in arr))

    @property
    def n(self) -> int:
        return len(self.blocks)

    def rows(self) -> np.ndarray:
        import numpy as np

        dim = 2 * self.n + 2
        rows = np.zeros((2, dim), dtype=complex)
        rows[0, 0] = 1.0
        rows[1, 1] = 1.0
        for k, (z1, z2, w1, w2) in enumerate(self.blocks):
            rows[0, 2 * k + 2] = z1
            rows[0, 2 * k + 3] = z2
            rows[1, 2 * k + 2] = w1
            rows[1, 2 * k + 3] = w2
        return rows

    def is_real_slice(self) -> bool:
        return all(
            abs(w1 + z2.conjugate()) <= _REAL_SLICE_TOL
            and abs(w2 - z1.conjugate()) <= _REAL_SLICE_TOL
            for z1, z2, w1, w2 in self.blocks
        )


@dataclass(frozen=True)
class PropagatorForm:
    """Alternating form evaluating one edge propagator, with its provenance."""

    form: AlternatingForm
    edge_id: int
    alpha: tuple
    shift: FourVector
    mass: Fraction

    def to_numpy(self) -> np.ndarray:
        return self.form.to_numpy()


def build_propagator_form(
    g: Graph,
    edge_id,
    basis: CycleBasis | None = None,
    routing: MomentumRouting | None = None,
) -> PropagatorForm:
    """Q_e = u w^T - w u^T + m^2 (e1 e2^T - e2 e1^T) with

        u = z1(s) e1* + w1(s) e2* + sum_k alpha_k e_{2k+1}*,
        w = z2(s) e1* + w2(s) e2* + sum_k alpha_k e_{2k+2}*,

    where s is the edge's routed shift and alpha its cycle-basis column.
    Pairing against an identity-framed real point returns exactly
    (sum_k alpha_k x_k + s)^2 + m^2.
    """
    basis = basis or cycle_basis(g)
    routing = routing or route_momenta(g)
    n = basis.n
    e_idx = g.index_of(edge_id)
    edge = g.edges[e_idx]
    alpha = basis.column(e_idx)
    m = edge.mass
    shift = routing.of(edge.id)
    blk = embed4(shift)

    dim = 2 * n + 2
    zero = GaussianRational()
    u = [zero] * dim
    w = [zero] * dim
    u[0], u[1] = blk.z1, blk.w1
    w[0], w[1] = blk.z2, blk.w2
    for k in range(n):
        u[2 * k + 2] = GaussianRational.coerce(alpha[k])
        w[2 * k + 3] = GaussianRational.coerce(alpha[k])
    q = AlternatingForm.from_wedge(u, w) + o_block_form(n).scaled(m * m)
    return PropagatorForm(q, edge.id, tuple(alpha), shift, m)


def propagator_forms(
    g: Graph,
    basis: CycleBasis | None = None,
    routing: MomentumRouting | None = None,
) -> list:
    """One PropagatorForm per edge, in edge order."""
    basis = basis or cycle_basis(g)
    routing = routing or route_momenta(g)
    return [build_propagator_form(g, e.id, basis, routing) for e in g.edges]


def o_block_form(n: int) -> AlternatingForm:
    """The wedge e1 ^ e2 on C^(2n+2).

    Paired with a framed point it contributes the constant 1 (so m^2 once
    scaled); paired with a general real-slice frame it gives the O-block
    minor |z1^0|^2 + |z2^0|^2 >= 0.
    """
    dim = 2 * n + 2
    zero = GaussianRational()
    one = GaussianRational(Fraction(1))
    e1 = [zero] * dim
    e2 = [zero] * dim
    e1[0] = one
    e2[1] = one
    return AlternatingForm.from_wedge(e1, e2)


def _form_matrix(q) -> np.ndarray:
    import numpy as np

    if isinstance(q, PropagatorForm):
        return q.form.to_numpy()
    if isinstance(q, AlternatingForm):
        return q.to_numpy()
    return np.asarray(q, dtype=complex)


def pair(q, point) -> complex:
    """row1 . Q . row2^T against the point's identity-framed rows, or against
    any 2-plane frame given as a (2, dim) array of rows.

    For points on the real slice this is the euclidean propagator, a real
    number >= m^2.
    """
    import numpy as np

    rows = point.rows() if isinstance(point, TwistorPoint) else np.asarray(point, dtype=complex)
    m = _form_matrix(q)
    if rows.shape != (2, m.shape[0]):
        raise StructuralError("point and form dimensions disagree")
    return complex(rows[0] @ m @ rows[1])


def quadratic_rank_check(alpha: AlternatingForm) -> int:
    """Rank of the Hessian of psi -> <(e1 + psi e1) ^ (e2 + psi e2), alpha>
    over the 4n real parameters of psi.

    Only the block of alpha away from (e1, e2) enters: the quadratic part is
    <psi(e1) ^ psi(e2), alpha>, so any component along e1* ^ e2* (the mass
    direction) is a constant shift and drops out. A decomposable alpha whose
    projection keeps two independent factors scores exactly 4.
    """
    if alpha.is_zero():
        raise ValidationError("alpha must be nonzero")
    dim = alpha.dim
    if dim < 4 or dim % 2:
        raise StructuralError("alpha must live on C^(2n+2) with n >= 1")
    nx = dim - 2
    half = Fraction(1, 2)
    zero = GaussianRational()
    size = 2 * nx
    gram = [[zero] * size for _ in range(size)]
    for i in range(nx):
        for j in range(nx):
            if i == j:
                continue
            c = alpha[i + 2, j + 2] * half  # coefficient of x_i y_j
            gram[i][nx + j] = c
            gram[nx + j][i] = c
    return matrix_rank(gram)


@dataclass(frozen=True)
class PfaffianSymanzikRatio:
    """Comparison of Pf(sum_e a_e Q_e)^2 against S2(a)^2."""

    lambda2: complex
    residual: float
    exact: bool
    lambda2_exact: GaussianRational
    pfaffian: MultiPoly
    symanzik: SymanzikPair


def pfaffian_symanzik_ratio(
    g: Graph,
    basis: CycleBasis | None = None,
    routing: MomentumRouting | None = None,
) -> PfaffianSymanzikRatio:
    """lambda := Pf / S2 at a reference interior point; the identity
    Pf^2 = lambda^2 S2^2 is exact iff Pf - lambda S2 is the zero polynomial.

    That is the same test as for Pf^2 - lambda^2 S2^2: Q(i)[a] is an
    integral domain and Pf^2 - lambda^2 S2^2 = (Pf - lambda S2)(Pf + lambda S2),
    so the square difference vanishes iff one factor does, and if
    Pf + lambda S2 = 0 then Pf(ref) = 0 at the reference point, so lambda = 0
    and Pf = 0 as well. When the identity holds the residual is exactly 0;
    otherwise it is the worst relative value of Pf^2 - lambda^2 S2^2 over
    _N_PROBE random rational points, computed exactly there.
    """
    n = loop_number(g)
    n_edges = g.n_edges
    if n_edges != 2 * n + 2:
        raise UnsupportedTopology(
            f"pfaffian form of S2 needs N = 2n+2 edges; got N={n_edges}, n={n}"
        )
    basis = basis or cycle_basis(g)
    routing = routing or route_momenta(g)
    forms = propagator_forms(g, basis, routing)
    pf = pfaffian_symbolic([f.form for f in forms])
    sym = second_symanzik(g, basis)

    reference = [1] * n_edges  # interior up to overall scale; the ratio is scale-free
    s2_ref = sym.s2.evaluate(reference)
    if s2_ref.is_zero():
        raise DegenerateInput("S2 vanishes at the reference point")
    lam = pf.evaluate(reference) / s2_ref
    lam2 = lam * lam

    exact = (pf - sym.s2 * lam).is_zero()
    residual = 0.0
    if not exact:
        rnd = random.Random(2012)
        for _ in range(_N_PROBE):
            pt = [Fraction(rnd.randint(1, 60), rnd.randint(1, 60)) for _ in range(n_edges)]
            pf_pt = pf.evaluate(pt)
            s2_pt = sym.s2.evaluate(pt)
            dv = abs(complex(pf_pt * pf_pt - lam2 * (s2_pt * s2_pt)))
            pv = abs(complex(pf_pt)) ** 2
            residual = max(residual, dv / max(pv, 1e-300))
    return PfaffianSymanzikRatio(complex(lam2), residual, exact, lam2, pf, sym)
