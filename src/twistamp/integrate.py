"""Monte Carlo evaluation of the three amplitude representations.

direct      integral over R^(4n) of 1 / prod_e P_e(x), importance-sampled
            from a mixture with one channel per spanning tree: each channel
            draws its chord momenta from heavy-tailed 4-dimensional
            Student-t laws, and the mixture density is the first Symanzik
            polynomial at the per-edge densities (see direct_amplitude);
parametric  integral over the unit simplex of 1 / S2(a)^2, with S2 evaluated
            unexpanded as F0(a) + (sum_e m_e^2 a_e) U(a), the 2-forest sum
            and the spanning-tree sum each compiled once into a
            multivariate Horner plan (see _poly_evaluator);
pfaffian    integral over the unit simplex of 1 / |Pf(sum_e a_e Q_e)|^2,
            evaluated by the block factorization of the forms: with the
            loop block L (x) J, Pf = det L (b - c0^T (L^-1 (x) J) c1), det L
            being S1 and the second factor S2 / S1. One real matmul maps a
            lane chunk to L, b, c0 and c1, and an unpivoted elimination of L
            (positive definite inside the simplex) gives both factors while
            the chunk is still in cache (see _pfaffian_batch). The general
            Parlett-Reid kernel serves `algebra.pfaffian_numeric` only.

The two simplex integrals are one estimate with two denominators
(_simplex_integral), formed with their weights one chunk of _SIMPLEX_LANES
points at a time, while the chunk is in cache. The integrands blow up like
1/F_tr(a)^2 near the faces where S2 vanishes, F_tr being the largest
monomial of S2, so a uniform proposal gives them infinite variance once
n >= 2. Each simplex batch is therefore half uniform and half drawn from
Borinsky's tropical sampler (density 1/(I_tr F_tr(a)^2), arXiv:2008.12310),
and every sample is weighted by the balance heuristic f(a)/q(a) against the
mixture density q; the weights are bounded by I_tr / ((1 - share) c_min^2),
c_min the smallest coefficient of S2. The sampler draws and ranks in the
same lane chunks. One-loop graphs, where S2 has no zero on the closed
simplex, keep the plain uniform proposal. Graphs with a divergent subgraph
are refused.

All samplers derive their random stream deterministically from
(seed, method, batch index). One loop, _mean, serves every Monte Carlo
estimate (the three above and the Feynman check): it evaluates each batch's
weights, refuses a non-finite one, and merges each batch's count, mean and
sum of squared deviations in batch order, so a fixed config reproduces
bit-identical estimates.

Every batch is drawn and evaluated in a workspace (see _workspace): each
thread has one flat float64 arena, made by its first estimate, grown but
never shrunk, and kept for the life of the thread, so its pages are faulted
once and not once per batch. An estimate checks the arena out once, sized
for its largest batch, and carves its draws and scratch from it; since
estimates in a thread run one at a time, the arena ends the size of the
largest one (14-16 MB at 4 loops). A call that finds its thread's
arena checked out, such as a second live batch generator or an estimate
run between another's batches, draws into a private array instead, with the
same numbers. Which buffers are used never changes an estimate's bits.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    PrecisionError,
    UnsupportedTopology,
    ValidationError,
)
from .graphs import (
    Graph,
    _fundamental_cycles,
    _is_int,
    _subset_loop_numbers,
    loop_number,
    route_momenta,
)
from .symanzik import (
    first_symanzik_det,
    first_symanzik_trees,
    spanning_trees,
    two_forest_polynomial,
)
from .twistor import propagator_forms

__all__ = [
    "IntegrationConfig",
    "IntegrationResult",
    "direct_amplitude",
    "parametric_amplitude",
    "pfaffian_amplitude",
    "FeynmanTrickResult",
    "feynman_trick_check",
    "ExtractedConstants",
    "extract_constants",
    "log_divergent_integrand",
]

# Share of each simplex batch drawn uniformly; the tropical sampler draws the
# rest. Any share below 1 bounds the weights; the uniform half keeps the
# weights small where S2 is far from zero.
_UNIFORM_SHARE = 0.5

# Samples per batch. The batch index seeds each batch's random stream, so the
# batch size is part of the estimate; it is fixed so that the fields a report
# records (method, samples, seed, qmc) reproduce its numbers.
_BATCH_SIZE = 65_536

# Lanes per chunk of a batch. The tropical sampler draws and ranks, the
# simplex integrands evaluate their denominators and weights, and the direct
# estimator its channels and logs, one chunk at a time, so that a chunk's
# rows stay in cache from one step to the next. On a
# 2-vCPU Xeon with 2 MiB of L2 per core, assembly plus block kernel took
# 22-27 ms per 65 536 loop4 points at 2 621 lanes (a 1 MiB working set),
# 14-18 ms at 5 242-16 384 and 18-19 ms unchunked. 16 384 lanes raised the
# peak RSS of the mc-large benchmark from 85.3 to 86.5 MB.
_SIMPLEX_LANES = 8_192

_METHOD_CODE = {"direct": 1, "parametric": 2, "pfaffian": 3, "feynman": 4}


@dataclass(frozen=True)
class IntegrationConfig:
    """Sampler settings; everything that affects the random stream is here."""

    n_samples: int = 100_000
    seed: int = 0
    qmc: bool = False

    def __post_init__(self):
        if not _is_int(self.n_samples) or self.n_samples < 1000:
            raise ValidationError("sample count must be an integer >= 1000")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if not isinstance(self.qmc, bool):
            raise ValidationError("qmc must be True or False")


@dataclass
class IntegrationResult:
    """Estimate with its standard error and full reproducibility tags."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int
    method: str
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


class _Accumulator:
    """Count, mean and sum of squared deviations M2, merged batch by batch
    in batch order (Chan, Golub and LeVeque's pairwise update). Each batch
    is reduced in two passes, mean first and then the deviations from it,
    so a spread far below the mean is not lost to cancellation."""

    def __init__(self):
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        count = values.size
        mean = float(values.sum()) / count
        m2 = float(np.square(values - mean).sum())
        total = self._count + count
        delta = mean - self._mean
        self._mean += delta * (count / total)
        self._m2 += m2 + delta * delta * (self._count * count / total)
        self._count = total

    def finalize(self, factor: float = 1.0):
        n = self._count
        return factor * self._mean, factor * math.sqrt(self._m2) / n


def _batches(total: int):
    index = 0
    done = 0
    while done < total:
        count = min(_BATCH_SIZE, total - done)
        yield index, count
        index += 1
        done += count


def _rng(seed: int, method: str, batch_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _METHOD_CODE[method], batch_index])


def _pieces(lo: int, hi: int, width: int):
    """Lanes lo..hi as consecutive (lo, hi) pieces of at most `width` lanes,
    none of them one lane wide unless all of them are: numpy multiplies by a
    single column through another BLAS call than by several, whose bits can
    differ, and a sample's value must not depend on where its batch or its
    channel's block is cut."""
    while hi - lo > width:
        step = width - 1 if hi - lo == width + 1 else width
        yield lo, lo + step
        lo += step
    if hi > lo:
        yield lo, hi


def _lane_chunks(count: int):
    """Slices of at most `_SIMPLEX_LANES` lanes covering range(count), as _pieces cuts it."""
    return (slice(lo, hi) for lo, hi in _pieces(0, count, _SIMPLEX_LANES))


def _largest_batch(cfg: IntegrationConfig) -> int:
    return min(_BATCH_SIZE, cfg.n_samples)


class _Arena:
    """One thread's workspace: a flat float64 buffer that only grows, and
    whether an estimate has it checked out."""

    def __init__(self):
        self.buffer = np.empty(0)
        self.busy = False


_threads = threading.local()


def _arena() -> _Arena:
    """The calling thread's arena, made on first use and kept for the life
    of the thread."""
    arena = getattr(_threads, "arena", None)
    if arena is None:
        arena = _threads.arena = _Arena()
    return arena


@contextlib.contextmanager
def _workspace(*shapes):
    """Flat float64 regions, one per shape and each of its size, laid end to
    end in the calling thread's arena (grown first if it is too small), for
    one estimate. While the arena is checked out (two live batch
    generators, a nested call) the regions come from a private array
    instead. They hold whatever their last user left in them."""
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    arena = _arena()
    claimed = not arena.busy
    if claimed:
        if arena.buffer.size < total:
            arena.buffer = np.empty(0)  # free the old pages before taking new ones
            arena.buffer = np.empty(total)
        arena.busy = True
        buffer = arena.buffer
    else:
        buffer = np.empty(total)
    ends = itertools.accumulate(sizes)
    try:
        yield [buffer[end - size : end] for size, end in zip(sizes, ends)]
    finally:
        if claimed:
            arena.busy = False


def _view(region: np.ndarray, *shape) -> np.ndarray:
    """The first prod(shape) entries of a flat region as a C-contiguous
    array of that shape."""
    return region[: math.prod(shape)].reshape(shape)


class _TropicalSampler:
    """Borinsky's tropical sampler for integrands ~ 1/S2^2 on the simplex
    (arXiv:2008.12310; massive case as in arXiv:2302.08955).

    Built from the vanishing orders m(S) of S2 over the edge subsets S
    (bitmasks): omega(S) = |S| - 2 m(S), K(0) = 1,
    K(S) = sum_{e in S} K(S - e) / omega(S), and I_tr = sum_e K(E - e).
    A draw has density 1 / (I_tr F_tr(a)^2) on the simplex, where
    F_tr(a) = max over the monomials a^k of S2. Points are held as columns,
    shape (N, B). `orders` and `omega` are held as float64, so the per-lane
    gathers need no conversion.
    """

    def __init__(self, n: int, orders: np.ndarray):
        self.n = n
        self.n_edges = n_edges = len(orders).bit_length() - 1
        self.full = full = len(orders) - 1
        self.orders = orders.astype(float)
        bits = 1 << np.arange(n_edges)
        self.bit_values = bits.astype(float)
        masks = np.arange(full + 1)
        member = (masks[:, None] & bits) != 0  # (2^N, N)
        self.omega = member.sum(axis=1) - 2.0 * self.orders
        k_table = [1.0] * (full + 1)
        for mask in range(1, full):
            k_table[mask] = math.fsum(
                k_table[mask ^ b] for b in bits.tolist() if mask & b
            ) / float(self.omega[mask])
        k_table = np.array(k_table)
        self.i_tr = math.fsum(k_table[full ^ b] for b in bits.tolist())
        # Walker alias tables for removing e from S with weight K(S - e):
        # pair the lightest open slot with the heaviest (Robin Hood), all
        # subsets at once; slot j keeps itself with probability prob[S, j]
        pick = np.where(member, k_table[masks[:, None] ^ bits], 0.0)
        total = pick.sum(axis=1, keepdims=True)
        mass = n_edges * pick / np.where(total > 0.0, total, 1.0)
        prob = np.ones((full + 1, n_edges))
        alias = np.tile(np.arange(n_edges), (full + 1, 1))
        open_slot = np.ones((full + 1, n_edges), dtype=bool)
        for _ in range(n_edges - 1):
            light = np.argmin(np.where(open_slot, mass, np.inf), axis=1)
            open_slot[masks, light] = False
            heavy = np.argmax(np.where(open_slot, mass, -np.inf), axis=1)
            prob[masks, light] = mass[masks, light]
            alias[masks, light] = heavy
            mass[masks, heavy] -= 1.0 - mass[masks, light]
        self.prob = prob.ravel()
        self.alias = alias.ravel()

    def draw(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Tropical points into the columns `out` (N, B) and their log F_tr,
        from columns of 2N - 2 uniforms in [0, 1), shape (2N - 2, B): the
        first N - 1 rows pick the edges in the order of decreasing a_e, the
        rest set the gaps between their logarithms."""
        n_edges = self.n_edges
        count = u.shape[1]
        log_a = np.empty(count * n_edges)  # lane-major log a_e: lane j, edge e at j N + e
        base = np.arange(0, count * n_edges, n_edges)
        subset = np.full(count, self.full)
        ell = np.zeros(count)
        log_f = np.zeros(count)
        for step in range(n_edges - 1):
            x = u[step] * n_edges
            slot = np.minimum(x.astype(np.int64), n_edges - 1)
            flat = subset * n_edges + slot
            edge = np.where(x - slot < self.prob[flat], slot, self.alias[flat])
            log_a[base + edge] = ell
            subset ^= 1 << edge
            gap = np.log1p(-u[n_edges - 1 + step]) / self.omega[subset]
            ell += gap
            log_f += self.orders[subset] * gap
        log_a[base + np.frexp(subset)[1] - 1] = ell  # the one edge left
        np.exp(log_a, out=log_a)
        out[...] = log_a.reshape(count, n_edges).T
        total = out.sum(axis=0)
        out /= total
        log_f -= (self.n + 1) * np.log(total)
        return log_f

    def log_f(self, columns: np.ndarray) -> np.ndarray:
        """log F_tr at simplex points (N, B): sum_e (m(S_e) - m(S_e - e))
        log a_e, where S_e holds e and every edge ranked after it in
        decreasing a. The ranking comes from pairwise comparisons, the lower
        index first on ties; the value does not depend on how ties are broken.
        S_e - e is the product of the bit values with the 0/1 rows `after`,
        exact because it sums distinct powers of two."""
        n_edges = self.n_edges
        after = np.empty(columns.shape)  # row f: 1 where f ranks after e
        out = np.zeros(columns.shape[1])
        for e in range(n_edges):
            np.less(columns[:e], columns[e], out=after[:e])
            after[e] = 0.0
            np.less_equal(columns[e + 1 :], columns[e], out=after[e + 1 :])
            mask = (self.bit_values @ after).astype(np.intp)
            exponent = self.orders[mask | 1 << e] - self.orders[mask]
            out += exponent * np.log(np.maximum(columns[e], np.finfo(float).tiny))
        return out

    def mix(self, columns: np.ndarray, u: np.ndarray, log_q: np.ndarray):
        """Completes a batch of columns (N, B) whose first B - u.shape[1]
        lanes hold uniform points: the rest get the tropical draws from u,
        and log_q (B) the log of the mixture density q = share (N-1)! +
        (1 - share) / (I_tr F_tr^2), share the uniform part. Both parts run
        in chunks of `_SIMPLEX_LANES` lanes. Returns (points, log_q), the
        points being the rows of columns.T."""
        count = columns.shape[1]
        n_uniform = count - u.shape[1]
        for lanes in _lane_chunks(n_uniform):
            log_q[lanes] = self.log_f(columns[:, lanes])
        drawn, drawn_log_f = columns[:, n_uniform:], log_q[n_uniform:]
        for lanes in _lane_chunks(u.shape[1]):
            drawn_log_f[lanes] = self.draw(u[:, lanes], drawn[:, lanes])
        share = n_uniform / count
        log_uniform = math.log(share) + math.lgamma(self.n_edges) if share else -math.inf
        log_q *= -2.0
        log_q += math.log((1.0 - share) / self.i_tr)
        np.logaddexp(log_uniform, log_q, out=log_q)
        return columns.T, log_q


def _tropical_sampler(n: int, orders: np.ndarray):
    """The sampler, or None when m(S) = 0 for every proper subset: then S2
    has no zero on the closed simplex (for N = 2n + 2 exactly the one-loop
    graphs), uniform weights are already bounded and stay unmixed."""
    return _TropicalSampler(n, orders) if orders[1:-1].any() else None


def _draw_shapes(count: int, dim: int, tropical) -> list:
    """Shapes of a batch of `count` simplex samples: the points (B, N), or
    with a tropical sampler the columns (N, B), log q (B) and the tropical
    part's uniforms (2N - 2, B - B_uniform)."""
    if tropical is None:
        return [(count, dim)]
    n_drawn = count - int(count * _UNIFORM_SHARE)
    return [(dim, count), (count,), (2 * dim - 2, n_drawn)]


def _simplex_batches(cfg: IntegrationConfig, dim: int, method: str, tropical=None, regions=None):
    """Uniform (Dirichlet) or scrambled-Sobol batches on the unit simplex.

    With a tropical sampler, each batch is its first `_UNIFORM_SHARE` drawn
    uniformly and the rest tropically, yielded as (points, log of the
    mixture density). Under QMC one Sobol point of dimension 2N - 2 feeds
    each sample: the uniform part maps its first N coordinates, the tropical
    part uses all of them.

    Every batch is drawn into `regions`, flat regions of the
    `_draw_shapes` at the largest batch, or into a workspace checked out
    here when none are given; so a batch holds only until the next one is
    drawn. The Dirichlet part is drawn in lane chunks, which consume the
    stream as one draw of the whole part does.
    """
    width = dim if tropical is None else 2 * dim - 2
    if cfg.qmc:
        from scipy.stats import qmc  # scipy loads only on the paths that use it

        sobol = qmc.Sobol(d=width, scramble=True, seed=_rng(cfg.seed, method, 0))
    alpha = np.ones(dim)
    if regions is None:
        owned = _workspace(*_draw_shapes(_largest_batch(cfg), dim, tropical))
    else:
        owned = contextlib.nullcontext(regions)
    with owned as regions:
        for index, count in _batches(cfg.n_samples):
            n_uniform = count if tropical is None else int(count * _UNIFORM_SHARE)
            batch = [
                _view(region, *shape)
                for region, shape in zip(regions, _draw_shapes(count, dim, tropical))
            ]
            uniform = batch[0] if tropical is None else batch[0][:, :n_uniform].T
            if cfg.qmc:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # non power-of-two draws
                    u = sobol.random(count)
                e = -np.log(np.clip(1.0 - u[:n_uniform, :dim], 1e-16, 1.0))
                np.divide(e, e.sum(axis=1, keepdims=True), out=uniform)
                u = u[n_uniform:].T
            else:
                rng = _rng(cfg.seed, method, index)
                for lanes in _lane_chunks(n_uniform):
                    uniform[lanes] = rng.dirichlet(alpha, size=lanes.stop - lanes.start)
                if tropical is not None:
                    u = rng.random(out=batch[2])
            if tropical is None:
                yield uniform
            else:
                yield tropical.mix(batch[0], u, batch[1])


def _mean(method: str, batches, weights, factor: float = 1.0):
    """factor * mean of weights(batch) over the batches, with its standard
    error. Every weight must be finite."""
    acc = _Accumulator()
    for index, batch in enumerate(batches):
        values = weights(batch)
        finite = np.isfinite(values)
        if not finite.all():
            raise InvariantViolation(
                f"non-finite {method}-method sample in batch {index} "
                f"(sample {int(np.argmin(finite))})"
            )
        acc.add(values)
        del values, finite  # hold neither while the next batch is drawn
    return acc.finalize(factor)


def _simplex_integral(cfg: IntegrationConfig, n: int, orders, method: str, integrand, *scratch):
    """Integral over the unit simplex of 1 / d(a), where the denominator d
    vanishes like S2^2 (so m(S) of `orders` governs it), with its standard
    error. One workspace holds its draws, its weights and flat regions of
    the `scratch` shapes. integrand(points, regions) is called once per
    batch and returns denominators(lanes, out), which writes d at one lane
    chunk into out; the chunk's weights are then formed in place, 1/d under
    the uniform proposal and exp(-(log d + log q)) under the mixture q."""
    n_edges = 2 * n + 2
    tropical = _tropical_sampler(n, orders)
    batch = _largest_batch(cfg)
    draws = _draw_shapes(batch, n_edges, tropical)
    with _workspace(*draws, (batch,), *scratch) as regions:
        batches = _simplex_batches(cfg, n_edges, method, tropical, regions[: len(draws)])
        weights_at, *own = regions[len(draws) :]

        def weights(draw):
            points, log_q = (draw, None) if tropical is None else draw
            values = _view(weights_at, len(points))
            denominators = integrand(points, own)
            for lanes in _lane_chunks(len(points)):
                chunk = values[lanes]
                denominators(lanes, chunk)
                if log_q is None:
                    np.divide(1.0, chunk, out=chunk)
                else:
                    np.log(chunk, out=chunk)
                    chunk += log_q[lanes]
                    np.negative(chunk, out=chunk)
                    np.exp(chunk, out=chunk)
            return values

        factor = 1.0 if tropical else 1.0 / math.factorial(n_edges - 1)
        return _mean(method, batches, weights, factor)


def _horner_program(terms: list, nvars: int) -> tuple:
    """Multivariate Horner form of a real polynomial, given as (exponents,
    coefficient) pairs, as straight-line code over operands; returns
    (program, constants, number of registers, result operand).

    The form is x_v * Q + R with v the variable present in the most
    nonconstant terms (the lowest index on ties), Q the terms holding x_v
    divided by it and R the rest, each factored the same way down to
    constants. Operands are indexed as the N input columns, then the
    registers, then the constants; an instruction (ufunc, a, b, out) sets
    operand out to ufunc(a, b). Q is computed in register d and R in d + 1;
    x_v does not occur in R, so every step up a register drops a variable:
    at most N + 1 registers."""
    constants: list = []
    program: list = []
    depth = 0

    def const(value):
        constants.append(value)
        return ("c", len(constants) - 1)

    def emit(ufunc, a, b, d):
        nonlocal depth
        depth = max(depth, d + 1)
        program.append((ufunc, a, b, ("r", d)))
        return ("r", d)

    def factor(terms, d):
        counts = [sum(1 for exps, _ in terms if exps[v]) for v in range(nvars)]
        top = max(counts, default=0)
        if not top:  # only the constant term is left
            return const(terms[0][1] if terms else 0.0)
        v = counts.index(top)
        q = factor(
            [(exps[:v] + (exps[v] - 1,) + exps[v + 1 :], c) for exps, c in terms if exps[v]], d
        )
        x = ("x", v)
        if q[0] == "c" and constants[q[1]] == 1.0:  # 1 * x is x exactly
            t = x
        else:
            t = emit(np.multiply, x, q, d)
        rest = [(exps, c) for exps, c in terms if not exps[v]]
        if not rest:
            return t
        return emit(np.add, t, factor(rest, d + 1 if t[0] == "r" else d), d)

    result = factor(terms, 0)
    offset = {"x": 0, "r": nvars, "c": nvars + depth}

    def index(operand):
        return offset[operand[0]] + operand[1]

    program = [(f, index(a), index(b), index(out)) for f, a, b, out in program]
    return program, constants, depth, index(result)


def _poly_evaluator(poly):
    """Vectorized float64 evaluation of a MultiPoly with real coefficients on
    batches of points (B, N).

    The polynomial is compiled once into a multivariate Horner plan (see
    _horner_program), which then runs over exactly the points it is given:
    they are copied into contiguous columns, each instruction is one numpy
    add or multiply over them, and a unit factor is never multiplied in.
    Callers pass one lane chunk, whose columns and registers (16 rows, 1 MB
    for the 4-loop F0) then stay in cache. With nonnegative coefficients
    and points every operation adds or multiplies nonnegative numbers, so
    the relative error stays a few ulp. The values depend only on the
    points, not on their memory layout or on how many are evaluated at once.

    evaluate(points, out=None, work=None) writes the values into `out` (B)
    and runs in the flat region `work` of at least evaluate.work_size(B)
    entries; either is allocated when not given."""
    if any(c.im for _, c in poly.terms()):
        raise InvariantViolation("polynomial has a complex coefficient")
    nvars = poly.nvars
    program, constants, depth, result = _horner_program(
        [(exps, float(c.re)) for exps, c in poly.terms()], nvars
    )

    rows = nvars + depth

    def evaluate(points: np.ndarray, out=None, work=None) -> np.ndarray:
        count = len(points)
        out = np.empty(count) if out is None else out
        lanes = _view(np.empty(rows * count) if work is None else work, rows, count)
        lanes[:nvars] = points.T
        operands = [*lanes, *constants]
        for ufunc, a, b, target in program:
            ufunc(operands[a], operands[b], out=operands[target])
        out[...] = operands[result]
        return out

    evaluate.work_size = lambda count: rows * count
    return evaluate


def _vanishing_orders(g: Graph) -> np.ndarray:
    """m(S) for every edge subset S (bitmask over edge positions): the order
    at which S2 vanishes as the a_e with e in S go to 0. With every mass
    positive this is the loop number L(S) for S != E and n + 1 for S = E."""
    orders = np.array(_subset_loop_numbers(g))
    orders[-1] = loop_number(g) + 1
    return orders


def _double(value) -> float:
    """float(value) for a nonnegative rational, inf where that overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _require_convergent(g: Graph) -> tuple:
    """(n, N, vanishing orders) for an N = 2n+2 graph without divergent
    subgraphs: a proper edge subset S with omega(S) = |S| - 2 m(S) <= 0 is
    UV-divergent in momentum space and non-integrable at its simplex face.

    The estimators run in float64, so every squared mass must be a positive
    finite double, every momentum component a finite one, and so must
    (sum_v sum_i |q_v,i|)^2: it bounds every cut momentum |P|^2, hence every
    2-forest coefficient, form entry and direct offset."""
    for e in g.edges:
        mass_sq = _double(e.mass * e.mass)
        if not 0.0 < mass_sq < math.inf:
            side = "overflows" if mass_sq else "underflows to 0"
            raise ValidationError(f"edge {e.id}: the squared mass {side} in float64")
    for v, q in g.external_momenta.items():
        if any(_double(abs(c)) == math.inf for c in q):
            raise ValidationError(f"vertex {v!r}: a momentum component overflows float64")
    total = sum(abs(c) for q in g.external_momenta.values() for c in q)
    if _double(total * total) == math.inf:
        raise ValidationError(
            "the external momenta are too large: (sum of |q_v,i|)^2 overflows float64"
        )
    n = loop_number(g)
    n_edges = g.n_edges
    if n_edges != 2 * n + 2:
        raise UnsupportedTopology(
            f"amplitude integrals are implemented for N = 2n+2; got N={n_edges}, n={n}"
        )
    if n < 1:
        raise UnsupportedTopology("need at least one loop")
    orders = _vanishing_orders(g)
    for mask in range(1, len(orders) - 1):
        if mask.bit_count() <= 2 * orders[mask]:
            ids = [e.id for i, e in enumerate(g.edges) if mask >> i & 1]
            raise UnsupportedTopology(
                f"edges {ids} form a divergent subgraph ({len(ids)} edges, "
                f"{orders[mask]} loops); the integrals do not converge"
            )
    return n, n_edges, orders


def _tail_dof(n: int, orders: np.ndarray) -> float:
    """Degrees of freedom nu of the direct proposal's Student-t factors:
    half the largest value with 4|S| > (8 + nu) L(S) on every edge subset S
    that has a loop, capped at 1 (a Cauchy). L(S) is m(S) from `orders`,
    except L(E) = n. See direct_amplitude."""
    loops = orders.tolist()
    loops[-1] = n
    bound = min(
        (4 * mask.bit_count() - 8 * s) / s for mask, s in enumerate(loops) if s
    )
    return min(1.0, 0.5 * bound)


def _tree_channels(g: Graph) -> tuple:
    """Per spanning tree T with chords C (the n edges outside T), the (E, n)
    matrix A_T and the (E, 4) offset b_T with q = A_T y + b_T the edge
    momenta when the chords carry momenta y. Column c of A_T is the
    fundamental cycle that chord c closes in T, from the same tree walk as
    cycle_basis: +1 on c, 0 on the other chords and +/-1 on the tree path,
    so A_T is an integer matrix that does not depend on any cycle basis.
    b_T = s - A_T s_C for the routed shifts s. Returns them stacked, as
    floats."""
    routing = route_momenta(g)
    shifts = np.array([routing.of(e.id).floats() for e in g.edges])  # (E, 4)
    maps, offsets = [], []
    for tree in spanning_trees(g):
        chords = [e for e in range(g.n_edges) if e not in tree]
        a_t = np.array(_fundamental_cycles(g, tree), dtype=float).T
        maps.append(a_t)
        offsets.append(shifts - a_t @ shifts[chords])
    return np.array(maps), np.array(offsets)


def direct_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Monte Carlo estimate of the momentum-space integral
    int d^{4n}x / prod_e [(sum_k alpha_k(e) x_k + s_e)^2 + m_e^2].

    The proposal is a mixture with one channel per spanning tree T
    (multichannel sampling, Kleiss-Pittau hep-ph/9405257). Channel T draws
    the momentum of each chord c of T from a 4-dimensional Student-t h
    centred at q_c = 0, with nu degrees of freedom and the geometric mean of
    the masses as scale; conservation fixes the rest, q = A_T y + b_T with
    the columns of A_T the fundamental cycles of T (see _tree_channels), a
    map of unit Jacobian that no cycle basis enters. The channels are picked
    uniformly, so every sample is weighted by the balance heuristic f/g with
    the mixture density g = U(h(q_1), ..., h(q_E)) / T_count, U the first
    Symanzik polynomial (the sum over spanning trees of chord products;
    Bogner-Weinzierl arXiv:1002.3458) and T_count = U(1, ..., 1). U is a sum
    of positive terms, evaluated after dividing each sample's h by its
    largest entry (U is homogeneous of degree n), so g loses no precision
    to cancellation.

    Power counting. Let the momenta of a subgraph with s loops and e edges
    grow like r. Some spanning tree contains a spanning forest of it, so g
    decays no faster than r^(-(4+nu)s) there, while the integrand decays
    like r^(-2e); the variance int f^2/g is finite along the subgraph when
    4e > (8+nu)s. Convergence (e >= 2s+1 on proper subgraphs, 2n+2 edges on
    the whole graph) makes nu s < 4 enough. nu is half the largest value the
    condition allows over all edge subsets, capped at 1:
    nu = min(1, min_S (4|S| - 8 L(S)) / (2 L(S))). That is 1 on the box,
    the bowtie and the theta, 3- and 4-loop graphs of the benchmark, and
    2/3 on a 4-loop graph holding a K4 with one edge subdivided (7 edges,
    3 loops). Nested limits, where one subgraph's momenta outgrow
    another's, are not covered by this count.
    """
    start = time.perf_counter()
    n, n_edges, orders = _require_convergent(g)
    if cfg.qmc:
        raise ValidationError("qmc sampling is only wired up for the simplex methods")
    maps, offsets = _tree_channels(g)
    u_at = _poly_evaluator(first_symanzik_trees(g))
    n_trees = len(maps)
    mass_sq = np.array([float(e.mass) ** 2 for e in g.edges])[:, None]
    scale = math.exp(sum(math.log(float(e.mass)) for e in g.edges) / n_edges)

    nu = _tail_dof(n, orders)
    log_norm = (  # log of the Student-t density at q = 0
        math.lgamma((nu + 4.0) / 2.0)
        - math.lgamma(nu / 2.0)
        - 2.0 * math.log(nu * math.pi)
        - 4.0 * math.log(scale)
    )
    log_g0 = n * log_norm - math.log(n_trees)
    uniform = np.full(n_trees, 1.0 / n_trees)

    batch = _largest_batch(cfg)
    lanes = min(_SIMPLEX_LANES, batch)
    shapes = (
        (4, n, batch),  # chord momenta: component, chord, sample
        (n, batch),  # their chi^2 draws
        (batch,),  # log weights log f - log g
        (n_edges, lanes),  # |q_e|^2, then log h_e, of one lane chunk
        (n_edges, lanes),  # log(|q_e|^2 + m_e^2)
        (4, n_edges, lanes),  # q of one piece of a channel's block
        (lanes,),  # max_e log h_e
        (lanes,),  # log g
        (u_at.work_size(lanes),),
    )
    with _workspace(*shapes) as regions:
        chords_at, chi2_at, log_w_at, p2_at, log_p_at, q_at, top_at, log_g_at, work = regions
        p2_chunk = p2_at.reshape(n_edges, lanes)

        def finish(log_w, width):
            """log f - log g into log_w from the chunk's first `width` lanes."""
            p2 = p2_chunk[:, :width]
            log_p = _view(log_p_at, n_edges, width)
            np.add(p2, mass_sq, out=log_p)
            np.log(log_p, out=log_p)
            np.sum(log_p, axis=0, out=log_w)
            np.negative(log_w, out=log_w)  # log f
            np.divide(p2, nu * scale * scale, out=p2)
            np.log1p(p2, out=p2)
            p2 *= -0.5 * (nu + 4.0)  # log h
            top = np.max(p2, axis=0, out=_view(top_at, width))
            p2 -= top
            np.exp(p2, out=p2)
            log_g = u_at(p2.T, _view(log_g_at, width), work)
            np.log(log_g, out=log_g)
            log_g += np.multiply(top, n, out=top)
            log_g += log_g0
            log_w -= log_g

        def log_weights():
            for index, count in _batches(cfg.n_samples):
                rng = _rng(cfg.seed, "direct", index)
                per_tree = rng.multinomial(count, uniform).tolist()
                chords = rng.standard_normal(out=_view(chords_at, 4, n, count))
                # chi^2 with nu degrees of freedom; for nu = 1 a squared normal,
                # which numpy draws several times faster than chisquare(1)
                chi2 = _view(chi2_at, n, count)
                if nu == 1.0:
                    np.square(rng.standard_normal(out=chi2), out=chi2)
                else:
                    chi2[...] = rng.chisquare(nu, size=(n, count))
                chi2 /= nu
                chords *= np.divide(scale, np.sqrt(chi2, out=chi2), out=chi2)

                # Each channel's samples form one contiguous block of lanes.
                # Its pieces fill the lane chunk base..stop in order, and a
                # chunk is finished when the next piece would overflow it.
                log_w = _view(log_w_at, count)
                base = stop = 0
                for a_t, b_t, k in zip(maps, offsets, per_tree):
                    for lo, hi in _pieces(stop, stop + k, lanes):
                        if hi - base > lanes:
                            finish(log_w[base:lo], lo - base)
                            base = lo
                        q = _view(q_at, 4, n_edges, hi - lo)
                        np.matmul(a_t, chords[:, :, lo:hi], out=q)
                        q += b_t.T[:, :, None]
                        np.square(q, out=q)
                        q.sum(axis=0, out=p2_chunk[:, lo - base : hi - base])
                        stop = hi
                finish(log_w[base:stop], stop - base)
                yield log_w

        estimate, err = _mean("direct", log_weights(), lambda log_w: np.exp(log_w, out=log_w))
    return IntegrationResult(
        estimate, err, cfg.n_samples, cfg.seed, "direct", time.perf_counter() - start
    )


def parametric_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Monte Carlo estimate of int_simplex delta(1 - sum a) da / S2(a)^2.

    S2 is never expanded: it is evaluated as F0(a) + (sum_e m_e^2 a_e) U(a)
    (Bogner-Weinzierl arXiv:1002.3458), with F0 the 2-forest momentum sum
    and U the spanning-tree sum, each compiled into a Horner plan. On the
    4-loop benchmark graph that is 130 + 117 terms in place of 686. An S2
    that is not positive, or that overflows (its weight would read exactly
    0), is refused with InvariantViolation."""
    start = time.perf_counter()
    n, _, orders = _require_convergent(g)
    f0_at = _poly_evaluator(two_forest_polynomial(g))
    u_at = _poly_evaluator(first_symanzik_trees(g))
    mass_sq = np.array([float(e.mass * e.mass) for e in g.edges])

    def integrand(points, regions):
        mass_at, f0_values_at, work = regions
        # one matrix-vector product per batch: one per lane chunk can round
        # differently, which would tie the estimate to the chunk width
        mass = np.matmul(points, mass_sq, out=_view(mass_at, len(points)))

        def denominators(lanes, out):
            chunk = points[lanes]
            u_at(chunk, out, work)
            out *= mass[lanes]
            out += f0_at(chunk, _view(f0_values_at, len(out)), work)
            if np.any(out <= 0.0):
                raise InvariantViolation(
                    "S2 <= 0 at an interior simplex sample; sign convention broken"
                )
            if np.any(out == math.inf):  # its weight would be exactly 0
                raise InvariantViolation("S2 overflowed at an interior simplex sample")
            np.square(out, out=out)

        return denominators

    batch = _largest_batch(cfg)
    lanes = min(_SIMPLEX_LANES, batch)
    work = max(u_at.work_size(lanes), f0_at.work_size(lanes))
    estimate, err = _simplex_integral(
        cfg, n, orders, "parametric", integrand, (batch,), (lanes,), (work,)
    )
    return IntegrationResult(
        estimate, err, cfg.n_samples, cfg.seed, "parametric", time.perf_counter() - start
    )


def _block_table(forms, n: int) -> np.ndarray:
    """The entries of the propagator forms that Pf(sum_e a_e Q_e) depends
    on, one real row per edge, so that a batch of points (B, E) maps to all
    of them by one matmul.

    On C^(2n+2) with the indices paired as (0, 1 | 2, 3 | ... | 2n, 2n+1),
    every Q_e is [[b J, C], [-C^T, L (x) J]] with J = [[0, 1], [-1, 0]], b =
    Q[0, 1], C the two rows c0 = Q[0, 2:] and c1 = Q[1, 2:], and L the real
    symmetric n x n loop matrix alpha_e alpha_e^T: Q[2k+2, 2l+3] = L[k, l]
    and Q[2k+2, 2l+2] = Q[2k+3, 2l+3] = 0. That shape is checked exactly on
    the sparse forms. Columns: L row by row (n^2); Re b, Im b; then for c0e
    (c0 at the even loop indices 2k+2), c0o (at the odd ones 2k+3), c1o and
    c1e in turn, the n real parts followed by the n imaginary parts."""
    rows = []
    for e, q in enumerate(forms):
        loop = []
        for k in range(n):
            for l in range(n):
                x = q[2 * k + 2, 2 * l + 3]
                if q[2 * k + 2, 2 * l + 2] or q[2 * k + 3, 2 * l + 3] or x.im or (
                    x != q[2 * l + 2, 2 * k + 3]
                ):
                    raise InvariantViolation(
                        f"form {e}: loop block ({k}, {l}) is not a real symmetric L (x) J"
                    )
                loop.append(float(x.re))
        b = complex(q[0, 1])
        border = [b.real, b.imag]
        for row, parity in ((0, 0), (0, 1), (1, 1), (1, 0)):
            vector = [complex(q[row, 2 * k + 2 + parity]) for k in range(n)]
            border += [x.real for x in vector] + [x.imag for x in vector]
        rows.append(loop + border)
    return np.array(rows)


def _pfaffian_batch(lmat: np.ndarray, border: np.ndarray) -> np.ndarray:
    """Pf(sum_e a_e Q_e) for a batch of points, from the blocks of
    _block_table summed at each point: lmat (B, n, n) the loop matrices L,
    border (B, 2 + 8n) the rest of the row. Both are views of the caller's
    batch-last scratch and are overwritten.

    Pf([[b J, C], [-C^T, L (x) J]]) = Pf(L (x) J) Pf(b J + C (L (x) J)^-1 C^T)
    = det L (b - c0e^T L^-1 c1o + c0o^T L^-1 c1e). Inside the simplex
    L = sum_e a_e alpha_e alpha_e^T is positive definite (det L = S1), so it
    factors as W D W^T with W unit lower triangular and no pivoting:
    det L = prod_k D_k and x^T L^-1 y = sum_k (W^-1 x)_k (W^-1 y)_k / D_k,
    where the row operations that reduce L apply W^-1 to the vectors. Runs
    batch-last, so every step acts on contiguous lanes; the caller passes
    one chunk of `_SIMPLEX_LANES` lanes at a time."""
    ell = np.moveaxis(lmat, 0, -1)  # (n, n, B)
    rest = border.T  # (2 + 8n, B)
    n = len(ell)
    re, im = rest[0], rest[1]
    # Re c0e, Im c0e, Re c0o, Im c0o, Re c1o, Im c1o, Re c1e, Im c1e
    vec = rest[2:].reshape(8, n, -1)
    det = np.ones(re.shape)
    for k in range(n):
        pivot = ell[k, k]
        det *= pivot
        xr, xi, yr, yi = vec[:4, k] / pivot
        ur, ui, vr, vi = vec[4:, k]
        re -= xr * ur - xi * ui - yr * vr + yi * vi
        im -= xr * ui + xi * ur - yr * vi - yi * vr
        tau = ell[k, k + 1 :] / pivot  # empty at the last step
        ell[k + 1 :, k + 1 :] -= tau[:, None] * ell[k, k + 1 :][None]
        vec[:, k + 1 :] -= tau[None] * vec[:, k, None]
    out = np.empty(len(det), dtype=complex)
    out.real = det * re
    out.imag = det * im
    return out


def pfaffian_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Monte Carlo estimate of int_simplex delta(1 - sum a) da / |Pf(sum a Q)|^2.

    Pf(sum_e a_e Q_e) is evaluated from the block shape of the forms (see
    _block_table and _pfaffian_batch), not as a general pfaffian. Each lane
    chunk is assembled and handed to the kernel while it is still in cache."""
    start = time.perf_counter()
    n, _, orders = _require_convergent(g)
    coeffs = np.ascontiguousarray(_block_table([f.form for f in propagator_forms(g)], n).T)
    size = n * n

    def integrand(points, regions):
        (chunk_at,) = regions

        def denominators(lanes, out):
            chunk = _view(chunk_at, len(coeffs), len(out))
            np.matmul(coeffs, points[lanes].T, out=chunk)
            lmat = np.moveaxis(chunk[:size].reshape(n, n, -1), -1, 0)
            np.abs(_pfaffian_batch(lmat, chunk[size:].T), out=out)
            np.square(out, out=out)
            if np.any(out == 0.0) or not np.all(np.isfinite(out)):
                raise InvariantViolation(
                    "pfaffian vanished (or overflowed) at an interior simplex sample"
                )

        return denominators

    scratch = (len(coeffs), min(_SIMPLEX_LANES, _largest_batch(cfg)))
    estimate, err = _simplex_integral(cfg, n, orders, "pfaffian", integrand, scratch)
    return IntegrationResult(
        estimate, err, cfg.n_samples, cfg.seed, "pfaffian", time.perf_counter() - start
    )


@dataclass
class FeynmanTrickResult:
    """Both sides of 1/prod A_i = (N-1)! int delta(1 - sum a) da / (sum a A)^N."""

    lhs: float
    rhs: float
    rel_gap: float
    std_error: float
    method: str
    n_samples: int


def feynman_trick_check(values, cfg: IntegrationConfig | None = None) -> FeynmanTrickResult:
    """Check the simplex identity for positive A_1..A_N.

    N = 2 evaluates the 1-d integral by adaptive quadrature; larger N uses
    Monte Carlo (the (N-1)! and the simplex volume cancel, so the estimator
    is just the sample mean of (sum a A)^(-N)).
    """
    A = [float(v) for v in values]
    if len(A) < 2:
        raise ValidationError("need at least two values")
    if any(not math.isfinite(v) for v in A):
        raise ValidationError("all values must be finite")
    if any(not v > 0 for v in A):
        raise ValidationError("all values must be strictly positive")
    lhs = 1.0 / math.prod(A)
    if not 0.0 < lhs < math.inf:
        raise PrecisionError("1 / prod A is not a positive finite double")
    n_vals = len(A)

    if n_vals == 2:
        from scipy.integrate import quad

        a, b = A
        try:
            rhs, abserr = quad(
                lambda t: 1.0 / (t * a + (1.0 - t) * b) ** 2, 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-13,
            )
        except OverflowError as exc:
            raise PrecisionError(f"simplex integrand overflowed: {exc}") from exc
        return FeynmanTrickResult(lhs, rhs, abs(rhs - lhs) / lhs, abserr, "quadrature", 0)

    cfg = cfg or IntegrationConfig(n_samples=200_000, seed=0)
    arr = np.array(A)

    def weights(batch):
        out = (batch @ arr) ** (-n_vals)
        if not np.all((out > 0.0) & (out < math.inf)):
            raise PrecisionError("simplex integrand underflowed to 0 or is not finite")
        return out

    rhs, err = _mean("feynman", _simplex_batches(cfg, n_vals, "feynman"), weights)
    return FeynmanTrickResult(lhs, rhs, abs(rhs - lhs) / lhs, err, "mc", cfg.n_samples)


@dataclass
class ExtractedConstants:
    """Measured ratios relating the three representations."""

    c_hat: float
    c_hat_std_error: float
    big_c_hat: float
    big_c_hat_std_error: float
    direct: IntegrationResult
    parametric: IntegrationResult
    pfaffian: IntegrationResult


def extract_constants(
    g: Graph, cfg: IntegrationConfig, results=None
) -> ExtractedConstants:
    """c_hat := direct / parametric and C_hat := direct / pfaffian.

    Runs the three estimators on the same config (or reuses a precomputed
    (direct, parametric, pfaffian) triple). Refuses to report if any
    component estimate is zero or not finite, or has relative standard
    error above 5%; ratio errors come from first-order propagation.
    """
    if results is not None:
        direct, parametric, pfaffian = results
    else:
        direct = direct_amplitude(g, cfg)
        parametric = parametric_amplitude(g, cfg)
        pfaffian = pfaffian_amplitude(g, cfg)
    for res in (direct, parametric, pfaffian):
        if res.estimate == 0.0 or not math.isfinite(res.estimate):
            raise PrecisionError(f"no ratio with a {res.method} estimate of {res.estimate}")
        if res.std_error > 0.05 * abs(res.estimate):
            raise PrecisionError(
                f"{res.method} estimate too noisy to extract constants "
                f"(rel err {res.std_error / abs(res.estimate):.2%})"
            )

    def ratio(num: IntegrationResult, den: IntegrationResult):
        value = num.estimate / den.estimate
        rel = math.hypot(
            num.std_error / abs(num.estimate), den.std_error / abs(den.estimate)
        )
        return value, abs(value) * rel

    c_hat, c_err = ratio(direct, parametric)
    big_c, big_err = ratio(direct, pfaffian)
    return ExtractedConstants(c_hat, c_err, big_c, big_err, direct, parametric, pfaffian)


def log_divergent_integrand(g: Graph):
    """Integrand builder 1 / S1(a)^2 for graphs with N = 2n.

    Exposed without any convergence guarantee (the integral is scaleless);
    the returned callable accepts a single point or a batch and carries the
    polynomial on its `.polynomial` attribute.
    """
    n = loop_number(g)
    if g.n_edges != 2 * n:
        raise UnsupportedTopology(
            f"log-divergent integrand needs N = 2n; got N={g.n_edges}, n={n}"
        )
    s1 = first_symanzik_det(g)
    evaluate = _poly_evaluator(s1)

    def integrand(points):
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        out = 1.0 / np.square(evaluate(arr))
        return float(out[0]) if np.ndim(points) == 1 else out

    integrand.polynomial = s1
    return integrand
