"""Monte Carlo evaluation of the three amplitude representations.

direct      integral over R^(4n) of 1 / prod_e P_e(x), importance-sampled
            from a mixture with one channel per spanning tree: each channel
            draws its chord momenta from heavy-tailed 4-dimensional
            Student-t laws, each of its chord's mass as scale, and the
            mixture density is the first Symanzik polynomial at the
            per-edge densities (see direct_amplitude);
parametric  integral over the unit simplex of 1 / S2(a)^2, with S2 evaluated
            unexpanded as F0(a) + (sum_e m_e^2 a_e) U(a), the 2-forest sum
            and the spanning-tree sum each compiled once into a
            multivariate Horner plan (see _poly_evaluator);
pfaffian    integral over the unit simplex of 1 / |Pf(sum_e a_e Q_e)|^2,
            evaluated by the block factorization of the forms: with the
            loop block L (x) J, Pf = det L (b - c0^T (L^-1 (x) J) c1), det L
            being S1 and the second factor S2 / S1. One real matmul maps a
            lane chunk to L, b, c0 and c1 (over whole panels of lanes, see
            _PANEL), and an unpivoted elimination of L (positive definite
            inside the simplex) gives both factors while the chunk is still
            in cache (see _pfaffian_batch). The general Parlett-Reid kernel
            serves `algebra.pfaffian_numeric` only.

The two simplex integrals are one estimate with two denominators, S2^2 and
|Pf|^2, on one random stream (see _simplex_estimates): each batch is drawn
once, and every denominator runs on each chunk of _SIMPLEX_LANES points,
and forms its weights there, while the chunk is in cache. So
extract_constants and `integrate --method all` draw once for both and
check the paper's identity |Pf| = S2 at every sample they draw;
parametric_amplitude and pfaffian_amplitude each run that estimate with
their own denominator alone, to the same bits. The integrands blow up like
1/F_tr(a)^2 near the faces where S2 vanishes, F_tr being the largest
monomial of S2, so a uniform proposal gives them infinite variance once
n >= 2. Each simplex replicate is therefore half uniform and half drawn
from Borinsky's tropical sampler (density 1/(I_tr F_tr(a)^2),
arXiv:2008.12310), and every sample is weighted by the balance heuristic
f(a)/q(a) against the mixture density q; the weights are bounded by
I_tr / ((1 - share) c_min^2), c_min the smallest coefficient of S2. The
sampler draws and ranks in the same lane chunks. One-loop graphs, where S2
has no zero on the closed simplex, keep the plain uniform proposal. Graphs
with a divergent subgraph are refused.

Every estimate (and the Feynman check) is randomized quasi-Monte Carlo on
one plan of scrambled Sobol replicates (see rqmc), which hands its blocks
out in batches and draws their points. Each estimate runs its own batch
loop and hands every batch's weights to its integrand's _Replicates, which
refuses a non-finite weight and merges each block's mean into its
replicate's accumulator in a fixed order, so a fixed config reproduces
bit-identical estimates, and neither the batch size nor the lane chunks
move a bit of one.

Every batch is drawn and evaluated in a workspace (see _workspace): each
thread has one flat float64 arena, made by its first estimate, grown but
never shrunk, and kept for the life of the thread, so its pages are faulted
once and not once per batch. An estimate checks the arena out once, sized
for its largest batch, in a plain `with` block of its own frame, and carves
its draws and scratch from it; the batch generators only draw into the
regions they are handed. So an exception always gives the arena back, and
since a thread runs one estimate at a time, the arena ends the size of the
largest one. Whatever the sample count, a simplex batch is two lane chunks
and a direct batch at most one block, so that is 5.75 MiB at 4 loops, the
pfaffian's, and 5.875 MiB for both simplex integrands at once: their
denominators run one after the other and share one scratch region, so only
their weights are apart. A second checkout while one is held raises
RuntimeError. Which buffers are used never changes an estimate's bits.

An estimator's set-up lives on the graph, in its prepared problem (see
_problem): the vanishing-order table and convergence check, the tropical
sampler, the Horner plans of U and F0, the direct estimator's tree channels
and the pfaffian's block table. Each piece is built by the first estimate
that reads it and kept on the Graph object, so it lives as long as the
graph does, and extract_constants, `integrate --method all` or a seed sweep
on one graph build each piece once. Nothing of a graph is kept at module
level: a graph built anew, even an equal one, builds its own.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    PrecisionError,
    TwistampError,
    UnsupportedTopology,
    ValidationError,
)
from .graphs import (
    Graph,
    _fundamental_cycles,
    _is_int,
    loop_number,
    route_momenta,
)
from .rqmc import _BLOCK, _MAX_DIM, Plan, _read_only
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

# Share of each simplex replicate drawn uniformly; the tropical sampler draws
# the rest. Any share below 1 bounds the weights; the uniform half keeps the
# weights small where S2 is far from zero.
_UNIFORM_SHARE = 0.5

# Lanes per chunk of a batch. The tropical sampler draws and ranks, and the
# simplex integrands evaluate their denominators and weights, one chunk at a
# time, so that a chunk's rows stay in cache from one step to the next; a
# direct batch is no larger than one chunk. On a 2-vCPU Xeon with 2 MiB
# of L2 per core, the pfaffian's assembly plus block kernel over 65 536
# loop4 points took 22-27 ms in chunks of 2 621 lanes (a 1 MiB working set),
# 14-18 ms in chunks of 5 242-16 384 and 18-19 ms unchunked.
_SIMPLEX_LANES = 8_192

# Samples per batch of a simplex estimate and of the Feynman check: the
# draws and weights they hold at once, and so the size of their workspace.
# Two lane chunks, so that a batch of two benchmark-sized blocks fills one
# chunk with their uniform halves and one with their tropical halves. No
# estimate depends on it. The direct estimator's batches hold at most one
# block's points (see direct_amplitude).
_BATCH_SIZE = 2 * _SIMPLEX_LANES

# The pfaffian's assembly matmul runs over whole panels of this many lanes,
# its last lanes zero-padded to one. OpenBLAS 0.3 (Haswell kernels) rounds
# a column of a product alike wherever it sits among whole panels of 8, but
# another way past the last whole panel of a wide product, or in a product
# 1, 3 or 43 columns wide; so unpadded, a lane's |Pf|^2 could move by an ulp
# with the width of its chunk.
_PANEL = 8


@dataclass(frozen=True)
class IntegrationConfig:
    """Sampler settings; everything that affects the random stream is here."""

    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.n_samples) or self.n_samples < 1000:
            raise ValidationError("sample count must be an integer >= 1000")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


@dataclass
class IntegrationResult:
    """Estimate with its standard error and full reproducibility tags.

    wall_time_s is the wall time of the estimator call. Shared work is
    carried by the first estimate that does it: the first estimate on a
    graph also builds the set-up that later estimates on that graph share
    (see _problem), so it carries that cost and they do not. Where both
    simplex integrands come from one draw (see _simplex_estimates), the
    parametric result carries the draw with its own evaluation, and the
    pfaffian result only its own denominator, weights and accumulation,
    timed chunk by chunk; the two add up to the wall time of the call."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int
    method: str
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


class _Accumulator:
    """Count and mean of one replicate's weights, merged block by block in
    block order."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0

    def add(self, values: np.ndarray) -> None:
        count = values.size
        total = self.count + count
        self.mean += (float(values.sum()) / count - self.mean) * (count / total)
        self.count = total


def _pieces(lo: int, hi: int, width: int):
    """Lanes lo..hi as consecutive (lo, hi) pieces of at most `width` lanes,
    none of them one lane wide unless all of them are: numpy multiplies by a
    single column through another BLAS call than by several, whose bits can
    differ, and a sample's value must not depend on where its batch or its
    channel's block is cut. A width below 3 cannot keep that: at 2, three
    lanes would split one and two."""
    if width < 3:
        raise ValueError(f"pieces must be at least 3 lanes wide, not {width}")
    while hi - lo > width:
        step = width - 1 if hi - lo == width + 1 else width
        yield lo, lo + step
        lo += step
    if hi > lo:
        yield lo, hi


def _largest_batch(cfg: IntegrationConfig) -> int:
    """Points in the largest batch a simplex estimate or the Feynman check
    on cfg can have: a batch holds at most _BATCH_SIZE points, or one block
    where a block is larger."""
    return min(max(_BATCH_SIZE, _BLOCK), cfg.n_samples)


class _Arena(threading.local):
    """Each thread's workspace: a flat float64 buffer that only grows, and
    whether an estimate has it checked out. A thread's first use makes its
    own, empty, and the thread keeps it for its life."""

    def __init__(self):
        self.buffer = np.empty(0)
        self.busy = False


_arena = _Arena()


@contextlib.contextmanager
def _workspace(*shapes):
    """Flat float64 regions, one per shape and each of its size, laid end to
    end in the calling thread's arena (grown first if it is too small), for
    one estimate. A thread holds at most one checkout: a second one raises
    RuntimeError. The regions hold whatever their last user left in them."""
    if _arena.busy:
        raise RuntimeError("this thread's workspace is already checked out")
    total = sum(math.prod(shape) for shape in shapes)
    if _arena.buffer.size < total:
        _arena.buffer = np.empty(0)  # free the old pages before taking new ones
        _arena.buffer = np.empty(total)
    _arena.busy = True
    try:
        yield _carve(_arena.buffer, shapes)
    finally:
        _arena.busy = False


def _carve(region: np.ndarray, shapes) -> list:
    """Flat regions, one per shape and each of its size, laid end to end
    from the start of a flat region."""
    sizes = [math.prod(shape) for shape in shapes]
    ends = itertools.accumulate(sizes)
    return [region[end - size : end] for size, end in zip(sizes, ends)]


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
    F_tr(a) = max over the monomials a^k of S2, of degree m(E). Points are
    held as columns, shape (N, B). `orders` and `omega` are held as float64,
    so the per-lane gathers need no conversion.
    """

    def __init__(self, orders: np.ndarray):
        self.n_edges = n_edges = len(orders).bit_length() - 1
        self.full = full = len(orders) - 1
        self.orders = orders.astype(float)
        bits = 1 << np.arange(n_edges)
        self.bit_values = bits.astype(float)
        masks = np.arange(full + 1)
        member = (masks[:, None] & bits) != 0  # (2^N, N)
        self.omega = _sizes(orders) - 2.0 * self.orders
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
        for table in (self.orders, self.bit_values, self.omega, self.prob, self.alias):
            _read_only(table)

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
        log_f -= self.orders[self.full] * np.log(total)
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

    def mixture(self, log_f: np.ndarray, share: float) -> None:
        """Turns log F_tr (B) in place into the log of the mixture density
        q = share (N-1)! + (1 - share) / (I_tr F_tr^2), where `share` of the
        samples are uniform and the rest tropical."""
        log_f *= -2.0
        log_f += math.log((1.0 - share) / self.i_tr)
        np.logaddexp(math.log(share) + math.lgamma(self.n_edges), log_f, out=log_f)


def _tropical_sampler(orders: np.ndarray):
    """The sampler, or None when m(S) = 0 for every proper subset: then S2
    has no zero on the closed simplex (for N = 2n + 2 exactly the one-loop
    graphs), uniform weights are already bounded and stay unmixed."""
    return _TropicalSampler(orders) if orders[1:-1].any() else None


def _draw_shapes(count: int, dim: int, tropical) -> list:
    """Shapes of a batch of `count` simplex samples: the points as columns
    (N, B), and with a tropical sampler log q (B) and the uniforms of one
    lane chunk of tropical draws (2N - 2, lanes)."""
    if tropical is None:
        return [(dim, count)]
    return [(dim, count), (count,), (2 * dim - 2, min(_SIMPLEX_LANES, count))]


def _simplex_batches(cfg: IntegrationConfig, dim: int, stream: str, tropical, regions):
    """Randomized-QMC batches on the unit simplex, yielded as ((points, log
    q), runs): the points (B, N), the log of the mixture density, None
    without a tropical sampler, and the (replicate, lanes) of the uniform
    and the tropical part of each of the batch's blocks, block by block (see
    rqmc.Plan and _Replicates.add).

    Replicate r's stream has dimension N, or 2N - 2 with a tropical sampler;
    its sample i is its point i. Its first `_UNIFORM_SHARE` of samples (all
    of them without a tropical sampler) are uniform on the simplex: -log(1 -
    u) of the point's first N coordinates, normalised to sum 1, is a
    Dirichlet(1, ..., 1) point. The rest are tropical draws fed all 2N - 2
    coordinates.

    A batch lays the uniform parts of its blocks end to end, then their
    tropical parts, so that every step runs over whole lane chunks however
    small the replicates are. It is drawn into `regions`, the caller's flat
    regions of the `_draw_shapes` at the largest batch, the tropical
    uniforms one lane chunk at a time, and holds only until the next batch
    is drawn.
    """
    width = dim if tropical is None else 2 * dim - 2
    plan = Plan(cfg.n_samples, cfg.seed, stream, width)
    for batch in plan.batches(_BATCH_SIZE):
        blocks = len(batch)
        uniform, drawn, shares = [], [], []  # (replicate, its points a..b); uniform share
        for r, size, lo, hi in batch:
            n_uniform = size if tropical is None else int(size * _UNIFORM_SHARE)
            cut = min(max(lo, n_uniform), hi)
            uniform.append((r, lo, cut))
            drawn.append((r, cut, hi))
            shares.append(n_uniform / size)
        parts = uniform + drawn
        starts = list(itertools.accumulate((b - a for _, a, b in parts), initial=0))
        count, split = starts[-1], starts[blocks]  # the tropical parts start at split
        columns = _view(regions[0], dim, count)
        plan.draw(uniform, 0, split, columns[:, :split])
        runs = [
            (parts[i][0], slice(starts[i], starts[i + 1]))
            for block in range(blocks)
            for i in (block, blocks + block)
            if starts[i + 1] > starts[i]
        ]
        log_q = None if tropical is None else _view(regions[1], count)
        for lo, hi in _pieces(0, split, _SIMPLEX_LANES):  # the uniform lane chunks
            points = columns[:, lo:hi]
            np.negative(points, out=points)
            np.log1p(points, out=points)
            points /= points.sum(axis=0)
            if tropical is not None:
                log_q[lo:hi] = tropical.log_f(points)
        if tropical is None:
            yield (columns.T, None), runs
            continue
        for lo, hi in _pieces(split, count, _SIMPLEX_LANES):  # the tropical lane chunks
            u = _view(regions[2], width, hi - lo)
            plan.draw(drawn, lo - split, hi - split, u)
            log_q[lo:hi] = tropical.draw(u, columns[:, lo:hi])
        # one share per replicate size, two sizes at most: few runs of lanes
        for share, group in itertools.groupby(zip(shares * 2, starts, starts[1:]), lambda x: x[0]):
            group = list(group)
            tropical.mixture(log_q[group[0][1] : group[-1][2]], share)
        yield (columns.T, log_q), runs


class _Replicates:
    """The accumulators of one integrand's weights, one per replicate.
    add(values, runs) takes one batch's weights: runs lists the (replicate,
    lanes) whose weights go to that replicate's accumulator, in the order
    listed. A weight that is not finite raises InvariantViolation naming the
    batch (the count of batches added before it) and the sample."""

    def __init__(self, method: str):
        self.method = method
        self.batches = 0
        self.replicates = {}

    def add(self, values: np.ndarray, runs) -> None:
        finite = np.isfinite(values)
        if not finite.all():
            raise InvariantViolation(
                f"non-finite {self.method}-method sample in batch {self.batches} "
                f"(sample {int(np.argmin(finite))})"
            )
        for replicate, lanes in runs:
            self.replicates.setdefault(replicate, _Accumulator()).add(values[lanes])
        self.batches += 1

    def estimate(self) -> tuple:
        """The mean of the replicate means, taken in replicate order, and
        its error, their standard deviation over sqrt(R)."""
        means = [self.replicates[r].mean for r in sorted(self.replicates)]
        mean = math.fsum(means) / len(means)
        variance = math.fsum((m - mean) ** 2 for m in means) / (len(means) - 1)
        return mean, math.sqrt(variance / len(means))


def _held(outcome):
    """An outcome of _simplex_estimates, raised if it is a refusal."""
    if isinstance(outcome, TwistampError):
        raise outcome
    return outcome


def _to_weights(values: np.ndarray, log_q) -> None:
    """Turns the denominators of one lane chunk in place into its weights:
    1/d, or exp(-(log d + log q)) under the mixture density q."""
    if log_q is None:
        np.divide(1.0, values, out=values)
    else:
        np.log(values, out=values)
        values += log_q
        np.negative(values, out=values)
        np.exp(values, out=values)


def _simplex_estimates(g: Graph, cfg: IntegrationConfig, methods=("parametric", "pfaffian")):
    """Randomized-QMC estimates of int_simplex delta(1 - sum a) da / d(a),
    one for each method's denominator d (see _DENOMINATORS), all from one
    draw on the simplex stream.

    Each d vanishes like S2^2, so the vanishing orders of the graph's
    prepared problem govern the proposal of all of them. Each batch is
    drawn once (see _simplex_batches), and every lane chunk is handed to
    each denominator in turn, while it is still in cache:
    denominator(chunk, out, regions) writes d at the chunk's points into
    out, given flat regions of its scratch shapes. The chunk's weights are
    then formed in place, 1/d under the uniform proposal and exp(-(log d +
    log q)) under the mixture q. The uniform proposal's density 1 / (N-1)!
    is applied to the means. One workspace holds the draws, one weight array
    per method and one scratch region, which the denominators share since
    they run one after the other.

    A refusal ends only its own method and is kept in one table of
    outcomes: a TwistampError raised by the method's set-up or its
    denominator, or a non-finite weight refused by its _Replicates at the
    end of the batch; one raised by the shared set-up refuses every method.
    The first method not refused carries the shared work (set-up, draw, its
    own evaluation): its wall time is the call's less the others'. Each
    other method's holds only its own set-up, denominators, weights and
    accumulation, timed chunk by chunk. So the wall times add up to the
    call's.

    Returns each method's IntegrationResult or refusal, in order, and the
    largest |d / d_first - 1| over the samples that the first method still
    running and a later one both evaluated: |Pf|^2 / S2^2 - 1 for the
    default methods, 0.0 where no sample was compared."""
    start = time.perf_counter()
    try:
        problem = _problem(g)
    except TwistampError as exc:
        return [exc] * len(methods), 0.0
    n_edges, tropical = problem.n_edges, problem.sampler
    batch = _largest_batch(cfg)
    outcomes, denominators, scratch = {}, {}, {}
    spent = dict.fromkeys(methods, 0.0)
    for method in methods:
        begin = time.perf_counter()
        try:
            denominators[method], scratch[method] = _DENOMINATORS[method](
                g, problem, min(_SIMPLEX_LANES, batch)
            )
        except TwistampError as exc:
            outcomes[method] = exc
        spent[method] += time.perf_counter() - begin
    live = list(denominators)
    if not live:
        return [outcomes[method] for method in methods], 0.0
    replicates = {method: _Replicates(method) for method in live}
    deviation = 0.0
    draws = _draw_shapes(batch, n_edges, tropical)
    shared = max(sum(map(math.prod, shapes)) for shapes in scratch.values())
    with _workspace(*draws, *[(batch,)] * len(live), (shared,)) as regions:
        batches = _simplex_batches(cfg, n_edges, "simplex", tropical, regions[: len(draws)])
        *weights_at, shared_at = regions[len(draws) :]
        weights_at = dict(zip(live, weights_at))
        own = {method: _carve(shared_at, scratch[method]) for method in live}
        for (points, log_q), runs in batches:
            running = [method for method in live if method not in outcomes]
            values = {method: _view(weights_at[method], len(points)) for method in running}
            for lo, hi in _pieces(0, len(points), _SIMPLEX_LANES):
                chunk = points[lo:hi]
                q = None if log_q is None else log_q[lo:hi]
                first = None  # the denominators of the first method still running
                for method in running:
                    if method in outcomes:
                        continue
                    begin = time.perf_counter()
                    out = values[method][lo:hi]
                    try:
                        denominators[method](chunk, out, own[method])
                    except TwistampError as exc:
                        outcomes[method] = exc
                    else:
                        if first is None:
                            first = out
                        else:
                            ratio = _view(shared_at, len(out))
                            np.divide(out, first, out=ratio)
                            ratio -= 1.0
                            np.abs(ratio, out=ratio)
                            deviation = max(deviation, float(ratio.max()))
                            _to_weights(out, q)
                    spent[method] += time.perf_counter() - begin
                if first is not None:
                    _to_weights(first, q)
            for method in running:
                if method in outcomes:
                    continue
                begin = time.perf_counter()
                try:
                    replicates[method].add(values[method], runs)
                except InvariantViolation as exc:
                    outcomes[method] = exc
                spent[method] += time.perf_counter() - begin
            if all(method in outcomes for method in live):
                break
    wall = time.perf_counter() - start
    kept = [method for method in methods if method not in outcomes]
    results = []
    for method in methods:
        if method in kept:
            estimate, err = replicates[method].estimate()
            if tropical is None:
                factor = 1.0 / math.factorial(n_edges - 1)
                estimate, err = factor * estimate, factor * err
            if method == kept[0]:
                seconds = wall - sum(spent[other] for other in kept[1:])
            else:
                seconds = spent[method]
            results.append(
                IntegrationResult(estimate, err, cfg.n_samples, cfg.seed, method, seconds)
            )
        else:
            results.append(outcomes[method])
    return results, deviation


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
    at most N + 1 registers. Each term's exponents are kept as a dict of
    its nonzero powers, so a node counts its variables in one pass over
    its terms, touching only the variables each holds."""
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
        counts = [0] * nvars
        for powers, _ in terms:
            for v in powers:
                counts[v] += 1
        top = max(counts, default=0)
        if not top:  # only the constant term is left
            return const(terms[0][1] if terms else 0.0)
        v = counts.index(top)
        quotient, rest = [], []
        for powers, c in terms:
            if v in powers:
                powers = dict(powers)
                powers[v] -= 1
                if not powers[v]:
                    del powers[v]
                quotient.append((powers, c))
            else:
                rest.append((powers, c))
        q = factor(quotient, d)
        x = ("x", v)
        if q[0] == "c" and constants[q[1]] == 1.0:  # 1 * x is x exactly
            t = x
        else:
            t = emit(np.multiply, x, q, d)
        if not rest:
            return t
        return emit(np.add, t, factor(rest, d + 1 if t[0] == "r" else d), d)

    result = factor([({v: k for v, k in enumerate(exps) if k}, c) for exps, c in terms], 0)
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
    positive this is the loop number L(S) for S != E and n + 1 for S = E.

    L(S) = L(S - t) + 1 if the ends of the top edge t of S already share a
    component of S - t, else L(S - t). Each subset's components are kept as
    one label per vertex, so the masks with top edge t, 2^t..2^(t+1) - 1,
    follow from those below 2^t in one step."""
    position = {v: i for i, v in enumerate(g.vertices)}
    orders = np.zeros(1 << g.n_edges, dtype=np.int64)
    labels = np.empty((len(orders), g.n_vertices), dtype=np.min_scalar_type(g.n_vertices))
    labels[0] = np.arange(g.n_vertices)
    for t, e in enumerate(g.edges):
        low = labels[: 1 << t]
        source, target = low[:, position[e.source]], low[:, position[e.target]]
        orders[1 << t : 2 << t] = orders[: 1 << t] + (source == target)
        labels[1 << t : 2 << t] = np.where(low == source[:, None], target[:, None], low)
    orders[-1] = loop_number(g) + 1
    return orders


def _sizes(orders: np.ndarray) -> np.ndarray:
    """|S| for every edge subset S of the table `orders`."""
    return np.bitwise_count(np.arange(len(orders)))


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
    divergent = np.flatnonzero(_sizes(orders)[1:-1] <= 2 * orders[1:-1])
    if divergent.size:
        mask = int(divergent[0]) + 1
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
    loops = orders.copy()
    loops[-1] = n
    cyclic = loops > 0
    bound = np.min((4 * _sizes(orders)[cyclic] - 8 * loops[cyclic]) / loops[cyclic])
    return min(1.0, 0.5 * float(bound))


# Newton steps of the radius inversion where nu < 1 (see _radii). Four
# reached the root to rounding on a grid of 10^5 uniforms at nu = 2/3 and
# 0.4, u = 0 and u = 1 - 2^-53 included.
_NEWTON_STEPS = 6


def _radii(u: np.ndarray, nu: float, work: np.ndarray) -> None:
    """Turns uniforms u in [0, 1), multiples of 2^-53, in place into the
    radii |y| of 4-dimensional Student-t draws of unit scale with nu <= 1
    degrees of freedom, by inverting the radius CDF; work is scratch (2,
    *u.shape).

    w = 1 / (1 + |y|^2 / nu) is Beta(nu/2, 2), of CDF w^a (1 + a (1 - w))
    with a = nu/2, so the radius CDF is 1 - w^a (1 + a (1 - w)). In t = w^a
    the inverse at u solves (1 + a) t - a t^(1 + 1/a) = v, v = 1 - u (exact
    for these u). For nu = 1 that is 3t - t^3 = 2v, so t = 2 sin(arcsin(v)
    / 3) = 4 tau / (1 + tau^2) with tau = tan(arcsin(v) / 6). Otherwise the
    left side is increasing and concave on [0, 1], so Newton's step
    t <- (v - t p) / ((1 + a)(1 - p)), p = t^(1/a), climbs to the root from
    any start below it. It starts from the larger of two lower bounds,
    v / (1 + a), close at small v, and (1 - sqrt(2u / (a (1 + a))))^a,
    close where the root nears the double root t = 1 of v = 1; t is kept
    below 1 so that 1 - p never vanishes."""
    a = 0.5 * nu
    t, p = work
    np.subtract(1.0, u, out=u)  # v
    if nu == 1.0:
        np.arcsin(u, out=t)
        t /= 6.0
        np.tan(t, out=t)
        np.square(t, out=p)
        p += 1.0
        t *= 4.0
        t /= p
        np.square(t, out=u)  # w
    else:
        np.subtract(1.0, u, out=t)
        t *= 2.0 / (a * (1.0 + a))
        np.sqrt(t, out=t)
        np.subtract(1.0, t, out=t)
        np.maximum(t, 0.0, out=t)
        np.power(t, a, out=t)
        np.maximum(t, np.multiply(u, 1.0 / (1.0 + a), out=p), out=t)
        for _ in range(_NEWTON_STEPS):
            np.minimum(t, 1.0 - 2.0**-52, out=t)
            np.power(t, 1.0 / a, out=p)
            t *= p
            np.subtract(u, t, out=t)
            np.subtract(1.0, p, out=p)
            p *= 1.0 + a
            t /= p
        np.power(t, 1.0 / a, out=u)  # w
    np.divide(1.0, u, out=u)
    u -= 1.0
    u *= nu
    np.sqrt(u, out=u)


def _by_channel(u: np.ndarray, n_trees: int) -> tuple:
    """The lane order that sorts uniforms u by their channels floor(u T),
    stably, and the count of each channel. u <= 1 - 2^-53, so u T rounds to
    below T."""
    channel = np.multiply(u, n_trees).astype(np.min_scalar_type(n_trees - 1))
    return np.argsort(channel, kind="stable"), np.bincount(channel, minlength=n_trees)


def _student_t(u: np.ndarray, nu: float, work: np.ndarray) -> None:
    """Turns uniforms u (n, 4, w) in place into n x w draws y of the
    4-dimensional Student-t law with nu degrees of freedom and unit scale,
    of density proportional to (1 + |y|^2 / nu)^(-(nu + 4) / 2); work is
    scratch (2, n, w). u[:, 0] gives the radius (see _radii) and u[:, 1:],
    (v1, v2, v3), the direction (sqrt(v1) cos b2, sqrt(1 - v1) cos b3,
    sqrt(v1) sin b2, sqrt(1 - v1) sin b3) with b = 2 pi v - pi, uniform on
    S^3: a uniform point (z1, z2) of the unit sphere of C^2 has |z1|^2
    uniform on [0, 1] and two uniform phases. cos b and sin b are
    (1 - t^2, 2t) / (1 + t^2) with t = tan(b / 2), finite for v in [0, 1):
    numpy's float64 tan is vectorized where its sin and cos are not (1.6
    against 18 ns a value on an AVX-512 Xeon, numpy 2.4)."""
    radius, v1, v2, v3 = (u[:, i] for i in range(4))
    _radii(radius, nu, work)
    outer, t = work
    np.subtract(1.0, v1, out=outer)
    np.sqrt(outer, out=outer)
    outer *= radius
    np.sqrt(v1, out=v1)
    v1 *= radius
    # (length, v, cos into, sin into): v2 into rows 0 and 2, v3 into 1 and 3
    for length, v, cos, sin in ((v1, v2, radius, v2), (outer, v3, v1, v3)):
        np.subtract(v, 0.5, out=t)
        t *= math.pi
        np.tan(t, out=t)
        np.square(t, out=v)
        np.subtract(1.0, v, out=cos)
        v += 1.0
        length /= v
        cos *= length
        np.multiply(t, length, out=sin)
        sin *= 2.0


def _tree_channels(g: Graph) -> tuple:
    """Per spanning tree T with chords C (the n edges outside T), the (E, n)
    matrix A_T and the (E, 4) offset b_T with q = A_T y + b_T the edge
    momenta when the chords carry momenta y. Column c of A_T is the
    fundamental cycle that chord c closes in T, from the same tree walk as
    cycle_basis: +1 on c, 0 on the other chords and +/-1 on the tree path,
    so A_T is an integer matrix that does not depend on any cycle basis.
    b_T = s - A_T s_C for the routed shifts s. Returns them stacked, as
    floats, with the chords of each tree (T, n), in the order of A_T's
    columns."""
    routing = route_momenta(g)
    shifts = np.array([routing.of(e.id).floats() for e in g.edges])  # (E, 4)
    maps, offsets, chords = [], [], []
    for tree in spanning_trees(g):
        chords.append([e for e in range(g.n_edges) if e not in tree])
        a_t = np.array(_fundamental_cycles(g, tree), dtype=float).T
        maps.append(a_t)
        offsets.append(shifts - a_t @ shifts[chords[-1]])
    return np.array(maps), np.array(offsets), np.array(chords)


class _Memo(dict):
    """The pieces of a prepared problem built so far, by name, and the lock
    held while one of them is built, so that threads racing on one graph
    build each piece once. The lock is the graph's own: a thread building a
    piece holds up only the threads that need a piece of the same graph. A
    copy or a pickle of the graph that holds the memo starts with none."""

    def __init__(self):
        super().__init__()
        self.building = threading.RLock()

    def __reduce__(self):
        return _Memo, ()


class _Problem:
    """The estimators' set-up on one graph, shared by every estimate on it
    (see _problem). Each piece is built on first use and kept in the graph's
    memo; its builders are looked up in this module when they run, so a
    patched builder is seen. A problem is made only for a graph that passes
    _require_convergent: n, N and the vanishing orders are read first. A
    refusal is raised and not kept, so every call raises it again. Every
    array in the memo is read-only, and the memo keeps neither the graph
    nor anything exact (no MultiPoly or Fraction)."""

    def __init__(self, g: Graph, memo: _Memo):
        self.graph = g
        self._memo = memo

        def shape():
            n, n_edges, orders = _require_convergent(g)
            return n, n_edges, _read_only(orders)

        self.n, self.n_edges, self.orders = self._piece("shape", shape)

    def _piece(self, name: str, build):
        memo = self._memo
        if name not in memo:
            with memo.building:
                if name not in memo:
                    memo[name] = build()
        return memo[name]

    @property
    def channels(self) -> tuple:
        """The direct estimator's tree channels (see _tree_channels)."""
        return self._piece(
            "channels", lambda: tuple(map(_read_only, _tree_channels(self.graph)))
        )

    @property
    def u_plan(self):
        """The Horner plan of U, the spanning-tree sum."""
        return self._piece("u_plan", lambda: _poly_evaluator(first_symanzik_trees(self.graph)))

    @property
    def f0_plan(self):
        """The Horner plan of F0, the 2-forest momentum sum."""
        return self._piece("f0_plan", lambda: _poly_evaluator(two_forest_polynomial(self.graph)))

    @property
    def sampler(self):
        """The tropical sampler of the vanishing orders, or None."""
        return self._piece("sampler", lambda: _tropical_sampler(self.orders))

    @property
    def blocks(self) -> np.ndarray:
        """The block table of the propagator forms, transposed and
        contiguous, for the pfaffian estimator's assembly matmul."""

        def build():
            forms = [f.form for f in propagator_forms(self.graph)]
            table = _block_table(forms, self.n)
            return _read_only(np.ascontiguousarray(table.T))

        return self._piece("blocks", build)


def _problem(g: Graph) -> _Problem:
    """The prepared problem of g, the set-up its estimators share, once g
    passes the convergence check. Its memo is kept on the graph, as the
    graph keeps its edge index, so the set-up lives as long as the graph
    does; equal graphs built apart each build their own."""
    memo = vars(g).get("_problem")
    if memo is None:
        # one atomic dict call, so threads racing on g attach one memo
        memo = vars(g).setdefault("_problem", _Memo())
    return _Problem(g, memo)


def direct_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Randomized-QMC estimate of the momentum-space integral
    int d^{4n}x / prod_e [(sum_k alpha_k(e) x_k + s_e)^2 + m_e^2].

    The proposal is a mixture with one channel per spanning tree T
    (multichannel sampling, Kleiss-Pittau hep-ph/9405257). Channel T draws
    the momentum of each chord c of T from a 4-dimensional Student-t h_c
    centred at q_c = 0, with nu degrees of freedom and the chord's mass as
    its scale sigma_c; conservation fixes the rest, q = A_T y + b_T with the
    columns of A_T the fundamental cycles of T (see _tree_channels), a map
    of unit Jacobian that no cycle basis enters. Every sample is weighted by
    the balance heuristic f/g with the mixture density g = U(h_1(q_1), ...,
    h_E(q_E)) / T_count, h_e the Student-t density of scale sigma_e
    (sigma_e^-4 included), U the first Symanzik polynomial (the sum over
    spanning trees of chord products; Bogner-Weinzierl arXiv:1002.3458) and
    T_count = U(1, ..., 1). U is a sum of positive terms, evaluated after
    dividing each sample's h by its largest entry (U is homogeneous of
    degree n), so g loses no precision to cancellation.

    The sampler is that of the simplex estimates: replicates of a scrambled
    Sobol sequence, cut into blocks (see rqmc.Plan), here of dimension 1 + 4n.
    Coordinate 0 of a point picks its channel as floor(u T_count); it is the
    van der Corput coordinate, so the channels are close to evenly filled in
    every aligned block of 2^k points. Coordinates 1 + 4k .. 4 + 4k give
    chord k a draw of unit scale (see _student_t), and A_T diag(sigma_C)
    maps the chords to the edges. Each block's lanes are sorted by channel,
    stably, so that each channel's lanes are contiguous. A batch holds whole
    blocks, at most _BLOCK points (one lane chunk), and its logs and its
    mixture density are formed in one pass over all of them; its edge
    momenta, a quarter chunk at a time.

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
    problem = _problem(g)
    n, n_edges = problem.n, problem.n_edges
    maps, offsets, chord_edges = problem.channels
    u_at = problem.u_plan
    n_trees = len(maps)
    scale = np.array([float(e.mass) for e in g.edges])
    mass_sq = np.square(scale)[:, None]
    # A_T diag(sigma_C) and b_T: the edge momenta from chord draws of unit scale
    channels = list(zip(maps * scale[chord_edges][:, None, :], offsets))

    nu = _tail_dof(n, problem.orders)
    nu_scale_sq = nu * mass_sq
    log_scale = 4.0 * np.log(scale)[:, None]
    log_norm = (  # log of the unit-scale Student-t density at q = 0
        math.lgamma((nu + 4.0) / 2.0) - math.lgamma(nu / 2.0) - 2.0 * math.log(nu * math.pi)
    )
    log_g0 = n * log_norm - math.log(n_trees)
    dim = 1 + 4 * n

    # a batch holds at most one block's points, or several smaller blocks
    batch = min(_BLOCK, cfg.n_samples)
    # a channel's block is cut into pieces of at most a quarter chunk, so
    # that q holds no more values than |q|^2 of a chunk
    piece = max(3, min(_SIMPLEX_LANES, batch) // 4)
    shapes = (
        (4, n, batch),  # chord momenta: component, chord, sample
        (dim, batch),  # the Sobol points of one block
        (2, n, batch),  # scratch of their chord draws
        (batch,),  # log weights log f - log g
        (n_edges, batch),  # |q_e|^2, then log h_e
        (n_edges, batch),  # log(|q_e|^2 + m_e^2)
        (4, n_edges, piece),  # q of one piece of a channel's block
        (batch,),  # max_e log h_e
        (batch,),  # log g
        (u_at.work_size(batch),),
    )
    with _workspace(*shapes) as regions:
        chords_at, points_at, draw_at, log_w_at = regions[:4]
        p2_at, log_p_at, q_at, top_at, log_g_at, work = regions[4:]

        def finish(p2, log_w):
            """log f - log g into log_w from the batch's |q_e|^2, p2 (E, B)."""
            width = len(log_w)
            log_p = _view(log_p_at, n_edges, width)
            np.add(p2, mass_sq, out=log_p)
            np.log(log_p, out=log_p)
            np.sum(log_p, axis=0, out=log_w)
            np.negative(log_w, out=log_w)  # log f
            np.divide(p2, nu_scale_sq, out=p2)
            np.log1p(p2, out=p2)
            p2 *= -0.5 * (nu + 4.0)
            p2 -= log_scale  # log h
            top = np.max(p2, axis=0, out=_view(top_at, width))
            p2 -= top
            np.exp(p2, out=p2)
            log_g = u_at(p2.T, _view(log_g_at, width), work)
            np.log(log_g, out=log_g)
            log_g += np.multiply(top, n, out=top)
            log_g += log_g0
            log_w -= log_g

        replicates = _Replicates("direct")
        plan = Plan(cfg.n_samples, cfg.seed, "direct", dim)
        for blocks in plan.batches(_BLOCK):
            count = sum(hi - lo for *_, lo, hi in blocks)
            chords = _view(chords_at, 4, n, count)
            runs, per_channel = [], []
            stop = 0
            for r, _, lo, hi in blocks:
                # the block's chord draws, of unit scale, sorted by channel
                points = _view(points_at, dim, hi - lo)
                plan.draw([(r, lo, hi)], 0, hi - lo, points)
                order, counts = _by_channel(points[0], n_trees)
                uniforms = points[1:].reshape(n, 4, hi - lo)
                _student_t(uniforms, nu, _view(draw_at, 2, n, hi - lo))
                out = chords[:, :, stop : stop + hi - lo].transpose(1, 0, 2)
                np.take(uniforms, order, axis=2, out=out, mode="clip")
                runs.append((r, slice(stop, stop + hi - lo)))
                per_channel += counts.tolist()
                stop += hi - lo

            # each block's lanes of one channel are contiguous
            p2 = _view(p2_at, n_edges, count)
            stop = 0
            for (a_t, b_t), k in zip(itertools.cycle(channels), per_channel):
                for lo, hi in _pieces(stop, stop + k, piece):
                    q = _view(q_at, 4, n_edges, hi - lo)
                    np.matmul(a_t, chords[:, :, lo:hi], out=q)
                    q += b_t.T[:, :, None]
                    np.square(q, out=q)
                    q.sum(axis=0, out=p2[:, lo:hi])
                stop += k
            log_w = _view(log_w_at, count)
            finish(p2, log_w)
            replicates.add(np.exp(log_w, out=log_w), runs)
    estimate, err = replicates.estimate()
    return IntegrationResult(
        estimate, err, cfg.n_samples, cfg.seed, "direct", time.perf_counter() - start
    )


def parametric_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Randomized-QMC estimate of int_simplex delta(1 - sum a) da / S2(a)^2.

    S2 is never expanded: it is evaluated as F0(a) + (sum_e m_e^2 a_e) U(a)
    (Bogner-Weinzierl arXiv:1002.3458), with F0 the 2-forest momentum sum
    and U the spanning-tree sum, each compiled into a Horner plan. On the
    4-loop benchmark graph that is 130 + 117 terms in place of 686. An S2
    that is not positive, or that overflows (its weight would read exactly
    0), is refused with InvariantViolation."""
    (result,), _ = _simplex_estimates(g, cfg, ("parametric",))
    return _held(result)


def _parametric_denominator(g: Graph, problem, lanes: int) -> tuple:
    """The parametric integrand's denominator S2^2 on a lane chunk of at
    most `lanes` points (see parametric_amplitude), and its scratch shapes."""
    f0_at, u_at = problem.f0_plan, problem.u_plan
    mass_sq = np.array([float(e.mass * e.mass) for e in g.edges])

    def denominator(chunk, out, regions):
        mass_at, f0_values_at, work = regions
        # sum_e m_e^2 a_e edge by edge: a matrix-vector product rounds a
        # lane by where it sits in the batch
        mass, term = _view(mass_at, len(out)), _view(f0_values_at, len(out))
        np.multiply(chunk[:, 0], mass_sq[0], out=mass)
        for e in range(1, len(mass_sq)):
            mass += np.multiply(chunk[:, e], mass_sq[e], out=term)
        u_at(chunk, out, work)
        out *= mass
        out += f0_at(chunk, term, work)
        if np.any(out <= 0.0):
            raise InvariantViolation(
                "S2 <= 0 at an interior simplex sample; sign convention broken"
            )
        if np.any(out == math.inf):  # its weight would be exactly 0
            raise InvariantViolation("S2 overflowed at an interior simplex sample")
        np.square(out, out=out)

    work = max(u_at.work_size(lanes), f0_at.work_size(lanes))
    return denominator, ((lanes,), (lanes,), (work,))


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
    """Randomized-QMC estimate of int_simplex delta(1 - sum a) da / |Pf(sum a Q)|^2.

    Pf(sum_e a_e Q_e) is evaluated from the block shape of the forms (see
    _block_table and _pfaffian_batch), not as a general pfaffian. Each lane
    chunk is assembled and handed to the kernel while it is still in cache.
    The estimate draws the points of parametric_amplitude: since |Pf| = S2,
    the two agree to rounding on every config."""
    (result,), _ = _simplex_estimates(g, cfg, ("pfaffian",))
    return _held(result)


def _pfaffian_denominator(g: Graph, problem, lanes: int) -> tuple:
    """The pfaffian integrand's denominator |Pf|^2 on a lane chunk of at
    most `lanes` points (see pfaffian_amplitude), and its scratch shape."""
    n, n_edges = problem.n, problem.n_edges
    coeffs = problem.blocks
    size = n * n

    def denominator(chunk, out, regions):
        (rows_at,) = regions
        width = len(out)
        rows = _view(rows_at, len(coeffs), width)
        whole = width - width % _PANEL
        if whole:
            np.matmul(coeffs, chunk[:whole].T, out=rows[:, :whole])
        if whole < width:  # the last lanes, zero-padded to one whole panel
            tail = np.zeros((n_edges, _PANEL))
            tail[:, : width - whole] = chunk[whole:].T
            rows[:, whole:] = (coeffs @ tail)[:, : width - whole]
        lmat = np.moveaxis(rows[:size].reshape(n, n, -1), -1, 0)
        np.abs(_pfaffian_batch(lmat, rows[size:].T), out=out)
        np.square(out, out=out)
        if np.any(out == 0.0) or not np.all(np.isfinite(out)):
            raise InvariantViolation(
                "pfaffian vanished (or overflowed) at an interior simplex sample"
            )

    return denominator, ((len(coeffs), lanes),)


# The simplex integrands by method: each builds its denominator on a
# graph's prepared problem (see _simplex_estimates).
_DENOMINATORS = {"parametric": _parametric_denominator, "pfaffian": _pfaffian_denominator}


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

    N = 2 evaluates the 1-d integral by adaptive quadrature; larger N, up
    to 64, uses the simplex estimate's randomized QMC (the (N-1)! and the
    simplex volume cancel, so the estimator is the mean of (sum a A)^(-N)
    over uniform simplex points, with the replicates' error bar).
    """
    try:
        A = list(values)
    except TypeError:
        raise ValidationError("values must be an iterable of real numbers") from None
    if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in A):
        raise ValidationError("every value must be a real number")
    A = [float(v) for v in A]
    if len(A) < 2:
        raise ValidationError("need at least two values")
    if any(not math.isfinite(v) for v in A):
        raise ValidationError("all values must be finite")
    if any(not v > 0 for v in A):
        raise ValidationError("all values must be strictly positive")
    if len(A) > _MAX_DIM:
        raise ValidationError(f"at most {_MAX_DIM} values can be checked")
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

    replicates = _Replicates("feynman")
    with _workspace(*_draw_shapes(_largest_batch(cfg), n_vals, None)) as regions:
        for (points, _), runs in _simplex_batches(cfg, n_vals, "feynman", None, regions):
            # sum_k a_k A_k coordinate by coordinate: a matrix-vector product
            # rounds a lane by where it sits in the batch
            total = np.zeros(len(points))
            for k, value in enumerate(A):
                total += points[:, k] * value
            out = total ** (-n_vals)
            if not np.all((out > 0.0) & (out < math.inf)):
                raise PrecisionError("simplex integrand underflowed to 0 or is not finite")
            replicates.add(out, runs)
    rhs, err = replicates.estimate()
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

    Runs the direct estimate and the two simplex estimates from one draw
    (see _simplex_estimates) on the same config, all sharing the graph's
    set-up (see _problem), or reuses a precomputed (direct, parametric,
    pfaffian) triple. The first refusal among them is raised. Refuses to
    report if any component estimate is zero or not finite, or has relative
    standard error above 5%; ratio errors come from first-order propagation.
    So C_hat / c_hat - 1 is rounding alone: the two simplex estimates share
    their points.
    """
    if results is not None:
        direct, parametric, pfaffian = results
    else:
        direct = direct_amplitude(g, cfg)
        parametric, pfaffian = map(_held, _simplex_estimates(g, cfg)[0])
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
