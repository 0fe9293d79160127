"""Monte Carlo evaluation of the three amplitude representations.

direct      integral over R^(4n) of 1 / prod_e P_e(x), importance-sampled
            with one heavy-tailed 4-dimensional Cauchy proposal per loop;
parametric  integral over the unit simplex of 1 / S2(a)^2;
pfaffian    integral over the unit simplex of 1 / |Pf(sum_e a_e Q_e)|^2.
            Each batch of forms is assembled by one matmul with the
            flattened (E, d*d) stack and goes through the one Parlett-Reid
            kernel, `algebra._pfaffian_batch` (batch-last, cache-blocked).

All samplers derive their random stream deterministically from
(seed, method, batch index), and batch results are merged in batch order
with compensated summation, so a fixed config reproduces bit-identical
estimates.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _scipy_integrate
from scipy.special import gammaln
from scipy.stats import qmc

from .algebra import _pfaffian_batch
from .errors import (
    InvariantViolation,
    PrecisionError,
    UnsupportedTopology,
    ValidationError,
)
from .graphs import Graph, cycle_basis, loop_number, route_momenta
from .symanzik import first_symanzik_det, second_symanzik
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

# Degrees of freedom of the per-loop proposal factors in the direct method.
# Each loop's 4 coordinates are drawn from one 4-dimensional Student-t with
# nu = 1 (a 4-dim Cauchy), independently per loop. Along the subspace spanned
# by any s loops the proposal then decays like r^(-5s) while the integrand
# decays like r^(-2e) with e the number of edges those loops touch; simple
# graphs give e >= 3 for s = 1 and e >= 5 for s = 2, so the importance
# weights stay bounded for every 1- and 2-loop topology.
_TAIL_DOF = 1.0

_METHOD_CODE = {"direct": 1, "parametric": 2, "pfaffian": 3, "feynman": 4}


def _is_int(value) -> bool:
    # bool is a subclass of int, but batch_size=True is not a batch size
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class IntegrationConfig:
    """Sampler settings; everything that affects the random stream is here."""

    n_samples: int = 100_000
    seed: int = 0
    scale: float | None = None  # proposal scale (energy units), direct method
    batch_size: int = 65_536
    qmc: bool = False

    def __post_init__(self):
        if not _is_int(self.n_samples) or self.n_samples < 1000:
            raise ValidationError("sample count must be an integer >= 1000")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if not _is_int(self.batch_size) or self.batch_size <= 0:
            raise ValidationError("batch size must be a positive integer")
        if self.scale is not None and not (
            isinstance(self.scale, numbers.Real)
            and not isinstance(self.scale, bool)
            and math.isfinite(self.scale)
            and self.scale > 0
        ):
            raise ValidationError("proposal scale must be a finite positive number")


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
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "method": self.method,
            "wall_time_s": self.wall_time_s,
        }


class _Accumulator:
    """Per-batch sums merged deterministically in batch order."""

    def __init__(self):
        self._sums = []
        self._sq_sums = []
        self._count = 0

    def add(self, values: np.ndarray) -> None:
        self._sums.append(float(values.sum()))
        self._sq_sums.append(float(np.square(values).sum()))
        self._count += values.size

    def finalize(self, factor: float = 1.0):
        n = self._count
        mean = math.fsum(self._sums) / n
        mean_sq = math.fsum(self._sq_sums) / n
        variance = max(mean_sq - mean * mean, 0.0) / n
        return factor * mean, factor * math.sqrt(variance)


def _batches(total: int, size: int):
    index = 0
    done = 0
    while done < total:
        count = min(size, total - done)
        yield index, count
        index += 1
        done += count


def _rng(seed: int, method: str, batch_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _METHOD_CODE[method], batch_index])


def _simplex_batches(cfg: IntegrationConfig, dim: int, method: str):
    """Uniform (Dirichlet) or scrambled-Sobol batches on the unit simplex."""
    if cfg.qmc:
        sobol = qmc.Sobol(d=dim, scramble=True, seed=_rng(cfg.seed, method, 0))
        for index, count in _batches(cfg.n_samples, cfg.batch_size):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # non power-of-two draws
                u = sobol.random(count)
            e = -np.log(np.clip(1.0 - u, 1e-16, 1.0))
            yield e / e.sum(axis=1, keepdims=True)
    else:
        alpha = np.ones(dim)
        for index, count in _batches(cfg.n_samples, cfg.batch_size):
            yield _rng(cfg.seed, method, index).dirichlet(alpha, size=count)


def _simplex_mean(cfg: IntegrationConfig, dim: int, method: str, weights, factor: float = 1.0):
    """factor * mean of weights(batch) over the simplex batches, with its
    standard error."""
    acc = _Accumulator()
    for batch in _simplex_batches(cfg, dim, method):
        acc.add(weights(batch))
    return acc.finalize(factor)


def _poly_evaluator(poly):
    """Vectorized evaluation of a MultiPoly on batches of points (B, N)."""
    exps, coeffs = poly.compiled()

    def evaluate(points: np.ndarray) -> np.ndarray:
        out = np.zeros(len(points), dtype=complex)
        for term in range(len(coeffs)):
            v = np.full(len(points), coeffs[term])
            for var in range(exps.shape[1]):
                e = exps[term, var]
                if e == 1:
                    v = v * points[:, var]
                elif e:
                    v = v * points[:, var] ** e
            out += v
        return out

    return evaluate


def _require_even_split(g: Graph) -> tuple:
    n = loop_number(g)
    n_edges = g.n_edges
    if n_edges != 2 * n + 2:
        raise UnsupportedTopology(
            f"amplitude integrals are implemented for N = 2n+2; got N={n_edges}, n={n}"
        )
    if n < 1:
        raise UnsupportedTopology("need at least one loop")
    return n, n_edges


def direct_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Monte Carlo estimate of the momentum-space integral
    int d^{4n}x / prod_e [(sum_k alpha_k(e) x_k + s_e)^2 + m_e^2].

    Importance sampling draws each loop 4-vector from a heavy-tailed
    4-dimensional Cauchy (Student-t, one degree of freedom) whose scale
    defaults to the geometric mean of the masses; see _TAIL_DOF for the
    tail-matching argument.
    """
    start = time.perf_counter()
    n, n_edges = _require_even_split(g)
    if cfg.qmc:
        raise ValidationError("qmc sampling is only wired up for the simplex methods")
    if any(e.mass <= 0 for e in g.edges):
        raise ValidationError("direct integral needs all masses > 0 to converge")
    basis = cycle_basis(g)
    routing = route_momenta(g)

    loops = basis.to_numpy()  # (n, E)
    shifts = np.array([routing.of(e.id).floats() for e in g.edges])  # (E, 4)
    mass_sq = np.array([float(e.mass) ** 2 for e in g.edges])
    scale = cfg.scale or math.exp(
        sum(math.log(float(e.mass)) for e in g.edges) / n_edges
    )

    nu = _TAIL_DOF
    log_norm_per_loop = (
        gammaln((nu + 4.0) / 2.0)
        - gammaln(nu / 2.0)
        - 2.0 * math.log(nu * math.pi)
        - 4.0 * math.log(scale)
    )

    acc = _Accumulator()
    for index, count in _batches(cfg.n_samples, cfg.batch_size):
        rng = _rng(cfg.seed, "direct", index)
        z = rng.standard_normal((count, n, 4))
        u = rng.chisquare(nu, size=(count, n)) / nu
        xs = scale * z / np.sqrt(u)[:, :, None]

        r2 = np.square(xs / scale).sum(axis=2)  # (B, n)
        log_g = n * log_norm_per_loop - 0.5 * (nu + 4.0) * np.log1p(r2 / nu).sum(axis=1)

        momenta = np.einsum("ke,bkc->bec", loops, xs) + shifts[None, :, :]
        props = np.square(momenta).sum(axis=2) + mass_sq[None, :]
        log_f = -np.log(props).sum(axis=1)

        weights = np.exp(log_f - log_g)
        if not np.all(np.isfinite(weights)):
            bad = int(np.argmin(np.isfinite(weights)))
            raise InvariantViolation(
                f"non-finite direct-method sample in batch {index} (sample {bad})"
            )
        acc.add(weights)

    estimate, err = acc.finalize()
    return IntegrationResult(
        estimate, err, cfg.n_samples, cfg.seed, "direct", time.perf_counter() - start
    )


def parametric_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Monte Carlo estimate of int_simplex delta(1 - sum a) da / S2(a)^2."""
    start = time.perf_counter()
    _, n_edges = _require_even_split(g)
    s2_at = _poly_evaluator(second_symanzik(g).s2)

    def weights(batch):
        values = s2_at(batch)
        if np.abs(values.imag).max(initial=0.0) > 1e-9 * max(np.abs(values).max(initial=0.0), 1.0):
            raise InvariantViolation("S2 evaluated to a complex value")
        real = values.real
        if np.any(real <= 0.0):
            raise InvariantViolation(
                "S2 <= 0 at an interior simplex sample; sign convention broken"
            )
        return 1.0 / np.square(real)

    estimate, err = _simplex_mean(
        cfg, n_edges, "parametric", weights, 1.0 / math.factorial(n_edges - 1)
    )
    return IntegrationResult(
        estimate, err, cfg.n_samples, cfg.seed, "parametric", time.perf_counter() - start
    )


def pfaffian_amplitude(g: Graph, cfg: IntegrationConfig) -> IntegrationResult:
    """Monte Carlo estimate of int_simplex delta(1 - sum a) da / |Pf(sum a Q)|^2."""
    start = time.perf_counter()
    n, n_edges = _require_even_split(g)
    stack = np.stack([f.to_numpy() for f in propagator_forms(g)])  # (E, d, d)
    dim = stack.shape[1]
    flat = stack.reshape(n_edges, dim * dim)

    def weights(batch):
        pf = _pfaffian_batch((batch @ flat).reshape(len(batch), dim, dim))
        mag = np.abs(pf) ** 2
        if np.any(mag == 0.0) or not np.all(np.isfinite(mag)):
            raise InvariantViolation(
                "pfaffian vanished (or overflowed) at an interior simplex sample"
            )
        return 1.0 / mag

    estimate, err = _simplex_mean(
        cfg, n_edges, "pfaffian", weights, 1.0 / math.factorial(n_edges - 1)
    )
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

    def as_tuple(self) -> tuple:
        return self.lhs, self.rhs, self.rel_gap


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
        a, b = A
        try:
            rhs, abserr = _scipy_integrate.quad(
                lambda t: 1.0 / (t * a + (1.0 - t) * b) ** 2, 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-13,
            )
        except OverflowError as exc:
            raise PrecisionError(f"simplex integrand overflowed: {exc}") from exc
        return FeynmanTrickResult(lhs, rhs, abs(rhs - lhs) / lhs, abserr, "quadrature", 0)

    cfg = cfg or IntegrationConfig(n_samples=200_000, seed=0)
    arr = np.array(A)
    rhs, err = _simplex_mean(cfg, n_vals, "feynman", lambda batch: (batch @ arr) ** (-n_vals))
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
    component estimate has relative standard error above 5%; ratio errors
    come from first-order propagation.
    """
    if results is not None:
        direct, parametric, pfaffian = results
    else:
        direct = direct_amplitude(g, cfg)
        parametric = parametric_amplitude(g, cfg)
        pfaffian = pfaffian_amplitude(g, cfg)
    for res in (direct, parametric, pfaffian):
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


def log_divergent_integrand(g: Graph, basis=None):
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
    s1 = first_symanzik_det(g, basis or cycle_basis(g))
    evaluate = _poly_evaluator(s1)

    def integrand(points):
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        values = evaluate(arr).real
        out = 1.0 / np.square(values)
        return float(out[0]) if np.ndim(points) == 1 else out

    integrand.polynomial = s1
    return integrand
