"""Distance matrices and the certified distance spectral radius.

For an irreducible nonnegative matrix D and any positive vector x, the
Collatz-Wielandt ratios (Dx)_i/x_i enclose the Perron value from both sides.
The certification step scales |x| of a dense symmetric eigensolver's top
eigenvector to a positive integer vector X with max X = 2^50 and forms
Y = DX exactly: in int64 for n <= 64, where D holds hop counts below 64 and
no sum can overflow, and in Python ints beyond.  Each ratio Y_i/X_i is then
rounded once, so widening min and max of the ratios outward by two ulps
gives a rigorous bracket a few ulps wide, with no tolerance behind it (Rump,
"Verification methods", Acta Numerica 19, 2010).

One loop brackets a stack of same-order matrices: one stacked eigh, the
step per matrix, and, for a matrix still wider than requested, power
iteration with every refined vector certified the same way.  perron() runs
it on one matrix, perron_many() on each order's distinct graphs of a
batch, and brackets() on a catalog's adjacency bitmask rows; only the
one-graph perron_of() keeps radii, in a small bounded cache.  Every
distance stack starts from one adjacency builder.  A matrix gets the same
bits in any stack: the stacked eigh makes the same LAPACK call on each
matrix, and the step is exact.
Comparisons are made only between disjoint brackets; overlapping brackets
are reported as indistinguishable instead of being resolved by an epsilon.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, GraphError
from .jsonio import dumps

DEFAULT_BRACKET_WIDTH = 1e-10
MAX_ITER = 100000
# Largest order whose step is exact in int64 (64 * 63 * 2^50 < 2^63); larger
# orders take the step in Python ints.
INT64_MAX_N = 64


class BracketError(RuntimeError):
    """No certified step reached the requested width; carries their intersection."""

    def __init__(self, lower: float, upper: float, iterations: int):
        super().__init__(
            f"bracket [{lower!r}, {upper!r}] still wider than requested "
            f"after {iterations} iterations"
        )
        self.lower = lower
        self.upper = upper
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric matrix of shortest-path hop counts of a connected graph."""

    n: int
    d: np.ndarray


def distance_matrices(graphs: Sequence[Graph]) -> list[DistanceMatrix]:
    """Distance matrices of many graphs, built once each as one stack per order.

    The masks are read as int64 below 63 vertices and as Python ints from 63
    up.  Raises GraphError if any of the graphs is disconnected.
    """
    built = {}
    for n, gs in _by_order(dict.fromkeys(graphs)).items():
        masks = np.array([g.masks for g in gs], dtype=np.int64 if n < 63 else object)
        built.update(zip(gs, (DistanceMatrix(n, d) for d in _hop_counts(_adjacency(masks)))))
    return [built[g] for g in graphs]


def distance_matrix(g: Graph) -> DistanceMatrix:
    """Hop-count matrix of one graph; raises on a disconnected graph."""
    return distance_matrices([g])[0]


def _adjacency(masks: np.ndarray) -> np.ndarray:
    """Boolean adjacency stack of (graphs, n) bitmasks: [i, u, w] is bit w of masks[i, u]."""
    return (masks[:, :, None] >> np.arange(masks.shape[1]) & 1).astype(bool)


def _hop_counts(a: np.ndarray) -> np.ndarray:
    """Read-only int64 stack of the hop-count matrices of a boolean adjacency stack.

    Every source of every graph advances together: the vertices first
    reached at hop k are the neighbours of those first reached at hop k-1
    (a boolean product with the stacked adjacency) that no earlier hop
    reached.
    """
    d = a.astype(np.int64)
    reached = a | np.eye(a.shape[-1], dtype=bool)
    frontier = a
    hop = 1
    while True:
        hop += 1
        frontier = frontier @ a & ~reached
        if not frontier.any():
            break
        d[frontier] = hop
        reached |= frontier
    if not reached.all():
        raise GraphError("distance matrix undefined: graph is not connected")
    d.setflags(write=False)
    return d


@dataclass(frozen=True, eq=False)
class PerronResult:
    """Certified bracket around the distance spectral radius.

    value is the Rayleigh quotient of the certified vector clamped into
    [lower, upper]; vector is that vector (positive, unit 2-norm).
    """

    value: float
    lower: float
    upper: float
    residual: float
    iterations: int
    vector: np.ndarray

    @property
    def width(self) -> float:
        return self.upper - self.lower


def perron(
    dm: DistanceMatrix, bracket_width: float = DEFAULT_BRACKET_WIDTH, max_iter: int = MAX_ITER
) -> PerronResult:
    """Certified bracket of one matrix: the bracket loop on a stack of one.

    BracketError carries the bracket reached after max_iter steps short of bracket_width.
    """
    if not bracket_width > 0:
        raise ValueError(f"bracket width must be positive, got {bracket_width}")
    return _bracket_stack(dm.d, bracket_width, max_iter)[0]


def _bracket_stack(
    d: np.ndarray, bracket_width: float = DEFAULT_BRACKET_WIDTH, max_iter: int = MAX_ITER
) -> list[PerronResult]:
    """Certified brackets of a stack d of same-order matrices; a 2-D d is a stack of one.

    Each matrix's first step certifies its top eigenvector from one stacked
    eigh.  While its bracket, the intersection of its steps, is wider than
    bracket_width, power iteration refines the vector; iterations counts
    the steps.  After max_iter steps BracketError carries the bracket of
    the first matrix still too wide.
    """
    n = d.shape[-1]
    stack = d.reshape(-1, n, n)
    if n == 1:
        return [_result([1], [0], 0.0, 0.0, 0)] * len(stack)  # D = [0]: radius exactly 0
    x = np.abs(np.linalg.eigh(d)[1][..., -1]).reshape(-1, n)
    out: list = [None] * len(stack)
    bounds = [(-math.inf, math.inf)] * len(stack)
    todo = list(range(len(stack)))
    for it in range(1, max_iter + 1):
        for i, step in zip(todo, _steps(_exact(stack[todo]), x[todo])):
            if step is not None:
                xs, ys, lower, upper = step
                bounds[i] = lower, upper = max(bounds[i][0], lower), min(bounds[i][1], upper)
                if upper - lower <= bracket_width:
                    out[i] = _result(xs, ys, lower, upper, it)
        todo = [i for i in todo if out[i] is None]
        if not todo:
            return out
        y = np.matmul(stack[todo], x[todo][:, :, None])[:, :, 0]
        x[todo] = y / y.max(axis=1, keepdims=True)
    raise BracketError(*bounds[todo[0]], max_iter)


def _exact(d: np.ndarray) -> np.ndarray:
    """d in a dtype whose products are exact: int64 up to INT64_MAX_N, Python ints beyond."""
    return d if d.shape[-1] <= INT64_MAX_N else d.astype(object)


def _steps(d: np.ndarray, x: np.ndarray) -> Iterator[tuple | None]:
    """One exact Collatz-Wielandt step per matrix of the stack d, at the rows of x.

    Each row of x is scaled to max 2^50 and truncated to an integer vector
    X, which keeps X <= 2^50 (any positive integer vector certifies), and
    Y = DX is formed exactly in d's dtype.  Each Python int quotient
    Y_i/X_i is correctly rounded, so two ulps outward more than cover the
    one rounding.  Yields a step (X, Y, lower, upper) per matrix, or None
    where truncation left a zero in X.
    """
    big = (x / x.max(axis=1, keepdims=True) * 2.0**50).astype(np.int64)
    positive = (big.min(axis=1) >= 1).tolist()
    y = np.matmul(d, big.astype(d.dtype, copy=False)[:, :, None])[:, :, 0]
    for ok, xrow, yrow in zip(positive, big, y):
        if not ok:
            yield None
            continue
        xs, ys = xrow.tolist(), yrow.tolist()
        ratios = [yi / xi for yi, xi in zip(ys, xs)]
        yield xs, ys, _ulps(min(ratios), -math.inf), _ulps(max(ratios), math.inf)


def _result(xs: list, ys: list, lower: float, upper: float, iterations: int) -> PerronResult:
    """Result for the certified vector X with Y = DX, clamped into the bracket."""
    sq = sum(map(operator.mul, xs, xs))
    lam = min(max(sum(map(operator.mul, xs, ys)) / sq, lower), upper)
    norm = math.sqrt(sq)
    residual = max([abs(y - lam * x) for x, y in zip(xs, ys)]) / norm
    vec = np.array(xs, dtype=np.float64) / norm
    vec.setflags(write=False)
    return PerronResult(lam, lower, upper, residual, iterations, vec)


def _ulps(x: float, toward: float) -> float:
    """x moved two ulps toward +-inf."""
    return math.nextafter(math.nextafter(x, toward), toward)


@functools.lru_cache(maxsize=128)
def _perron_at_default(g: Graph) -> PerronResult:
    return perron_many([g])[0]


def perron_of(g: Graph, bracket_width: float = DEFAULT_BRACKET_WIDTH) -> PerronResult:
    """Certified radius of one graph's distance matrix.

    The default width is served by a bounded lru_cache, whose cache_info()
    and cache_clear() perron_of exposes; any other width by perron(), uncached.
    """
    if bracket_width != DEFAULT_BRACKET_WIDTH:
        return perron(distance_matrix(g), bracket_width=bracket_width)
    return _perron_at_default(g)


perron_of.cache_info = _perron_at_default.cache_info
perron_of.cache_clear = _perron_at_default.cache_clear


def perron_many(
    graphs: Iterable[Graph], dms: Sequence[DistanceMatrix] | None = None
) -> list[PerronResult]:
    """Default-width brackets of many graphs, kept nowhere after the call.

    The distinct graphs are bracketed once, as one stack per order, from
    their distance matrices: dms when given, else distance_matrices().
    """
    graphs = list(graphs)
    built = dict(zip(graphs, distance_matrices(graphs) if dms is None else dms))
    radius: dict[Graph, PerronResult] = {}
    for gs in _by_order(built).values():
        radius.update(zip(gs, _bracket_stack(np.stack([built[g].d for g in gs]))))
    return [radius[g] for g in graphs]


def brackets(masks: np.ndarray) -> list[PerronResult]:
    """Default-width brackets of a nonempty (graphs, n) bitmask array, as one stack, uncached."""
    return _bracket_stack(_hop_counts(_adjacency(masks)))


def _by_order(graphs: Iterable[Graph]) -> dict[int, list[Graph]]:
    by_order: dict[int, list[Graph]] = {}
    for g in graphs:
        by_order.setdefault(g.n, []).append(g)
    return by_order


def rayleigh_quotient(dm: DistanceMatrix, x: np.ndarray) -> float:
    """x.D.x / x.x, a lower bound on the spectral radius for any real x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dm.n,):
        raise ValueError(f"vector length {x.shape} does not match order {dm.n}")
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("rayleigh quotient undefined for the zero vector")
    return float(x @ (dm.d @ x)) / denom


def quadratic_form_delta(
    d_old: DistanceMatrix, d_new: DistanceMatrix, x: np.ndarray
) -> float:
    """x.(D_new - D_old).x for a unit vector x on a shared vertex set."""
    if d_old.n != d_new.n:
        raise ValueError(f"orders differ: {d_old.n} vs {d_new.n}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d_old.n,):
        raise ValueError(f"vector length {x.shape} does not match order {d_old.n}")
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-8:
        raise ValueError("vector must have unit 2-norm")
    delta = d_new.d.astype(np.float64) - d_old.d.astype(np.float64)
    return float(x @ (delta @ x))


class Relation(Enum):
    LESS = "LESS"
    GREATER = "GREATER"
    INDISTINGUISHABLE = "INDISTINGUISHABLE"


@dataclass(frozen=True)
class SpectralOrdering:
    """Outcome of a certified comparison.

    For LESS/GREATER, gap_lower_bound is the distance between the disjoint
    brackets (a certified lower bound on the true gap); for
    INDISTINGUISHABLE it is the width of the bracket overlap.
    """

    relation: Relation
    gap_lower_bound: float


def certified_compare(a: PerronResult, b: PerronResult) -> SpectralOrdering:
    """Order two bracketed values, refusing to guess when brackets overlap."""
    if a.upper < b.lower:
        return SpectralOrdering(Relation.LESS, b.lower - a.upper)
    if b.upper < a.lower:
        return SpectralOrdering(Relation.GREATER, a.lower - b.upper)
    overlap = min(a.upper, b.upper) - max(a.lower, b.lower)
    return SpectralOrdering(Relation.INDISTINGUISHABLE, overlap)


def perron_json(res: PerronResult) -> str:
    """Serialize a result with 17-significant-digit floats."""
    return dumps(
        {
            "lambda": res.value,
            "lower": res.lower,
            "upper": res.upper,
            "residual": res.residual,
            "iterations": res.iterations,
            "vector": [float(v) for v in res.vector],
        }
    )
