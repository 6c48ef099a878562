"""Distance matrices and the certified distance spectral radius.

For an irreducible nonnegative matrix D and any positive vector x, the
Collatz-Wielandt ratios (Dx)_i/x_i enclose the Perron value from both sides.
perron() takes x from a dense symmetric eigensolver, scales |x| to a positive
integer vector X with max X = 2^50, and forms Y = DX exactly: in int64 for
n <= 64, where D holds hop counts below 64 and no sum can overflow, and in
Python ints beyond.  Each ratio Y_i/X_i is then rounded once, so widening
min and max of the ratios outward by two ulps gives a rigorous bracket a few
ulps wide: one certification step, with no tolerance behind it (Rump,
"Verification methods", Acta Numerica 19, 2010).  When that bracket is wider
than requested, power iteration only refines the vector; each refined
vector is certified the same way, so every bracket perron() returns, or
carries in a BracketError, is rigorous.
Comparisons are then made only between disjoint brackets; overlapping
brackets are reported as indistinguishable instead of being resolved by an
epsilon.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graphs import Graph, GraphError, bfs_distances
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


def distance_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs BFS distances; raises on a disconnected graph."""
    rows = []
    for s in range(g.n):
        dist = bfs_distances(g, s)
        if min(dist) < 0:
            raise GraphError("distance matrix undefined: graph is not connected")
        rows.append(dist)
    d = np.array(rows, dtype=np.int64)
    d.setflags(write=False)
    return DistanceMatrix(n=g.n, d=d)


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
    dm: DistanceMatrix,
    bracket_width: float = DEFAULT_BRACKET_WIDTH,
    max_iter: int = MAX_ITER,
) -> PerronResult:
    """Certified bracket from exact Collatz-Wielandt steps.

    The first step certifies the top eigenvector of a dense symmetric
    solver.  While the bracket is wider than bracket_width, power iteration
    refines the vector and every new vector is certified the same way; the
    result carries the intersection of the step brackets and iterations
    counts the steps.  After max_iter steps BracketError carries that
    intersection instead.
    """
    if not bracket_width > 0:
        raise ValueError(f"bracket width must be positive, got {bracket_width}")
    if dm.n == 1:
        vec = np.ones(1)
        vec.setflags(write=False)
        return PerronResult(0.0, 0.0, 0.0, 0.0, 0, vec)
    # exact products: int64 up to INT64_MAX_N, Python ints beyond
    d = dm.d if dm.n <= INT64_MAX_N else dm.d.astype(object)
    x = np.abs(np.linalg.eigh(dm.d)[1][:, -1])
    lower, upper = -math.inf, math.inf
    for it in range(1, max_iter + 1):
        # truncation keeps X <= 2^50; any positive integer vector certifies
        big = (x / x.max() * 2.0**50).astype(np.int64)
        if big.min() >= 1:
            xs = big.tolist()
            ys = (d @ big.astype(d.dtype, copy=False)).tolist()
            # each Python int quotient is correctly rounded, so two ulps
            # outward more than cover the one rounding
            ratios = [yi / xi for yi, xi in zip(ys, xs)]
            lower = max(lower, _ulps(min(ratios), -math.inf))
            upper = min(upper, _ulps(max(ratios), math.inf))
            if upper - lower <= bracket_width:
                return _result(xs, ys, lower, upper, it)
        x = dm.d @ x
        x /= x.max()
    raise BracketError(lower, upper, max_iter)


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


@lru_cache(maxsize=None)
def perron_of(g: Graph, bracket_width: float = DEFAULT_BRACKET_WIDTH) -> PerronResult:
    """Cached certified radius of a graph's distance matrix."""
    return perron(distance_matrix(g), bracket_width=bracket_width)


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
