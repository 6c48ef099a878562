"""Distance matrices and the certified distance spectral radius.

The spectral radius of a distance matrix is bracketed with Collatz-Wielandt
bounds: for any positive vector x, min_i (Dx)_i/x_i and max_i (Dx)_i/x_i
enclose the Perron value.  Power iteration tightens the bracket until it is
narrower than the requested width, so every reported value carries a
certificate rather than a bare floating-point estimate.  Comparisons are
then made only between disjoint brackets; overlapping brackets are reported
as indistinguishable instead of being resolved by an epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graphs import Graph, GraphError, bfs_distances
from .jsonio import dumps

DEFAULT_BRACKET_WIDTH = 1e-10
DEFAULT_COMPARE_WIDTH = 1e-9
MIN_BRACKET_WIDTH = 1e-12
MAX_ITER = 100000


class BracketError(RuntimeError):
    """Power iteration ran out of iterations; carries the best bracket."""

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

    value is the Rayleigh quotient of the final iterate clamped into
    [lower, upper]; vector is that iterate (positive, unit 2-norm).
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
    """Power iteration from the all-ones vector with certified brackets.

    Each step evaluates y = Dx and the Collatz-Wielandt bounds
    min_i y_i/x_i <= radius <= max_i y_i/x_i, valid for any positive x.
    Stops once the bracket is narrower than bracket_width.
    """
    if bracket_width <= 0:
        raise ValueError(f"bracket width must be positive, got {bracket_width}")
    n = dm.n
    if n == 1:
        vec = np.ones(1)
        vec.setflags(write=False)
        return PerronResult(0.0, 0.0, 0.0, 0.0, 0, vec)
    d = dm.d.astype(np.float64)
    x = np.full(n, 1.0 / math.sqrt(n))
    best_lower = -math.inf
    best_upper = math.inf
    for it in range(1, max_iter + 1):
        y = d @ x
        ratios = y / x
        lower = float(ratios.min())
        upper = float(ratios.max())
        best_lower = max(best_lower, lower)
        best_upper = min(best_upper, upper)
        if upper - lower <= bracket_width:
            lam = float(x @ y)
            lam = min(max(lam, lower), upper)
            residual = float(np.max(np.abs(y - lam * x)))
            x = x.copy()
            x.setflags(write=False)
            return PerronResult(lam, lower, upper, residual, it, x)
        x = y / float(np.linalg.norm(y))
    raise BracketError(best_lower, best_upper, max_iter)


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
