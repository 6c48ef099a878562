"""Distance matrices and the certified distance spectral radius.

For an irreducible nonnegative matrix D and any positive vector x, the
Collatz-Wielandt ratios (Dx)_i/x_i enclose the Perron value from both sides.
The certification step scales |x| of a dense symmetric eigensolver's top
eigenvector to an integer vector 1 <= X <= 2^50 with max X = 2^50 and forms
Y = DX exactly: in int64 for n <= 64, where D holds hop counts below 64 and
no sum can overflow, and in Python ints beyond.  The least and greatest
ratio Y_i/X_i, correctly rounded and moved two ulps outward, give a rigorous
bracket a few ulps wide, with no tolerance behind it (Rump, "Verification
methods", Acta Numerica 19, 2010).

The step is array code over a stack.  Every ratio Y_i/X_i is divided as
Python ints, so each is correctly rounded, and each row's extremes are
moved two ulps out.  x.x and x.y are summed as Python ints over object
arrays, exact at every order (int64 limb sums measured no faster at
n <= 9), and one division per matrix gives the Rayleigh quotient.  Hop
counts come from Floyd-Warshall on the stack (Floyd, CACM 5(6), 1962):
n add/minimum steps in a narrow unsigned type, n marking an unreached
pair, cheaper than a boolean matrix product per hop.

A stack of same-order matrices (each order's distinct graphs of a batch in
perron_many(), a catalog's rows in brackets(), one matrix in perron())
takes one stacked eigh and one step.  Power iteration, every vector
certified the same way, refines a matrix wider than requested, but stops at
a step that does not narrow its bracket, a few ulps of the radius wide.  None
keeps a radius.  A hop matrix is a plain read-only int64 array, its order
its last axis.  A matrix gets the same bits in any stack: the stacked eigh
makes the same LAPACK call on each matrix, and the step is exact.
Comparisons are made only between disjoint brackets; overlapping brackets
are reported as indistinguishable instead of being resolved by an epsilon.
"""

from __future__ import annotations

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


def distance_matrices(graphs: Sequence[Graph]) -> list[np.ndarray]:
    """Hop-count matrices of many graphs: read-only int64 rows of one stack per order.

    Raises GraphError if any of the graphs is disconnected.
    """
    built = {}
    for gs, masks in _mask_stacks(graphs):
        built.update(zip(gs, _hop_counts(masks)))
    return [built[g] for g in graphs]


def distance_matrix(g: Graph) -> np.ndarray:
    """Hop-count matrix of one graph; raises on a disconnected graph."""
    return distance_matrices([g])[0]


def _mask_stacks(graphs: Iterable[Graph]) -> Iterator[tuple[list[Graph], np.ndarray]]:
    """Each order's distinct graphs and mask array: int64 below 63 vertices, else Python ints."""
    by_order: dict[int, list[Graph]] = {}
    for g in dict.fromkeys(graphs):
        by_order.setdefault(g.n, []).append(g)
    for n, gs in by_order.items():
        yield gs, np.array([g.masks for g in gs], dtype=np.int64 if n < 63 else object)


def _hop_counts(masks: np.ndarray) -> np.ndarray:
    """Read-only int64 stack of the hop-count matrices of a (graphs, n) bitmask array.

    Bit w of masks[i, u] is edge uw of graph i.  Floyd-Warshall on every
    graph at once: step k lets every path pass through vertex k.  n marks
    an unreached pair, and a sum through it stays at least n, so an n left
    in row 0 means a disconnected graph.
    """
    n = masks.shape[-1]
    a = (masks[:, :, None] >> np.arange(n) & 1).astype(bool)
    small = np.min_scalar_type(2 * n).type
    d = np.where(a, small(1), small(n) * ~np.eye(n, dtype=bool))
    for k in range(n):
        np.minimum(d, d[:, :, k, None] + d[:, None, k], out=d)
    if (d[:, 0] == n).any():
        raise GraphError("distance matrix undefined: graph is not connected")
    d = d.astype(np.int64)
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
    d: np.ndarray, bracket_width: float = DEFAULT_BRACKET_WIDTH, max_iter: int = MAX_ITER
) -> PerronResult:
    """Certified bracket of one hop matrix d, a stack of one; BracketError if wider than asked."""
    if not bracket_width > 0:
        raise ValueError(f"bracket width must be positive, got {bracket_width}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    res = _bracket_stack(d[None], bracket_width, max_iter)[0]
    if res.width > bracket_width:
        raise BracketError(res.lower, res.upper, res.iterations)
    return res


def _bracket_stack(
    d: np.ndarray, width: float = DEFAULT_BRACKET_WIDTH, max_iter: int = MAX_ITER
) -> list[PerronResult]:
    """Certified brackets of a stack d of same-order matrices; never raises.

    One stacked eigh and one exact step certify every matrix.  One wider
    than width goes on from its own vector by power iteration, each vector
    certified the same way, and stops once the intersection of its steps
    is width wide, once a step does not narrow it (in exact arithmetic the
    bounds only narrow: that step marks the float limit), or after max_iter
    steps.  One that stops wider keeps its last step's vector, its value
    clamped into the intersection.
    """
    count, n = d.shape[:2]
    if n == 1:  # D = [0]: radius exactly 0
        return [PerronResult(0.0, 0.0, 0.0, 0.0, 0, np.broadcast_to(1.0, 1))] * count
    out: dict[int, PerronResult] = {}
    rows, exact = np.arange(count), _exact(d)
    x = np.abs(np.linalg.eigh(d)[1][..., -1])
    lower, upper = -np.inf, np.inf
    for it in range(1, max_iter + 1):
        xs, ys, lo, hi = _step(exact, x)
        lo, hi = np.maximum(lower, lo), np.minimum(upper, hi)
        done = (hi - lo <= width) | ((lo == lower) & (hi == upper)) | (it == max_iter)
        out.update(zip(rows[done].tolist(), _results(xs[done], ys[done], lo[done], hi[done], it)))
        if done.all():
            break
        rows, d, exact, x, lower, upper = (a[~done] for a in (rows, d, exact, x, lo, hi))
        y = np.matmul(d, x[:, :, None])[:, :, 0]
        x = y / y.max(axis=1, keepdims=True)
    return [out[i] for i in range(count)]


def _exact(d: np.ndarray) -> np.ndarray:
    """d in a dtype whose products are exact: int64 up to INT64_MAX_N, Python ints beyond."""
    return d if d.shape[-1] <= INT64_MAX_N else d.astype(object)


def _step(d: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """One exact Collatz-Wielandt step per matrix of the stack d, at the rows of x.

    Each row of x is scaled to max 2^50, truncated and raised to at least 1
    (any positive integer vector certifies; only a broken eigh vector leaves
    a 0, and its bracket is then wide).  Y = DX is exact in d's dtype.
    Returns X, Y and the bracket from every ratio Y_i/X_i.
    """
    big = np.maximum((x / x.max(axis=1, keepdims=True) * 2.0**50).astype(np.int64), 1)
    y = np.matmul(d, big.astype(d.dtype, copy=False)[:, :, None])[:, :, 0]
    q = np.array([yi / xi for yi, xi in zip(y.ravel().tolist(), big.ravel().tolist())])
    q = q.reshape(big.shape)
    return big, y, _ulps(q.min(axis=1), -np.inf), _ulps(q.max(axis=1), np.inf)


def _results(
    x: np.ndarray, y: np.ndarray, lower: np.ndarray, upper: np.ndarray, iterations: int
) -> list[PerronResult]:
    """Results for the certified vectors X (rows of x) with Y = DX, clamped into their brackets.

    The residual and the vector repeat the one-vector float operations elementwise.
    """
    xo = x.astype(object)  # exact Python int products and sums
    sq, xy = (xo * xo).sum(axis=1).tolist(), (xo * y).sum(axis=1).tolist()
    lam = np.minimum(np.maximum([a / b for a, b in zip(xy, sq)], lower), upper)
    norm = np.sqrt([float(s) for s in sq])
    xf = x.astype(np.float64)
    residual = np.abs(y.astype(np.float64) - lam[:, None] * xf).max(axis=1) / norm
    vec = xf / norm[:, None]
    vec.setflags(write=False)
    rows = zip(lam.tolist(), lower.tolist(), upper.tolist(), residual.tolist())
    return [PerronResult(*row, iterations, v) for row, v in zip(rows, vec)]


def _ulps(x: np.ndarray, toward: float) -> np.ndarray:
    """x moved two ulps toward +-inf."""
    return np.nextafter(np.nextafter(x, toward), toward)


def perron_of(g: Graph, bracket_width: float = DEFAULT_BRACKET_WIDTH) -> PerronResult:
    """Certified radius of one graph's distance matrix, kept nowhere after the call."""
    return perron(distance_matrix(g), bracket_width)


def perron_many(
    graphs: Iterable[Graph], dms: Sequence[np.ndarray] | None = None
) -> list[PerronResult]:
    """Certified brackets of many graphs, kept nowhere after the call.

    The distinct graphs are bracketed once, as one stack per order: of
    their matrices in dms when given, else straight from their masks.
    """
    graphs = list(graphs)
    given = None if dms is None else dict(zip(graphs, dms))
    radius: dict[Graph, PerronResult] = {}
    for gs, masks in _mask_stacks(graphs):
        d = _hop_counts(masks) if given is None else np.stack([given[g] for g in gs])
        radius.update(zip(gs, _bracket_stack(d)))
    return [radius[g] for g in graphs]


def brackets(masks: np.ndarray) -> list[PerronResult]:
    """Certified brackets of a nonempty (graphs, n) bitmask array, as one stack, uncached."""
    return _bracket_stack(_hop_counts(masks))


def quadratic_form_delta(d_old: np.ndarray, d_new: np.ndarray, x: np.ndarray) -> float:
    """x.(D_new - D_old).x for a unit vector x on a shared vertex set."""
    n = d_old.shape[-1]
    if n != d_new.shape[-1]:
        raise ValueError(f"orders differ: {n} vs {d_new.shape[-1]}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"vector length {x.shape} does not match order {n}")
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-8:
        raise ValueError("vector must have unit 2-norm")
    delta = d_new.astype(np.float64) - d_old.astype(np.float64)
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
