"""Divided differences: confluent tables, integral and contour forms,
and chain rules for composite functions.

The recursive definition f[x_0,...,x_n] =
(f[x_1,...,x_n] - f[x_0,...,x_{n-1}]) / (x_n - x_0) extends to repeated
nodes by f[x,...,x] = f^{(m)}(x)/m! (m+1 copies).  Nodes closer than a
merge tolerance are clustered to their mean before tabulation, trading a
small, reported node perturbation for numerical stability.

Independent evaluation routes implemented here:

  * dd_hermite_mc  -- Monte Carlo over the simplex of the Hermite-Genocchi
    integral representation f[x_0..x_n] = int_{Delta_n} f^{(n)}(s.x) d^n s
  * dd_contour     -- trapezoid discretization of the Cauchy formula
    (1/2 pi i) oint f(z) / prod_i (z - x_i) dz on a circle around the nodes
  * dd_chain_square / dd_chain_generic -- composite-function chain rules
    summing over index chains 0 = i_0 < ... < i_k = n
  * dd_derivative_sum -- sum_i f[x_0,..,x_i,x_i,..,x_n] = f'[x_0,..,x_n]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .functions import SmoothFunction
from .rng import make_rng, simplex_uniform

__all__ = [
    "NodeList",
    "MultisetDivDiff",
    "as_nodes",
    "dd_recursive",
    "dd_hermite_mc",
    "dd_contour",
    "dd_chain_square",
    "dd_chain_generic",
    "dd_derivative_sum",
    "step_bitstrings",
]


def default_merge_tol(nodes) -> float:
    return 1e-8 * (1.0 + float(np.max(np.abs(nodes))))


@dataclass(frozen=True)
class NodeList:
    """Evaluation nodes plus the tolerance at which they coalesce.

    ``nodes`` keeps the caller's order (chain-rule formulas are written in
    terms of it); clustering only happens when a confluent table is built.
    A cluster is a maximal chain of sorted nodes with consecutive gaps at
    most ``merge_tol``; it is represented by its mean and multiplicity.
    """

    nodes: tuple[float, ...]
    merge_tol: float | None = None

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        if not nodes:
            raise ValueError("need at least one node")
        if not all(math.isfinite(x) for x in nodes):
            raise ValueError("nodes must be finite")
        object.__setattr__(self, "nodes", nodes)
        tol = self.merge_tol
        if tol is None:
            tol = default_merge_tol(nodes)
        elif tol < 0.0:
            raise ValueError(f"merge tolerance must be nonnegative, got {tol}")
        object.__setattr__(self, "merge_tol", float(tol))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    def clusters(self) -> list[tuple[float, int]]:
        """Sorted (representative, multiplicity) pairs after merging."""
        xs = sorted(self.nodes)
        out: list[tuple[float, int]] = []
        start = 0
        for i in range(1, len(xs) + 1):
            if i == len(xs) or xs[i] - xs[i - 1] > self.merge_tol:
                block = xs[start:i]
                out.append((sum(block) / len(block), len(block)))
                start = i
        return out

    def expanded(self) -> np.ndarray:
        """Sorted node array with each cluster representative repeated."""
        reps: list[float] = []
        for value, mult in self.clusters():
            reps.extend([value] * mult)
        return np.array(reps)

    @property
    def max_multiplicity(self) -> int:
        return max(m for _, m in self.clusters())

    @property
    def max_merge_shift(self) -> float:
        """Largest distance any node moved to its cluster representative."""
        shift = 0.0
        xs = sorted(self.nodes)
        pos = 0
        for value, mult in self.clusters():
            for x in xs[pos : pos + mult]:
                shift = max(shift, abs(x - value))
            pos += mult
        return shift


def as_nodes(nodes: NodeList | Sequence[float]) -> NodeList:
    return nodes if isinstance(nodes, NodeList) else NodeList(tuple(nodes))


# spans at most this wide are summed as a centered Taylor series instead of
# recursed; the raw recursion loses ~ (scale/width)^n digits on tight spans
SERIES_SPAN = 0.5
# derivative orders past n that a series ladder starts with: a unit-width
# Gaussian needs at most ~23 series terms on spans below SERIES_SPAN, while
# steep ones (t = 40) outrun it and rebuild the ladder longer
SERIES_LADDER = 24


def _dd_series(f: SmoothFunction, zs: np.ndarray) -> float:
    """Centered Taylor value of f[z_0, ..., z_n] for a narrow node block.

    Expands f around the block mean c: the divided difference of (x - c)^j
    is the complete homogeneous symmetric polynomial h_{j-n}(z - c), so
    f[z_0..z_n] = sum_{k>=0} f^{(n+k)}(c) / (n+k)! h_k(z - c).  The h_k
    follow the prefix recurrence h_k(v_0..v_m) = h_k(v_0..v_{m-1}) +
    v_m h_{k-1}(v_0..v_m).  Needs derivatives of arbitrary order; they
    come from one derivative ladder, rebuilt twice as long whenever the
    series outruns it.
    """
    n = len(zs) - 1
    center = float(np.mean(zs))
    v = (zs - center).tolist()
    h = [1.0] * (n + 1)
    coef = 1.0 / math.factorial(n)
    ladder = f.deriv_ladder(n + SERIES_LADDER, center)
    total = ladder[n] * coef
    scale = abs(total)
    small = 0
    for k in range(1, 200):
        coef /= n + k
        prev = v[0] * h[0]
        h[0] = prev
        for m in range(1, n + 1):
            prev = prev + v[m] * h[m]
            h[m] = prev
        if n + k >= len(ladder):
            ladder = f.deriv_ladder(min(2 * (len(ladder) - 1), n + 199), center)
        term = ladder[n + k] * coef * h[n]
        total += term
        scale = max(scale, abs(total))
        if abs(term) <= 1e-17 * scale + 1e-300:
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise RuntimeError("divided-difference series did not converge")


def dd_recursive(f: SmoothFunction, nodes: NodeList | Sequence[float]) -> float:
    """Confluent Newton table value f[x_0, ..., x_n].

    Coincident clusters feed f^{(j)}(x)/j! into the table; f must provide
    derivatives up to (largest multiplicity - 1), taken from one
    derivative ladder per cluster.  The result is symmetric under node
    permutations because the table works on sorted nodes.  When f carries
    derivatives of all orders, spans narrower than SERIES_SPAN are
    evaluated by the centered series, so the recursion never divides by a
    small gap.
    """
    nl = as_nodes(nodes)
    clusters = nl.clusters()
    z = np.array([value for value, mult in clusters for _ in range(mult)])
    f.require_order(max(mult for _, mult in clusters) - 1)
    m = len(z)
    series_ok = f.max_order is None
    if series_ok and m > 1 and z[-1] - z[0] <= SERIES_SPAN and z[-1] > z[0]:
        return _dd_series(f, z)
    ladders = {value: f.deriv_ladder(mult - 1, value) for value, mult in clusters if mult > 1}
    col = np.asarray(f(z), dtype=float)
    if col.ndim == 0:
        col = col.reshape(1)
    col = col.tolist()
    zl = z.tolist()
    inv_fact = 1.0
    for j in range(1, m):
        inv_fact /= j
        new = [0.0] * (m - j)
        for i in range(m - j):
            if zl[i + j] == zl[i]:
                new[i] = ladders[zl[i]][j] * inv_fact
            elif series_ok and zl[i + j] - zl[i] <= SERIES_SPAN:
                new[i] = _dd_series(f, z[i : i + j + 1])
            else:
                new[i] = (col[i + 1] - col[i]) / (zl[i + j] - zl[i])
        col = new
    return float(col[0])


def dd_hermite_mc(
    f: SmoothFunction,
    nodes: NodeList | Sequence[float],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of the simplex-integral form.

    Draws uniform barycentric samples s on the order-n simplex and averages
    f^{(n)}(s . x); the uniform density is n!, so the integral estimate is
    the sample mean divided by n!.  Deterministic for a fixed seed.
    """
    nl = as_nodes(nodes)
    n = nl.order
    f.require_order(n)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = make_rng(seed)
    s = simplex_uniform(rng, n, samples)
    args = s @ np.asarray(nl.nodes)
    vals = np.asarray(f.deriv(n, args), dtype=float)
    scale = 1.0 / math.factorial(n)
    estimate = float(vals.mean() * scale)
    if samples == 1:
        return estimate, 0.0
    stderr = float(vals.std(ddof=1) * scale / math.sqrt(samples))
    return estimate, stderr


def dd_contour(
    f: SmoothFunction,
    nodes: NodeList | Sequence[float],
    center: float,
    radius: float,
    points: int = 256,
) -> float:
    """Trapezoid value of the Cauchy contour form on a circle.

    (1/2 pi i) oint f(z) / prod_i (z - x_i) dz over |z - center| = radius,
    discretized at ``points`` equispaced angles.  Repeated nodes raise the
    pole order, so confluent cases need no special handling.  Every node
    must lie strictly inside the circle.  The error decays geometrically
    in ``points`` for functions analytic in a neighbourhood of the disc.
    """
    nl = as_nodes(nodes)
    xs = np.asarray(nl.nodes)
    if points < 2:
        raise ValueError(f"need at least 2 contour points, got {points}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    dist = np.max(np.abs(xs - center))
    if dist >= radius:
        raise ValueError(
            f"node at distance {dist} from center lies on or outside radius {radius}"
        )
    theta = 2.0 * np.pi * np.arange(points) / points
    z = center + radius * np.exp(1j * theta)
    denom = np.prod(z[:, None] - xs[None, :], axis=1)
    vals = np.asarray(f.eval_complex(z), dtype=complex)
    return float(np.mean(vals * (z - center) / denom).real)


def step_bitstrings(n: int) -> list[tuple[int, ...]]:
    """All bitstrings eps with sum_i (1 + eps_i) = n, shortest first.

    Encodes index chains 0 = i_0 < ... < i_k = n with steps of size 1
    (eps=0) or 2 (eps=1); there are Fibonacci-many of them.  n = 0 gives
    the empty string (the single-node chain).
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    table: list[list[tuple[int, ...]]] = [[()]]
    for m in range(1, n + 1):
        entries = [bits + (0,) for bits in table[m - 1]]
        if m >= 2:
            entries += [bits + (1,) for bits in table[m - 2]]
        table.append(entries)
    return sorted(table[n], key=len)


def dd_chain_square(g: SmoothFunction, nodes: NodeList | Sequence[float]) -> float:
    """Chain rule for f(x) = g(x^2): divided difference over index chains.

    f[x_0,...,x_n] = sum over chains 0 = i_0 < ... < i_k = n with steps of
    size at most 2 of g[x_{i_0}^2, ..., x_{i_k}^2] times (x_{i_j} +
    x_{i_{j+1}}) for every size-1 step (size-2 steps contribute factor 1,
    the second divided difference of the square map).
    """
    nl = as_nodes(nodes)
    xs = nl.nodes
    n = nl.order
    total = 0.0
    for bits in step_bitstrings(n):
        idx = [0]
        for b in bits:
            idx.append(idx[-1] + 1 + b)
        weight = 1.0
        for j, b in enumerate(bits):
            if b == 0:
                weight *= xs[idx[j]] + xs[idx[j + 1]]
        squares = [xs[i] ** 2 for i in idx]
        total += weight * dd_recursive(g, NodeList(tuple(squares)))
    return total


def dd_chain_generic(
    g: SmoothFunction,
    phi: SmoothFunction,
    nodes: NodeList | Sequence[float],
) -> float:
    """General composite chain rule (g o phi)[x_0, ..., x_n].

    Sums over all chains 0 = i_0 < ... < i_k = n the outer difference
    g[phi(x_{i_0}), ..., phi(x_{i_k})] times the product over consecutive
    chain steps of phi[x_{i_j}, x_{i_j + 1}, ..., x_{i_{j+1}}], each inner
    block taken over every original node between the chain points
    inclusive.  For phi(x) = x^2 this reduces to dd_chain_square.
    """
    nl = as_nodes(nodes)
    xs = nl.nodes
    n = nl.order
    if n == 0:
        return float(g(float(phi(xs[0]))))
    total = 0.0
    for k in range(1, n + 1):
        for mid in combinations(range(1, n), k - 1):
            idx = (0, *mid, n)
            factor = 1.0
            for j in range(k):
                block = xs[idx[j] : idx[j + 1] + 1]
                factor *= dd_recursive(phi, NodeList(block))
            outer_nodes = tuple(float(phi(xs[i])) for i in idx)
            total += factor * dd_recursive(g, NodeList(outer_nodes))
    return total


class MultisetDivDiff:
    """Cached confluent divided differences over a fixed value list.

    The values are clustered once at ``merge_tol`` (default rule); a
    divided difference is then looked up by an index tuple into the
    original list, with the cache keyed by the sorted cluster-id multiset,
    so permutations and degenerate values share entries.  This is the
    workhorse behind the tuple-sum tensors of the trace expansions.
    """

    def __init__(self, fn: SmoothFunction, values, merge_tol: float | None = None):
        self.fn = fn
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("need a nonempty 1-d value list")
        tol = default_merge_tol(vals) if merge_tol is None else float(merge_tol)
        order = np.argsort(vals, kind="stable")
        cluster_of = np.empty(vals.size, dtype=int)
        members: list[list[float]] = []
        for pos in order:
            v = vals[pos]
            if members and v - members[-1][-1] <= tol:
                members[-1].append(v)
            else:
                members.append([v])
            cluster_of[pos] = len(members) - 1
        self.cluster_of = cluster_of
        self.rep = np.array([sum(block) / len(block) for block in members])
        self._cache: dict[tuple[int, ...], float] = {}

    def value(self, idx: Sequence[int]) -> float:
        return self._evaluate(tuple(sorted(self.cluster_of[i] for i in idx)))

    def _evaluate(self, key: tuple[int, ...]) -> float:
        """Divided difference over the sorted cluster-id multiset ``key``."""
        hit = self._cache.get(key)
        if hit is None:
            nodes = NodeList(tuple(self.rep[list(key)]), merge_tol=0.0)
            hit = dd_recursive(self.fn, nodes)
            self._cache[key] = hit
        return hit

    def tensor(self, slots: int) -> np.ndarray:
        """Dense array T[i_0...i_{slots-1}] of divided-difference values."""
        return self._scatter(slots, doubled=False)

    def doubled_tensor(self, slots: int) -> np.ndarray:
        """Dense array T[i_0...i_{slots-1}] = value((i_0, ..., i_{slots-1},
        i_{slots-1})), with the last slot's node repeated."""
        return self._scatter(slots, doubled=True)

    def _scatter(self, slots: int, doubled: bool) -> np.ndarray:
        """Evaluate each multiset of cluster ids that occurs once, then
        scatter the values over the index grid in bulk.

        The multisets are enumerated in lexicographic order, so their
        base-K codes (K clusters) ascend; a grid row's cluster ids are
        sorted, encoded and located by searchsorted.  The grid is built one
        leading index at a time, so the transient index arrays hold
        dim^(slots-1) rows, not dim^slots.
        """
        k = len(self.rep)
        keys = list(combinations_with_replacement(range(k), slots))
        if doubled:
            keys = sorted({tuple(sorted(key + (x,))) for key in keys for x in set(key)})
        size = slots + doubled
        values = np.array([self._evaluate(key) for key in keys])
        codes = np.array(keys, dtype=np.int64) @ (k ** np.arange(size - 1, -1, -1, dtype=np.int64))

        dim = len(self.cluster_of)
        ids = self.cluster_of.astype(np.min_scalar_type(k))
        # trailing slots' cluster ids; column 0 is the leading slot's
        grid = np.empty((dim,) * (slots - 1) + (size,), dtype=ids.dtype)
        for axis in range(slots - 1):
            grid[..., axis + 1] = ids.reshape((dim,) + (1,) * (slots - 2 - axis))
        out = np.empty((dim,) * slots)
        for lead in range(dim):
            grid[..., 0] = ids[lead]
            if doubled:
                grid[..., slots] = grid[..., slots - 1]
            rows = np.sort(grid.reshape(-1, size), axis=1)
            code = rows[:, 0].astype(np.int64)
            for col in range(1, size):
                code *= k
                code += rows[:, col]
            out[lead] = values[np.searchsorted(codes, code)].reshape(out.shape[1:])
        return out


def dd_derivative_sum(f: SmoothFunction, nodes: NodeList | Sequence[float]) -> float:
    """sum_i f[x_0, ..., x_i, x_i, ..., x_n], equal to f'[x_0, ..., x_n]."""
    nl = as_nodes(nodes)
    xs = nl.nodes
    total = 0.0
    for i in range(len(xs)):
        doubled = xs[: i + 1] + (xs[i],) + xs[i + 1 :]
        total += dd_recursive(f, NodeList(doubled, merge_tol=nl.merge_tol))
    return total
