"""Divided differences: confluent tables, integral and contour forms,
and the chain rule for f(x) = g(x^2).

The recursive definition f[x_0,...,x_n] =
(f[x_1,...,x_n] - f[x_0,...,x_{n-1}]) / (x_n - x_0) extends to repeated
nodes by f[x,...,x] = f^{(m)}(x)/m! (m+1 copies).  Nodes closer than a
merge tolerance are clustered to their mean before tabulation, trading a
small, reported node perturbation for numerical stability.  One rule,
_cluster, merges the nodes of NodeList, dd_recursive and MultisetDivDiff,
and dd_recursive and MultisetDivDiff fill their tables by one rule,
_fill_levels.

Independent evaluation routes implemented here:

  * dd_hermite_mc  -- Monte Carlo over the simplex of the Hermite-Genocchi
    integral representation f[x_0..x_n] = int_{Delta_n} f^{(n)}(s.x) d^n s
  * dd_contour     -- trapezoid discretization of the Cauchy formula
    (1/2 pi i) oint f(z) / prod_i (z - x_i) dz on a circle around the
    nodes (CircleContour, whose quadrature the resolvent route shares)
  * dd_chain_square -- chain rule for f(x) = g(x^2),
    summing over index chains 0 = i_0 < ... < i_k = n
  * dd_derivative_sum -- sum_i f[x_0,..,x_i,x_i,..,x_n] = f'[x_0,..,x_n]
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .functions import SmoothFunction
from .rng import _mc_mean, _require_samples, make_rng, simplex_uniform

__all__ = [
    "CircleContour",
    "NodeList",
    "MultisetDivDiff",
    "dd_recursive",
    "dd_hermite_mc",
    "dd_contour",
    "dd_chain_square",
    "dd_derivative_sum",
    "step_bitstrings",
]


# dd_contour's largest t radius^2: e^{t radius^2} eps = 1e-9
CONTOUR_GROWTH = math.log(1e-9 / np.finfo(float).eps)


def default_merge_tol(nodes) -> float:
    return 1e-8 * (1.0 + float(np.max(np.abs(nodes))))


def _cluster(values, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one node-merge rule: the sorted values split into maximal runs
    with every gap <= ``tol``.  Returns each run's node, ascending (the
    value itself for exact repeats, as a mean of copies can round off it,
    else the mean), and the run id of each value in the caller's order."""
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals, kind="stable")
    runs: list[list[float]] = []
    for x in vals[order].tolist():
        if runs and x - runs[-1][-1] <= tol:
            runs[-1].append(x)
        else:
            runs.append([x])
    rep = np.array([run[0] if run[0] == run[-1] else sum(run) / len(run) for run in runs])
    ids = np.empty(vals.size, dtype=int)
    ids[order] = np.repeat(np.arange(len(runs)), [len(run) for run in runs])
    return rep, ids


@dataclass(frozen=True)
class NodeList:
    """Evaluation nodes plus the tolerance at which they coalesce.

    ``nodes`` keeps the caller's order (chain-rule formulas are written in
    terms of it); clustering only happens when a confluent table is built.
    A cluster is a maximal chain of sorted nodes with consecutive gaps at
    most ``merge_tol``; it is represented by its mean (by the value itself
    when every copy is equal) and multiplicity.
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
        elif not 0.0 <= tol < math.inf:
            raise ValueError(f"merge tolerance must be finite and nonnegative, got {tol}")
        object.__setattr__(self, "merge_tol", float(tol))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    def clusters(self) -> list[tuple[float, int]]:
        """Sorted (representative, multiplicity) pairs after merging."""
        rep, ids = _cluster(self.nodes, self.merge_tol)
        return list(zip(rep.tolist(), np.bincount(ids).tolist()))

    @property
    def max_merge_shift(self) -> float:
        """Largest distance any node moved to its cluster representative."""
        rep, ids = _cluster(self.nodes, self.merge_tol)
        return float(np.max(np.abs(np.asarray(self.nodes) - rep[ids])))


def as_nodes(nodes: NodeList | Sequence[float]) -> NodeList:
    return nodes if isinstance(nodes, NodeList) else NodeList(tuple(nodes))


# spans at most this wide are summed as a centered Taylor series instead of
# recursed; the raw recursion loses ~ (scale/width)^n digits on tight spans
SERIES_SPAN = 0.5
# derivative orders past n that a series ladder starts with: a unit-width
# Gaussian needs at most ~23 series terms on spans below SERIES_SPAN, while
# steep ones (t = 40) outrun it and rebuild the ladder longer
SERIES_LADDER = 24


def dd_recursive(f: SmoothFunction, nodes: NodeList | Sequence[float]) -> float:
    """Confluent Newton table value f[x_0, ..., x_n].

    The table runs on the sorted, clustered nodes: its entries of size s
    are the windows of s consecutive nodes, each filled by _fill_levels
    from the two windows of size s - 1 it spans, so the result is symmetric
    under node permutations and equals MultisetDivDiff on the same
    clusters bit for bit.
    """
    nl = as_nodes(nodes)
    rep, ids = _cluster(nl.nodes, nl.merge_tol)
    ids.sort()
    values = [np.asarray(f(rep), dtype=float)[ids]]
    # nodes within SERIES_SPAN fill only the top window: one series row, or
    # one ladder value for one cluster, needing no window below it
    low = 2 if rep[-1] - rep[0] > SERIES_SPAN else max(len(ids), 2)
    windows = [_level_of(np.lib.stride_tricks.sliding_window_view(ids, s),
                         np.arange(len(ids) - s + 1), np.arange(1, len(ids) - s + 2))
               for s in range(low, len(ids) + 1)]
    if windows:
        _fill_levels(f, rep, windows, values, {"series": 0, "newton": 0, "ladder": 0})
    return float(values[-1][0])


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
    _require_samples(samples)
    nl = as_nodes(nodes)
    n = nl.order
    rng = make_rng(seed)
    s = simplex_uniform(rng, n, samples)
    args = s @ np.asarray(nl.nodes)
    vals = np.asarray(f.deriv(n, args), dtype=float)
    estimate, stderr = _mc_mean(vals, 1.0 / math.factorial(n))
    return estimate.real, stderr


@dataclass(frozen=True)
class CircleContour:
    """Ellipse center + radius cos(theta) + i imag_radius sin(theta) at
    equispaced theta; a circle when ``imag_radius`` is None.  The
    trapezoid rule (1/2 pi i) oint g dz = mean(g(nodes) * weights())
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).
    real_integral folds it onto theta in [0, pi], which needs the real
    center and g(conj z) = conj g(z): real poles, f real on the reals and,
    in the resolvent route, a Hermitian A."""

    center: float
    radius: float
    points: int
    imag_radius: float | None = None

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValueError(f"need at least 2 points, got {self.points}")
        if self.imag_radius is None:
            object.__setattr__(self, "imag_radius", self.radius)
        elif not self.imag_radius > 0.0:
            raise ValueError(f"imaginary semi-axis must be positive, got {self.imag_radius}")

    @classmethod
    def enclosing(cls, spec, f: SmoothFunction) -> "CircleContour":
        """Ellipse through lam_min - 1 and lam_max + 1 with imaginary
        semi-axis b = min(1, 1/sqrt(t_max)) when f carries a measure (else
        1), so every atom exp(-t z^2) stays below e on it at any spectral
        width; the cap at 1 keeps a wide atom (t < 1) from stretching the
        ellipse, which near the spectrum's ends would narrow the trapezoid
        rule's analytic strip like 1/b.  Every pole lies on the focal
        segment (a - 1 <= sqrt(a^2 - b^2) as 2a >= 1 + b^2, a the real
        semi-axis), at conformal distance psi = artanh(b/a), where the rule
        errs like exp(-points psi) (Trefethen & Weideman): so it takes
        ceil(64 / min(1, psi)) points, the cap (psi = inf on a circle)
        giving f's growth outside the same exp(-64) margin.  A spectrum so
        wide that this count, or the width itself, leaves the float range
        needs more work than any budget: BudgetExceededError."""
        lo, hi = float(spec.eigenvalues[0]), float(spec.eigenvalues[-1])
        center = 0.5 * (lo + hi)
        radius = 0.5 * (hi - lo) + 1.0
        imag = 1.0
        if f.measure is not None:
            imag = min(imag, 1.0 / math.sqrt(float(np.max(f.measure.ts))))
        psi = math.atanh(imag / radius) if imag < radius else math.inf
        points = 64.0 / min(1.0, psi) if psi > 0.0 else math.inf
        if points == math.inf:
            raise BudgetExceededError(
                f"a contour around [{lo:g}, {hi:g}] needs more points than a float holds")
        return cls(center=center, radius=radius, points=math.ceil(points), imag_radius=imag)

    def _nodes_weights(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``count`` nodes and their weights, from one cos and one sin."""
        theta = 2.0 * np.pi * np.arange(count) / self.points
        cos, sin = np.cos(theta), np.sin(theta)
        return (self.center + self.radius * cos + 1j * self.imag_radius * sin,
                self.imag_radius * cos + 1j * self.radius * sin)

    def nodes(self) -> np.ndarray:
        return self._nodes_weights(self.points)[0]

    def weights(self) -> np.ndarray:
        """dz/dtheta divided by i at each node."""
        return self._nodes_weights(self.points)[1]

    def _fold_weights(self) -> np.ndarray:
        """c_k: 1 at a node that is its own conjugate (theta = 0, and pi
        when points is even), else 2."""
        c = np.full(self.points // 2 + 1, 2.0)
        c[0], c[-1] = 1.0, 1.0 + self.points % 2
        return c

    def real_integral(self, integrand) -> np.ndarray:
        """Re (1/2 pi i) oint g dz = (1/points) sum_k c_k Re(g_k w_k) over the
        nodes k = 0..points//2, g = integrand(z) along its last axis."""
        z, w = self._nodes_weights(self.points // 2 + 1)
        vals = np.asarray(integrand(z)) * w
        return np.sum(vals.real * self._fold_weights(), axis=-1) / self.points

    def require_inside(self, xs) -> None:
        """Raise unless every real point of ``xs`` lies strictly inside."""
        dist = float(np.max(np.abs(np.asarray(xs) - self.center)))
        if not dist < self.radius:
            raise ValueError(f"a node {dist} from center is not inside radius {self.radius}")


def dd_contour(
    f: SmoothFunction,
    nodes: NodeList | Sequence[float],
    center: float,
    radius: float,
    points: int = 256,
) -> float:
    """Trapezoid value of the Cauchy contour form on a circle.

    (1/2 pi i) oint f(z) / prod_i (z - x_i) dz over |z - center| = radius
    at ``points`` equispaced angles, folded onto the upper half: f must be
    real on the reals, f(conj z) = conj f(z), as every function built here
    is.  Repeated nodes raise the pole order, so confluent cases need no
    special handling.  Every node must lie strictly inside the circle; the
    error decays geometrically in ``points`` when f is analytic near it.
    An atom e^{-t z^2} of f's measure, and the sum's rounding error with
    it, grows to e^{t radius^2} on the circle: past CONTOUR_GROWTH, refused.
    """
    xs = np.asarray(as_nodes(nodes).nodes)
    circle = CircleContour(center, radius, points)
    circle.require_inside(xs)
    if f.measure is not None and np.max(f.measure.ts) * radius**2 > CONTOUR_GROWTH:
        raise ValueError(f"an atom grows past e^{CONTOUR_GROWTH:.1f} on radius {radius}")
    return float(circle.real_integral(
        lambda z: f.eval_complex(z) / np.prod(z[:, None] - xs[None, :], axis=1)))


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


class MultisetDivDiff:
    """Confluent divided differences over a fixed value list, held as one
    value array per multiset size.

    The values are clustered once by ``default_merge_tol``; a
    divided difference is then looked up by an index tuple into the
    original list, keyed by the sorted cluster-id multiset, so
    permutations and degenerate values share entries.  This is the
    workhorse behind the tuple-sum tensors of the trace expansions.

    Level s holds every size-s multiset in combinations_with_replacement
    order (K clusters) and one value array; level 0 is the empty multiset
    and level 1 is f at the cluster nodes.  Each level s also holds an
    extension table ext[s][p, c]: the position in level s of multiset p
    of level s - 1 with cluster c added.  Every lookup chains ext over
    its ids in any order, so no key is ever sorted or searched for.
    The keys, extension tables, heads and tails depend on K alone, so
    every table over K clusters shares one read-only plan of them, and
    one gather plan per slot count.  After a call the plan caches keep
    at most 64 levels, each of C(K + s - 1, s) keys under 2s + 4 words a
    key, and 64 gathers, each K^(slots - 1) positions, 1/K of its tensor.
    Asking for level s fills every missing level up to s in one pass
    through _fill_levels.

    dd_recursive runs the same fill over the windows of its sorted nodes,
    so each value equals dd_recursive on the same nodes bit for bit.
    ``evaluations`` counts the multisets each path has evaluated.
    """

    def __init__(self, fn: SmoothFunction, values):
        self.fn = fn
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("need a nonempty 1-d value list")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        self.rep, self.cluster_of = _cluster(vals, default_merge_tol(vals))
        # level s at index s; a level-1 key's head and tail are the empty key
        self._levels = [None, _level_plan(len(self.rep), 1)]
        self._values = [None, np.asarray(fn(self.rep), dtype=float)]
        self._counts = {"node": len(self.rep), "ladder": 0, "series": 0, "newton": 0}

    @property
    def evaluations(self) -> dict[str, int]:
        """Distinct multisets evaluated so far, by path: single node,
        derivative ladder, centered series and Newton step."""
        return dict(self._counts)

    def value(self, idx: Sequence[int]) -> float:
        if not len(idx):
            raise ValueError("need at least one index")
        # a bool is an Integral but no index
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                   and 0 <= i < len(self.cluster_of) for i in idx):
            raise ValueError(f"indices must be integers in 0..{len(self.cluster_of) - 1}: {idx}")
        values = self._level(len(idx))
        pos = 0
        for s, i in enumerate(idx, 1):
            pos = self._levels[s].ext[pos, self.cluster_of[i]]
        return float(values[pos])

    def _level(self, size: int) -> np.ndarray:
        """Values of every size-``size`` multiset; the missing levels up to
        it are filled in one pass, their plans read from the cache."""
        if len(self._values) <= size:
            levels = [_level_plan(len(self.rep), s) for s in range(len(self._values), size + 1)]
            self._levels += levels
            _fill_levels(self.fn, self.rep, levels, self._values, self._counts)
        return self._values[size]

    def tensor(self, slots: int) -> np.ndarray:
        """Dense array T[i_0...i_{slots-1}] of divided-difference values."""
        return self._gather(slots, doubled=False)

    def doubled_tensor(self, slots: int) -> np.ndarray:
        """Dense array T[i_0...i_{slots-1}] = value((i_0, ..., i_{slots-1},
        i_{slots-1})), with the last slot's node repeated."""
        return self._gather(slots, doubled=True)

    def _gather(self, slots: int, doubled: bool) -> np.ndarray:
        """Gather one level's values over the index grid through the gather
        plan of K clusters, read as it is when every value is its own
        cluster in ascending order, else at each slot's cluster ids."""
        if slots < 1:
            raise ValueError(f"need at least one slot, got {slots}")
        values = self._level(slots + doubled)
        pos, last = _gather_plan(len(self.rep), slots, doubled)
        ids = self.cluster_of
        if not np.array_equal(ids, np.arange(len(ids))):
            pos, last = pos[np.ix_(*[ids] * (slots - 1))], last[:, ids]
        return values[last][pos]


# sorted cluster-id keys, the positions of key[:-1] and key[1:] a level below, the
# end ids, the keys one cluster s times and that cluster, and a table's extension table
_Level = namedtuple("_Level", "keys head tail first last confluent cluster ext")


def _level_of(keys: np.ndarray, head: np.ndarray, tail: np.ndarray, ext=None) -> _Level:
    first, last = keys[:, 0], keys[:, -1]
    confluent = first == last
    return _Level(keys, head, tail, first, last, confluent, first[confluent], ext)


@functools.lru_cache(maxsize=64)
def _level_plan(k: int, s: int) -> _Level:
    """Level s of every table over k clusters, read-only, grown from level s - 1."""
    if s == 1:
        ids, zeros = np.arange(k), np.zeros(k, dtype=np.intp)
        level = _level_of(ids[:, None], zeros, zeros, ids[None, :])
    else:
        below = _level_plan(k, s - 1)
        # each key p of level s - 1 gains one last id >= its own last one,
        # in ascending order from start[p]; p is their head
        last = below.last
        grow = k - last
        start = np.cumsum(grow) - grow
        head = np.repeat(np.arange(len(last)), grow)
        new = np.arange(len(head)) - start[head] + last[head]
        # p plus c < last(p) is the child with last id last(p) of q, head(p) plus c
        q = below.ext[below.head]
        ids, last_col = np.arange(k), last[:, None]
        ext = np.where(ids >= last_col, start[:, None] + ids - last_col,
                       start[q] + (last_col - last[q]))
        # the tail key[1:] is the previous tail plus the new last id
        level = _level_of(np.column_stack((below.keys[head], new)), head,
                          below.ext[below.tail[head], new], ext)
    for array in level:
        array.setflags(write=False)
    return level


@functools.lru_cache(maxsize=64)
def _gather_plan(k: int, slots: int, doubled: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only positions over the k-cluster grid: pos[c_0..c_{slots-2}] in level
    slots - 1, grown a slot at a time, and last[p, c] in level slots + doubled of p
    plus c (twice), which folds the last slot: no array but the tensor passes k^(slots-1)."""
    pos = np.zeros((), dtype=np.intp)
    for s in range(1, slots):
        pos = _level_plan(k, s).ext[pos]
    last = _level_plan(k, slots).ext
    if doubled:
        last = _level_plan(k, slots + 1).ext[last, np.arange(k)]
    for array in (pos, last):
        array.setflags(write=False)
    return pos, last


def _fill_levels(fn: SmoothFunction, rep: np.ndarray, levels: Sequence[_Level],
                 values: list[np.ndarray], counts: dict[str, int]) -> None:
    """Append to ``values`` the divided differences of each level of
    sorted cluster-id keys, given in ascending size; the values of the
    level below the first are ``values[-1]`` on entry.

      * A confluent key (one cluster s times) is f^{(s-1)}(x)/(s-1)!, from
        one derivative ladder at the cluster nodes that serves every level.
      * A narrow key (end nodes at most SERIES_SPAN apart) is a row of one
        centred series batch over all levels.
      * A wide key is one Newton step from its head and tail,
        (V[tail] - V[head]) / (x_last - x_first), so the recursion never
        divides by a gap narrower than SERIES_SPAN.

    ``counts`` gains the keys each path evaluated.
    """
    steps, narrow_rows = [], []
    for level in levels:
        wide = rep[level.last] - rep[level.first] > SERIES_SPAN
        narrow = ~(wide | level.confluent)
        steps.append((wide, narrow))
        narrow_rows.append(rep[level.keys[narrow]])
    series = _dd_series_rows(fn, narrow_rows)
    if any(len(level.cluster) for level in levels):
        ladder = fn.deriv_ladder(levels[-1].keys.shape[1] - 1, rep)
    for level, (wide, narrow), narrow_values in zip(levels, steps, series):
        s = level.keys.shape[1]
        out = np.empty(len(level.keys))
        out[narrow] = narrow_values
        counts["series"] += len(narrow_values)
        lo, hi = rep[level.first[wide]], rep[level.last[wide]]
        out[wide] = (values[-1][level.tail[wide]] - values[-1][level.head[wide]]) / (hi - lo)
        counts["newton"] += len(lo)
        inv_fact = 1.0
        for j in range(1, s):
            inv_fact /= j
        if len(level.cluster):
            out[level.confluent] = ladder[s - 1][level.cluster] * inv_fact
        counts["ladder"] += len(level.cluster)
        values.append(out)


@np.errstate(over="ignore", invalid="ignore")
def _dd_series_rows(f: SmoothFunction, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Centred Taylor values of f[z_0, ..., z_n] for every row of every
    block at once, one value array per block; the rows of one block hold
    equally many nodes, their ends at most SERIES_SPAN apart.

    Each row expands f around its mean c: the divided difference of
    (x - c)^j is the complete homogeneous symmetric polynomial
    h_{j-n}(z - c), so f[z_0..z_n] = sum_{k>=0} f^{(n+k)}(c) / (n+k)!
    h_k(z - c), summed until two terms in a row fall below 1e-17 of the
    largest partial sum.  Rows are padded with zero offsets v_m to top + 1
    nodes and share one ladder at their centres.  One diagonal step per
    term, g[m] <- g[m-1] + v_m g[m] on g[m] = h_{d-m}(v_0..v_m), is the
    prefix recurrence h_k(v_0..v_m) = h_k(v_0..v_{m-1}) + v_m
    h_{k-1}(v_0..v_m); a zero offset adds nothing, so g[top] on diagonal
    top + k is h_k at each row's own n.  The terms one ladder covers form a
    block: accumulate calls give their coefficients, running totals and
    running scales in the order of a term-by-term sum.  Rows still live
    rebuild the ladder twice as long.
    """
    counts = [len(b) for b in blocks]
    if not sum(counts):
        return [np.empty(0) for _ in blocks]
    width = max(b.shape[1] for b in blocks)
    n = np.repeat([b.shape[1] - 1 for b in blocks], counts)
    center = np.concatenate([np.mean(b, axis=1) for b in blocks])
    v = np.zeros((width, len(n)))
    for b, start in zip(blocks, np.cumsum(counts) - counts):
        v[: b.shape[1], start : start + len(b)] = (b - center[start : start + len(b), None]).T
    # diagonal 0 holds h_0(v_0) = 1 and h_{-m} = 0; the first sweep starts top steps early
    g = np.zeros_like(v)
    g[0] = 1.0
    out, live = np.empty(len(n)), np.arange(len(n))
    lag = top = width - 1
    coef = np.array([1.0 / math.factorial(j) for j in range(width)])[n]
    ladder = np.array(f.deriv_ladder(top + SERIES_LADDER, center))
    total = ladder[n, live] * coef
    scale = np.abs(total)
    small = np.zeros(len(n), dtype=bool)
    k = 1
    while k < 200:
        if top + k >= len(ladder):
            ladder = np.array(f.deriv_ladder(min(2 * (len(ladder) - 1), top + 199), center))
        # one row per term this ladder covers: (ladder * coef) * h, as the scalar series
        work = n + np.arange(k, min(len(ladder) - top, 200))[:, None]
        terms = ladder[work, np.arange(len(n))]
        work = work.astype(float)
        work[0] = coef / work[0]
        np.divide.accumulate(work, axis=0, out=work)
        terms *= work
        coef = work[-1].copy()
        spare = np.empty_like(g)
        for row in range(-lag, len(work)):
            np.multiply(v, g, out=spare)
            spare[1:] += g[:-1]
            g, spare = spare, g
            work[max(row, 0)] = g[-1]
        del spare
        terms *= work
        totals = terms.copy()
        totals[0] += total
        np.cumsum(totals, axis=0, out=totals)
        np.abs(totals, out=work)
        np.maximum(work[0], scale, out=work[0])
        np.maximum.accumulate(work, axis=0, out=work)
        scale = work[-1].copy()
        work *= 1e-17
        work += 1e-300
        # is_small[i] tests term k + i - 1; a row stops at the second of two in a row
        is_small = np.vstack((small, np.abs(terms, out=terms) <= work))
        small = is_small[-1].copy()
        is_small[1:] &= is_small[:-1]
        done = is_small[1:].any(axis=0)
        at = is_small[1:].argmax(axis=0)[done]
        # a non-finite term leaves the sum non-finite: the ladder overflowed
        if not np.all(np.isfinite(totals[at, done])):
            break
        out[live[done]] = totals[at, done]
        if done.all():
            return np.split(out, np.cumsum(counts)[:-1])
        k, lag, keep = k + len(work), 0, ~done
        live, center, n, coef, scale, small, total, v, g, ladder = (
            x[..., keep] for x in (live, center, n, coef, scale, small, totals[-1], v, g, ladder))
        top = int(n.max())
        del terms, totals, work  # before a longer ladder is built
    raise RuntimeError("divided-difference series did not converge")


def dd_derivative_sum(f: SmoothFunction, nodes: NodeList | Sequence[float]) -> float:
    """sum_i f[x_0, ..., x_i, x_i, ..., x_n], equal to f'[x_0, ..., x_n]."""
    nl = as_nodes(nodes)
    xs = nl.nodes
    total = 0.0
    for i in range(len(xs)):
        doubled = xs[: i + 1] + (xs[i],) + xs[i + 1 :]
        total += dd_recursive(f, NodeList(doubled, merge_tol=nl.merge_tol))
    return total
