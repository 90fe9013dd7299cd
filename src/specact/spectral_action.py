"""Taylor expansion of the trace functional A -> tr f(D + A).

The order-n contribution (the n-th Gateaux derivative at 0 divided by n!)
has several equivalent forms, all implemented here and cross-checkable
against one another:

  taylor_term          (1/n) sum A_{i_1 i_2} ... A_{i_n i_1}
                             f'[lam_{i_1}, ..., lam_{i_n}]
  ..._theorem_form     n * sum A_{i_n i_1} A_{i_1 i_2} ... A_{i_{n-1} i_n}
                             f[lam_{i_n}, lam_{i_1}, ..., lam_{i_n}]
                       (divide by n to recover the contribution; the raw
                       sum itself equals the contribution by the
                       doubled-node derivative identity)
  ..._bracket_form     sum_k (-1)^k sum over step bitstrings eps of
                       integral of <1, B_1, ..., B_k>_k dmu(t) with
                       B_i = {D, A} for eps_i = 0 and A^2 for eps_i = 1
  ..._contour          (1/n) (1/2 pi i) oint f'(z) tr (A (z - D)^{-1})^n dz
                       on the upper half of an ellipse (real spectrum,
                       Hermitian A, f real on the reals)
  gateaux_fd           central finite differences of u -> tr f(D + u A)
                       with one Richardson extrapolation (the only route
                       that never touches divided differences); its
                       resolution limit is fd_noise_floor

The tuple sums are evaluated as tensor contractions against cached
divided-difference tensors; cost grows like N^n and is refused above a
configurable budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from .divdiff import CONTOUR_BLOCK, CircleContour, MultisetDivDiff, step_bitstrings
from .errors import BudgetExceededError
from .functions import DiscreteMeasure, SmoothFunction, make_gaussian_mixture
from .operator_model import (
    DEFAULT_TUPLE_BUDGET,
    Spectrum,
    _check_budget,
    _cyclic_contract,
    _require_finite_positive,
    _square_complex,
    _trace_of,
    anticommutator_with_d,
    bracket_dd,  # noqa: F401  still bound here: the benchmark's tracer wraps this binding
    require_hermitian,
)

__all__ = [
    "CircleContour",
    "EpsilonMultiIndex",
    "TaylorReport",
    "action_exact",
    "taylor_term",
    "taylor_term_theorem_form",
    "taylor_term_bracket_form",
    "taylor_term_contour",
    "gateaux_fd",
    "gateaux_fd_mixed",
    "fd_noise_floor",
    "expand",
    "epsilon_enumerate",
    "epsilon_parent_move_count",
    "tadpole_check",
]

# the contour route refuses a contour and order needing more than this many
# points * N^2 entries per resolvent power, counting all points, not the half it fills
CONTOUR_ENTRY_BUDGET = 10**9


def action_exact(spec: Spectrum, a, f: SmoothFunction) -> float:
    """tr f(D + A) summed over the exact eigenvalues of the perturbed operator."""
    return _trace_of(f, np.diag(spec.eigenvalues) + require_hermitian(a, spec.dim))


def _unperturbed_trace(spec: Spectrum, f: SmoothFunction) -> float:
    """tr f(D), summed over the spectrum: no eigen-solve."""
    return float(np.sum(np.asarray(f(spec.eigenvalues), dtype=float)))


# Each route computes a nonempty ascending list of orders in one pass,
# sharing its tables, contour or eigen-solves across them; the per-order
# public functions and expand both call into it.  A table route builds
# every level its top order needs at once, then holds one order's tensor
# at a time.


def _dd_orders(orders: Sequence[int], spec: Spectrum, mat: np.ndarray, f: SmoothFunction,
               budget: int) -> list[float]:
    """(1/n) sum A_{i_1 i_2} ... A_{i_n i_1} f'[lam_{i_1}, ..., lam_{i_n}]
    at each order, over one table of f' on the spectrum."""
    _check_budget(spec.dim, orders[-1], budget)
    table = MultisetDivDiff(f.derivative(), spec.eigenvalues)
    table._level(orders[-1])
    return [float((_cyclic_contract([mat] * n, table.tensor(n)) / n).real) for n in orders]


def _theorem_orders(orders: Sequence[int], spec: Spectrum, mat: np.ndarray,
                    f: SmoothFunction, budget: int) -> list[float]:
    """n * sum A_{i_n i_1} ... A_{i_{n-1} i_n} f[lam_{i_n}, lam_{i_1}, ...,
    lam_{i_n}] at each order, over one table of f on the spectrum."""
    _check_budget(spec.dim, orders[-1], budget)
    table = MultisetDivDiff(f, spec.eigenvalues)
    table._level(orders[-1] + 1)
    return [float((_cyclic_contract([mat] * n, table.doubled_tensor(n)) * n).real) for n in orders]


def _bracket_orders(orders: Sequence[int], spec: Spectrum, mat: np.ndarray,
                    g: SmoothFunction | None, budget: int) -> list[float]:
    """The bracket sum at each order, over one table of g on the squared
    spectrum, where f(x) = g(x^2): divided differences are linear, so the
    mu-integral of the e^{-tu} brackets is g's bracket.  The unit in
    <1, B_1, ..., B_k> forces i_0 = i_1: the doubled tensor's last slot,
    so B_1 goes last."""
    if g is None:
        raise ValueError("bracket route needs f = g(x^2): a measure or a square companion")
    _check_budget(spec.dim, orders[-1], budget)
    table = MultisetDivDiff(g, spec.squares)
    table._level(orders[-1] + 1)
    anti = anticommutator_with_d(spec, mat)
    sq = mat @ mat
    out = []
    for n in orders:
        total = 0.0j
        # one tensor for each bracket length k; the (-1)^k of the sum
        # cancels the (-1)^k of the closed bracket form
        for k, group in groupby(step_bitstrings(n), key=len):
            weight = table.doubled_tensor(k)
            for bits in group:
                ops = [sq if b else anti for b in bits[1:] + bits[:1]]
                total += _cyclic_contract(ops, weight)
        out.append(float(total.real))
    return out


def _resolvent_traces(orders: Sequence[int], mat: np.ndarray, lam: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """tr M^n with M = A (z - D)^{-1}, one row per order and one column per
    point, from running powers of M per block of points:
    tr M^n = sum_ij (M^a)_ij (M^b)_ji with a = ceil(n/2) and b = floor(n/2),
    so the top order takes ceil(n/2) - 1 products and only M^a and M^(a-1)
    are held."""
    traces = np.empty((len(orders), z.size), dtype=complex)
    for start in range(0, z.size, CONTOUR_BLOCK):
        block = slice(start, start + CONTOUR_BLOCK)
        resolvent = 1.0 / (z[block, None] - lam[None, :])
        m = mat[None, :, :] * resolvent[:, None, :]
        below, power, level = None, m, 1
        for row, n in enumerate(orders):
            while level < (n + 1) // 2:
                below = power
                power, level = below @ m, level + 1
            if n == 1:
                traces[row, block] = np.einsum("pii->p", power)
            else:
                other = power if n % 2 == 0 else below
                traces[row, block] = np.einsum("pij,pji->p", power, other)
    return traces


def _contour_orders(orders: Sequence[int], spec: Spectrum, mat: np.ndarray,
                    f: SmoothFunction) -> list[float]:
    """(1/n) (1/2 pi i) oint f'(z) tr (A (z - D)^{-1})^n dz at each order,
    with every order's traces from one pass over the contour's upper half."""
    contour = CircleContour.enclosing(spec, f)
    entries = contour.points * spec.dim**2 * orders[-1]
    if entries > CONTOUR_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"contour needs {contour.points} points x {spec.dim}^2 x order {orders[-1]} = "
            f"{entries} work entries, over budget {CONTOUR_ENTRY_BUDGET}"
        )
    sums = contour.real_integral(
        lambda z: f.deriv_complex(1, z) * _resolvent_traces(orders, mat, spec.eigenvalues, z))
    return [float(total / n) for n, total in zip(orders, sums)]


def _fd_orders(orders: Sequence[int], spec: Spectrum, mat: np.ndarray, f: SmoothFunction,
               h: float) -> list[float]:
    """Central differences of phi(u) = tr f(D + u A) at steps h and h/2,
    Richardson-extrapolated, at each order.  Orders share stencil points,
    so phi costs one eigen-solve per distinct nonzero u (the same float
    gives the same matrix, so sharing changes no value); phi(0) = tr f(D)
    is summed over the spectrum, which a solve of the diagonal D + 0 A
    returns unchanged."""
    _require_finite_positive(f"fd step (and its power {orders[-1]})", h, orders[-1])
    d = np.diag(spec.eigenvalues)
    phi = {0.0: _unperturbed_trace(spec, f)}

    def diff(n: int, step: float) -> float:
        coeff = np.array([(-1.0) ** k * math.comb(n, k) for k in range(n + 1)])
        vals = []
        for k in range(n + 1):
            u = (n / 2.0 - k) * step
            if u not in phi:
                phi[u] = _trace_of(f, d + u * mat)
            vals.append(phi[u])
        return float(np.dot(coeff, vals) / step**n)

    return [(4.0 * diff(n, h / 2.0) - diff(n, h)) / 3.0 / math.factorial(n) for n in orders]


def taylor_term(
    n: int,
    spec: Spectrum,
    a,
    f: SmoothFunction,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """Order-n Taylor contribution via divided differences of f'.

    Order 0 is tr f(D).  For n >= 1 the closed form is
    (1/n) sum_{i_1..i_n} A_{i_1 i_2} ... A_{i_n i_1}
    f'[lam_{i_1}, ..., lam_{i_n}]; repeated eigenvalues flow through the
    confluent table.
    """
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    mat = require_hermitian(a, spec.dim)
    if n == 0:
        return _unperturbed_trace(spec, f)
    return _dd_orders((n,), spec, mat, f, budget)[0]


def taylor_term_theorem_form(
    n: int,
    spec: Spectrum,
    a,
    f: SmoothFunction,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """Order-n term from divided differences of f itself, scaled by n.

    Evaluates n * sum A_{i_n i_1} A_{i_1 i_2} ... A_{i_{n-1} i_n}
    f[lam_{i_n}, lam_{i_1}, ..., lam_{i_n}] (note the cyclically repeated
    last node, which raises the difference order by one); dividing by n
    recovers taylor_term.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _theorem_orders((n,), spec, require_hermitian(a, spec.dim), f, budget)[0]


def taylor_term_bracket_form(
    n: int,
    spec: Spectrum,
    a,
    mu: DiscreteMeasure,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> float:
    """Order-n term as an alternating sum of heat-kernel brackets.

    sum_k (-1)^k sum over bitstrings eps in {0,1}^k with
    sum_i (1 + eps_i) = n of the mu-integral of <1, B_1, ..., B_k>_k,
    where B_i = {D, A} when eps_i = 0 and A^2 when eps_i = 1, read from
    one table of g(u) = sum_j w_j e^{-t_j u}, the companion of f = g(x^2).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    g = None if mu is None else make_gaussian_mixture(mu).square_companion
    return _bracket_orders((n,), spec, require_hermitian(a, spec.dim), g, budget)[0]


def taylor_term_contour(n: int, spec: Spectrum, a, f: SmoothFunction) -> float:
    """Order-n term from the resolvent contour form.

    (1/n) (1/2 pi i) oint f'(z) tr (A (z - D)^{-1})^n dz, discretized by
    the trapezoid rule on the ellipse CircleContour.enclosing sizes from
    the spectrum and f, folded onto its upper half; f needs a complex
    derivative and must be real on the reals (f(conj z) = conj f(z), as
    every function built here is).  A contour whose work exceeds
    CONTOUR_ENTRY_BUDGET is refused before any work.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _contour_orders((n,), spec, require_hermitian(a, spec.dim), f)[0]


def gateaux_fd(n: int, spec: Spectrum, a, f: SmoothFunction, h: float = 0.05) -> float:
    """Order-n contribution from central finite differences.

    Applies the n-th central difference to phi(u) = tr f(D + u A) at step
    h and h/2, Richardson-extrapolates the pair (error falls from h^2 to
    h^4), and divides by n!.  Independent of every divided-difference
    code path.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _fd_orders((n,), spec, require_hermitian(a, spec.dim), f, h)[0]


# route name -> its all-orders pass (orders, spec, mat, f, budget, fd_step)
# -> the contributions at those orders; the theorem form's raw sums are
# n times the contribution
ROUTES = {
    "dd": lambda orders, spec, mat, f, budget, h: _dd_orders(orders, spec, mat, f, budget),
    "theorem": lambda orders, spec, mat, f, budget, h: [
        v / n for n, v in zip(orders, _theorem_orders(orders, spec, mat, f, budget))
    ],
    "bracket": lambda orders, spec, mat, f, budget, h: _bracket_orders(
        orders, spec, mat, f.square_companion, budget
    ),
    "contour": lambda orders, spec, mat, f, budget, h: _contour_orders(orders, spec, mat, f),
    "fd": lambda orders, spec, mat, f, budget, h: _fd_orders(orders, spec, mat, f, h),
}


def fd_noise_floor(n: int, h: float, dim: int) -> float:
    """Smallest order-n contribution gateaux_fd at step h can resolve.

    The finest stencil evaluates the trace at steps h/2; eigensolver noise
    of about eps * dim per trace is amplified by the alternating binomial
    sum (2^n) and the 1/((h/2)^n n!) scaling.  The factor 10 is headroom
    over the measured constant.
    """
    eps = float(np.finfo(float).eps)
    return 10.0 * 2.0**n * eps * dim / ((h / 2.0) ** n * math.factorial(n))


def gateaux_fd_mixed(spec: Spectrum, a, b, f: SmoothFunction, h: float = 0.05) -> float:
    """Mixed second Gateaux derivative of tr f(D + uA + vB) at (0, 0).

    Central cross difference with one Richardson step; used to probe the
    quadratic form on pairs, e.g. its degeneracy along commutator
    directions [D, x] when the linear term vanishes.
    """
    _require_finite_positive("fd step (and its power 2)", h, 2)
    mat_a = require_hermitian(a, spec.dim)
    mat_b = require_hermitian(b, spec.dim)
    d = np.diag(spec.eigenvalues)

    def phi(u: float, v: float) -> float:
        return _trace_of(f, d + u * mat_a + v * mat_b)

    def cross(step: float) -> float:
        return (
            phi(step, step) - phi(step, -step) - phi(-step, step) + phi(-step, -step)
        ) / (4.0 * step * step)

    return (4.0 * cross(h / 2.0) - cross(h)) / 3.0


@dataclass(frozen=True)
class TaylorReport:
    """Per-order contributions with the exact value and remainder study."""

    route: str
    contributions: tuple[float, ...]
    exact: float
    scaling_factors: tuple[float, ...]
    scaled_remainders: tuple[float, ...]
    scaling_exponent: float | None
    partial_sums: tuple[float, ...] = field(init=False)
    remainders: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        sums = tuple(np.cumsum(self.contributions).tolist())
        object.__setattr__(self, "partial_sums", sums)
        object.__setattr__(
            self, "remainders", tuple(abs(self.exact - s) for s in sums)
        )

    @property
    def n_max(self) -> int:
        return len(self.contributions) - 1

    def csv_rows(self) -> list[dict]:
        return [
            {
                "order": k,
                "contribution": self.contributions[k],
                "partial_sum": self.partial_sums[k],
                "remainder": self.remainders[k],
            }
            for k in range(len(self.contributions))
        ]

    def text_summary(self) -> str:
        lines = [
            f"route: {self.route}",
            f"exact action: {self.exact:.17g}",
            f"orders: 0..{self.n_max}",
        ]
        for row in self.csv_rows():
            lines.append(
                "order {order}: contribution {contribution:+.10e}  "
                "partial {partial_sum:+.10e}  remainder {remainder:.3e}".format(**row)
            )
        for eps, rem in zip(self.scaling_factors, self.scaled_remainders):
            lines.append(f"remainder at scale {eps:g}: {rem:.6e}")
        if self.scaling_exponent is None:
            lines.append("scaling exponent: undetermined (vanishing remainder)")
        else:
            lines.append(f"scaling exponent estimate: {self.scaling_exponent:.3f}")
        return "\n".join(lines)


def expand(
    spec: Spectrum,
    a,
    f: SmoothFunction,
    n_max: int,
    route: str = "dd",
    budget: int = DEFAULT_TUPLE_BUDGET,
    scaling_factors: Sequence[float] = (1.0, 0.5, 0.25),
    fd_step: float = 0.05,
) -> TaylorReport:
    """Expansion through order n_max with exact-trace remainder study.

    The remainder at a scale eps reuses the computed contributions (order
    n scales exactly as eps^n along every analytic route) against a fresh
    exact evaluation at eps*A; the slope of log remainder against log eps
    estimates the truncation-order exponent, expected near n_max + 1.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    # a str check first: membership in the dict hashes the key
    if not isinstance(route, str) or route not in ROUTES:
        raise ValueError(f"unknown route {route!r}, expected one of {tuple(ROUTES)}")
    factors = tuple(float(e) for e in scaling_factors)
    for eps in factors:
        _require_finite_positive("scaling factor", eps)
        with np.errstate(over="ignore"):  # a tiny factor's powers only underflow to 0
            if np.float64(eps) ** n_max == math.inf:
                raise ValueError(f"scaling factor {eps!r} overflows at power {n_max}")
    mat = require_hermitian(a, spec.dim)
    # the route runs its checks before any work, so it goes before S_0
    higher = ROUTES[route](range(1, n_max + 1), spec, mat, f, budget, fd_step) if n_max else []
    contribs = [_unperturbed_trace(spec, f), *higher]

    # action_exact on the matrix validated above
    d = np.diag(spec.eigenvalues)
    exact = _trace_of(f, d + mat)
    scaled = []
    for eps in factors:
        partial = sum(c * eps**k for k, c in enumerate(contribs))
        # at scale 1 the exact action is the one already computed
        exact_eps = exact if eps == 1.0 else _trace_of(f, d + eps * mat)
        scaled.append(abs(exact_eps - partial))
    exponent = None
    if all(r > 0.0 for r in scaled) and len(set(factors)) >= 2:
        slope, _ = np.polyfit(np.log(factors), np.log(scaled), 1)
        exponent = float(slope)
    return TaylorReport(
        route=route,
        contributions=tuple(contribs),
        exact=exact,
        scaling_factors=factors,
        scaled_remainders=tuple(scaled),
        scaling_exponent=exponent,
    )


@dataclass(frozen=True)
class EpsilonMultiIndex:
    """Step bitstring eps in {0,1}^k; order n = sum_i (1 + eps_i)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def order(self) -> int:
        return len(self.bits) + sum(self.bits)

    @property
    def k(self) -> int:
        return len(self.bits)


def epsilon_enumerate(n: int) -> list[EpsilonMultiIndex]:
    """Every step bitstring of order n (Fibonacci-many), shortest first."""
    return [EpsilonMultiIndex(bits) for bits in step_bitstrings(n)]


def epsilon_parent_move_count(child: EpsilonMultiIndex | Sequence[int]) -> int:
    """Number of (parent, move) pairs of order n producing this order-(n+1)
    bitstring, counted by brute force.

    Moves: insert a 0 at any position of a parent; or flip one 0 of a
    parent to 1, which counts twice.  The combinatorial identity says the
    total is always n + 1.
    """
    target = child.bits if isinstance(child, EpsilonMultiIndex) else tuple(int(b) for b in child)
    order = len(target) + sum(target)
    if order < 1:
        raise ValueError("child must have order >= 1")
    count = 0
    for parent in step_bitstrings(order - 1):
        for pos in range(len(parent) + 1):
            if parent[:pos] + (0,) + parent[pos:] == target:
                count += 1
        for pos, b in enumerate(parent):
            if b == 0 and parent[:pos] + (1,) + parent[pos + 1 :] == target:
                count += 2
    return count


def tadpole_check(spec: Spectrum, a, f: SmoothFunction) -> float:
    """Linear term sum_i A_ii f'(lam_i); zero diagonal means no tadpole."""
    mat = _square_complex(a, spec.dim)
    fp = np.asarray(f.deriv(1, spec.eigenvalues), dtype=float)
    return float(np.sum(np.diagonal(mat) * fp).real)
