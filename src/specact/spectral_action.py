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
  gateaux_fd           central finite differences of u -> tr f(D + u A)
                       with one Richardson extrapolation (the only route
                       that never touches divided differences)

The tuple sums are evaluated as tensor contractions against cached
divided-difference tensors; cost grows like N^n and is refused above a
configurable budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from string import ascii_lowercase
from typing import Sequence

import numpy as np

from .divdiff import MultisetDivDiff, step_bitstrings
from .errors import BudgetExceededError
from .functions import DiscreteMeasure, SmoothFunction
from .operator_model import (
    DEFAULT_TUPLE_BUDGET,
    Spectrum,
    _cyclic_contract,
    _exp_divdiff,
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
    "expand",
    "epsilon_enumerate",
    "epsilon_parent_move_count",
    "tadpole_check",
]

ROUTES = ("dd", "theorem", "bracket", "contour", "fd")
# the tensor routes sum over dim^(n + shift) index tuples at order n
TUPLE_EXPONENT_SHIFT = {"dd": 0, "theorem": 0, "bracket": 1}


def _perturbation(spec: Spectrum, a) -> np.ndarray:
    mat = require_hermitian(a)
    if mat.shape[0] != spec.dim:
        raise ValueError(
            f"perturbation dimension {mat.shape[0]} does not match spectrum dimension {spec.dim}"
        )
    return mat


def action_exact(spec: Spectrum, a, f: SmoothFunction) -> float:
    """tr f(D + A) summed over the exact eigenvalues of the perturbed operator."""
    mat = _perturbation(spec, a)
    mu = np.linalg.eigvalsh(np.diag(spec.eigenvalues) + mat)
    return float(np.sum(np.asarray(f(mu), dtype=float)))


def _check_budget(dim: int, exponent: int, budget: int) -> None:
    if dim**exponent > budget:
        raise BudgetExceededError(
            f"tuple sum needs {dim}^{exponent} = {dim**exponent} terms, over budget {budget}"
        )


def _cyclic_weighted_sum(mat: np.ndarray, weight: np.ndarray, n: int) -> complex:
    """sum over tuples of A_{i_1 i_2} ... A_{i_n i_1} W_{i_1 ... i_n}."""
    letters = ascii_lowercase[:n]
    if n == 1:
        return complex(np.einsum("aa,a->", mat, weight))
    subs = [letters[j] + letters[(j + 1) % n] for j in range(n)]
    expr = ",".join(subs + [letters]) + "->"
    return complex(np.einsum(expr, *([mat] * n), weight, optimize=True))


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
    mat = _perturbation(spec, a)
    if n == 0:
        return float(np.sum(np.asarray(f(spec.eigenvalues), dtype=float)))
    _check_budget(spec.dim, n, budget)
    table = MultisetDivDiff(f.derivative(), spec.eigenvalues)
    weight = table.tensor(n)
    value = _cyclic_weighted_sum(mat, weight, n) / n
    return float(value.real)


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
    mat = _perturbation(spec, a)
    _check_budget(spec.dim, n, budget)
    weight = MultisetDivDiff(f, spec.eigenvalues).doubled_tensor(n)
    value = _cyclic_weighted_sum(mat, weight, n) * n
    return float(value.real)


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
    where B_i = {D, A} when eps_i = 0 and A^2 when eps_i = 1.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    mat = _perturbation(spec, a)
    _check_budget(spec.dim, n + 1, budget)
    anti = anticommutator_with_d(spec, mat)
    sq = mat @ mat
    eye = np.eye(spec.dim, dtype=complex)
    tables = [_exp_divdiff(spec, t) for t, _ in mu]
    total = 0.0j
    # one tensor per atom for each bracket length k; the (-1)^k of the sum
    # cancels the (-1)^k of the closed bracket form
    for k, group in groupby(step_bitstrings(n), key=len):
        weights = [table.tensor(k + 1) for table in tables]
        for bits in group:
            ops = [eye] + [sq if b else anti for b in bits]
            for (_, w), weight in zip(mu, weights):
                total += w * _cyclic_contract(ops, weight)
    return float(total.real)


@dataclass(frozen=True)
class CircleContour:
    """Circle |z - center| = radius sampled at equispaced points."""

    center: float
    radius: float
    points: int = 512

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.points < 2:
            raise ValueError(f"need at least 2 points, got {self.points}")

    @classmethod
    def enclosing(cls, spec: Spectrum, margin: float = 1.0, points: int = 512) -> "CircleContour":
        lam = spec.eigenvalues
        center = 0.5 * float(lam[0] + lam[-1])
        radius = 0.5 * float(lam[-1] - lam[0]) + margin
        return cls(center=center, radius=radius, points=points)

    def nodes(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.points) / self.points
        return self.center + self.radius * np.exp(1j * theta)


def taylor_term_contour(
    n: int,
    spec: Spectrum,
    a,
    f: SmoothFunction,
    contour: CircleContour | None = None,
) -> float:
    """Order-n term from the resolvent contour form.

    (1/n) (1/2 pi i) oint f'(z) tr (A (z - D)^{-1})^n dz, discretized by
    the trapezoid rule on the circle.  All eigenvalues must lie strictly
    inside; f needs a complex-argument derivative.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    mat = _perturbation(spec, a)
    if contour is None:
        contour = CircleContour.enclosing(spec)
    lam = spec.eigenvalues
    dist = float(np.max(np.abs(lam - contour.center)))
    if dist >= contour.radius:
        raise ValueError(
            f"eigenvalue at distance {dist} from center lies on or outside radius {contour.radius}"
        )
    z = contour.nodes()
    resolvent = 1.0 / (z[:, None] - lam[None, :])
    m = mat[None, :, :] * resolvent[:, None, :]
    power = m
    for _ in range(n - 1):
        power = power @ m
    traces = np.einsum("pii->p", power)
    fprime = np.asarray(f.deriv_complex(1, z), dtype=complex)
    value = np.mean(fprime * traces * (z - contour.center)) / n
    return float(value.real)


def _phi_values(spec: Spectrum, mat: np.ndarray, f: SmoothFunction, us: Sequence[float]):
    d = np.diag(spec.eigenvalues)
    out = []
    for u in us:
        mu = np.linalg.eigvalsh(d + u * mat)
        out.append(float(np.sum(np.asarray(f(mu), dtype=float))))
    return out


def gateaux_fd(n: int, spec: Spectrum, a, f: SmoothFunction, h: float = 0.05) -> float:
    """Order-n contribution from central finite differences.

    Applies the n-th central difference to phi(u) = tr f(D + u A) at step
    h and h/2, Richardson-extrapolates the pair (error falls from h^2 to
    h^4), and divides by n!.  Independent of every divided-difference
    code path.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    mat = _perturbation(spec, a)
    coeff = np.array([(-1.0) ** k * math.comb(n, k) for k in range(n + 1)])

    def diff(step: float) -> float:
        us = [(n / 2.0 - k) * step for k in range(n + 1)]
        vals = _phi_values(spec, mat, f, us)
        return float(np.dot(coeff, vals) / step**n)

    fine, coarse = diff(h / 2.0), diff(h)
    return (4.0 * fine - coarse) / 3.0 / math.factorial(n)


def gateaux_fd_mixed(spec: Spectrum, a, b, f: SmoothFunction, h: float = 0.05) -> float:
    """Mixed second Gateaux derivative of tr f(D + uA + vB) at (0, 0).

    Central cross difference with one Richardson step; used to probe the
    quadratic form on pairs, e.g. its degeneracy along commutator
    directions [D, x] when the linear term vanishes.
    """
    mat_a = _perturbation(spec, a)
    mat_b = _perturbation(spec, b)
    d = np.diag(spec.eigenvalues)

    def phi(u: float, v: float) -> float:
        mu = np.linalg.eigvalsh(d + u * mat_a + v * mat_b)
        return float(np.sum(np.asarray(f(mu), dtype=float)))

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
    contour: CircleContour | None = None,
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
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}, expected one of {ROUTES}")
    mat = _perturbation(spec, a)
    if route == "bracket" and f.measure is None:
        raise ValueError("bracket route needs a function carrying its measure")
    if route in TUPLE_EXPONENT_SHIFT and n_max >= 1:
        _check_budget(spec.dim, n_max + TUPLE_EXPONENT_SHIFT[route], budget)

    contribs = [taylor_term(0, spec, mat, f)]
    for n in range(1, n_max + 1):
        if route == "dd":
            c = taylor_term(n, spec, mat, f, budget=budget)
        elif route == "theorem":
            c = taylor_term_theorem_form(n, spec, mat, f, budget=budget) / n
        elif route == "bracket":
            c = taylor_term_bracket_form(n, spec, mat, f.measure, budget=budget)
        elif route == "contour":
            c = taylor_term_contour(n, spec, mat, f, contour=contour)
        else:
            c = gateaux_fd(n, spec, mat, f, h=fd_step)
        contribs.append(c)

    exact = action_exact(spec, mat, f)
    factors = tuple(float(e) for e in scaling_factors)
    scaled = []
    for eps in factors:
        partial = sum(c * eps**k for k, c in enumerate(contribs))
        scaled.append(abs(action_exact(spec, eps * mat, f) - partial))
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
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != spec.dim:
        raise ValueError("perturbation shape does not match the spectrum")
    fp = np.asarray(f.deriv(1, spec.eigenvalues), dtype=float)
    return float(np.sum(np.diagonal(mat) * fp).real)
