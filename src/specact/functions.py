"""Gaussian-mixture test functions and the discrete measures behind them.

A ``DiscreteMeasure`` is a finite list of weighted atoms (t_j, w_j) with
every t_j > 0.  It induces the mixture

    f(x) = sum_j w_j exp(-t_j x^2)

together with the companion g(u) = sum_j w_j exp(-t_j u), so that
f(x) = g(x^2).  Both carry exact derivatives of every order: the k-th
derivative of exp(-t x^2) is (-1)^k t^{k/2} H_k(sqrt(t) x) exp(-t x^2)
with H_k the physicists' Hermite polynomial (three-term recurrence), and
g differentiates atomwise to (-t)^k exp(-t u).

``SmoothFunction`` is the common carrier type.  Its one derivative source
is a ladder, ``ladder_fn(k, x) = [f(x), ..., f^(k)(x)]``; evaluation,
single derivatives, complex arguments and the derivative function all
read it.  The built-in ladders are one Gaussian kernel (the mixture), one
exponential kernel (its companion and ``exp_decay``) and the polynomial
ladder (``polynomial_function``, ``square_function``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "SmoothFunction",
    "make_gaussian_mixture",
    "exp_decay",
    "square_function",
    "polynomial_function",
    "check_summability",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure sum_j w_j delta(t_j), all t_j > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        if not atoms:
            raise ValueError("a discrete measure needs at least one atom")
        for t, w in atoms:
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ValueError("measure atoms must be finite")
            if t <= 0.0:
                raise ValueError(f"atom location must be positive, got t={t}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def ts(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    @property
    def ws(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar function with derivatives of every order.

    ``ladder_fn(k, x)`` is the one derivative source: it returns
    [f(x), f'(x), ..., f^(k)(x)] at a float, a real array or a complex
    array, every entry of an array being what the float would give, for
    every k >= 0.  A ladder that returns real values at complex points has
    no complex extension, and contour-based routines reject it.
    ``square_companion`` is an optional g with f(x) = g(x^2), ``measure``
    the optional inducing measure.
    """

    ladder_fn: Callable
    square_companion: "SmoothFunction | None" = None
    measure: DiscreteMeasure | None = None

    def __call__(self, x):
        return self.ladder_fn(0, x)[0]

    def require_order(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")

    def deriv(self, k: int, x):
        self.require_order(k)
        return self.ladder_fn(k, x)[k]

    def deriv_ladder(self, k_max: int, x) -> list:
        """[f(x), f'(x), ..., f^(k_max)(x)]."""
        self.require_order(k_max)
        return self.ladder_fn(k_max, x)

    def deriv_complex(self, k: int, z):
        self.require_order(k)
        value = self.ladder_fn(k, np.asarray(z, dtype=complex))[k]
        if not np.iscomplexobj(value):
            raise ValueError("this function has no complex-argument evaluation")
        return value

    def eval_complex(self, z):
        return self.deriv_complex(0, z)

    def derivative(self, times: int = 1) -> "SmoothFunction":
        """The ``times``-th derivative as a SmoothFunction: one ladder,
        its orders shifted down by ``times``."""
        if times < 0:
            raise ValueError(f"derivative count must be >= 0, got {times}")
        ladder = self.ladder_fn
        return SmoothFunction(ladder_fn=lambda k, x: ladder(k + times, x)[times:])


def _argument(x):
    """A real scalar as a Python float (the divided-difference hot path
    stays off numpy scalars); anything else as an array."""
    return float(x) if isinstance(x, (int, float)) else np.asarray(x)


def _gaussian_ladder(atoms, k_max: int, x) -> list:
    """Orders 0..k_max of sum_j w_j exp(-t_j x^2), one Hermite recurrence
    H_{k+1}(u) = 2u H_k(u) - 2k H_{k-1}(u) per atom, at u = sqrt(t_j) x."""
    x = _argument(x)
    out = [0.0] * (k_max + 1)
    with np.errstate(over="ignore"):  # an overflowing square: the core's float value is 0.0
        cores = [np.exp(-t * x * x) for t, _ in atoms]
    for (t, w), core in zip(atoms, cores):
        rt = math.sqrt(t)
        if isinstance(x, float):
            core = float(core)
        two_u = 2.0 * (rt * x)
        h_prev, h = 1.0, two_u
        out[0] += w * core
        for k in range(1, k_max + 1):
            out[k] += w * ((-rt) ** k) * h * core
            h, h_prev = two_u * h - 2.0 * k * h_prev, h
    return out


def _exp_ladder(atoms, k_max: int, u) -> list:
    """Orders 0..k_max of sum_j w_j exp(-t_j u): atom j contributes
    w_j (-t_j)^k exp(-t_j u) to order k."""
    u = _argument(u)
    out = [0.0] * (k_max + 1)
    for t, w in atoms:
        core = np.exp(-t * u)
        if isinstance(u, float):
            core = float(core)
        for k in range(k_max + 1):
            out[k] += w * ((-t) ** k) * core
    return out


def make_gaussian_mixture(measure: DiscreteMeasure | Iterable) -> SmoothFunction:
    """Mixture f(x) = sum_j w_j exp(-t_j x^2) with exact derivatives.

    Accepts a DiscreteMeasure or an iterable of (t, w) pairs.  The result
    carries the companion g with f(x) = g(x^2) and the inducing measure;
    both extend to complex arguments (they are entire).
    """
    mu = measure if isinstance(measure, DiscreteMeasure) else DiscreteMeasure(tuple(measure))
    atoms = mu.atoms
    return SmoothFunction(
        ladder_fn=lambda k, x: _gaussian_ladder(atoms, k, x),
        square_companion=SmoothFunction(ladder_fn=lambda k, u: _exp_ladder(atoms, k, u)),
        measure=mu,
    )


def exp_decay(rate: float) -> SmoothFunction:
    """u -> exp(-rate*u) with all derivatives (-rate)^k exp(-rate*u)."""
    rate = float(rate)
    if not math.isfinite(rate):
        raise ValueError("rate must be finite")
    atoms = ((rate, 1.0),)
    return SmoothFunction(ladder_fn=lambda k, u: _exp_ladder(atoms, k, u))


def square_function() -> SmoothFunction:
    """x -> x^2; second derivative 2, all higher derivatives vanish."""
    return polynomial_function([0, 0, 1])


def polynomial_function(coeffs: Sequence[float]) -> SmoothFunction:
    """Polynomial with the given ascending coefficients; exact at all orders."""
    poly = np.polynomial.Polynomial(list(coeffs))

    def ladder(k_max, x):
        x = _argument(x)
        out = [poly(x)]
        p = poly
        for _ in range(k_max):
            p = p.deriv()
            out.append(p(x))
        return [float(v) for v in out] if isinstance(x, float) else out

    return SmoothFunction(ladder_fn=ladder)


def check_summability(
    measure: DiscreteMeasure,
    spectrum,
    alpha: float,
    beta: float,
    eps: float,
    include_shift: bool = False,
) -> float:
    """Weighted heat-tail sum controlling term-by-term integrability.

    Returns sum_j |w_j| t_j^alpha sum_i |lam_i|^beta exp(-t_j eps lam_i^2),
    optionally multiplied per atom by exp(beta t_j) when ``include_shift``
    is set (the shifted reading; off by default).  Convention 0^0 = 1, so
    beta = 0 counts every eigenvalue including zeros.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not beta >= 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=float)
    absl = np.abs(lam)
    powers = np.ones_like(absl) if beta == 0.0 else absl**beta
    total = 0.0
    for t, w in measure:
        tail = float(np.sum(powers * np.exp(-t * eps * lam * lam)))
        shift = math.exp(beta * t) if include_shift else 1.0
        total += abs(w) * (t**alpha) * tail * shift
    return total
