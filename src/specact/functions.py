"""Gaussian-mixture test functions and the discrete measures behind them.

A ``DiscreteMeasure`` is a finite list of weighted atoms (t_j, w_j) with
every t_j > 0.  It induces the mixture

    f(x) = sum_j w_j exp(-t_j x^2)

together with the companion g(u) = sum_j w_j exp(-t_j u), so that
f(x) = g(x^2).  Both carry exact derivatives of every order: the k-th
derivative of exp(-t x^2) is (-1)^k t^{k/2} H_k(sqrt(t) x) exp(-t x^2)
with H_k the physicists' Hermite polynomial (three-term recurrence), and
g differentiates atomwise to (-t)^k exp(-t u).

``SmoothFunction`` is the common carrier type: evaluation, derivatives up
to ``max_order`` (None = unbounded), an optional complex-argument
extension for contour integration, an optional square companion g, an
optional back-reference to the inducing measure, and an optional ladder
that returns every derivative up to a given order in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DerivativeOrderError

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
    """A scalar function with derivatives available up to ``max_order``.

    ``eval_fn(x)`` and ``deriv_fn(k, x)`` (k >= 1) must accept floats and
    numpy arrays alike.  ``max_order=None`` means every order is exact.
    ``complex_fn(k, z)``, when present, evaluates the k-th derivative at
    complex arguments; contour-based routines require it.  The invariant
    deriv(0, x) == eval(x) is enforced by dispatch.  ``ladder_fn(k, x)``,
    when present, returns [deriv(0, x), ..., deriv(k, x)] at a real scalar
    x, bit for bit, at the cost of one evaluation.
    """

    eval_fn: Callable
    deriv_fn: Callable
    max_order: int | None = None
    square_companion: "SmoothFunction | None" = None
    complex_fn: Callable | None = None
    measure: DiscreteMeasure | None = None
    ladder_fn: Callable | None = None

    def __call__(self, x):
        return self.eval_fn(x)

    def require_order(self, k: int) -> None:
        if self.max_order is not None and k > self.max_order:
            raise DerivativeOrderError(
                f"derivative order {k} requested but only {self.max_order} available"
            )

    def deriv(self, k: int, x):
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        self.require_order(k)
        if k == 0:
            return self.eval_fn(x)
        return self.deriv_fn(k, x)

    def deriv_ladder(self, k_max: int, x: float) -> list[float]:
        """[f(x), f'(x), ..., f^(k_max)(x)] at a real scalar x."""
        if k_max < 0:
            raise ValueError(f"derivative order must be >= 0, got {k_max}")
        self.require_order(k_max)
        if self.ladder_fn is not None:
            return self.ladder_fn(k_max, x)
        return [float(self.deriv(k, x)) for k in range(k_max + 1)]

    def deriv_complex(self, k: int, z):
        if self.complex_fn is None:
            raise ValueError("this function has no complex-argument evaluation")
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        self.require_order(k)
        return self.complex_fn(k, z)

    def eval_complex(self, z):
        return self.deriv_complex(0, z)

    def derivative(self) -> "SmoothFunction":
        """The derivative as a SmoothFunction (orders shift down by one)."""
        if self.max_order is not None and self.max_order < 1:
            raise DerivativeOrderError("no derivative available beyond order 0")
        parent = self
        new_max = None if parent.max_order is None else parent.max_order - 1
        complex_fn = None
        if parent.complex_fn is not None:
            complex_fn = lambda k, z: parent.complex_fn(k + 1, z)  # noqa: E731
        ladder_fn = None
        if parent.ladder_fn is not None:
            ladder_fn = lambda k, x: parent.ladder_fn(k + 1, x)[1:]  # noqa: E731
        return SmoothFunction(
            eval_fn=lambda x: parent.deriv_fn(1, x),
            deriv_fn=lambda k, x: parent.deriv_fn(k + 1, x),
            max_order=new_max,
            complex_fn=complex_fn,
            ladder_fn=ladder_fn,
        )


def _hermite(k: int, u):
    """Physicists' Hermite polynomial H_k(u) by the three-term recurrence."""
    u = np.asarray(u)
    h_prev = np.ones_like(u)
    if k == 0:
        return h_prev
    h = 2.0 * u
    for m in range(1, k):
        h, h_prev = 2.0 * u * h - 2.0 * m * h_prev, h
    return h


def _mixture_deriv(atoms, k: int, x):
    x = np.asarray(x)
    scalar = x.ndim == 0
    total = np.zeros_like(x, dtype=x.dtype if np.iscomplexobj(x) else float)
    for t, w in atoms:
        rt = math.sqrt(t)
        core = np.exp(-t * x * x)
        if k == 0:
            total = total + w * core
        else:
            total = total + w * ((-rt) ** k) * _hermite(k, rt * x) * core
    return total.item() if scalar else total


def _mixture_ladder(atoms, k_max: int, x: float) -> list[float]:
    """Orders 0..k_max of the mixture at a real scalar x, one Hermite
    recurrence per atom.  Each order repeats the floating-point operations
    of _mixture_deriv in the same order, so every entry is bit-identical.
    """
    x = float(x)
    out = [0.0] * (k_max + 1)
    for t, w in atoms:
        rt = math.sqrt(t)
        core = float(np.exp(-t * x * x))
        two_u = 2.0 * (rt * x)
        h_prev, h = 1.0, two_u
        out[0] += w * core
        for k in range(1, k_max + 1):
            out[k] += w * ((-rt) ** k) * h * core
            h, h_prev = two_u * h - 2.0 * k * h_prev, h
    return out


def _companion_deriv(atoms, k: int, u):
    u = np.asarray(u)
    scalar = u.ndim == 0
    total = np.zeros_like(u, dtype=u.dtype if np.iscomplexobj(u) else float)
    for t, w in atoms:
        total = total + w * ((-t) ** k) * np.exp(-t * u)
    return total.item() if scalar else total


def make_gaussian_mixture(measure: DiscreteMeasure | Iterable) -> SmoothFunction:
    """Mixture f(x) = sum_j w_j exp(-t_j x^2) with exact derivatives.

    Accepts a DiscreteMeasure or an iterable of (t, w) pairs.  The result
    carries the companion g with f(x) = g(x^2), complex-argument
    evaluation (the mixture is entire), and the inducing measure.
    """
    mu = measure if isinstance(measure, DiscreteMeasure) else DiscreteMeasure(tuple(measure))
    atoms = mu.atoms

    def f_eval(x):
        return _mixture_deriv(atoms, 0, x)

    def f_deriv(k, x):
        return _mixture_deriv(atoms, k, x)

    def f_complex(k, z):
        return _mixture_deriv(atoms, k, np.asarray(z, dtype=complex))

    def f_ladder(k_max, x):
        return _mixture_ladder(atoms, k_max, x)

    def g_eval(u):
        return _companion_deriv(atoms, 0, u)

    def g_deriv(k, u):
        return _companion_deriv(atoms, k, u)

    def g_complex(k, z):
        return _companion_deriv(atoms, k, np.asarray(z, dtype=complex))

    companion = SmoothFunction(
        eval_fn=g_eval, deriv_fn=g_deriv, max_order=None, complex_fn=g_complex
    )
    return SmoothFunction(
        eval_fn=f_eval,
        deriv_fn=f_deriv,
        max_order=None,
        square_companion=companion,
        complex_fn=f_complex,
        measure=mu,
        ladder_fn=f_ladder,
    )


def exp_decay(rate: float) -> SmoothFunction:
    """u -> exp(-rate*u) with all derivatives (-rate)^k exp(-rate*u)."""
    rate = float(rate)
    if not math.isfinite(rate):
        raise ValueError("rate must be finite")

    def d(k, u):
        return ((-rate) ** k) * np.exp(-rate * np.asarray(u))

    def ladder(k_max, u):
        core = np.exp(-rate * np.asarray(u))
        return [float(core)] + [float(((-rate) ** k) * core) for k in range(1, k_max + 1)]

    return SmoothFunction(
        eval_fn=lambda u: np.exp(-rate * np.asarray(u)),
        deriv_fn=d,
        max_order=None,
        complex_fn=lambda k, z: ((-rate) ** k) * np.exp(-rate * np.asarray(z, dtype=complex)),
        ladder_fn=ladder,
    )


def square_function() -> SmoothFunction:
    """x -> x^2; second derivative 2, all higher derivatives vanish."""

    def d(k, x):
        x = np.asarray(x)
        if k == 1:
            return 2.0 * x
        if k == 2:
            return np.full_like(x, 2.0, dtype=x.dtype if np.iscomplexobj(x) else float)
        return np.zeros_like(x, dtype=x.dtype if np.iscomplexobj(x) else float)

    return SmoothFunction(
        eval_fn=lambda x: np.asarray(x) ** 2,
        deriv_fn=d,
        max_order=None,
        complex_fn=lambda k, z: d(k, np.asarray(z, dtype=complex))
        if k
        else np.asarray(z, dtype=complex) ** 2,
    )


def polynomial_function(coeffs: Sequence[float]) -> SmoothFunction:
    """Polynomial with the given ascending coefficients; exact at all orders."""
    poly = np.polynomial.Polynomial(list(coeffs))

    def d(k, x):
        return poly.deriv(k)(x)

    return SmoothFunction(
        eval_fn=lambda x: poly(x),
        deriv_fn=d,
        max_order=None,
        complex_fn=lambda k, z: poly.deriv(k)(np.asarray(z, dtype=complex))
        if k
        else poly(np.asarray(z, dtype=complex)),
    )


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
