"""Numerical checks of the trace estimates behind the expansion.

Three families:

  * simplex_bound_check  -- int_{Delta_m} (s_0 ... s_{k-1})^{-1/2} d^m s
    against pi^k / (m-k)!, by importance sampling from the Dirichlet
    distribution with parameters 1/2 on the singular coordinates and 1
    elsewhere (the integrand has integrable inverse-square-root
    singularities; this proposal makes the weights finite-variance).
  * holder_estimate_check -- the Hoelder-type bound on simplex heat-trace
    integrals with |D|^{alpha_i} insertions, the slot-0 heat factor built
    from a designated perturbed operator D_A.
  * getzler_szenes_check  -- tr e^{-(1-eps/2) t (D+V)^2} against
    e^{(1+2/eps) t ||V||^2} tr e^{-(1-eps) t D^2}.

Each check returns a BoundReport; a Monte Carlo lhs passes when it does
not exceed the rhs by more than three standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operator_model import (
    Spectrum,
    _cyclic_heat_traces,
    _diag_plus,
    _require_finite_positive,
    _square_complex,
    _trace_of,
    heat_trace,
    operator_norm,
    require_hermitian,
)
from .rng import _mc_mean, _require_samples, make_rng, simplex_uniform

__all__ = [
    "BoundReport",
    "simplex_bound_check",
    "holder_estimate_check",
    "getzler_szenes_check",
]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check; stderr is zero for deterministic ones."""

    lhs: float
    rhs: float
    mc_stderr: float = 0.0

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        # ulp-scale slack keeps exact-equality cases (where the estimator is
        # zero-variance and stderr underflows the rounding of the mean) from
        # flipping on the last bit
        ref = max(1.0, abs(self.lhs), abs(self.rhs))
        slack = 16.0 * float(np.spacing(ref)) if math.isfinite(ref) else 0.0
        return bool(self.lhs <= self.rhs + 3.0 * self.mc_stderr + slack)


def simplex_bound_check(m: int, k: int, samples: int, seed: int) -> BoundReport:
    """Importance-sampled simplex integral against pi^k / (m-k)!.

    Draws from Dirichlet(1/2 x k, 1 x (m+1-k)) on the order-m simplex and
    averages the density-corrected integrand.  Since the proposal is
    proportional to the integrand, the weights are analytically constant
    (the integral equals pi^{k/2} / Gamma(m+1-k/2)) and the reported
    stderr only reflects rounding.  k = m+1 makes the right side infinite
    and the check trivial.
    """
    _require_samples(samples)
    if m < 0:
        raise ValueError(f"simplex order must be >= 0, got {m}")
    if not 0 <= k <= m + 1:
        raise ValueError(f"k must lie in [0, {m + 1}], got {k}")
    alpha = np.array([0.5] * k + [1.0] * (m + 1 - k))
    rng = make_rng(seed)
    s = rng.dirichlet(alpha, size=samples)
    # density of the proposal w.r.t. d^m s, with log-gamma normalization
    log_norm = math.lgamma(float(alpha.sum())) - sum(math.lgamma(av) for av in alpha)
    log_s = np.log(np.clip(s[:, :k], 1e-300, None))
    log_integrand = -0.5 * np.sum(log_s, axis=1)
    log_density = log_norm + np.sum((alpha[None, :k] - 1.0) * log_s, axis=1)
    weights = np.exp(log_integrand - log_density)
    lhs, stderr = _mc_mean(weights, 1.0)
    rhs = math.pi**k / math.factorial(m - k) if k <= m else math.inf
    return BoundReport(lhs=lhs.real, rhs=rhs, mc_stderr=stderr)


def holder_estimate_check(
    spec: Spectrum,
    ops: Sequence,
    alphas: Sequence[int],
    t: float,
    eps: float,
    samples: int,
    seed: int,
    perturbation=None,
) -> BoundReport:
    """Hoelder-type simplex trace bound with |D|^{alpha_i} insertions.

    lhs = | int_{Delta_n} tr( A_0 |D_A|^{alpha_0} e^{-s_0 t D_A^2}
          A_1 |D|^{alpha_1} e^{-s_1 t D^2} ... ) d^n s |, estimated by
    uniform simplex Monte Carlo, with D_A = D + perturbation (defaulting
    to ops[0]).  rhs = prod ||A_i|| tr e^{-(1-eps) t D^2} /
    ((n-k)! (pi^{-2} eps t)^{k/2}) with k = sum alpha_i.
    """
    _require_samples(samples)
    _require_finite_positive("heat time", t)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    mats = [_square_complex(m, spec.dim) for m in ops]
    if not mats:
        raise ValueError("need at least one operator")
    n = len(mats) - 1
    if len(alphas) != n + 1:
        raise ValueError(f"need {n + 1} exponents, got {len(alphas)}")
    alphas = [int(x) for x in alphas]
    if any(x not in (0, 1) for x in alphas):
        raise ValueError("exponents must be 0 or 1")
    k = sum(alphas)

    pert = require_hermitian(mats[0] if perturbation is None else perturbation, spec.dim)
    mu, u = np.linalg.eigh(_diag_plus(spec.eigenvalues, (1.0, pert)))

    # slot 0 factorizes as (A_0 U |mu|^{alpha_0}) e^{-s_0 t mu^2} (U*);
    # the trailing U* multiplies the next slot's matrix from the left
    # (cyclically: slot 0's own when n = 0)
    lefts = [mats[0] @ u, *mats[1:]]
    lefts[1 % (n + 1)] = u.conj().T @ lefts[1 % (n + 1)]
    nodes = [mu, *[spec.eigenvalues] * n]
    gs = [m * (np.abs(w) ** x)[None, :] for m, w, x in zip(lefts, nodes, alphas)]
    ws = [t * w * w for w in nodes]

    rng = make_rng(seed)
    s = simplex_uniform(rng, n, samples)
    traces = _cyclic_heat_traces(gs, ws, s)
    estimate, stderr = _mc_mean(traces, 1.0 / math.factorial(n))

    norms = math.prod(operator_norm(mat) for mat in mats)
    if k <= n:
        rhs = (
            norms
            * heat_trace(spec, (1.0 - eps) * t)
            / (math.factorial(n - k) * (eps * t / math.pi**2) ** (k / 2.0))
        )
    else:
        rhs = math.inf
    return BoundReport(lhs=abs(estimate), rhs=float(rhs), mc_stderr=stderr)


def getzler_szenes_check(spec: Spectrum, v, t: float, eps: float) -> BoundReport:
    """Heat-trace comparison for the perturbed square.

    tr e^{-(1-eps/2) t (D+V)^2} <= e^{(1+2/eps) t ||V||^2}
    tr e^{-(1-eps) t D^2}; deterministic, positive margin expected for
    Hermitian V.
    """
    _require_finite_positive("heat time", t)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    mat = require_hermitian(v, spec.dim)
    lhs = _trace_of(lambda mu: np.exp(-(1.0 - eps / 2.0) * t * mu * mu),
                    _diag_plus(spec.eigenvalues, (1.0, mat)))
    vnorm = operator_norm(mat)
    rhs = math.exp((1.0 + 2.0 / eps) * t * vnorm * vnorm) * heat_trace(spec, (1.0 - eps) * t)
    return BoundReport(lhs=lhs, rhs=rhs)
