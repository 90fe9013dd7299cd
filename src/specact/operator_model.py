"""Finite-dimensional operator model: spectra, Hermitian perturbations,
heat traces, and the simplex heat-kernel brackets.

The base operator D is diagonal with real eigenvalues lam_i.  The
order-n bracket of matrices A_0, ..., A_n at time t > 0 is

    <A_0,...,A_n>_n
        = t^n tr int_{Delta_n} A_0 e^{-s_0 t D^2} ... A_n e^{-s_n t D^2} d^n s
        = (-1)^n sum (A_0)_{i_0 i_1} ... (A_n)_{i_n i_0}
                 E_t[lam_{i_0}^2, ..., lam_{i_n}^2],

where E_t(u) = e^{-t u} and the bracket on the right is a divided
difference (confluent when squared eigenvalues collide, e.g. for +/-
pairs).  bracket_dd evaluates the closed form; bracket_mc integrates the
simplex form by Monte Carlo as an independent oracle.

bracket_identity_check verifies the four algebraic identities the
brackets satisfy: cyclic invariance; the unit-insertion sum
t <A_0,...,A_n>_n = sum_i <1, A_i, ..., A_{i-1}>_{n+1}; the vanishing sum
of [D, .] insertions; and the reduction of a [D^2, A_i] insertion to a
difference of order-(n-1) brackets with neighbours merged (cyclically at
the wrap-around slots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from string import ascii_lowercase
from typing import Sequence

import numpy as np

from .divdiff import MultisetDivDiff
from .errors import BudgetExceededError
from .functions import exp_decay
from .rng import _mc_mean, make_rng, simplex_uniform

__all__ = [
    "DEFAULT_TUPLE_BUDGET",
    "Spectrum",
    "BracketIdentityReport",
    "require_hermitian",
    "heat_trace",
    "operator_norm",
    "commutator_with_d",
    "anticommutator_with_d",
    "commutator_with_d2",
    "bracket_dd",
    "bracket_mc",
    "bracket_identity_check",
    "duhamel_residual",
    "linear_spectrum",
    "dirac_circle_spectrum",
    "random_spectrum",
    "random_hermitian",
    "band_hermitian",
    "one_form",
]

DEFAULT_TUPLE_BUDGET = 10_000_000


def _check_budget(dim: int, exponent: int, budget: int) -> None:
    if dim**exponent > budget:
        raise BudgetExceededError(
            f"tuple sum needs {dim}^{exponent} = {dim**exponent} terms, over budget {budget}"
        )


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the diagonal base operator, ascending."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d array")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def squares(self) -> np.ndarray:
        return self.eigenvalues**2


def _require_finite_positive(name: str, value: float, power: int = 1) -> None:
    """The one check on positive scalar inputs; an order-n fd stencil divides
    by a power of its step, so it checks that power too."""
    with np.errstate(over="ignore", under="ignore"):
        if not (0.0 < value < math.inf and 0.0 < np.float64(value) ** power < math.inf):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


# max |A - A*| allowed, relative to max(1, max |A_ij|)
_HERMITIAN_TOL = 1e-12


def _square_complex(a, dim: int | None = None) -> np.ndarray:
    """Validated finite square complex128 matrix, of size ``dim`` if given."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match spectrum's {dim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def require_hermitian(a, dim: int | None = None) -> np.ndarray:
    """Validated Hermitian complex128 matrix, of size ``dim`` if given."""
    m = _square_complex(a, dim)
    scale = max(1.0, float(np.max(np.abs(m))))
    diff = m.conj().T  # the one complex temporary
    diff -= m
    dev = float(np.max(np.abs(diff)))
    if dev > _HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max |A - A*| = {dev:g}")
    return m


def _diag_plus(lam: np.ndarray, *terms: tuple[float, np.ndarray]) -> np.ndarray:
    """diag(lam) + sum_k c_k M_k for terms (c_k, M_k) in one new array, rounded as
    np.diag(lam) + c_0 M_0 + ... is; the indexed diagonal writes through for any layout."""
    (c0, m0), *rest = terms
    h = c0 * m0
    h[np.diag_indices_from(h)] += lam
    for c, m in rest:
        h += c * m
    return h


def _trace_of(f, h) -> float:
    """tr f(H), summed over the eigenvalues of a Hermitian H the caller built."""
    return float(np.sum(np.asarray(f(np.linalg.eigvalsh(h)), dtype=float)))


def heat_trace(spec: Spectrum, t: float) -> float:
    """tr e^{-t D^2} = sum_i e^{-t lam_i^2}, t > 0."""
    _require_finite_positive("heat time", t)
    return float(np.sum(np.exp(-t * spec.squares)))


def _heat_semigroup(u: np.ndarray, mu: np.ndarray, tau: float) -> np.ndarray:
    """U diag(e^{-tau mu^2}) U*, i.e. e^{-tau H^2} for H = U diag(mu) U*."""
    return (u * np.exp(-tau * mu * mu)[None, :]) @ u.conj().T


def operator_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def commutator_with_d(spec: Spectrum, a) -> np.ndarray:
    """[D, A]_{mn} = (lam_m - lam_n) A_{mn}."""
    m = _square_complex(a, spec.dim)
    lam = spec.eigenvalues
    return (lam[:, None] - lam[None, :]) * m


def anticommutator_with_d(spec: Spectrum, a) -> np.ndarray:
    """{D, A}_{mn} = (lam_m + lam_n) A_{mn}."""
    m = _square_complex(a, spec.dim)
    lam = spec.eigenvalues
    return (lam[:, None] + lam[None, :]) * m


def commutator_with_d2(spec: Spectrum, a) -> np.ndarray:
    """[D^2, A]_{mn} = (lam_m^2 - lam_n^2) A_{mn}."""
    m = _square_complex(a, spec.dim)
    sq = spec.squares
    return (sq[:, None] - sq[None, :]) * m


def _cyclic_contract(mats: Sequence[np.ndarray], weight: np.ndarray) -> complex:
    """sum over tuples of (M_0)_{i_0 i_1} ... (M_{k-1})_{i_{k-1} i_0} W_{i_0...i_{k-1}}.

    A walk along the cycle from i_0: the first step multiplies W by M_0
    and M_1 and sums i_1 out, each later step multiplies by the next
    factor and sums its first index out, and the last closes the cycle
    with M_{k-1}.  Each step is one plain einsum, so no contraction order
    is searched and no array larger than N^(k-1) is made."""
    k = len(mats)
    if k + 1 > len(ascii_lowercase):
        raise ValueError("too many factors for the contraction")
    if k < 3:
        return complex(np.einsum(("aa,a->", "ab,ba,ab->")[k - 1], *mats, weight))
    rest = ascii_lowercase[3:k]
    walk = np.einsum(f"abc{rest},ab,bc->ac{rest}", weight, mats[0], mats[1])
    for m in mats[2:-1]:
        rest = ascii_lowercase[3 : walk.ndim]
        walk = np.einsum(f"abc{rest},bc->ac{rest}", walk, m)
    return complex(np.einsum("ab,ba->", walk, mats[-1]))


def _bracket(mats: Sequence[np.ndarray], table: MultisetDivDiff) -> complex:
    """<M_0,...,M_n>_n from a table of e^{-t u} on the squared spectrum.

    The (-t)^n of n derivatives of e^{-t u} cancels the t^n of the
    inflated simplex, leaving the (-1)^n; +/- eigenvalue pairs share
    confluent entries."""
    n = len(mats) - 1
    return ((-1.0) ** n) * _cyclic_contract(mats, table.tensor(n + 1))


def _unit_bracket(mats: Sequence[np.ndarray], weight: np.ndarray) -> complex:
    """(-1)^k <1, M_1, ..., M_k>_k for weight = the doubled tensor of k slots.

    The unit forces i_0 = i_1, the node the doubled tensor repeats in its
    last slot, so M_1 goes last."""
    return _cyclic_contract([*mats[1:], mats[0]], weight)


def _bracket_setup(ops: Sequence, spec: Spectrum, t: float) -> tuple[list, MultisetDivDiff]:
    """The validated operators A_0..A_n and the e^{-t u} table of their
    brackets, built once N^(n+1) tuples are within DEFAULT_TUPLE_BUDGET."""
    _require_finite_positive("heat time", t)
    mats = [_square_complex(m, spec.dim) for m in ops]
    if not mats:
        raise ValueError("need at least one operator")
    _check_budget(spec.dim, len(mats), DEFAULT_TUPLE_BUDGET)
    return mats, MultisetDivDiff(exp_decay(t), spec.squares)


def bracket_dd(ops: Sequence, spec: Spectrum, t: float) -> complex:
    """Closed-form bracket via divided differences of e^{-t u}; real up to
    rounding for self-adjoint arguments.

    <A_0,...,A_n>_n = (-1)^n sum_{i_0..i_n} (A_0)_{i_0 i_1} ...
    (A_n)_{i_n i_0} E_t[lam_{i_0}^2,...,lam_{i_n}^2].  Degenerate squared
    eigenvalues are handled by the confluent table.
    """
    return _bracket(*_bracket_setup(ops, spec, t))


# entries (1 MiB of complex128) per (rows, N, N) batch in _cyclic_heat_traces,
# at least one row
_HEAT_TRACE_CHUNK = 2**16


def _cyclic_heat_traces(
    gs: Sequence[np.ndarray], ws: Sequence[np.ndarray], s_batch: np.ndarray
) -> np.ndarray:
    """tr( G_0 diag(e^{-s_0 w_0}) G_1 diag(e^{-s_1 w_1}) ... ) per sample row."""
    k = len(gs)
    out = np.empty(s_batch.shape[0], dtype=complex)
    rows = max(1, _HEAT_TRACE_CHUNK // gs[0].shape[0] ** 2)
    for lo in range(0, s_batch.shape[0], rows):
        s = s_batch[lo : lo + rows]
        prod = gs[0][None, :, :] * np.exp(-np.outer(s[:, 0], ws[0]))[:, None, :]
        for j in range(1, k):
            factor = gs[j][None, :, :] * np.exp(-np.outer(s[:, j], ws[j]))[:, None, :]
            prod = prod @ factor
        out[lo : lo + len(s)] = np.einsum("pii->p", prod)
    return out


def bracket_mc(
    ops: Sequence,
    spec: Spectrum,
    t: float,
    samples: int,
    seed: int,
) -> tuple[complex, float]:
    """Monte Carlo bracket estimate (value, stderr) over the simplex.

    Averages t^n tr(A_0 e^{-s_0 t D^2} ... A_n e^{-s_n t D^2}) over uniform
    simplex samples and divides by n! (the uniform density).  Order 0 needs
    no integration and is returned exactly with zero stderr.
    """
    _require_finite_positive("heat time", t)
    mats = [_square_complex(m, spec.dim) for m in ops]
    n = len(mats) - 1
    if n == 0:
        exact = complex(np.sum(np.diagonal(mats[0]) * np.exp(-t * spec.squares)))
        return exact, 0.0
    if samples < 2:
        raise ValueError(f"need at least two samples, got {samples}")
    rng = make_rng(seed)
    s = simplex_uniform(rng, n, samples)
    w = [t * spec.squares] * (n + 1)
    traces = _cyclic_heat_traces(mats, w, s)
    return _mc_mean(traces, (t**n) / math.factorial(n))


# largest relative residual bracket_identity_check passes
BRACKET_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class BracketIdentityReport:
    """Largest relative residuals of the four bracket identities."""

    cyclic: float
    unit_insertion: float
    d_commutator_sum: float
    d2_reduction: float
    tol: float = BRACKET_IDENTITY_TOL

    @property
    def passed(self) -> bool:
        worst = max(self.cyclic, self.unit_insertion, self.d_commutator_sum, self.d2_reduction)
        return worst <= self.tol


def _rel(delta: float, scale: float) -> float:
    return delta / max(scale, 1e-300)


def bracket_identity_check(ops: Sequence, spec: Spectrum, t: float) -> BracketIdentityReport:
    """Verify the four bracket identities on the given operator list.

    Residuals are relative to the magnitude of the quantities involved
    and pass at BRACKET_IDENTITY_TOL.  The [D^2, .] reduction needs order
    >= 1; for a single operator that residual is reported as 0.  Every
    bracket reads one table of e^{-t u}, the unit insertions from its
    doubled tensor, so no sum has more than N^(n+1) tuples.
    """
    mats, table = _bracket_setup(ops, spec, t)
    n = len(mats) - 1
    base = _bracket(mats, table)
    scale = max(abs(base), 1e-15)

    cyc = 0.0
    for r in range(1, n + 1):
        rotated = mats[r:] + mats[:r]
        cyc = max(cyc, _rel(abs(_bracket(rotated, table) - base), scale))

    # sum_i <1, A_i, ..., A_{i-1}>_{n+1}, each (-1)^(n+1) times _unit_bracket
    weight = table.doubled_tensor(n + 1)
    inserted = (-1.0) ** (n + 1) * sum(
        _unit_bracket(mats[r:] + mats[:r], weight) for r in range(n + 1))
    ins = _rel(abs(t * base - inserted), max(abs(t * base), abs(inserted), 1e-15))

    def replaced(i: int, op) -> complex:
        """The bracket with A_i replaced by op(spec, A_i)."""
        return _bracket(mats[:i] + [op(spec, mats[i])] + mats[i + 1 :], table)

    terms = [replaced(i, commutator_with_d) for i in range(n + 1)]
    comm_scale = max(max((abs(v) for v in terms), default=0.0), scale)
    comm = _rel(abs(sum(terms)), comm_scale)

    red = 0.0
    if n >= 1:
        # merged[j]: the bracket with slots j and j + 1 (cyclically) multiplied,
        # the right neighbour merge of slot j and the left one of slot j + 1
        merged = [_bracket(mats[:j] + [mats[j] @ mats[j + 1]] + mats[j + 2 :], table)
                  for j in range(n)]
        merged.append(_bracket([mats[n] @ mats[0]] + mats[1:n], table))
        for i in range(n + 1):
            lhs = replaced(i, commutator_with_d2)
            rhs = merged[i - 1] - merged[i]
            red = max(red, _rel(abs(lhs - rhs), max(abs(lhs), abs(rhs), scale)))

    return BracketIdentityReport(
        cyclic=cyc, unit_insertion=ins, d_commutator_sum=comm, d2_reduction=red
    )


def duhamel_residual(spec: Spectrum, a, t: float, quad_points: int = 64) -> float:
    """Max-entry residual of the first-order heat-semigroup expansion.

    R = || e^{-t D_A^2} - e^{-t D^2}
         + t int_0^1 e^{-s t D_A^2} P(A) e^{-(1-s) t D^2} ds ||_max

    with D_A = D + A and P(A) = DA + AD + A^2, the s-integral evaluated by
    Gauss-Legendre quadrature mapped onto [0, 1].  Converges to zero as
    quad_points grows; the integrand is entire so convergence is fast.
    """
    _require_finite_positive("heat time", t)
    if quad_points < 1:
        raise ValueError(f"need at least one quadrature point, got {quad_points}")
    mat = require_hermitian(a, spec.dim)
    lam = spec.eigenvalues
    pa = anticommutator_with_d(spec, mat) + mat @ mat
    mu, u = np.linalg.eigh(_diag_plus(lam, (1.0, mat)))

    x, w = np.polynomial.legendre.leggauss(quad_points)
    s_nodes = 0.5 * (x + 1.0)
    s_weights = 0.5 * w
    # the integral is U (K o U* P(A)), K_ij = sum_s w_s e^{-s t mu_i^2 - (1-s) t lam_j^2}
    left = s_weights[:, None] * np.exp(-t * np.outer(s_nodes, mu * mu))
    right = np.exp(-t * np.outer(1.0 - s_nodes, lam * lam))
    integral = u @ ((left.T @ right) * (u.conj().T @ pa))
    resid = _heat_semigroup(u, mu, t)
    resid[np.diag_indices_from(resid)] -= np.exp(-t * lam * lam)
    resid += t * integral
    return float(np.max(np.abs(resid)))


def linear_spectrum(dim: int) -> Spectrum:
    """lam_k = k - (dim-1)/2, centered integers or half-integers."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return Spectrum(np.arange(dim, dtype=float) - (dim - 1) / 2.0)


def dirac_circle_spectrum(dim: int) -> Spectrum:
    """The dim values of +/-(k + 1/2) closest to zero, ascending.

    Even dim gives symmetric pairs (with degenerate squares); odd dim
    carries one extra positive value.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    vals: list[float] = []
    k = 0
    while len(vals) < dim:
        vals.append(k + 0.5)
        if len(vals) < dim:
            vals.append(-(k + 0.5))
        k += 1
    return Spectrum.from_values(vals)


def random_spectrum(dim: int, lam_max: float, rng: np.random.Generator) -> Spectrum:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    _require_finite_positive("lam_max", lam_max)
    return Spectrum.from_values(rng.uniform(-lam_max, lam_max, size=dim))


def _rescaled(h: np.ndarray, norm: float | None, degenerate: str) -> np.ndarray:
    """h rescaled in place to operator norm ``norm``; h as it is when norm is None."""
    if norm is None:
        return h
    _require_finite_positive("norm target", norm)
    current = operator_norm(h)
    if current == 0.0:
        raise ValueError(f"{degenerate}, cannot rescale")
    return np.multiply(h, norm / current, out=h)


def random_hermitian(dim: int, rng: np.random.Generator, norm: float | None = None) -> np.ndarray:
    """Dense Hermitian matrix 0.5 (X + X*) with X = G_1 + i G_2 for two standard
    normal draws, built in place and optionally rescaled to a target operator norm."""
    h, g = np.empty((dim, dim), dtype=complex), np.empty((dim, dim))
    for part, combine in ((h.real, np.add), (h.imag, np.subtract)):
        combine(rng.standard_normal(out=g), g.T, out=part)
    h *= 0.5
    return _rescaled(h, norm, "degenerate random draw")


def band_hermitian(
    dim: int,
    bandwidth: int,
    rng: np.random.Generator,
    norm: float | None = None,
) -> np.ndarray:
    """Hermitian matrix supported on |i - j| <= bandwidth."""
    if bandwidth < 0:
        raise ValueError(f"bandwidth must be >= 0, got {bandwidth}")
    h = random_hermitian(dim, rng)
    h[np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) > bandwidth] = 0.0
    return _rescaled(h, norm, "band matrix vanished")


def one_form(spec: Spectrum, terms: Sequence[tuple]) -> np.ndarray:
    """sum_j a_j [D, b_j] for explicit coefficient/argument matrices."""
    if not terms:
        raise ValueError("need at least one (a, b) term")
    total = np.zeros((spec.dim, spec.dim), dtype=complex)
    for a, b in terms:
        total += _square_complex(a, spec.dim) @ commutator_with_d(spec, b)
    return total
