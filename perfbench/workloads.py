"""The benchmark's workloads: seeded inputs, one library call per item, and
the correctness checks each item must pass.

A workload turns a seed into an endless, deterministic sequence of items.
Its constructor does the per-seed set-up (functions, fixed spectra);
``item(i)`` draws item i's inputs from its own substream of the seed, so
item i is the same whatever ran before it; ``run(inputs)`` makes the
library calls of one item and returns its checks as (error, tolerance)
pairs.  The library never sees the seed, only the generated inputs.
"""

from __future__ import annotations

import math

import numpy as np

from specact import (
    Spectrum,
    dirac_circle_spectrum,
    expand,
    gateaux_fd,
    make_gaussian_mixture,
    random_hermitian,
    random_spectrum,
    tadpole_check,
    taylor_term,
    taylor_term_bracket_form,
    taylor_term_contour,
    taylor_term_theorem_form,
)

TWO_ATOMS = [(1.0, 1.0), (0.5, 0.6)]
ONE_ATOM = [(1.0, 1.0)]

ANALYTIC_TOL = 1e-8
FD_TOL = 1e-4
REMAINDER_TOL = 1e-6


# Uniform spectra are drawn stratified.  An item's time is set mostly by how
# many eigenvalue pairs lie within 0.5 (the library's series span) of each
# other, correlation 0.8 over 40 uniform N = 8 spectra, so the seed-to-seed
# spread of a run's timings is mostly which counts it happened to draw.
# Cutting the count's distribution into equal-probability strata and
# drawing each item from a fixed stratum keeps the uniform distribution
# over a cycle of strata while every seed times the same mix.
CLOSE_SPAN = 0.5
# uniform spectra drawn once to estimate the close-pair count's distribution
STRATA_SAMPLES = 4000


def close_pairs(lam: np.ndarray) -> np.ndarray:
    """Eigenvalue pairs within CLOSE_SPAN, per row of a (..., N) array."""
    gaps = np.abs(lam[..., :, None] - lam[..., None, :])
    return np.triu(gaps <= CLOSE_SPAN, 1).sum(axis=(-2, -1))


class StratifiedSpectra:
    """Uniform spectra on [-2, 2] in N points, drawn from one of ``strata``
    equal-probability strata of their close-pair count.

    The count's distribution is estimated once from a fixed generator; a
    draw's position in it is randomised within ties, so the strata split
    the uniform distribution exactly into equal parts.
    """

    def __init__(self, dim: int, strata: int):
        self.dim = dim
        self.strata = strata
        rng = np.random.default_rng(0)
        counts = close_pairs(rng.uniform(-2.0, 2.0, (STRATA_SAMPLES, dim)))
        self.pmf = np.bincount(counts, minlength=dim * (dim - 1) // 2 + 1) / STRATA_SAMPLES
        self.below = np.cumsum(self.pmf) - self.pmf

    def draw(self, rng: np.random.Generator, stratum: int) -> Spectrum:
        while True:
            spec = random_spectrum(self.dim, 2.0, rng)
            c = close_pairs(spec.eigenvalues)
            u = self.below[c] + rng.uniform() * self.pmf[c]
            if int(u * self.strata) == stratum:
                return spec


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def fd_step(n: int) -> float:
    """The acceptance suite's fd step: 0.08 at order 5, else 0.05."""
    return 0.08 if n == 5 else 0.05


def fd_floor(n: int, h: float, dim: int) -> float:
    """The acceptance suite's noise floor of the order-n fd oracle."""
    eps = float(np.finfo(float).eps)
    return 10.0 * 2.0**n * eps * dim / ((h / 2.0) ** n * math.factorial(n))


def fd_check(fd: float, ref: float, n: int, h: float, dim: int) -> tuple[float, float]:
    """fd against a reference term, absolute below 1e4 times the floor."""
    denom = max(abs(ref), 1e4 * fd_floor(n, h, dim))
    return abs(fd - ref) / denom, FD_TOL


def agreement(x: float, y: float) -> tuple[float, float]:
    """Relative difference of two analytic routes."""
    return abs(x - y) / max(abs(x), abs(y), 1e-12), ANALYTIC_TOL


def remainder_check(rep) -> tuple[float, float]:
    """Remainder after order n_max at most 1e-6 of the exact action."""
    return rep.remainders[rep.n_max] / abs(rep.exact), REMAINDER_TOL


def repeated_half_integer_spectrum(dim: int) -> Spectrum:
    """Each of +-(k + 1/2) twice: the eigenvalues themselves collide."""
    vals: list[float] = []
    k = 0
    while len(vals) < dim:
        vals.extend([k + 0.5, k + 0.5])
        if len(vals) < dim:
            vals.extend([-(k + 0.5), -(k + 0.5)])
        k += 1
    return Spectrum.from_values(vals[:dim])


class Agree:
    """Route-agreement sweep in the shape of acceptance criteria 4 and 6.

    A cycle holds one instance per spectrum family and N = 2..6 (fresh A
    with norm 0.5, and a fresh spectrum for the random family); each
    instance is followed by its orders 1..5, and one item is one
    (instance, order) cell run through all five routes.  Random spectra of
    cycle c come from stratum c % RANDOM_STRATA, so a round is
    RANDOM_STRATA cycles: every round times the same mix of strata.
    """

    name = "agree"
    ORDERS = 5
    DIMS = (6, 2, 5, 3, 4)
    FAMILIES = ("random", "dirac", "repeated")
    INSTANCES = len(DIMS) * len(FAMILIES)
    CYCLE = INSTANCES * ORDERS
    RANDOM_STRATA = 3
    ROUND = RANDOM_STRATA * CYCLE
    TRACE_ITEMS = CYCLE

    def __init__(self, seed: int):
        self.seed = seed
        self.f = make_gaussian_mixture(TWO_ATOMS)
        self.random = {dim: StratifiedSpectra(dim, self.RANDOM_STRATA) for dim in self.DIMS}
        self._instance: tuple[int, Spectrum, np.ndarray] | None = None

    def _spectrum(self, k: int, rng: np.random.Generator) -> Spectrum:
        family = self.FAMILIES[k % len(self.FAMILIES)]
        dim = self.DIMS[(k // len(self.FAMILIES)) % len(self.DIMS)]
        if family == "random":
            return self.random[dim].draw(rng, k // self.INSTANCES % self.RANDOM_STRATA)
        if family == "dirac":
            return dirac_circle_spectrum(dim)
        return repeated_half_integer_spectrum(dim)

    def item(self, i: int):
        k, n = divmod(i, self.ORDERS)
        if self._instance is None or self._instance[0] != k:
            rng = _rng(self.seed, k)
            spec = self._spectrum(k, rng)
            self._instance = (k, spec, random_hermitian(spec.dim, rng, norm=0.5))
        _, spec, a = self._instance
        return spec, a, n + 1

    def run(self, inputs) -> list[tuple[float, float]]:
        spec, a, n = inputs
        f = self.f
        dd = taylor_term(n, spec, a, f)
        vals = [
            dd,
            taylor_term_theorem_form(n, spec, a, f) / n,
            taylor_term_bracket_form(n, spec, a, f.measure),
            taylor_term_contour(n, spec, a, f),
        ]
        checks = [
            agreement(vals[i], vals[j])
            for i in range(len(vals))
            for j in range(i + 1, len(vals))
        ]
        h = fd_step(n)
        checks.append(fd_check(gateaux_fd(n, spec, a, f, h=h), dd, n, h, spec.dim))
        return checks


class ExpandDense:
    """expand(route="dd", n_max=5) at N = 8: spectrum and A fresh per item;
    item i's spectrum comes from stratum ORDER[i % 16] of 16.

    Each order is checked against the contour route.  The fitted scaling
    exponent is not a valid check here: near-degenerate eigenvalue pairs
    (gaps below |A|) put the scales 1, 1/2, 1/4 before the asymptotic
    regime, e.g. S_7 = -1.26 S_6 gives an exponent of 5.33 while every
    route agrees on every order, and the asymptotic regime starts where
    the remainder reaches rounding level.
    """

    name = "expand-dense"
    DIM = 8
    N_MAX = 5
    ROUND = 4
    TRACE_ITEMS = 4

    # bit-reversed order: each round of 4 items spans the strata evenly
    ORDER = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)

    def __init__(self, seed: int):
        self.seed = seed
        self.f = make_gaussian_mixture(ONE_ATOM)
        self.spectra = StratifiedSpectra(self.DIM, len(self.ORDER))

    def item(self, i: int):
        rng = _rng(self.seed, i)
        spec = self.spectra.draw(rng, self.ORDER[i % len(self.ORDER)])
        return spec, random_hermitian(self.DIM, rng, norm=0.1)

    def run(self, inputs) -> list[tuple[float, float]]:
        spec, a = inputs
        rep = expand(spec, a, self.f, n_max=self.N_MAX, route="dd")
        checks = [remainder_check(rep)]
        for n in range(1, self.N_MAX + 1):
            contour = taylor_term_contour(n, spec, a, self.f)
            checks.append(agreement(rep.contributions[n], contour))
        return checks


class Wide:
    """expand(route="dd", n_max=3) on the N = 64 Dirac circle, checked
    order by order against the fd oracle.

    The fitted scaling exponent is not checked: on about 0.4% of items
    the terms past n_max nearly cancel at the scales 1 and 1/2 (seed 773,
    item 8: remainders 6.2e-12, 2.4e-11, 2.2e-12 at 1, 1/2, 1/4, exponent
    0.73), while the remainder over scale^4 settles at S_4 = 7e-10 as the
    scale shrinks and the exponent fitted over 1/4 .. 1/8 is 3.8.
    """

    name = "wide"
    DIM = 64
    N_MAX = 3
    ROUND = 1
    TRACE_ITEMS = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.f = make_gaussian_mixture(TWO_ATOMS)
        self.spec = dirac_circle_spectrum(self.DIM)

    def item(self, i: int):
        return random_hermitian(self.DIM, _rng(self.seed, i), norm=0.1)

    def run(self, a) -> list[tuple[float, float]]:
        rep = expand(self.spec, a, self.f, n_max=self.N_MAX, route="dd")
        checks = [remainder_check(rep)]
        for n in range(1, self.N_MAX + 1):
            h = fd_step(n)
            fd = gateaux_fd(n, self.spec, a, self.f, h=h)
            checks.append(fd_check(fd, rep.contributions[n], n, h, self.DIM))
        return checks


class Oracle:
    """expand(route="fd", n_max=2) on the N = 512 Dirac circle; S_1 is
    checked against the tadpole sum.

    The fitted scaling exponent is not checked: the remainder is near the
    fd oracle's own error, so the fit can fall short on correct terms
    (seed 19, item 0: exponent 2.14 with a relative remainder of 3.7e-11,
    and fd S_1, S_2 within 1.8e-12 and 3.4e-11 of the dd route).
    """

    name = "oracle"
    DIM = 512
    N_MAX = 2
    FD_H = 0.05
    ROUND = 1
    TRACE_ITEMS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.f = make_gaussian_mixture(TWO_ATOMS)
        self.spec = dirac_circle_spectrum(self.DIM)

    def item(self, i: int):
        return random_hermitian(self.DIM, _rng(self.seed, i), norm=0.1)

    def run(self, a) -> list[tuple[float, float]]:
        rep = expand(self.spec, a, self.f, n_max=self.N_MAX, route="fd", fd_step=self.FD_H)
        tadpole = tadpole_check(self.spec, a, self.f)
        return [
            remainder_check(rep),
            fd_check(rep.contributions[1], tadpole, 1, self.FD_H, self.DIM),
        ]


WORKLOADS = {w.name: w for w in (Agree, ExpandDense, Wide, Oracle)}
