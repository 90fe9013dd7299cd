"""Seeded random generators, simplex sampling, and the Monte Carlo mean
and its sample-count rule.

Every stochastic routine in the package draws from a Philox generator
keyed by an explicit 64-bit seed, so results are reproducible across
platforms and processes.  ``stream`` separates independent substreams
derived from the same configured seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "simplex_uniform"]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the given seed and substream index."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def simplex_uniform(rng: np.random.Generator, order: int, size: int) -> np.ndarray:
    """Uniform samples from the standard simplex of the given order.

    Returns an array of shape (size, order+1) whose rows are barycentric
    coordinates (s_0, ..., s_order), each nonnegative and summing to 1.
    Rows are the spacings of sorted uniforms, which is the standard
    uniform construction.
    """
    if order < 0:
        raise ValueError(f"simplex order must be >= 0, got {order}")
    if size < 1:
        raise ValueError(f"need at least one sample, got {size}")
    if order == 0:
        return np.ones((size, 1))
    u = rng.random((size, order))
    u.sort(axis=1)
    bounds = np.empty((size, order + 2))
    bounds[:, 0] = 0.0
    bounds[:, 1:-1] = u
    bounds[:, -1] = 1.0
    return np.diff(bounds, axis=1)


def _require_samples(samples: int) -> None:
    """The one sample-count rule of every Monte Carlo estimator: _mc_mean's
    ddof=1 variance needs at least two samples."""
    if samples < 2:
        raise ValueError(f"need at least two samples, got {samples}")


def _mc_mean(samples: np.ndarray, scale: float) -> tuple[complex, float]:
    """Sample mean of real or complex ``samples`` times ``scale``, and its
    standard error with the real and imaginary sample variances summed;
    needs the two samples _require_samples asks for."""
    estimate = complex(samples.mean() * scale)
    spread = np.sqrt(samples.real.var(ddof=1) + samples.imag.var(ddof=1))
    return estimate, float(spread * scale / np.sqrt(len(samples)))
