import math

import numpy as np
import pytest

from specact import (
    DiscreteMeasure,
    SmoothFunction,
    Spectrum,
    check_summability,
    exp_decay,
    make_gaussian_mixture,
    polynomial_function,
    square_function,
)
from specact.errors import DerivativeOrderError
from specact.rng import make_rng


def central_diff(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


class TestDiscreteMeasure:
    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([(0.0, 1.0)])
        with pytest.raises(ValueError):
            DiscreteMeasure([(-1.0, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([])

    def test_iterates_atoms(self):
        mu = DiscreteMeasure([(1.0, 2.0), (0.5, -0.25)])
        assert list(mu) == [(1.0, 2.0), (0.5, -0.25)]
        assert np.allclose(mu.ts, [1.0, 0.5])
        assert np.allclose(mu.ws, [2.0, -0.25])


class TestGaussianMixture:
    def test_values_at_zero(self):
        f = make_gaussian_mixture([(1.0, 1.0)])
        assert f(0.0) == pytest.approx(1.0, abs=1e-15)
        assert f.deriv(1, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert f.deriv(2, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_square_companion_agrees(self):
        f = make_gaussian_mixture([(1.0, 1.0)])
        assert f.square_companion(4.0) == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert f(2.0) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_mixture_matches_sum_of_atoms(self):
        atoms = [(0.5, 2.0), (2.0, -0.25)]
        f = make_gaussian_mixture(atoms)
        xs = np.linspace(-3, 3, 41)
        direct = sum(w * np.exp(-t * xs**2) for t, w in atoms)
        assert np.max(np.abs(f(xs) - direct)) < 1e-12

    def test_third_derivative_vs_finite_difference(self):
        f = make_gaussian_mixture([(0.5, 2.0), (2.0, -0.25)])
        fd = central_diff(lambda x: f.deriv(2, x), 0.7)
        assert f.deriv(3, 0.7) == pytest.approx(fd, abs=1e-6)

    def test_derivatives_match_finite_differences_to_order_six(self):
        rng = make_rng(11)
        for _ in range(20):
            atoms = [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-1, 1)))
                     for _ in range(3)]
            f = make_gaussian_mixture(atoms)
            x = float(rng.uniform(-3, 3))
            for k in range(1, 7):
                fd = central_diff(lambda u, k=k: f.deriv(k - 1, u), x)
                scale = max(abs(fd), 1.0)
                assert abs(f.deriv(k, x) - fd) / scale < 1e-6

    def test_companion_consistency_on_random_points(self):
        rng = make_rng(12)
        f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
        xs = rng.uniform(-3, 3, size=1000)
        assert np.max(np.abs(f(xs) - f.square_companion(xs**2))) < 1e-12

    def test_rejects_bad_atom(self):
        with pytest.raises(ValueError):
            make_gaussian_mixture([(1.0, 1.0), (-0.5, 1.0)])

    def test_complex_evaluation_is_analytic_continuation(self):
        f = make_gaussian_mixture([(1.0, 1.0)])
        z = 0.3 + 0.4j
        assert f.eval_complex(z) == pytest.approx(np.exp(-z**2), rel=1e-14)
        assert f.deriv_complex(1, z) == pytest.approx(-2 * z * np.exp(-z**2), rel=1e-13)

    def test_measure_round_trip(self):
        f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
        assert f.measure is not None
        assert list(f.measure) == [(1.0, 1.0), (0.5, 0.6)]


class TestDerivativeShift:
    def test_derivative_shifts_orders(self, mix):
        fp = mix.derivative()
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(fp(xs), mix.deriv(1, xs), rtol=1e-14)
        assert np.allclose(fp.deriv(2, xs), mix.deriv(3, xs), rtol=1e-14)

    def test_deriv_zero_is_eval(self, mix):
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(mix.deriv(0, xs), mix(xs), rtol=0, atol=0)


class TestDerivLadder:
    """The ladder must equal the per-order derivatives bit for bit."""

    @staticmethod
    def assert_exact(f, k_max, xs):
        for x in xs:
            ladder = f.deriv_ladder(k_max, x)
            assert len(ladder) == k_max + 1
            for j in range(k_max + 1):
                assert ladder[j] == float(f.deriv(j, x)), (x, j)

    def test_mixture_and_its_derivatives(self):
        rng = make_rng(7)
        xs = rng.uniform(-3.0, 3.0, size=25)
        f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6), (3.7, -0.2)])
        self.assert_exact(f, 40, xs)
        self.assert_exact(f.derivative(), 40, xs)
        self.assert_exact(f.derivative().derivative(), 40, xs)

    def test_exp_decay(self):
        xs = make_rng(8).uniform(-1.0, 9.0, size=25)
        self.assert_exact(exp_decay(0.7), 30, xs)
        self.assert_exact(exp_decay(40.0), 30, xs)

    def test_polynomial_fallback(self):
        p = polynomial_function([1.0, -0.5, 0.25, 2.0, -1.5])
        assert p.ladder_fn is None
        self.assert_exact(p, 7, [-1.3, 0.0, 0.4, 2.2])

    def test_order_checks(self, mix):
        assert mix.deriv_ladder(0, 0.3) == [mix(0.3)]
        with pytest.raises(ValueError):
            mix.deriv_ladder(-1, 0.3)
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x), max_order=2)
        with pytest.raises(DerivativeOrderError):
            f.deriv_ladder(3, 0.0)


class TestCallerTable:
    def test_max_order_enforced(self):
        f = SmoothFunction(
            eval_fn=np.exp,
            deriv_fn=lambda k, x: np.exp(x),
            max_order=2,
        )
        f.require_order(2)
        with pytest.raises(DerivativeOrderError):
            f.require_order(3)

    def test_derivative_of_exhausted_table(self):
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x), max_order=0)
        with pytest.raises(DerivativeOrderError):
            f.derivative()


class TestBuiltins:
    def test_exp_decay(self):
        g = exp_decay(0.7)
        assert g(2.0) == pytest.approx(math.exp(-1.4), rel=1e-15)
        assert g.deriv(3, 2.0) == pytest.approx((-0.7) ** 3 * math.exp(-1.4), rel=1e-14)

    def test_square_function(self):
        s = square_function()
        assert s(3.0) == 9.0
        assert s.deriv(1, 3.0) == 6.0
        assert s.deriv(2, 3.0) == 2.0
        assert s.deriv(3, 3.0) == 0.0

    def test_polynomial_function(self):
        p = polynomial_function([1.0, 0.0, -2.0])  # 1 - 2 x^2
        assert p(2.0) == pytest.approx(-7.0)
        assert p.deriv(1, 2.0) == pytest.approx(-8.0)
        assert p.deriv(2, 0.0) == pytest.approx(-4.0)


class TestSummability:
    def test_single_atom_at_zero(self):
        mu = DiscreteMeasure([(1.0, 1.0)])
        spec = Spectrum(np.array([0.0]))
        assert check_summability(mu, spec, alpha=1.0, beta=0.0, eps=0.5) == pytest.approx(1.0)

    def test_symmetric_pair(self):
        mu = DiscreteMeasure([(1.0, 1.0)])
        spec = Spectrum(np.array([-1.0, 1.0]))
        expected = 2.0 * math.exp(-0.5)
        got = check_summability(mu, spec, alpha=0.0, beta=2.0, eps=0.5)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_truncation_stabilizes(self):
        # independently summed: sum_j |w_j| t_j^2 sum_i lam_i e^{-t_j lam_i^2 / 4}
        mu = DiscreteMeasure([(1.0, 1.0), (2.0, 0.5)])
        values = []
        for size in (5, 10, 19, 20):
            spec = Spectrum(np.arange(size) + 0.5)
            values.append(check_summability(mu, spec, alpha=2.0, beta=1.0, eps=0.25))
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(4.1354368958, rel=1e-9)
        assert abs(values[-1] - values[-2]) < 1e-4 * values[-1]

    def test_monotone_in_truncation(self):
        mu = DiscreteMeasure([(0.7, -1.0), (1.3, 2.0)])
        prev = 0.0
        for size in range(1, 12):
            spec = Spectrum(np.linspace(-2, 2, size) if size > 1 else np.array([0.0]))
            val = check_summability(mu, spec, alpha=1.0, beta=1.0, eps=0.3)
            # |w_j| weights make every summand nonnegative
            assert val >= 0.0
        sizes = [Spectrum(np.arange(k) + 0.5) for k in (1, 3, 6, 9)]
        vals = [check_summability(mu, s, alpha=1.0, beta=1.0, eps=0.3) for s in sizes]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_eps(self):
        mu = DiscreteMeasure([(1.0, 1.0)])
        spec = Spectrum(np.array([0.0]))
        with pytest.raises(ValueError):
            check_summability(mu, spec, alpha=1.0, beta=0.0, eps=1.0)
        with pytest.raises(ValueError):
            check_summability(mu, spec, alpha=1.0, beta=0.0, eps=-0.1)

    def test_shift_variant_larger(self):
        mu = DiscreteMeasure([(1.0, 1.0)])
        spec = Spectrum(np.array([-1.0, 0.5, 2.0]))
        base = check_summability(mu, spec, alpha=1.0, beta=2.0, eps=0.5)
        shifted = check_summability(mu, spec, alpha=1.0, beta=2.0, eps=0.5,
                                    include_shift=True)
        assert shifted > base
