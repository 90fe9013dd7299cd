import itertools
import math
import tracemalloc

import numpy as np
import pytest

from specact import (
    MultisetDivDiff,
    Spectrum,
    anticommutator_with_d,
    band_hermitian,
    bracket_dd,
    bracket_identity_check,
    bracket_mc,
    commutator_with_d,
    commutator_with_d2,
    dirac_circle_spectrum,
    dd_recursive,
    duhamel_residual,
    eigen_decompose,
    heat_kernel,
    heat_trace,
    linear_spectrum,
    one_form,
    operator_norm,
    random_hermitian,
    random_spectrum,
    require_hermitian,
)
from specact.errors import BudgetExceededError
from specact.functions import exp_decay
from specact.operator_model import _cyclic_contract
from specact.rng import make_rng


class TestSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, np.nan]))

    def test_from_values_sorts(self):
        spec = Spectrum.from_values([2.0, -1.0, 0.5])
        assert np.allclose(spec.eigenvalues, [-1.0, 0.5, 2.0])

    def test_squares_and_diagonal(self, spec4):
        assert np.allclose(spec4.squares, spec4.eigenvalues**2)
        assert np.allclose(np.diag(spec4.diagonal()), spec4.eigenvalues)
        assert spec4.dim == 4

    def test_immutable(self, spec4):
        with pytest.raises(ValueError):
            spec4.eigenvalues[0] = 0.0


class TestHermitianHelpers:
    def test_require_hermitian_passes_symmetric(self, herm4):
        m = require_hermitian([[1.0, 2.0], [2.0, 3.0]])
        assert m.dtype == complex
        # a transposed view has a non-contiguous last axis
        assert np.array_equal(require_hermitian(herm4.conj().T), herm4.conj().T)

    def test_require_hermitian_rejects(self):
        with pytest.raises(ValueError):
            require_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_operator_norm_diag(self):
        assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)

    def test_eigen_decompose_diagonal(self):
        spec, u = eigen_decompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
        # columns diagonalize back
        h = u @ np.diag(spec.eigenvalues) @ u.conj().T
        assert np.allclose(h, np.diag([3.0, 1.0, 2.0]))

    def test_eigen_decompose_flip(self):
        spec, u = eigen_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        residual = u @ np.diag(spec.eigenvalues) @ u.conj().T
        assert np.allclose(residual, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


class TestHeat:
    def test_heat_trace_matches_sum(self, spec4):
        t = 0.7
        assert heat_trace(spec4, t) == pytest.approx(
            float(np.sum(np.exp(-t * spec4.squares))), rel=1e-15)

    def test_heat_kernel_eigs_in_unit_interval(self, herm4):
        k = heat_kernel(herm4, 0.9)
        eigs = np.linalg.eigvalsh(k)
        assert np.all(eigs > 0.0)
        assert np.all(eigs <= 1.0 + 1e-12)

    def test_heat_kernel_diagonal_case(self, spec4):
        k = heat_kernel(spec4.diagonal(), 0.5)
        assert np.allclose(np.diag(k), np.exp(-0.5 * spec4.squares))

    def test_heat_trace_rejects_nonpositive_t(self, spec4):
        # an infinite time is no heat time either
        for t in (0.0, math.inf):
            with pytest.raises(ValueError):
                heat_trace(spec4, t)


class TestCommutators:
    def test_commutator_entries(self, spec4, herm4):
        c = commutator_with_d(spec4, herm4)
        lam = spec4.eigenvalues
        expected = (lam[:, None] - lam[None, :]) * herm4
        assert np.allclose(c, expected)
        # a 1x1 matrix must not broadcast over the 4x4 spectrum
        with pytest.raises(ValueError):
            commutator_with_d(spec4, np.eye(1))

    def test_anticommutator_entries(self, spec4, herm4):
        c = anticommutator_with_d(spec4, herm4)
        lam = spec4.eigenvalues
        assert np.allclose(c, (lam[:, None] + lam[None, :]) * herm4)
        with pytest.raises(ValueError):
            anticommutator_with_d(spec4, np.eye(1))

    def test_d2_is_iterated_commutator(self, spec4, herm4):
        direct = commutator_with_d2(spec4, herm4)
        lam2 = spec4.squares
        assert np.allclose(direct, (lam2[:, None] - lam2[None, :]) * herm4)
        with pytest.raises(ValueError):
            commutator_with_d2(spec4, np.eye(1))


class TestBracketDD:
    def test_order_zero_identity_is_heat_trace(self, spec4):
        t = 0.8
        val = bracket_dd([np.eye(4)], spec4, t)
        assert val.real == pytest.approx(heat_trace(spec4, t), rel=1e-14)

    def test_order_one_identity_pair(self):
        # <1, 1>_1 = t e^{-t lam^2} for a single eigenvalue
        spec = Spectrum(np.array([0.7]))
        t = 1.3
        val = bracket_dd([np.eye(1), np.eye(1)], spec, t)
        assert val.real == pytest.approx(t * math.exp(-t * 0.49), rel=1e-13)

    def test_scalar_matches_divdiff(self):
        # N=1: bracket reduces to a confluent divided difference of e^{-tu}
        spec = Spectrum(np.array([0.9]))
        t = 0.6
        g = exp_decay(t)
        n = 3
        val = bracket_dd([np.eye(1)] * (n + 1), spec, t)
        ref = ((-1.0) ** n) * dd_recursive(g, [spec.squares[0]] * (n + 1))
        assert val.real == pytest.approx(ref, rel=1e-12)

    def test_matches_mc(self, spec4, herm4):
        t = 0.9
        ops = [herm4, herm4, herm4]
        exact = bracket_dd(ops, spec4, t)
        est, err = bracket_mc(ops, spec4, t, samples=200_000, seed=4)
        assert abs(est - exact) < 3.0 * max(err, 1e-15)

    def test_mc_order_zero_exact(self, spec4, herm4):
        est, err = bracket_mc([herm4], spec4, 0.5, samples=10, seed=1)
        ref = bracket_dd([herm4], spec4, 0.5)
        assert est == pytest.approx(ref, rel=1e-14)
        assert err == 0.0

    def test_budget_guard(self):
        spec = linear_spectrum(40)
        eye = np.eye(40)
        with pytest.raises(BudgetExceededError):
            bracket_dd([eye] * 6, spec, 1.0, budget=10_000_000)

    def test_rejects_nonpositive_t(self, spec4, herm4):
        for t in (-1.0, math.inf):
            with pytest.raises(ValueError):
                bracket_dd([herm4], spec4, t)

    def test_degenerate_squares(self, herm4):
        # +/- pairs square to the same value; confluent path must hold
        spec = dirac_circle_spectrum(4)
        t = 1.1
        ops = [herm4, herm4]
        exact = bracket_dd(ops, spec, t)
        est, err = bracket_mc(ops, spec, t, samples=200_000, seed=8)
        assert abs(est - exact) < 3.0 * max(err, 1e-15)


def _brute_cycle(mats, weight):
    """The cyclic sum tuple by tuple, and the sum of its terms' magnitudes."""
    k, dim = len(mats), weight.shape[0]
    total, size = 0.0j, 0.0
    for idx in itertools.product(range(dim), repeat=k):
        term = complex(weight[idx])
        for j in range(k):
            term *= mats[j][idx[j], idx[(j + 1) % k]]
        total += term
        size += abs(term)
    return total, size


def _drop_last_factor(mats, weight):
    """A broken contraction: the last factor replaced by ones."""
    return _cyclic_contract([*mats[:-1], np.ones_like(mats[-1])], weight)


class TestCyclicContract:
    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_matches_tuple_by_tuple_sum(self, dim):
        # distinct complex factors and a real weight; a contraction that
        # drops a factor must fail the same comparison
        rng = make_rng(dim)
        for k in range(1, 6):
            mats = [random_hermitian(dim, rng) + rng.standard_normal((dim, dim))
                    for _ in range(k)]
            weight = rng.standard_normal((dim,) * k)
            ref, size = _brute_cycle(mats, weight)
            assert abs(_cyclic_contract(mats, weight) - ref) <= 1e-13 * size, k
            assert abs(_drop_last_factor(mats, weight) - ref) > 1e-13 * size, k

    def test_holds_less_than_the_weight(self):
        # no step materialises an N^k complex array
        rng = make_rng(12)
        a = random_hermitian(12, rng)
        weight = rng.standard_normal((12,) * 5)
        tracemalloc.start()
        try:
            _cyclic_contract([a] * 5, weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weight.nbytes


class TestBracketIdentities:
    def test_random_instance(self, spec4, rng):
        ops = [random_hermitian(4, rng, norm=1.0) for _ in range(3)]
        report = bracket_identity_check(ops, spec4, t=0.8)
        assert report.passed
        assert report.cyclic <= 1e-9
        assert report.unit_insertion <= 1e-9
        assert report.d_commutator_sum <= 1e-9
        assert report.d2_reduction <= 1e-9

    def test_diagonal_ops_commute_with_d(self, spec4):
        # diagonal A commutes with D, so the commutator-sum identity is 0 = 0
        ops = [np.diag([1.0, -0.5, 0.3, 2.0]), np.diag([0.2, 0.2, -1.0, 0.5])]
        report = bracket_identity_check(ops, spec4, t=1.2)
        assert report.passed

    def test_single_operator(self, spec4, herm4):
        report = bracket_identity_check([herm4], spec4, t=0.5)
        assert report.passed
        assert report.d2_reduction == 0.0

    def test_near_degenerate_spectrum(self, rng):
        # squared eigenvalues 2.6e-4 apart; exercises the stabilized table
        spec = Spectrum.from_values([-0.101, 0.102])
        ops = [random_hermitian(2, rng, norm=1.0) for _ in range(4)]
        report = bracket_identity_check(ops, spec, t=0.897)
        assert report.passed
        assert report.unit_insertion <= 1e-9

    def test_budget_checked_before_any_bracket(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a divided-difference table was built")

        monkeypatch.setattr(MultisetDivDiff, "__init__", refuse)
        # seven operators at N = 10: each bracket of 7 is within the 10^7
        # budget, but the unit insertion's 8 operators need 10^8 tuples
        spec = linear_spectrum(10)
        with pytest.raises(BudgetExceededError):
            bracket_identity_check([np.eye(10)] * 7, spec, t=0.5)


class TestDuhamel:
    def test_zero_perturbation_is_zero(self, spec4):
        assert duhamel_residual(spec4, np.zeros((4, 4)), t=0.7) == 0.0

    def test_scalar_exact(self):
        spec = Spectrum(np.array([0.5]))
        r = duhamel_residual(spec, np.array([[0.3]]), t=1.0, quad_points=32)
        assert r <= 1e-12

    def test_random_small(self, rng):
        spec = random_spectrum(5, 2.0, rng)
        a = random_hermitian(5, rng, norm=0.8)
        assert duhamel_residual(spec, a, t=0.6, quad_points=64) <= 1e-8

    def test_quadrature_refinement(self, spec4, herm4):
        coarse = duhamel_residual(spec4, herm4, t=1.5, quad_points=4)
        fine = duhamel_residual(spec4, herm4, t=1.5, quad_points=64)
        assert fine <= coarse + 1e-15

    def test_dimension_mismatch(self, spec4):
        with pytest.raises(ValueError):
            duhamel_residual(spec4, np.zeros((3, 3)), t=1.0)


class TestBuilders:
    def test_linear_spectrum_centered(self):
        spec = linear_spectrum(4)
        assert np.allclose(spec.eigenvalues, [-1.5, -0.5, 0.5, 1.5])
        assert np.allclose(linear_spectrum(3).eigenvalues, [-1.0, 0.0, 1.0])

    def test_dirac_circle_even(self):
        spec = dirac_circle_spectrum(4)
        assert np.allclose(spec.eigenvalues, [-1.5, -0.5, 0.5, 1.5])
        # symmetric pairs give degenerate squares
        assert len(np.unique(spec.squares)) == 2

    def test_dirac_circle_odd(self):
        spec = dirac_circle_spectrum(3)
        assert np.allclose(spec.eigenvalues, [-0.5, 0.5, 1.5])

    def test_random_spectrum_bounds(self, rng):
        spec = random_spectrum(10, 1.5, rng)
        assert spec.dim == 10
        assert np.all(np.abs(spec.eigenvalues) <= 1.5)

    def test_random_hermitian_norm(self, rng):
        h = random_hermitian(6, rng, norm=0.25)
        assert operator_norm(h) == pytest.approx(0.25, rel=1e-12)
        assert np.allclose(h, h.conj().T)

    def test_band_hermitian_support(self, rng):
        h = band_hermitian(6, 1, rng)
        i, j = np.indices((6, 6))
        assert np.all(h[np.abs(i - j) > 1] == 0.0)
        assert np.allclose(h, h.conj().T)

    def test_one_form_zero_diagonal(self, spec4, rng):
        b = random_hermitian(4, rng)
        a = one_form(spec4, [(np.eye(4), b)])
        # [D, b] has zero diagonal in the eigenbasis of D
        assert np.allclose(np.diag(a), 0.0)

    def test_one_form_sums_terms(self, spec4, rng):
        b1 = random_hermitian(4, rng)
        b2 = random_hermitian(4, rng)
        c1 = random_hermitian(4, rng)
        single = one_form(spec4, [(c1, b1)]) + one_form(spec4, [(np.eye(4), b2)])
        combined = one_form(spec4, [(c1, b1), (np.eye(4), b2)])
        assert np.allclose(single, combined)
