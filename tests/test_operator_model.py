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
from specact.operator_model import (
    _cyclic_contract,
    _cyclic_heat_traces,
    _diag_plus,
    _heat_semigroup,
    _trace_of,
    _unit_bracket,
)
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

    def test_trace_of_diagonal(self):
        assert _trace_of(lambda mu: mu**3, np.diag([3.0, 1.0, 2.0])) == pytest.approx(36.0)

    def test_trace_of_flip(self):
        # eigenvalues -1 and 1: tr e^H = 2 cosh 1
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert _trace_of(np.exp, flip) == pytest.approx(2.0 * math.cosh(1.0), rel=1e-15)

    @pytest.mark.parametrize("layout", ["C", "F", "adjoint"])
    def test_diag_plus_rounds_as_the_dense_sum(self, spec4, herm4, layout):
        b = random_hermitian(4, make_rng(3), norm=2.0)
        m0 = {"C": herm4, "F": np.asfortranarray(herm4), "adjoint": herm4.conj().T}[layout]
        lam = spec4.eigenvalues
        h = _diag_plus(lam, (0.3, m0), (-1.7, b))
        assert np.array_equal(h, np.diag(lam) + 0.3 * m0 + -1.7 * b)
        # the inputs are left as they were
        assert np.array_equal(m0, herm4 if layout != "adjoint" else herm4.conj().T)


class TestHeat:
    def test_heat_trace_matches_sum(self, spec4):
        t = 0.7
        assert heat_trace(spec4, t) == pytest.approx(
            float(np.sum(np.exp(-t * spec4.squares))), rel=1e-15)

    def test_heat_kernel_eigs_in_unit_interval(self, herm4):
        mu, u = np.linalg.eigh(herm4)
        k = _heat_semigroup(u, mu, 0.9)
        eigs = np.linalg.eigvalsh(k)
        assert np.all(eigs > 0.0)
        assert np.all(eigs <= 1.0 + 1e-12)

    def test_heat_kernel_diagonal_case(self, spec4):
        k = _heat_semigroup(np.eye(4), spec4.eigenvalues, 0.5)
        assert np.allclose(np.diag(k), np.exp(-0.5 * spec4.squares))
        assert np.array_equal(k, np.diag(np.diag(k)))

    def test_heat_kernel_is_a_semigroup(self, herm4):
        mu, u = np.linalg.eigh(herm4)
        assert np.allclose(_heat_semigroup(u, mu, 0.0), np.eye(4), atol=1e-14)
        composed = _heat_semigroup(u, mu, 0.4) @ _heat_semigroup(u, mu, 0.7)
        assert np.allclose(composed, _heat_semigroup(u, mu, 1.1), atol=1e-14)

    def test_heat_trace_is_the_trace_of_the_kernel(self, spec4, herm4):
        # on a rotated copy U D U* of D the kernel, its trace and heat_trace agree
        _, u = np.linalg.eigh(herm4)
        lam = spec4.eigenvalues
        rotated = (u * lam) @ u.conj().T
        t = 0.8
        want = heat_trace(spec4, t)
        assert np.trace(_heat_semigroup(u, lam, t)).real == pytest.approx(want, rel=1e-14)
        assert _trace_of(lambda mu: np.exp(-t * mu * mu), rotated) == pytest.approx(
            want, rel=1e-14)

    def test_heat_trace_converges_over_truncations(self):
        # sum over the integers of e^{-t k^2} = sqrt(pi/t) sum_m e^{-pi^2 m^2/t}
        # (Poisson summation); odd truncations of linear_spectrum are integers
        t = 0.5
        limit = math.sqrt(math.pi / t) * (1.0 + 2.0 * sum(
            math.exp(-(math.pi * m) ** 2 / t) for m in range(1, 4)))
        traces = [heat_trace(linear_spectrum(dim), t) for dim in (1, 3, 5, 9, 15)]
        assert all(b > a for a, b in zip(traces, traces[1:]))
        assert traces[-1] == pytest.approx(limit, rel=1e-13)

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
            bracket_dd([eye] * 6, spec, 1.0)

    def test_rejects_nonpositive_t(self, spec4, herm4):
        for t in (-1.0, math.inf):
            with pytest.raises(ValueError):
                bracket_dd([herm4], spec4, t)

    def test_mc_working_set_is_bounded_by_entries(self):
        # a batch of 65,536 sample rows would hold about 200 MB here
        spec = random_spectrum(8, 2.0, make_rng(3))
        ops = [random_hermitian(8, make_rng(10 + j), norm=1.0) for j in range(3)]
        tracemalloc.start()
        try:
            bracket_mc(ops, spec, 0.7, samples=100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_heat_traces_equal_in_one_batch_and_many(self, dim, monkeypatch):
        import specact.operator_model as om_module

        rng = make_rng(dim)
        gs = [random_hermitian(dim, rng) + 1j * rng.standard_normal((dim, dim))
              for _ in range(3)]
        ws = [rng.uniform(0.0, 2.0, dim) for _ in range(3)]
        s = rng.dirichlet(np.ones(3), size=50)
        whole = _cyclic_heat_traces(gs, ws, s)
        for rows in (1, 7):
            monkeypatch.setattr(om_module, "_HEAT_TRACE_CHUNK", rows * dim * dim)
            assert np.array_equal(_cyclic_heat_traces(gs, ws, s), whole)

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
        # eight operators at N = 10 need 10^8 tuples, over the 10^7 budget;
        # seven need exactly 10^7, within it, so they reach the table
        spec = linear_spectrum(10)
        with pytest.raises(BudgetExceededError):
            bracket_identity_check([np.eye(10)] * 8, spec, t=0.5)
        with pytest.raises(AssertionError, match="table was built"):
            bracket_identity_check([np.eye(10)] * 7, spec, t=0.5)

    def test_rejects_empty_list_and_bad_time(self, spec4, herm4):
        with pytest.raises(ValueError, match="operator"):
            bracket_identity_check([], spec4, t=0.5)
        for t in (0.0, math.inf):
            with pytest.raises(ValueError, match="heat time"):
                bracket_identity_check([herm4], spec4, t)

    def test_builds_one_table(self, spec4, rng, monkeypatch):
        calls = []
        original = MultisetDivDiff.__init__

        def counting(self, *args):
            calls.append(args)
            original(self, *args)

        monkeypatch.setattr(MultisetDivDiff, "__init__", counting)
        ops = [random_hermitian(4, rng, norm=1.0) for _ in range(4)]
        assert bracket_identity_check(ops, spec4, t=0.7).passed
        # every bracket and every unit insertion reads one e^{-tu} table
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["random", "dirac"])
    def test_unit_bracket_matches_literal_unit(self, family):
        # (-1)^k <1, M_1, ..., M_k>_k from the doubled tensor against the
        # definition: a unit matrix in slot 0 of an order-k bracket
        rng = make_rng(31)
        for dim in range(1, 6):
            spec = random_spectrum(dim, 2.0, rng) if family == "random" \
                else dirac_circle_spectrum(dim)
            t = float(rng.uniform(0.2, 1.5))
            table = MultisetDivDiff(exp_decay(t), spec.squares)
            for k in range(1, 5):
                mats = [random_hermitian(dim, rng) for _ in range(k)]
                got = (-1.0) ** k * _unit_bracket(mats, table.doubled_tensor(k))
                ref = bracket_dd([np.eye(dim), *mats], spec, t)
                assert abs(got - ref) <= 1e-13 * abs(ref), (family, dim, k)


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

    @pytest.mark.parametrize("t", [0.3, 1.5])
    def test_matches_dense_diagonal_matrices(self, t):
        # the residual with D and e^{-t D^2} as full matrices and one product
        # per node; vectors and one summed node kernel change only the rounding
        spec = random_spectrum(7, 2.0, make_rng(7))
        a = random_hermitian(7, make_rng(8), norm=0.5)
        lam = spec.eigenvalues
        d = np.diag(lam).astype(complex)
        pa = d @ a + a @ d + a @ a
        mu, u = np.linalg.eigh(d + a)
        x, w = np.polynomial.legendre.leggauss(16)
        integral = sum(0.5 * wt * ((u * np.exp(-s * t * mu * mu)) @ u.conj().T @ pa
                                   @ np.diag(np.exp(-(1.0 - s) * t * lam * lam)))
                       for s, wt in zip(0.5 * (x + 1.0), w))
        heat_a = (u * np.exp(-t * mu * mu)) @ u.conj().T
        ref = np.max(np.abs(heat_a - np.diag(np.exp(-t * lam * lam)) + t * integral))
        assert abs(duhamel_residual(spec, a, t, quad_points=16) - ref) <= 1e-15


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

    @pytest.mark.parametrize("norm", [None, 0.1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 8, 512])
    def test_random_hermitian_is_the_symmetrised_draw(self, dim, seed, norm):
        # bit for bit the out-of-place formula: the benchmark's inputs
        h = random_hermitian(dim, make_rng(seed), norm=norm)
        rng = make_rng(seed)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ref = 0.5 * (x + x.conj().T)
        if norm is not None:
            ref = ref * (norm / np.linalg.norm(ref, 2))
        assert h.flags.c_contiguous
        assert h.tobytes() == ref.tobytes()

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
