import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specact import (
    MultisetDivDiff,
    NodeList,
    dd_chain_generic,
    dd_chain_square,
    dd_contour,
    dd_derivative_sum,
    dd_hermite_mc,
    dd_recursive,
    exp_decay,
    make_gaussian_mixture,
    polynomial_function,
    square_function,
    step_bitstrings,
)
from specact.errors import DerivativeOrderError
from specact.functions import SmoothFunction
from specact.rng import make_rng


def gauss():
    return make_gaussian_mixture([(1.0, 1.0)])


class TestNodeList:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            NodeList(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NodeList((0.0, math.inf))

    def test_rejects_negative_merge_tol(self):
        with pytest.raises(ValueError):
            NodeList((0.0, 1.0), merge_tol=-1e-3)

    def test_clusters_merge_near_nodes(self):
        nl = NodeList((1.0, 1.0 + 5e-10, 2.0))
        clusters = nl.clusters()
        assert len(clusters) == 2
        rep, mult = clusters[0]
        assert mult == 2
        assert rep == pytest.approx(1.0 + 2.5e-10)
        assert nl.max_multiplicity == 2
        assert nl.max_merge_shift == pytest.approx(2.5e-10)

    def test_expanded_is_sorted_with_multiplicity(self):
        nl = NodeList((2.0, -1.0, 2.0))
        assert np.allclose(nl.expanded(), [-1.0, 2.0, 2.0])

    def test_zero_tol_keeps_distinct(self):
        nl = NodeList((0.0, 1e-12), merge_tol=0.0)
        assert len(nl.clusters()) == 2


class TestRecursive:
    def test_square_two_nodes(self):
        # f[x0, x1] = x0 + x1 for the square map
        assert dd_recursive(square_function(), [1.0, 2.0]) == pytest.approx(3.0)

    def test_confluent_exp_triple(self):
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x),
                           max_order=None)
        assert dd_recursive(f, [0.0, 0.0, 0.0]) == pytest.approx(0.5, rel=1e-14)

    def test_single_node_is_value(self, mix):
        assert dd_recursive(mix, [0.4]) == pytest.approx(mix(0.4), rel=1e-15)

    def test_matches_hermite_mc(self):
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x),
                           max_order=None)
        nodes = [0.3, 1.1, 2.0]
        ref = dd_recursive(f, nodes)
        est, err = dd_hermite_mc(f, nodes, 200_000, seed=5)
        assert abs(est - ref) < 3.0 * err

    def test_insufficient_order_raises(self):
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x),
                           max_order=1)
        with pytest.raises(DerivativeOrderError):
            dd_recursive(f, [0.0, 0.0, 0.0])

    def test_confluent_pair_is_derivative(self, mix):
        assert dd_recursive(mix, [0.4, 0.4]) == pytest.approx(
            mix.deriv(1, 0.4), rel=1e-14)

    def test_confluent_limit_h_to_zero(self, mix):
        exact = dd_recursive(mix, [0.4, 0.4, 0.4])
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            approx = dd_recursive(mix, [0.4 - h, 0.4, 0.4 + h])
            errs.append(abs(approx - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_tight_cluster_matches_contour(self, mix):
        # the raw recursion loses ~(1/h)^n digits here; the series path must not
        for h, size in [(1e-3, 7), (2.6e-4, 5), (1e-2, 6)]:
            nodes = 0.3 + h * np.arange(size)
            r = dd_recursive(mix, nodes)
            c = dd_contour(mix, nodes, center=float(np.mean(nodes)),
                           radius=1.8, points=1024)
            assert abs(r - c) <= 1e-10 * max(abs(c), 1e-12)

    def test_steep_series_outruns_its_first_ladder(self):
        # t = 40 needs more series terms than the first ladder holds
        f = make_gaussian_mixture([(40.0, 1.0)])
        for size in (3, 5):
            nodes = 0.2 + 0.1 * np.arange(size)
            r = dd_recursive(f, nodes)
            c = dd_contour(f, nodes, center=float(np.mean(nodes)),
                           radius=0.6, points=2048)
            assert abs(r - c) <= 1e-10 * max(abs(c), 1e-12)

    def test_mean_value_bracketing(self, mix):
        # f[x0..xn] = f^(n)(xi)/n! for some xi inside the hull
        nodes = [-0.9, 0.1, 0.8]
        val = dd_recursive(mix, nodes)
        xs = np.linspace(-0.9, 0.8, 400)
        lo = np.min(mix.deriv(2, xs)) / 2.0
        hi = np.max(mix.deriv(2, xs)) / 2.0
        assert lo - 1e-12 <= val <= hi + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_permutation_symmetry(self, nodes, pyrandom):
        f = gauss()
        ref = dd_recursive(f, nodes)
        shuffled = list(nodes)
        pyrandom.shuffle(shuffled)
        val = dd_recursive(f, shuffled)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3),
           st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
    def test_polynomial_annihilation(self, degree, nodes):
        coeffs = [0.0] * degree + [1.0]
        p = polynomial_function(coeffs)
        val = dd_recursive(p, nodes)
        if len(nodes) > degree + 1:
            assert abs(val) <= 1e-9 * max(1.0, max(abs(x) for x in nodes) ** degree)
        elif len(nodes) == degree + 1:
            assert val == pytest.approx(1.0, abs=1e-9)


class TestHermiteMC:
    def test_linear_is_exact(self):
        p = polynomial_function([0.0, 1.0])
        est, err = dd_hermite_mc(p, [0.2, 1.7], 100, seed=1)
        assert est == pytest.approx(1.0, abs=1e-14)
        assert err == pytest.approx(0.0, abs=1e-14)

    def test_exp_unit_interval(self):
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x),
                           max_order=None)
        est, err = dd_hermite_mc(f, [0.0, 1.0], 100_000, seed=2)
        assert abs(est - (math.e - 1.0)) < 3.0 * err

    def test_gaussian_three_nodes(self):
        f = gauss()
        nodes = [-1.0, 0.5, 2.0]
        ref = dd_recursive(f, nodes)
        est, err = dd_hermite_mc(f, nodes, 1_000_000, seed=3)
        assert abs(est - ref) < 3.0 * err

    def test_deterministic_for_fixed_seed(self, mix):
        a = dd_hermite_mc(mix, [0.0, 1.0, 2.0], 1000, seed=9)
        b = dd_hermite_mc(mix, [0.0, 1.0, 2.0], 1000, seed=9)
        assert a == b

    def test_single_node_returns_value(self, mix):
        est, err = dd_hermite_mc(mix, [0.3], 10, seed=1)
        assert est == pytest.approx(mix(0.3), rel=1e-14)

    def test_rejects_zero_samples(self, mix):
        with pytest.raises(ValueError):
            dd_hermite_mc(mix, [0.0, 1.0], 0, seed=1)


class TestContour:
    def test_square_polynomial(self):
        val = dd_contour(square_function(), [1.0, 2.0], center=1.5,
                         radius=2.0, points=64)
        assert val == pytest.approx(3.0, abs=1e-10)

    def test_constant_first_difference(self):
        one = polynomial_function([1.0])
        val = dd_contour(one, [0.1, 0.9], center=0.5, radius=1.5, points=64)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_exp_decay_three_nodes(self):
        g = exp_decay(1.0)
        nodes = [0.1, 0.2, 0.3]
        ref = dd_recursive(g, nodes)
        val = dd_contour(g, nodes, center=0.2, radius=1.5, points=256)
        assert val == pytest.approx(ref, abs=1e-10)

    def test_node_outside_raises(self, mix):
        with pytest.raises(ValueError):
            dd_contour(mix, [0.0, 3.0], center=0.0, radius=1.0)

    def test_geometric_convergence(self, mix):
        nodes = [-0.8, 0.1, 0.5, 1.2]
        ref = dd_recursive(mix, nodes)
        errs = [abs(dd_contour(mix, nodes, 0.25, 2.2, points=p) - ref)
                for p in (16, 32, 64)]
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-14


class TestStepBitstrings:
    def test_small_orders(self):
        assert step_bitstrings(0) == [()]
        assert step_bitstrings(1) == [(0,)]
        assert sorted(step_bitstrings(2)) == [(1,), (0, 0)] or \
            set(step_bitstrings(2)) == {(1,), (0, 0)}

    def test_fibonacci_count(self):
        # counts 1, 1, 2, 3, 5, 8, ...
        counts = [len(step_bitstrings(n)) for n in range(9)]
        assert counts == [1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_orders_sum_correctly(self):
        for n in range(7):
            for bits in step_bitstrings(n):
                assert sum(1 + b for b in bits) == n


class TestChainSquare:
    def test_two_nodes_closed_form(self, mix):
        g = mix.square_companion
        x0, x1 = 0.4, 1.1
        expected = (x0 + x1) * dd_recursive(g, [x0**2, x1**2])
        assert dd_chain_square(g, [x0, x1]) == pytest.approx(expected, rel=1e-13)

    def test_three_nodes_closed_form(self, mix):
        g = mix.square_companion
        x = [0.4, 1.1, -0.3]
        expected = (x[0] + x[1]) * (x[1] + x[2]) * dd_recursive(
            g, [x[0]**2, x[1]**2, x[2]**2]
        ) + dd_recursive(g, [x[0]**2, x[2]**2])
        assert dd_chain_square(g, x) == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_evaluation(self):
        f = gauss()
        nodes = [0.4, -0.8, 1.3, 0.1]
        direct = dd_recursive(f, nodes)
        chained = dd_chain_square(f.square_companion, nodes)
        assert chained == pytest.approx(direct, abs=1e-10 * max(1, abs(direct)))

    def test_random_sets_against_recursive(self, mix):
        rng = make_rng(77)
        for _ in range(50):
            size = int(rng.integers(2, 8))
            nodes = rng.uniform(-2, 2, size=size)
            direct = dd_recursive(mix, nodes)
            chained = dd_chain_square(mix.square_companion, nodes)
            assert abs(chained - direct) <= 1e-9 * max(abs(direct), 1e-12)

    def test_sign_symmetric_nodes(self, mix):
        # x and -x square to the same point; the companion table goes confluent
        g = mix.square_companion
        nodes = [0.7, -0.7, 0.2]
        direct = dd_recursive(mix, nodes)
        assert dd_chain_square(g, nodes) == pytest.approx(direct, rel=1e-11)


class TestChainGeneric:
    def test_identity_inner_reduces_to_outer(self, mix):
        ident = polynomial_function([0.0, 1.0])
        nodes = [0.3, 1.0, -0.5]
        assert dd_chain_generic(mix, ident, nodes) == pytest.approx(
            dd_recursive(mix, nodes), rel=1e-12)

    def test_two_nodes_equals_chain_square(self):
        f = SmoothFunction(eval_fn=np.exp, deriv_fn=lambda k, x: np.exp(x),
                           max_order=None)
        nodes = [0.5, 1.5]
        a = dd_chain_generic(f, square_function(), nodes)
        b = dd_chain_square(f, nodes)
        assert a == pytest.approx(b, rel=1e-13)

    def test_five_random_nodes(self, mix):
        rng = make_rng(5)
        nodes = rng.uniform(-2, 2, size=5)
        direct = dd_recursive(mix, nodes)
        val = dd_chain_generic(mix.square_companion, square_function(), nodes)
        assert abs(val - direct) <= 1e-9 * max(abs(direct), 1e-12)


class TestDerivativeSum:
    def test_square_single_node(self):
        assert dd_derivative_sum(square_function(), [1.5]) == pytest.approx(3.0)

    def test_cubic_two_nodes(self):
        p = polynomial_function([0.0, 0.0, 0.0, 1.0])
        # f[0,0,1] + f[0,1,1] = 1 + 2 = 3 = (3 x^2)[0,1]
        assert dd_derivative_sum(p, [0.0, 1.0]) == pytest.approx(3.0, rel=1e-12)

    def test_gaussian_three_nodes(self, mix):
        nodes = [-1.2, 0.3, 0.9]
        ref = dd_recursive(mix.derivative(), nodes)
        assert dd_derivative_sum(mix, nodes) == pytest.approx(
            ref, abs=1e-10 * max(1, abs(ref)))

    def test_random_sets(self, mix):
        rng = make_rng(13)
        fp = mix.derivative()
        for _ in range(50):
            size = int(rng.integers(1, 7))
            nodes = rng.uniform(-2, 2, size=size)
            ref = dd_recursive(fp, nodes)
            val = dd_derivative_sum(mix, nodes)
            assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-12)


class TestMultisetDivDiff:
    def test_matches_recursive(self, mix):
        values = np.array([-1.1, 0.2, 0.2, 1.4])
        table = MultisetDivDiff(mix, values)
        got = table.value((0, 1, 3))
        ref = dd_recursive(mix, [-1.1, 0.2, 1.4])
        assert got == pytest.approx(ref, rel=1e-12)

    def test_degenerate_values_confluent(self, mix):
        table = MultisetDivDiff(mix, np.array([0.5, 0.5]))
        assert table.value((0, 1)) == pytest.approx(mix.deriv(1, 0.5), rel=1e-12)

    def test_permutation_shares_cache(self, mix):
        table = MultisetDivDiff(mix, np.array([-0.4, 0.8, 1.6]))
        a = table.value((0, 2, 1))
        b = table.value((1, 2, 0))
        assert a == b

    def test_tensor_matches_values(self, mix):
        values = np.array([-0.4, 0.8])
        table = MultisetDivDiff(mix, values)
        tensor = table.tensor(2)
        for i in range(2):
            for j in range(2):
                assert tensor[i, j] == table.value((i, j))

    @staticmethod
    def looped(table, slots, doubled=False):
        """The per-tuple fill the bulk scatter replaces."""
        dim = len(table.cluster_of)
        out = np.empty((dim,) * slots)
        for idx in np.ndindex(out.shape):
            out[idx] = table.value(idx + (idx[-1],) if doubled else idx)
        return out

    SPECTRA = {
        # two pairs that merge at the default tolerance, one exact repeat
        "merged": np.array([-1.2, -1.2 + 3e-9, 0.1, 0.1, 0.45, 0.9 - 4e-9, 0.9]),
        # Dirac +/- pairs collide once squared
        "dirac-squares": np.array([-1.5, -0.5, 0.5, 1.5]) ** 2,
        "distinct": np.array([-1.7, -0.6, 0.05, 0.3, 1.9]),
    }

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_bulk_tensor_equals_tuple_fill(self, mix, name):
        values = self.SPECTRA[name]
        for slots in range(1, 6):
            bulk = MultisetDivDiff(mix, values).tensor(slots)
            ref = self.looped(MultisetDivDiff(mix, values), slots)
            assert np.array_equal(bulk, ref), (name, slots)

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_doubled_tensor_equals_doubled_loop(self, mix, name):
        values = self.SPECTRA[name]
        for slots in range(1, 5):
            bulk = MultisetDivDiff(mix, values).doubled_tensor(slots)
            ref = self.looped(MultisetDivDiff(mix, values), slots, doubled=True)
            assert np.array_equal(bulk, ref), (name, slots)

    def test_each_multiset_evaluated_once(self, mix, monkeypatch):
        import specact.divdiff as divdiff_module

        calls = []
        real = divdiff_module.dd_recursive

        def counting(f, nodes):
            calls.append(nodes)
            return real(f, nodes)

        monkeypatch.setattr(divdiff_module, "dd_recursive", counting)
        table = MultisetDivDiff(mix, self.SPECTRA["merged"])
        assert len(table.rep) == 4
        table.tensor(4)
        assert len(calls) == math.comb(4 + 4 - 1, 4)
        table.tensor(4)
        assert len(calls) == math.comb(4 + 4 - 1, 4)
