import math
import tracemalloc
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specact import (
    MultisetDivDiff,
    NodeList,
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
from specact.divdiff import SERIES_LADDER, SERIES_SPAN, _dd_series_rows, _gather_plan, _level_plan
from specact.functions import SmoothFunction
from specact.rng import make_rng


def gauss():
    return make_gaussian_mixture([(1.0, 1.0)])


def _dd_series(f: SmoothFunction, zs: np.ndarray) -> float:
    """Centered Taylor value of f[z_0, ..., z_n] for a narrow node block.

    Expands f around the block mean c: the divided difference of (x - c)^j
    is the complete homogeneous symmetric polynomial h_{j-n}(z - c), so
    f[z_0..z_n] = sum_{k>=0} f^{(n+k)}(c) / (n+k)! h_k(z - c).  The h_k
    follow the prefix recurrence h_k(v_0..v_m) = h_k(v_0..v_{m-1}) +
    v_m h_{k-1}(v_0..v_m).  Needs derivatives of arbitrary order; they
    come from one derivative ladder, rebuilt twice as long whenever the
    series outruns it.
    """
    n = len(zs) - 1
    center = float(np.mean(zs))
    v = (zs - center).tolist()
    h = [1.0] * (n + 1)
    coef = 1.0 / math.factorial(n)
    ladder = f.deriv_ladder(n + SERIES_LADDER, center)
    total = ladder[n] * coef
    scale = abs(total)
    small = 0
    for k in range(1, 200):
        coef /= n + k
        prev = v[0] * h[0]
        h[0] = prev
        for m in range(1, n + 1):
            prev = prev + v[m] * h[m]
            h[m] = prev
        if n + k >= len(ladder):
            ladder = f.deriv_ladder(min(2 * (len(ladder) - 1), n + 199), center)
        term = ladder[n + k] * coef * h[n]
        total += term
        scale = max(scale, abs(total))
        if abs(term) <= 1e-17 * scale + 1e-300:
            small += 1
            if small >= 2:
                # a non-finite term leaves the sum non-finite: the ladder overflowed
                if not math.isfinite(total):
                    break
                return total
        else:
            small = 0
    raise RuntimeError("divided-difference series did not converge")


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
        with pytest.raises(ValueError):
            NodeList((0.0, 1.0), merge_tol=float("nan"))
        # an infinite tolerance merged every node into one
        with pytest.raises(ValueError):
            NodeList((0.0, 1.0), merge_tol=math.inf)

    def test_clusters_merge_near_nodes(self):
        nl = NodeList((1.0, 1.0 + 5e-10, 2.0))
        clusters = nl.clusters()
        assert len(clusters) == 2
        rep, mult = clusters[0]
        assert mult == 2
        assert rep == pytest.approx(1.0 + 2.5e-10)
        assert nl.max_merge_shift == pytest.approx(2.5e-10)

    def test_zero_tol_keeps_distinct(self):
        nl = NodeList((0.0, 1e-12), merge_tol=0.0)
        assert len(nl.clusters()) == 2

    def test_exact_repeats_keep_their_value(self):
        # sum([0.1] * 3) / 3 rounds off 0.1
        nl = NodeList((0.1, 0.1, 0.1), merge_tol=0.0)
        assert nl.clusters() == [(0.1, 3)]
        assert nl.max_merge_shift == 0.0


class TestRecursive:
    def test_square_two_nodes(self):
        # f[x0, x1] = x0 + x1 for the square map
        assert dd_recursive(square_function(), [1.0, 2.0]) == pytest.approx(3.0)

    def test_confluent_exp_triple(self):
        f = SmoothFunction(ladder_fn=lambda k, x: [np.exp(x)] * (k + 1))
        assert dd_recursive(f, [0.0, 0.0, 0.0]) == pytest.approx(0.5, rel=1e-14)

    def test_single_node_is_value(self, mix):
        assert dd_recursive(mix, [0.4]) == pytest.approx(mix(0.4), rel=1e-15)

    def test_matches_hermite_mc(self):
        f = SmoothFunction(ladder_fn=lambda k, x: [np.exp(x)] * (k + 1))
        nodes = [0.3, 1.1, 2.0]
        ref = dd_recursive(f, nodes)
        est, err = dd_hermite_mc(f, nodes, 200_000, seed=5)
        assert abs(est - ref) < 3.0 * err

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

    def test_narrow_span_reads_few_series_rows_and_no_table(self, mix, monkeypatch):
        # a dense table would hold C(K + m - 1, m) keys per level and the
        # whole triangle m(m - 1)/2 windows; only the top window is filled
        import specact.divdiff as divdiff_module

        rows = []
        series = divdiff_module._dd_series_rows

        def counted(f, blocks):
            rows.append(sum(len(b) for b in blocks))
            return series(f, blocks)

        def refuse(*args):
            raise AssertionError("dd_recursive built a MultisetDivDiff")

        # ladder orders asked of f: 0 at the nodes and at least SERIES_LADDER
        # at the series centres; with no confluent key, none to order m - 1
        orders = []
        logged = SmoothFunction(ladder_fn=lambda k, x: orders.append(k) or mix.ladder_fn(k, x))
        monkeypatch.setattr(divdiff_module, "_dd_series_rows", counted)
        monkeypatch.setattr(MultisetDivDiff, "__init__", refuse)
        for m in (2, 5, 11):
            nodes = np.linspace(-0.2, -0.2 + 0.9 * SERIES_SPAN, m)
            rows.clear()
            orders.clear()
            dd_recursive(logged, nodes)
            assert rows == [1], m
            assert all(k == 0 or k >= SERIES_LADDER for k in orders), orders
            # one cluster is one ladder value, with no series row
            rows.clear()
            value = dd_recursive(mix, [0.3] * m)
            assert value == pytest.approx(mix.deriv(m - 1, 0.3) / math.factorial(m - 1), rel=1e-15)
            assert sum(rows) == 0, m

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
        f = SmoothFunction(ladder_fn=lambda k, x: [np.exp(x)] * (k + 1))
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
        # a nan radius encloses nothing; it must not return nan
        with pytest.raises(ValueError):
            dd_contour(mix, [0.0, 0.5], center=0.0, radius=float("nan"))

    def test_circle_too_large_for_a_steep_atom_is_refused(self):
        # e^{-40 x^2} reaches e^{40 r^2} on the circle: at r = 1.2 and 2 the
        # sum returned -1.7e8 and 4.3e65, at r = 0.8 it was 5e-6 off
        steep = make_gaussian_mixture([(40.0, 1.0)])
        nodes = [0.1, 0.2, 0.3]
        for radius in (0.5, 0.6):
            val = dd_contour(steep, nodes, center=0.2, radius=radius, points=256)
            assert val == pytest.approx(14.6925366247, abs=1e-10)
        for radius in (0.8, 1.2, 2.0):
            with pytest.raises(ValueError, match="past e"):
                dd_contour(steep, nodes, center=0.2, radius=radius, points=256)

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


def _chain_generic(g: SmoothFunction, phi: SmoothFunction, nodes) -> float:
    """(g o phi)[x_0, ..., x_n] by the general chain rule, an oracle for
    dd_chain_square: the sum over chains 0 = i_0 < ... < i_k = n of
    g[phi(x_{i_0}), ..., phi(x_{i_k})] times the product over the chain's
    steps of phi[x_{i_j}, ..., x_{i_{j+1}}], every inner block taken by
    dd_recursive where dd_chain_square uses phi = x^2's closed form."""
    xs = [float(x) for x in nodes]
    n = len(xs) - 1
    if n == 0:
        return float(g(float(phi(xs[0]))))
    total = 0.0
    for k in range(1, n + 1):
        for mid in combinations(range(1, n), k - 1):
            idx = (0, *mid, n)
            factor = math.prod(dd_recursive(phi, xs[idx[j]:idx[j + 1] + 1]) for j in range(k))
            total += factor * dd_recursive(g, [float(phi(xs[i])) for i in idx])
    return total


class TestChainGeneric:
    def test_identity_inner_reduces_to_outer(self, mix):
        ident = polynomial_function([0.0, 1.0])
        nodes = [0.3, 1.0, -0.5]
        assert _chain_generic(mix, ident, nodes) == pytest.approx(
            dd_recursive(mix, nodes), rel=1e-12)

    def test_two_nodes_equals_chain_square(self):
        f = SmoothFunction(ladder_fn=lambda k, x: [np.exp(x)] * (k + 1))
        nodes = [0.5, 1.5]
        a = _chain_generic(f, square_function(), nodes)
        b = dd_chain_square(f, nodes)
        assert a == pytest.approx(b, rel=1e-13)

    def test_five_random_nodes(self, mix):
        rng = make_rng(5)
        nodes = rng.uniform(-2, 2, size=5)
        direct = dd_recursive(mix, nodes)
        val = _chain_generic(mix.square_companion, square_function(), nodes)
        assert abs(val - direct) <= 1e-9 * max(abs(direct), 1e-12)
        chained = dd_chain_square(mix.square_companion, nodes)
        assert chained == pytest.approx(val, rel=1e-11)


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

    def test_rejects_zero_slots(self, mix):
        table = MultisetDivDiff(mix, np.array([-1.1, 0.2, 1.4]))
        for build in (table.tensor, table.doubled_tensor):
            with pytest.raises(ValueError, match="slot"):
                build(0)
        with pytest.raises(ValueError, match="index"):
            table.value(())

    def test_rejects_nonfinite_values(self, mix):
        # an infinite value would widen the merge tolerance to inf and fold
        # every node into one cluster; a nan would stall the series
        for values, slots in (([math.inf, 1.0], 1), ([math.nan, 1.0], 2)):
            with pytest.raises(ValueError, match="finite"):
                MultisetDivDiff(mix, values).tensor(slots)

    def test_value_rejects_indices_outside_the_nodes(self, mix):
        # numpy would wrap -1 round to the last node and read f(2.0);
        # floats and bools are no indices, whatever numpy makes of them
        table = MultisetDivDiff(mix, np.array([0.0, 1.0, 2.0]))
        for idx in ((-1,), (3,), (0, -1), (2, 0, 3), (1.5,), (1.0,), (np.float64(1.0),),
                    (True,), (0, False), (np.bool_(True),)):
            with pytest.raises(ValueError, match="indices"):
                table.value(idx)
        assert table.value((2,)) == mix(2.0)
        assert table.value((np.int64(2),)) == mix(2.0)

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
        """The per-tuple fill through ``value``."""
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
        # end gaps of exactly SERIES_SPAN sit on the series side of the split
        "series-boundary": np.array([-0.25, 0.25, 0.75, 1.7]),
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

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_tensor_entries_equal_recursive_on_sorted_clusters(self, mix, name):
        # independent of the extension tables: each entry against a scalar
        # table over its sorted cluster nodes, one per distinct multiset
        table = MultisetDivDiff(mix, self.SPECTRA[name])
        memo = {}

        def reference(ids):
            key = tuple(sorted(ids))
            if key not in memo:
                memo[key] = dd_recursive(mix, NodeList(tuple(table.rep[list(key)]), merge_tol=0.0))
            return memo[key]

        for doubled, top in ((False, 4), (True, 3)):
            build = table.doubled_tensor if doubled else table.tensor
            for slots in range(1, top + 1):
                got = build(slots)
                for idx in np.ndindex(got.shape):
                    ids = [int(table.cluster_of[i]) for i in idx]
                    ids += ids[-1:] if doubled else []
                    assert got[idx] == reference(ids), (name, doubled, idx)

    @staticmethod
    def structure_faults(table, top):
        """Every level-s key whose extension, head or tail entry names the
        wrong key of its neighbouring level, for s = 1..top."""
        keys = [[()]] + [[tuple(int(c) for c in key) for key in level.keys]
                         for level in table._levels[1:]]
        faults = []
        for s in range(1, top + 1):
            ext, heads, tails = table._levels[s].ext, table._levels[s].head, table._levels[s].tail
            for p, key in enumerate(keys[s - 1]):
                for c in range(len(table.rep)):
                    if keys[s][ext[p, c]] != tuple(sorted(key + (c,))):
                        faults.append(("ext", s, p, c))
            for j, key in enumerate(keys[s]):
                if keys[s - 1][heads[j]] != key[:-1]:
                    faults.append(("head", s, j))
                if keys[s - 1][tails[j]] != key[1:]:
                    faults.append(("tail", s, j))
        return faults

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_extension_tables_name_the_grown_keys(self, mix, name):
        table = MultisetDivDiff(mix, self.SPECTRA[name])
        table._level(5)
        k = len(table.rep)
        for s in range(1, 6):
            assert [tuple(key) for key in table._levels[s].keys] == list(
                combinations_with_replacement(range(k), s))
        assert self.structure_faults(table, 5) == []
        # one entry off by one, in the table's own copy of the shared plan, is caught
        table._levels[3] = table._levels[3]._replace(ext=table._levels[3].ext.copy())
        table._levels[3].ext[1, 0] += 1
        assert ("ext", 3, 1, 0) in self.structure_faults(table, 5)

    def test_tables_over_one_cluster_count_share_a_read_only_plan(self, mix):
        a = MultisetDivDiff(mix, np.array([-0.4, 0.8, 1.6]))
        b = MultisetDivDiff(exp_decay(1.3), np.array([2.0, -1.0, 2.0 + 1e-12, 0.5]))
        a.tensor(4)
        b.doubled_tensor(3)
        for s in range(1, 5):
            for shared, other in zip(a._levels[s], b._levels[s]):
                assert shared is other, s
                with pytest.raises(ValueError, match="read-only"):
                    shared[0] = 1
        pos, last = _gather_plan(3, 4, False)
        assert _gather_plan(3, 4, False)[0] is pos
        for array in (pos, last):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_plans_serve_cluster_counts_in_any_order(self, mix):
        # K = 3, 5 and 3 again, sorted and not; then +/- pairs collided by
        # squaring and merged nodes, which read the plans at their cluster ids
        _level_plan.cache_clear()
        _gather_plan.cache_clear()
        spectra = (np.array([-0.4, 0.8, 1.6]), self.SPECTRA["distinct"], np.array([1.1, -0.3, 0.2]),
                   self.SPECTRA["dirac-squares"], self.SPECTRA["merged"])
        for values in spectra:
            table = MultisetDivDiff(mix, values)
            for slots in range(1, 4):
                assert np.array_equal(table.tensor(slots), self.looped(table, slots))
                assert np.array_equal(table.doubled_tensor(slots),
                                      self.looped(table, slots, doubled=True))

    def test_tensor_memory_stays_near_its_size(self):
        # N = 25, order 5: 9.8e6 entries, the tuple budget's edge; an index
        # array over the whole grid would add most of another tensor.  The
        # plans start cold, so the gather plan is built inside the window.
        _level_plan.cache_clear()
        _gather_plan.cache_clear()
        fn = make_gaussian_mixture([(1.0, 1.0)]).derivative()
        table = MultisetDivDiff(fn, make_rng(5).uniform(-2, 2, 25))
        table._level(5)
        tracemalloc.start()
        try:
            tensor = table.tensor(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * tensor.nbytes

    def test_each_multiset_evaluated_once(self, mix, monkeypatch):
        import specact.divdiff as divdiff_module

        def refuse(f, nodes):
            raise AssertionError("a table build called dd_recursive")

        monkeypatch.setattr(divdiff_module, "dd_recursive", refuse)
        table = MultisetDivDiff(mix, self.SPECTRA["merged"])
        assert len(table.rep) == 4
        table.tensor(4)
        counts = table.evaluations
        # each multiset of 1..4 of the 4 clusters, C(4 + s - 1, s) of size s,
        # evaluated exactly once: 4 + 10 + 20 + 35, of which 4 single nodes
        # and 4 confluent multisets per size from 2 up
        assert sum(counts.values()) == 69
        assert counts["node"] == 4 and counts["ladder"] == 12
        assert counts["series"] > 0 and counts["newton"] > 0
        # every order-4 multiset is held, and a second tensor evaluates nothing
        first = [int(np.flatnonzero(table.cluster_of == c)[0]) for c in range(4)]
        for key in combinations_with_replacement(range(4), 4):
            table.value([first[c] for c in key])
        table.tensor(4)
        assert table.evaluations == counts

    FUNCTIONS = {
        "mixture-derivative": make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)]).derivative(),
        "exp-decay": exp_decay(1.3),
        "steep-t40": make_gaussian_mixture([(40.0, 1.0)]),
        # about 0, for three nodes centred there, the series' terms 3 and 4
        # sit below 1e-17 of the sum and term 5 does not: a stop test read
        # against a stale scale sums on past the pause
        "paused-polynomial": polynomial_function([0, 0, 1e-30, 0, 1, 1e-25, 1e-25, 1]),
        "sine": SmoothFunction(
            ladder_fn=lambda k, x: [np.sin(np.asarray(x) + j * np.pi / 2)
                                    for j in range(k + 1)]),
    }

    @pytest.mark.parametrize("fname", sorted(FUNCTIONS))
    def test_series_rows_of_mixed_sizes_equal_scalar_series(self, fname):
        # blocks of 2..7 nodes on spans below SERIES_SPAN, widest first and
        # one empty, summed in one batch: each row equals the scalar series
        fn = self.FUNCTIONS[fname]
        rng = make_rng(5)
        mixed = [np.sort(rng.uniform(-1.5, 1.5, (rows, 1)) + rng.uniform(0, 0.45, (rows, size)))
                 for rows, size in ((4, 7), (9, 2), (0, 4), (6, 3), (5, 5), (3, 4))]
        # rows that stop in different blocks: at t = 40 the wide rows
        # outrun the first ladder, while rows 1e-3 wide stop inside it
        staggered = [np.sort(rng.uniform(-0.6, 0.6, (rows, 1)) + rng.uniform(0, span, (rows, size)))
                     for rows, size, span in ((3, 6, 1e-3), (2, 3, 0.48), (4, 2, 1e-3),
                                              (2, 5, 0.45))]
        staggered.append(np.array([[-0.25, 0.0625, 0.1875]]))
        for blocks in (mixed, staggered):
            orders = []
            counted = SmoothFunction(ladder_fn=lambda k, x: orders.append(k) or fn.ladder_fn(k, x))
            got = _dd_series_rows(counted, blocks)
            assert [len(g) for g in got] == [len(b) for b in blocks]
            for block, values in zip(blocks, got):
                for row, value in zip(block, values):
                    assert value == _dd_series(fn, row)
        if fname == "steep-t40":
            assert len(orders) > 1

    def test_series_memory_stays_near_its_ladder(self):
        # every non-confluent multiset of 2..5 of 20 nodes on [-0.24, 0.24]:
        # 53,029 rows; each block of terms may hold three arrays about the
        # ladder's size beside the ladder, not one per running quantity
        nodes = np.linspace(-0.24, 0.24, 20)
        blocks = [nodes[[key for key in combinations_with_replacement(range(20), size)
                         if key[0] != key[-1]]] for size in range(2, 6)]
        rows = sum(len(b) for b in blocks)
        assert rows == 53029
        fn = gauss().derivative()
        tracemalloc.start()
        try:
            _dd_series_rows(fn, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the ladder holds orders 0..top + SERIES_LADDER, and the widest rows have top = 4
        assert peak <= 4.5 * rows * (4 + SERIES_LADDER + 1) * 8

    @pytest.mark.parametrize("fname", sorted(FUNCTIONS))
    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_levels_built_at_once_equal_levels_built_one_by_one(self, name, fname):
        fn = self.FUNCTIONS[fname]
        at_once = MultisetDivDiff(fn, self.SPECTRA[name])
        at_once._level(5)
        one_by_one = MultisetDivDiff(fn, self.SPECTRA[name])
        for size in range(2, 6):
            one_by_one._level(size)
        for size in range(1, 6):
            for x, y in zip(at_once._levels[size], one_by_one._levels[size]):
                assert np.array_equal(x, y)
            assert np.array_equal(at_once._values[size], one_by_one._values[size])
        assert at_once.evaluations == one_by_one.evaluations

    @pytest.mark.parametrize("x0", [3.5, 3.9])
    def test_series_overflow_raises_in_both_evaluators(self, x0):
        # e^{-40 x^2} near x = 4: the Hermite ladder overflows at order 124
        # while the Gaussian factor is ~1e-280, so a series term is not
        # finite; the overflow itself warns nothing, as Tier-1 turns a
        # RuntimeWarning into an error
        steep = make_gaussian_mixture([(40.0, 1.0)])
        nodes = [x0, x0, x0 + 0.3]
        with pytest.raises(RuntimeError, match="did not converge"):
            dd_recursive(steep, nodes)
        with pytest.raises(RuntimeError, match="did not converge"):
            MultisetDivDiff(steep, np.array(nodes)).tensor(3)

    @pytest.mark.parametrize("fname", sorted(FUNCTIONS))
    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_memoised_values_equal_newton_table(self, name, fname):
        fn = self.FUNCTIONS[fname]
        table = MultisetDivDiff(fn, self.SPECTRA[name])
        first = [int(np.flatnonzero(table.cluster_of == c)[0]) for c in range(len(table.rep))]
        for order in range(1, 6):
            for key in combinations_with_replacement(range(len(table.rep)), order + 1):
                nodes = NodeList(tuple(table.rep[list(key)]), merge_tol=0.0)
                # looked up with the ids in descending order
                assert table.value([first[c] for c in key[::-1]]) == dd_recursive(fn, nodes), key
