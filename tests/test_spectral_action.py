import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specact import (
    CircleContour,
    EpsilonMultiIndex,
    MultisetDivDiff,
    Spectrum,
    action_exact,
    commutator_with_d,
    dirac_circle_spectrum,
    epsilon_enumerate,
    epsilon_parent_move_count,
    expand,
    gateaux_fd,
    gateaux_fd_mixed,
    linear_spectrum,
    make_gaussian_mixture,
    one_form,
    random_hermitian,
    random_spectrum,
    tadpole_check,
    taylor_term,
    taylor_term_bracket_form,
    taylor_term_contour,
    taylor_term_theorem_form,
)
from specact.errors import BudgetExceededError
from specact.rng import make_rng


class TestActionExact:
    def test_zero_perturbation(self, spec4, mix):
        val = action_exact(spec4, np.zeros((4, 4)), mix)
        assert val == pytest.approx(float(np.sum(mix(spec4.eigenvalues))), rel=1e-15)

    def test_unitary_invariance(self, spec4, herm4, mix, rng):
        base = action_exact(spec4, herm4, mix)
        x = random_hermitian(4, rng)
        w, v = np.linalg.eigh(x)
        d = np.diag(spec4.eigenvalues).astype(complex)
        rotated_total = v.conj().T @ (d + herm4) @ v
        mu = np.linalg.eigvalsh(rotated_total)
        assert float(np.sum(mix(mu))) == pytest.approx(base, rel=1e-12)

    def test_scalar_case(self, mix):
        spec = Spectrum(np.array([0.4]))
        assert action_exact(spec, np.array([[0.3]]), mix) == pytest.approx(
            mix(0.7), rel=1e-14)


class TestTaylorTerm:
    def test_order_zero(self, spec4, herm4, mix):
        assert taylor_term(0, spec4, herm4, mix) == pytest.approx(
            float(np.sum(mix(spec4.eigenvalues))), rel=1e-15)

    def test_order_one_is_diagonal_sum(self, spec4, herm4, mix):
        expected = float(np.sum(np.diagonal(herm4).real
                                * mix.deriv(1, spec4.eigenvalues)))
        assert taylor_term(1, spec4, herm4, mix) == pytest.approx(
            expected, rel=1e-13)

    def test_scalar_collapses_to_derivatives(self, mix):
        # N=1: order n is f^(n)(lam) a^n / n!
        spec = Spectrum(np.array([0.4]))
        a = np.array([[0.3]])
        for n in range(1, 5):
            expected = mix.deriv(n, 0.4) * 0.3**n / math.factorial(n)
            assert taylor_term(n, spec, a, mix) == pytest.approx(
                expected, rel=1e-10)

    def test_theorem_form_ratio(self, spec4, herm4, mix):
        for n in range(1, 5):
            direct = taylor_term(n, spec4, herm4, mix)
            theorem = taylor_term_theorem_form(n, spec4, herm4, mix)
            assert theorem == pytest.approx(n * direct, rel=1e-11)

    def test_bracket_form_agrees(self, spec4, herm4, mix):
        for n in range(1, 5):
            direct = taylor_term(n, spec4, herm4, mix)
            br = taylor_term_bracket_form(n, spec4, herm4, mix.measure)
            assert br == pytest.approx(direct, abs=1e-10 * max(1, abs(direct)))

    def test_contour_agrees(self, spec4, herm4, mix):
        contour = CircleContour.enclosing(spec4)
        for n in range(1, 5):
            direct = taylor_term(n, spec4, herm4, mix)
            ct = taylor_term_contour(n, spec4, herm4, mix, contour=contour)
            assert ct == pytest.approx(direct, abs=1e-9 * max(1, abs(direct)))

    def test_contour_default_encloses(self, spec4, herm4, mix):
        val = taylor_term_contour(2, spec4, herm4, mix)
        assert val == pytest.approx(taylor_term(2, spec4, herm4, mix),
                                    abs=1e-9)

    def test_fd_agrees(self, spec4, herm4, mix):
        for n in range(1, 4):
            direct = taylor_term(n, spec4, herm4, mix)
            fd = gateaux_fd(n, spec4, herm4, mix, h=0.05)
            assert fd == pytest.approx(direct, abs=1e-5 * max(1, abs(direct)))

    def test_degenerate_spectrum_fd(self, mix, rng):
        spec = dirac_circle_spectrum(4)
        a = random_hermitian(4, rng, norm=0.5)
        for n in range(1, 4):
            direct = taylor_term(n, spec, a, mix)
            fd = gateaux_fd(n, spec, a, mix, h=0.05)
            assert fd == pytest.approx(direct, abs=1e-4 * max(1, abs(direct)))

    def test_budget_guard(self, mix):
        spec = linear_spectrum(40)
        a = np.eye(40)
        with pytest.raises(BudgetExceededError):
            taylor_term(5, spec, a, mix, budget=10_000_000)

    @pytest.mark.parametrize("route", ["dd", "theorem", "bracket"])
    def test_expand_checks_budget_before_any_work(self, mix, route, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a divided-difference table was built")

        monkeypatch.setattr(MultisetDivDiff, "__init__", refuse)
        spec = linear_spectrum(6)
        a = np.eye(6)
        # 6^3 = 216 tuples at order 3 (bracket: 6^4), over a budget of 100
        with pytest.raises(BudgetExceededError):
            expand(spec, a, mix, 3, route=route, budget=100)

    def test_real_output_for_hermitian_input(self, spec4, rng):
        mix = make_gaussian_mixture([(1.0, 1.0)])
        a = random_hermitian(4, rng, norm=1.0)
        for n in range(1, 5):
            val = taylor_term(n, spec4, a, mix)
            assert isinstance(val, float)

    def test_rejects_negative_order(self, spec4, herm4, mix):
        with pytest.raises(ValueError):
            taylor_term(-1, spec4, herm4, mix)

    def test_rejects_non_hermitian(self, spec4, mix):
        with pytest.raises(ValueError):
            taylor_term(1, spec4, np.array([[0, 1], [0, 0]]), mix)


class TestRouteAgreement:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_all_routes_random_instances(self, seed):
        rng = make_rng(seed)
        dim = int(rng.integers(2, 5))
        spec = random_spectrum(dim, 2.0, rng)
        a = random_hermitian(dim, rng, norm=0.5)
        mix = make_gaussian_mixture([(1.0, 1.0)])
        contour = CircleContour.enclosing(spec)
        for n in range(1, 4):
            dd = taylor_term(n, spec, a, mix)
            routes = [
                taylor_term_theorem_form(n, spec, a, mix) / n,
                taylor_term_bracket_form(n, spec, a, mix.measure),
                taylor_term_contour(n, spec, a, mix, contour=contour),
            ]
            scale = max(1.0, abs(dd))
            for other in routes:
                assert abs(other - dd) <= 1e-8 * scale
            fd = gateaux_fd(n, spec, a, mix, h=0.05)
            assert abs(fd - dd) <= 1e-4 * scale


class TestExpand:
    def test_zero_perturbation_remainder_zero(self, spec4, mix):
        report = expand(spec4, np.zeros((4, 4)), mix, n_max=3)
        assert report.contributions[1:] == (0.0, 0.0, 0.0)
        assert report.exact == pytest.approx(report.contributions[0], rel=1e-15)
        assert all(r <= 1e-14 for r in report.scaled_remainders)
        assert report.scaling_exponent is None

    def test_scalar_partial_sums(self, mix):
        spec = Spectrum(np.array([0.4]))
        a = np.array([[0.05]])
        report = expand(spec, a, mix, n_max=6)
        assert report.n_max == 6
        total = sum(report.contributions)
        assert total == pytest.approx(mix(0.45), abs=1e-10)

    def test_small_perturbation_exponent(self, mix_single):
        spec = linear_spectrum(8)
        rng = make_rng(3)
        a = random_hermitian(8, rng, norm=0.1)
        report = expand(spec, a, mix_single, n_max=6)
        remainder = abs(report.exact - sum(report.contributions))
        assert remainder <= 1e-6 * max(abs(report.exact), 1e-30)
        assert report.scaling_exponent is not None
        assert report.scaling_exponent >= 6.5

    def test_routes_share_report_shape(self, spec4, herm4, mix):
        for route in ("dd", "theorem", "bracket", "contour", "fd"):
            report = expand(spec4, 0.3 * herm4, mix, n_max=2, route=route)
            assert report.route == route
            assert len(report.contributions) == 3

    def test_csv_rows_structure(self, spec4, herm4, mix):
        report = expand(spec4, 0.2 * herm4, mix, n_max=2)
        rows = report.csv_rows()
        assert len(rows) == 3
        assert rows[0]["order"] == 0
        partial = 0.0
        for row in rows:
            partial += row["contribution"]
            assert row["partial_sum"] == pytest.approx(partial, rel=1e-15)
            assert row["remainder"] == pytest.approx(
                abs(report.exact - partial), abs=1e-12)

    def test_text_summary_mentions_route(self, spec4, herm4, mix):
        report = expand(spec4, 0.2 * herm4, mix, n_max=1)
        assert "dd" in report.text_summary()

    def test_unknown_route_rejected(self, spec4, herm4, mix):
        with pytest.raises(ValueError):
            expand(spec4, herm4, mix, n_max=1, route="magic")

    def test_bracket_route_needs_measure(self, spec4, herm4):
        from specact.functions import SmoothFunction
        bare = SmoothFunction(eval_fn=np.exp,
                              deriv_fn=lambda k, x: np.exp(x), max_order=None)
        with pytest.raises(ValueError):
            expand(spec4, herm4, bare, n_max=1, route="bracket")


class TestEpsilonCombinatorics:
    def test_order_zero_and_small(self):
        assert [e.bits for e in epsilon_enumerate(0)] == [()]
        assert [e.bits for e in epsilon_enumerate(1)] == [(0,)]
        two = {e.bits for e in epsilon_enumerate(2)}
        assert two == {(1,), (0, 0)}

    def test_order_and_k_bounds(self):
        for n in range(1, 9):
            for e in epsilon_enumerate(n):
                assert e.order == n
                # k ones among length-k strings: n = k + #ones
                assert e.k <= n <= 2 * e.k

    def test_fibonacci_counts(self):
        counts = [len(epsilon_enumerate(n)) for n in range(10)]
        assert counts == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_parent_moves_always_n_plus_one(self):
        for n in range(1, 9):
            for child in epsilon_enumerate(n):
                assert epsilon_parent_move_count(child) == n

    def test_rejects_empty_child(self):
        with pytest.raises(ValueError):
            epsilon_parent_move_count(())

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            EpsilonMultiIndex((0, 2))


class TestTadpole:
    def test_zero_diagonal_vanishes(self, spec4, mix, rng):
        b = random_hermitian(4, rng)
        a = one_form(spec4, [(np.eye(4), b)])
        assert abs(tadpole_check(spec4, a, mix)) <= 1e-12

    def test_commutator_direction_vanishes(self, spec4, mix, rng):
        x = random_hermitian(4, rng)
        a = commutator_with_d(spec4, x)
        assert abs(tadpole_check(spec4, a, mix)) <= 1e-12

    def test_matches_order_one_term(self, spec4, herm4, mix):
        assert tadpole_check(spec4, herm4, mix) == pytest.approx(
            taylor_term(1, spec4, herm4, mix), rel=1e-12)

    def test_matches_fd(self, spec4, herm4, mix):
        assert tadpole_check(spec4, herm4, mix) == pytest.approx(
            gateaux_fd(1, spec4, herm4, mix, h=0.02), abs=1e-7)


class TestMixedGateaux:
    def test_symmetry(self, spec4, mix, rng):
        a = random_hermitian(4, rng, norm=0.5)
        b = random_hermitian(4, rng, norm=0.5)
        ab = gateaux_fd_mixed(spec4, a, b, mix)
        ba = gateaux_fd_mixed(spec4, b, a, mix)
        assert ab == pytest.approx(ba, abs=1e-7)

    def test_diagonal_matches_second_term(self, spec4, herm4, mix):
        # D_{A,A} phi = 2 * (order-2 Taylor coefficient)
        mixed = gateaux_fd_mixed(spec4, herm4, herm4, mix)
        assert mixed == pytest.approx(2.0 * taylor_term(2, spec4, herm4, mix),
                                      abs=1e-5)


class TestCircleContour:
    def test_enclosing_covers_spectrum(self, spec4):
        c = CircleContour.enclosing(spec4, margin=1.0)
        lam = spec4.eigenvalues
        assert c.center == pytest.approx((lam[0] + lam[-1]) / 2.0)
        assert c.radius >= (lam[-1] - lam[0]) / 2.0 + 1.0 - 1e-12
        assert len(c.nodes()) == c.points

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            CircleContour(center=0.0, radius=0.0)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            CircleContour(center=0.0, radius=1.0, points=1)
