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
    dd_contour,
    dirac_circle_spectrum,
    epsilon_enumerate,
    epsilon_parent_move_count,
    exp_decay,
    expand,
    gateaux_fd,
    gateaux_fd_mixed,
    linear_spectrum,
    make_gaussian_mixture,
    one_form,
    polynomial_function,
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
from specact.operator_model import _trace_of, require_hermitian
from specact.spectral_action import ROUTES, _contour_orders, _resolvent_traces


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Patch owner.name with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


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
        for n in range(1, 5):
            direct = taylor_term(n, spec4, herm4, mix)
            ct = taylor_term_contour(n, spec4, herm4, mix)
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
        # 6^3 = 216 tuples at order 3 on every route, over a budget of 100
        with pytest.raises(BudgetExceededError):
            expand(spec, a, mix, 3, route=route, budget=100)

    def test_contour_checks_budget_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("contour nodes were built")

        monkeypatch.setattr(CircleContour, "nodes", refuse)
        spec = linear_spectrum(64)
        a = np.eye(64)
        # at t = 1e6 the ellipse needs 512 * 2032 points, and 64^2 entries
        # each at order 1 already exceed the contour's budget
        f = make_gaussian_mixture([(1e6, 1.0)])
        assert CircleContour.enclosing(spec, f).points == 512 * 2032
        with pytest.raises(BudgetExceededError):
            taylor_term_contour(1, spec, a, f)
        with pytest.raises(BudgetExceededError):
            expand(spec, a, f, 3, route="contour")

    def test_bracket_route_sums_dim_to_the_n(self, mix):
        # order 3 at N = 6: 6^3 = 216 tuples, within a budget of 1000 that
        # 6^4 = 1296 would exceed
        spec = linear_spectrum(6)
        a = random_hermitian(6, make_rng(5), norm=0.5)
        dd = taylor_term(3, spec, a, mix)
        br = taylor_term_bracket_form(3, spec, a, mix.measure, budget=1000)
        assert abs(br - dd) <= 1e-8 * abs(dd)
        rep = expand(spec, a, mix, 3, route="bracket", budget=1000)
        assert rep.contributions[3] == br

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
        reports = {route: expand(spec, a, mix, 3, route=route) for route in ROUTES}
        for n in range(1, 4):
            dd = taylor_term(n, spec, a, mix)
            routes = {
                "theorem": taylor_term_theorem_form(n, spec, a, mix) / n,
                "bracket": taylor_term_bracket_form(n, spec, a, mix.measure),
                "contour": taylor_term_contour(n, spec, a, mix),
            }
            scale = max(1.0, abs(dd))
            for other in routes.values():
                assert abs(other - dd) <= 1e-8 * scale
            fd = gateaux_fd(n, spec, a, mix, h=0.05)
            assert abs(fd - dd) <= 1e-4 * scale
            # expand's all-orders pass gives each per-order value bit for bit
            for route, value in dict(routes, dd=dd, fd=fd).items():
                assert reports[route].contributions[n] == value, (route, n)


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
        # one shared table gives each order's value bit for bit
        for n in range(1, 7):
            assert report.contributions[n] == taylor_term(n, spec, a, mix_single), n
        # and one shared table per atom on the bracket route
        bracket = expand(spec, a, mix_single, n_max=6, route="bracket")
        for n in range(1, 7):
            ref = taylor_term_bracket_form(n, spec, a, mix_single.measure)
            assert bracket.contributions[n] == ref, n
        remainder = abs(report.exact - sum(report.contributions))
        assert remainder <= 1e-6 * max(abs(report.exact), 1e-30)
        assert report.scaling_exponent is not None
        assert report.scaling_exponent >= 6.5

    def test_exact_action_reused_at_scale_one(self, spec4, herm4, mix, monkeypatch):
        # the exact action plus the scales 1/2 and 1/4; scale 1 reuses it
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(h):
            calls.append(h)
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = expand(spec4, 0.3 * herm4, mix, n_max=2, route="dd")
        assert len(calls) == 3
        assert report.scaled_remainders[0] == abs(report.exact - sum(report.contributions))

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
        bare = SmoothFunction(ladder_fn=lambda k, x: [np.exp(x)] * (k + 1))
        with pytest.raises(ValueError):
            expand(spec4, herm4, bare, n_max=1, route="bracket")

    def test_bracket_form_needs_measure(self, spec4, herm4):
        with pytest.raises(ValueError, match="measure"):
            taylor_term_bracket_form(1, spec4, herm4, None)

    def test_fd_solves_each_stencil_point_once(self, spec4, herm4, mix, monkeypatch):
        calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        expand(spec4, 0.3 * herm4, mix, n_max=2, route="fd", fd_step=0.05)
        # steps h/2 and h (h = 0.05) put order 1 at u = +-h/4, +-h/2 and
        # order 2 at u = h/2, 0, -h/2 and h, 0, -h: 7 distinct u, one solve
        # for each of the 6 nonzero ones (phi(0) is summed over the
        # spectrum); then the exact action and the scales 1/2 and 1/4
        # (scale 1 reuses the exact action): 6 + 1 + 2 = 9
        assert len(calls) == 9

    @pytest.mark.parametrize("family", ["random", "dirac", "repeated-half-integer"])
    def test_fd_phi_at_zero_equals_the_solve(self, mix, family):
        # the fd route takes phi(0) from the spectrum; a solve of the
        # diagonal D + 0 A returns the spectrum unchanged, so the two agree
        # bit for bit
        for dim in (1, 2, 7, 64, 512):
            rng = make_rng(dim)
            if family == "random":
                spec = random_spectrum(dim, 4.0, rng)
            elif family == "dirac":
                spec = dirac_circle_spectrum(dim)
            else:
                spec = Spectrum.from_values([k // 2 + 0.5 for k in range(dim)])
            a = random_hermitian(dim, rng, norm=0.5)
            solved = _trace_of(mix, np.diag(spec.eigenvalues) + 0.0 * a)
            assert solved == taylor_term(0, spec, a, mix), (family, dim)

    def test_expand_validates_a_once(self, spec4, herm4, mix, monkeypatch):
        import specact.spectral_action as sa

        calls = _count_calls(monkeypatch, sa, "require_hermitian")
        a = 0.3 * herm4
        report = expand(spec4, a, mix, n_max=2, route="fd")
        assert len(calls) == 1
        # S_0 and the exact actions come out as the per-call functions give them
        monkeypatch.undo()
        assert report.contributions[0] == taylor_term(0, spec4, a, mix)
        assert report.exact == action_exact(spec4, a, mix)
        partial = [sum(c * eps**k for k, c in enumerate(report.contributions))
                   for eps in report.scaling_factors]
        exact = [action_exact(spec4, eps * a, mix) for eps in report.scaling_factors]
        assert report.scaled_remainders == tuple(abs(e - p) for e, p in zip(exact, partial))

    def test_contour_builds_one_contour_for_all_orders(self, spec4, herm4, mix, monkeypatch):
        calls = _count_calls(monkeypatch, CircleContour, "real_integral")
        expand(spec4, 0.3 * herm4, mix, n_max=4, route="contour")
        # one quadrature over one ellipse, whose running resolvent power
        # gives orders 1..4
        assert len(calls) == 1

    @pytest.mark.parametrize("route, atoms", [
        ("theorem", [(1.0, 1.0), (0.5, 0.6)]),
        ("bracket", [(1.0, 1.0), (0.5, 0.6), (2.0, -0.3)]),
    ], ids=["theorem", "bracket"])
    def test_theorem_builds_one_table_for_all_orders(self, spec4, herm4, route, atoms,
                                                     monkeypatch):
        mix = make_gaussian_mixture(atoms)
        calls = _count_calls(monkeypatch, MultisetDivDiff, "__init__")
        expand(spec4, 0.3 * herm4, mix, n_max=3, route=route)
        # S_0 needs no table; one table (of f, or of g with f(x) = g(x^2)
        # whatever the atom count) serves the doubled tensors of orders
        # 1, 2 and 3
        assert len(calls) == 1

    def test_bracket_route_reads_the_square_companion(self, spec4, herm4, mix, monkeypatch):
        from specact.functions import SmoothFunction
        # f = g(x^2) without its measure: the bracket route needs only g
        bare = SmoothFunction(ladder_fn=mix.ladder_fn, square_companion=mix.square_companion)
        bracket = expand(spec4, 0.3 * herm4, bare, n_max=4, route="bracket")
        dd = expand(spec4, 0.3 * herm4, mix, n_max=4, route="dd")
        for n in range(1, 5):
            ref = dd.contributions[n]
            assert abs(bracket.contributions[n] - ref) <= 1e-10 * max(1.0, abs(ref)), n
        # a function with no g is refused before any table is built
        calls = _count_calls(monkeypatch, MultisetDivDiff, "__init__")
        with pytest.raises(ValueError, match="measure"):
            expand(spec4, herm4, polynomial_function([1.0, 0.0, -0.5]), n_max=2,
                   route="bracket")
        assert calls == []


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

    def test_rejects_wrong_size_or_nonfinite(self, spec4, mix):
        # linear, so non-Hermitian directions are fine, but not bad shapes
        for bad in (np.eye(3), np.eye(1), np.full((4, 4), np.nan)):
            with pytest.raises(ValueError):
                tadpole_check(spec4, bad, mix)


class TestStepAndScaleChecks:
    CALLS = {
        "gateaux_fd": lambda spec, a, f, x: gateaux_fd(2, spec, a, f, h=x),
        "gateaux_fd_mixed": lambda spec, a, f, x: gateaux_fd_mixed(spec, a, a, f, h=x),
        "expand_fd_step": lambda spec, a, f, x: expand(spec, a, f, 2, route="fd", fd_step=x),
        "expand_scaling": lambda spec, a, f, x: expand(spec, a, f, 2, scaling_factors=(1.0, x)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -0.05])
    def test_rejected_before_any_eigen_solve(self, spec4, herm4, mix, monkeypatch, call, value):
        solves = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        with pytest.raises(ValueError, match="finite and positive"):
            self.CALLS[call](spec4, herm4, mix, value)
        assert solves == []

    @pytest.mark.parametrize("call", ["gateaux_fd", "gateaux_fd_mixed", "expand_fd_step"])
    @pytest.mark.parametrize("step", [1e308, 1e-200])
    def test_stencil_scale_must_be_representable(self, spec4, herm4, mix, call, step):
        # an order-2 stencil divides by (h/2)^2, which overflows or underflows
        with pytest.raises(ValueError, match="finite and positive"):
            self.CALLS[call](spec4, herm4, mix, step)

    def test_scaling_factor_power_must_not_overflow(self, spec4, herm4, mix, monkeypatch):
        # the order-2 partial sum takes 1e300^2
        solves = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        with pytest.raises(ValueError, match="overflows at power 2"):
            self.CALLS["expand_scaling"](spec4, herm4, mix, 1e300)
        assert solves == []

    def test_tiny_scaling_factor_accepted(self, spec4, herm4, mix):
        # its powers underflow to 0, which the partial sums can take
        report = self.CALLS["expand_scaling"](spec4, herm4, mix, 1e-300)
        assert report.scaling_factors == (1.0, 1e-300)
        assert all(math.isfinite(r) for r in report.scaled_remainders)


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
    def test_enclosing_covers_spectrum(self, spec4, mix):
        c = CircleContour.enclosing(spec4, mix)
        lam = spec4.eigenvalues
        assert c.center == pytest.approx((lam[0] + lam[-1]) / 2.0)
        assert c.radius >= (lam[-1] - lam[0]) / 2.0 + 1.0 - 1e-12
        assert len(c.nodes()) == c.points

    def test_default_contour_on_wide_spectrum(self):
        # a circle around 16 unit-spaced eigenvalues has radius 8.5, where
        # |e^{-z^2}| reaches e^72 and swamps the result; on the default
        # ellipse it stays below e
        spec = linear_spectrum(16)
        a = random_hermitian(16, make_rng(3), norm=0.5)
        f = make_gaussian_mixture([(1.0, 1.0)])
        for n in range(1, 4):
            dd = taylor_term(n, spec, a, f)
            assert abs(taylor_term_contour(n, spec, a, f) - dd) <= 1e-12 * abs(dd)

    @pytest.mark.parametrize("dim,t", [(8, 40.0), (64, 1.0), (8, 1e-4)])
    def test_contour_sized_from_spectrum_and_atom(self, dim, t):
        # a 512-point ellipse with imaginary semi-axis 1 fails the first two:
        # there e^{-40 z^2} reaches e^40, and at N = 64 a/b = 32.5 outruns
        # 512 points; a wide atom keeps semi-axis 1, where 1/sqrt(t) = 100
        # would leave the trapezoid rule an analytic strip only 1/100 wide
        spec = linear_spectrum(dim)
        a = random_hermitian(dim, make_rng(3), norm=0.5)
        f = make_gaussian_mixture([(t, 1.0)])
        for n in range(1, 4):
            dd = taylor_term(n, spec, a, f)
            assert abs(taylor_term_contour(n, spec, a, f) - dd) <= 1e-9 * abs(dd)

    @pytest.mark.parametrize("t", [1.0, 40.0])
    @pytest.mark.parametrize("dim", [1, 3, 12])
    def test_paired_traces_equal_running_powers(self, dim, t):
        # tr M^n from M^ceil(n/2) and M^floor(n/2) against the running
        # power M^n, relative to each order's largest trace
        rng = make_rng(dim)
        spec = random_spectrum(dim, 3.0, rng)
        a = require_hermitian(random_hermitian(dim, rng, norm=0.5))
        z = CircleContour.enclosing(spec, make_gaussian_mixture([(t, 1.0)])).nodes()
        orders = list(range(1, 8))
        paired = _resolvent_traces(orders, a, spec.eigenvalues, z)
        m = a[None, :, :] / (z[:, None] - spec.eigenvalues[None, :])[:, None, :]
        power = m
        for n in orders:
            running = np.einsum("pii->p", power)
            assert np.max(np.abs(paired[n - 1] - running)) <= 1e-13 * np.max(np.abs(running))
            power = power @ m
        # a lone order takes the same products as the order inside a run
        for n in orders:
            assert np.array_equal(_resolvent_traces([n], a, spec.eigenvalues, z)[0],
                                  paired[n - 1])

    def test_circle_has_equal_semi_axes(self):
        c = CircleContour(center=0.5, radius=2.0, points=8)
        assert c.imag_radius == 2.0
        assert np.allclose(np.abs(c.nodes() - 0.5), 2.0, rtol=1e-15)
        assert np.allclose(c.weights(), c.nodes() - 0.5, rtol=0, atol=1e-15)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            CircleContour(center=0.0, radius=0.0)

    def test_rejects_bad_imag_radius(self):
        with pytest.raises(ValueError):
            CircleContour(center=0.0, radius=1.0, imag_radius=0.0)

    def test_rejects_too_few_points(self):
        # a fractional count spaces the angles unevenly; a bool is no count
        for points in (1, 2.5, 256.5, True):
            with pytest.raises(ValueError):
                CircleContour(center=0.0, radius=1.0, points=points)


# the folded rule against the whole-ellipse trapezoid mean, and the copies
# of the fold weights c_k that the comparison must catch
FOLD_TOL = 1e-13
FOLD_ORDERS = (1, 2, 3, 4)
FOLD_MUTANTS = {
    "exact": None,
    "factor-2-dropped": lambda c: np.ones_like(c),
    "theta-0-doubled": lambda c: np.concatenate(([2.0], c[1:])),
    "theta-pi-doubled": lambda c: np.concatenate((c[:-1], [2.0])),
}


def _full_mean(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re mean(g) and mean |g| over the whole ellipse, along the last axis."""
    return g.mean(axis=-1).real, np.abs(g).mean(axis=-1)


@pytest.fixture(scope="module")
def resolvent_fold_cases():
    """(spec, A, f, full-ellipse value, mean |g|) per order, for linear,
    random and pairwise-repeated spectra at N = 1, 2, 8, 64 and a
    one-atom Gaussian at t = 1e-4, 1, 40."""
    cases = []
    for dim in (1, 2, 8, 64):
        rng = make_rng(dim)
        a = require_hermitian(random_hermitian(dim, rng, norm=0.5))
        pairs = np.repeat(rng.uniform(-2.0, 2.0, (dim + 1) // 2), 2)[:dim]
        spectra = (linear_spectrum(dim), random_spectrum(dim, 3.0, rng),
                   Spectrum(np.sort(pairs)))
        for t in (1e-4, 1.0, 40.0):
            f = make_gaussian_mixture([(t, 1.0)])
            for spec in spectra:
                contour = CircleContour.enclosing(spec, f)
                z = contour.nodes()
                g = (f.deriv_complex(1, z) * _resolvent_traces(FOLD_ORDERS, a, spec.eigenvalues, z)
                     * contour.weights() / np.array(FOLD_ORDERS)[:, None])
                cases.append((spec, a, f, *_full_mean(g)))
    return cases


@pytest.fixture(scope="module")
def divdiff_fold_cases():
    """(f, nodes, circle, full-circle value, mean |g|) for 20 node sets,
    some with repeated nodes, at each of 63, 64, 255, 256 and 257 points.
    No steep atom: at t = 40 a circle of radius 2 meets |f| = e^160, and
    the whole circle's nodes, mirrored only to 1.5e-15, move that
    reference by 1e-13 of mean |g|."""
    rng = make_rng(14)
    functions = (make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)]),
                 make_gaussian_mixture([(4.0, 1.0)]), exp_decay(1.5),
                 polynomial_function([0.5, -1.0, 0.0, 2.0, 0.25]))
    cases = []
    for points in (63, 64, 255, 256, 257):
        for k in range(20):
            nodes = rng.uniform(-1.0, 1.0, 1 + k % 5)
            nodes = np.concatenate((nodes, nodes[: k % 3]))
            center = float(rng.uniform(-0.5, 0.5))
            circle = CircleContour(center, float(np.max(np.abs(nodes - center))) + 1.0, points)
            f = functions[k % len(functions)]
            z = circle.nodes()
            g = f.eval_complex(z) * circle.weights() / np.prod(z[:, None] - nodes[None, :], axis=1)
            cases.append((f, nodes, circle, *_full_mean(g)))
    return cases


def _worst_fold_error(monkeypatch, mutant: str, cases, folded) -> float:
    """max |folded - full| / mean |g| over the cases, with the fold weights
    replaced by the named mutant."""
    with monkeypatch.context() as m:
        if FOLD_MUTANTS[mutant] is not None:
            exact = CircleContour._fold_weights
            m.setattr(CircleContour, "_fold_weights",
                      lambda self: FOLD_MUTANTS[mutant](exact(self)))
        return max(float(np.max(np.abs(np.asarray(folded(*case[:3])) - case[3]) / case[4]))
                   for case in cases)


class TestFoldedQuadrature:
    """The upper-half rule equals the whole-ellipse trapezoid sum up to
    rounding, and a copy that drops the factor 2 or doubles an end node
    is caught."""

    @pytest.mark.parametrize("mutant", FOLD_MUTANTS)
    def test_contour_orders_fold_equals_full_ellipse(self, resolvent_fold_cases, monkeypatch,
                                                     mutant):
        # a mutant caught below N = 64 fails the whole sweep, so it skips
        # the N = 64 cases, which hold most of the sweep's work
        cases = [case for case in resolvent_fold_cases
                 if mutant == "exact" or case[0].dim < 64]
        worst = _worst_fold_error(
            monkeypatch, mutant, cases,
            lambda spec, a, f: _contour_orders(FOLD_ORDERS, spec, a, f))
        assert (worst <= FOLD_TOL) == (mutant == "exact"), worst

    @pytest.mark.parametrize("mutant", FOLD_MUTANTS)
    def test_dd_contour_fold_equals_full_circle(self, divdiff_fold_cases, monkeypatch, mutant):
        worst = _worst_fold_error(
            monkeypatch, mutant, divdiff_fold_cases,
            lambda f, nodes, circle: dd_contour(f, nodes, circle.center, circle.radius,
                                                circle.points))
        assert (worst <= FOLD_TOL) == (mutant == "exact"), worst
