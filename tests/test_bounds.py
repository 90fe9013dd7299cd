import math

import numpy as np
import pytest

from specact import (
    BoundReport,
    Spectrum,
    bracket_dd,
    getzler_szenes_check,
    holder_estimate_check,
    linear_spectrum,
    random_hermitian,
    random_spectrum,
    simplex_bound_check,
)
from specact.rng import make_rng


class TestBoundReport:
    def test_margin(self):
        r = BoundReport(lhs=1.0, rhs=3.0)
        assert r.margin == 2.0
        assert r.passed

    def test_three_sigma_window(self):
        assert BoundReport(lhs=1.2, rhs=1.0, mc_stderr=0.1).passed
        assert not BoundReport(lhs=1.5, rhs=1.0, mc_stderr=0.1).passed

    def test_infinite_rhs_passes(self):
        assert BoundReport(lhs=5.0, rhs=math.inf).passed

    def test_exact_equality_passes(self):
        assert BoundReport(lhs=2.0, rhs=2.0).passed


class TestSimplexBound:
    def test_k_zero_is_inverse_factorial(self):
        # no singular factors: integrand is 1, the volume 1/m! exactly
        r = simplex_bound_check(m=2, k=0, samples=5000, seed=3)
        assert r.lhs == pytest.approx(0.5, rel=1e-12)
        assert r.rhs == pytest.approx(math.pi**0 / math.factorial(2))
        assert r.passed

    def test_m1_k1_closed_form(self):
        # int_0^1 s^{-1/2} ds = 2 <= pi
        r = simplex_bound_check(m=1, k=1, samples=20_000, seed=5)
        assert abs(r.lhs - 2.0) < 3.0 * max(r.mc_stderr, 1e-12) + 1e-9
        assert r.rhs == pytest.approx(math.pi)
        assert r.passed

    def test_closed_form_agreement(self):
        # proposal is proportional to the integrand, so the estimate equals
        # pi^{k/2} / Gamma(m+1-k/2) up to rounding
        for m, k, seed in [(3, 1, 7), (4, 2, 8), (6, 3, 9), (8, 4, 10)]:
            r = simplex_bound_check(m=m, k=k, samples=4000, seed=seed)
            exact = math.pi ** (k / 2.0) / math.gamma(m + 1 - k / 2.0)
            assert r.lhs == pytest.approx(exact, rel=1e-10)
            assert r.passed

    def test_vacuous_when_k_exceeds_m(self):
        r = simplex_bound_check(m=2, k=3, samples=100, seed=1)
        assert r.rhs == math.inf
        assert r.passed

    def test_three_sigma_grid(self):
        for m in range(1, 9):
            for k in range(0, min(m + 1, 4) + 1):
                r = simplex_bound_check(m=m, k=k, samples=2000,
                                        seed=100 * m + k)
                assert r.passed, (m, k, r.lhs, r.rhs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            simplex_bound_check(m=-1, k=0, samples=10, seed=1)
        with pytest.raises(ValueError):
            simplex_bound_check(m=2, k=4, samples=10, seed=1)
        with pytest.raises(ValueError):
            simplex_bound_check(m=2, k=1, samples=1, seed=1)


class TestHolderEstimate:
    def test_identity_ops_zero_pert_matches_bracket(self, spec4):
        # alphas all zero and A = 0 collapse the lhs to |<1,..,1>_n| / t^n
        t = 1.3
        n = 2
        eye = np.eye(4)
        r = holder_estimate_check(
            spec4, [eye] * (n + 1), alphas=[0] * (n + 1), t=t, eps=0.5,
            samples=150_000, seed=11, perturbation=np.zeros((4, 4)))
        ref = abs(bracket_dd([eye] * (n + 1), spec4, t)) / t**n
        # constant integrand: stderr underflows rounding, allow a few ulps
        assert abs(r.lhs - ref) < 3.0 * r.mc_stderr + 1e-14 * ref
        assert r.passed

    def test_scalar_trivial(self):
        spec = Spectrum(np.array([0.8]))
        r = holder_estimate_check(
            spec, [np.eye(1)], alphas=[0], t=1.0, eps=0.5, samples=100, seed=2)
        # n = 0, A_0 = 1: lhs = e^{-t (lam + 1)^2} exactly
        assert r.lhs == pytest.approx(math.exp(-1.0 * (0.8 + 1.0) ** 2), rel=1e-12)
        assert r.passed

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_single_operator_is_the_trace(self, alpha):
        # n = 0: lhs = |tr A |D_A|^alpha e^{-t D_A^2}| with U* folded onto
        # slot 0 itself; dropping it read 0.142 against 0.116 at alpha = 1
        spec = random_spectrum(4, 2.0, make_rng(1))
        a = random_hermitian(4, make_rng(2), norm=1.0)
        mu, u = np.linalg.eigh(np.diag(spec.eigenvalues) + a)
        ref = abs(np.trace(a @ u @ np.diag(np.abs(mu) ** alpha * np.exp(-0.5 * mu * mu))
                           @ u.conj().T))
        r = holder_estimate_check(spec, [a], [alpha], t=0.5, eps=0.5, samples=10, seed=1)
        assert r.lhs == pytest.approx(ref, rel=1e-12)

    def test_random_instances_pass(self, rng):
        for trial in range(10):
            dim = int(rng.integers(2, 6))
            spec = random_spectrum(dim, 2.0, rng)
            n = int(rng.integers(1, 4))
            ops = [random_hermitian(dim, rng, norm=1.0) for _ in range(n + 1)]
            alphas = [int(rng.integers(0, 2)) for _ in range(n + 1)]
            t = float(rng.uniform(0.3, 1.5))
            eps = float(rng.uniform(0.2, 0.8))
            r = holder_estimate_check(spec, ops, alphas, t, eps,
                                      samples=40_000, seed=300 + trial)
            assert r.passed, (trial, r.lhs, r.rhs)

    def test_unitary_invariance(self, rng):
        spec = linear_spectrum(4)
        ops = [random_hermitian(4, rng, norm=1.0) for _ in range(3)]
        alphas = [1, 0, 1]
        base = holder_estimate_check(spec, ops, alphas, t=0.9, eps=0.4,
                                     samples=50_000, seed=17)
        # conjugating every operator by a unitary commuting with D (here a
        # diagonal phase) leaves the trace integrand unchanged
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        w = np.diag(phases)
        rotated = [w.conj().T @ m @ w for m in ops]
        rot = holder_estimate_check(spec, rotated, alphas, t=0.9, eps=0.4,
                                    samples=50_000, seed=17,
                                    perturbation=w.conj().T @ ops[0] @ w)
        assert rot.lhs == pytest.approx(base.lhs, rel=1e-9)

    def test_k_exceeding_n_vacuous(self, spec4, rng):
        ops = [random_hermitian(4, rng, norm=1.0) for _ in range(2)]
        r = holder_estimate_check(spec4, ops, alphas=[1, 1], t=1.0, eps=0.5,
                                  samples=1000, seed=4)
        assert r.rhs == math.inf
        assert r.passed

    def test_parameter_validation(self, spec4):
        eye = np.eye(4)
        with pytest.raises(ValueError):
            holder_estimate_check(spec4, [eye], [0], t=-1.0, eps=0.5,
                                  samples=10, seed=1)
        with pytest.raises(ValueError):
            holder_estimate_check(spec4, [eye], [0], t=1.0, eps=1.5,
                                  samples=10, seed=1)
        with pytest.raises(ValueError):
            holder_estimate_check(spec4, [eye], [0, 0], t=1.0, eps=0.5,
                                  samples=10, seed=1)
        with pytest.raises(ValueError):
            holder_estimate_check(spec4, [eye], [2], t=1.0, eps=0.5,
                                  samples=10, seed=1)

    def test_default_perturbation_must_be_hermitian(self):
        # ops[0] stands in for the perturbation; eigh would read only its
        # lower triangle
        spec = Spectrum(np.array([-1.0, 0.5, 1.2]))
        e01 = np.zeros((3, 3))
        e01[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            holder_estimate_check(spec, [e01, np.eye(3)], [1, 0], t=1.0, eps=0.5,
                                  samples=10, seed=1)

    @pytest.mark.parametrize("pert", [None, np.eye(4)])
    def test_rejects_empty_operator_list(self, spec4, monkeypatch, pert):
        solves = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            solves.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        with pytest.raises(ValueError, match="need at least one operator"):
            holder_estimate_check(spec4, [], [], t=1.0, eps=0.5, samples=10, seed=1,
                                  perturbation=pert)
        assert solves == []


class TestGetzlerSzenes:
    def test_zero_perturbation_positive_margin(self, spec4):
        r = getzler_szenes_check(spec4, np.zeros((4, 4)), t=1.0, eps=0.3)
        # lhs uses (1-eps/2) t, rhs uses the smaller (1-eps) t, so even with
        # no perturbation the margin stays strictly positive
        assert r.passed
        assert r.margin > 0.0

    def test_scalar_case(self):
        spec = Spectrum(np.array([1.0]))
        r = getzler_szenes_check(spec, np.array([[0.5]]), t=0.8, eps=0.4)
        lhs = math.exp(-(1 - 0.2) * 0.8 * 2.25)
        assert r.lhs == pytest.approx(lhs, rel=1e-12)
        assert r.passed

    def test_random_instances(self, rng):
        for trial in range(100):
            dim = int(rng.integers(1, 9))
            spec = random_spectrum(dim, 2.0, rng)
            v = random_hermitian(dim, rng, norm=float(rng.uniform(0.1, 2.0)))
            t = float(rng.uniform(0.1, 3.0))
            eps = float(rng.choice([0.1, 0.5, 0.9]))
            r = getzler_szenes_check(spec, v, t, eps)
            assert r.passed and r.margin > 0.0, (trial, r.lhs, r.rhs)

    def test_margin_monotone_in_norm(self):
        # along the scaled family c V the margin grows with c and converges
        # down to the zero-perturbation slack as c -> 0
        rng = make_rng(42)
        spec = random_spectrum(5, 2.0, rng)
        v = random_hermitian(5, rng, norm=1.0)
        t, eps = 0.9, 0.5
        margins = [getzler_szenes_check(spec, c * v, t, eps).margin
                   for c in (1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(margins, margins[1:]))
        base = getzler_szenes_check(spec, np.zeros((5, 5)), t, eps).margin
        assert margins[0] == pytest.approx(base, rel=1e-3)

    def test_parameter_validation(self, spec4):
        with pytest.raises(ValueError):
            getzler_szenes_check(spec4, np.zeros((4, 4)), t=0.0, eps=0.5)
        with pytest.raises(ValueError):
            getzler_szenes_check(spec4, np.zeros((4, 4)), t=1.0, eps=0.0)
        with pytest.raises(ValueError):
            getzler_szenes_check(spec4, np.zeros((3, 3)), t=1.0, eps=0.5)
