"""Self-test of the benchmark's tracer: hand-derived call counts, removal of
every wrapper, and bit-identical outputs with and without tracing.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import specact  # noqa: E402
import specact.bounds  # noqa: E402
import specact.cli  # noqa: E402
from specact import (  # noqa: E402
    Spectrum,
    dirac_circle_spectrum,
    expand,
    make_gaussian_mixture,
    random_hermitian,
    taylor_term,
    taylor_term_bracket_form,
)
from tracer import Tracer  # noqa: E402

TWO_ATOMS = [(1.0, 1.0), (0.5, 0.6)]


def _perturbation(dim, seed=3):
    return random_hermitian(dim, np.random.default_rng(seed), norm=0.3)


def _calls(tracer, name):
    return tracer.metrics()[f"{name}.calls"]["value"]


def test_taylor_term_order_2_counts():
    # three distinct eigenvalues: 3 clusters, 3^2 = 9 tuples and
    # C(3 + 1, 2) = 6 distinct multisets, all from one table
    spec = Spectrum(np.array([-1.3, 0.2, 1.1]))
    a = _perturbation(3)
    f = make_gaussian_mixture(TWO_ATOMS)
    tracer = Tracer()
    with tracer:
        taylor_term(2, spec, a, f)
    m = tracer.metrics()
    assert m["divdiff.MultisetDivDiff.init.calls"]["value"] == 1
    assert m["divdiff.MultisetDivDiff.tensor.calls"]["value"] == 1
    assert m["divdiff.MultisetDivDiff.tensor.entries"]["value"] == 9
    assert m["divdiff.MultisetDivDiff.value.calls"]["value"] == 9
    assert m["divdiff.dd_recursive.calls"]["value"] == 6
    assert m["divdiff.evals_per_entry"]["value"] == 6 / 9
    assert m["spectral_action.taylor_term.calls"]["value"] == 1
    assert m["numpy.einsum.calls"]["value"] == 1

    again = Tracer()
    with again:
        taylor_term(2, spec, a, f)
    assert again.counts() == tracer.counts()
    assert again.entries == tracer.entries


def test_bracket_form_order_2_counts():
    # order 2 has the step bitstrings (0, 0) and (1,): one bracket per
    # bitstring and atom
    spec = Spectrum(np.array([-1.3, 0.2, 1.1]))
    f = make_gaussian_mixture(TWO_ATOMS)
    tracer = Tracer()
    with tracer:
        taylor_term_bracket_form(2, spec, _perturbation(3), f.measure)
    assert _calls(tracer, "operator_model.bracket_dd") == 4
    assert _calls(tracer, "divdiff.MultisetDivDiff.init") == 4


def test_expand_fd_counts():
    # fd order 1: 2 steps x 2 points; order 2: 2 steps x 3 points; the
    # exact action plus 3 scaled ones: 4 + 6 + 4 = 14 eigen-solves
    spec = dirac_circle_spectrum(6)
    f = make_gaussian_mixture(TWO_ATOMS)
    tracer = Tracer()
    with tracer:
        expand(spec, _perturbation(6), f, n_max=2, route="fd")
    assert _calls(tracer, "numpy.linalg.eigvalsh") == 14
    assert _calls(tracer, "spectral_action.expand") == 1
    assert _calls(tracer, "spectral_action.gateaux_fd") == 2
    assert _calls(tracer, "spectral_action.action_exact") == 4
    assert _calls(tracer, "divdiff.dd_recursive") == 0


def test_self_time_excludes_children():
    spec = Spectrum(np.array([-1.3, -0.4, 0.7, 1.6]))
    tracer = Tracer()
    with tracer:
        expand(spec, _perturbation(4), make_gaussian_mixture(TWO_ATOMS), n_max=3)
    m = tracer.metrics()
    total = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
    span = tracer._span_end[0] - tracer._span_start[0]
    assert all(v["value"] >= 0.0 for k, v in m.items() if k.endswith(".self_s"))
    # self times partition the outermost span, which is the expand call
    assert tracer.names[tracer._span_name[0]] == "spectral_action.expand"
    assert abs(total - span) <= 1e-9 * max(span, 1.0) + 1e-12


def test_every_binding_wrapped_and_restored():
    bindings = [
        (specact, "taylor_term"),
        (specact.cli, "taylor_term"),
        (specact.spectral_action, "taylor_term"),
        (specact, "dd_recursive"),
        (specact.cli, "dd_recursive"),
        (specact.divdiff, "dd_recursive"),
        (specact, "require_hermitian"),
        (specact.bounds, "require_hermitian"),
        (specact.spectral_action, "require_hermitian"),
        (specact.operator_model, "bracket_dd"),
        (specact.spectral_action, "bracket_dd"),
        (np, "einsum"),
        (np.linalg, "eigvalsh"),
    ]
    methods = [
        (specact.MultisetDivDiff, "__init__"),
        (specact.MultisetDivDiff, "value"),
        (specact.MultisetDivDiff, "tensor"),
        (specact.SmoothFunction, "deriv"),
        (specact.SmoothFunction, "deriv_complex"),
    ]
    before = [getattr(owner, name) for owner, name in bindings]
    before += [owner.__dict__[name] for owner, name in methods]
    with Tracer():
        during = [getattr(owner, name) for owner, name in bindings]
        during += [owner.__dict__[name] for owner, name in methods]
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
        assert len({id(d) for d in during[:3]}) == 1
    after = [getattr(owner, name) for owner, name in bindings]
    after += [owner.__dict__[name] for owner, name in methods]
    assert all(a is b for a, b in zip(after, before))


def _outputs():
    spec = Spectrum(np.array([-1.3, -1.25, 0.2, 1.1]))
    a = _perturbation(4)
    f = make_gaussian_mixture(TWO_ATOMS)
    rep_dd = expand(spec, a, f, n_max=3)
    rep_fd = expand(spec, a, f, n_max=2, route="fd")
    return [
        taylor_term(3, spec, a, f),
        taylor_term_bracket_form(2, spec, a, f.measure),
        *rep_dd.contributions,
        *rep_dd.scaled_remainders,
        rep_dd.exact,
        *rep_fd.contributions,
    ]


def test_traced_outputs_bit_identical():
    plain = _outputs()
    with Tracer():
        traced = _outputs()
    assert np.array_equal(np.array(plain), np.array(traced))


def test_dump_writes_every_span(tmp_path):
    tracer = Tracer()
    with tracer:
        taylor_term(2, Spectrum(np.array([-1.3, 0.2, 1.1])), _perturbation(3),
                    make_gaussian_mixture(TWO_ATOMS))
    path = tmp_path / "spans.npz"
    tracer.dump(path)
    with np.load(path) as spans:
        assert len(spans["name"]) == sum(tracer.calls)
        assert spans["parent"][0] == -1
        assert np.all(spans["end"] >= spans["start"])
