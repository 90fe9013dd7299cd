"""Golden values: scalars pinned in .17g so that a defect moving every route
together (they share the clustering, the contraction and the trace
evaluator) cannot hide behind cross-route agreement.

The analytic values are compared at 1e-12 relative.  The finite-difference
oracle is compared to within its own noise floor, since eigensolver rounding
that varies across BLAS builds is amplified by the difference stencil.
"""

import numpy as np
import pytest

from specact import (
    NodeList,
    Spectrum,
    bracket_dd,
    dd_contour,
    dd_recursive,
    expand,
    fd_noise_floor,
    gateaux_fd,
    make_gaussian_mixture,
    taylor_term,
    taylor_term_bracket_form,
    taylor_term_contour,
    taylor_term_theorem_form,
)

REL = 1e-12

F = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
SPEC = Spectrum(np.array([-1.3, -0.4, 0.7, 1.6]))
A = np.array([
    [0.20, 0.10 - 0.05j, 0.00, 0.03j],
    [0.10 + 0.05j, -0.15, 0.08, 0.00],
    [0.00, 0.08, 0.05, -0.06 + 0.02j],
    [-0.03j, 0.00, -0.06 - 0.02j, 0.10],
])

# order n: dd, theorem (n times the contribution), bracket, contour, fd
ROUTE_VALUES = {
    1: (-0.083278083469985414, -0.083278083469985414, -0.083278083469985414,
        -0.083278083469986885, -0.083278083456151578),
    2: (-0.001347529927395133, -0.0026950598547902591, -0.001347529927395133,
        -0.0013475299273951052, -0.0013475299322607268),
    3: (0.004127922161018701, 0.0123837664830561, 0.004127922161018701,
        0.0041279221610187088, 0.004127922102704751),
    4: (-0.00039591629872137637, -0.0015836651948855068, -0.00039591629872137637,
        -0.00039591629872137561, -0.00039591685485618194),
}


@pytest.mark.parametrize("n", sorted(ROUTE_VALUES))
def test_five_routes(n):
    dd, theorem, bracket, contour, fd = ROUTE_VALUES[n]
    assert taylor_term(n, SPEC, A, F) == pytest.approx(dd, rel=REL)
    assert taylor_term_theorem_form(n, SPEC, A, F) == pytest.approx(theorem, rel=REL)
    assert taylor_term_bracket_form(n, SPEC, A, F.measure) == pytest.approx(bracket, rel=REL)
    assert taylor_term_contour(n, SPEC, A, F) == pytest.approx(contour, rel=REL)
    assert gateaux_fd(n, SPEC, A, F) == pytest.approx(
        fd, rel=REL, abs=fd_noise_floor(n, 0.05, SPEC.dim))


def test_fd_noise_floor():
    assert fd_noise_floor(4, 0.05, 4) == pytest.approx(1.5158245029548802e-08, rel=REL)


def test_expand_on_repeated_eigenvalue():
    rep = expand(Spectrum(np.array([-0.5, -0.5, 0.5, 1.5])), A, F, n_max=4)
    expected = (4.2250874788433608, -0.060838489430810785, -0.060370326831046046,
                -0.0032127259832481565, 0.00056606714938338128)
    assert rep.contributions == pytest.approx(expected, rel=REL)
    assert rep.exact == pytest.approx(4.1013377845165691, rel=REL)


def test_bracket_dd():
    value = bracket_dd([A, A @ A, np.eye(4)], SPEC, 0.7)
    assert value.real == pytest.approx(-0.00032742487562761836, rel=REL)
    assert abs(value.imag) <= 1e-18


def test_dd_contour():
    value = dd_contour(F, [-0.8, 0.1, 0.1, 1.2], center=0.2, radius=2.0, points=256)
    assert value == pytest.approx(0.20832322830331024, rel=REL)


# one case per fill rule: a single node, a confluent node, a narrow span
# (centred series), wide nodes holding a confluent and a narrow pair (Newton
# steps over both), and two nodes 1e-12 apart kept apart
DD_RECURSIVE_VALUES = [
    ([0.4], 1.4060135967981928),
    ([0.3, 0.3, 0.3], -1.0104108844628434),
    ([0.1, 0.2, 0.35, 0.5], 0.56901896735467361),
    ([-1.2, -1.2, -0.3, -0.1, 0.8, 1.7], 0.035475414688660299),
    (NodeList((0.7, 0.7 + 1e-12), merge_tol=0.0), -1.1864128579198991),
]


@pytest.mark.parametrize("nodes, expected", DD_RECURSIVE_VALUES)
def test_dd_recursive(nodes, expected):
    assert dd_recursive(F, nodes) == pytest.approx(expected, rel=REL)
