import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import specact
from specact import Spectrum, dd_recursive, make_gaussian_mixture, taylor_term
from specact.cli import main
from specact.errors import BudgetExceededError
from specact.spectral_action import ROUTES


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BASE_CFG = {
    "schema": 1,
    "spectrum": {"kind": "linear", "dim": 4},
    "perturbation": {"kind": "random-hermitian", "norm": 0.3, "seed": 42},
    "function": {"atoms": [{"t": 1.0, "w": 1.0}]},
}


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["expand", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "schema": 1,\n "spectrum": }\n')
        assert main(["expand", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:3:14" in err

    def test_wrong_schema(self, tmp_path, capsys):
        cfg = dict(BASE_CFG, schema=99)
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        cfg = {k: v for k, v in BASE_CFG.items() if k != "perturbation"}
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 2

    def test_unknown_spectrum_kind(self, tmp_path):
        cfg = dict(BASE_CFG, spectrum={"kind": "mystery"})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("section,key,value", [
        ("run", "n_max", "three"),
        ("spectrum", "dim", 0),
        ("run", "budget", -5),
        ("run", "fd_step", 0.0),
        ("run", "remainder_tol", -1),
        ("run", "scaling_factors", [1, "x"]),
        ("run", "remainder_tol", "x"),
        ("perturbation", "seed", True),
        ("spectrum", "dim", "4"),
        ("run", "remainder_tol", 0),
    ])
    def test_bad_number_exits_2(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(json.dumps(BASE_CFG))
        cfg.setdefault(section, {})[key] = value
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{section}.{key}" in err
        # the whole run section is read before the expansion writes anything
        assert not (tmp_path / "expand.csv").exists()

    @pytest.mark.parametrize("command,section,value,where", [
        ("expand", "spectrum", {"kind": "explicit", "values": [1, 2, "a"]}, "spectrum.values"),
        ("expand", "perturbation", {"kind": "explicit", "matrix": [[0.1, 0.0], [0.0, 0.2]]},
         "perturbation"),
        ("expand", "perturbation", {"kind": "explicit", "matrix": [[0, 1, 0, 0], [0, 0, 0, 0],
                                                                   [0, 0, 0, 0], [0, 0, 0, 0]]},
         "perturbation"),
        ("expand", "spectrum", 5, "spectrum"),
        # the draw's range 2 lam_max overflows
        ("expand", "spectrum", {"kind": "random-uniform", "dim": 4, "lam_max": 1e308, "seed": 1},
         "spectrum.lam_max"),
        ("verify", "verify", {"instances": "many", "seed": 1}, "verify.instances"),
        ("verify", "verify", {"instances": -3, "seed": 1}, "verify.instances"),
        ("verify", "verify", {"mc_samples": "lots", "seed": 1}, "verify.mc_samples"),
        # one sample has no stderr to measure the Monte Carlo error in
        ("verify", "verify", {"checks": ["divdiff-triangle"], "instances": 3, "mc_samples": 1,
                              "seed": 7}, "verify.mc_samples"),
        ("verify", "verify", {"dim_max": 1, "seed": 1}, "verify.dim_max"),
        ("verify", "verify", {"seed": True}, "verify.seed"),
        ("bounds", "bounds", {"simplex": {"samples": "lots", "seed": 1}}, "bounds.simplex.samples"),
        ("bench", "bench", {"dims": [0], "seed": 1}, "bench.dims"),
        ("expand", "run", 5, "run"),
        ("expand", "run", {"route": ["dd"]}, "run.route"),
        ("verify", "verify", [1], "verify"),
        ("bench", "bench", [1], "bench"),
        ("bounds", "bounds", {"simplex": 5}, "bounds.simplex"),
        ("expand", "run", {"route": {"a": 1}}, "run.route"),
        ("expand", "perturbation", {"kind": "one-form", "terms": [5]}, "perturbation.terms.0"),
        ("expand", "function", {"atoms": [{"t": True, "w": 1.0}]}, "function.atoms.0.t"),
        ("expand", "function", {"atoms": [{"t": 1.0, "w": "2.5"}]}, "function.atoms.0.w"),
        ("expand", "function", {"atoms": [{"t": 1.0, "w": 1.0}, {"t": -1.0, "w": 1.0}]},
         "function.atoms.1.t"),
        ("expand", "function", {"atoms": [{"w": 1.0}]}, "function.atoms.0"),
        ("expand", "function", {"atoms": [5]}, "function.atoms.0"),
        ("expand", "function", {"atoms": 5}, "function.atoms"),
        ("expand", "function", {"atoms": []}, "function.atoms"),
        ("expand", "run", {"route": 5}, "run.route"),
        ("expand", "run", {"route": "nonsense"}, "run.route"),
        # positive, but a power the expansion takes leaves the float range
        ("expand", "run", {"n_max": 2, "route": "fd", "fd_step": 1e200}, "run.fd_step"),
        ("expand", "run", {"n_max": 2, "scaling_factors": [1.0, 1e300]}, "run.scaling_factors"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, command, section, value, where):
        path = write_cfg(tmp_path / "c.json", dict(BASE_CFG, **{section: value}))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and where in err
        assert not (tmp_path / f"{command}.csv").exists()

    def test_unknown_check_name(self, tmp_path):
        cfg = dict(BASE_CFG, verify={"checks": ["nonsense"], "seed": 1})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 2


class TestExpand:
    def test_zero_order_single_row(self, tmp_path):
        cfg = dict(BASE_CFG, run={"n_max": 0})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "expand.csv")
        assert rows[0] == ["order", "contribution", "partial_sum", "remainder"]
        assert len(rows) == 2
        assert rows[1][0] == "0"
        assert (tmp_path / "expand.txt").exists()

    def test_scalar_matches_library(self, tmp_path):
        cfg = {
            "schema": 1,
            "spectrum": {"kind": "explicit", "values": [0.4]},
            "perturbation": {"kind": "explicit", "matrix": [[0.05]]},
            "function": {"atoms": [{"t": 1.0, "w": 1.0}]},
            "run": {"n_max": 3},
        }
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "expand.csv")
        mix = make_gaussian_mixture([(1.0, 1.0)])
        spec = Spectrum(np.array([0.4]))
        a = np.array([[0.05]])
        for n in range(4):
            got = float(rows[1 + n][1])
            assert got == pytest.approx(taylor_term(n, spec, a, mix), rel=1e-15)

    def test_overflowing_square_prints_nothing(self, tmp_path, capsys):
        # at scale 1e308 the exact action squares eigenvalues past the float
        # range; the Gaussian is exactly 0.0 there, with no warning
        cfg = dict(BASE_CFG, run={"n_max": 1, "scaling_factors": [1.0, 1e308]})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "expand.csv").exists()

    def test_remainder_tolerance_failure_exits_3(self, tmp_path, capsys):
        cfg = dict(BASE_CFG, run={"n_max": 1, "remainder_tol": 1e-30})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 3
        assert "tolerance failure" in capsys.readouterr().err

    def test_route_flag_overrides_config(self, tmp_path):
        cfg = dict(BASE_CFG, run={"n_max": 2, "route": "dd"})
        path = write_cfg(tmp_path / "c.json", cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["expand", "--config", path, "--out", str(out_a)]) == 0
        assert main(["expand", "--config", path, "--out", str(out_b),
                     "--route", "theorem"]) == 0
        rows_a = read_csv(out_a / "expand.csv")
        rows_b = read_csv(out_b / "expand.csv")
        # same numbers within route tolerance, produced along different paths
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            assert float(ra[1]) == pytest.approx(float(rb[1]), abs=1e-10)

    def test_budget_exceeded_exits_4(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "spectrum": {"kind": "linear", "dim": 40},
            "perturbation": {"kind": "random-hermitian", "norm": 0.3, "seed": 2},
            "function": {"atoms": [{"t": 1.0, "w": 1.0}]},
            "run": {"n_max": 5},
        }
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 4
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[0, 1e308], [-1e308, 0, 1e308]])
    def test_contour_route_on_too_wide_spectrum_exits_4(self, tmp_path, capsys, values):
        cfg = dict(BASE_CFG, spectrum={"kind": "explicit", "values": values},
                   perturbation={"kind": "explicit", "matrix": np.eye(len(values)).tolist()},
                   run={"n_max": 2, "route": "contour"})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 4
        assert "budget exceeded" in capsys.readouterr().err
        assert not (tmp_path / "expand.csv").exists()

    def test_explicit_complex_perturbation(self, tmp_path):
        cfg = {
            "schema": 1,
            "spectrum": {"kind": "explicit", "values": [-0.5, 0.5]},
            "perturbation": {"kind": "explicit",
                             "matrix": [[0.1, [0.0, 0.2]], [[0.0, -0.2], 0.0]]},
            "function": {"atoms": [{"t": 1.0, "w": 1.0}]},
            "run": {"n_max": 2},
        }
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0

    def test_one_form_perturbation(self, tmp_path):
        # [D, b] is anti-Hermitian for Hermitian b, so a = iI restores
        # self-adjointness
        b = [[0.0, 0.4, 0.0], [0.4, 0.0, 0.1], [0.0, 0.1, 0.0]]
        i_eye = [[[0.0, 1.0], 0.0, 0.0],
                 [0.0, [0.0, 1.0], 0.0],
                 [0.0, 0.0, [0.0, 1.0]]]
        cfg = {
            "schema": 1,
            "spectrum": {"kind": "linear", "dim": 3},
            "perturbation": {"kind": "one-form", "terms": [{"a": i_eye, "b": b}]},
            "function": {"atoms": [{"t": 1.0, "w": 1.0}]},
            "run": {"n_max": 2},
        }
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "expand.csv")
        # one-forms have zero diagonal: no first-order term
        assert abs(float(rows[2][1])) < 1e-12

    def test_band_perturbation_and_contour_route(self, tmp_path):
        cfg = {
            "schema": 1,
            "spectrum": {"kind": "dirac-circle", "dim": 4},
            "perturbation": {"kind": "band", "norm": 0.2, "bandwidth": 1,
                             "seed": 5},
            "function": {"atoms": [{"t": 1.0, "w": 0.7}, {"t": 2.0, "w": 0.3}]},
            "run": {"n_max": 3, "route": "contour"},
        }
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0

    def test_contour_route_on_steep_atom(self, tmp_path):
        # at t = 40 the contour's imaginary semi-axis shrinks to 1/sqrt(40),
        # where e^{-40 z^2} stays below e
        cfg = {
            "schema": 1,
            "spectrum": {"kind": "linear", "dim": 8},
            "perturbation": {"kind": "random-hermitian", "norm": 0.5, "seed": 3},
            "function": {"atoms": [{"t": 40.0, "w": 1.0}]},
            "run": {"n_max": 3},
        }
        path = write_cfg(tmp_path / "c.json", cfg)
        rows = {}
        for route in ("dd", "contour"):
            assert main(["expand", "--config", path, "--out", str(tmp_path / route),
                         "--route", route]) == 0
            rows[route] = read_csv(tmp_path / route / "expand.csv")[1:]
        for dd, contour in zip(rows["dd"], rows["contour"]):
            assert abs(float(contour[1]) - float(dd[1])) <= 1e-9 * abs(float(dd[1]))


class TestVerify:
    def test_reruns_byte_identical(self, tmp_path):
        cfg = dict(BASE_CFG, verify={
            "seed": 7, "instances": 5, "mc_samples": 20_000})
        path = write_cfg(tmp_path / "c.json", cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["verify", "--config", path, "--out", str(out_a)]) == 0
        assert main(["verify", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "verify.csv").read_bytes() == \
            (out_b / "verify.csv").read_bytes()

    def test_all_default_checks_present(self, tmp_path):
        cfg = dict(BASE_CFG, verify={
            "seed": 7, "instances": 3, "mc_samples": 10_000})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "verify.csv")
        names = {row[0] for row in rows[1:]}
        assert names == {"divdiff-triangle", "chain-square", "derivative-sum",
                         "bracket-identities", "route-agreement",
                         "epsilon-combinatorics"}
        assert all(row[5] == "true" for row in rows[1:])

    def test_empty_check_list_header_only(self, tmp_path):
        cfg = dict(BASE_CFG, verify={"seed": 7, "checks": []})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "verify.csv")
        assert len(rows) == 1

    @pytest.mark.parametrize("check,dim_max,n_max", [
        ("route-agreement", 26, 5),     # 26^5 tuples at order 5
        ("bracket-identities", 57, 3),  # 57^4 tuples in a bracket of order 3
    ])
    def test_budget_checked_before_any_instance(self, tmp_path, capsys, monkeypatch,
                                                check, dim_max, n_max):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was computed")

        def checked_then_refused(plan):
            def stub(*args):
                plan(*args)  # the route's own checks
                return refuse
            return stub

        for route, plan in list(ROUTES.items()):
            monkeypatch.setitem(ROUTES, route, checked_then_refused(plan))
        # every bracket of the identity check reads a table built here
        monkeypatch.setattr(specact.MultisetDivDiff, "__init__", refuse)
        cfg = dict(BASE_CFG, verify={"seed": 7, "checks": [check],
                                     "dim_max": dim_max, "n_max": n_max})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 4
        assert "budget exceeded" in capsys.readouterr().err
        assert not (tmp_path / "verify.csv").exists()

    def test_contour_budget_checked_before_any_instance(self, tmp_path, capsys, monkeypatch):
        # 2400 tuples at order 1 are within the tuple budget, but the widest
        # spectrum the check can draw, 2400 values over [-2, 2], takes 185
        # contour points: 185 x 2400^2 = 1.07e9 entries, over the contour's 10^9
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was computed")

        monkeypatch.setattr(specact.MultisetDivDiff, "__init__", refuse)
        cfg = dict(BASE_CFG, verify={"seed": 7, "checks": ["route-agreement"],
                                     "dim_max": 2400, "n_max": 1})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 4
        assert "budget exceeded: contour needs 185 points" in capsys.readouterr().err
        assert not (tmp_path / "verify.csv").exists()

    def test_plan_checked_once_then_once_per_instance(self, tmp_path, monkeypatch):
        calls = []
        dd = ROUTES["dd"]

        def stub(orders, spec, f, budget, h):
            calls.append(("plan", tuple(orders), tuple(spec.eigenvalues)))
            run = dd(orders, spec, f, budget, h)

            def stub_run(mat):
                calls.append(("run", mat.shape[0]))
                return run(mat)
            return stub_run

        monkeypatch.setitem(ROUTES, "stub", stub)
        cfg = dict(BASE_CFG, verify={"seed": 7, "instances": 3, "dim_max": 4, "n_max": 3,
                                     "checks": ["route-agreement"]})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        # the pre-check reads the largest instance: N = 4 over [-2, 2] at order 3
        assert calls[0] == ("plan", (3,), tuple(np.linspace(-2.0, 2.0, 4)))
        assert [c[0] for c in calls[1:]] == ["plan", "run"] * 3
        # then each instance's plan, at its own order, and its pass on its own A
        for (_, orders, lam), (_, dim) in zip(calls[1::2], calls[2::2]):
            assert len(orders) == 1 and 1 <= orders[0] <= 3 and len(lam) == dim
        rows = {row[1]: row for row in read_csv(tmp_path / "verify.csv")[1:]}
        assert rows["dd-vs-stub"][2:] == ["3", "0", "1e-08", "true"]

    def test_refusing_plan_exits_4_before_any_instance(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was computed")

        def over_budget(*args):
            raise BudgetExceededError("the stub route is over budget")

        monkeypatch.setattr(specact.MultisetDivDiff, "__init__", refuse)
        monkeypatch.setitem(ROUTES, "stub", over_budget)
        cfg = dict(BASE_CFG, verify={"seed": 7, "instances": 3,
                                     "checks": ["route-agreement"]})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 4
        assert "the stub route is over budget" in capsys.readouterr().err
        assert not (tmp_path / "verify.csv").exists()

    def test_bracket_budget_at_its_edge(self, tmp_path, monkeypatch):
        # 10^7 tuples in a bracket of order 6 is within the budget: the
        # check starts its first instance
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was computed")

        monkeypatch.setattr(specact.MultisetDivDiff, "__init__", refuse)
        cfg = dict(BASE_CFG, verify={"seed": 7, "checks": ["bracket-identities"],
                                     "dim_max": 10, "n_max": 6})
        path = write_cfg(tmp_path / "c.json", cfg)
        with pytest.raises(AssertionError, match="instance"):
            main(["verify", "--config", path, "--out", str(tmp_path)])

    def test_route_agreement_covers_every_registered_route(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ROUTES, "dd2", ROUTES["dd"])
        cfg = dict(BASE_CFG, verify={"seed": 7, "instances": 3,
                                     "checks": ["route-agreement"]})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        rows = {row[1]: row for row in read_csv(tmp_path / "verify.csv")[1:]}
        assert list(rows) == ["dd-vs-theorem-over-n", "dd-vs-bracket", "dd-vs-contour",
                              "dd-vs-finite-difference", "dd-vs-dd2"]
        assert rows["dd-vs-dd2"][2:] == ["3", "0", "1e-08", "true"]

    def test_nan_route_error_fails_its_row(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ROUTES, "broken", lambda *args: lambda mat: [math.nan])
        cfg = dict(BASE_CFG, verify={"seed": 7, "instances": 3,
                                     "checks": ["route-agreement"]})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 3
        rows = {row[1]: row for row in read_csv(tmp_path / "verify.csv")[1:]}
        assert rows["dd-vs-broken"][3:] == ["nan", "1e-08", "false"]

    def test_tolerances_are_pinned(self, tmp_path):
        # the removed tolerance keys are not read: the fd row keeps its tol
        cfg = dict(BASE_CFG, verify={"seed": 7, "instances": 3, "fd_tol": 1.0,
                                     "checks": ["route-agreement"]})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        rows = {row[1]: row for row in read_csv(tmp_path / "verify.csv")[1:]}
        assert rows["dd-vs-finite-difference"][4] == "0.0001"

    def test_seed_override_changes_instances(self, tmp_path):
        cfg = dict(BASE_CFG, verify={
            "seed": 7, "instances": 4, "checks": ["divdiff-triangle"],
            "mc_samples": 10_000})
        path = write_cfg(tmp_path / "c.json", cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["verify", "--config", path, "--out", str(out_a)]) == 0
        assert main(["verify", "--config", path, "--out", str(out_b),
                     "--seed-override", "99"]) == 0
        assert (out_a / "verify.csv").read_bytes() != \
            (out_b / "verify.csv").read_bytes()


class TestBounds:
    def test_all_suites(self, tmp_path):
        cfg = dict(BASE_CFG, bounds={
            "simplex": {"samples": 2000, "seed": 1, "m_max": 3, "k_max": 2},
            "holder": {"samples": 5000, "instances": 3, "seed": 2},
            "getzler-szenes": {"instances": 10, "seed": 3},
        })
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "bounds.csv")
        suites = {row[0] for row in rows[1:]}
        assert suites == {"simplex", "holder", "getzler-szenes"}
        assert all(row[6] == "true" for row in rows[1:])

    def test_simplex_grid_shape(self, tmp_path):
        cfg = dict(BASE_CFG, bounds={
            "simplex": {"samples": 500, "seed": 1, "m_max": 2, "k_max": 4}})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "bounds.csv")
        # m=1: k in 0..2; m=2: k in 0..3
        params = [row[1] for row in rows[1:]]
        assert params == ["m=1;k=0", "m=1;k=1", "m=1;k=2",
                          "m=2;k=0", "m=2;k=1", "m=2;k=2", "m=2;k=3"]


class TestBench:
    def test_tuple_counts(self, tmp_path):
        cfg = dict(BASE_CFG, bench={"dims": [3, 5], "orders": [1, 2, 3],
                                    "seed": 4})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["bench", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert rows[0] == ["N", "n", "tuples", "seconds"]
        got = [(int(r[0]), int(r[1]), int(r[2])) for r in rows[1:]]
        assert got == [(3, 1, 3), (3, 2, 9), (3, 3, 27),
                       (5, 1, 5), (5, 2, 25), (5, 3, 125)]
        assert all(float(r[3]) >= 0.0 for r in rows[1:])

    def test_budget_checked_before_any_cell(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell was timed")

        monkeypatch.setattr("specact.cli.taylor_term", refuse)
        # 64^4 tuples in the last cell, over the default budget of 10^7
        cfg = dict(BASE_CFG, bench={"dims": [6, 8, 64], "orders": [1, 2, 3, 4],
                                    "seed": 4})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["bench", "--config", path, "--out", str(tmp_path)]) == 4
        assert "budget exceeded" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_empty_grid_header_only(self, tmp_path):
        cfg = dict(BASE_CFG, bench={"dims": [], "seed": 4})
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["bench", "--config", path, "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "bench.csv") == [["N", "n", "tuples", "seconds"]]


class TestDivdiffCommand:
    def test_matches_library(self, capsys):
        assert main(["divdiff", "--nodes", "1,2", "--atoms", "1:1"]) == 0
        out = capsys.readouterr().out.strip()
        mix = make_gaussian_mixture([(1.0, 1.0)])
        assert float(out) == pytest.approx(dd_recursive(mix, [1.0, 2.0]),
                                           rel=1e-15)

    def test_deriv_flag(self, capsys):
        assert main(["divdiff", "--nodes", "0.5", "--atoms", "1:1",
                     "--deriv", "1"]) == 0
        out = capsys.readouterr().out.strip()
        # f'(x) = -2x e^{-x^2}
        assert float(out) == pytest.approx(-1.0 * math.exp(-0.25), rel=1e-14)

    @pytest.mark.parametrize("nodes, atoms, deriv", [
        ("1,1.2", "1:1", "300"),   # the centered series cannot converge
        ("1,1.2", "1:1", "5000"),  # once 5000 nested derivative wrappers
        ("0.5", "4:1", "2000"),    # (-2)^k overflows a Python float
        ("1,3", "1:1", "300"),     # the Hermite ladder overflows to nan
    ])
    def test_out_of_range_deriv_exits_2(self, capsys, nodes, atoms, deriv):
        assert main(["divdiff", "--nodes", nodes, "--atoms", atoms,
                     "--deriv", deriv]) == 2
        err = capsys.readouterr().err
        assert "config error: --deriv" in err and "Traceback" not in err

    def test_high_deriv_matches_library(self, capsys):
        assert main(["divdiff", "--nodes", "1,1.2", "--atoms", "1:1",
                     "--deriv", "40"]) == 0
        out = capsys.readouterr().out.strip()
        mix = make_gaussian_mixture([(1.0, 1.0)])
        assert float(out) == dd_recursive(mix.derivative(40), [1.0, 1.2])

    def test_bad_atoms_exit_2(self, capsys):
        assert main(["divdiff", "--nodes", "1,2", "--atoms", "oops"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_nodes_exit_2(self, capsys):
        assert main(["divdiff", "--nodes", "1,zap", "--atoms", "1:1"]) == 2

    @pytest.mark.parametrize("extra", [
        ["--nodes", ","],
        ["--nodes", "nan,1"],
        ["--nodes", "1,2", "--deriv", "-1"],
    ])
    def test_bad_arguments_exit_2(self, capsys, extra):
        assert main(["divdiff", "--atoms", "1:1"] + extra) == 2
        assert "config error" in capsys.readouterr().err


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        # the child imports the specact this process imported, installed or not
        paths = [os.path.dirname(os.path.dirname(specact.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        result = subprocess.run(
            [sys.executable, "-m", "specact.cli", "divdiff",
             "--nodes", "1,2", "--atoms", "1:1"],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert result.stdout.strip()
