"""Batch driver: config-driven expansion, verification, and bound suites.

Subcommands
-----------
expand   Taylor-expand tr f(D+A) for a configured instance; CSV + text report.
verify   run the invariant suite (divided-difference triangle, chain rule,
         derivative sum, bracket identities, route agreement, multi-index
         combinatorics); one CSV row per check.
bounds   run the simplex / trace-estimate / heat-trace bound suites.
bench    wall-time of the order-n term over an (N, n) grid.
divdiff  ad-hoc divided-difference evaluation from the command line.

Exit codes: 0 success, 2 config error, 3 tolerance failure, 4 budget exceeded.
All randomness flows from seeds named in the config; --seed-override replaces
every seed for quick what-if reruns.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .bounds import getzler_szenes_check, holder_estimate_check, simplex_bound_check
from .divdiff import (NodeList, dd_chain_square, dd_contour, dd_derivative_sum, dd_hermite_mc,
                      dd_recursive)
from .errors import BudgetExceededError, ConfigError
from .functions import make_gaussian_mixture
from .operator_model import (
    DEFAULT_TUPLE_BUDGET,
    Spectrum,
    _check_budget,
    band_hermitian,
    bracket_identity_check,
    dirac_circle_spectrum,
    linear_spectrum,
    one_form,
    random_hermitian,
    random_spectrum,
    require_hermitian,
)
from .rng import make_rng
from .spectral_action import (
    ROUTES,
    epsilon_enumerate,
    epsilon_parent_move_count,
    expand,
    fd_noise_floor,
    taylor_term,
)

__all__ = ["main"]

SCHEMA_VERSION = 1
FD_STEP = 0.05  # the fd route's step, unless run.fd_step sets another


# ---------------------------------------------------------------------------
# config loading

def load_config(path: str) -> dict:
    """Parse a JSON config; parse errors carry path:line:col positions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: expected \"schema\": {SCHEMA_VERSION}")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return cfg[key]


def _section(cfg: dict, key: str, where: str, required: bool = False) -> dict:
    """cfg[key] as a JSON object; {} when absent and not ``required``."""
    value = _require(cfg, key, where) if required else cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key}: expected an object, got {value!r}")
    return value


def _number(section: dict, key: str, where: str, kind: type = float,
            default=None, positive: bool = False, least: int = 0):
    """section[key] as a finite int or float; ``default`` when the key is
    absent (required when None).  Integers are at least ``least``;
    ``positive`` also rules out zero.  Anything else is a ConfigError."""
    value = _require(section, key, where) if default is None else section.get(key, default)
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        number = kind(value)
        ok = (math.isfinite(number) and number == float(value)
              and (number > 0 if positive else kind is float or number >= least))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        noun = "integer" if kind is int else "number"
        want = (f"a positive {noun}" if positive else "a finite number" if kind is float
                else f"an integer >= {least}")
        raise ConfigError(f"{where}.{key}: expected {want}, got {value!r}")
    return number


def _numbers(section: dict, key: str, where: str, kind: type = float,
             default=None, positive: bool = False) -> list:
    """section[key] as a list whose every entry passes _number."""
    values = _require(section, key, where) if default is None else section.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where}.{key}: expected a list, got {values!r}")
    entries = dict(enumerate(values))
    return [_number(entries, i, f"{where}.{key}", kind, positive=positive) for i in entries]


def _seed_of(section: dict, where: str, override: int | None) -> int:
    return _number(section, "seed", where, int) if override is None else override


def _as_complex_matrix(rows, where: str) -> np.ndarray:
    """Entries are reals or [re, im] pairs."""
    try:
        parsed = [
            [complex(e[0], e[1]) if isinstance(e, list) else complex(e) for e in row]
            for row in rows
        ]
        mat = np.array(parsed, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: malformed matrix entries") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{where}: matrix must be square")
    return mat


def build_spectrum(section: dict, override: int | None) -> Spectrum:
    kind = _require(section, "kind", "spectrum")
    if kind == "linear":
        return linear_spectrum(_number(section, "dim", "spectrum", int, positive=True))
    if kind == "dirac-circle":
        return dirac_circle_spectrum(_number(section, "dim", "spectrum", int, positive=True))
    if kind == "explicit":
        values = _numbers(section, "values", "spectrum")
        try:
            return Spectrum.from_values(values)
        except ValueError as exc:
            raise ConfigError(f"spectrum.values: {exc}") from exc
    if kind == "random-uniform":
        dim = _number(section, "dim", "spectrum", int, positive=True)
        lam_max = _number(section, "lam_max", "spectrum", positive=True)
        rng = make_rng(_seed_of(section, "spectrum", override), stream=1)
        return random_spectrum(dim, lam_max, rng)
    raise ConfigError(f"spectrum: unknown kind '{kind}'")


def build_perturbation(section: dict, spec: Spectrum, override: int | None) -> np.ndarray:
    kind = _require(section, "kind", "perturbation")
    if kind == "random-hermitian":
        norm = _number(section, "norm", "perturbation", positive=True)
        rng = make_rng(_seed_of(section, "perturbation", override), stream=2)
        return random_hermitian(spec.dim, rng, norm=norm)
    if kind == "band":
        norm = _number(section, "norm", "perturbation", positive=True)
        bandwidth = _number(section, "bandwidth", "perturbation", int)
        rng = make_rng(_seed_of(section, "perturbation", override), stream=2)
        return band_hermitian(spec.dim, bandwidth, rng, norm=norm)
    if kind == "one-form":
        terms = _require(section, "terms", "perturbation")
        if not isinstance(terms, list):
            raise ConfigError(f"perturbation.terms: expected a list, got {terms!r}")
        entries = dict(enumerate(terms))
        pairs = []
        for k in entries:
            term = _section(entries, k, "perturbation.terms")
            where = f"perturbation.terms.{k}"
            pairs.append((_as_complex_matrix(_require(term, "a", where), f"{where}.a"),
                          _as_complex_matrix(_require(term, "b", where), f"{where}.b")))
    elif kind == "explicit":
        mat = _as_complex_matrix(_require(section, "matrix", "perturbation"),
                                 "perturbation.matrix")
    else:
        raise ConfigError(f"perturbation: unknown kind '{kind}'")
    try:
        if kind == "one-form":
            mat = one_form(spec, pairs)
        return require_hermitian(mat, spec.dim)
    except ValueError as exc:
        raise ConfigError(f"perturbation: {exc}") from exc


def build_function(section: dict):
    atoms = _require(section, "atoms", "function")
    if not isinstance(atoms, list):
        raise ConfigError(f"function.atoms: expected a list, got {atoms!r}")
    entries = dict(enumerate(atoms))
    pairs = []
    for k in entries:
        rec = _section(entries, k, "function.atoms")
        where = f"function.atoms.{k}"
        pairs.append((_number(rec, "t", where, positive=True), _number(rec, "w", where)))
    try:
        return make_gaussian_mixture(pairs)
    except ValueError as exc:
        raise ConfigError(f"function.atoms: {exc}") from exc


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# expand

def cmd_expand(cfg: dict, out_dir: str, override: int | None, route_flag: str | None) -> int:
    spec = build_spectrum(_section(cfg, "spectrum", "config", required=True), override)
    a = build_perturbation(_section(cfg, "perturbation", "config", required=True), spec, override)
    f = build_function(_section(cfg, "function", "config", required=True))
    run = _section(cfg, "run", "config")

    n_max = _number(run, "n_max", "run", int, default=4)
    route = route_flag or run.get("route", "dd")
    # a str check first: membership in the route dict hashes the key
    if not isinstance(route, str) or route not in ROUTES:
        raise ConfigError(f"run.route: unknown route '{route}'")
    budget = _number(run, "budget", "run", int, default=DEFAULT_TUPLE_BUDGET, positive=True)
    scaling = _numbers(run, "scaling_factors", "run", default=(1.0, 0.5, 0.25), positive=True)
    fd_step = _number(run, "fd_step", "run", default=FD_STEP, positive=True)
    tol = _number(run, "remainder_tol", "run", positive=True) if "remainder_tol" in run else None

    try:
        report = expand(spec, a, f, n_max, route=route, budget=budget,
                        scaling_factors=scaling, fd_step=fd_step)
    except ValueError as exc:
        # expand refuses, before any work, an fd step or a scaling factor
        # whose power leaves the float range
        if not str(exc).startswith(("fd step", "scaling factor")):
            raise
        key = "fd_step" if str(exc).startswith("fd step") else "scaling_factors"
        raise ConfigError(f"run.{key}: {exc}") from exc

    write_csv(os.path.join(out_dir, "expand.csv"),
              ["order", "contribution", "partial_sum", "remainder"],
              [[r["order"], r["contribution"], r["partial_sum"], r["remainder"]]
               for r in report.csv_rows()])
    _atomic_write(os.path.join(out_dir, "expand.txt"), report.text_summary() + "\n")

    if tol is not None and report.remainders[n_max] > tol * abs(report.exact):
        print(f"tolerance failure: remainder {report.remainders[n_max]:.3e} "
              f"> {tol:g} * |exact|", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify

DEFAULT_CHECKS = ("divdiff-triangle", "chain-square", "derivative-sum",
                  "bracket-identities", "route-agreement", "epsilon-combinatorics")

# the pinned tolerances of the verify checks, those of the acceptance suite
IDENTITY_TOL = 1e-9      # chain rule, derivative sum, bracket identities
CONTOUR_RULE_TOL = 1e-8  # recursive divided difference against the contour rule
ROUTE_TOL = 1e-8         # each analytic route against dd
FD_TOL = 1e-4            # the finite-difference route against dd
EPSILON_ORDERS = 10      # orders 1..EPSILON_ORDERS of the parent-move count


def _random_nodes(rng: np.random.Generator, max_size: int) -> np.ndarray:
    # rejection keeps the min gap away from the merge threshold
    while True:
        nodes = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, max_size + 1)))
        if np.min(np.diff(np.sort(nodes))) >= 1e-3:
            return nodes


def _widest_spectrum(dim: int) -> Spectrum:
    """dim values spread over [-2, 2]: the widest random_spectrum(dim, 2.0)
    can draw, so it needs the most contour points."""
    return Spectrum(np.linspace(-2.0, 2.0, dim))


def _rel_err(value: float, ref: float, floor: float = 0.0) -> float:
    """|value - ref| relative to |ref|, and to no less than 1e-12 or ``floor``."""
    return abs(value - ref) / max(abs(ref), 1e-12, floor)


def cmd_verify(cfg: dict, out_dir: str, override: int | None) -> int:
    section = _section(cfg, "verify", "config")
    checks = section.get("checks", list(DEFAULT_CHECKS))
    if not isinstance(checks, list):
        raise ConfigError(f"verify.checks: expected a list, got {checks!r}")
    for name in checks:
        if name not in DEFAULT_CHECKS:
            raise ConfigError(f"verify.checks: unknown check '{name}'")
    instances = _number(section, "instances", "verify", int, default=50, positive=True)
    dim_max = _number(section, "dim_max", "verify", int, default=4, least=2)
    n_max = _number(section, "n_max", "verify", int, default=3, positive=True)
    mc_samples = _number(section, "mc_samples", "verify", int, default=100_000, positive=True)
    seed = _seed_of(section, "verify", override) if checks else 0
    f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
    # every route's own checks at the largest instance the checks can draw,
    # and the largest bracket of the identity check, which is not a route
    if "route-agreement" in checks:
        widest = _widest_spectrum(dim_max)
        for plan in ROUTES.values():
            plan((n_max,), widest, f, DEFAULT_TUPLE_BUDGET, FD_STEP)
    if "bracket-identities" in checks:
        _check_budget(dim_max, n_max + 1, DEFAULT_TUPLE_BUDGET)

    rows: list[list] = []

    def emit(check: str, detail: str, errors: list, bound: float):
        # np.max, unlike max, lets a nan error through to fail the row
        error = float(np.max(errors))
        rows.append([check, detail, len(errors), error, bound, error <= bound])

    for name in checks:
        rng = make_rng(seed, stream=3 + DEFAULT_CHECKS.index(name))
        if name == "divdiff-triangle":
            contour, mc = [], []
            for k in range(instances):
                nodes = _random_nodes(rng, 7)
                ref = dd_recursive(f, nodes)
                center = 0.5 * (nodes.min() + nodes.max())
                radius = 0.5 * (nodes.max() - nodes.min()) + 1.0
                contour.append(_rel_err(dd_contour(f, nodes, center, radius, points=256), ref))
                est, err = dd_hermite_mc(f, nodes, mc_samples, seed=seed + 1000 + k)
                mc.append(abs(est - ref) / max(err, 1e-300))
            emit(name, "recursive-vs-contour", contour, CONTOUR_RULE_TOL)
            emit(name, "recursive-vs-mc-stderr-units", mc, 3.0)
        elif name == "chain-square":
            draws = [_random_nodes(rng, 6) for _ in range(instances)]
            errors = [_rel_err(dd_chain_square(f.square_companion, x), dd_recursive(f, x))
                      for x in draws]
            emit(name, "vs-recursive", errors, IDENTITY_TOL)
        elif name == "derivative-sum":
            draws = [_random_nodes(rng, 6) for _ in range(instances)]
            fp = f.derivative()
            errors = [_rel_err(dd_derivative_sum(f, x), dd_recursive(fp, x)) for x in draws]
            emit(name, "vs-derivative-dd", errors, IDENTITY_TOL)
        elif name == "bracket-identities":
            reports = []
            for _ in range(instances):
                dim = int(rng.integers(2, dim_max + 1))
                order = int(rng.integers(1, n_max + 1))
                spec = random_spectrum(dim, 2.0, rng)
                ops = [random_hermitian(dim, rng) for _ in range(order + 1)]
                reports.append(bracket_identity_check(ops, spec, float(rng.uniform(0.2, 1.5))))
            for field in ("cyclic", "unit_insertion", "d_commutator_sum", "d2_reduction"):
                emit(name, field.replace("_", "-"), [getattr(r, field) for r in reports],
                     IDENTITY_TOL)
        elif name == "route-agreement":
            errors = {route: [] for route in ROUTES if route != "dd"}
            for _ in range(instances):
                dim = int(rng.integers(2, dim_max + 1))
                order = int(rng.integers(1, n_max + 1))
                spec = random_spectrum(dim, 2.0, rng)
                mat = require_hermitian(random_hermitian(dim, rng, norm=0.5), dim)
                ref = ROUTES["dd"]((order,), spec, f, DEFAULT_TUPLE_BUDGET, FD_STEP)(mat)[0]
                # terms below what the fd oracle can resolve (over FD_TOL)
                # are compared in absolute terms
                fd_floor = fd_noise_floor(order, FD_STEP, dim) / FD_TOL
                for route, errs in errors.items():
                    value = ROUTES[route]((order,), spec, f, DEFAULT_TUPLE_BUDGET, FD_STEP)(mat)[0]
                    errs.append(_rel_err(value, ref, fd_floor if route == "fd" else 0.0))
            for route, errs in errors.items():
                detail = {"theorem": "theorem-over-n", "fd": "finite-difference"}.get(route, route)
                emit(name, f"dd-vs-{detail}", errs, FD_TOL if route == "fd" else ROUTE_TOL)
        elif name == "epsilon-combinatorics":
            emit(name, "parent-move-count",
                 [max(abs(epsilon_parent_move_count(child) - n) for child in epsilon_enumerate(n))
                  for n in range(1, EPSILON_ORDERS + 1)], 0.0)

    write_csv(os.path.join(out_dir, "verify.csv"),
              ["check", "detail", "instances", "error", "tol", "passed"], rows)
    return 0 if all(r[5] for r in rows) else 3


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(cfg: dict, out_dir: str, override: int | None) -> int:
    section = _section(cfg, "bounds", "config")
    rows: list[list] = []

    if "simplex" in section:
        sub = _section(section, "simplex", "bounds")
        samples = _number(sub, "samples", "bounds.simplex", int, default=100_000, least=2)
        seed = _seed_of(sub, "bounds.simplex", override)
        m_max = _number(sub, "m_max", "bounds.simplex", int, default=8)
        k_max = _number(sub, "k_max", "bounds.simplex", int, default=4)
        for m in range(1, m_max + 1):
            for k in range(0, min(m + 1, k_max) + 1):
                rep = simplex_bound_check(m, k, samples=samples, seed=seed + 97 * m + k)
                rows.append(["simplex", f"m={m};k={k}", rep.lhs, rep.rhs,
                             rep.margin, rep.mc_stderr, rep.passed])

    if "holder" in section:
        sub = _section(section, "holder", "bounds")
        samples = _number(sub, "samples", "bounds.holder", int, default=20_000, least=2)
        instances = _number(sub, "instances", "bounds.holder", int, default=20, positive=True)
        dim_max = _number(sub, "dim_max", "bounds.holder", int, default=4, least=2)
        n_max = _number(sub, "n_max", "bounds.holder", int, default=3, positive=True)
        seed = _seed_of(sub, "bounds.holder", override)
        rng = make_rng(seed, stream=11)
        for k in range(instances):
            dim = int(rng.integers(2, dim_max + 1))
            order = int(rng.integers(1, n_max + 1))
            spec = random_spectrum(dim, 2.0, rng)
            ops = [random_hermitian(dim, rng, norm=1.0) for _ in range(order + 1)]
            alphas = tuple(int(b) for b in rng.integers(0, 2, size=order + 1))
            t = float(rng.uniform(0.3, 1.5))
            eps = float(rng.uniform(0.2, 0.8))
            rep = holder_estimate_check(spec, ops, alphas, t=t, eps=eps,
                                        samples=samples, seed=seed + 31 * k)
            rows.append(["holder",
                         f"n={order};alphas={''.join(map(str, alphas))};t={t:.3f};eps={eps:.3f}",
                         rep.lhs, rep.rhs, rep.margin, rep.mc_stderr, rep.passed])

    if "getzler-szenes" in section:
        sub = _section(section, "getzler-szenes", "bounds")
        instances = _number(sub, "instances", "bounds.getzler-szenes", int, default=100,
                            positive=True)
        dim_max = _number(sub, "dim_max", "bounds.getzler-szenes", int, default=8, positive=True)
        seed = _seed_of(sub, "bounds.getzler-szenes", override)
        rng = make_rng(seed, stream=12)
        for _ in range(instances):
            dim = int(rng.integers(1, dim_max + 1))
            spec = random_spectrum(dim, 2.0, rng)
            v = random_hermitian(dim, rng, norm=float(rng.uniform(0.1, 2.0)))
            t = float(rng.uniform(0.1, 3.0))
            eps = float(rng.choice([0.1, 0.5, 0.9]))
            rep = getzler_szenes_check(spec, v, t=t, eps=eps)
            rows.append(["getzler-szenes", f"N={dim};t={t:.3f};eps={eps:.1f}",
                         rep.lhs, rep.rhs, rep.margin, rep.mc_stderr, rep.passed])

    write_csv(os.path.join(out_dir, "bounds.csv"),
              ["suite", "params", "lhs", "rhs", "margin", "stderr", "passed"], rows)
    return 0 if all(r[6] for r in rows) else 3


# ---------------------------------------------------------------------------
# bench

def cmd_bench(cfg: dict, out_dir: str, override: int | None) -> int:
    section = _section(cfg, "bench", "config")
    dims = _numbers(section, "dims", "bench", int, default=(4, 8), positive=True)
    orders = _numbers(section, "orders", "bench", int, default=(1, 2, 3, 4))
    seed = _seed_of(section, "bench", override) if section else 0
    rng = make_rng(seed, stream=21)
    f = make_gaussian_mixture([(1.0, 1.0)])
    if dims and orders:
        ROUTES["dd"]((max(orders),), _widest_spectrum(max(dims)), f, DEFAULT_TUPLE_BUDGET, FD_STEP)

    rows = []
    for dim in dims:
        spec = random_spectrum(dim, 2.0, rng)
        a = random_hermitian(dim, rng, norm=0.5)
        for order in orders:
            start = time.perf_counter()
            taylor_term(order, spec, a, f)
            elapsed = time.perf_counter() - start
            rows.append([dim, order, dim**order, elapsed])

    write_csv(os.path.join(out_dir, "bench.csv"),
              ["N", "n", "tuples", "seconds"], rows)
    return 0


# ---------------------------------------------------------------------------
# divdiff (ad hoc)

def cmd_divdiff(args) -> int:
    try:
        nodes = NodeList(tuple(float(x) for x in args.nodes.split(",") if x.strip()))
    except ValueError as exc:
        raise ConfigError(f"--nodes: {exc}") from exc
    if args.deriv < 0:
        raise ConfigError(f"--deriv: expected a nonnegative integer, got {args.deriv}")
    atoms = []
    try:
        for rec in args.atoms.split(","):
            t_str, w_str = rec.split(":")
            atoms.append((float(t_str), float(w_str)))
    except ValueError as exc:
        raise ConfigError("--atoms: expected t:w[,t:w...]") from exc
    try:
        f = make_gaussian_mixture(atoms)
    except ValueError as exc:
        raise ConfigError(f"--atoms: {exc}") from exc
    f = f.derivative(args.deriv)
    # a high enough order overflows the Hermite ladder: its series cannot
    # converge, a power overflows, or the value comes out non-finite
    try:
        with np.errstate(all="ignore"):
            value = dd_recursive(f, nodes)
    except (RuntimeError, OverflowError) as exc:
        raise ConfigError(f"--deriv: order {args.deriv} is out of range ({exc})") from exc
    if not math.isfinite(value):
        raise ConfigError(f"--deriv: order {args.deriv} is out of range (value {value})")
    print(format(value, ".17g"))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specact",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace every seed named in the config")

    p_expand = sub.add_parser("expand", help="Taylor-expand a configured instance")
    add_common(p_expand)
    p_expand.add_argument("--route", choices=ROUTES, default=None,
                          help="term route (overrides run.route)")

    for name, helptext in (("verify", "run the invariant suite"),
                           ("bounds", "run the bound suites"),
                           ("bench", "time the order-n term over an (N, n) grid")):
        add_common(sub.add_parser(name, help=helptext))

    p_dd = sub.add_parser("divdiff", help="evaluate one divided difference")
    p_dd.add_argument("--nodes", required=True, help="comma-separated nodes")
    p_dd.add_argument("--atoms", required=True,
                      help="Gaussian-mixture atoms as t:w[,t:w...]")
    p_dd.add_argument("--deriv", type=int, default=0,
                      help="differentiate the mixture this many times first")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed_override", None) is not None and args.seed_override < 0:
        parser.error("--seed-override must be a nonnegative integer")
    try:
        if args.command == "divdiff":
            return cmd_divdiff(args)
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "expand":
            return cmd_expand(cfg, args.out, args.seed_override, args.route)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.seed_override)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out, args.seed_override)
        if args.command == "bench":
            return cmd_bench(cfg, args.out, args.seed_override)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
