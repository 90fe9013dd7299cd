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
from .divdiff import dd_contour, dd_hermite_mc, dd_recursive, dd_derivative_sum
from .errors import BudgetExceededError, ConfigError
from .functions import DiscreteMeasure, make_gaussian_mixture
from .operator_model import (
    DEFAULT_TUPLE_BUDGET,
    Spectrum,
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
    CircleContour,
    ROUTES,
    epsilon_enumerate,
    epsilon_parent_move_count,
    expand,
    gateaux_fd,
    taylor_term,
    taylor_term_bracket_form,
    taylor_term_contour,
    taylor_term_theorem_form,
)

__all__ = ["main"]

SCHEMA_VERSION = 1


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


def _number(section: dict, key: str, where: str, kind: type = float,
            default=None, positive: bool = False):
    """section[key] as a finite int or float; ``default`` when the key is
    absent (required when None).  Integers are never negative; ``positive``
    also rules out zero.  Anything else is a ConfigError."""
    value = _require(section, key, where) if default is None else section.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        ok = (math.isfinite(number) and number == float(value)
              and (number > 0 if positive else kind is float or number >= 0))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        sign = "positive" if positive else "nonnegative" if kind is int else "finite"
        noun = "integer" if kind is int else "number"
        raise ConfigError(f"{where}.{key}: expected a {sign} {noun}, got {value!r}")
    return number


def _seed_of(section: dict, where: str, override: int | None) -> int:
    if override is not None:
        return override
    seed = _require(section, "seed", where)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{where}: seed must be a non-negative integer")
    return seed


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
        values = _require(section, "values", "spectrum")
        return Spectrum.from_values(np.asarray(values, dtype=float))
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
        pairs = []
        for k, term in enumerate(terms):
            a = _as_complex_matrix(_require(term, "a", f"perturbation.terms[{k}]"),
                                   f"perturbation.terms[{k}].a")
            b = _as_complex_matrix(_require(term, "b", f"perturbation.terms[{k}]"),
                                   f"perturbation.terms[{k}].b")
            pairs.append((a, b))
        mat = one_form(spec, pairs)
        return require_hermitian(mat)
    if kind == "explicit":
        mat = _as_complex_matrix(_require(section, "matrix", "perturbation"),
                                 "perturbation.matrix")
        return require_hermitian(mat)
    raise ConfigError(f"perturbation: unknown kind '{kind}'")


def build_function(section: dict):
    atoms = _require(section, "atoms", "function")
    try:
        pairs = [(float(rec["t"]), float(rec["w"])) for rec in atoms]
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError("function.atoms: expected records with keys t, w") from exc
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
    spec = build_spectrum(_require(cfg, "spectrum", "config"), override)
    a = build_perturbation(_require(cfg, "perturbation", "config"), spec, override)
    f = build_function(_require(cfg, "function", "config"))
    run = cfg.get("run", {})

    n_max = _number(run, "n_max", "run", int, default=4)
    route = route_flag or run.get("route", "dd")
    if route not in ROUTES:
        raise ConfigError(f"run.route: unknown route '{route}'")
    budget = _number(run, "budget", "run", int, default=DEFAULT_TUPLE_BUDGET, positive=True)
    scaling = tuple(run.get("scaling_factors", (1.0, 0.5, 0.25)))
    contour = None
    if "contour" in run:
        sec = run["contour"]
        contour = CircleContour(center=float(_require(sec, "center", "run.contour")),
                                radius=float(_require(sec, "radius", "run.contour")),
                                points=int(sec.get("points", 512)))

    fd_step = _number(run, "fd_step", "run", default=0.05, positive=True)

    report = expand(spec, a, f, n_max, route=route, budget=budget,
                    scaling_factors=scaling, contour=contour, fd_step=fd_step)

    write_csv(os.path.join(out_dir, "expand.csv"),
              ["order", "contribution", "partial_sum", "remainder"],
              [[r["order"], r["contribution"], r["partial_sum"], r["remainder"]]
               for r in report.csv_rows()])
    _atomic_write(os.path.join(out_dir, "expand.txt"), report.text_summary() + "\n")

    if "remainder_tol" in run:
        tol = float(run["remainder_tol"])
        if report.remainders[n_max] > tol * abs(report.exact):
            print(f"tolerance failure: remainder {report.remainders[n_max]:.3e} "
                  f"> {tol:g} * |exact|", file=sys.stderr)
            return 3
    return 0


# ---------------------------------------------------------------------------
# verify

DEFAULT_CHECKS = ("divdiff-triangle", "chain-square", "derivative-sum",
                  "bracket-identities", "route-agreement", "epsilon-combinatorics")


def _random_nodes(rng: np.random.Generator, max_size: int) -> np.ndarray:
    # rejection keeps the min gap away from the merge threshold
    while True:
        size = int(rng.integers(2, max_size + 1))
        nodes = rng.uniform(-2.0, 2.0, size=size)
        if size == 1 or np.min(np.diff(np.sort(nodes))) >= 1e-3:
            return nodes


def cmd_verify(cfg: dict, out_dir: str, override: int | None) -> int:
    section = cfg.get("verify", {})
    checks = section.get("checks", list(DEFAULT_CHECKS))
    for name in checks:
        if name not in DEFAULT_CHECKS:
            raise ConfigError(f"verify.checks: unknown check '{name}'")
    instances = int(section.get("instances", 50))
    dim_max = int(section.get("dim_max", 4))
    n_max = int(section.get("n_max", 3))
    mc_samples = int(section.get("mc_samples", 100_000))
    tol = float(section.get("tol", 1e-9))
    contour_tol = float(section.get("contour_tol", 1e-8))
    route_tol = float(section.get("route_tol", 1e-8))
    fd_tol = float(section.get("fd_tol", 1e-4))
    seed = _seed_of(section, "verify", override) if checks else 0

    rows: list[list] = []

    def emit(check: str, detail: str, count: int, error: float, bound: float):
        rows.append([check, detail, count, error, bound, bool(error <= bound)])

    for name in checks:
        rng = make_rng(seed, stream=3 + DEFAULT_CHECKS.index(name))
        if name == "divdiff-triangle":
            f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
            worst_contour = 0.0
            worst_z = 0.0
            for k in range(instances):
                nodes = _random_nodes(rng, 7)
                ref = dd_recursive(f, nodes)
                center = 0.5 * (nodes.min() + nodes.max())
                radius = 0.5 * (nodes.max() - nodes.min()) + 1.0
                cval = dd_contour(f, nodes, center, radius, points=256)
                worst_contour = max(worst_contour,
                                    abs(cval - ref) / max(abs(ref), 1e-12))
                est, err = dd_hermite_mc(f, nodes, mc_samples,
                                         seed=seed + 1000 + k)
                worst_z = max(worst_z, abs(est - ref) / max(err, 1e-300))
            emit(name, "recursive-vs-contour", instances, worst_contour, contour_tol)
            emit(name, "recursive-vs-mc-stderr-units", instances, worst_z, 3.0)
        elif name == "chain-square":
            from .divdiff import dd_chain_square
            g = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)]).square_companion
            f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
            worst = 0.0
            for _ in range(instances):
                nodes = _random_nodes(rng, 6)
                ref = dd_recursive(f, nodes)
                val = dd_chain_square(g, nodes)
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-12))
            emit(name, "vs-recursive", instances, worst, tol)
        elif name == "derivative-sum":
            f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
            fp = f.derivative()
            worst = 0.0
            for _ in range(instances):
                nodes = _random_nodes(rng, 6)
                ref = dd_recursive(fp, nodes)
                val = dd_derivative_sum(f, nodes)
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-12))
            emit(name, "vs-derivative-dd", instances, worst, tol)
        elif name == "bracket-identities":
            worst = dict.fromkeys(
                ("cyclic", "unit-insertion", "d-commutator-sum", "d2-reduction"), 0.0)
            for _ in range(instances):
                dim = int(rng.integers(2, dim_max + 1))
                order = int(rng.integers(1, n_max + 1))
                spec = random_spectrum(dim, 2.0, rng)
                ops = [random_hermitian(dim, rng) for _ in range(order + 1)]
                t = float(rng.uniform(0.2, 1.5))
                rep = bracket_identity_check(ops, spec, t, tol=tol)
                worst["cyclic"] = max(worst["cyclic"], rep.cyclic)
                worst["unit-insertion"] = max(worst["unit-insertion"], rep.unit_insertion)
                worst["d-commutator-sum"] = max(worst["d-commutator-sum"],
                                                rep.d_commutator_sum)
                worst["d2-reduction"] = max(worst["d2-reduction"], rep.d2_reduction)
            for detail, err in worst.items():
                emit(name, detail, instances, err, tol)
        elif name == "route-agreement":
            f = make_gaussian_mixture([(1.0, 1.0), (0.5, 0.6)])
            worst = dict.fromkeys(
                ("theorem-over-n", "bracket", "contour", "finite-difference"), 0.0)
            for _ in range(instances):
                dim = int(rng.integers(2, dim_max + 1))
                order = int(rng.integers(1, n_max + 1))
                spec = random_spectrum(dim, 2.0, rng)
                a = random_hermitian(dim, rng, norm=0.5)
                ref = taylor_term(order, spec, a, f)
                scale = max(abs(ref), 1e-12)
                th = taylor_term_theorem_form(order, spec, a, f) / order
                br = taylor_term_bracket_form(order, spec, a, f.measure)
                co = taylor_term_contour(order, spec, a, f)
                fd = gateaux_fd(order, spec, a, f)
                worst["theorem-over-n"] = max(worst["theorem-over-n"],
                                              abs(th - ref) / scale)
                worst["bracket"] = max(worst["bracket"], abs(br - ref) / scale)
                worst["contour"] = max(worst["contour"], abs(co - ref) / scale)
                # eigensolver noise amplified through the difference stencil
                # bounds what the fd oracle can resolve; terms below that
                # floor (over fd_tol) are compared in absolute terms
                fd_floor = (10.0 * 2.0**order * float(np.finfo(float).eps)
                            * dim / ((0.05 / 2.0) ** order * math.factorial(order)))
                worst["finite-difference"] = max(
                    worst["finite-difference"],
                    abs(fd - ref) / max(scale, fd_floor / fd_tol))
            for detail in ("theorem-over-n", "bracket", "contour"):
                emit(name, f"dd-vs-{detail}", instances, worst[detail], route_tol)
            emit(name, "dd-vs-finite-difference", instances,
                 worst["finite-difference"], fd_tol)
        elif name == "epsilon-combinatorics":
            top = int(section.get("epsilon_n_max", 10))
            worst = 0
            for order in range(top):
                for child in epsilon_enumerate(order + 1):
                    count = epsilon_parent_move_count(child)
                    worst = max(worst, abs(count - (order + 1)))
            emit(name, "parent-move-count", top, float(worst), 0.0)

    write_csv(os.path.join(out_dir, "verify.csv"),
              ["check", "detail", "instances", "error", "tol", "passed"], rows)
    return 0 if all(r[5] for r in rows) else 3


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(cfg: dict, out_dir: str, override: int | None) -> int:
    section = cfg.get("bounds", {})
    rows: list[list] = []

    if "simplex" in section:
        sub = section["simplex"]
        samples = int(sub.get("samples", 100_000))
        seed = _seed_of(sub, "bounds.simplex", override)
        m_max = int(sub.get("m_max", 8))
        k_max = int(sub.get("k_max", 4))
        for m in range(1, m_max + 1):
            for k in range(0, min(m + 1, k_max) + 1):
                rep = simplex_bound_check(m, k, samples=samples, seed=seed + 97 * m + k)
                rows.append(["simplex", f"m={m};k={k}", rep.lhs, rep.rhs,
                             rep.margin, rep.mc_stderr, rep.passed])

    if "holder" in section:
        sub = section["holder"]
        samples = int(sub.get("samples", 20_000))
        instances = int(sub.get("instances", 20))
        seed = _seed_of(sub, "bounds.holder", override)
        rng = make_rng(seed, stream=11)
        for k in range(instances):
            dim = int(rng.integers(2, int(sub.get("dim_max", 4)) + 1))
            order = int(rng.integers(1, int(sub.get("n_max", 3)) + 1))
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
        sub = section["getzler-szenes"]
        instances = int(sub.get("instances", 100))
        seed = _seed_of(sub, "bounds.getzler-szenes", override)
        rng = make_rng(seed, stream=12)
        for _ in range(instances):
            dim = int(rng.integers(1, int(sub.get("dim_max", 8)) + 1))
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
    section = cfg.get("bench", {})
    dims = [int(x) for x in section.get("dims", (4, 8))]
    orders = [int(x) for x in section.get("orders", (1, 2, 3, 4))]
    seed = _seed_of(section, "bench", override) if section else 0
    rng = make_rng(seed, stream=21)
    f = make_gaussian_mixture([(1.0, 1.0)])

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
        nodes = [float(x) for x in args.nodes.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--nodes: {exc}") from exc
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
    for _ in range(args.deriv):
        f = f.derivative()
    value = dd_recursive(f, nodes)
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
    args = build_parser().parse_args(argv)
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
