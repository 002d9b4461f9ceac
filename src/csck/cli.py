"""Command-line front end for the radial engine.

Subcommands: classify, solve, verify, catalog, ball, lemmas. Reports are
JSON with sorted keys (nonfinite numbers spelled "inf"/"-inf"/"nan");
sample dumps are CSV with the fixed columns s,g,u,up,upp,f,R_num so that
verify can re-ingest solve output. Exit codes: 0 success, 1 runtime or
verification failure, 2 nothing to solve, 64 flag errors.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .branches import BranchKind, classify
from .catalog import cross_check, enumerate_cases, instantiate, merged_params
from .cases import get_case
from .errors import CsckError
from .geometry import metric_sample, verify_solution
from .inequalities import certify_negative
from .quadrature import (
    ball_normalize, eval_F, gauge_from_anchor, partial_fractions, probe_point, solve_g
)
from .reduction import RadialProblem, build_ode, ode_residual

CSV_HEADER = "s,g,u,up,upp,f,R_num"
CSV_COLUMNS = CSV_HEADER.split(",")

# structural gates for re-ingested sample files; curvature gets --tol
_ODE_CAP = 1e-8
_SLOPE_CAP = 1e-9
_F_CAP = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: problem data, gauge, grid, and output routing."""

    subcommand: str
    n: Optional[int] = None
    R: Optional[float] = None
    lam: Optional[float] = None
    mu: Optional[float] = None
    branch_index: int = 0
    gauge: Optional[tuple] = None  # ("anchor", s0, g0) or ("c", value)
    s_min: float = 0.01
    s_max: float = 100.0
    samples: int = 200
    tol: float = 1e-6
    seed: int = 0
    output_format: str = "json"
    output_path: Optional[str] = None


# ---------------------------------------------------------------------------
# serialization

def _clean(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {key: _clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return value


def _dump_json(payload) -> str:
    return json.dumps(_clean(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join("%.17g" % value for value in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _branch_dict(branch):
    return {
        "A": branch.A,
        "B": branch.B,
        "kind": branch.kind.value,
        "diverges_left": branch.diverges_left,
        "diverges_right": branch.diverges_right,
    }


def _classify_payload(cfg, report):
    return {
        "type": "classify",
        "n": cfg.n,
        "R": cfg.R,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "verdict": report.verdict.value,
        "matched_case": report.matched_case,
        "branches": [_branch_dict(b) for b in report.branches],
        "diagnostics": list(report.diagnostics),
    }


# ---------------------------------------------------------------------------
# flag plumbing

def _finite_float(text):
    """argparse type of every float flag: nan and +-inf are flag errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_problem_flags(sub):
    sub.add_argument("--n", type=int)
    sub.add_argument("--scalar", type=_finite_float)
    sub.add_argument(
        "--curvature-sign", dest="curv_sign", choices=["neg", "zero", "pos"]
    )
    sub.add_argument("--lambda", dest="lam", type=_finite_float)
    sub.add_argument("--mu", type=_finite_float)


def _add_io_flags(sub, formats=("json",)):
    sub.add_argument("--config")
    sub.add_argument("--output", dest="output_path")
    sub.add_argument("--format", dest="output_format", choices=list(formats))


def _add_gauge_flags(sub):
    sub.add_argument("--anchor", help="anchor point s0,g0")
    sub.add_argument("--gauge-c", dest="gauge_c", type=_finite_float)
    sub.add_argument("--branch-index", dest="branch_index", type=int)


def _add_grid_flags(sub):
    sub.add_argument("--s-min", dest="s_min", type=_finite_float)
    sub.add_argument("--s-max", dest="s_max", type=_finite_float)
    sub.add_argument("--samples", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csck",
        description="classify, solve, and verify radial constant-curvature profiles",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("classify", help="existence verdict and admissible windows")
    _add_problem_flags(sub)
    _add_io_flags(sub)
    sub.add_argument(
        "--allow-finite-extension",
        dest="allow_fe",
        action="store_const",
        const=True,
    )
    sub.add_argument("--grid", help="sweep lambda and mu over lo:hi:count")

    sub = subs.add_parser("solve", help="sample a gauged solution profile")
    _add_problem_flags(sub)
    _add_gauge_flags(sub)
    _add_grid_flags(sub)
    _add_io_flags(sub, formats=("csv", "json"))

    sub = subs.add_parser("verify", help="check curvature constancy of a solution")
    _add_problem_flags(sub)
    _add_gauge_flags(sub)
    _add_grid_flags(sub)
    _add_io_flags(sub)
    sub.add_argument("--input", help="CSV sample file produced by solve")
    sub.add_argument("--tol", type=_finite_float)

    sub = subs.add_parser("catalog", help="catalogued families: list, build, check")
    sub.add_argument("--list", dest="list_cases", action="store_const", const=True)
    sub.add_argument("--n", type=int)
    sub.add_argument(
        "--curvature-sign",
        dest="curv_sign",
        choices=["neg", "zero", "pos", "smooth"],
    )
    sub.add_argument("--label")
    sub.add_argument("--params", help="JSON object of case parameters")
    sub.add_argument("--check", action="store_const", const=True)
    _add_io_flags(sub)

    sub = subs.add_parser("ball", help="unit-ball normalization of a negative family")
    sub.add_argument("--n", type=int)
    sub.add_argument("--lambda", dest="lam", type=_finite_float)
    sub.add_argument("--mu", type=_finite_float)
    sub.add_argument("--branch-index", dest="branch_index", type=int)
    _add_grid_flags(sub)
    _add_io_flags(sub, formats=("json", "csv"))

    sub = subs.add_parser("lemmas", help="certify the constrained sign claims")
    sub.add_argument("--which", choices=["J", "I"])
    sub.add_argument("--samples", type=int)
    sub.add_argument("--seed", type=int)
    _add_io_flags(sub)

    return parser


_CONFIG_KEYMAP = {
    "lambda": "lam",
    "curvature_sign": "curv_sign",
    "output": "output_path",
    "format": "output_format",
    "list": "list_cases",
    "allow_finite_extension": "allow_fe",
}


def _apply_config(args, parser):
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"--config: {exc}")
    if not isinstance(data, dict):
        parser.error("--config: top level must be a JSON object")
    for raw, value in data.items():
        key = str(raw).replace("-", "_")
        key = _CONFIG_KEYMAP.get(key, key)
        if key in ("config", "subcommand") or not hasattr(args, key):
            parser.error(f"--config: unknown key {raw!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _parse_anchor(value, parser):
    parts = value.split(",") if isinstance(value, str) else value
    if isinstance(parts, (list, tuple)) and len(parts) == 2:
        try:
            return _finite_float(parts[0]), _finite_float(parts[1])
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            pass
    parser.error(f"--anchor: expected s0,g0, got {value!r}")


def _parse_grid(value, parser):
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) == 3:
            try:
                lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                parser.error(f"--grid: expected lo:hi:count, got {value!r}")
            if count < 2 or not lo < hi:
                parser.error("--grid: need lo < hi and count >= 2")
            return lo, hi, count
    parser.error(f"--grid: expected lo:hi:count, got {value!r}")


def _resolve_R(args, parser, required=True):
    scalar = getattr(args, "scalar", None)
    sign = getattr(args, "curv_sign", None)
    if scalar is not None and sign is not None:
        parser.error("give either --scalar or --curvature-sign, not both")
    if scalar is not None:
        return float(scalar)
    if sign is None:
        if required:
            parser.error("one of --scalar / --curvature-sign is required")
        return None
    unit = {"neg": -1.0, "zero": 0.0, "pos": 1.0}[sign]
    return unit * args.n * (args.n + 1)


def _configure(args, parser):
    _apply_config(args, parser)
    sub = args.subcommand

    def pick(key, fallback):
        value = getattr(args, key, None)
        return fallback if value is None else value

    n = getattr(args, "n", None)
    if sub in ("classify", "solve", "verify", "ball") and n is None:
        parser.error("--n is required")
    if n is not None:
        n = int(n)

    if sub == "ball":
        R = -float(n * (n + 1))
    elif sub in ("classify", "solve", "verify"):
        R = _resolve_R(args, parser)
    else:
        R = None

    gauge = None
    if sub in ("solve", "verify"):
        anchor = getattr(args, "anchor", None)
        gauge_c = getattr(args, "gauge_c", None)
        if anchor is not None and gauge_c is not None:
            parser.error("give either --anchor or --gauge-c, not both")
        if anchor is not None:
            s0, g0 = _parse_anchor(anchor, parser)
            gauge = ("anchor", s0, g0)
        elif gauge_c is not None:
            gauge = ("c", float(gauge_c))
        elif sub == "solve" or getattr(args, "input", None) is None:
            parser.error("a gauge is required: --anchor s0,g0 or --gauge-c value")

    ball_like = sub == "ball"
    cfg = RunConfig(
        subcommand=sub,
        n=n,
        R=R,
        lam=float(pick("lam", 0.0)),
        mu=float(pick("mu", 0.0)),
        branch_index=int(pick("branch_index", 0)),
        gauge=gauge,
        s_min=float(pick("s_min", 0.01)),
        s_max=float(pick("s_max", 0.99 if ball_like else 100.0)),
        samples=int(pick("samples", 100000 if sub == "lemmas" else 200)),
        tol=float(pick("tol", 1e-6)),
        seed=int(pick("seed", 0)),
        output_format=pick("output_format", "csv" if sub == "solve" else "json"),
        output_path=getattr(args, "output_path", None),
    )
    if not cfg.s_min < cfg.s_max:
        parser.error("need --s-min < --s-max")
    if cfg.samples < 2:
        parser.error("need --samples >= 2")
    if not cfg.tol > 0:
        parser.error("need --tol > 0")

    extras = {
        "allow_fe": bool(pick("allow_fe", False)),
        "grid": None,
        "input": getattr(args, "input", None),
        "list_cases": bool(pick("list_cases", False)),
        "label": getattr(args, "label", None),
        "params": getattr(args, "params", None),
        "check": bool(pick("check", False)),
        "r_sign": getattr(args, "curv_sign", None),
        "which": getattr(args, "which", None),
    }
    grid = getattr(args, "grid", None)
    if grid is not None:
        extras["grid"] = _parse_grid(grid, parser)
    if sub == "lemmas" and extras["which"] is None:
        parser.error("--which {J,I} is required")
    if sub == "catalog" and not extras["list_cases"] and extras["label"] is None:
        parser.error("catalog needs --list or --label")
    if extras["params"] is not None and not isinstance(extras["params"], dict):
        try:
            extras["params"] = json.loads(extras["params"])
        except json.JSONDecodeError as exc:
            parser.error(f"--params: {exc}")
        if not isinstance(extras["params"], dict):
            parser.error("--params: expected a JSON object")
    return cfg, extras


# ---------------------------------------------------------------------------
# pipeline helpers

def _gauged_solution(cfg):
    """Classified branch plus gauged solution; (None, report) if nothing exists."""
    problem = RadialProblem(n=cfg.n, R=cfg.R, lam=cfg.lam, mu=cfg.mu)
    report = classify(problem, allow_finite_extension=True)
    if not report.branches:
        return None, report
    if not 0 <= cfg.branch_index < len(report.branches):
        raise CsckError(
            f"branch index {cfg.branch_index} out of range:"
            f" {len(report.branches)} admissible branch(es)"
        )
    branch = report.branches[cfg.branch_index]
    ode = build_ode(problem)
    F = partial_fractions(ode, branch)
    if cfg.gauge[0] == "anchor":
        sol = gauge_from_anchor(ode, branch, F, (cfg.gauge[1], cfg.gauge[2]))
    else:
        # realize an explicit additive constant through a probe anchor
        probe = probe_point(branch.A, branch.B)
        s_probe = math.exp(eval_F(F, probe) - cfg.gauge[1])
        sol = gauge_from_anchor(ode, branch, F, (s_probe, probe))
    return sol, report


def _sample_rows(sol, cfg):
    rows = []
    for s in np.geomspace(cfg.s_min, cfg.s_max, cfg.samples):
        s = float(s)
        ms = metric_sample(sol, s)
        rows.append((s, solve_g(sol, s), ms.u, ms.up, ms.upp, ms.f, ms.R_num))
    return rows


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(cfg, extras):
    if extras["grid"] is not None:
        lo, hi, count = extras["grid"]
        axis = np.linspace(lo, hi, count)
        counts = {}
        for lam in axis:
            for mu in axis:
                problem = RadialProblem(n=cfg.n, R=cfg.R, lam=float(lam), mu=float(mu))
                verdict = classify(
                    problem, allow_finite_extension=extras["allow_fe"]
                ).verdict.value
                counts[verdict] = counts.get(verdict, 0) + 1
        payload = {
            "type": "classify_grid",
            "n": cfg.n,
            "R": cfg.R,
            "lambda_range": [lo, hi, count],
            "mu_range": [lo, hi, count],
            "verdict_counts": counts,
        }
        return payload, 0
    problem = RadialProblem(n=cfg.n, R=cfg.R, lam=cfg.lam, mu=cfg.mu)
    report = classify(problem, allow_finite_extension=extras["allow_fe"])
    return _classify_payload(cfg, report), 0


def _cmd_solve(cfg, extras):
    sol, report = _gauged_solution(cfg)
    if sol is None:
        return _classify_payload(cfg, report), 2
    rows = _sample_rows(sol, cfg)
    if cfg.output_format == "csv":
        return _csv_text(rows), 0
    branch = report.branches[cfg.branch_index]
    payload = {
        "type": "solve",
        "n": cfg.n,
        "R": cfg.R,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "branch": _branch_dict(branch),
        "c": sol.c,
        "s_domain": list(sol.s_domain),
        "columns": CSV_COLUMNS,
        "samples": [list(row) for row in rows],
    }
    return payload, 0


def _read_samples(path):
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise CsckError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise CsckError(f"expected header {CSV_HEADER!r} in {path}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise CsckError(f"malformed row in {path}: {line!r}")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise CsckError(f"malformed row in {path}: {line!r}") from exc
    if not rows:
        raise CsckError(f"no sample rows in {path}")
    return rows


def _cmd_verify(cfg, extras):
    if extras["input"] is not None:
        rows = _read_samples(extras["input"])
        problem = RadialProblem(n=cfg.n, R=cfg.R, lam=cfg.lam, mu=cfg.mu)
        ode = build_ode(problem)
        triples = [(s, g, up + s * upp) for s, g, u, up, upp, f, rn in rows]
        max_ode = ode_residual(triples, ode)
        max_curv = max(abs(rn - cfg.R) for *_, rn in rows)
        max_slope = max(abs(g - s * up) / (1.0 + abs(g)) for s, g, u, up, *_ in rows)
        max_f = 0.0
        for s, g, u, up, upp, f, rn in rows:
            gd = up + s * upp
            if g <= 0.0 or gd <= 0.0:
                max_f = math.inf
                break
            rebuilt = (cfg.n - 1) * (math.log(g) - math.log(s)) + math.log(gd)
            max_f = max(max_f, abs(f - rebuilt))
        passed = (
            max_curv <= cfg.tol
            and max_ode <= _ODE_CAP
            and max_slope <= _SLOPE_CAP
            and max_f <= _F_CAP
        )
        payload = {
            "type": "verify",
            "source": "csv",
            "rows": len(rows),
            "max_curvature_deviation": max_curv,
            "max_ode_residual": max_ode,
            "max_slope_mismatch": max_slope,
            "max_f_mismatch": max_f,
            "tol": cfg.tol,
            "passed": passed,
        }
        return payload, 0 if passed else 1

    sol, report = _gauged_solution(cfg)
    if sol is None:
        return _classify_payload(cfg, report), 2
    ver = verify_solution(sol, cfg.samples)
    passed = ver.kahler_ok and ver.max_curvature_residual <= cfg.tol
    payload = {
        "type": "verify",
        "source": "pipeline",
        "tol": cfg.tol,
        "passed": passed,
        "verification": asdict(ver),
    }
    return payload, 0 if passed else 1


def _cmd_catalog(cfg, extras):
    if extras["list_cases"]:
        if extras["r_sign"] is None:
            raise CsckError("catalog --list needs --curvature-sign")
        labels = enumerate_cases(cfg.n if cfg.n is not None else 2, extras["r_sign"])
        payload = {
            "type": "catalog_list",
            "n": cfg.n if cfg.n is not None else 2,
            "r_sign": extras["r_sign"],
            "labels": labels,
        }
        return payload, 0
    label = extras["label"]
    params = extras["params"]
    if extras["check"]:
        report = cross_check(label, params, n=cfg.n)
        payload = {
            "type": "catalog_check",
            "label": report.label,
            "n": report.n,
            "verdict": report.verdict,
            "branch_window": (
                None if report.branch_window is None else list(report.branch_window)
            ),
            "s_domain": None if report.s_domain is None else list(report.s_domain),
            "reference_deviation": report.reference_deviation,
            "verification": (
                None if report.verification is None else asdict(report.verification)
            ),
        }
        return payload, 0
    problem, expected = instantiate(label, params, n=cfg.n)
    merged, _ = merged_params(get_case(label), params)
    payload = {
        "type": "catalog_case",
        "label": label,
        "n": problem.n,
        "R": problem.R,
        "lambda": problem.lam,
        "mu": problem.mu,
        "params": {key: float(value) for key, value in merged.items()},
        "expected_branch": (
            None
            if expected is None
            else {
                "A": expected.A,
                "B": expected.B,
                "kind": expected.kind,
                "verdict": expected.verdict,
            }
        ),
    }
    return payload, 0


def _cmd_ball(cfg, extras):
    problem = RadialProblem(n=cfg.n, R=cfg.R, lam=cfg.lam, mu=cfg.mu)
    report = classify(problem, allow_finite_extension=True)
    finite = [b for b in report.branches if b.kind == BranchKind.FINITE_EXTENSION]
    if not finite:
        return _classify_payload(cfg, report), 2
    if not 0 <= cfg.branch_index < len(finite):
        raise CsckError(
            f"branch index {cfg.branch_index} out of range:"
            f" {len(finite)} finite-extension branch(es)"
        )
    branch = finite[cfg.branch_index]
    ode = build_ode(problem)
    F = partial_fractions(ode, branch)
    sol = ball_normalize(ode, branch, F)
    if cfg.output_format == "csv":
        return _csv_text(_sample_rows(sol, cfg)), 0
    ver = verify_solution(sol, cfg.samples)
    payload = {
        "type": "ball",
        "n": cfg.n,
        "R": cfg.R,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "c": sol.c,
        "s_domain": list(sol.s_domain),
        "verification": asdict(ver),
    }
    return payload, 0


def _cmd_lemmas(cfg, extras):
    max_found, witness = certify_negative(extras["which"], cfg.samples, cfg.seed)
    payload = {
        "type": "lemmas",
        "which": extras["which"],
        "n_samples": cfg.samples,
        "seed": cfg.seed,
        "max_found": max_found,
        "negative": max_found < 0.0,
        "witness": {
            "point": list(witness.point),
            "constraint_residuals": list(witness.constraint_residuals),
            "objective": witness.objective,
        },
    }
    return payload, 0 if max_found < 0.0 else 1


_HANDLERS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
    "ball": _cmd_ball,
    "lemmas": _cmd_lemmas,
}


# ---------------------------------------------------------------------------
# entry points

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, extras = _configure(args, parser)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 64
    try:
        result, exit_code = _HANDLERS[cfg.subcommand](cfg, extras)
        text = result if isinstance(result, str) else _dump_json(result)
        _emit(text, cfg.output_path)
    except Exception as exc:
        sys.stderr.write(
            _dump_json(
                {"type": "error", "error": type(exc).__name__, "detail": str(exc)}
            )
        )
        return 1
    return exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
