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
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .branches import BranchKind, classify
from .catalog import cross_check, enumerate_cases, instantiate, merged_params
from .cases import get_case
from .errors import CsckError
from .geometry import metric_sample, verify_solution
from .inequalities import certify_negative
from .quadrature import (
    ball_normalize, eval_F, gauge_from_anchor, partial_fractions, probe_point
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
    """Resolved invocation: problem data, gauge, grid, and output routing.

    The defaults live on the parser, per subcommand; a field whose flag
    the subcommand does not take stays None.
    """

    subcommand: str
    output_format: str
    n: Optional[int] = None
    R: Optional[float] = None
    lam: Optional[float] = None
    mu: Optional[float] = None
    branch_index: Optional[int] = None
    gauge: Optional[tuple] = None  # ("anchor", s0, g0) or ("c", value)
    s_min: Optional[float] = None
    s_max: Optional[float] = None
    samples: Optional[int] = None
    tol: Optional[float] = None
    seed: Optional[int] = None
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


def _add_lambda_mu(sub):
    sub.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    sub.add_argument("--mu", type=_finite_float, default=0.0)


def _add_problem_flags(sub):
    sub.add_argument("--n", type=int)
    sub.add_argument("--scalar", type=_finite_float)
    sub.add_argument(
        "--curvature-sign", dest="curv_sign", choices=["neg", "zero", "pos"]
    )
    _add_lambda_mu(sub)


def _add_io_flags(sub, formats=("json",)):
    sub.add_argument("--config")
    sub.add_argument("--output", dest="output_path")
    sub.add_argument(
        "--format", dest="output_format", choices=list(formats), default=formats[0]
    )


def _add_gauge_flags(sub):
    sub.add_argument("--anchor", help="anchor point s0,g0")
    sub.add_argument("--gauge-c", dest="gauge_c", type=_finite_float)
    sub.add_argument("--branch-index", dest="branch_index", type=int, default=0)


def _add_grid_flags(sub, s_max=100.0):
    sub.add_argument("--s-min", dest="s_min", type=_finite_float, default=0.01)
    sub.add_argument("--s-max", dest="s_max", type=_finite_float, default=s_max)
    sub.add_argument("--samples", type=int, default=200)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csck",
        description="classify, solve, and verify radial constant-curvature profiles",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("classify", help="existence verdict and admissible windows")
    _add_problem_flags(sub)
    _add_io_flags(sub)
    sub.add_argument("--allow-finite-extension", dest="allow_fe", action="store_true")
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
    sub.add_argument("--tol", type=_finite_float, default=1e-6)

    sub = subs.add_parser("catalog", help="catalogued families: list, build, check")
    sub.add_argument("--list", dest="list_cases", action="store_true")
    sub.add_argument("--n", type=int)
    sub.add_argument(
        "--curvature-sign",
        dest="curv_sign",
        choices=["neg", "zero", "pos", "smooth"],
    )
    sub.add_argument("--label")
    sub.add_argument("--params", help="JSON object of case parameters")
    sub.add_argument("--check", action="store_true")
    _add_io_flags(sub)

    sub = subs.add_parser("ball", help="unit-ball normalization of a negative family")
    sub.add_argument("--n", type=int)
    _add_lambda_mu(sub)
    sub.add_argument("--branch-index", dest="branch_index", type=int, default=0)
    _add_grid_flags(sub, s_max=0.99)
    _add_io_flags(sub, formats=("json", "csv"))

    sub = subs.add_parser("lemmas", help="certify the constrained sign claims")
    sub.add_argument("--which", choices=["J", "I"])
    sub.add_argument("--samples", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=0)
    _add_io_flags(sub)

    return parser


def _parse_args(parser, argv):
    """Parse argv, reading the keys of a --config file as long flags.

    A config's flags go right after the subcommand, so each value passes
    through its flag's type and check, and the explicit flags, parsed
    after them, win. true stands for a bare switch, false and null for
    an absent flag, a list for its comma-joined items (the anchor) and an
    object for its JSON text (the params).
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config: {exc}")
    if not isinstance(data, dict):
        parser.error("--config: top level must be a JSON object")
    tokens = []
    for key, value in data.items():
        flag = "--" + str(key).replace("_", "-")
        if flag in ("--config", "--help"):
            parser.error(f"--config: unknown key {key!r}")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            elif isinstance(value, dict):
                value = json.dumps(value)
            tokens.append(f"{flag}={value}")
    args, unknown = parser.parse_known_args(argv[:1] + tokens + argv[1:])
    if unknown:
        parser.error(f"--config: unknown key in {unknown[0]!r}")
    return args


def _parse_anchor(value, parser):
    parts = value.split(",")
    if len(parts) == 2:
        try:
            return _finite_float(parts[0]), _finite_float(parts[1])
        except (ValueError, argparse.ArgumentTypeError):
            pass
    parser.error(f"--anchor: expected s0,g0, got {value!r}")


def _parse_grid(value, parser):
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


def _resolve_R(args, parser):
    if args.scalar is not None and args.curv_sign is not None:
        parser.error("give either --scalar or --curvature-sign, not both")
    if args.scalar is not None:
        return args.scalar
    if args.curv_sign is None:
        parser.error("one of --scalar / --curvature-sign is required")
    unit = {"neg": -1.0, "zero": 0.0, "pos": 1.0}[args.curv_sign]
    return unit * args.n * (args.n + 1)


def _configure(args, parser):
    sub = args.subcommand
    n = getattr(args, "n", None)
    if sub in ("classify", "solve", "verify", "ball") and n is None:
        parser.error("--n is required")

    if sub == "ball":
        R = -float(n * (n + 1))
    elif sub in ("classify", "solve", "verify"):
        R = _resolve_R(args, parser)
    else:
        R = None

    gauge = None
    if sub in ("solve", "verify"):
        if args.anchor is not None and args.gauge_c is not None:
            parser.error("give either --anchor or --gauge-c, not both")
        if args.anchor is not None:
            s0, g0 = _parse_anchor(args.anchor, parser)
            gauge = ("anchor", s0, g0)
        elif args.gauge_c is not None:
            gauge = ("c", args.gauge_c)
        elif sub == "solve" or args.input is None:
            parser.error("a gauge is required: --anchor s0,g0 or --gauge-c value")

    names = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(
        R=R, gauge=gauge, **{k: v for k, v in vars(args).items() if k in names}
    )
    if cfg.s_min is not None and not cfg.s_min < cfg.s_max:
        parser.error("need --s-min < --s-max")
    if cfg.samples is not None and cfg.samples < 2:
        parser.error("need --samples >= 2")
    if cfg.tol is not None and not cfg.tol > 0:
        parser.error("need --tol > 0")

    extras = {
        key: getattr(args, key, None)
        for key in ("allow_fe", "input", "list_cases", "label", "params", "check", "which")
    }
    extras["r_sign"] = getattr(args, "curv_sign", None)
    grid = getattr(args, "grid", None)
    extras["grid"] = None if grid is None else _parse_grid(grid, parser)
    if sub == "lemmas" and extras["which"] is None:
        parser.error("--which {J,I} is required")
    if sub == "catalog" and not extras["list_cases"] and extras["label"] is None:
        parser.error("catalog needs --list or --label")
    if extras["params"] is not None:
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
    ms = metric_sample(sol, np.geomspace(cfg.s_min, cfg.s_max, cfg.samples))
    columns = (ms.s, ms.g, ms.u, ms.up, ms.upp, ms.f, ms.R_num)
    return list(zip(*(column.tolist() for column in columns)))


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
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
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
