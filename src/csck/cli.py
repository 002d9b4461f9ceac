"""Command-line front end for the radial engine.

Subcommands: classify, solve, verify, catalog, ball, lemmas. Reports are
JSON with sorted keys (nonfinite numbers spelled "inf"/"-inf"/"nan");
sample dumps are CSV with the fixed columns s,g,u,up,upp,f,R_num so that
verify can re-ingest solve output. Exit codes: 0 success, 1 runtime or
verification failure, 2 nothing to solve, 64 flag errors.

The parsed argparse namespace is the whole configuration: every handler
takes it as is. argparse owns the flag checks (the flag types, required
flags and mutually exclusive groups); _parse_args adds R, the need for a
gauge, the flags a mode never reads and s-min < s-max to the namespace.
solve, verify and ball share one pipeline, _solution: classify, branch,
F, gauge.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

# only the layers that load no numpy; each handler imports what else it
# calls, so that lemmas and verify --input never load numpy
from .branches import BranchKind, classify
from .cases import _SIGNS, get_case, labels_for, signed_curvature
from .errors import CsckError
from .inequalities import certify_negative
from .reduction import RadialProblem, _density, build_ode, ode_residual

# the fields of geometry.MetricSample, in order: _sample_rows reads them by name
CSV_HEADER = "s,g,u,up,upp,f,R_num"
CSV_COLUMNS = CSV_HEADER.split(",")

# structural gates for re-ingested sample files; curvature gets --tol
_ODE_CAP = 1e-8
_SLOPE_CAP = 1e-9
_F_CAP = 1e-8


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


def _header(problem):
    """The n, R, lambda and mu fields of a report on one problem."""
    return {"n": problem.n, "R": problem.R, "lambda": problem.lam, "mu": problem.mu}


def _classify_payload(report):
    return {
        "type": "classify",
        **_header(report.problem),
        "verdict": report.verdict.value,
        "matched_case": report.matched_case,
        "branches": [asdict(b) for b in report.branches],
        "diagnostics": list(report.diagnostics),
    }


# ---------------------------------------------------------------------------
# flag types

def _finite_float(text):
    """argparse type of every float flag: nan and +-inf are flag errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _sample_count(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples, got {text!r}")
    return value


def _dimension(text):
    """argparse type of the required --n flags: an integer n >= 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"dimension n must be at least 2, got {text!r}")
    return value


def _anchor(text):
    """s0,g0 as a pair of finite floats."""
    try:
        s0, g0 = text.split(",")
        return _finite_float(s0), _finite_float(g0)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expected s0,g0, got {text!r}") from None


def _grid(text):
    """lo:hi:count with finite lo < hi, a finite span hi - lo and count >= 2."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = _finite_float(lo), _finite_float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}") from None
    if count < 2 or not 0.0 < hi - lo < math.inf:
        raise argparse.ArgumentTypeError("need lo < hi, a finite hi - lo and count >= 2")
    return lo, hi, count


def _json_object(text):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("expected a JSON object")
    return value


# ---------------------------------------------------------------------------
# parser

def _add_lambda_mu(sub):
    sub.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    sub.add_argument("--mu", type=_finite_float, default=0.0)


def _add_problem_flags(sub):
    sub.add_argument("--n", type=_dimension, required=True)
    curvature = sub.add_mutually_exclusive_group(required=True)
    curvature.add_argument("--scalar", type=_finite_float)
    curvature.add_argument("--curvature-sign", dest="curv_sign", choices=list(_SIGNS))
    _add_lambda_mu(sub)


def _add_io_flags(sub, formats=("json",)):
    sub.add_argument("--config")
    sub.add_argument("--output", dest="output_path")
    sub.add_argument(
        "--format", dest="output_format", choices=list(formats), default=formats[0]
    )


def _add_gauge_flags(sub):
    gauge = sub.add_mutually_exclusive_group()
    gauge.add_argument("--anchor", type=_anchor, help="anchor point s0,g0")
    gauge.add_argument("--gauge-c", dest="gauge_c", type=_finite_float)
    sub.add_argument("--branch-index", dest="branch_index", type=int, default=0)


def _add_grid_flags(sub):
    sub.add_argument("--s-min", dest="s_min", type=_positive_float, default=0.01)
    sub.add_argument("--s-max", dest="s_max", type=_positive_float, default=100.0)
    sub.add_argument("--samples", type=_sample_count, default=200)


# the flags that one mode of a subcommand never reads: (subcommand, mode,
# the mode's test, {dest: default}). They parse to None when left out, so
# that given in that mode, from the command line or --config, they are a
# flag error; _parse_args fills in the defaults after that check
_UNREAD = (
    ("verify", "--input", lambda a: a.input is not None,
     {"anchor": None, "gauge_c": None, "branch_index": 0, "samples": 200}),
    ("classify", "--grid", lambda a: a.grid is not None, {"lam": 0.0, "mu": 0.0}),
    ("catalog", "--list", lambda a: a.list_cases, {"params": None, "check": False}),
    ("catalog", "--label", lambda a: a.label is not None, {"curv_sign": None}),
    ("ball", "in JSON format", lambda a: a.output_format == "json",
     {"s_min": 0.01, "s_max": 0.99}),
)


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
    sub.add_argument("--grid", type=_grid, help="sweep lambda and mu over lo:hi:count")

    sub = subs.add_parser("solve", help="sample a gauged solution profile")
    _add_problem_flags(sub)
    _add_gauge_flags(sub)
    _add_grid_flags(sub)
    _add_io_flags(sub, formats=("csv", "json"))

    sub = subs.add_parser("verify", help="check curvature constancy of a solution")
    _add_problem_flags(sub)
    _add_gauge_flags(sub)
    # the s-grid is verify_solution's own; only its size is a flag
    sub.add_argument("--samples", type=_sample_count)
    _add_io_flags(sub)
    sub.add_argument("--input", help="CSV sample file produced by solve")
    sub.add_argument("--tol", type=_positive_float, default=1e-6)

    sub = subs.add_parser("catalog", help="catalogued families: list, build, check")
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--list", dest="list_cases", action="store_true")
    which.add_argument("--label")
    sub.add_argument("--n", type=int)
    sub.add_argument("--curvature-sign", dest="curv_sign", choices=[*_SIGNS, "smooth"])
    sub.add_argument("--params", type=_json_object, help="JSON object of case parameters")
    sub.add_argument("--check", action="store_true")
    _add_io_flags(sub)

    sub = subs.add_parser("ball", help="unit-ball normalization of a negative family")
    sub.add_argument("--n", type=_dimension, required=True)
    _add_lambda_mu(sub)
    sub.add_argument("--branch-index", dest="branch_index", type=int, default=0)
    _add_grid_flags(sub)
    _add_io_flags(sub, formats=("json", "csv"))

    sub = subs.add_parser("lemmas", help="certify the constrained sign claims")
    sub.add_argument("--which", choices=["J", "I"], required=True)
    _add_io_flags(sub)

    for command, _mode, _applies, flags in _UNREAD:
        subs.choices[command].set_defaults(**dict.fromkeys(flags))
    return parser


def _parse_args(parser, argv):
    """Parse argv, reading the keys of a --config file as long flags.

    A pre-scan reads only --config. The config's flags go right after the
    subcommand, so each value passes through its flag's type and check,
    and the explicit flags, parsed after them, win. true stands for a
    bare switch, false and null for an absent flag, a list for its
    comma-joined items (the anchor) and an object for its JSON text (the
    params). What no single flag settles is settled on the namespace:
    R, the curvature sign that catalog --list needs, the need for a
    gauge, the flags of _UNREAD, and s-min < s-max.
    """
    pre = argparse.ArgumentParser(prog="csck", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    tokens = []
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        if not isinstance(data, dict):
            parser.error("--config: top level must be a JSON object")
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
    args = parser.parse_args(argv[:1] + tokens + argv[1:])

    if "scalar" in args:
        if args.scalar is not None:
            args.R = args.scalar
        else:
            args.R = signed_curvature(_SIGNS[args.curv_sign], args.n)
    elif args.subcommand == "ball":
        args.R = signed_curvature(-1, args.n)
    if args.subcommand == "catalog" and args.list_cases and args.curv_sign is None:
        parser.error("catalog --list needs --curvature-sign")
    for command, mode, applies, flags in _UNREAD:
        if args.subcommand == command:
            given = [key for key in flags if getattr(args, key) is not None]
            if given and applies(args):
                names = {"lam": "lambda", "curv_sign": "curvature_sign"}
                text = ", ".join("--" + names.get(key, key).replace("_", "-") for key in given)
                parser.error(f"{command} {mode} does not read {text}")
            vars(args).update((key, flags[key]) for key in flags if key not in given)
    if "anchor" in args and args.anchor is None and args.gauge_c is None:
        if getattr(args, "input", None) is None:
            parser.error("a gauge is required: --anchor s0,g0 or --gauge-c value")
    if "s_min" in args and not args.s_min < args.s_max:
        parser.error("need --s-min < --s-max")
    return args


# ---------------------------------------------------------------------------
# pipeline helpers

def _problem(args):
    return RadialProblem(n=args.n, R=args.R, lam=args.lam, mu=args.mu)


def _solution(args, finite_only=False):
    """Classified branch plus gauged solution; (None, report) if nothing exists.

    With finite_only, only the finite-extension branches count and the
    solution is normalized to the unit ball; otherwise the gauge is the
    anchor or the constant c of the flags.
    """
    from .quadrature import RadialSolution, ball_normalize, gauge_from_anchor, partial_fractions

    report = classify(_problem(args), allow_finite_extension=True)
    branches = report.branches
    if finite_only:
        branches = [b for b in branches if b.kind == BranchKind.FINITE_EXTENSION]
    if not branches:
        return None, report
    if not 0 <= args.branch_index < len(branches):
        kind = "finite-extension" if finite_only else "admissible"
        raise CsckError(
            f"branch index {args.branch_index} out of range:"
            f" {len(branches)} {kind} branch(es)"
        )
    branch = branches[args.branch_index]
    F = partial_fractions(report.ode, branch)
    if finite_only:
        sol = ball_normalize(report.ode, branch, F)
    elif args.anchor is not None:
        sol = gauge_from_anchor(report.ode, branch, F, args.anchor)
    else:
        sol = RadialSolution(report.ode, branch, F, args.gauge_c)
    return sol, report


def _sample_rows(sol, args):
    import numpy as np

    from .geometry import metric_sample

    ms = metric_sample(sol, np.geomspace(args.s_min, args.s_max, args.samples))
    return list(zip(*(getattr(ms, name).tolist() for name in CSV_COLUMNS)))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args):
    if args.grid is not None:
        import numpy as np

        lo, hi, count = args.grid
        axis = np.linspace(lo, hi, count)
        counts = {}
        for lam in axis:
            for mu in axis:
                problem = RadialProblem(n=args.n, R=args.R, lam=float(lam), mu=float(mu))
                verdict = classify(problem, allow_finite_extension=args.allow_fe).verdict
                counts[verdict.value] = counts.get(verdict.value, 0) + 1
        payload = {
            "type": "classify_grid",
            "n": args.n,
            "R": args.R,
            "lambda_range": [lo, hi, count],
            "mu_range": [lo, hi, count],
            "verdict_counts": counts,
        }
        return payload, 0
    report = classify(_problem(args), allow_finite_extension=args.allow_fe)
    return _classify_payload(report), 0


def _cmd_solve(args):
    sol, report = _solution(args)
    if sol is None:
        return _classify_payload(report), 2
    rows = _sample_rows(sol, args)
    if args.output_format == "csv":
        return _csv_text(rows), 0
    payload = {
        "type": "solve",
        **_header(report.problem),
        "branch": asdict(sol.branch),
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
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise CsckError(f"malformed row in {path}: {line!r}") from exc
        # a nan would drop out of the max() of every check below
        if not all(map(math.isfinite, row)):
            raise CsckError(f"malformed row in {path}: {line!r}")
        rows.append(row)
    if not rows:
        raise CsckError(f"no sample rows in {path}")
    return rows


def _cmd_verify(args):
    if args.input is not None:
        rows = _read_samples(args.input)
        ode = build_ode(_problem(args))
        triples = [(s, g, up + s * upp) for s, g, u, up, upp, f, rn in rows]
        max_ode = ode_residual(triples, ode)
        max_curv = max(abs(rn - args.R) for *_, rn in rows)
        max_slope = max(abs(g - s * up) / (1.0 + abs(g)) for s, g, u, up, *_ in rows)
        max_f = 0.0
        for s, g, u, up, upp, f, rn in rows:
            gd = up + s * upp
            if g <= 0.0 or gd <= 0.0:
                max_f = math.inf
                break
            max_f = max(max_f, abs(f - _density(ode.k, s, g, gd)))
        passed = (
            max_curv <= args.tol
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
            "tol": args.tol,
            "passed": passed,
        }
        return payload, 0 if passed else 1

    from .geometry import verify_solution

    sol, report = _solution(args)
    if sol is None:
        return _classify_payload(report), 2
    ver = verify_solution(sol, args.samples)
    passed = ver.kahler_ok and ver.max_curvature_residual <= args.tol
    payload = {
        "type": "verify",
        "source": "pipeline",
        "tol": args.tol,
        "passed": passed,
        "verification": asdict(ver),
    }
    return payload, 0 if passed else 1


def _cmd_catalog(args):
    if args.list_cases:
        n = 2 if args.n is None else args.n
        payload = {
            "type": "catalog_list",
            "n": n,
            "r_sign": args.curv_sign,
            "labels": labels_for(n, args.curv_sign),
        }
        return payload, 0
    from .catalog import cross_check, instantiate, merged_params

    label, params = args.label, args.params
    if args.check:
        report = cross_check(label, params, n=args.n)
        return {"type": "catalog_check", **asdict(report)}, 0
    problem, expected = instantiate(label, params, n=args.n)
    merged, _ = merged_params(get_case(label), params)
    payload = {
        "type": "catalog_case",
        "label": label,
        **_header(problem),
        "params": {key: float(value) for key, value in merged.items()},
        "expected_branch": None if expected is None else asdict(expected),
    }
    return payload, 0


def _cmd_ball(args):
    from .geometry import verify_solution

    sol, report = _solution(args, finite_only=True)
    if sol is None:
        return _classify_payload(report), 2
    if args.output_format == "csv":
        return _csv_text(_sample_rows(sol, args)), 0
    ver = verify_solution(sol, args.samples)
    payload = {
        "type": "ball",
        **_header(report.problem),
        "c": sol.c,
        "s_domain": list(sol.s_domain),
        "verification": asdict(ver),
    }
    return payload, 0


def _cmd_lemmas(args):
    identity, holds, witness = certify_negative(args.which)
    payload = {
        "type": "lemmas",
        "which": args.which,
        "identity": identity,
        "supremum": 0.0,
        "negative": holds,
        "witness": asdict(witness),
    }
    return payload, 0 if holds else 1


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
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 64
    try:
        result, exit_code = _HANDLERS[args.subcommand](args)
        text = result if isinstance(result, str) else _dump_json(result)
        if args.output_path is None:
            sys.stdout.write(text)
        else:
            with open(args.output_path, "w") as fh:
                fh.write(text)
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
