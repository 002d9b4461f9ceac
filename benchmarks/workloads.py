"""The three csck benchmark workloads, their inputs and their checks.

Every workload turns the benchmark seed into its inputs and runs them in
one process with no threads. ``batches`` yields the inputs of the timed
run in groups; the timed loop only stops between groups, so the catalog
pass of ``profile`` and the command cycle of ``cli`` are always whole
and the mix of ops does not depend on where the clock ran out.
``traced_items`` is a fixed op list per seed, so the counts of a traced
run repeat exactly. ``run`` executes one op, checks its outputs, and
returns the names of the checks that failed; exceptions propagate.
``reference`` times a task that runs no csck code, and ``reference_s``
is its nominal time on the reference machine; the timed loop scales op
times by their ratio to follow the drifting speed of a shared machine.

The program is called through its module attributes (``branches.classify``
rather than a name bound here), so that the tracer's rebinding reaches
these calls too. Checks use functions captured at import, which the
tracer never sees.

sweep
    Random problems: n in 2..8, R in {0, +-1/2, +-1, +-2} n(n+1), lambda
    and mu from N(0, 3^2) with |lambda| >= 0.25. Each op classifies with
    finite extensions allowed, then for every branch builds F, fixes the
    gauge at the probe point and inverts g cold and unsorted at up to 8
    targets in draw order: g - A log-uniform in [0.01, 100](g0 - A) on
    rays, g uniform in the middle 99% of finite windows, each kept only
    where the inversion is well posed in double precision. Root isolation
    and cold inversion dominate; geometry is never called. The open
    ROADMAP item-3 and item-4 defects make ops fail, so the workload stays
    clear of them and DefectProbe counts them instead.
profile
    Every catalog fixture at default parameters (the dimension-free
    families at n = 2 and 3), in a seeded order per pass. Each op runs
    cross_check, the ``csck solve`` row path (metric_sample on a sorted
    geomspace grid), verify_solution, and the shoot_ode comparison of
    acceptance criterion 3. Warm, sorted inversion inside potential_u
    dominates; root isolation is negligible.
cli
    Fresh ``python -m csck.cli`` processes, one at a time (a closed loop
    with one client), over the documented commands in a seeded order per
    cycle. Interpreter start and import dominate. A traced run calls
    ``csck.cli.main`` in-process instead.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

from csck import branches, catalog, cases, cli, geometry, quadrature, reduction

_eval_F = quadrature.eval_F


def interpreter_kernel():
    """Seconds taken by a fixed arithmetic loop that runs no csck code.

    The in-process workloads time it between ops to follow the speed of
    a shared machine; its median on the reference machine is KERNEL_S.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 20001):
        x = i * 1e-3
        acc += math.log(x) + 1.0 / (x + 1.0) + ((x - 0.5) * x + 2.0) * x
    return time.perf_counter() - t0


KERNEL_S = 0.0075


def probe_point(branch):
    return branch.A + 1.0 if math.isinf(branch.B) else 0.5 * (branch.A + branch.B)


# ---------------------------------------------------------------------------
# sweep

_DIMENSIONS = range(2, 9)
_R_FACTORS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
_S_PER_BRANCH = 8
# solve_g stops bisecting at this relative width (quadrature._BISECT_REL)
_INVERSION_WIDTH = 1e-13
# |lambda| below this reaches ROADMAP item 4(a): IllConditionedError at
# n >= 5, seen only for |lambda| < 0.1 in 200k draws
_LAMBDA_FLOOR = 0.25
# a target g is well posed when F rises across the stopping width by this
# many times the rounding error of evaluating F there
_WELL_POSED = 16.0
_EPS = 2.0**-52


def _inversion_bracketed(sol, s, g):
    """F(g - d) <= log s + c <= F(g + d), clipped to the window."""
    A, B = sol.branch.A, sol.branch.B
    if not (A <= g <= B):
        return False
    d = _INVERSION_WIDTH * (1.0 + abs(g))
    t = math.log(s) + sol.c
    return _eval_F(sol.F, max(g - d, A)) <= t <= _eval_F(sol.F, min(g + d, B))


def _term_magnitude(t, x):
    if isinstance(t, quadrature.LogLinear):
        return abs(t.c * math.log(abs(x - t.alpha)))
    if isinstance(t, quadrature.RecipPower):
        return abs(t.c / (x - t.alpha) ** t.p)
    if isinstance(t, quadrature.LogQuadratic):
        return abs(t.c * math.log((x - t.beta) ** 2 + t.gamma**2))
    return abs(t.c * math.atan((x - t.beta) / t.gamma))


def well_posed_target(sol, g):
    """s with g(s) = g when F rises across the stopping width at g by
    _WELL_POSED times the rounding error of F, else None.

    Where F is flat to rounding the inversion has no double-precision
    answer that the bracket check could confirm.
    """
    x = _eval_F(sol.F, g) - sol.c
    if not -700.0 < x < 700.0:
        return None
    noise = _EPS * (sum(_term_magnitude(t, g) for t in sol.F.terms) + abs(sol.c) + 1.0)
    rise = 2.0 * _INVERSION_WIDTH * (1.0 + abs(g)) * sol.F.derivative(g)
    return math.exp(x) if rise >= _WELL_POSED * noise else None


class Sweep:
    name = "sweep"
    reference = staticmethod(interpreter_kernel)
    reference_s = KERNEL_S
    calibrate_every = 0.1
    tail_percent = 99
    traced_ops = 2000
    check_name = "sweep.inversion_bracket"

    def __init__(self, seed, workdir):
        self.seed = seed

    @staticmethod
    def draw(rng, n, factor):
        lam = rng.gauss(0.0, 3.0)
        while abs(lam) < _LAMBDA_FLOOR:
            lam = rng.gauss(0.0, 3.0)
        mu = rng.gauss(0.0, 3.0)
        return n, factor * n * (n + 1), lam, mu, tuple(rng.random() for _ in range(_S_PER_BRANCH))

    @staticmethod
    def targets(sol, us):
        """Well-posed s for log-uniform g - A in [0.01, 100](g0 - A) on rays
        and uniform g in the middle 99% of finite windows, in draw order."""
        A, B = sol.branch.A, sol.branch.B
        g0 = probe_point(sol.branch)
        for u in us:
            if math.isinf(B):
                g = A + (g0 - A) * 10.0 ** (4.0 * u - 2.0)
            else:
                g = A + (B - A) * (0.005 + 0.99 * u)
            s = well_posed_target(sol, g)
            if s is not None:
                yield s

    def batches(self):
        """Every (n, R factor) pair once per batch, in a seeded order, so
        the share of costly problems is the same in every run."""
        rng = random.Random(self.seed)
        while True:
            batch = [self.draw(rng, n, f) for n in _DIMENSIONS for f in _R_FACTORS]
            rng.shuffle(batch)
            yield batch

    def traced_items(self):
        return list(itertools.islice(itertools.chain.from_iterable(self.batches()), self.traced_ops))

    def run(self, item):
        n, R, lam, mu, us = item
        problem = reduction.RadialProblem(n, R, lam, mu)
        report = branches.classify(problem, allow_finite_extension=True)
        ode = reduction.build_ode(problem)
        failed = []
        for branch in report.branches:
            F = quadrature.partial_fractions(ode, branch)
            sol = quadrature.gauge_from_anchor(ode, branch, F, (1.0, probe_point(branch)))
            for s in self.targets(sol, us):
                if not _inversion_bracketed(sol, s, quadrature.solve_g(sol, s)):
                    failed.append(self.check_name)
        return failed


class DefectProbe(Sweep):
    """The ROADMAP item-3 probe widened to n <= 8, as the sweep first drew
    it: any lambda, and s log-uniform in [0.01, 100] (the four decades
    below min(100, s_hi) on finite domains), which reaches the open item-3
    and item-4 defects. A traced sweep run counts its failures apart from
    the workload's ops."""

    check_name = "probe.inversion_bracket"

    def traced_items(self):
        rng = random.Random(self.seed)
        items = []
        for _ in range(self.traced_ops):
            n = rng.randint(2, 8)
            R = rng.choice(_R_FACTORS) * n * (n + 1)
            lam, mu = rng.gauss(0.0, 3.0), rng.gauss(0.0, 3.0)
            items.append((n, R, lam, mu, tuple(rng.random() for _ in range(_S_PER_BRANCH))))
        return items

    @staticmethod
    def targets(sol, us):
        top = min(100.0, sol.s_domain[1])
        for u in us:
            yield top * 1e-4 ** (1.0 - u)


# ---------------------------------------------------------------------------
# profile

_ROWS = 12  # metric_sample grid of the `csck solve` row path
_SHOOT_POINTS = 40  # acceptance criterion 3 grid
_SHOOT_TOL = 1e-6  # acceptance criterion 3
_REFERENCE_TOL = 1e-9  # acceptance criterion 2
_BALL_TOL = 1e-5  # acceptance criterion 5


def _fixtures():
    out = []
    for label, fix in cases.CASES.items():
        if fix.n_is_free and fix.verdict != "Nonexistent":
            out += [(label, 2), (label, 3)]
        else:
            out.append((label, None))
    return out


def _ends_match(x, y):
    if math.isinf(x) or math.isinf(y):
        return math.isinf(x) and math.isinf(y)
    return abs(x - y) <= 1e-8 * (1.0 + abs(y))


class Profile:
    name = "profile"
    reference = staticmethod(interpreter_kernel)
    reference_s = KERNEL_S
    calibrate_every = 0.1
    tail_percent = 90

    def __init__(self, seed, workdir):
        self.seed = seed
        self.fixtures = _fixtures()

    def batches(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.fixtures)
            rng.shuffle(order)
            yield order

    def traced_items(self):
        return next(self.batches())

    def _solution(self, label, n):
        problem, expected = catalog.instantiate(label, n=n)
        finite = cases.get_case(label).kind == "FiniteExtension"
        report = branches.classify(problem, allow_finite_extension=finite)
        branch = next(
            b
            for b in report.branches
            if _ends_match(b.A, expected.A) and _ends_match(b.B, expected.B)
        )
        ode = reduction.build_ode(problem)
        F = quadrature.partial_fractions(ode, branch)
        if finite:
            return quadrature.ball_normalize(ode, branch, F)
        return quadrature.gauge_from_anchor(ode, branch, F, (1.0, probe_point(branch)))

    def run(self, item):
        label, n = item
        failed = []
        report = catalog.cross_check(label, n=n)
        if report.verification is None:
            if report.verdict != "Nonexistent":
                failed.append("profile.verdict")
            return failed
        if label.startswith(("1.2", "1.3", "1.4", "1.5")):
            dev = report.reference_deviation
            if dev is None or not dev < _REFERENCE_TOL:
                failed.append("profile.criterion2_reference")
        ball = label.startswith("1.7")
        if ball and not (
            report.s_domain == (0.0, 1.0)
            and report.verification.max_curvature_residual < _BALL_TOL
        ):
            failed.append("profile.criterion5_ball")
        if not report.verification.kahler_ok:
            failed.append("profile.kahler_ok")

        sol = self._solution(label, n)
        hi = sol.s_domain[1]
        finite = not math.isinf(hi)
        for s in np.geomspace(0.01, 0.99 * hi if finite else 100.0, _ROWS):
            s = float(s)
            row = geometry.metric_sample(sol, s)
            quadrature.solve_g(sol, s)  # a `csck solve` row also reports g
            if not all(math.isfinite(v) for v in (row.u, row.up, row.upp, row.f, row.R_num)):
                failed.append("profile.row_finite")
        ver = geometry.verify_solution(sol, _ROWS)
        if not ver.kahler_ok:
            failed.append("profile.kahler_ok")
        if ball and not ver.max_curvature_residual < _BALL_TOL:
            failed.append("profile.criterion5_ball")

        grid = np.geomspace(0.01, 0.95 * hi if finite else 100.0, _SHOOT_POINTS)
        s0 = float(grid[-1] if finite else grid[_SHOOT_POINTS // 2])
        shot = quadrature.shoot_ode(
            sol.ode, s0, quadrature.solve_g(sol, s0), [float(s) for s in grid]
        )
        dev = max(abs(g - quadrature.solve_g(sol, s)) for s, g in shot.samples)
        if shot.domain_end is not None or not dev < _SHOOT_TOL:
            failed.append("profile.criterion3_shoot")
        return failed


# ---------------------------------------------------------------------------
# cli

_CSV = "{workdir}/run.csv"
# (name, argv, output): the documented commands; output is "json" for a
# report on stdout and "csv" for the sample file solve writes
CLI_COMMANDS = (
    ("classify", ["classify", "--n", "2", "--scalar", "-6", "--lambda", "0", "--mu", "0"], "json"),
    ("classify_grid", ["classify", "--n", "3", "--scalar", "0", "--grid=-10:10:21"], "json"),
    (
        "solve",
        ["solve", "--n", "2", "--scalar", "6", "--lambda", "0", "--mu", "0",
         "--anchor", "1,0.5", "--s-min", "0.01", "--s-max", "100",
         "--samples", "200", "--output", _CSV],
        "csv",
    ),
    ("verify_input", ["verify", "--input", _CSV, "--n", "2", "--scalar", "6"], "json"),
    (
        "verify",
        ["verify", "--n", "3", "--scalar", "12", "--lambda", "0", "--mu", "0",
         "--anchor", "1,0.5", "--tol", "1e-6"],
        "json",
    ),
    ("catalog_check", ["catalog", "--label", "1.5.2", "--check"], "json"),
    ("ball", ["ball", "--n", "2", "--lambda", "0", "--mu", "0"], "json"),
    ("lemmas", ["lemmas", "--which", "J"], "json"),
)
# verify --input reads what solve wrote, so the two stay adjacent
_UNITS = (
    ("classify",), ("classify_grid",), ("solve", "verify_input"),
    ("verify",), ("catalog_check",), ("ball",), ("lemmas",),
)
_CSV_ROWS = 200
_CHILD_TIMEOUT = 120


def schema_validator(src):
    import jsonschema

    with open(os.path.join(src, "csck", "schemas", "report.schema.json")) as fh:
        schema = json.load(fh)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


class Cli:
    name = "cli"
    reference_s = 0.27
    calibrate_every = 1.0
    # 24-32 commands per run leave at least 10 beyond p55
    tail_percent = 55

    def __init__(self, seed, workdir, src):
        self.seed = seed
        self.inprocess = False
        self.csv_path = _CSV.format(workdir=workdir)
        self.commands = {
            name: ([a.format(workdir=workdir) for a in argv], kind)
            for name, argv, kind in CLI_COMMANDS
        }
        self.validator = schema_validator(src)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.first_output = {}

    def batches(self):
        rng = random.Random(self.seed)
        while True:
            units = list(_UNITS)
            rng.shuffle(units)
            yield [name for unit in units for name in unit]

    def traced_items(self):
        return next(self.batches())

    def reference(self):
        """Seconds for a fresh interpreter to import numpy: start-up and
        import work like each command's, but no csck code. Its median on
        the reference machine is reference_s."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import numpy"], env=self.env, check=True,
            timeout=_CHILD_TIMEOUT,
        )
        return time.perf_counter() - t0

    def _child(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "csck.cli", *argv],
            env=self.env,
            capture_output=True,
            timeout=_CHILD_TIMEOUT,
        )
        return proc.returncode, proc.stdout

    def _inprocess(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue().encode()

    def run(self, name):
        argv, kind = self.commands[name]
        code, out = (self._inprocess if self.inprocess else self._child)(argv)
        failed = []
        if code != 0:  # every command in the mix documents exit 0 here
            failed.append("cli.exit_code")
        if kind == "csv":
            with open(self.csv_path, "rb") as fh:
                out = fh.read()
            lines = out.decode().splitlines()
            if lines[:1] != [cli.CSV_HEADER] or len(lines) != _CSV_ROWS + 1:
                failed.append("cli.csv_rows")
        else:
            try:
                payload = json.loads(out)
            except ValueError:
                payload = None
            if payload is None or not self.validator.is_valid(payload):
                failed.append("cli.schema")
        if self.first_output.setdefault(name, out) != out:
            failed.append("cli.identical")
        return failed
