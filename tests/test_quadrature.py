"""Antiderivative splitting, gauge fixing, inversion, and the direct shoot."""

import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from csck import (
    ArcTan,
    BadAnchorError,
    Branch,
    BranchKind,
    CsckError,
    IllConditionedError,
    LogLinear,
    LogQuadratic,
    NotNormalizableError,
    OdeData,
    OutOfDomainError,
    Poly,
    RadialProblem,
    RadialSolution,
    RecipPower,
    UnsupportedMultiplicityError,
    admissible_branches,
    ball_normalize,
    build_ode,
    classify,
    curvature_fd,
    eval_F,
    gauge_from_anchor,
    get_case,
    metric_sample,
    metric_tensor,
    partial_fractions,
    potential_u,
    scalar_curvature,
    shoot_ode,
    solve_g,
    verify_solution,
)
from csck import geometry, quadrature
from csck.cases import CASES
from csck.quadrature import _F_dF_array, probe_point

ALL_LABELS = sorted(CASES)
BRANCHED = [l for l in ALL_LABELS if get_case(l).branch_range is not None]
CLOSED = [l for l in BRANCHED
          if get_case(l).closed_form is not None and not l.startswith("1.7")]
BALL = [l for l in BRANCHED if l.startswith("1.7")]


def problem_for(fix, params=None):
    p = dict(fix.defaults)
    if params:
        p.update(params)
    n = int(p.get("n", fix.n))
    lam, mu = fix.lambda_mu(p)
    return RadialProblem(n=n, R=fix.curvature(n), lam=lam, mu=mu), p


def branch_for(label, params=None):
    fix = get_case(label)
    problem, p = problem_for(fix, params)
    ode = build_ode(problem)
    A, B = fix.branch_range(p)
    for b in admissible_branches(ode):
        if abs(b.A - A) > 1e-8 * (1.0 + abs(A)):
            continue
        if math.isinf(B) and math.isinf(b.B):
            return ode, b, p, fix
        if math.isfinite(B) and math.isfinite(b.B) and abs(b.B - B) <= 1e-8 * (1.0 + abs(B)):
            return ode, b, p, fix
    raise AssertionError(f"no admissible window matches {label}")


def solution_for(label, params=None):
    ode, br, p, fix = branch_for(label, params)
    F = partial_fractions(ode, br)
    if label.startswith("1.7"):
        return ball_normalize(ode, br, F)
    if fix.closed_form is not None:
        g1 = fix.closed_form(p).value(1.0)
        return gauge_from_anchor(ode, br, F, (1.0, g1))
    mid = br.A + 1.0 if math.isinf(br.B) else 0.5 * (br.A + br.B)
    return gauge_from_anchor(ode, br, F, (1.0, mid))


def s_grid(sol, count):
    # near s = 0 a ball profile compresses g doubly exponentially onto a
    # singular endpoint A > 0, where the spacing of doubles caps the
    # attainable F-residual; 0.05 keeps every case inside that budget
    lo, hi = sol.s_domain
    bottom = 0.01 if math.isinf(hi) else 0.05
    top = 100.0 if math.isinf(hi) else 0.99 * hi
    return np.geomspace(max(bottom, 2.0 * lo), top, count)


def test_round_sphere_term_split():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    # x/(x^2 (1-x)) = 1/x + 1/(1-x): the double root at 0 cancels to a bare log
    assert len(F.terms) == 2
    by_alpha = {t.alpha: t for t in F.terms}
    assert isinstance(by_alpha[0.0], LogLinear) and abs(by_alpha[0.0].c - 1.0) < 1e-14
    assert isinstance(by_alpha[1.0], LogLinear) and abs(by_alpha[1.0].c + 1.0) < 1e-14
    assert eval_F(F, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert eval_F(F, 0.0) == -math.inf
    assert eval_F(F, 1.0) == math.inf


def test_flat_term_split():
    ode = build_ode(RadialProblem(2, 0.0, 0.0, 0.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    assert len(F.terms) == 1
    (t,) = F.terms
    assert isinstance(t, LogLinear) and t.alpha == 0.0 and abs(t.c - 1.0) < 1e-14


def test_double_root_terms():
    # H = (x - 1)^2: F = log(x - 1) - 1/(x - 1), so F(2) = -1
    ode = build_ode(RadialProblem(2, 0.0, -2.0, 1.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    kinds = {type(t) for t in F.terms}
    assert kinds == {LogLinear, RecipPower}
    rp = next(t for t in F.terms if isinstance(t, RecipPower))
    assert rp.p == 1 and abs(rp.c + 1.0) < 1e-12 and abs(rp.alpha - 1.0) < 1e-12
    assert eval_F(F, 2.0) == pytest.approx(-1.0, abs=1e-13)
    assert eval_F(F, 1.0) == -math.inf


def test_derivative_at_singular_abscissa_is_signed_infinity():
    # bisection can collapse onto A here; the Newton polish then asks for
    # F'(A), which must be the right-hand limit, not a ZeroDivisionError
    ode = build_ode(RadialProblem(6, 0.0, 2.7270930784596272, -1.0966327986975504))
    br = admissible_branches(ode)[0]
    assert br.A > 0.0
    F = partial_fractions(ode, br)
    assert F.derivative(br.A) == math.inf
    # H = (x - 1)^2: the pole term -1/(x - 1) dominates the log at x = 1
    ode = build_ode(RadialProblem(2, 0.0, -2.0, 1.0))
    F = partial_fractions(ode, admissible_branches(ode)[0])
    assert F.derivative(1.0) == math.inf


def test_quadratic_factor_residues():
    # H = x^3 + x^2 - 2 = (x - 1)((x + 1)^2 + 1); residue at 1 is 1/H'(1) = 1/5,
    # and matching x - (x^2 + 2x + 2)/5 forces B = -1/5, C = 2/5
    ode = build_ode(RadialProblem(2, -6.0, 0.0, -2.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    log_t = next(t for t in F.terms if isinstance(t, LogLinear))
    quad_t = next(t for t in F.terms if isinstance(t, LogQuadratic))
    atan_t = next(t for t in F.terms if isinstance(t, ArcTan))
    assert abs(log_t.c - 0.2) < 1e-12 and abs(log_t.alpha - 1.0) < 1e-9
    assert abs(quad_t.c + 0.1) < 1e-12
    assert abs(quad_t.beta + 1.0) < 1e-9 and abs(quad_t.gamma - 1.0) < 1e-9
    assert abs(atan_t.c - 0.6) < 1e-12
    # the potential's x (x - 1) / H = x / ((x + 1)^2 + 1) integrates to
    # 1/2 log((x + 1)^2 + 1) - arctan(x + 1), with no log row at A = 1
    G = gauge_from_anchor(ode, br, F, (1.0, 2.0)).G()
    assert [type(t) for t in G.terms] == [LogQuadratic, ArcTan]
    quad_t, atan_t = G.terms
    assert abs(quad_t.c - 0.5) < 1e-12 and abs(atan_t.c + 1.0) < 1e-12
    assert abs(quad_t.beta + 1.0) < 1e-9 and abs(quad_t.gamma - 1.0) < 1e-9


def _slope_scale(F, x):
    """Sum of the absolute slopes of F's terms at x: the size the rounding
    of F'(x) scales with."""
    total = 0.0
    for t in F.terms:
        if isinstance(t, LogLinear):
            total += abs(t.c / (x - t.alpha))
        elif isinstance(t, RecipPower):
            total += abs(t.p * t.c / (x - t.alpha) ** (t.p + 1))
        elif isinstance(t, (LogQuadratic, ArcTan)):
            q = (x - t.beta) ** 2 + t.gamma**2
            total += abs(t.c) * (2.0 * abs(x - t.beta) + t.gamma) / q
        else:
            total += abs(t.c)
    return total


def test_derivatives_match_integrands_on_random_problems_with_quadratic_factors():
    # where the terms cancel far below their own size (x^k tiny near 0)
    # no float sum reaches 1e-8 relative; the allowance is 1e-12 of the
    # terms' slope scale there
    rng = np.random.default_rng(12)
    dims = set()
    for _ in range(150):
        n = int(rng.integers(2, 10))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        lam, mu = rng.normal(0.0, 3.0, 2)
        ode = build_ode(RadialProblem(n, R, lam, mu))
        if not ode.roots.quad_factors:
            continue
        for br in admissible_branches(ode):
            F = partial_fractions(ode, br)
            G = gauge_from_anchor(ode, br, F, (1.0, quadrature.probe_point(br.A, br.B))).G()
            if math.isinf(br.B):
                xs = br.A + 10.0 ** rng.uniform(-2.0, 2.0, size=20)
            else:
                xs = br.A + (br.B - br.A) * rng.uniform(0.02, 0.98, size=20)
            for x in map(float, xs):
                want = x**ode.k / ode.H(x)
                for T, w in ((F, want), (G, want * (x - br.A))):
                    err = abs(T.derivative(x) - w)
                    assert err <= 1e-8 * abs(w) + 1e-12 * _slope_scale(T, x)
            dims.add(n)
    assert dims == set(range(2, 10))


def test_repeated_quadratic_rejected():
    # (x - 1) ((x)^2 + 1)^2 has a quadratic factor of multiplicity two
    H = Poly.from_factors(((1.0, 1),), ((0.0, 1.0, 2),))
    ode = OdeData(problem=RadialProblem(2, 0.0, 0.0, 0.0), H=H, k=1)
    br = Branch(A=1.0, B=math.inf, diverges_left=True, diverges_right=True,
                kind=BranchKind.FULL_RAY)
    with pytest.raises(UnsupportedMultiplicityError):
        partial_fractions(ode, br)


@pytest.mark.parametrize("label", BRANCHED)
def test_derivative_matches_integrand(label):
    ode, br, p, fix = branch_for(label)
    F = partial_fractions(ode, br)
    rng = np.random.default_rng(11)
    if math.isinf(br.B):
        xs = br.A + 10.0 ** rng.uniform(-2.0, 2.0, size=100)
    else:
        w = br.B - br.A
        xs = br.A + w * rng.uniform(0.02, 0.98, size=100)
    for x in xs:
        want = x ** ode.k / ode.H(x)
        got = F.derivative(float(x))
        assert got > 0.0
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("label", BRANCHED)
def test_inversion_residual(label):
    sol = solution_for(label)
    for s in s_grid(sol, 200):
        g = solve_g(sol, float(s))
        assert abs(eval_F(sol.F, g) - math.log(s) - sol.c) < 1e-10


@pytest.mark.parametrize("label", BRANCHED)
def test_profile_monotone_and_in_window(label):
    sol = solution_for(label)
    grid = s_grid(sol, 60)
    vals = [solve_g(sol, float(s)) for s in grid]
    A, B = sol.branch.A, sol.branch.B
    for g in vals:
        assert A < g < B
    for a, b in zip(vals, vals[1:]):
        assert a < b


def test_solve_oracles_round_sphere():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    sol = gauge_from_anchor(ode, br, F, (1.0, 0.5))
    assert sol.c == pytest.approx(0.0, abs=1e-14)
    assert sol.s_domain == (0.0, math.inf)
    assert solve_g(sol, 1.0) == pytest.approx(0.5, abs=1e-13)
    assert solve_g(sol, 3.0) == pytest.approx(0.75, abs=1e-13)
    # closed profile g = s / (1 + s)
    for s in np.geomspace(1e-3, 1e3, 50):
        want = s / (1.0 + s)
        assert abs(solve_g(sol, float(s)) - want) <= 1e-10 * (1.0 + want)


def test_solve_oracles_two_simple_roots():
    # H = (x - 1)(x + 1): (1/2) log(g^2 - 1) = log s gives g = sqrt(s^2 + 1)
    ode = build_ode(RadialProblem(2, 0.0, 0.0, -1.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    sol = gauge_from_anchor(ode, br, F, (1.0, math.sqrt(2.0)))
    assert sol.c == pytest.approx(0.0, abs=1e-13)
    assert solve_g(sol, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    for s in np.geomspace(0.01, 100.0, 40):
        want = math.hypot(s, 1.0)
        assert abs(solve_g(sol, float(s)) - want) <= 1e-10 * (1.0 + want)


def test_solve_oracle_fractional_exponent_profile():
    # the k = 1/2 positive-curvature profile passes through (s, g) = (1, 1/2)
    fix = get_case("1.3.2")
    ode, br, p, _ = branch_for("1.3.2")
    F = partial_fractions(ode, br)
    sol = gauge_from_anchor(ode, br, F, (1.0, 0.5))
    assert sol.c == pytest.approx(0.0, abs=1e-13)
    assert solve_g(sol, 1.0) == pytest.approx(0.5, abs=1e-12)
    closed = fix.closed_form(p)
    for s in np.geomspace(0.02, 50.0, 30):
        want = closed.value(float(s))
        assert abs(solve_g(sol, float(s)) - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("label", CLOSED)
def test_anchored_solution_matches_closed_form(label):
    fix = get_case(label)
    ode, br, p, _ = branch_for(label)
    F = partial_fractions(ode, br)
    closed = fix.closed_form(p)
    sol = gauge_from_anchor(ode, br, F, (1.0, closed.value(1.0)))
    for s in np.geomspace(0.01, 100.0, 50):
        want = closed.value(float(s))
        assert abs(solve_g(sol, float(s)) - want) <= 1e-10 * (1.0 + abs(want))


def test_bad_anchor_rejected():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    for anchor in ((0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0),
                   (1.0, 1.5), (1.0, -0.25), (math.inf, 0.5), (1.0, math.nan)):
        with pytest.raises(BadAnchorError):
            gauge_from_anchor(ode, br, F, anchor)


def test_anchor_where_F_overflows_rejected():
    # fixture 1.4.6's F has a LogQuadratic row, which squares g0 - beta
    ode = build_ode(RadialProblem(3, 0.0, 0.25, -1.25))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    assert math.isfinite(eval_F(F, 1e150))
    with pytest.raises(BadAnchorError, match=re.escape("g0 = 1e+160")):
        gauge_from_anchor(ode, br, F, (1.0, 1e160))


def test_anchor_where_only_the_slope_overflows_is_gauged():
    # H = (x + 1/2)^3 (x - 1/2): F(1e120) is finite, but the double pole's
    # slope term c / d**3 overflows once |d| passes about 5.6e102, which is
    # why the gauge's eval_F computes the value alone
    ode = build_ode(RadialProblem(3, -12.0, -0.25, -0.0625))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    assert math.isfinite(eval_F(F, 1e120))
    with pytest.raises(OverflowError):
        quadrature._value_and_slope(F, 1e120)
    sol = gauge_from_anchor(ode, br, F, (1.0, 1e120))
    assert sol.c == eval_F(F, 1e120)


def test_out_of_domain_rejected():
    sol = solution_for("1.7.1")
    assert sol.s_domain == (0.0, 1.0)
    for s in (0.0, -1.0, 1.0, 1.5):
        with pytest.raises(OutOfDomainError):
            solve_g(sol, s)


@pytest.mark.parametrize("label", ["1.2.3", "1.3.3", "1.4.6", "1.5.3", "1.7.3"])
def test_gauge_covariance(label):
    # F(g) = log s + c implies g_{c + d}(s) = g_c(e^{d} s)
    ode, br, p, fix = branch_for(label)
    F = partial_fractions(ode, br)
    mid = br.A + 1.0 if math.isinf(br.B) else 0.5 * (br.A + br.B)
    base = gauge_from_anchor(ode, br, F, (1.0, mid))
    delta = 0.7
    shifted = gauge_from_anchor(ode, br, F, (math.exp(-delta), mid))
    assert shifted.c == pytest.approx(base.c + delta, abs=1e-12)
    for s in (0.02, 0.1, 0.3):
        a = solve_g(shifted, s)
        b = solve_g(base, s * math.exp(delta))
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))


def test_ball_normalize_rejects_divergent_right():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    with pytest.raises(NotNormalizableError):
        ball_normalize(ode, br, F)


@pytest.mark.parametrize("label", BALL)
def test_ball_domain_ends_at_one(label):
    sol = solution_for(label)
    assert sol.s_domain[0] == 0.0
    assert sol.s_domain[1] == 1.0


def test_ball_profiles_match_closed_forms():
    # hyperbolic model: g = s / (1 - s)
    sol = solution_for("1.7.1")
    assert sol.c == pytest.approx(0.0, abs=1e-13)
    for s in np.linspace(0.01, 0.99, 25):
        want = s / (1.0 - s)
        assert abs(solve_g(sol, float(s)) - want) <= 1e-10 * (1.0 + want)
    # k = 2 profile: g = -3/2 + 2/(1 - s^2)
    fix = get_case("1.7.2")
    sol2 = solution_for("1.7.2")
    closed = fix.closed_form(dict(fix.defaults))
    for s in np.linspace(0.05, 0.95, 19):
        want = closed.value(float(s))
        assert abs(solve_g(sol2, float(s)) - want) <= 1e-10 * (1.0 + abs(want))


def test_ball_constant_from_arctangent_limit():
    # H = (x - 1)((x + 1)^2 + 1): the log coefficients cancel at infinity and
    # the arctangent term contributes 0.6 * pi/2, so c = 0.3 pi
    sol = solution_for("1.7.6")
    assert sol.c == pytest.approx(0.3 * math.pi, abs=1e-12)


def test_finite_extension_without_a_limit_at_infinity_is_ill_conditioned():
    # the root profile reads H as (x + 1) x^2 with the double root at
    # 8.7e-11; the residues taken from the true H then leave a log sum of
    # 1.5e-9 at infinity, so F has no finite limit there and no gauge has a
    # domain end to report
    problem = RadialProblem(2, -6.0, -1.740276161677827e-10, 4.992736763817746e-10)
    report = classify(problem, allow_finite_extension=True)
    (br,) = report.branches
    assert br.kind is BranchKind.FINITE_EXTENSION
    F = partial_fractions(report.ode, br)
    assert F.limit_at_inf() == math.inf
    with pytest.raises(IllConditionedError, match="no finite limit at infinity"):
        ball_normalize(report.ode, br, F)
    with pytest.raises(IllConditionedError, match="no finite limit at infinity"):
        gauge_from_anchor(report.ode, br, F, (1.0, probe_point(br.A, br.B)))


@pytest.fixture(scope="module")
def pipeline_fuzz():
    """The pipeline on 2000 seeded problems: (branches, solutions, errors)
    over all of them.

    1500 problems have lambda and mu scaled by 10**U(-12, 8). 500 more
    reach the ends of the float range: R, lambda and mu of either sign
    and magnitude 10**U(-300, 300), R = 0 for about 30% of them.
    Every branch of classify(allow_finite_extension=True) runs through
    partial_fractions and gauge_from_anchor at (1, probe point), and a
    finite extension through ball_normalize too. errors holds each
    exception raised, with its problem and step.
    """
    branches, solutions, errors = [], [], []

    def attempt(problem, step, *args):
        try:
            return step(*args)
        except Exception as exc:  # judged by the tests below
            errors.append((problem, step.__name__, exc))
            return None

    def problems():
        rng = np.random.default_rng(0)
        for _ in range(1500):
            n = int(rng.integers(2, 12))
            R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
            lam, mu = rng.normal(0.0, 3.0, 2) * 10.0 ** rng.uniform(-12.0, 8.0, 2)
            yield RadialProblem(n, R, float(lam), float(mu))
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 12))
            R, lam, mu = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-300.0, 300.0, 3)
            if not rng.random() < 0.7:
                R = 0.0
            yield RadialProblem(n, float(R), float(lam), float(mu))

    for problem in problems():
        report = attempt(problem, classify, problem, True)
        for br in report.branches if report else ():
            branches.append(br)
            F = attempt(problem, partial_fractions, report.ode, br)
            if F is None:
                continue
            anchor = (1.0, probe_point(br.A, br.B))
            solutions.append(attempt(problem, gauge_from_anchor, report.ode, br, F, anchor))
            if br.kind is BranchKind.FINITE_EXTENSION:
                solutions.append(attempt(problem, ball_normalize, report.ode, br, F))
    return branches, [sol for sol in solutions if sol is not None], errors


def test_pipeline_fuzz_raises_only_named_errors(pipeline_fuzz):
    _, solutions, errors = pipeline_fuzz
    leaked = [e for e in errors if not isinstance(e[2], (CsckError, ValueError))]
    assert not leaked, leaked[:3]
    assert len(solutions) > 1000


def test_pipeline_fuzz_window_ends_obey_the_divergence_rules(pipeline_fuzz):
    # the facts RadialSolution rests on: F diverges at every left end and
    # at every finite right end, so every domain starts at s = 0
    branches, solutions, _ = pipeline_fuzz
    assert all(br.diverges_left for br in branches)
    assert all(br.diverges_right for br in branches if math.isfinite(br.B))
    assert all(sol.s_domain[0] == 0.0 for sol in solutions)


def test_pipeline_fuzz_verify_reports_without_warning(pipeline_fuzz):
    # pyproject turns a RuntimeWarning into an error: where g' = 0 or a
    # value leaves the float range the report carries nan or inf instead
    _, solutions, _ = pipeline_fuzz
    for sol in solutions:
        try:
            verify_solution(sol, 5)
        except CsckError:
            pass


def test_pipeline_fuzz_metric_sample_reports_without_warning(pipeline_fuzz):
    # the array record of csck solve: where g' = 0 or a value leaves the
    # float range a field reads nan or inf, and no RuntimeWarning is raised
    _, solutions, _ = pipeline_fuzz
    for sol in solutions:
        hi = sol.s_domain[1]
        try:
            metric_sample(sol, np.geomspace(0.05, 0.9 * hi if math.isfinite(hi) else 20.0, 5))
        except CsckError:
            pass


def test_pipeline_fuzz_float_geometry_raises_only_named_errors(pipeline_fuzz):
    # a float reader raises only named errors: where its arithmetic leaves
    # the float range, IllConditionedError names s; metric_tensor reads
    # the point z with |z|^2 = s
    _, solutions, _ = pipeline_fuzz
    for sol in solutions:
        hi = sol.s_domain[1]
        z = np.zeros(sol.ode.problem.n)
        for s in np.geomspace(0.05, 0.9 * hi if math.isfinite(hi) else 20.0, 5):
            z[0] = math.sqrt(s)
            readers = [(r, float(s)) for r in (scalar_curvature, curvature_fd, metric_sample, potential_u)]
            for reader, arg in readers + [(metric_tensor, z)]:
                try:
                    reader(sol, arg)
                except CsckError:
                    pass


@pytest.mark.parametrize("n, R, lam, mu, detail", [
    # a root near -1.3e120, where x^9's Taylor coefficients overflow
    (10, -8.25843157851535e-119, -1.2552599957618862e-28, 2.6608374738678816e-220,
     "x^9 overflows at the root"),
    # A = 6.5e20 on a ray: the probe point A + 1 rounds to A, where H is 0
    (5, 0.0, 4.947735742683611e-286, -1.1910563031379722e104, "is not inside"),
    # a numerical double root at 0 where H has no x^2 term
    (10, 1.430333303033823e-246, 8.551374279193614e-250, 2.273745477653093e-96,
     "Taylor coefficient of order 2"),
    # a pole row's slope c / d**(p + 1) overflows at the probe point
    (2, 3.183919745717332e-170, -5.270547460701579e-127, -1.2933262285204272e-26,
     "F' is not finite"),
])
def test_split_names_its_float_range_failures(n, R, lam, mu, detail):
    report = classify(RadialProblem(n, R, lam, mu), True)
    with pytest.raises(IllConditionedError, match=re.escape(detail)):
        partial_fractions(report.ode, report.branches[0])


def test_gauge_constant_that_empties_the_domain_is_out_of_domain():
    # exp(F(inf) - c) underflows to 0 at this c; the domain was (0, 0.0)
    report = classify(
        RadialProblem(6, -797490.929544062, -0.05927224077667122, 8.550385033450465e-13), True
    )
    br = report.branches[0]
    F = partial_fractions(report.ode, br)
    with pytest.raises(OutOfDomainError, match="empty at c = 288382.7069678669"):
        RadialSolution(report.ode, br, F, 288382.7069678669)
    # the two gauges of the library keep a domain that is not empty
    assert ball_normalize(report.ode, br, F).s_domain == (0.0, 1.0)
    assert gauge_from_anchor(report.ode, br, F, (1.0, probe_point(br.A, br.B))).s_domain[1] > 1.0


def test_shoot_spec_examples():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    res = shoot_ode(ode, 1.0, 0.5, [3.0])
    assert res.domain_end is None
    ((s, g),) = res.samples
    assert s == 3.0 and g == pytest.approx(0.75, abs=1e-6)

    flat = build_ode(RadialProblem(2, 0.0, 0.0, 0.0))
    res = shoot_ode(flat, 1.0, 1.0, [10.0])
    assert res.domain_end is None
    assert res.samples[0][1] == pytest.approx(10.0, abs=1e-6)

    # hyperbolic profile blows up at s = 1: the target past it is dropped
    berg = build_ode(RadialProblem(2, -6.0, 0.0, 0.0))
    res = shoot_ode(berg, 0.5, 1.0, [0.9, 2.0])
    got = dict(res.samples)
    assert got[0.9] == pytest.approx(9.0, abs=1e-6)
    assert 2.0 not in got
    assert res.domain_end is not None and abs(res.domain_end - 1.0) < 1e-3
    assert "DomainEnd" in res.message


def test_shoot_backward():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    res = shoot_ode(ode, 1.0, 0.5, [0.01, 1.0, 3.0])
    got = dict(res.samples)
    assert got[0.01] == pytest.approx(0.01 / 1.01, abs=1e-9)
    assert got[1.0] == 0.5
    assert got[3.0] == pytest.approx(0.75, abs=1e-8)


@pytest.mark.parametrize("near", [1e-8, math.nextafter(1.0, 2.0)])
def test_shoot_first_trial_step_is_the_way_to_the_nearest_target(near):
    # g = s / (s + 1): the first trial is 18.4 in log s down to 1e-8 and
    # one ulp up to nextafter(1, 2)
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    res = shoot_ode(ode, 1.0, 0.5, [near, 1e8])
    assert res.domain_end is None
    assert [s for s, _ in res.samples] == [near, 1e8]
    for s, g in res.samples:
        want = s / (s + 1.0)
        assert abs(g - want) <= 1e-8 * (1.0 + abs(want)), (s, g)


def test_shoot_bad_anchor():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    with pytest.raises(BadAnchorError):
        shoot_ode(ode, 1.0, -1.0, [2.0])
    with pytest.raises(BadAnchorError):
        shoot_ode(ode, 0.0, 0.5, [2.0])


def test_shoot_rejects_an_anchor_past_its_floor_or_cap():
    # g = s: shot from (1, 1) the shoot stops at the floor s = 1e-12, so an
    # anchor below it returned samples down to 1e-20 with no domain end
    flat = build_ode(RadialProblem(2, 0.0, 0.0, 0.0))
    assert shoot_ode(flat, 1.0, 1.0, [1e-20, 1e-14]).samples == ()
    with pytest.raises(BadAnchorError, match="at or below the shoot's floor 1e-12"):
        shoot_ode(flat, 1e-13, 1e-13, [1e-20, 1e-14])
    # g = s / (1 - s) blows up at s = 1; from above the 1e9 cap the shoot ran
    # on past it into a step size underflow
    berg = build_ode(RadialProblem(2, -6.0, 0.0, 0.0))
    with pytest.raises(BadAnchorError, match="at or above the shoot's cap 1000000000.0"):
        shoot_ode(berg, 0.9999999999, 2e9, [0.99999999999, 2.0])


def test_shoot_rejects_a_target_that_is_not_positive():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            shoot_ode(ode, 1.0, 0.5, [2.0, bad])


@pytest.mark.parametrize("label", ["1.2.3", "1.2.4", "1.3.3", "1.4.3",
                                   "1.4.6", "1.5.3", "1.5.6", "1.7.3", "1.7.6"])
def test_shoot_agrees_with_inversion(label):
    sol = solution_for(label)
    lo, hi = sol.s_domain
    s0 = 1.0 if hi > 1.5 else 0.5
    g0 = solve_g(sol, s0)
    grid = s_grid(sol, 9)
    res = shoot_ode(sol.ode, s0, g0, list(grid))
    assert len(res.samples) == len(grid)
    for s, g in res.samples:
        want = solve_g(sol, s)
        assert abs(g - want) <= 1e-6 * (1.0 + abs(want))


def scipy_shoot(ode, s0, g0, targets, cap=None):
    """The reference shoot: scipy's RK45 in t = log s at tight tolerances,
    backward and forward from s0, stopped by a rising cap event when given.

    Returns the samples and the event abscissae."""
    def rhs(t, y):
        return ode.H(y[0]) / y[0] ** ode.k

    def hit_cap(t, y):
        return y[0] - cap

    hit_cap.terminal = True
    hit_cap.direction = 1.0
    samples, ends = {}, []
    for side in (sorted(s for s in targets if s < s0)[::-1],
                 sorted(s for s in targets if s > s0)):
        if not side:
            continue
        t_eval = [math.log(s) for s in side]
        run = solve_ivp(rhs, (math.log(s0), t_eval[-1]), [g0], method="RK45",
                        rtol=1e-12, atol=1e-14, t_eval=t_eval,
                        events=None if cap is None else [hit_cap])
        assert run.status >= 0, run.message
        samples.update(zip(side, run.y[0]))
        if cap is not None:
            ends += [math.exp(te) for te in run.t_events[0]]
    return samples, ends


@pytest.mark.parametrize("label", BRANCHED)
def test_shoot_matches_scipy_rk45(label):
    # the criterion-3 grid and anchor of every fixture
    sol = solution_for(label)
    hi = sol.s_domain[1]
    finite = not math.isinf(hi)
    grid = [float(s) for s in np.geomspace(0.01, 0.95 * hi if finite else 100.0, 40)]
    s0 = grid[-1] if finite else grid[20]
    g0 = solve_g(sol, s0)
    res = shoot_ode(sol.ode, s0, g0, grid)
    assert res.domain_end is None and len(res.samples) == len(grid)
    want, _ = scipy_shoot(sol.ode, s0, g0, grid)
    want[s0] = g0
    for s, g in res.samples:
        assert abs(g - want[s]) <= 1e-8 * abs(want[s]), (s, g, want[s])


def test_shoot_steps_are_set_by_the_error_test_alone(monkeypatch):
    # clamping a step onto each of the 40 targets took 79.4 step attempts
    # per shoot on these grids, against 49.3 to the grid's two ends
    steps = []
    step = quadrature._dp_step
    monkeypatch.setattr(quadrature, "_dp_step", lambda *a: steps.append(a) or step(*a))
    grid_steps = end_steps = 0
    for label in BRANCHED:
        sol = solution_for(label)
        hi = sol.s_domain[1]
        finite = not math.isinf(hi)
        grid = [float(s) for s in np.geomspace(0.01, 0.95 * hi if finite else 100.0, 40)]
        s0 = grid[-1] if finite else grid[20]
        g0 = solve_g(sol, s0)
        for targets in (grid, [grid[0], grid[-1]]):
            steps.clear()
            assert len(shoot_ode(sol.ode, s0, g0, targets).samples) == len(targets)
            if targets is grid:
                grid_steps += len(steps)
            else:
                end_steps += len(steps)
    assert grid_steps <= 50 * len(BRANCHED)
    assert grid_steps <= end_steps + 2 * len(BRANCHED)


def test_shoot_blowup_matches_scipy_event():
    ode = build_ode(RadialProblem(2, -6.0, 0.0, 0.0))
    targets = [float(s) for s in np.geomspace(0.5, 1e4, 60)]
    res = shoot_ode(ode, 0.5, 1.0, targets)
    want, ends = scipy_shoot(ode, 0.5, 1.0, targets, cap=quadrature._SHOOT_GCAP)
    (end,) = ends
    assert res.message.endswith("g left the admissible window")
    assert res.domain_end is not None and abs(res.domain_end - end) < 1e-6
    assert dict(res.samples).keys() == {s for s in want if s < end} | {0.5}
    for s, g in res.samples[1:]:
        assert abs(g - want[s]) <= 1e-8 * abs(want[s])


def test_shoot_step_size_underflow(monkeypatch):
    # with no cap, the stepper runs into the blow-up at s = 1 itself
    monkeypatch.setattr(quadrature, "_SHOOT_GCAP", math.inf)
    ode = build_ode(RadialProblem(2, -6.0, 0.0, 0.0))
    res = shoot_ode(ode, 0.5, 1.0, [0.9, 2.0])
    assert res.message.endswith("step size underflow")
    assert abs(res.domain_end - 1.0) < 1e-9
    assert [s for s, _ in res.samples] == [0.9]


def test_repeat_solve_is_stable_across_a_sweep():
    sol = solution_for("1.2.3")
    a = solve_g(sol, 2.5)
    b = solve_g(sol, 2.5)
    assert a == b
    for s in np.geomspace(0.05, 50.0, 700):
        solve_g(sol, float(s))
    # a point inverts the same after many others
    assert abs(solve_g(sol, 2.5) - a) < 1e-12


@pytest.mark.parametrize("label", BRANCHED)
def test_solve_g_is_history_free(label):
    # each g is the same bits on a fresh solution, after a forward sweep
    # over the grid and after the reversed sweep
    grid = [float(s) for s in s_grid(solution_for(label), 60)]
    fresh = [solve_g(solution_for(label), s) for s in grid]
    sol = solution_for(label)
    forward = [solve_g(sol, s) for s in grid]
    backward = [solve_g(sol, s) for s in reversed(grid)][::-1]
    assert forward == fresh
    assert backward == fresh


@pytest.mark.parametrize("s", [1e-20, 3.3e-15])
def test_small_g_stops_on_a_relative_step(s):
    # g(s) = s with A = 0: a stop test absolute below g = 1 ended these
    # inversions 1e-4 relative off
    sol = solution_for("1.1.1")
    for got in (solve_g(sol, s), solve_g(sol, np.array([s, 1.0]))[0]):
        assert abs(got - s) <= 1e-14 * s


@pytest.mark.parametrize("label", BRANCHED)
def test_a_newton_point_that_rounds_back_to_g_stops(monkeypatch, label):
    # a step bound below half an ulp of g (1e-16 |g| just above a power of
    # two) sent such iterates on to about 40 bisection steps
    sol = solution_for(label)
    lo, hi = sol.s_domain
    s = np.geomspace(max(0.01, 2.0 * lo), 100.0 if math.isinf(hi) else 0.99 * hi, 300)
    calls = []

    def counted(kernel):
        def wrapper(F, x):
            calls.append(x)
            return kernel(F, x)
        return wrapper

    monkeypatch.setattr(quadrature, "_value_and_slope", counted(quadrature._value_and_slope))
    for v in s:
        calls.clear()
        solve_g(sol, float(v))
        assert len(calls) <= 15, v
    # the array path: one pass per round, the walk being point by point
    monkeypatch.undo()
    calls.clear()
    monkeypatch.setattr(quadrature, "_F_dF_array", counted(quadrature._F_dF_array))
    solve_g(sol, s)
    assert len(calls) <= 15


def _verify_points(monkeypatch, sol):
    """The abscissae verify_solution(sol, 80) inverts, and the number of
    _F_dF_array passes it makes."""
    seen, passes = [], []
    solve, kernel = geometry.solve_g, quadrature._F_dF_array

    def recorded(sol, s):
        seen.append(s)
        return solve(sol, s)

    def counted(F, x):
        passes.append(x)
        return kernel(F, x)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "solve_g", recorded)
        patch.setattr(quadrature, "_F_dF_array", counted)
        verify_solution(sol, 80)
    (points,) = seen
    return points.ravel(), len(passes)


def test_solve_g_starts_at_the_walks_hermite_point(monkeypatch):
    # on the verify grids (80 points and their 4 neighbours) of all
    # fixtures, a scalar solve started at the bracket midpoint takes 5.4
    # kernel passes on average, and an array call 8.9 lockstep rounds
    kernel = quadrature._value_and_slope
    scalar, solves, rounds = [], 0, []
    for label in BRANCHED:
        sol = solution_for(label)
        points, passes = _verify_points(monkeypatch, sol)
        rounds.append(passes)
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_value_and_slope",
                          lambda F, x: scalar.append(x) or kernel(F, x))
            for v in points:
                solve_g(sol, float(v))
        solves += points.size
    assert len(scalar) / solves <= 4.0
    assert sum(rounds) / len(rounds) <= 6.0


@pytest.mark.parametrize("targets", [[1e-14], [1e-20, 0.5]])
def test_shoot_stops_where_g_crosses_the_floor(targets):
    # g = s on fixture 1.1.1, so the floor A + 1e-12 (1 + |A|) = 1e-12 is
    # crossed at s = 1e-12; an error norm absolute in g stopped the shoot
    # up to 14% early
    sol = solution_for("1.1.1")
    res = shoot_ode(sol.ode, 1.0, 1.0, targets)
    assert res.message.endswith("g left the admissible window")
    assert abs(res.domain_end - 1e-12) <= 1e-9 * 1e-12


def test_newton_polish_takes_the_crossed_bracket_end():
    # F = log x and c = 0, so g(s) = s; these s once came out 1e-13 off
    sol = solution_for("1.1.1")
    want = 0.012625369798693631
    assert abs(solve_g(sol, 0.012625369798693628) - want) <= 1e-15 * want
    for s in (6.2842832162211835, np.array([0.2845646915440767, 0.012625369798693628])):
        got = solve_g(sol, s)
        assert np.all(np.abs(got - s) <= 1e-15 * s)
    # here the last Newton point falls past a bracket end narrower than the
    # stopping width: the end it crossed is the root correctly rounded (a
    # 40-digit bisection of the same F), the iterate it came from is 4 ulp off
    sol = solution_for("1.4.4")
    want = 61.36612760392586
    for s in (26.126752255633292, np.array([26.126752255633292])):
        assert np.all(np.abs(solve_g(sol, s) - want) <= 2e-16 * want)


def _quiet():
    # the array kernels leave floating point errors to their caller
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _singular_abscissae(F):
    return [t.alpha for t in F.terms if hasattr(t, "alpha")]


@pytest.mark.parametrize("label", BRANCHED)
def test_array_F_matches_scalar(label):
    sol = solution_for(label)
    A, B = sol.branch.A, sol.branch.B
    top = A + 50.0 if math.isinf(B) else B
    inner = list(np.linspace(A, top, 41)[1:-1])
    # G carries a Linear term at R = 0; both carry log and pole abscissae
    for F in (sol.F, sol.G()):
        x = np.array(inner + _singular_abscissae(F) + [A] + ([] if math.isinf(B) else [B]))
        with _quiet():
            pair = _F_dF_array(F, x)
            rows = _F_dF_array(F, x.reshape(1, -1))
        assert all(np.array_equal(a, b.ravel()) for a, b in zip(pair, rows))
        for got, scalar_fn in zip(pair, (eval_F, type(F).derivative)):
            want = np.array([scalar_fn(F, float(v)) for v in x])
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite])
            got, want = got[finite], want[finite]
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("label", BRANCHED)
def test_array_solve_g_matches_scalar(label):
    sol = solution_for(label)
    lo, hi = sol.s_domain
    grid = (
        np.geomspace(max(0.01, 2.0 * lo), 100.0, 40)
        if math.isinf(hi)
        else np.geomspace(max(0.05, 2.0 * lo), 0.998 * hi, 40)
    )
    h = 1e-4 * grid
    s = np.concatenate([grid, grid + h, grid - h, grid + 0.5 * h, grid - 0.5 * h])
    rng = np.random.default_rng(7)
    s = rng.permutation(np.concatenate([s, rng.choice(s, 30)]))
    got = solve_g(sol, s)
    assert got.shape == s.shape
    want = np.array([solve_g(sol, float(v)) for v in s])
    # both paths run the same iteration; the array path sums F with numpy
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    first = {}
    for v, g in zip(s, got):
        assert first.setdefault(v, g) == g
    assert isinstance(solve_g(sol, float(s[0])), float)


def _walk_copy(sol, s, t):
    """solve_g's bracket walk for one s, one point at a time, with F and
    t = log s + c as the array path evaluates them."""
    A, B = sol.branch.A, sol.branch.B

    def F(x):
        return eval_F(sol.F, x)

    x = A + 1.0 if math.isinf(B) else 0.5 * (A + B)
    hi = None
    for _ in range(quadrature._EXPAND_CAP):
        if F(x) <= t:
            break
        hi, x = x, A + 0.5 * (x - A)
    else:
        raise OutOfDomainError(f"no lower bracket for s = {s!r}")
    if hi is not None:
        return x, hi
    lo = x
    for _ in range(quadrature._EXPAND_CAP):
        if F(x) >= t:
            return lo, x
        lo, x = x, 2.0 * x - A + 1.0 if math.isinf(B) else B - 0.5 * (B - x)
    raise OutOfDomainError(f"no upper bracket for s = {s!r}")


@pytest.mark.parametrize("label", BRANCHED + ["wall"])
def test_array_bracket_is_the_walk(monkeypatch, label):
    if label == "wall":
        # on the window (0.305, 1.93) of this problem, g presses against
        # both ends within the s-range, and the walk finds no bracket there
        ode = build_ode(RadialProblem(2, 6.0, 2.18, -0.73))
        br = admissible_branches(ode)[0]
        sol = gauge_from_anchor(ode, br, partial_fractions(ode, br), (1.0, 0.5 * (br.A + br.B)))
    else:
        sol = solution_for(label)
    lo, hi = sol.s_domain
    bottom = lo * (1.0 + 1e-6) if lo > 0.0 else 1e-12
    top = 1e6 if math.isinf(hi) else hi * (1.0 - 1e-6)
    s = np.geomspace(bottom, top, 41)
    t = np.log(s) + sol.c
    # targets equal to F at walk points, where F(x) <= t and F(x) >= t tie
    A, B = sol.branch.A, sol.branch.B
    down = up = A + 1.0 if math.isinf(B) else 0.5 * (A + B)
    points = [down]
    for _ in range(4):
        down = A + 0.5 * (down - A)
        up = 2.0 * up - A + 1.0 if math.isinf(B) else B - 0.5 * (B - up)
        points += [down, up]
    ties = np.array([eval_F(sol.F, x) for x in points])
    s, t = np.append(s, np.exp(ties - sol.c)), np.append(t, ties)
    order = np.random.default_rng(11).permutation(s.size)
    s, t = s[order], t[order]
    # the scalar bracket of each target, on a solution of its own
    scalar = _fresh(sol)
    walks, brackets, failures = [], [], {"lower": [], "upper": []}
    for v, tv in zip(s, t):
        try:
            walks.append(_walk_copy(sol, float(v), tv))
        except OutOfDomainError as exc:
            walks.append(None)
            failures["lower" if "lower" in str(exc) else "upper"].append(str(exc))
            with pytest.raises(OutOfDomainError, match=re.escape(str(exc))):
                quadrature._bracket(scalar, float(tv), float(v))
        else:
            brackets.append(quadrature._bracket(scalar, float(tv), float(v)))
            assert brackets[-1][:2] == walks[-1]
    # a failure names the first entry without a bracket, lower ones first
    first = (failures["lower"] or failures["upper"] or [None])[0]
    if first is not None:
        with _quiet(), pytest.raises(OutOfDomainError, match=re.escape(first)):
            quadrature._brackets(sol, s, t)
    ok = np.array([w is not None for w in walks])
    assert ok.any()
    with _quiet():
        got = quadrature._brackets(sol, s[ok], t[ok])
    want = np.array([w for w in walks if w is not None]).T
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # lo, hi and the first iterate are the scalar path's, bit for bit
    assert [_hex(v) for v in got] == [_hex(v) for v in zip(*brackets)]
    # a second call within the walks' reach reads the kept table
    builds = []
    table = quadrature._walk_table
    monkeypatch.setattr(quadrature, "_walk_table", lambda *w: builds.append(w) or table(*w))
    with _quiet():
        again = quadrature._brackets(sol, s[ok][::-1], t[ok][::-1])
    assert builds == []
    assert [_hex(v[::-1]) for v in again] == [_hex(v) for v in got]
    # a nan t crosses nowhere, and is named on the lower side
    with _quiet(), pytest.raises(OutOfDomainError, match="no lower bracket for s = 0.5"):
        quadrature._brackets(sol, np.array([0.5]), np.array([math.nan]))


@pytest.mark.parametrize("label", ["1.1.1", "1.7.1", "1.4.4"])
def test_array_bracket_walks_only_to_the_farthest_target(monkeypatch, label):
    # A = 0 and rays: the walks toward A and toward B run to the cap of 300
    # points each unless they stop at the farthest target's crossing
    sol = solution_for(label)
    s = np.geomspace(0.01, 100.0, 400)
    s = s[s < sol.s_domain[1]]
    points = []

    def counted(kernel, size):
        def wrapper(F, x):
            points.append(size(x))
            return kernel(F, x)
        return wrapper

    monkeypatch.setattr(quadrature, "eval_F", counted(quadrature.eval_F, lambda x: 1))
    monkeypatch.setattr(quadrature, "_F_dF_array", counted(quadrature._F_dF_array, np.size))
    with _quiet():
        quadrature._brackets(sol, s, np.log(s) + sol.c)
    assert sum(points) <= 30


def test_array_solve_g_out_of_domain():
    sol = solution_for("1.7.1")
    with pytest.raises(OutOfDomainError, match=r"s = 1\.5 is outside"):
        solve_g(sol, np.array([0.5, 1.5, 0.2, -1.0]))
    with pytest.raises(OutOfDomainError, match=r"s = nan is outside"):
        solve_g(sol, np.array([0.5, math.nan]))


def test_array_solve_g_bracket_exhaustion(monkeypatch):
    # with one expansion step allowed, far targets run out of bracket the
    # same way on both paths, naming the first such entry, also on a
    # solution whose walk was stored at the full cap
    warm = solution_for("1.1.2")
    solve_g(warm, np.array([1e-6, 1e6]))
    monkeypatch.setattr(quadrature, "_EXPAND_CAP", 1)
    for sol in (solution_for("1.1.2"), warm):
        for far, side in ((1e-6, "lower"), (1e6, "upper")):
            for s in (far, np.array([sol.s_domain[0] + 1.0, far, far * 2.0])):
                message = re.escape(f"no {side} bracket for s = {far!r}")
                with pytest.raises(OutOfDomainError, match=message):
                    solve_g(sol, s)


def test_a_nan_gauge_constant_finds_no_bracket():
    # every target t = log s + c is nan, and no walk point crosses it
    ray = solution_for("1.1.1")
    sol = RadialSolution(ray.ode, ray.branch, ray.F, math.nan)
    for s in (0.5, np.array([0.5, 2.0])):
        with pytest.raises(OutOfDomainError, match=re.escape("no lower bracket for s = 0.5")):
            solve_g(sol, s)


@pytest.mark.parametrize("s, side", [(1e-5, "lower"), (1e6, "upper")])
def test_scalar_walk_stops_where_it_cannot_move(monkeypatch, s, side):
    # the "wall" window of test_array_bracket_is_the_walk: the walk sticks
    # one ulp from an end after about 53 points, and evaluating F there
    # again until the cap of 300 points cannot cross
    ode = build_ode(RadialProblem(2, 6.0, 2.18, -0.73))
    br = admissible_branches(ode)[0]
    sol = gauge_from_anchor(ode, br, partial_fractions(ode, br), (1.0, 0.5 * (br.A + br.B)))
    calls = []

    def counted(F, x):
        calls.append(x)
        return eval_F(F, x)

    monkeypatch.setattr(quadrature, "eval_F", counted)
    with pytest.raises(OutOfDomainError, match=re.escape(f"no {side} bracket for s = {s!r}")):
        solve_g(sol, s)
    assert len(calls) <= 60


def _outcome(sol, s):
    """solve_g's result as float hex strings, or its error."""
    try:
        return [float(g).hex() for g in np.ravel(solve_g(sol, s))]
    except CsckError as exc:
        return f"{type(exc).__name__}: {exc}"


def _fresh(sol):
    return RadialSolution(sol.ode, sol.branch, sol.F, sol.c)


@pytest.mark.parametrize("label", ["1.1.1", "1.7.1", "1.4.4"])
def test_a_solution_walks_its_brackets_once(monkeypatch, label):
    # after one array call, the walk points of every later call within its
    # range are the solution's own, and F is not evaluated there again
    sol = solution_for(label)
    s = np.geomspace(0.01, 100.0, 400)
    s = s[s < sol.s_domain[1]]
    solve_g(sol, s)
    points = []

    def counted(F, x):
        points.append(x)
        return eval_F(F, x)

    monkeypatch.setattr(quadrature, "eval_F", counted)
    for v in (s[0], s[-1], s[len(s) // 2], s[0]):
        solve_g(sol, float(v))
    solve_g(sol, np.random.default_rng(2).permutation(s[10:-10]))
    assert points == []


@pytest.mark.parametrize("label", BRANCHED)
def test_a_warmed_solution_returns_the_same_bits(label):
    warm = solution_for(label)
    hi = warm.s_domain[1]
    top = 1e6 if math.isinf(hi) else hi * (1.0 - 1e-6)
    rng = np.random.default_rng(13)
    s = np.geomspace(1e-9, top, 30)
    s = rng.permutation(np.concatenate([s, rng.choice(s, 10)]))
    far = [1e-300, 1e300 if math.isinf(hi) else hi * (1.0 - 1e-15)]
    for v in far + list(s[:8]):
        _outcome(warm, float(v))
    _outcome(warm, s[5:20])
    _outcome(warm, np.array(far))
    for v in s:
        assert _outcome(warm, float(v)) == _outcome(_fresh(warm), float(v)), v
    assert _outcome(warm, s) == _outcome(_fresh(warm), s)


@pytest.mark.parametrize("label", ["1.1.1", "1.4.4"])
def test_threads_sharing_a_solution_get_the_sequential_results(label):
    # the threads start together on each fresh solution, so that they
    # extend its walks at the same time toward different targets
    sol = solution_for(label)
    rng = np.random.default_rng(17)
    jobs = [rng.permutation(np.geomspace(1e-8, 1e8, 60)) for _ in range(4)]
    start = threading.Barrier(4)

    def outcomes(sol, s):
        return [_outcome(sol, float(v)) for v in s[:30]] + [_outcome(sol, s[30:])]

    def work(sol, s):
        start.wait(timeout=60)
        return outcomes(sol, s)

    want = [outcomes(_fresh(sol), s) for s in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(40):
                shared = _fresh(sol)
                futures = [pool.submit(work, shared, s) for s in jobs]
                assert [f.result(timeout=60) for f in futures] == want
    finally:
        sys.setswitchinterval(interval)


# Reference kernels that dispatch on the term objects with isinstance; the
# kernels that read F.table must match them bit for bit.

def _oracle_eval_F(F, x):
    total = 0.0
    pole_c = 0.0
    pole_p = 0
    log_c = 0.0
    for t in F.terms:
        if isinstance(t, LogLinear):
            d = x - t.alpha
            if d == 0.0:
                log_c += t.c
            else:
                total += t.c * math.log(abs(d))
        elif isinstance(t, RecipPower):
            d = x - t.alpha
            if d == 0.0:
                if t.p > pole_p:
                    pole_p, pole_c = t.p, t.c
            else:
                total += t.c / d**t.p
        elif isinstance(t, LogQuadratic):
            total += t.c * math.log((x - t.beta) ** 2 + t.gamma**2)
        elif isinstance(t, ArcTan):
            total += t.c * math.atan((x - t.beta) / t.gamma)
        else:
            total += t.c * x
    if pole_p > 0:
        return math.copysign(math.inf, pole_c)
    if log_c != 0.0:
        return math.copysign(math.inf, -log_c)
    return total


def _oracle_value_and_slope(F, x):
    value = slope = 0.0
    pole_c = slope_pole_c = log_c = 0.0
    pole_p = slope_pole_p = 0
    for t in F.terms:
        if isinstance(t, LogLinear):
            d = x - t.alpha
            if d == 0.0:
                log_c += t.c
                if slope_pole_p < 1:
                    slope_pole_p, slope_pole_c = 1, t.c
            else:
                value += t.c * math.log(abs(d))
                slope += t.c / d
        elif isinstance(t, RecipPower):
            d = x - t.alpha
            if d == 0.0:
                if t.p > pole_p:
                    pole_p, pole_c = t.p, t.c
                if t.p + 1 > slope_pole_p:
                    slope_pole_p, slope_pole_c = t.p + 1, -t.c
            else:
                value += t.c / d**t.p
                slope -= t.p * t.c / d ** (t.p + 1)
        elif isinstance(t, LogQuadratic):
            q = (x - t.beta) ** 2 + t.gamma**2
            value += t.c * math.log(q)
            slope += 2.0 * t.c * (x - t.beta) / q
        elif isinstance(t, ArcTan):
            value += t.c * math.atan((x - t.beta) / t.gamma)
            slope += t.c * t.gamma / ((x - t.beta) ** 2 + t.gamma**2)
        else:
            value += t.c * x
            slope += t.c
    if pole_p > 0:
        value = math.copysign(math.inf, pole_c)
    elif log_c != 0.0:
        value = math.copysign(math.inf, -log_c)
    if slope_pole_p > 0:
        slope = math.copysign(math.inf, slope_pole_c)
    return value, slope


def _oracle_F_dF_array(F, x):
    value = np.zeros(x.shape)
    slope = np.zeros(x.shape)
    for t in F.terms:
        if isinstance(t, LogLinear):
            d = x - t.alpha
            value += t.c * np.log(np.abs(d))
            slope += t.c / d
        elif isinstance(t, RecipPower):
            d = x - t.alpha
            value += t.c / d**t.p
            slope -= t.p * t.c / d ** (t.p + 1)
        elif isinstance(t, LogQuadratic):
            d = x - t.beta
            q = d**2 + t.gamma**2
            value += t.c * np.log(q)
            slope += 2.0 * t.c * d / q
        elif isinstance(t, ArcTan):
            d = x - t.beta
            value += t.c * np.arctan(d / t.gamma)
            slope += t.c * t.gamma / (d**2 + t.gamma**2)
        else:
            value += t.c * x
            slope += t.c
    for i in np.flatnonzero(~(np.isfinite(value) & np.isfinite(slope))):
        v, dv = _oracle_value_and_slope(F, float(x.flat[i]))
        if not math.isfinite(value.flat[i]):
            value.flat[i] = v
        if not math.isfinite(slope.flat[i]):
            slope.flat[i] = dv
    return value, slope


def _hex(values):
    # float.hex tells signed zeros and signed infinities apart
    return [float(v).hex() for v in np.ravel(values)]


def _kernel_points(F, A, B):
    """A grid across the window, points beyond it, and every log and pole
    abscissa with its two float neighbours."""
    top = A + 50.0 if math.isinf(B) else B
    xs = list(np.linspace(A, top, 41)) + [A - 1.0, A - 1e-9, top + 1.0]
    xs += [A + (top - A) * 10.0**-j for j in range(1, 16, 2)]
    for alpha in _singular_abscissae(F):
        xs += [alpha, math.nextafter(alpha, -math.inf), math.nextafter(alpha, math.inf)]
    return [float(x) for x in xs]


def _assert_kernels_bitwise(F, xs):
    for x in xs:
        assert _hex([eval_F(F, x)]) == _hex([_oracle_eval_F(F, x)]), x
        got = quadrature._value_and_slope(F, x)
        assert _hex(got) == _hex(_oracle_value_and_slope(F, x)), x
    x = np.array(xs)
    with _quiet():
        got, want = _F_dF_array(F, x), _oracle_F_dF_array(F, x)
    assert _hex(got[0]) == _hex(want[0]) and _hex(got[1]) == _hex(want[1])


@pytest.mark.parametrize("label", BRANCHED)
def test_table_kernels_match_the_term_kernels_bitwise(label):
    sol = solution_for(label)
    A, B = sol.branch.A, sol.branch.B
    for F in (sol.F, sol.G()):
        assert len(F.table) == len(F.terms)
        _assert_kernels_bitwise(F, _kernel_points(F, A, B))


def test_table_kernels_match_the_term_kernels_bitwise_on_random_problems():
    rng = np.random.default_rng(10)
    dims, kinds = set(), set()
    for _ in range(120):
        n = int(rng.integers(2, 9))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        lam, mu = rng.normal(0.0, 3.0, 2)
        report = classify(RadialProblem(n, R, lam, mu), allow_finite_extension=True)
        for branch in report.branches:
            try:
                F = partial_fractions(report.ode, branch)
            except UnsupportedMultiplicityError:
                continue
            probe = quadrature.probe_point(branch.A, branch.B)
            G = gauge_from_anchor(report.ode, branch, F, (1.0, probe)).G()
            for F in (F, G):
                _assert_kernels_bitwise(F, _kernel_points(F, branch.A, branch.B))
                kinds.update(type(t) for t in F.terms)
            dims.add(n)
    assert dims == set(range(2, 9))
    assert kinds >= {LogLinear, LogQuadratic, ArcTan, quadrature.Linear}


def test_a_pole_denominator_that_underflows_is_named():
    # the pole rows sit at a = -1.37e-82; at x = 7.9e-82, off every
    # abscissa, the slope's d**4 underflows to 0, which names x instead of
    # leaking a ZeroDivisionError, at a scalar and at an array target
    ode = build_ode(RadialProblem(5, -3.657182235335461e82, -9.928038755110622e-258,
                                  3.7507198948348218e-121))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    x = 7.906648457422892e-82
    assert all(a < 0.0 for _, _, a, _ in F.table)
    assert math.isfinite(eval_F(F, x))
    detail = re.escape(f"underflows at x = {x!r}")
    with pytest.raises(IllConditionedError, match=detail):
        quadrature._value_and_slope(F, x)
    sol = gauge_from_anchor(ode, br, F, (1.0, 1e-20))
    for s in (0.5, np.geomspace(0.5, 0.9, 3)):
        with pytest.raises(IllConditionedError, match=detail):
            solve_g(sol, s)
