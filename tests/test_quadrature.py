"""Antiderivative splitting, gauge fixing, inversion, and the direct shoot."""

import math
import re

import numpy as np
import pytest

from csck import (
    ArcTan,
    BadAnchorError,
    Branch,
    BranchKind,
    LogLinear,
    LogQuadratic,
    NotNormalizableError,
    OdeData,
    OutOfDomainError,
    Poly,
    RadialProblem,
    RecipPower,
    UnsupportedMultiplicityError,
    admissible_branches,
    ball_normalize,
    build_ode,
    eval_F,
    gauge_from_anchor,
    get_case,
    partial_fractions,
    shoot_ode,
    solve_g,
)
from csck import quadrature
from csck.cases import CASES
from csck.quadrature import _dF_array, _F_array

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


def test_shoot_bad_anchor():
    ode = build_ode(RadialProblem(2, 6.0, 0.0, 0.0))
    with pytest.raises(BadAnchorError):
        shoot_ode(ode, 1.0, -1.0, [2.0])
    with pytest.raises(BadAnchorError):
        shoot_ode(ode, 0.0, 0.5, [2.0])


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


def test_warm_cache_reuse_and_decimation():
    sol = solution_for("1.2.3")
    a = solve_g(sol, 2.5)
    b = solve_g(sol, 2.5)
    assert a == b
    for s in np.geomspace(0.05, 50.0, 700):
        solve_g(sol, float(s))
    ss, gs = sol._cache
    assert len(ss) <= 600 and list(ss) == sorted(ss)
    # cached points still invert correctly after decimation
    assert abs(solve_g(sol, 2.5) - a) < 1e-12


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
        for array_fn, scalar_fn in ((_F_array, eval_F), (_dF_array, type(F).derivative)):
            got = array_fn(F, x)
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
    cache = sol._cache
    got = solve_g(sol, s)
    assert sol._cache is cache  # the array path neither reads nor writes it
    assert got.shape == s.shape
    want = np.array([solve_g(sol, float(v)) for v in s])
    # both paths stop bisecting at a width relative to 1 + |g|, and either
    # may keep that error when its Newton step lands outside the bracket
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    first = {}
    for v, g in zip(s, got):
        assert first.setdefault(v, g) == g
    assert isinstance(solve_g(sol, float(s[0])), float)


def test_array_solve_g_out_of_domain():
    sol = solution_for("1.7.1")
    with pytest.raises(OutOfDomainError, match=r"s = 1\.5 is outside"):
        solve_g(sol, np.array([0.5, 1.5, 0.2, -1.0]))
    with pytest.raises(OutOfDomainError, match=r"s = nan is outside"):
        solve_g(sol, np.array([0.5, math.nan]))


def test_array_solve_g_bracket_exhaustion(monkeypatch):
    # with one expansion step allowed, far targets run out of bracket the
    # same way on both paths, naming the first such entry
    monkeypatch.setattr(quadrature, "_EXPAND_CAP", 1)
    sol = solution_for("1.1.2")
    for far, side in ((1e-6, "lower"), (1e6, "upper")):
        for s in (far, np.array([sol.s_domain[0] + 1.0, far, far * 2.0])):
            message = re.escape(f"no {side} bracket for s = {far!r}")
            with pytest.raises(OutOfDomainError, match=message):
                solve_g(sol, s)
