"""Fixture catalog: constraints, Vieta maps, closed forms, identities."""

import math
import random

import pytest

from csck import (
    BranchKind,
    ConstraintViolationError,
    NotClassifiedError,
    RadialProblem,
    build_ode,
    canonical_label,
    classify,
    get_case,
    labels_for,
    match_label,
    ode_residual,
)
from csck.cases import CASES

ALL_LABELS = sorted(CASES)


def problem_for(fix, params=None):
    p = dict(fix.defaults)
    if params:
        p.update(params)
    n = int(p.get("n", fix.n))
    lam, mu = fix.lambda_mu(p)
    return RadialProblem(n=n, R=fix.curvature(n), lam=lam, mu=mu), p


def test_catalog_has_all_families():
    assert len(ALL_LABELS) == 29
    for prefix, count in (("1.1", 3), ("1.2", 4), ("1.3", 4),
                          ("1.4", 6), ("1.5", 6), ("1.7", 6)):
        assert sum(1 for l in ALL_LABELS if l.startswith(prefix)) == count


@pytest.mark.parametrize("label", ALL_LABELS)
def test_defaults_satisfy_constraints(label):
    fix = get_case(label)
    fix.validate(dict(fix.defaults))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_branch_endpoints_are_roots(label):
    fix = get_case(label)
    if fix.branch_range is None:
        return
    problem, p = problem_for(fix)
    ode = build_ode(problem)
    scale = 1.0 + max(abs(c) for c in ode.H.coeffs)
    A, B = fix.branch_range(p)
    assert abs(ode.H(A)) <= 1e-9 * scale
    if math.isfinite(B):
        assert abs(ode.H(B)) <= 1e-9 * scale
    # H must be positive inside the window
    hi = B if math.isfinite(B) else A + 7.0
    for t in (0.15, 0.5, 0.85):
        assert ode.H(A + t * (hi - A)) > 0.0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_classify_recovers_fixture(label):
    fix = get_case(label)
    problem, p = problem_for(fix)
    report = classify(problem, allow_finite_extension=True)
    if fix.branch_range is None:
        # the nonexistence statement speaks about metrics on the whole
        # punctured space, so it is checked without finite extensions
        strict = classify(problem)
        assert strict.verdict.value == fix.verdict
        assert strict.branches == ()
        assert strict.matched_case is None
        return
    # with finite extensions allowed the ball families are reported, so
    # compare against the fixture verdict only in the unrestricted call
    strict = classify(problem)
    if fix.verdict == "FiniteExtensionOnly":
        assert strict.verdict.value == "Nonexistent"
        assert report.verdict.value == fix.verdict
    else:
        assert strict.verdict.value == fix.verdict
    assert len(report.branches) == 1
    b = report.branches[0]
    A, B = fix.branch_range(p)
    assert abs(b.A - A) <= 1e-9 * (1.0 + abs(A))
    if math.isinf(B):
        assert math.isinf(b.B)
    else:
        assert abs(b.B - B) <= 1e-9 * (1.0 + abs(B))
    assert b.kind.value == fix.kind
    assert report.matched_case == canonical_label(label, problem.n)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_reference_antiderivative_solves_the_ode(label):
    # F'(x) = x^k / H(x) pins down every transcribed identity up to the
    # additive gauge constant; a central difference catches sign slips
    fix = get_case(label)
    if fix.reference_F is None:
        return
    problem, p = problem_for(fix)
    ode = build_ode(problem)
    F = fix.reference_F(p)
    A, B = fix.branch_range(p)
    hi = B if math.isfinite(B) else A + 4.0
    width = hi - A
    for t in (0.2, 0.35, 0.5, 0.65, 0.8):
        x = A + t * width
        h = 1e-6 * width
        fd = (F(x + h) - F(x - h)) / (2.0 * h)
        want = x**ode.k / ode.H(x)
        assert abs(fd - want) <= 1e-5 * (1.0 + abs(want)), (label, x)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_closed_forms_satisfy_the_ode(label):
    fix = get_case(label)
    if fix.closed_form is None:
        return
    problem, p = problem_for(fix)
    ode = build_ode(problem)
    g = fix.closed_form(p)
    if fix.curv_factor < 0:
        svals = [0.05 + 0.09 * i for i in range(10)]  # ball domain (0, 1)
    else:
        svals = [10.0 ** (-1 + 0.1 * i) for i in range(21)]
    samples = [(s, g.value(s), g.deriv(s)) for s in svals]
    assert ode_residual(samples, ode) < 1e-10


@pytest.mark.parametrize("label", ALL_LABELS)
def test_closed_form_matches_reference_gauge(label):
    # F(g(s)) - log s must be flat in s; for the ball families the
    # normalization fixes the constant to zero outright
    fix = get_case(label)
    if fix.closed_form is None or fix.reference_F is None:
        return
    problem, p = problem_for(fix)
    g = fix.closed_form(p)
    F = fix.reference_F(p)
    svals = [0.1, 0.3, 0.7, 0.9] if fix.curv_factor < 0 else [0.2, 1.0, 3.0, 8.0]
    consts = [F(g.value(s)) - math.log(s) for s in svals]
    assert max(consts) - min(consts) < 1e-9
    if fix.curv_factor < 0:
        assert all(abs(c) < 1e-9 for c in consts)


def test_vieta_conventions_frozen():
    # hand-computed pairs freeze the sign conventions per family
    expect = {
        "1.1.1": (0.0, 0.0),
        "1.1.2": (0.0, 0.0),
        "1.1.3": (0.0, 0.0),
        "1.2.1": (0.0, 0.0),
        "1.3.1": (0.0, 0.0),
        "1.4.1": (0.0, 0.0),
        "1.5.1": (0.0, 0.0),
        "1.7.1": (0.0, 0.0),
        "1.2.2": (-1.0, 0.0),
        "1.2.3": (0.0, -1.0),
        "1.2.4": (-2.0, 1.0),
        "1.3.2": (-0.1875, 0.0),
        "1.3.3": (1.25, -0.75),
        "1.3.4": (-0.3125, 0.03125),
        "1.4.2": (-1.0, 0.0),
        "1.4.3": (-7.0, 6.0),
        "1.4.4": (-3.0, -2.0),
        "1.4.5": (-3.0, 2.0),
        "1.4.6": (0.25, -1.25),
        "1.5.2": (-0.125, 0.0),
        "1.5.3": (-13.0 / 64.0, 5.0 / 128.0),
        "1.5.4": (-11.0 / 108.0, -5.0 / 432.0),
        "1.5.5": (-0.125, 5.0 / 256.0),
        "1.5.6": (0.125, -0.125),
        "1.7.2": (-0.75, 0.0),
        "1.7.3": (-1.84, 0.32),
        "1.7.4": (-5.0, 3.0),
        "1.7.5": (-1.0, -1.0),
        "1.7.6": (0.0, -2.0),
    }
    for label, (lam, mu) in expect.items():
        fix = get_case(label)
        got = fix.lambda_mu(dict(fix.defaults))
        assert abs(got[0] - lam) < 1e-12, label
        assert abs(got[1] - mu) < 1e-12, label


def test_single_clause_violations_are_reported():
    bad = [
        ("1.2.1", {"a": -1.0}, "a > 0"),
        ("1.2.3", {"beta": -1.0, "alpha": -2.0}, "beta > 0"),
        ("1.3.2", {"k": 1.5}, "0 < k < 1"),
        ("1.3.3", {"gamma": 2.0}, "alpha + beta + gamma = 1"),
        ("1.4.3", {"alpha": -2.0, "beta": 0.0, "gamma": 2.0}, "beta != 0"),
        ("1.5.4", {"alpha": -0.5, "beta": 0.5, "gamma": 1.5},
         "alpha^2 + 2 alpha beta + 2 alpha gamma + beta gamma = 0"),
        ("1.7.2", {"k": 0.5}, "k > 1"),
        ("1.7.4", {"alpha": -1.0, "beta": 1.0}, "alpha + 2 beta = -1"),
        # one violated equality per remaining family, every other clause held
        ("1.3.4", {"alpha": 0.6}, "alpha + 2 beta = 1"),
        ("1.4.3", {"gamma": 3.0}, "alpha + beta + gamma = 0"),
        ("1.4.6", {"beta": -1.0}, "alpha + 2 beta = 0"),
        ("1.5.2", {"alpha": -0.5, "beta": 0.5, "gamma": 1.0},
         "alpha beta + beta gamma + gamma alpha = 0"),
        ("1.5.3", {"alpha": -1.0, "beta": 0.25, "gamma": 0.5, "delta": 1.25},
         "sum of pairwise products = 0"),
        ("1.5.3", {"alpha": 0.25 * (1.0 - math.sqrt(5.0)), "beta": 0.0,
                   "gamma": 0.5, "delta": 0.25 * (1.0 + math.sqrt(5.0))},
         "alpha beta delta != 0"),
        ("1.5.5", {"gamma": 1.0}, "2 alpha + beta + gamma = 1"),
        ("1.7.3", {"gamma": 1.0}, "alpha + beta + gamma = -1"),
        ("1.7.5", {"alpha": 2.0}, "alpha + 2 beta = -1"),
        ("1.7.6", {"alpha": 2.0}, "alpha + 2 beta = -1"),
    ]
    for label, override, clause in bad:
        fix = get_case(label)
        params = dict(fix.defaults)
        params.update(override)
        with pytest.raises(ConstraintViolationError) as err:
            fix.validate(params)
        assert err.value.clause == clause, label
        assert err.value.label == label


def test_quadruple_with_inconsistent_sum_is_rejected():
    fix = get_case("1.5.6")
    params = {"alpha1": 0.5, "alpha2": 1.5, "beta": -1.0, "gamma": 1.5}
    with pytest.raises(ConstraintViolationError) as err:
        fix.validate(params)
    assert err.value.clause == "alpha1 + alpha2 + 2 beta = 1"


def test_labels_for_families():
    assert labels_for(2, "zero") == ("1.2.1", "1.2.2", "1.2.3", "1.2.4")
    assert labels_for(2, "pos") == ("1.3.1", "1.3.2", "1.3.3", "1.3.4")
    assert len(labels_for(3, "zero")) == 6
    assert len(labels_for(3, "pos")) == 6
    assert len(labels_for(2, "neg")) == 6
    assert labels_for(4, "smooth") == ("1.1.1", "1.1.2", "1.1.3")
    with pytest.raises(NotClassifiedError):
        labels_for(4, "zero")
    with pytest.raises(NotClassifiedError):
        labels_for(3, "neg")


def test_get_case_unknown_label():
    with pytest.raises(NotClassifiedError):
        get_case("9.9.9")


def test_canonical_label_aliases():
    assert canonical_label("1.1.1", 2) == "1.2.1"
    assert canonical_label("1.1.1", 3) == "1.4.1"
    assert canonical_label("1.1.2", 2) == "1.3.1"
    assert canonical_label("1.1.2", 3) == "1.5.1"
    assert canonical_label("1.1.1", 5) == "1.1.1"
    assert canonical_label("1.3.3", 2) == "1.3.3"
    aliases = {("1.1.1", 2): "1.2.1", ("1.1.1", 3): "1.4.1",
               ("1.1.2", 2): "1.3.1", ("1.1.2", 3): "1.5.1"}
    for label in ALL_LABELS:
        for n in range(2, 7):
            assert canonical_label(label, n) == aliases.get((label, n), label)


def test_match_label_without_branches_is_none():
    assert match_label(2, 0.0, 1.0, 1.0, (), True, False) is None
    # H = -x (x^2 - x + 1/2): only the simple root 0 is real, no window
    assert classify(RadialProblem(2, 6.0, -0.5, 0.0)).matched_case is None


def _matched(n, R, lam, mu):
    try:
        return classify(RadialProblem(n, R, lam, mu), allow_finite_extension=True).matched_case
    except Exception as exc:
        return type(exc).__name__


@pytest.mark.parametrize(
    "R, lam, mu, label",
    [
        (3.0, 2.418058581512252, -3.677648115669464, "1.3.3"),
        (6.0, 1.209029290756126, -0.919412028917366, "1.3.3"),
        (3.0, 0.0, 0.0, "1.3.1"),
        (6.0, 0.0, 0.0, "1.3.1"),
    ],
)
def test_matched_case_keys_on_the_sign_of_R(R, lam, mu, label):
    # each R = 3 problem is the g = 2y image of the R = 6 one below it;
    # the catalogue tabulates n = 2, R > 0 at R = 6
    assert classify(RadialProblem(2, R, lam, mu)).matched_case == label


def test_matched_case_is_invariant_under_a_homothety():
    # g = 2y maps (n, R, lambda, mu) to (n, 2R, 2^(1-n) lambda, 2^-n mu),
    # exactly in floats; the roots halve and their pattern stays
    rng = random.Random(0)
    moved = []
    for _ in range(3000):
        n = rng.randint(2, 5)
        R = rng.choice((0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)) * n * (n + 1)
        lam, mu = rng.gauss(0.0, 3.0), rng.gauss(0.0, 3.0)
        here = _matched(n, R, lam, mu)
        there = _matched(n, 2.0 * R, math.ldexp(lam, 1 - n), math.ldexp(mu, -n))
        if here != there:
            moved.append((n, R, lam, mu, here, there))
    assert moved == []
