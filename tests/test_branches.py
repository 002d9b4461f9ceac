"""Branch enumeration and verdict logic."""

import math

import pytest

from csck import (
    Branch,
    BranchKind,
    RadialProblem,
    Verdict,
    admissible_branches,
    build_ode,
    classify,
    lelong_number,
    smooth_origin_test,
)


def test_single_full_ray_above_simple_root():
    report = classify(RadialProblem(n=2, R=0.0, lam=0.0, mu=-1.0))
    assert report.verdict is Verdict.SINGULAR_FAMILIES
    assert len(report.branches) == 1
    b = report.branches[0]
    assert b.A == 1.0
    assert math.isinf(b.B)
    assert b.diverges_left and b.diverges_right
    assert b.kind is BranchKind.FULL_RAY
    assert report.matched_case == "1.2.3"


def test_round_sphere_is_smooth_family():
    problem = RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0)
    report = classify(problem)
    assert report.verdict is Verdict.SMOOTH_FAMILY
    (b,) = report.branches
    assert (b.A, b.B) == (0.0, 1.0)
    assert b.kind is BranchKind.SMOOTH_ORIGIN
    assert report.matched_case == "1.3.1"
    assert smooth_origin_test(b, build_ode(problem))
    assert lelong_number(b) == 0.0


def test_flat_metric_any_dimension():
    for n in (2, 3, 4):
        report = classify(RadialProblem(n=n, R=0.0, lam=0.0, mu=0.0))
        assert report.verdict is Verdict.SMOOTH_FAMILY
        (b,) = report.branches
        assert b.A == 0.0 and math.isinf(b.B)
    assert classify(RadialProblem(3, 0.0, 0.0, 0.0)).matched_case == "1.4.1"
    assert classify(RadialProblem(5, 0.0, 0.0, 0.0)).matched_case == "1.1.1"
    assert classify(RadialProblem(4, 20.0, 0.0, 0.0)).matched_case == "1.1.2"


def test_positive_definite_polynomial_has_no_branches():
    report = classify(RadialProblem(n=2, R=0.0, lam=1.0, mu=1.0))
    assert report.verdict is Verdict.NONEXISTENT
    assert report.branches == ()
    assert report.matched_case is None


def test_ball_branch_suppressed_by_default():
    problem = RadialProblem(n=2, R=-6.0, lam=0.0, mu=0.0)
    report = classify(problem)
    assert report.verdict is Verdict.NONEXISTENT
    assert report.branches == ()
    assert report.matched_case is None
    assert any("suppressed" in d for d in report.diagnostics)

    report = classify(problem, allow_finite_extension=True)
    assert report.verdict is Verdict.FINITE_EXTENSION_ONLY
    (b,) = report.branches
    assert b.A == 0.0 and math.isinf(b.B)
    assert b.kind is BranchKind.FINITE_EXTENSION
    assert b.diverges_left and not b.diverges_right
    assert report.matched_case == "1.7.1"
    # the window starts at zero with lambda = mu = 0, so the local
    # smoothness test passes even though the metric stops at a ball
    assert smooth_origin_test(b, build_ode(problem))


def test_window_without_left_divergence_is_discarded():
    # H = x (x + 1): the origin root is simple, k + 1 = 2, so the
    # antiderivative stays finite at 0 and the window cannot reach s = 0
    report = classify(RadialProblem(n=2, R=0.0, lam=1.0, mu=0.0),
                      allow_finite_extension=True)
    assert report.verdict is Verdict.NONEXISTENT
    assert report.branches == ()
    assert any("discarded" in d for d in report.diagnostics)


def test_negative_curvature_grid_never_extends_to_the_puncture():
    values = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for n in (2, 3):
        R = -float(n * (n + 1))
        for lam in values:
            for mu in values:
                report = classify(RadialProblem(n=n, R=R, lam=lam, mu=mu))
                assert report.verdict is Verdict.NONEXISTENT, (n, lam, mu)


def test_admissible_branches_bare_call():
    ode = build_ode(RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0))
    branches = admissible_branches(ode)
    assert len(branches) == 1
    assert branches[0].kind is BranchKind.SMOOTH_ORIGIN


def test_near_zero_root_snaps_to_zero():
    report = classify(RadialProblem(n=2, R=0.0, lam=-1e-12, mu=0.0))
    (b,) = report.branches
    assert b.A == 0.0
    # lambda is not exactly zero, so the branch is not certified smooth
    assert b.kind is BranchKind.FULL_RAY


def test_lelong_number_reads_left_endpoint():
    report = classify(RadialProblem(n=2, R=0.0, lam=0.0, mu=-1.0))
    assert lelong_number(report.branches[0]) == 1.0


def test_unclassified_high_dimension():
    report = classify(RadialProblem(n=4, R=0.0, lam=-1.0, mu=0.0))
    assert report.verdict is Verdict.SINGULAR_FAMILIES
    assert report.matched_case == "unclassified"
    # a ball branch in a dimension with no catalogued table, and no
    # dimension-free family at negative curvature
    report = classify(RadialProblem(n=4, R=-20.0, lam=0.0, mu=0.0),
                      allow_finite_extension=True)
    assert report.verdict is Verdict.FINITE_EXTENSION_ONLY
    assert report.matched_case == "unclassified"


def test_report_carries_problem_and_diagnostics():
    problem = RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0)
    report = classify(problem)
    assert report.problem is problem
    assert any("degree 3" in d for d in report.diagnostics)
    assert any("real roots" in d for d in report.diagnostics)
