"""Branch enumeration and verdict logic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from csck import (
    Branch,
    BranchKind,
    IllConditionedError,
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


def test_simple_root_next_to_zero_stays_put():
    # H = x (x - 1e-12): only a multiple root snaps to zero, so the window
    # starts at the simple root 1e-12, where F diverges
    report = classify(RadialProblem(n=2, R=0.0, lam=-1e-12, mu=0.0))
    (b,) = report.branches
    assert b.A == 1e-12
    assert b.kind is BranchKind.FULL_RAY


def test_simple_root_next_to_zero_gives_a_singular_family():
    # H = x^2 + x - 1e-11 has a simple root at 9.9999999999e-12; snapped to
    # zero it would read as a window with a finite left end
    report = classify(RadialProblem(n=2, R=0.0, lam=1.0, mu=-1e-11))
    assert report.verdict is Verdict.SINGULAR_FAMILIES
    (b,) = report.branches
    assert b.A == pytest.approx(9.9999999999e-12, rel=1e-15)


def test_zero_snap_never_moves_a_root_past_its_neighbour():
    # the 11-fold root near 9.26e-35 would snap to 0, past the simple root
    # 1.93e-45 between them, and leave a FullRay window (1.9e-45, 0)
    problem = RadialProblem(n=11, R=-2.7882265258144573e34, lam=-0.24653091307659908,
                            mu=4.765964238066422e-46)
    moved = "snapping a multiple root to 0 would move the roots 1.933211611716053e-45 and "
    with pytest.raises(IllConditionedError, match=moved):
        classify(problem, allow_finite_extension=True)
    with pytest.raises(IllConditionedError, match=moved):
        admissible_branches(build_ode(problem))


def test_simple_zero_root_does_not_absorb_its_neighbour():
    # H = x (x + 1e-12) has the simple roots -1e-12 and 0, and F is finite
    # at 0; merged into a double root at 0 it would diverge there
    report = classify(RadialProblem(n=2, R=0.0, lam=1e-12, mu=0.0))
    assert report.verdict is Verdict.NONEXISTENT
    assert "real roots: -1e-12, 0" in report.diagnostics


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


def _envelope_crossings(n, R, mu):
    """Values of lambda where H = H0 + lambda x + mu has a multiple root.

    With H0 = c x^(n+1) + x^n, c = -R/(n(n+1)), H has a multiple root at
    r exactly when (lambda, mu) = (-H0'(r), r H0'(r) - H0(r)): on the line
    of fixed mu these are the real roots r of
    n c r^(n+1) + (n-1) r^n = mu, crossed at lambda = -H0'(r).
    """
    c = -R / (n * (n + 1))
    envelope = np.zeros(n + 2)
    envelope[0], envelope[1], envelope[-1] = n * c, n - 1.0, -mu
    rs = [z.real for z in np.roots(envelope) if abs(z.imag) <= 1e-6 * (1.0 + abs(z))]
    return [-((n + 1) * c * r**n + n * r ** (n - 1)) for r in rs]


def _envelope_rows():
    rng = np.random.default_rng(23)
    rows = [(n, 1.0, -0.2) for n in range(7, 12)]
    for _ in range(20):
        n = int(rng.integers(2, 12))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        rows.append((n, R, float(rng.normal(0.0, 2.0))))
    return rows


def test_classification_changes_only_across_the_discriminant_envelope():
    # Away from mu = 0 and from the envelope of multiple roots, the real
    # roots of H keep their count, order and multiplicities, so the
    # verdict, the branch count and the matched case are constant between
    # consecutive crossings. Every change along a lambda grid must fall
    # between two neighbours that bracket a crossing.
    lams = np.linspace(-10.0, 10.0, 201)
    for n, R, mu in _envelope_rows():
        crossings = _envelope_crossings(n, R, mu)
        seen = []
        for lam in lams:
            report = classify(RadialProblem(n, R, float(lam), mu), allow_finite_extension=True)
            seen.append((report.verdict, len(report.branches), report.matched_case))
        for i in range(len(lams) - 1):
            if seen[i] == seen[i + 1]:
                continue
            lo, hi = lams[i], lams[i + 1]
            assert any(
                lo - 1e-9 * (1.0 + abs(c)) <= c <= hi + 1e-9 * (1.0 + abs(c)) for c in crossings
            ), (n, R, mu, lo, hi, seen[i], seen[i + 1])


DEFECTS = {
    **{f"a-n{n}": RadialProblem(n, 1.0, 0.3, -0.2) for n in range(7, 12)},
    "b-near-triple": RadialProblem(2, -6.0, 0.33333329770246295, 0.03703702516266898),
    "c-small-lambda": RadialProblem(5, 15.0, -5.018661852819523e-09, -0.9804774209841318),
}


@pytest.mark.parametrize("name", DEFECTS)
def test_hard_root_configurations_classify(name):
    # each of these once raised IllConditionedError in root isolation
    problem = DEFECTS[name]
    report = classify(problem)
    if name.startswith("a-"):
        # a small root near 0.6 and a large one near n(n+1) bound the window
        n = problem.n
        assert report.verdict is Verdict.SINGULAR_FAMILIES
        (b,) = report.branches
        assert 0.58 < b.A < 0.65
        assert b.B == pytest.approx(n * (n + 1), rel=1e-9)
    elif name.startswith("b-"):
        # H lies within 4e-8 of (x + 1/3)^3 and has no positive root
        assert report.verdict is Verdict.NONEXISTENT
        assert report.branches == ()
    else:
        # lambda = -5e-9 is a small perturbation of the lambda = 0 problem
        near = classify(replace(problem, lam=0.0))
        assert report.verdict is near.verdict
        got = [x for b in report.branches for x in (b.A, b.B)]
        want = [x for b in near.branches for x in (b.A, b.B)]
        assert got == pytest.approx(want, abs=1e-8)


def test_polish_of_a_factor_past_the_float_range_classifies():
    # H = x^5 - 2.97e258 x + 8.71e224 has roots near +-4.15e64 and a
    # quadratic factor of the same modulus, where |d| at the polish start
    # overflows abs of a complex; the polish ends there, and the window
    # starts at the root of x^4 = -lam
    lam = -2.972045604035326e258
    report = classify(RadialProblem(5, 0.0, lam, 8.707273548475804e224))
    assert report.verdict is Verdict.SINGULAR_FAMILIES
    (b,) = report.branches
    assert b.A == pytest.approx((-lam) ** 0.25, rel=1e-15)
    assert math.isinf(b.B)
