import math
from dataclasses import replace

import numpy as np
import pytest

from csck import reduction
from csck.branches import classify
from csck.errors import EndpointSampleError, NotCsckError, NotKahlerError
from csck.quadrature import gauge_from_anchor, partial_fractions, shoot_ode
from csck.reduction import (
    FunctionHandle,
    OdeData,
    RadialProblem,
    build_ode,
    f_of,
    ode_residual,
    recover_constants,
)


def fubini_study():
    return FunctionHandle(
        value=lambda s: s / (s + 1.0),
        deriv=lambda s: 1.0 / (s + 1.0) ** 2,
        second=lambda s: -2.0 / (s + 1.0) ** 3,
    )


def test_dimension_check():
    with pytest.raises(ValueError):
        RadialProblem(n=1, R=0.0, lam=0.0, mu=0.0)


def test_build_ode_flat():
    ode = build_ode(RadialProblem(n=2, R=0.0, lam=1.0, mu=2.0))
    assert ode.H.coeffs == (2.0, 1.0, 1.0)
    assert ode.k == 1


def test_build_ode_positive_curvature():
    ode = build_ode(RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0))
    assert ode.H.coeffs == (0.0, 0.0, 1.0, -1.0)
    assert ode.k == 1


def test_build_ode_n3():
    ode = build_ode(RadialProblem(n=3, R=12.0, lam=0.5, mu=-0.25))
    assert ode.H.coeffs == (-0.25, 0.5, 0.0, 1.0, -1.0)
    assert ode.k == 2


def test_f_of_linear_is_constant():
    a = 1.7
    g = FunctionHandle(value=lambda s: a * s, deriv=lambda s: a)
    f = f_of(g, 3)
    for s in (0.2, 1.0, 5.0):
        assert abs(f(s) - 3 * np.log(a)) < 1e-13


def test_f_of_fubini_study_value():
    f = f_of(fubini_study(), 2)
    assert abs(f(1.0) - np.log(0.125)) < 1e-13


def test_f_of_rejects_nonpositive_slope():
    g = FunctionHandle(value=lambda s: 1.0, deriv=lambda s: 0.0)
    f = f_of(g, 2)
    with pytest.raises(NotKahlerError):
        f(1.0)


def test_recover_constants_rejects_a_negative_g():
    g = FunctionHandle(value=lambda s: -1.0, deriv=lambda s: 1.0)
    with pytest.raises(NotKahlerError):
        recover_constants(g, 2, 0.0)


def test_recover_constants_fubini_study():
    rec = recover_constants(fubini_study(), n=2, R=6.0)
    lam, mu = rec
    assert abs(lam) < 1e-10
    assert abs(mu) < 1e-10
    assert rec.lam_spread < 1e-10


def test_recover_constants_euclidean():
    a = 0.8
    g = FunctionHandle(value=lambda s: a * s, deriv=lambda s: a, second=lambda s: 0.0)
    lam, mu = recover_constants(g, n=2, R=0.0)
    assert abs(lam) < 1e-12
    assert abs(mu) < 1e-12


def test_recover_constants_log_term_potential():
    # u = a s + b log s gives g = a s + b; expect lam = -b, mu = 0
    a, b = 1.5, 0.7
    g = FunctionHandle(value=lambda s: a * s + b, deriv=lambda s: a, second=lambda s: 0.0)
    lam, mu = recover_constants(g, n=2, R=0.0)
    assert abs(lam + b) < 1e-10
    assert abs(mu) < 1e-10
    ode = build_ode(RadialProblem(n=2, R=0.0, lam=lam, mu=mu))
    assert abs(ode.H(b)) < 1e-10


def test_recover_constants_without_second_derivative():
    g = FunctionHandle(value=lambda s: s / (s + 1.0), deriv=lambda s: 1.0 / (s + 1.0) ** 2)
    lam, mu = recover_constants(g, n=2, R=6.0)
    assert abs(lam) < 1e-8
    assert abs(mu) < 1e-8


def test_recover_constants_rejects_non_solution():
    g = FunctionHandle(
        value=lambda s: s / (s + 1.0) + 0.01 * s**2,
        deriv=lambda s: 1.0 / (s + 1.0) ** 2 + 0.02 * s,
    )
    with pytest.raises(NotCsckError) as exc:
        recover_constants(g, n=2, R=6.0)
    assert exc.value.spread > 1e-7


def test_ode_residual_closed_form():
    ode = build_ode(RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0))
    samples = []
    for s in np.geomspace(0.1, 10.0, 50):
        samples.append((s, s / (s + 1.0), 1.0 / (s + 1.0) ** 2))
    assert ode_residual(samples, ode) < 1e-12


def test_ode_residual_euclidean_exact():
    ode = build_ode(RadialProblem(n=2, R=0.0, lam=0.0, mu=0.0))
    a = 1.0
    samples = [(s, a * s, a) for s in (0.5, 1.0, 2.0)]
    assert ode_residual(samples, ode) == 0.0


def test_ode_residual_detects_perturbation():
    ode = build_ode(RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0))
    samples = []
    for s in np.geomspace(0.5, 2.0, 10):
        g = s / (s + 1.0) + 0.01
        samples.append((s, g, 1.0 / (s + 1.0) ** 2))
    assert ode_residual(samples, ode) > 1e-3


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("row", [0, 2])
def test_ode_residual_is_nan_for_a_nan_sample(row, column):
    ode = build_ode(RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0))
    samples = [[s, s / (s + 1.0), 1.0 / (s + 1.0) ** 2] for s in (0.5, 1.0, 2.0, 4.0)]
    samples[row][column] = float("nan")
    assert math.isnan(ode_residual(samples, ode))


def test_ode_residual_endpoint_sample():
    ode = build_ode(RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0))
    with pytest.raises(EndpointSampleError):
        ode_residual([(1.0, 1.0, 0.25)], ode)


@pytest.mark.parametrize(
    "field",
    [
        {"n": 2.5},
        {"n": 3.0},
        {"n": "3"},
        {"n": True},
        {"R": float("nan")},
        {"R": float("-inf")},
        {"lam": float("inf")},
        {"mu": float("nan")},
    ],
)
def test_malformed_problem_rejected(field):
    # these used to leak TypeError (non-integral n) or, from classify,
    # LinAlgError (non-finite coefficients)
    args = {"n": 2, "R": 0.0, "lam": 0.0, "mu": 0.0, **field}
    with pytest.raises(ValueError):
        RadialProblem(**args)


def test_build_ode_is_the_problems_single_ode():
    problem = RadialProblem(n=3, R=12.0, lam=0.5, mu=-0.25)
    ode = build_ode(problem)
    assert ode is build_ode(problem) is classify(problem).ode is problem.ode
    assert ode.problem is problem


def test_problem_identity_ignores_its_ode():
    problem = RadialProblem(n=3, R=12.0, lam=0.5, mu=-0.25)
    twin = RadialProblem(n=3, R=12.0, lam=0.5, mu=-0.25)
    before = hash(problem)
    ode = problem.ode
    assert problem == twin and hash(problem) == before == hash(twin)
    assert repr(problem) == repr(twin)
    copy = replace(problem)
    assert copy == problem and copy.ode is not ode and copy.ode.problem is copy
    assert replace(problem, mu=0.25).ode.H != ode.H


@pytest.mark.parametrize("ode_first", [False, True])
def test_root_profile_is_factored_once_per_problem(monkeypatch, ode_first):
    calls = []
    real = reduction.real_root_profile

    def counted(H, *args, **kwargs):
        calls.append(H)
        return real(H, *args, **kwargs)

    monkeypatch.setattr(reduction, "real_root_profile", counted)
    problem = RadialProblem(n=2, R=6.0, lam=0.0, mu=0.0)
    if ode_first:
        build_ode(problem)
    report = classify(problem)
    ode = build_ode(problem)
    branch = report.branches[0]
    F = partial_fractions(ode, branch)
    sol = gauge_from_anchor(ode, branch, F, (1.0, 0.5 * (branch.A + branch.B)))
    sol.G()
    shoot_ode(ode, 1.0, 0.5 * (branch.A + branch.B), [0.5, 2.0])
    assert len(calls) == 1
