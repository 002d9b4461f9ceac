"""Potential reconstruction, metric assembly, and curvature verification."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from csck import (
    IllConditionedError,
    NotKahlerError,
    OutOfDomainError,
    RadialProblem,
    RadialSolution,
    admissible_branches,
    ball_normalize,
    build_ode,
    gauge_from_anchor,
    get_case,
    partial_fractions,
    solve_g,
)
from csck import geometry
from csck.cases import CASES
from csck.geometry import (
    curvature_fd,
    metric_sample,
    metric_tensor,
    potential_u,
    scalar_curvature,
    verify_solution,
)

BRANCHED = [l for l in sorted(CASES) if get_case(l).branch_range is not None]


def problem_for(fix, params=None):
    p = dict(fix.defaults)
    if params:
        p.update(params)
    n = int(p.get("n", fix.n))
    lam, mu = fix.lambda_mu(p)
    return RadialProblem(n=n, R=fix.curvature(n), lam=lam, mu=mu), p


def solution_for(label, params=None):
    fix = get_case(label)
    problem, p = problem_for(fix, params)
    ode = build_ode(problem)
    A, B = fix.branch_range(p)
    br = next(
        b for b in admissible_branches(ode)
        if abs(b.A - A) <= 1e-8 * (1.0 + abs(A))
        and math.isinf(b.B) == math.isinf(B)
        and (math.isinf(B) or abs(b.B - B) <= 1e-8 * (1.0 + abs(B)))
    )
    F = partial_fractions(ode, br)
    if label.startswith("1.7"):
        return ball_normalize(ode, br, F)
    mid = br.A + 1.0 if math.isinf(br.B) else 0.5 * (br.A + br.B)
    return gauge_from_anchor(ode, br, F, (1.0, mid))


def plain_solution(n, R, lam, mu, anchor):
    """First branch, anchored at (1, A + 1) when anchor is None."""
    ode = build_ode(RadialProblem(n, R, lam, mu))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    return gauge_from_anchor(ode, br, F, anchor or (1.0, br.A + 1.0))


def test_potential_euclidean_linear():
    sol = plain_solution(2, 0.0, 0.0, 0.0, (1.0, 1.0))
    for s in (0.2, 1.0, 3.0, 40.0):
        assert potential_u(sol, s) == pytest.approx(s - 1.0, abs=1e-10)


def test_potential_round_sphere_log():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    for s in (0.1, 1.0, 2.5, 30.0):
        assert potential_u(sol, s) == pytest.approx(math.log((s + 1.0) / 2.0), abs=1e-10)


def test_potential_affine_profile():
    # g = s + 1 integrates to u = (s - 1) + log s
    sol = plain_solution(2, 0.0, -1.0, 0.0, (1.0, 2.0))
    for s in (0.3, 2.0, 7.0):
        assert potential_u(sol, s) == pytest.approx(s - 1.0 + math.log(s), abs=1e-10)


def test_potential_ball_anchored_at_midpoint():
    # domain (0, 1): u is anchored where s = 1 cannot be, at the midpoint;
    # g = s/(1 - s) integrates to -log(1 - s) + const
    sol = solution_for("1.7.1")
    assert potential_u(sol, 0.5) == 0.0
    for s in (0.1, 0.25, 0.8):
        want = -math.log(1.0 - s) + math.log(0.5)
        assert potential_u(sol, s) == pytest.approx(want, abs=1e-10)


def test_potential_at_the_float_wall():
    # g(0.05) - A is about 9e-18, below ulp(A): g is pinned at A to
    # rounding, so a log|g - A| term in the potential would be O(1) wrong;
    # the reference is a 30-digit ODE integration
    sol = plain_solution(6, 0.0, 2.7270930784596272, -1.0966327986975504, None)
    assert potential_u(sol, 0.05) == pytest.approx(-1.39871963672175, abs=1e-10)


@pytest.mark.parametrize("label", BRANCHED)
def test_potential_matches_quadrature(label):
    # independent oracle: u(s) = integral of g(t)/t from the anchor
    sol = solution_for(label)
    lo, hi = sol.s_domain
    anchor = 1.0 if lo < 1.0 < hi else 0.5 * (lo + hi)
    if math.isinf(hi):
        grid = np.geomspace(0.01, 100.0, 12)
    else:
        grid = np.geomspace(max(0.05, 2.0 * lo), 0.998 * hi, 12)
    for s in grid:
        s = float(s)
        want, _ = quad(
            lambda t: solve_g(sol, t) / t, anchor, s, epsabs=1e-12, epsrel=1e-12, limit=200
        )
        assert abs(potential_u(sol, s) - want) <= 1e-10 * (1.0 + abs(want))


def test_potential_out_of_domain():
    sol = solution_for("1.7.1")
    with pytest.raises(OutOfDomainError):
        potential_u(sol, 1.5)


def test_metric_euclidean_identity():
    sol = plain_solution(2, 0.0, 0.0, 0.0, (1.0, 1.0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        M = metric_tensor(sol, z)
        assert np.max(np.abs(M - np.eye(2))) < 1e-10


def test_metric_round_sphere_point():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    M = metric_tensor(sol, [1.0, 0.0])
    assert np.max(np.abs(M - np.diag([0.25, 0.5]))) < 1e-12
    # determinant identity at this point: (u')^{n-1} (u' + s u'') = 1/8
    assert np.real(np.linalg.det(M)) == pytest.approx(0.125, abs=1e-12)


def test_metric_rejects_origin_and_boundary():
    sol = solution_for("1.7.1")
    with pytest.raises(OutOfDomainError):
        metric_tensor(sol, [0.0, 0.0])
    with pytest.raises(OutOfDomainError):
        metric_tensor(sol, [1.0, 0.5])


def test_metric_rejects_a_point_of_the_wrong_dimension():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    with pytest.raises(ValueError, match="shape"):
        metric_tensor(sol, [1.0, 0.0, 0.0])


def test_metric_hermitian_and_spectrum():
    sol = solution_for("1.3.3")
    rng = np.random.default_rng(7)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z *= 0.9 / np.linalg.norm(z)
    s = float(np.real(np.vdot(z, z)))
    M = metric_tensor(sol, z)
    assert np.max(np.abs(M - M.conj().T)) < 1e-12
    g = solve_g(sol, s)
    g1 = sol.ode.H(g) / (s * g ** sol.ode.k)
    eig = np.sort(np.linalg.eigvalsh(M))
    want = np.sort([g / s, g1])
    assert np.max(np.abs(eig - want)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_identity_random_points(n):
    label = "1.1.2"
    sol = solution_for(label, {"n": n})
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z *= 10.0 ** rng.uniform(-0.5, 0.5) / np.linalg.norm(z)
        s = float(np.real(np.vdot(z, z)))
        M = metric_tensor(sol, z)
        g = solve_g(sol, s)
        g1 = sol.ode.H(g) / (s * g ** sol.ode.k)
        want = (g / s) ** (n - 1) * g1
        det = float(np.real(np.linalg.det(M)))
        assert abs(det - want) / want < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_unitary_invariance_of_spectrum(n):
    sol = solution_for("1.1.1", {"n": n})
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a = np.sort(np.linalg.eigvalsh(metric_tensor(sol, z)))
        b = np.sort(np.linalg.eigvalsh(metric_tensor(sol, q @ z)))
        assert np.max(np.abs(a - b)) < 1e-9


def test_curvature_flat_exact():
    sol = plain_solution(2, 0.0, 0.0, 0.0, (1.0, 1.0))
    for s in (0.05, 1.0, 80.0):
        assert abs(scalar_curvature(sol, s)) < 1e-12


def test_curvature_round_sphere():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    for s in (0.02, 0.4, 1.0, 9.0, 90.0):
        assert scalar_curvature(sol, s) == pytest.approx(6.0, abs=1e-10)


def test_curvature_hyperbolic_ball():
    sol = solution_for("1.7.1")
    assert scalar_curvature(sol, 0.5) == pytest.approx(-6.0, abs=1e-10)


def test_curvature_fd_cross_check():
    sol = solution_for("1.3.3")
    for s in (0.1, 1.0, 10.0):
        an = scalar_curvature(sol, s)
        fd = curvature_fd(sol, s)
        assert abs(fd - an) / (1.0 + abs(an)) < 1e-5


@pytest.mark.parametrize("s", [1e-4, 1e-5, 1e-6])
def test_curvature_where_g_is_pinned_to_the_left_end(s):
    # g rounds to A, where H and so g' vanish: every curvature and metric
    # path names the non-Kahler point instead of dividing by g' = 0, for
    # the point z with |z|^2 = s and for an array holding s too
    sol = solution_for("1.7.6")
    assert solve_g(sol, s) == sol.branch.A
    z = np.zeros(sol.ode.problem.n)
    z[0] = math.sqrt(s)
    inputs = [(fn, s) for fn in (scalar_curvature, curvature_fd, metric_sample)]
    inputs += [(metric_tensor, z), (metric_sample, np.array([0.5, s]))]
    for fn, arg in inputs:
        with pytest.raises(NotKahlerError, match="u' \\+ s u'' = 0 at s"):
            fn(sol, arg)


@pytest.mark.parametrize("n, R, lam, mu, gauge, s", [
    # the solve reproducer of CI: the curvature chain overflows at s = 0.05
    (8, -144.0, 1038.71237825877, -7.497399737611692e-11, 0.02229321223490252, 0.05),
    # the flat metric of C^3, g = s: (s g^2)^2 underflows to 0 at s = 1e-55
    (3, 0.0, 0.0, 0.0, (1.0, 1.0), 1e-55),
])
def test_float_geometry_names_s_where_it_leaves_the_float_range(n, R, lam, mu, gauge, s):
    ode = build_ode(RadialProblem(n, R, lam, mu))
    br = admissible_branches(ode)[0]
    F = partial_fractions(ode, br)
    if isinstance(gauge, tuple):
        sol = gauge_from_anchor(ode, br, F, gauge)
    else:
        sol = RadialSolution(ode, br, F, gauge)
    for fn in (scalar_curvature, metric_sample):
        with pytest.raises(IllConditionedError, match=re.escape(f"at s = {s!r}")):
            fn(sol, s)
    # an array holding s reads nan there instead
    assert math.isnan(metric_sample(sol, np.array([s])).R_num[0])


def test_metric_tensor_names_s_where_u_prime_leaves_the_float_range():
    # ball-normalized on its finite extension (0, inf), g(s) is near 1e82
    # across (0.05, 0.9): H(g) and so u'' overflow, which would leave inf
    # and nan in the matrix; no numpy warning may reach the caller
    ode = build_ode(RadialProblem(4, -9.973207780401884e-83, 1.482602515902896e-166,
                                  4.376432258089308e-232))
    (br,) = admissible_branches(ode)
    sol = ball_normalize(ode, br, partial_fractions(ode, br))
    for s in np.geomspace(0.05, 0.9, 5):
        z = (math.sqrt(s), 0.0, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match=re.escape(f"at s = {abs(z[0]) ** 2!r}")):
                metric_tensor(sol, z)


def test_metric_sample_fields():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    ms = metric_sample(sol, 1.0)
    assert ms.u == pytest.approx(0.0, abs=1e-12)
    assert ms.up == pytest.approx(0.5, abs=1e-12)
    assert ms.upp == pytest.approx(-0.25, abs=1e-12)
    # f = log det G = (n-1) log u' + log(u' + s u'')
    assert ms.f == pytest.approx(math.log(0.125), abs=1e-12)
    assert ms.R_num == pytest.approx(6.0, abs=1e-10)
    assert ms.up > 0.0 and ms.up + ms.s * ms.upp > 0.0


@pytest.mark.parametrize("label", BRANCHED)
def test_metric_sample_array_matches_scalar(label):
    sol = solution_for(label)
    lo, hi = sol.s_domain
    s = np.geomspace(max(0.05, 2.0 * lo), 100.0 if math.isinf(hi) else 0.99 * hi, 24)
    # unsorted, with a repeat and the potential's anchor
    s = np.append(s[::-1], [s[3], 1.0 if lo < 1.0 < hi else 0.5 * (lo + hi)])
    got = metric_sample(sol, s)
    for name in ("s", "g", "u", "up", "upp", "f", "R_num"):
        x = getattr(got, name)
        want = np.array([getattr(metric_sample(sol, float(v)), name) for v in s])
        assert x.shape == s.shape
        assert np.all(np.abs(x - want) <= 1e-12 * (1.0 + np.abs(want))), name
    assert got.u[-1] == 0.0


@pytest.mark.parametrize("label", BRANCHED)
def test_scalar_metric_sample_is_call_order_free(label):
    # the solution keeps g(s_a) once it is inverted; a reused solution,
    # after array and potential calls, must give what a fresh one gives
    used = solution_for(label)
    lo, hi = used.s_domain
    grid = np.geomspace(max(0.01, 2.0 * lo), 100.0 if math.isinf(hi) else 0.99 * hi, 9)
    metric_sample(used, grid)
    potential_u(used, float(grid[0]))
    for s in grid:
        fresh = metric_sample(solution_for(label), float(s))
        again = metric_sample(used, float(s))
        for name in ("s", "g", "u", "up", "upp", "f", "R_num"):
            assert float(getattr(fresh, name)).hex() == float(getattr(again, name)).hex()


def test_metric_sample_array_out_of_domain():
    sol = solution_for("1.7.1")
    with pytest.raises(OutOfDomainError) as scalar:
        metric_sample(sol, 1.5)
    with pytest.raises(OutOfDomainError) as array:
        metric_sample(sol, np.array([0.5, 1.5, 0.2]))
    assert str(array.value) == str(scalar.value)


def test_verify_round_sphere_report():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    rep = verify_solution(sol, 200)
    assert rep.R_target == 6.0
    assert rep.max_curvature_residual < 1e-6
    assert rep.max_det_residual < 1e-9
    assert rep.kahler_ok and rep.positivity_margin > 0.0


def test_verify_flat_report():
    sol = plain_solution(2, 0.0, 0.0, 0.0, (1.0, 1.0))
    rep = verify_solution(sol, 200)
    assert rep.max_curvature_residual < 1e-12


def test_verify_quartic_smooth_fixture():
    # n = 3, R = 12 data ((1-sqrt5)/4, 1/2, (1+sqrt5)/4)
    sol = solution_for("1.5.2")
    rep = verify_solution(sol, 120)
    assert rep.max_curvature_residual < 1e-5
    assert rep.kahler_ok


@pytest.mark.parametrize("label", BRANCHED)
def test_verify_all_fixtures(label):
    sol = solution_for(label)
    rep = verify_solution(sol, 60)
    scale = 1.0 + abs(rep.R_target)
    assert rep.kahler_ok and rep.positivity_margin > 0.0
    assert rep.max_curvature_residual < 1e-5 * scale
    assert rep.curvature_stddev < 1e-6 * scale
    assert rep.max_fd_mismatch < 1e-5
    assert rep.max_det_residual < 1e-9


def test_verify_on_a_domain_that_ends_below_the_grid_floor():
    # s-domain (0, 0.02): the floor 0.05 lies past the domain's end, so the
    # grid starts at 0.05 s_hi instead
    sol = plain_solution(2, -6.0, 0.0, 0.0, (0.01, 1.0))
    lo, hi = sol.s_domain
    assert lo == 0.0 and 0.998 * hi < 0.05
    rep = verify_solution(sol, 200)
    assert rep.s_lo == pytest.approx(0.05 * hi) and rep.s_hi == pytest.approx(0.998 * hi)
    assert rep.kahler_ok and rep.positivity_margin > 0.0
    assert rep.max_curvature_residual < 1e-9
    assert rep.max_fd_mismatch < 1e-5


def _verify_point_by_point(sol, n_samples):
    """verify_solution's report, rebuilt one grid point at a time."""
    lo, hi = sol.s_domain
    if math.isinf(hi):
        grid = np.geomspace(max(0.01, 2.0 * lo), 100.0, n_samples)
    else:
        grid = np.geomspace(max(0.05, 2.0 * lo), 0.998 * hi, n_samples)
    n = sol.ode.problem.n
    R = sol.ode.problem.R
    curv, fd_miss, det_res, margin = [], [], [], math.inf
    for s in map(float, grid):
        z = np.zeros(n, dtype=complex)
        z[0] = math.sqrt(s)
        metric = metric_tensor(sol, z)
        # z lies on the first axis: the radial eigenvalue g' sits at (0, 0)
        up, g1 = solve_g(sol, s) / s, metric[0, 0].real
        margin = min(margin, up, g1)
        r_an = scalar_curvature(sol, s)
        curv.append(r_an)
        fd_miss.append(abs(curvature_fd(sol, s) - r_an) / (1.0 + abs(r_an)))
        want = up ** (n - 1) * g1
        det_res.append(abs(float(np.real(np.linalg.det(metric))) - want) / abs(want))
    curv = np.asarray(curv)
    return dict(
        s_lo=float(grid[0]),
        s_hi=float(grid[-1]),
        max_curvature_residual=float(np.max(np.abs(curv - R))),
        curvature_stddev=float(np.std(curv)),
        max_fd_mismatch=max(fd_miss),
        max_det_residual=max(det_res),
        positivity_margin=margin,
        kahler_ok=margin > 0.0,
    )


@pytest.mark.parametrize("label", BRANCHED)
def test_verify_matches_point_loop(label):
    for n_samples in (1, 24):
        rep = verify_solution(solution_for(label), n_samples)
        ref = _verify_point_by_point(solution_for(label), n_samples)
        assert (rep.s_lo, rep.s_hi, rep.kahler_ok) == (ref["s_lo"], ref["s_hi"], ref["kahler_ok"])
        for field in ("max_curvature_residual", "curvature_stddev", "max_fd_mismatch",
                      "max_det_residual", "positivity_margin"):
            assert abs(getattr(rep, field) - ref[field]) <= 1e-9, field


def test_verify_rejects_empty_grid():
    sol = plain_solution(2, 6.0, 0.0, 0.0, (1.0, 0.5))
    for n_samples in (0, -3):
        with pytest.raises(ValueError):
            verify_solution(sol, n_samples)


def _ddbar(fn, z):
    """The complex Hessian d_j dbar_k fn at z, of a real function fn on C^n.

    The second derivatives are central differences in the 2n real
    coordinates of z, with step h = 3e-3 |z| and one Richardson step to
    h / 2. The step balances two errors: at h = 1e-3 |z| the rounding of
    log det G, divided by h^2, reads 1.2e-6 on 1.3.4 in the curvature
    oracle, and at h = 5e-3 |z| the h^4 truncation reads 1.7e-6 on a
    random solution whose domain ends at s = 1.8.
    """
    n = z.size
    x0 = np.concatenate([z.real, z.imag])

    def at(x):
        return fn(x[:n] + 1j * x[n:])

    def hessian(h):
        e = h * np.eye(2 * n)
        mid = at(x0)
        out = np.empty((2 * n, 2 * n))
        for a in range(2 * n):
            out[a, a] = (at(x0 + e[a]) - 2.0 * mid + at(x0 - e[a])) / h**2
            for b in range(a):
                out[a, b] = out[b, a] = (
                    at(x0 + e[a] + e[b]) - at(x0 + e[a] - e[b])
                    - at(x0 - e[a] + e[b]) + at(x0 - e[a] - e[b])
                ) / (4.0 * h**2)
        return out

    h = 3e-3 * np.linalg.norm(z)
    d2 = (4.0 * hessian(0.5 * h) - hessian(h)) / 3.0
    # d_j dbar_k = (d_xj - i d_yj)(d_xk + i d_yk) / 4
    return 0.25 * (d2[:n, :n] + d2[n:, n:] + 1j * (d2[:n, n:] - d2[n:, :n]))


def _curvature_oracle(sol, z):
    """S = tr(G^-1 Ric) at z, with Ric = -ddbar log det G and G = metric_tensor.

    No radial formula enters: _ddbar differentiates log det G.
    """
    ddbar = _ddbar(lambda w: math.log(np.linalg.det(metric_tensor(sol, w)).real), z)
    return float(np.real(np.trace(np.linalg.solve(metric_tensor(sol, z), -ddbar))))


def _oracle_point(sol, rng):
    """A random direction at |z|^2 = 1, or at half the domain's end when
    that end is at or below 2."""
    hi = sol.s_domain[1]
    w = rng.normal(size=sol.ode.problem.n) + 1j * rng.normal(size=sol.ode.problem.n)
    return w * math.sqrt(1.0 if hi > 2.0 else 0.5 * hi) / np.linalg.norm(w)


def _oracle_miss(sol, z):
    R = sol.ode.problem.R
    return abs(_curvature_oracle(sol, z) - R) / (1.0 + abs(R))


def _bent(solve):
    """solve_g times 1 + 1e-3 s^2 / (1 + s^2), a factor that no fixture
    absorbs. Some factors are solutions themselves: a uniform scale on
    1.1.1, 1.2.1 and 1.4.1 (g = a s), and 1 + d s / (1 + s) on 1.2.2
    (g = a s + b)."""
    return lambda sol, s: solve(sol, s) * (1.0 + 1e-3 * s**2 / (1.0 + s**2))


@pytest.mark.parametrize("label", BRANCHED)
def test_curvature_oracle_in_cn_on_fixtures(label, monkeypatch):
    # 1.9e-7 at most (1.3.4); a profile that misses the ODE reads at least
    # 1e4 times its exact value on every fixture
    sol = solution_for(label)
    z = _oracle_point(sol, np.random.default_rng(3))
    miss = _oracle_miss(sol, z)
    assert miss <= 1e-6
    monkeypatch.setattr(geometry, "solve_g", _bent(geometry.solve_g))
    assert _oracle_miss(sol, z) >= 100.0 * max(miss, 1e-12)


def test_curvature_oracle_in_cn_on_random_solutions():
    # the first branch of the first 40 problems that have one, anchored at
    # (1, A + 1) on rays and (1, midpoint) on finite windows; max 2.2e-7
    rng = np.random.default_rng(11)
    misses = []
    while len(misses) < 40:
        n = int(rng.integers(2, 5))
        R = float(rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])) * n * (n + 1)
        lam, mu = rng.normal(0.0, 3.0, 2)
        branches = admissible_branches(build_ode(RadialProblem(n, R, float(lam), float(mu))))
        if not branches:
            continue
        br = branches[0]
        anchor = (1.0, br.A + 1.0 if math.isinf(br.B) else 0.5 * (br.A + br.B))
        sol = plain_solution(n, R, float(lam), float(mu), anchor)
        misses.append(_oracle_miss(sol, _oracle_point(sol, rng)))
    assert max(misses) <= 1e-6


@pytest.mark.parametrize("label", BRANCHED)
def test_metric_tensor_is_the_complex_hessian_of_the_potential(label, monkeypatch):
    # G = ddbar u(|z|^2) checks metric_tensor and potential_u against each
    # other. max |ddbar u - G| / max |G| reads 8.3e-10 at most (1.3.4); a
    # profile that misses the ODE reads at least 6e4 times its exact value
    sol = solution_for(label)
    z = _oracle_point(sol, np.random.default_rng(3))

    def miss():
        G = metric_tensor(sol, z)
        hess = _ddbar(lambda w: potential_u(sol, float(np.vdot(w, w).real)), z)
        return np.max(np.abs(hess - G)) / np.max(np.abs(G))

    exact = miss()
    assert exact <= 1e-8
    monkeypatch.setattr(geometry, "solve_g", _bent(geometry.solve_g))
    assert miss() >= 100.0 * max(exact, 1e-12)


@pytest.mark.parametrize(
    "label", [l for l in BRANCHED if problem_for(get_case(l))[0].R != 0.0]
)
def test_fd_mismatch_sees_a_profile_that_misses_the_ode(label, monkeypatch):
    # where R != 0 the difference rule reads R times a ratio of slopes;
    # the ball fixtures 1.7.1-1.7.4 read about 107 times their exact value
    exact = verify_solution(solution_for(label), 40).max_fd_mismatch
    monkeypatch.setattr(geometry, "solve_g", _bent(geometry.solve_g))
    assert verify_solution(solution_for(label), 40).max_fd_mismatch >= 10.0 * exact
