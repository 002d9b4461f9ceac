"""End-to-end acceptance gate, one printed pass/fail line per criterion."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from csck.branches import BranchKind, Verdict, classify
from csck.cases import CASES, get_case
from csck.catalog import cross_check, instantiate
from csck.geometry import metric_tensor, verify_solution
from csck.inequalities import I_value, J_value, certify_negative
from csck.polynomials import Poly, real_root_profile
from csck.quadrature import (
    ball_normalize,
    eval_F,
    gauge_from_anchor,
    partial_fractions,
    shoot_ode,
    solve_g,
)
from csck.reduction import (
    FunctionHandle,
    RadialProblem,
    build_ode,
    ode_residual,
    recover_constants,
)

FORMULA_LABELS = [l for l in CASES if l.startswith(("1.2", "1.3", "1.4", "1.5"))]
BALL_LABELS = [l for l in CASES if l.startswith("1.7")]

# every fixture that carries a branch; the dimension-free families run at both
# supported dimensions
FIXTURES = []
for _label in CASES:
    if CASES[_label].verdict == "Nonexistent":
        continue
    if CASES[_label].n_is_free:
        FIXTURES += [(_label, 2), (_label, 3)]
    else:
        FIXTURES.append((_label, None))


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def ends_match(x: float, y: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return math.isinf(x) and math.isinf(y)
    return abs(x - y) <= 1e-8 * (1.0 + abs(y))


def solution_for(label: str, n=None):
    problem, expected = instantiate(label, n=n)
    fix = get_case(label)
    rep = classify(problem, allow_finite_extension=fix.kind == "FiniteExtension")
    branch = next(
        b for b in rep.branches if ends_match(b.A, expected.A) and ends_match(b.B, expected.B)
    )
    ode = build_ode(problem)
    F = partial_fractions(ode, branch)
    if fix.kind == "FiniteExtension":
        return problem, ball_normalize(ode, branch, F)
    g0 = branch.A + 1.0 if math.isinf(branch.B) else 0.5 * (branch.A + branch.B)
    return problem, gauge_from_anchor(ode, branch, F, (1.0, g0))


def s_grid(sol, count: int):
    # the 0.05 floor on finite domains keeps g off the float-resolution
    # wall at a singular left endpoint A > 0
    lo, hi = sol.s_domain
    bottom = 0.01 if math.isinf(hi) else 0.05
    top = 100.0 if math.isinf(hi) else 0.99 * hi
    return np.geomspace(max(bottom, 2.0 * lo), top, count)


def fd1(fn, s: float, h: float) -> float:
    d1 = (fn(s + h) - fn(s - h)) / (2.0 * h)
    d2 = (fn(s + 0.5 * h) - fn(s - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def smooth_solution(n: int, R: float, g_at_1: float):
    problem = RadialProblem(n, R, 0.0, 0.0)
    rep = classify(problem)
    assert rep.verdict == Verdict.SMOOTH_FAMILY
    branch = next(b for b in rep.branches if b.kind == BranchKind.SMOOTH_ORIGIN)
    ode = build_ode(problem)
    return gauge_from_anchor(ode, branch, partial_fractions(ode, branch), (1.0, g_at_1))


def test_criterion_1_smooth_family_and_nonexistence():
    with criterion(1, "smooth family curvature and negative nonexistence"):
        t0 = time.perf_counter()
        for n in (2, 3, 4):
            R = float(n * (n + 1))
            sol = smooth_solution(n, R, 0.5)  # unit-parameter profile g = s/(s+1)
            v = verify_solution(sol, 200)
            assert abs(v.s_lo - 1e-2) < 1e-12 and abs(v.s_hi - 1e2) < 1e-9
            assert v.max_curvature_residual < 1e-6
            assert v.kahler_ok
        assert time.perf_counter() - t0 < 5.0

        for n in (2, 3, 4):
            sol = smooth_solution(n, 0.0, 1.0)  # flat profile g = s
            v = verify_solution(sol, 200)
            assert v.max_curvature_residual < 1e-10

        t0 = time.perf_counter()
        for n in (2, 3):
            R = float(-n * (n + 1))
            for lam in np.linspace(-10.0, 10.0, 101):
                for mu in np.linspace(-10.0, 10.0, 101):
                    rep = classify(RadialProblem(n, R, float(lam), float(mu)))
                    assert rep.verdict == Verdict.NONEXISTENT, (n, lam, mu)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_printed_formula_equivalence():
    with criterion(2, "catalog formulas match the engine antiderivatives"):
        t0 = time.perf_counter()
        assert len(FORMULA_LABELS) == 20
        for label in FORMULA_LABELS:
            rep = cross_check(label)
            assert rep.reference_deviation is not None, label
            assert rep.reference_deviation < 1e-9, (label, rep.reference_deviation)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_inversion_agrees_with_direct_integration():
    with criterion(3, "solve_g matches shoot_ode on every fixture"):
        t0 = time.perf_counter()
        for label, nv in FIXTURES:
            problem, sol = solution_for(label, nv)
            lo, hi = sol.s_domain
            finite = not math.isinf(hi)
            grid = np.geomspace(0.01, 0.95 * hi if finite else 100.0, 40)
            # anchor a finite-extension shoot at the top so the blowup
            # region is integrated in its contracting direction
            s0 = float(grid[-1] if finite else grid[20])
            res = shoot_ode(sol.ode, s0, solve_g(sol, s0), [float(s) for s in grid])
            assert res.domain_end is None, (label, res.message)
            dev = max(abs(gv - solve_g(sol, sv)) for sv, gv in res.samples)
            assert dev < 1e-6, (label, nv, dev)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_constants_recovered_from_profiles():
    with criterion(4, "recover_constants returns the synthesized (lam, mu)"):
        for label, nv in FIXTURES:
            problem, sol = solution_for(label, nv)
            lo, hi = sol.s_domain
            if math.isinf(hi):
                pts = np.geomspace(0.5, 2.0, 8)
            else:
                pts = np.geomspace(0.2 * hi, 0.5 * hi, 8)
            value = lambda s: solve_g(sol, s)
            # 3e-3 balances inversion jitter against truncation for the
            # stacked first and second differences
            deriv = lambda s: fd1(value, s, 3e-3 * s)
            second = lambda s: fd1(deriv, s, 3e-3 * s)
            rec = recover_constants(
                FunctionHandle(value, deriv, second), problem.n, problem.R, s_points=pts
            )
            assert abs(rec.lam - problem.lam) < 1e-7, (label, nv, rec)
            assert abs(rec.mu - problem.mu) < 1e-7, (label, nv, rec)


def test_criterion_5_unit_ball_profiles():
    with criterion(5, "ball normalization lands on s_hi = 1 with R = -6"):
        problem, sol = solution_for("1.7.1")
        assert sol.s_domain == (0.0, 1.0)
        for s in np.linspace(0.01, 0.99, 99):
            s = float(s)
            assert abs(solve_g(sol, s) - s / (1.0 - s)) < 1e-10
        v = verify_solution(sol, 200)
        assert v.max_curvature_residual < 1e-5

        for label in BALL_LABELS[1:]:
            rep = cross_check(label)
            assert rep.s_domain == (0.0, 1.0), label
            assert rep.verification.max_curvature_residual < 1e-5, label


def test_criterion_6_finite_extension_detected_by_shooting():
    with criterion(6, "negative-curvature local solutions stop at finite s"):
        ode = build_ode(RadialProblem(2, -6.0, 0.0, 0.0))
        for s0, g0 in ((0.5, 0.5), (1.0, 2.0), (0.25, 1.5)):
            targets = [float(s) for s in np.geomspace(s0, 1e4, 60)]
            res = shoot_ode(ode, s0, g0, targets)
            assert res.domain_end is not None, (s0, g0)
            assert math.isfinite(res.domain_end) and res.domain_end > s0


def test_criterion_7_inequality_certification():
    with criterion(7, "both constrained forms certify negative"):
        t0 = time.perf_counter()
        _, holds_j, witness_j = certify_negative("J")
        _, holds_i, witness_i = certify_negative("I")
        assert time.perf_counter() - t0 < 10.0
        assert holds_j and holds_i
        for w in (witness_j, witness_i):
            assert w.objective < 0.0
            assert w.constraint_residuals == (0.0,)

        # boundary data where each form degenerates to zero
        s21 = math.sqrt(21.0)
        assert J_value(0.0, 0.0, 0.0, 0.0) == 0.0
        assert abs(J_value((1.0 - s21) / 8.0, 0.25, 0.5, (1.0 + s21) / 8.0)) < 1e-12
        assert I_value(0.0, 0.0, 0.0) == 0.0
        assert abs(I_value(-1.0 / 6.0, 0.5, 5.0 / 6.0)) < 1e-12


def test_criterion_8_property_suite():
    with criterion(8, "module property invariants"):
        # planted-root recovery and reconstruction for 1e3 random products
        rng = np.random.default_rng(11)
        grid = np.arange(-3.0, 3.01, 0.25)
        for _ in range(1000):
            deg_budget = int(rng.integers(1, 7))
            reals = []
            quads = []
            while deg_budget > 0:
                if deg_budget >= 2 and rng.random() < 0.25:
                    b = float(rng.uniform(-2.0, 2.0))
                    g = float(rng.uniform(0.4, 2.0))
                    quads.append((b, g, 1))
                    deg_budget -= 2
                else:
                    m = int(rng.integers(1, min(3, deg_budget) + 1))
                    taken = {r for r, _ in reals}
                    choices = [v for v in grid if all(abs(v - t) > 0.1 for t in taken)]
                    reals.append((float(rng.choice(choices)), m))
                    deg_budget -= m
            lead = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
            p = Poly.from_factors(reals, quads, leading=lead)
            prof = real_root_profile(p)
            want = sorted(reals)
            assert len(prof.real_roots) == len(want), (reals, quads)
            for (wr, wm), (gr, gm) in zip(want, prof.real_roots):
                assert gm == wm and abs(gr - wr) < 1e-8, (reals, quads)
            rec = prof.reconstruct()
            xs = np.linspace(-3.0, 3.0, 100)
            for x in xs:
                x = float(x)
                assert abs(rec(x) - p(x)) <= 1e-9 * (1.0 + abs(p(x)))

        # per-fixture identities: antiderivative slope, inversion residual,
        # reduced-equation residual, strict monotonicity
        for label, nv in FIXTURES:
            problem, sol = solution_for(label, nv)
            A, B = sol.branch.A, sol.branch.B
            top = A + 50.0 if math.isinf(B) else B
            for x in A + (top - A) * np.linspace(0.01, 0.99, 100):
                x = float(x)
                want = x ** sol.ode.k / sol.ode.H(x)
                assert abs(sol.F.derivative(x) - want) <= 1e-10 * (1.0 + abs(want))
            triples = []
            for s in s_grid(sol, 200):
                s = float(s)
                g = solve_g(sol, s)
                assert abs(eval_F(sol.F, g) - math.log(s) - sol.c) < 1e-10, (label, s)
                triples.append((s, g, sol.ode.H(g) / (s * g**sol.ode.k)))
            assert ode_residual(triples, sol.ode) < 1e-8, label
            gs = [g for _, g, _ in triples]
            assert all(a < b for a, b in zip(gs, gs[1:])), label

        # monotone inversion on 1e3 random ordered pairs
        problem, sol = solution_for("1.3.2")
        pair_rng = np.random.default_rng(5)
        for a, b in 10.0 ** pair_rng.uniform(-2.0, 2.0, (1000, 2)):
            a, b = float(min(a, b)), float(max(a, b))
            if a < b:
                assert solve_g(sol, a) < solve_g(sol, b)

        # shifting the gauge constant by delta rescales s by e^{delta}
        delta = 0.37
        g_at_1 = solve_g(sol, 1.0)
        shifted = gauge_from_anchor(
            sol.ode, sol.branch, sol.F, (math.exp(-delta), g_at_1)
        )
        assert abs(shifted.c - (sol.c + delta)) < 1e-12
        for s in np.geomspace(0.05, 20.0, 50):
            s = float(s)
            a = solve_g(shifted, s)
            b = solve_g(sol, s * math.exp(delta))
            assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

        # unitary invariance of the metric spectrum and the determinant
        # identity det = (u')^{n-1} (u' + s u'')
        for n in (2, 3, 4):
            sol = smooth_solution(n, float(n * (n + 1)), 0.5)
            ode = sol.ode
            z_rng = np.random.default_rng(100 + n)
            for _ in range(100):
                z = z_rng.normal(size=n) + 1j * z_rng.normal(size=n)
                z *= 10.0 ** z_rng.uniform(-1.0, 1.0) / np.linalg.norm(z)
                G = metric_tensor(sol, z)
                q, _ = np.linalg.qr(
                    z_rng.normal(size=(n, n)) + 1j * z_rng.normal(size=(n, n))
                )
                eigs = np.sort(np.linalg.eigvalsh(G))
                eigs_rot = np.sort(np.linalg.eigvalsh(metric_tensor(sol, q @ z)))
                assert float(np.max(np.abs(eigs - eigs_rot))) < 1e-9

                s = float(np.sum(np.abs(z) ** 2))
                g = solve_g(sol, s)
                g1 = ode.H(g) / (s * g**ode.k)
                det = float(np.real(np.linalg.det(G)))
                want = (g / s) ** (n - 1) * g1
                assert abs(det - want) <= 1e-9 * abs(det)
