"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import lipschitz, mesh, random_convex_flux, random_flux, random_step
from shocklab.characteristics import r_curve
from shocklab.flux import make_flux
from shocklab.laxoleinik import solve_pointwise, value_function
from shocklab.legendre import bidual, dual_bruteforce, legendre_dual
from shocklab.riemann import oleinik_condition_e, solve_riemann
from shocklab.scenario import preset, random_steps, run_scenario
from shocklab.singleshock import (
    HypothesisParams,
    VerdictKind,
    certify,
    check_main_conditions,
    compute_alpha0,
    run_until_single_front,
)
from shocklab.step import constant, everywhere_leq, l1_distance, step
from shocklab.tracking import advance, init_state

SQ23 = math.sqrt(2.0 / 3.0)


@contextmanager
def criterion(n: int, budget_s: float, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL — {desc}")
        raise
    dt = time.perf_counter() - t0
    print(f"[acceptance] criterion {n}: PASS — {desc} ({dt:.2f}s)")
    assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget ({dt:.2f}s)"


def test_criterion_1_duality():
    with criterion(1, 5.0, "dual vs brute force and bidual involution, 200 fluxes"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            fl = random_convex_flux(rng, max_nodes=30)
            d = legendre_dual(fl)
            grid = np.union1d(np.linspace(d.lo, d.hi, 10_000), np.asarray(d.breakpoints))
            exact = np.array([d(float(p)) for p in grid[:: len(grid) // 200 or 1]])
            sample = grid[:: len(grid) // 200 or 1]
            brute = dual_bruteforce(fl, sample)
            assert np.max(np.abs(exact - brute)) <= 1e-9
            # full-grid check vectorized against the affine interpolation
            full = dual_bruteforce(fl, grid)
            interp = np.interp(grid, d.breakpoints, d.values)
            assert np.max(np.abs(full - interp)) <= 1e-9
            back = bidual(fl)
            assert max(abs(back(x) - fl(x)) for x in fl.breakpoints) <= 1e-9


def test_criterion_2_riemann_admissibility():
    with criterion(2, 5.0, "1000 random fans: RH exact, ordered, Oleinik E"):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            fl = random_flux(rng)
            u_l, u_r = rng.uniform(fl.lo, fl.hi, 2)
            fan = solve_riemann(fl, float(u_l), float(u_r))
            if fan:
                assert fan[0].left == u_l and fan[-1].right == u_r
            for a, b in zip(fan, fan[1:]):
                assert a.right == b.left and a.speed < b.speed
            for f in fan:
                assert f.speed == (fl(f.left) - fl(f.right)) / (f.left - f.right)
                assert oleinik_condition_e(fl, f)


def test_criterion_3_entropy_solution_invariants():
    with criterion(3, 30.0, "100 pairs: L1 contraction, comparison, TV"):
        rng = np.random.default_rng(303)
        fl = mesh("burgers", -3, 3, 0.1, corners=(0.0, 1.0))
        for _ in range(100):
            # independent pair for the contraction, ordered pair for comparison
            u0 = random_step(rng, 5, -1.0, 1.0)
            w0 = random_step(rng, 4, -1.0, 1.0)
            bumps = rng.uniform(0.0, 0.7, len(u0.values))
            v0 = step([v + b for v, b in zip(u0.values, bumps)], u0.positions)
            su, sv, sw = init_state(fl, u0), init_state(fl, v0), init_state(fl, w0)
            m = lipschitz(fl, min(u0.lo, w0.lo, v0.lo), max(u0.hi, w0.hi, v0.hi))
            tv_u, tv_v, tv_w = u0.tv_exact(), v0.tv_exact(), w0.tv_exact()
            for t in (0.4, 1.2, 3.0):
                ut, vt, wt = advance(su, t), advance(sv, t), advance(sw, t)
                a, b = -4.0, 4.0
                assert l1_distance(ut, wt, a, b) <= l1_distance(u0, w0, a - m * t, b + m * t) + 1e-9
                assert l1_distance(ut, vt, a, b) <= l1_distance(u0, v0, a - m * t, b + m * t) + 1e-9
                assert everywhere_leq(ut, vt)
                assert ut.tv_exact() <= tv_u
                assert vt.tv_exact() <= tv_v
                assert wt.tv_exact() <= tv_w


def test_criterion_4_cross_solver():
    with criterion(4, 60.0, "front tracking vs variational solver, L1 <= 1e-6"):
        rng = np.random.default_rng(404)
        for _ in range(50):
            fl = random_convex_flux(rng, max_nodes=12)
            pad = 0.15 * (fl.hi - fl.lo)
            u0 = random_step(rng, 4, fl.lo + pad, fl.hi - pad)
            state = init_state(fl, u0)
            for t in (0.5, 1.0, 3.0):
                prof = advance(state, t)
                grid = sorted(
                    set(np.linspace(-10.0, 10.0, 201))
                    | {x for x in prof.positions if -10.0 < x < 10.0}
                )
                err = 0.0
                for a, b in zip(grid, grid[1:]):
                    mid = 0.5 * (a + b)
                    err += (b - a) * abs(prof(mid) - solve_pointwise(fl, u0, mid, t).value)
                assert err <= 1e-6


def test_criterion_5_flux_approximation_convergence():
    with criterion(5, 60.0, "mesh refinement: L1 error halves with h"):
        data = step([-1.0, 1.0, 0.0], [0.0, 1.5])
        times = (0.5, 1.0, 1.5, 2.0)
        ref = mesh("burgers", -3, 3, 0.0125, corners=(0.0, 1.0, 1.5))
        sref = init_state(ref, data)
        profs_ref = {t: advance(sref, t) for t in times}
        errs = {}
        for h in (0.2, 0.1, 0.05):
            fl = mesh("burgers", -3, 3, h, corners=(0.0, 1.0, 1.5))
            s = init_state(fl, data)
            errs[h] = sum(
                l1_distance(advance(s, t), profs_ref[t], -6.0, 6.0) * 0.5 for t in times
            )
        assert 0.3 <= errs[0.1] / errs[0.2] <= 0.7
        assert 0.3 <= errs[0.05] / errs[0.1] <= 0.7
        # single fitted constant: error(h) <= C h with C from the coarsest level
        c_fit = errs[0.2] / 0.2
        for h, e in errs.items():
            assert e <= c_fit * h * 1.05


def test_criterion_6_classic_two_state_collapse():
    with criterion(6, 30.0, "decreasing two-state data: 20 seeds collapse at speed 1/2, T0 scales"):
        fl = mesh("burgers", -3, 3, 0.05, corners=(0.0, 1.0))
        hp = HypothesisParams(0.0, 0.0, 0.25, 0.75, 1.0, 1.0)
        assert check_main_conditions(fl, hp).kind is VerdictKind.SATISFIED_I
        gammas = []
        for seed in range(20):
            ubar = random_steps(8, -0.5, 1.5, seed, 0.0, 1.0)
            u0 = step([1.0, *ubar.values, 0.0], [0.0, *ubar.positions, 1.0])
            s = init_state(fl, u0)
            rep = run_until_single_front(s, (1.0, 1.0), (0.0, 0.0), 60.0)
            assert rep.emerged
            assert rep.final_speed == 0.5
            gammas.append(rep.t0 / 1.0)
        assert max(gammas) < math.inf
        # self-similar rescaling of a fixed configuration
        base = step([1.0, 0.8, -0.3, 0.4, 0.0], [0.0, 0.25, 0.6, 1.0])
        t_ref = run_until_single_front(init_state(fl, base), (1.0, 1.0), (0.0, 0.0), 200.0).t0
        for lam in (0.5, 2.0, 5.0):
            scaled = step(base.values, [lam * x for x in base.positions])
            rep = run_until_single_front(
                init_state(fl, scaled), (1.0, 1.0), (0.0, 0.0), 200.0 * lam
            )
            assert rep.t0 == pytest.approx(lam * t_ref, rel=1e-6)


def test_criterion_7_convex_convex_instance():
    with criterion(7, 60.0, "double-well condition I: 10 seeds emerge, ranges split"):
        fl = mesh(
            "double_well", -3.2, 3.2, 0.05,
            corners=(-2.6, -2.5, -2.4, -SQ23, 0.0, SQ23, 2.4, 2.5, 2.6),
        )
        hp = HypothesisParams(-2.6, -2.5, -SQ23, SQ23, 2.5, 2.6)
        verdict = check_main_conditions(fl, hp)
        assert verdict.kind is VerdictKind.SATISFIED_I
        for seed in range(10):
            ubar = random_steps(6, -1.5, 1.5, 700 + seed, 0.0, 1.0)
            rep = certify(
                fl, hp, 0.0, 1.0, constant(2.5), ubar, constant(-2.5),
                t_max=60.0, verdict=verdict,
            )
            assert rep.emerged
            assert rep.t0 <= 60.0
            # replay: separation holds at every post-T0 event
            u0 = step([2.5, *ubar.values, -2.5], [0.0, *ubar.positions, 1.0])
            s = init_state(fl, u0)
            times = []
            while True:
                head = s._peek()
                if head is None or head[0] > 60.0:
                    break
                s._process(*head)
                times.append(s.t)
                if s.t >= rep.t0:
                    from shocklab.singleshock import _separating_front

                    assert _separating_front(s, (2.5, 2.6), (-2.6, -2.5)) is not None


def test_criterion_8_convex_concave_instance():
    with criterion(8, 60.0, "neg-cubic condition II.1: margin, emergence, alpha0"):
        h = 0.05
        fl = mesh("neg_cubic", -3, 3, h, corners=(-1.5, -1.0, -0.5, 0.0, 2.0, 2.5))
        hp = HypothesisParams(-0.5, -0.5, 0.0, 0.0, 2.0, 2.0)
        verdict = check_main_conditions(fl, hp)
        assert verdict.kind is VerdictKind.SATISFIED_II1
        from shocklab.flux import eval_tangent

        margin = eval_tangent(fl, -0.5, 2.0) - fl(2.0)
        assert margin == pytest.approx(6.25, abs=20 * h)
        for seed in range(10):
            ubar = random_steps(6, -1.5, 2.5, 800 + seed, 0.0, 1.0)
            rep = certify(
                fl, hp, 0.0, 1.0, constant(-0.5), ubar, constant(2.0),
                t_max=50.0, verdict=verdict,
            )
            assert rep.emerged
        a0 = compute_alpha0(fl, 2.0, hi=0.0)
        assert abs(a0 - (-1.0)) <= 5 * h


def test_criterion_9_counterexample_sharpness(tmp_path):
    with criterion(9, 10.0, "both counterexamples: frozen / gap-preserving, rejected"):
        # counterexample 1: stationary two-shock profile, zero events
        s1 = preset("counterexample_1")
        rep1 = run_scenario(s1, tmp_path / "c1")
        assert rep1["events"] == 0
        base = (tmp_path / "c1/counterexample_1_profile_t0.csv").read_text()
        for t in (25, 50, 100):
            assert (tmp_path / f"c1/counterexample_1_profile_t{t}.csv").read_text() == base
        v1 = check_main_conditions(s1.flux, s1.hypothesis)
        assert v1.kind is VerdictKind.VIOLATED
        assert any(w.theta == 0.0 and w.at_boundary for w in v1.witnesses)

        # counterexample 2: persistent fan plus contact, gap B - A forever
        s2 = preset("counterexample_2")
        u0 = s2.initial_data()
        st = init_state(s2.flux, u0)
        rep2 = run_until_single_front(st, (-1.5, -1.5), (2.0, 2.0), 100.0)
        assert not rep2.emerged
        for t in (25.0, 50.0, 75.0, 100.0):
            snap = st.front_snapshot(t)
            fan_edge = [x for x, _, _, r in snap if r == -1.0]
            contact = [x for x, _, l, _ in snap if l == -1.0]
            assert len(fan_edge) == 1 and len(contact) == 1
            assert contact[0] - fan_edge[0] == pytest.approx(1.0, abs=1e-9)
        v2 = check_main_conditions(s2.flux, s2.hypothesis)
        assert v2.kind is VerdictKind.VIOLATED
        assert any(
            w.condition == "tangent-a1-at-b2" and w.at_boundary for w in v2.witnesses
        )


def test_criterion_10_r_curves():
    with criterion(10, 30.0, "R curves: shock/fan values, monotonicity, semigroup"):
        v_flux = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])
        burgers = mesh("burgers", -3, 3, 0.05, corners=(0.0, 1.0))
        shock = step([1.0, 0.0], [0.0])
        fan = step([-1.0, 1.0], [0.0])
        ts = [0.5, 1.0, 2.0]
        for t, x in r_curve(v_flux, fan, 0.0, "minus", ts):
            assert x == pytest.approx(-t, abs=1e-8)
        for t, x in r_curve(v_flux, fan, 0.0, "plus", ts):
            assert x == pytest.approx(t, abs=1e-8)
        for side in ("plus", "minus"):
            for t, x in r_curve(burgers, shock, 0.0, side, ts):
                assert x == pytest.approx(0.5 * t, abs=1e-8)

        rng = np.random.default_rng(1010)
        u0 = random_step(rng, 5, -1.0, 1.0)
        xs = np.sort(rng.uniform(-4, 4, 50))
        feet = [value_function(burgers, u0, float(x), 1.0) for x in xs]
        for a, b in zip(feet, feet[1:]):
            assert a.y_plus <= b.y_plus + 1e-12
            assert a.y_minus <= b.y_minus + 1e-12
        alphas = np.linspace(-1.2, 1.2, 50)
        for side in ("plus", "minus"):
            rs = [r_curve(burgers, u0, float(a), side, [1.0]).positions[0] for a in alphas]
            for a, b in zip(rs, rs[1:]):
                assert a <= b + 2e-8

        s, t = 0.7, 2.0
        eps_x = 1e-10 * (1.0 + 1.2 + 3.0 * t)
        for side in ("plus", "minus"):
            for alpha in (-0.4, 0.3):
                direct = r_curve(burgers, u0, alpha, side, [t]).positions[0]
                anchor = r_curve(burgers, u0, alpha, side, [s]).positions[0]
                mid = advance(init_state(burgers, u0), s)
                rean = r_curve(burgers, mid, anchor, side, [t - s]).positions[0]
                assert abs(rean - direct) <= 2 * eps_x + 1e-8
