import json
import math

import pytest

from conftest import mesh, refused
from shocklab import errors
from shocklab.cli import main as cli_main
from shocklab.scenario import _counterexample_2_flux, emit_scenario, preset, random_steps
from shocklab.singleshock import (
    HypothesisParams,
    VerdictKind,
    certify,
    check_hypothesis_H,
    check_main_conditions,
    compute_alpha0,
    speed_gap_bound,
)
from shocklab.step import constant, step as step_fn
from shocklab.flux import make_flux

V_FLUX = make_flux([-2, -1, 0, 1, 2], [4, 1, 0, 1, 4])
SQ23 = math.sqrt(2.0 / 3.0)


def burgers(h=0.05):
    return mesh("burgers", -3, 3, h, corners=(0.0, 1.0))


def neg_cubic(h=0.05):
    return mesh("neg_cubic", -3, 3, h, corners=(-1.5, -1.0, -0.5, 0.0, 2.0, 2.5))


def double_well(h=0.05):
    return mesh("double_well", -3.2, 3.2, h,
                corners=(-2.6, -2.5, -2.4, -2.0, -SQ23, 0.0, SQ23, 2.0, 2.4, 2.5, 2.6))


def test_hypothesis_burgers_passes():
    hp = HypothesisParams(-1.0, -1.0, 0.0, 0.0, 1.0, 1.0)
    rep = check_hypothesis_H(mesh("burgers", -3, 3, 0.05, corners=(-1.0, 0.0, 1.0)), hp)
    assert rep.passed, rep.failures


def test_hypothesis_neg_cubic_passes():
    hp = HypothesisParams(-0.5, -0.5, 0.0, 0.0, 2.0, 2.0)
    rep = check_hypothesis_H(neg_cubic(), hp)
    assert rep.passed, rep.failures


def test_hypothesis_ordering_failure_surfaces_as_violation():
    fl = mesh("burgers", -3, 3, 0.05, corners=(-1.0, 0.0, 1.0))
    hp = HypothesisParams(-1.0, 0.0, 0.0, 0.0, 1.0, 1.0)  # a2 == C
    rep = check_hypothesis_H(fl, hp)
    assert not rep.passed
    assert any(w.condition.startswith("width") for w in rep.failures)
    verdict = check_main_conditions(fl, hp)
    assert verdict.kind is VerdictKind.VIOLATED


def test_hypothesis_requires_triplet():
    fl = double_well()
    with refused("hypothesis"):
        check_hypothesis_H(fl, HypothesisParams(-3.0, -3.0, -0.1, 0.1, 3.0, 3.0))


def test_conditions_burgers_satisfied_i():
    fl = mesh("burgers", -3, 3, 0.05, corners=(-1.0, 0.0, 1.0))
    verdict = check_main_conditions(fl, HypothesisParams(-1.0, -1.0, 0.0, 0.0, 1.0, 1.0))
    assert verdict.kind is VerdictKind.SATISFIED_I


def test_conditions_neg_cubic_satisfied_ii1():
    verdict = check_main_conditions(
        neg_cubic(), HypothesisParams(-0.5, -0.5, 0.0, 0.0, 2.0, 2.0)
    )
    assert verdict.kind is VerdictKind.SATISFIED_II1


def test_conditions_neg_cubic_tangency_violated():
    # tangent from -1 meets the graph exactly at 2 for the smooth flux; on the
    # plain mesh the clearance degrades to an O(h) violation
    verdict = check_main_conditions(
        neg_cubic(), HypothesisParams(-1.0, -1.0, 0.0, 0.0, 2.0, 2.0)
    )
    assert verdict.kind is VerdictKind.VIOLATED
    tang = [w for w in verdict.witnesses if w.condition == "tangent-a1-at-b2"]
    assert tang and tang[0].lhs == pytest.approx(-8.0, abs=0.5)


def test_conditions_double_well_counterexample_boundary():
    fl = double_well()
    verdict = check_main_conditions(
        fl, HypothesisParams(-2.0, -2.0, -SQ23, SQ23, 2.0, 2.0)
    )
    assert verdict.kind is VerdictKind.VIOLATED
    at_zero = [w for w in verdict.witnesses if w.theta == 0.0]
    assert at_zero and all(w.at_boundary for w in at_zero)


def test_conditions_double_well_satisfied_i():
    verdict = check_main_conditions(
        double_well(), HypothesisParams(-2.6, -2.5, -SQ23, SQ23, 2.5, 2.6)
    )
    assert verdict.kind is VerdictKind.SATISFIED_I


def test_counterexample_2_boundary_witness():
    fl = _counterexample_2_flux()
    verdict = check_main_conditions(
        fl, HypothesisParams(-0.9, -0.9, 0.0, 0.0, 2.0, 2.0)
    )
    assert verdict.kind is VerdictKind.VIOLATED
    tang = [w for w in verdict.witnesses if w.condition == "tangent-a1-at-b2"]
    assert tang and tang[0].at_boundary


def test_conditions_neg_cubic_satisfied_ii2():
    # decreasing data across the inflection: f below all three chords plus the
    # mirrored tangent clearance L_{b1}(a2) < f(a2)
    fl = mesh("neg_cubic", -3, 3, 0.05, corners=(-2.0, 0.0, 0.9))
    hp = HypothesisParams(-2.0, -2.0, 0.0, 0.0, 0.9, 0.9)
    verdict = check_main_conditions(fl, hp)
    assert verdict.kind is VerdictKind.SATISFIED_II2


def test_certify_neg_cubic_ii2():
    fl = mesh("neg_cubic", -3, 3, 0.05, corners=(-2.0, 0.0, 0.9))
    hp = HypothesisParams(-2.0, -2.0, 0.0, 0.0, 0.9, 0.9)
    ubar = random_steps(5, -2.0, 0.9, 7, 0.0, 1.0)
    rep = certify(fl, hp, 0.0, 1.0, constant(0.9), ubar, constant(-2.0), t_max=60.0)
    assert rep.emerged
    assert rep.final_speed == pytest.approx((fl(0.9) - fl(-2.0)) / 2.9, abs=1e-12)


def test_alpha0_neg_cubic():
    fl = mesh("neg_cubic", -3, 3, 0.01, corners=(0.0, 2.0))
    a0 = compute_alpha0(fl, 2.0, hi=0.0)
    assert a0 == pytest.approx(-1.0, abs=5 * 0.01)


def test_alpha0_neg_cubic_wide():
    fl = mesh("neg_cubic", -4, 5, 0.01, corners=(0.0, 4.0))
    a0 = compute_alpha0(fl, 4.0, hi=0.0)
    assert a0 == pytest.approx(-2.0, abs=5 * 0.01)


def test_alpha0_exact_on_degenerate_lattice():
    fl = _counterexample_2_flux()
    a0 = compute_alpha0(fl, 2.0, hi=0.0)
    assert a0 == pytest.approx(-1.0, abs=0.1)
    # residual of the tangent equation at the returned point
    res = fl(a0) + fl.left_slope(a0) * (2.0 - a0) - fl(2.0)
    assert abs(res) <= 1e-8 * 9.0


def test_alpha0_no_root_for_convex():
    with refused("beta2"):
        compute_alpha0(burgers(), 1.0, hi=0.0)


def test_t0_bound_burgers_unbounded():
    fl = burgers()
    hp = HypothesisParams(0.0, 0.0, 0.25, 0.75, 1.0, 1.0)
    assert speed_gap_bound(fl, (hp.b2, hp.b1), (hp.a1, hp.a2), (0.0, 1.0), 0.0, 1.0) is None


def test_t0_bound_v_flux_unbounded():
    assert speed_gap_bound(V_FLUX, (1.0, 1.0), (-1.0, -1.0), (-1.0, 1.0), 0.0, 1.0) is None


def test_no_chord_no_bound():
    # every left state equals every mid state: no left chord exists
    assert speed_gap_bound(neg_cubic(), (-0.5, -0.5), (2.0, 2.0), (-0.5, -0.5), 0.0, 1.0) is None


@pytest.mark.parametrize("cmd", ["certify", "solve"])
def test_cli_middle_equal_to_left_state(tmp_path, capsys, cmd):
    raw = emit_scenario(preset("neg_cubic_ii1"))
    raw["data"]["ubar"] = -0.5
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli_main([cmd, "--scenario", str(path), "--out", str(out)]) == 0
    if cmd == "certify":
        report = json.loads(capsys.readouterr().out)
    else:
        report = json.loads((out / "neg_cubic_ii1_report.json").read_text())
    assert report["T0"] == 0.0 and report["T_tilde"] is None


def test_t0_bound_neg_cubic_finite():
    fl = neg_cubic()
    t_tilde = speed_gap_bound(fl, (-1.0, -0.5), (2.0, 2.0), (-1.0, -0.5), 0.0, 1.0)
    assert t_tilde is not None
    # m0 from the adjacent lattice chord at -1, xi1 = -3 from the tangency
    h = 0.05
    m0 = -(1.0 + (1 - h) + (1 - h) ** 2)
    assert t_tilde == pytest.approx(1.0 / (m0 + 3.0), rel=1e-9)


def test_certify_gates_on_violation():
    fl = double_well()
    hp = HypothesisParams(-2.0, -2.0, -SQ23, SQ23, 2.0, 2.0)
    with refused("hypothesis"):
        certify(fl, hp, 0.0, 1.0, constant(2.0), constant(0.0), constant(-2.0), t_max=100.0)


def test_certify_burgers_decreasing_pair():
    fl = mesh("burgers", -3, 3, 0.05, corners=(0.0, 1.0))
    hp = HypothesisParams(0.0, 0.0, 0.25, 0.75, 1.0, 1.0)
    ubar = random_steps(8, 0.0, 1.0, 99, 0.0, 1.0)
    rep = certify(fl, hp, 0.0, 1.0, constant(1.0), ubar, constant(0.0), t_max=60.0)
    assert rep.emerged
    assert rep.final_speed == 0.5
    assert rep.gamma == rep.t0
    assert rep.t_tilde is None


def test_certify_neg_cubic_ii1_with_bound():
    fl = neg_cubic()
    hp = HypothesisParams(-0.5, -0.5, 0.0, 0.0, 2.0, 2.0)
    ubar = random_steps(6, -1.0, -0.5, 4, 0.0, 1.0)
    rep = certify(fl, hp, 0.0, 1.0, constant(-0.5), ubar, constant(2.0), t_max=50.0)
    assert rep.emerged
    assert rep.t_tilde is not None
    assert rep.t0 <= rep.t_tilde + 1e-9


def test_certify_validates_data_ranges():
    fl = mesh("burgers", -3, 3, 0.05, corners=(0.0, 1.0))
    hp = HypothesisParams(0.0, 0.0, 0.25, 0.75, 1.0, 1.0)
    # satisfied I: u_minus in [b2, b1] = [1, 1], u_plus in [a1, a2] = [0, 0]
    with refused("u_minus"):
        certify(fl, hp, 0.0, 1.0, constant(0.5), constant(0.2), constant(0.0), t_max=100.0)
    with refused("u_plus"):
        certify(fl, hp, 0.0, 1.0, constant(1.0), constant(0.2), constant(0.5), t_max=100.0)


def test_hypothesis_params_need_the_band_order():
    with refused("hypothesis"):
        HypothesisParams(0.0, 0.5, 0.25, 0.75, 1.0, 1.0)   # a2 > C


def test_gamma_stability_across_data(rng):
    fl = mesh("burgers", -3, 3, 0.1, corners=(0.0, 1.0))
    hp = HypothesisParams(0.0, 0.0, 0.25, 0.75, 1.0, 1.0)
    gammas = []
    for seed in range(8):
        ubar = random_steps(6, -0.5, 1.5, seed, 0.0, 1.0)
        rep = certify(fl, hp, 0.0, 1.0, constant(1.0), ubar, constant(0.0), t_max=80.0)
        assert rep.emerged
        gammas.append(rep.gamma)
    assert max(gammas) < math.inf


def test_preset_counterexamples_not_emerged():
    for name in ("counterexample_1", "counterexample_2"):
        s = preset(name)
        verdict = check_main_conditions(s.flux, s.hypothesis)
        assert verdict.kind is VerdictKind.VIOLATED


def test_hypothesis_fails_on_slope_plateau():
    # an affine run just right of a2 keeps the slope band occupied outside
    # [a1, a2], so the preimage identity must fail there
    fl = make_flux(
        [-3.0, -1.0, -0.6, -0.2, 0.0, 1.0, 2.0],
        [4.5, 0.5, 0.1, 0.5, 0.7, 1.8, 4.0],
    )
    # slopes: -2, -1, 1, 1, 1.1, 2.2 -> plateau of slope 1 on [-0.6, 0.0]
    hp = HypothesisParams(-1.0, -0.2, 0.1, 0.1, 1.0, 2.0)
    rep = check_hypothesis_H(fl, hp)
    assert not rep.passed
    assert any(w.condition == "slope-preimage-left" for w in rep.failures)


def test_certify_with_step_valued_tails():
    # u- and u+ are genuine functions with values inside their bands; fronts
    # internal to each family keep arriving at the separator after T0
    fl = double_well()
    hp = HypothesisParams(-2.6, -2.5, -SQ23, SQ23, 2.5, 2.6)
    u_minus = step_fn([2.6, 2.5, 2.6], [-2.0, -1.0])
    u_plus = step_fn([-2.5, -2.6], [3.0])
    ubar = random_steps(5, -1.0, 1.0, 3, 0.0, 1.0)
    rep = certify(fl, hp, 0.0, 1.0, u_minus, ubar, u_plus, t_max=80.0)
    assert rep.emerged
    assert rep.t0 <= 80.0
    # post-collapse interface separates the two bands, orientation I
    assert rep.left_range == (2.5, 2.6)
    assert rep.right_range == (-2.6, -2.5)
