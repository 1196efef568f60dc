"""shocklab: exact solvers for 1-D scalar conservation laws u_t + f(u)_x = 0.

The library evolves piecewise-constant data under piecewise-affine flux by
wave front tracking, cross-checks convex cases against the variational
(Hopf/Lax-Oleinik) solution, and certifies finite-time single-shock emergence
for flux/data configurations with general non-convex flux.
"""

from .errors import ShockLabError
from .flux import (
    AnalyticFluxSpec,
    Flux,
    TripletClass,
    TripletKind,
    approximate_pw_affine,
    chord_slope_check,
    classify_triplet,
    convex_modify,
    convex_modify_onesided,
    eval_chord,
    eval_tangent,
    hull,
    make_flux,
)
from .legendre import DualFlux, bidual, legendre_dual
from .riemann import Front, WaveFan, front_speed, oleinik_condition_e, solve_riemann
from .step import StepFunction
from .tracking import EmergenceReport, SimState, advance, events, init_state, run_until_single_front
from .laxoleinik import CharData, PointValue, solve_pointwise, value_function
from .characteristics import CharCurve, is_characteristic_line, r_curve
from .singleshock import (
    ConditionVerdict,
    HypothesisParams,
    HypothesisReport,
    VerdictKind,
    analytic_T0_bound,
    certify,
    check_hypothesis_H,
    check_main_conditions,
    compute_alpha0,
    speed_gap_bound,
)
from .scenario import Scenario, load_scenario, preset, run_scenario

__all__ = [
    "ShockLabError", "AnalyticFluxSpec", "Flux", "TripletClass", "TripletKind",
    "approximate_pw_affine", "chord_slope_check", "classify_triplet", "convex_modify",
    "convex_modify_onesided", "eval_chord", "eval_tangent", "hull", "make_flux",
    "DualFlux", "bidual", "legendre_dual", "Front", "WaveFan", "front_speed",
    "oleinik_condition_e", "solve_riemann", "StepFunction", "EmergenceReport",
    "SimState", "advance", "events", "init_state", "run_until_single_front", "CharData",
    "PointValue", "solve_pointwise", "value_function", "CharCurve",
    "is_characteristic_line", "r_curve", "ConditionVerdict", "HypothesisParams",
    "HypothesisReport", "VerdictKind", "analytic_T0_bound", "certify",
    "check_hypothesis_H", "check_main_conditions", "compute_alpha0", "speed_gap_bound",
    "Scenario", "load_scenario", "preset", "run_scenario",
]
