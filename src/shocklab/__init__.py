"""shocklab: exact solvers for 1-D scalar conservation laws u_t + f(u)_x = 0.

The library evolves piecewise-constant data under piecewise-affine flux by
wave front tracking, cross-checks convex cases against the variational
(Hopf/Lax-Oleinik) solution, and certifies finite-time single-shock emergence
for flux/data configurations with general non-convex flux.
"""

import importlib

from .errors import ShockLabError
from .flux import (
    AnalyticFluxSpec,
    Flux,
    TripletClass,
    approximate_pw_affine,
    classify_triplet,
    eval_chord,
    eval_tangent,
    hull,
    make_flux,
)
from .riemann import Front, oleinik_condition_e, solve_riemann
from .step import StepFunction
from .tracking import SimState, advance, events, init_state
from .singleshock import (
    ConditionVerdict,
    EmergenceReport,
    HypothesisParams,
    HypothesisReport,
    VerdictKind,
    certify,
    check_hypothesis_H,
    check_main_conditions,
    compute_alpha0,
    run_until_single_front,
    speed_gap_bound,
)
from .scenario import Scenario, load_scenario, preset, run_scenario

__all__ = [
    "ShockLabError", "AnalyticFluxSpec", "Flux", "TripletClass",
    "approximate_pw_affine", "classify_triplet", "eval_chord", "eval_tangent", "hull",
    "make_flux",
    "DualFlux", "bidual", "legendre_dual", "Front",
    "oleinik_condition_e", "solve_riemann", "StepFunction", "EmergenceReport",
    "SimState", "advance", "events", "init_state", "run_until_single_front", "CharData",
    "PointValue", "solve_pointwise", "value_function", "CharCurve",
    "is_characteristic_line", "r_curve", "ConditionVerdict", "HypothesisParams",
    "HypothesisReport", "VerdictKind", "certify",
    "check_hypothesis_H", "check_main_conditions", "compute_alpha0", "speed_gap_bound",
    "Scenario", "load_scenario", "preset", "run_scenario",
]

# the variational solvers need numpy, so they load on first use (PEP 562)
_LAZY = {name: module for module, names in (
    ("legendre", "DualFlux bidual legendre_dual"),
    ("laxoleinik", "CharData PointValue solve_pointwise value_function"),
    ("characteristics", "CharCurve is_characteristic_line r_curve"),
) for name in names.split()}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return object.__getattribute__(importlib.import_module(__name__), name)   # AttributeError
