"""The streaming log writer of ``run_scenario`` against the encoders it replaces.

``scenario._write_logs`` formats each event record directly, each repeated
number once, and numbers the front table's rows as it writes them.  Its
bytes must equal one ``json.dumps(rec.to_json(), sort_keys=True)`` line per
record, and the table of every front in birth order (the initial chain,
then each record's born fronts) with its end time, on random problems with
convex and non-convex flux, live fronts or none, and signed zeros among the
states.
"""

import json
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import mesh, random_problem
from shocklab import scenario
from shocklab.errors import ShockLabError, ValidationError
from shocklab.scenario import _write_logs
from shocklab.step import step
from shocklab.tracking import EventRecord, _LiveFront, advance, init_state


def oracle_logs(state) -> tuple[str, str]:
    """The event log and the front table, as written before the streaming writer."""
    events = "".join(json.dumps(rec.to_json(), sort_keys=True) + "\n" for rec in state.event_log)
    table = ["front_id,t,x\n"]
    # fronts in birth order: the initial chain, then each record's born ones
    born = state.initial + [f for rec in state.event_log for f in rec.outgoing]
    # each ends once: dead at the time of the record listing it, or live at state.t
    dead = {id(f): rec.t for rec in state.event_log for f in rec.incoming}
    live = {id(f) for f in state.fronts}
    assert len(born) == len(dead) + len(live) and not dead.keys() & live
    for i, f in enumerate(born):
        t_end = dead.get(id(f), state.t)
        table.append(f"{i},{f.t0!r},{f.x0!r}\n")
        table.append(f"{i},{t_end!r},{f.pos(t_end)!r}\n")
    return events, "".join(table)


def written_logs(state, out) -> tuple[str, str]:
    _write_logs(state, out, "case")
    return (out / "case_events.ndjson").read_text(), (out / "case_fronts.csv").read_text()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow,
          HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 0.3, 2.0, 50.0]))
@example(47777, False, 50.0)  # flux nodes span only 0.0145
def test_writer_matches_json_dumps_and_sorted_table(tmp_path, seed, convex, t_end):
    fl, u0 = random_problem(seed, convex)
    state = init_state(fl, u0)
    advance(state, t_end)
    assert written_logs(state, tmp_path) == oracle_logs(state)


def test_writer_keeps_the_sign_of_zero(tmp_path):
    # 0.0 == -0.0, so a cache keyed by states would print one sign for
    # fronts that differ only in a zero's sign
    fl = mesh("burgers", -3, 3, 0.25)
    u0 = step([1.0, -0.0, 1.0, 0.0, 0.5, -0.0, 0.5, 0.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    state = init_state(fl, u0)
    advance(state, 20.0)
    events, table = oracle_logs(state)
    for zero in ('"r": -0.0', '"r": 0.0', '"l": -0.0', '"l": 0.0'):
        assert zero in events, zero
    assert written_logs(state, tmp_path) == (events, table)


@pytest.mark.parametrize("seed", [4, 5, 7])
def test_writer_formats_each_repeated_number_once(tmp_path, monkeypatch, seed):
    fl, u0 = random_problem(seed, convex=False)
    state = init_state(fl, u0)
    advance(state, 50.0)
    formatted = Counter()
    num = scenario._num
    monkeypatch.setattr(scenario, "_num", lambda v: formatted.update([v]) or num(v))
    assert written_logs(state, tmp_path) == oracle_logs(state)
    fronts = [f for rec in state.event_log for f in rec.incoming + rec.outgoing]
    printed = [v for f in fronts for v in (f.left, f.right, f.speed)]
    printed += [rec.t for rec in state.event_log]
    repeated = [v for v, k in Counter(printed).items() if v and k > 1]
    assert len(state.event_log) > 5 and repeated
    assert {formatted[v] for v in printed if v} == {1}


def test_writer_on_a_state_without_events(tmp_path):
    state = init_state(mesh("burgers", -3, 3, 0.25), step([0.0, 1.0], [0.0]))
    advance(state, 5.0)   # a rarefaction: its fronts never meet
    assert not state.event_log and state.fronts
    assert written_logs(state, tmp_path) == oracle_logs(state)


@pytest.mark.parametrize("field", ["t", "x", "left", "right", "speed"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_writer_refuses_non_finite_numbers(tmp_path, field, bad):
    # json.dumps would write Infinity or NaN, which are not JSON
    state = init_state(mesh("burgers", -3, 3, 0.25), step([1.0, 0.0], [0.0]))
    front = dict(speed=0.5, left=1.0, right=0.0)
    rec = dict(t=1.0, x=0.5)
    if field in rec:
        rec[field] = bad
    else:
        front[field] = bad
    dead = _LiveFront(0.0, 0.0, front["speed"], front["left"], front["right"])
    state.event_log.append(EventRecord(rec["t"], rec["x"], (dead,), ()))
    with pytest.raises(ValidationError) as err:
        _write_logs(state, tmp_path, "case")
    assert isinstance(err.value, ShockLabError)   # the CLI's exit 2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_writer_refuses_non_finite_table_numbers(tmp_path, bad):
    # the front table is CSV, but its numbers are checked as the log's are
    state = init_state(mesh("burgers", -3, 3, 0.25), step([1.0, 0.0], [0.0]))
    state.initial[0].x0 = bad
    with pytest.raises(ValidationError):
        _write_logs(state, tmp_path, "case")
