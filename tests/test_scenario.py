import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridgame import netform, neural, scenario
from gridgame.levelk import QPolicy, TrainConfig, evaluate, train_level
from gridgame.neural import NetworkSpec, init
from gridgame.scenario import (ACTION_DOWN, ACTION_HOLD, ACTION_UP, ATTACKER,
                               ATTACKER_ACTIONS, DEFENDER, DEFENDER_ACTIONS,
                               AttackerMemory, DefenderMemory, GridParams,
                               NativeBattle, apply_defender_action, as_netform,
                               attacker_levels, attacker_observation,
                               defender_observation,
                               defender_reward, attacker_reward,
                               encode_attacker_features,
                               encode_defender_features,
                               initial_attacker_memory, initial_defender_memory,
                               initial_state, level0_attacker, level0_defender,
                               level0_policies, power_flow, simulate,
                               transition)
from oracles import (attacker_memory_metric, defender_memory_metric,
                     defender_move_domain, norm_action, norm_flow,
                     norm_voltage, scan_level0_attacker)

P = GridParams(q3_max=0.7)

finite_reals = st.floats(min_value=-3, max_value=3, allow_nan=False)


# ---------------------------------------------------------------------------
# power flow
# ---------------------------------------------------------------------------

def test_power_flow_no_injections():
    flow = power_flow(0.0, 0.0, 0.0, 0.0, 1.0, P)
    assert flow[5:] == (0.0, 0.0, 0.0, 0.0, 1.0, 1.0)


def test_power_flow_worked_example_one():
    flow = power_flow(1.4, 0.7, 1.0, 0.0, 1.0, P)
    assert flow.P2 == pytest.approx(-1.0, abs=1e-12)
    assert flow.Q2 == pytest.approx(0.0, abs=1e-12)
    assert flow.P1 == pytest.approx(0.4, abs=1e-12)
    assert flow.Q1 == pytest.approx(0.7, abs=1e-12)
    assert flow.V2 == pytest.approx(0.967, abs=1e-12)
    assert flow.V3 == pytest.approx(0.997, abs=1e-12)


def test_power_flow_worked_example_two():
    flow = power_flow(1.5, 0.75, 1.0, 1.0, 1.02, P)
    assert flow.P2 == pytest.approx(-1.0, abs=1e-12)
    assert flow.Q2 == pytest.approx(-1.0, abs=1e-12)
    assert flow.P1 == pytest.approx(0.5, abs=1e-12)
    assert flow.Q1 == pytest.approx(-0.25, abs=1e-12)
    assert flow.V2 == pytest.approx(1.0125, abs=1e-12)
    assert flow.V3 == pytest.approx(1.0725, abs=1e-12)


@given(p2=finite_reals, q2=finite_reals, p3=finite_reals, q3=finite_reals,
       v1=st.floats(min_value=0.9, max_value=1.1))
@settings(max_examples=200, deadline=None)
def test_power_flow_recomputation_consistency(p2, q2, p3, q3, v1):
    flow = power_flow(p2, q2, p3, q3, v1, P)
    assert flow.P2 == -p3
    assert flow.Q2 == -q3
    assert flow.P1 == flow.P2 + p2
    assert flow.Q1 == flow.Q2 + q2
    assert flow.V2 == v1 - (P.r1 * flow.P1 + P.x1 * flow.Q1)
    assert flow.V3 == flow.V2 - (P.r2 * flow.P2 + P.x2 * flow.Q2)


@given(q3=finite_reals, delta=st.floats(min_value=-1, max_value=1))
@settings(max_examples=100, deadline=None)
def test_reactive_sensitivity_identities(q3, delta):
    base = power_flow(1.4, 0.7, 1.0, q3, 1.0, P)
    bumped = power_flow(1.4, 0.7, 1.0, q3 + delta, 1.0, P)
    assert bumped.V2 - base.V2 == pytest.approx(P.x1 * delta, abs=1e-12)
    assert bumped.V3 - base.V3 == pytest.approx((P.x1 + P.x2) * delta, abs=1e-12)


@given(v1=st.floats(min_value=0.9, max_value=1.1),
       shift=st.floats(min_value=-0.1, max_value=0.1))
@settings(max_examples=100, deadline=None)
def test_voltage_shift_identity(v1, shift):
    base = power_flow(1.4, 0.7, 1.0, 0.3, v1, P)
    moved = power_flow(1.4, 0.7, 1.0, 0.3, v1 + shift, P)
    assert moved.V2 - base.V2 == pytest.approx(shift, abs=1e-12)
    assert moved.V3 - base.V3 == pytest.approx(shift, abs=1e-12)
    assert (moved.P1, moved.Q1, moved.P2, moved.Q2) == \
        (base.P1, base.Q1, base.P2, base.Q2)


# ---------------------------------------------------------------------------
# decision domains
# ---------------------------------------------------------------------------

def test_defender_move_domain_interior():
    assert defender_move_domain(1.00, P) == (0.98, 1.00, 1.02)


def test_defender_move_domain_upper_clamp():
    assert defender_move_domain(1.10, P) == (1.08, 1.10)


def test_defender_move_domain_lower_clamp():
    assert defender_move_domain(0.90, P) == (0.90, 0.92)


def test_apply_defender_action_clamps():
    assert apply_defender_action(1.10, ACTION_UP, P) == 1.10
    assert apply_defender_action(0.90, ACTION_DOWN, P) == 0.90
    assert apply_defender_action(1.00, ACTION_HOLD, P) == 1.00
    with pytest.raises(ValueError):
        apply_defender_action(1.0, 3, P)


def test_attacker_levels_degenerate():
    levels = attacker_levels(GridParams(q3_max=0.0))
    assert levels == (0.0,) * 11


def test_attacker_levels_spacing():
    levels = attacker_levels(GridParams(q3_max=0.7))
    assert len(levels) == 11
    assert levels[0] == -0.7 and levels[10] == 0.7
    assert levels[5] == 0.0
    spacings = [b - a for a, b in zip(levels, levels[1:])]
    assert all(s == pytest.approx(0.14, abs=1e-12) for s in spacings)
    narrow = attacker_levels(GridParams(q3_max=0.2))
    assert all(b - a == pytest.approx(0.04, abs=1e-12)
               for a, b in zip(narrow, narrow[1:]))


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def test_defender_reward_perfect_voltages():
    assert defender_reward(1.0, 1.0, P) == 0.0


def test_defender_reward_band_edges():
    assert defender_reward(1.05, 0.95, P) == pytest.approx(-2.0, abs=1e-12)


def test_defender_reward_worked_example():
    assert defender_reward(0.967, 0.997, P) == pytest.approx(-0.4392, abs=1e-12)


def test_attacker_reward_cases():
    assert attacker_reward(1.00, P) == 0.0
    assert attacker_reward(1.06, P) == 1.0
    assert attacker_reward(0.93, P) == 1.0


def test_attacker_reward_boundary_scores_zero():
    assert attacker_reward(1.0 + P.band_halfwidth, P) == 0.0
    assert attacker_reward(1.0 - P.band_halfwidth, P) == 0.0


@given(v2=st.floats(min_value=0.5, max_value=1.5),
       v3=st.floats(min_value=0.5, max_value=1.5))
@settings(max_examples=200, deadline=None)
def test_reward_ranges(v2, v3):
    assert defender_reward(v2, v3, P) <= 0.0
    assert attacker_reward(v2, P) in (0.0, 1.0)  # both violations can't fire


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3),
       band=st.sampled_from([P.band_halfwidth, 1e-3, 0.0625]))
def test_defender_reward_of_arrays_is_the_scalar_reward_on_every_entry(
        seed, scale, band):
    """The lockstep's defender rewards, and so sweep.csv, rest on this
    equality: on a numpy or libm build where `np.float_power` rounds a
    square other than Python's float pow, this fails rather than letting
    the scores drift.  Numpy's plain square differs on about 0.08% of
    inputs, so on about three of an example's 4,000 squares."""
    rng = np.random.default_rng(seed)
    params = replace(P, band_halfwidth=band)
    v2, v3 = 1.0 + rng.normal(0.0, scale * band, (2, 40, 50))
    rewards = defender_reward(v2, v3, params).tolist()
    assert repr(rewards) == repr(
        [[defender_reward(a, b, params) for a, b in zip(row2, row3)]
         for row2, row3 in zip(v2.tolist(), v3.tolist())])


# ---------------------------------------------------------------------------
# memory metrics
# ---------------------------------------------------------------------------

def test_defender_metric_co_movement_is_one():
    ramp = [1.0 + 0.01 * i for i in range(P.memory_window + 2)]
    assert defender_memory_metric(ramp, ramp, P.memory_window) == 1.0


def test_defender_metric_anti_movement_is_minus_one():
    ramp = [1.0 + 0.01 * i for i in range(P.memory_window + 2)]
    anti = [2.0 - v for v in ramp]
    assert defender_memory_metric(ramp, anti, P.memory_window) == -1.0


def test_defender_metric_mixed_window():
    # window m=2: per-step sign products +1, -1, 0 -> sum 0 over m+1
    v1 = [1.00, 1.02, 1.00, 1.00]
    v3 = [0.99, 1.01, 1.02, 1.02]
    assert defender_memory_metric(v1, v3, 2) == 0.0


def test_defender_metric_short_history_pads_with_zeros():
    # one observable step out of m+1 terms
    assert defender_memory_metric([1.0, 1.02], [1.0, 1.01], 5) == \
        pytest.approx(1 / 6, abs=1e-15)


def test_attacker_metric_drift_is_invisible():
    # constant V1, frozen load: own drift moves V3 by (x1+x2)*dq3, of which
    # x2*dq3 is expected, leaving x1*dq3 = 0.0042 per step: under one tap
    params = GridParams(q3_max=0.7, p2_range=(1.4, 1.4))
    q3s = [0.0, 0.14, 0.28]
    v3s = [power_flow(1.4, 0.7, 1.0, q, 1.0, params).V3 for q in q3s]
    assert attacker_memory_metric(v3s, q3s, params) == 0


def test_attacker_metric_sees_defender_tap():
    params = GridParams(q3_max=0.7, p2_range=(1.4, 1.4))
    down = [power_flow(1.4, 0.7, 1.0, 0.14, v1, params).V3 for v1 in (1.0, 0.98)]
    assert attacker_memory_metric(down, [0.14, 0.14], params) == -1
    up = [power_flow(1.4, 0.7, 1.0, 0.14, v1, params).V3 for v1 in (1.0, 1.02)]
    assert attacker_memory_metric(up, [0.14, 0.14], params) == 1


def test_attacker_metric_all_zero_history():
    assert attacker_memory_metric([1.0] * 7, [0.0] * 7, P) == 0


def test_metric_bounds_on_random_histories():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        v1 = list(rng.uniform(0.9, 1.1, size=n))
        v3 = list(rng.uniform(0.9, 1.1, size=n))
        q3 = list(rng.uniform(-0.7, 0.7, size=n))
        d = defender_memory_metric(v1, v3, P.memory_window)
        a = attacker_memory_metric(v3, q3, P)
        assert -1.0 <= d <= 1.0
        assert isinstance(a, int) and abs(a) <= P.memory_window + 1


def test_incremental_memory_matches_history_metric():
    # stepping the rolling buffers reproduces the windowed formulas
    params = GridParams(q3_max=0.7)
    rng = np.random.default_rng(5)
    state = initial_state(params, rng)
    d_mem = initial_defender_memory(defender_observation(state), params)
    a_mem = initial_attacker_memory(attacker_observation(state), params)
    v1_hist, v3_hist, q3_hist = [state.V1], [state.V3], [state.q3]
    for _ in range(12):
        d_action = int(rng.integers(3))
        a_action = int(rng.integers(11))
        state, (d_mem, a_mem), _ = transition(state, (d_mem, a_mem),
                                              d_action, a_action, rng, params)
        v1_hist.append(state.V1)
        v3_hist.append(state.V3)
        q3_hist.append(state.q3)
        assert d_mem.metric == pytest.approx(
            defender_memory_metric(v1_hist, v3_hist, params.memory_window),
            abs=1e-15)
        assert a_mem.metric == attacker_memory_metric(v3_hist, q3_hist, params)


# ---------------------------------------------------------------------------
# level-0 policies
# ---------------------------------------------------------------------------

def test_level0_defender_holds_when_centered():
    assert level0_defender(1.0, 1.0, 1.0, P) == ACTION_HOLD


def test_level0_defender_steps_up():
    assert level0_defender(1.00, 0.96, 0.99, P) == ACTION_UP


def test_level0_defender_clamped_prefers_hold():
    assert level0_defender(1.10, 0.90, 0.93, P) == ACTION_HOLD


def test_level0_defender_minimizes_over_reachable_set():
    """Also for the lockstep's elementwise twin, on the same inputs plus
    clamped and tied ones."""
    rng = np.random.default_rng(1)
    cases = [(P.v1_max, 0.90, 0.93), (P.v1_min, 1.10, 1.07), (1.0, 1.0, 1.0),
             (1.0, 1.0 + P.tap_step / 2, 1.0 + P.tap_step / 2),
             (P.v1_max - P.tap_step / 2, 0.95, 0.95)]
    actions = [level0_defender(*case, P) for case in cases]
    for _ in range(300):
        v1 = float(rng.uniform(P.v1_min, P.v1_max))
        v2 = float(rng.uniform(0.9, 1.1))
        v3 = float(rng.uniform(0.9, 1.1))
        action = level0_defender(v1, v2, v3, P)
        cases.append((v1, v2, v3))
        actions.append(action)
        chosen_shift = apply_defender_action(v1, action, P) - v1
        best = min(abs((v2 + v3) / 2 + s - 1.0)
                   for s in (apply_defender_action(v1, a, P) - v1
                             for a in (0, 1, 2)))
        assert abs((v2 + v3) / 2 + chosen_shift - 1.0) == pytest.approx(best,
                                                                        abs=0)
    v1s, v2s, v3s = np.array(cases).T
    assert scenario._level0_defenders(v1s, v2s, v3s, P).tolist() == actions


def test_level0_attacker_strike_examples():
    assert level0_attacker(0.97, 0.7, P) == 0            # strike to -0.7
    assert level0_attacker(0.98, 0.14, P) == 7           # drift up to 0.28
    narrow = GridParams(q3_max=0.2)
    assert level0_attacker(1.01, 0.0, narrow) == 4       # drift down to -0.04


def test_level0_attacker_drift_clamps_at_grid_ends():
    assert level0_attacker(0.999, 0.7, P) == 10          # upper end, stays
    assert level0_attacker(1.0, -0.7, P) == 0            # lower end, stays


def test_level0_attacker_strike_only_beyond_threshold():
    rng = np.random.default_rng(2)
    levels = attacker_levels(P)
    for _ in range(300):
        v2 = float(rng.uniform(0.9, 1.1))
        q3 = levels[int(rng.integers(11))]
        action = level0_attacker(v2, q3, P)
        current = levels.index(q3)
        drift = min(current + 1, 10) if v2 < 1.0 else max(current - 1, 0)
        projected = [abs(v2 + P.x1 * (q - q3) - 1.0) for q in levels]
        if action != drift:
            # strikes must clear the threshold and hit the worst grid point
            assert projected[action] > P.strike_threshold
            assert projected[action] == max(projected)


@st.composite
def attacker_situations(draw):
    """(v2, q3, params): q3_max from 1e-9 to 2, q3 on the grid or off it, and
    v2 at 1.0, anywhere near it, or a few ulps to either side of a value
    where one grid end's projected deviation crosses the strike threshold."""
    params = GridParams(q3_max=draw(st.floats(1e-9, 2.0)))
    levels = attacker_levels(params)
    q3 = draw(st.one_of(st.sampled_from(levels),
                        st.floats(-1.2 * params.q3_max, 1.2 * params.q3_max)))
    end = draw(st.sampled_from((levels[0], levels[-1])))
    side = draw(st.sampled_from((-1.0, 1.0)))
    crossing = 1.0 + side * params.strike_threshold - params.x1 * (end - q3)
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        crossing = float(np.nextafter(crossing, ulps * np.inf))
    v2 = draw(st.one_of(st.just(1.0), st.floats(0.8, 1.2), st.just(crossing)))
    return v2, q3, params


@settings(max_examples=500, deadline=None)
@given(attacker_situations())
@example((1.0, 0.0, GridParams(x1=0.0625, q3_max=2.0)))  # ends tie at 0.125
def test_level0_attacker_equals_grid_scan(situation):
    v2, q3, params = situation
    expected = scan_level0_attacker(v2, q3, params)
    assert level0_attacker(v2, q3, params) == expected
    assert scenario._level0_attackers(np.array([v2]), np.array([q3]),
                                      params).tolist() == [expected]


def test_level0_attacker_strikes_at_first_of_equal_top_deviations():
    # With steps x1 * q3_max / 5 near half an ulp of V2, the projected V2
    # repeats across neighbouring grid levels; a strike goes to the first
    # grid index of the largest deviation, as the scan's first argmax does,
    # and so does the lockstep's elementwise twin.
    rng = np.random.default_rng(0)
    interior_strikes = 0
    for q3_max in (1e-14, 2e-14, 3e-14, 5e-14):
        params = GridParams(q3_max=q3_max)
        levels = attacker_levels(params)
        situations, actions = [], []
        for _ in range(500):
            v2 = float(rng.uniform(0.8, 1.2))
            current = int(rng.integers(11))
            expected = scan_level0_attacker(v2, levels[current], params)
            assert level0_attacker(v2, levels[current], params) == expected
            drift = min(current + 1, 10) if v2 < 1.0 else max(current - 1, 0)
            interior_strikes += 0 < expected < 10 and expected != drift
            situations.append((v2, levels[current]))
            actions.append(expected)
        v2s, q3s = np.array(situations).T
        assert scenario._level0_attackers(v2s, q3s, params).tolist() == actions
    assert interior_strikes > 0


# ---------------------------------------------------------------------------
# transition
# ---------------------------------------------------------------------------

def test_transition_deterministic_with_frozen_load():
    params = GridParams(q3_max=0.7, p2_range=(1.4, 1.4))
    rng = np.random.default_rng(0)
    state = initial_state(params, rng)
    d_mem = initial_defender_memory(defender_observation(state), params)
    a_mem = initial_attacker_memory(attacker_observation(state), params)
    nxt, _, _ = transition(state, (d_mem, a_mem), ACTION_HOLD, 5, rng, params)
    expected = power_flow(1.4, 0.7, 1.0, 0.0, state.V1, params)
    assert nxt == expected


def test_transition_up_at_limit_is_clamped():
    params = GridParams(q3_max=0.7, v1_start=1.10)
    rng = np.random.default_rng(0)
    state = initial_state(params, rng)
    d_mem = initial_defender_memory(defender_observation(state), params)
    a_mem = initial_attacker_memory(attacker_observation(state), params)
    nxt, _, _ = transition(state, (d_mem, a_mem), ACTION_UP, 5, rng, params)
    assert nxt.V1 == 1.10


def test_trajectory_action_legality():
    params = GridParams(q3_max=1.6)
    rng = np.random.default_rng(3)
    records = simulate(params, level0_policies(params), 200, rng)
    levels = attacker_levels(params)
    v1_prev = params.v1_start
    for rec in records:
        assert params.v1_min <= rec.state.V1 <= params.v1_max
        assert abs(rec.state.V1 - v1_prev) <= params.tap_step + 1e-12
        assert rec.state.q3 in levels
        v1_prev = rec.state.V1


def test_trajectory_physics_consistency():
    params = GridParams(q3_max=1.2)
    records = simulate(params, level0_policies(params), 100,
                       np.random.default_rng(4))
    for rec in records:
        s = rec.state
        flow = power_flow(s.p2, s.q2, s.p3, s.q3, s.V1, params)
        assert flow == s
        assert s.q2 == params.q2_factor * s.p2
        assert params.p2_range[0] <= s.p2 <= params.p2_range[1]


def test_rewards_evaluated_on_next_state():
    params = GridParams(q3_max=0.7, p2_range=(1.4, 1.4))
    rng = np.random.default_rng(0)
    state = initial_state(params, rng)
    d_mem = initial_defender_memory(defender_observation(state), params)
    a_mem = initial_attacker_memory(attacker_observation(state), params)
    nxt, _, rewards = transition(state, (d_mem, a_mem), ACTION_DOWN, 0, rng,
                                 params)
    assert rewards[0] == defender_reward(nxt.V2, nxt.V3, params)
    assert rewards[1] == attacker_reward(nxt.V2, params)


@pytest.mark.parametrize("p2_range", [(1.35, 1.5), (1.4, 1.4), (-3.0, 2.0)])
def test_load_draws_are_generator_uniform_bits(p2_range):
    params = GridParams(q3_max=0.7, p2_range=p2_range)
    rng = np.random.default_rng(8)
    oracle = np.random.default_rng(8)
    shadow = np.random.default_rng(8)
    state = initial_state(params, rng)
    p2s = [state.p2]
    for t in range(50):
        state = scenario.advance_state(state, t % 3, t % 11, rng, params)
        p2s.append(state.p2)
    expected = [float(oracle.uniform(*p2_range)) for _ in p2s]
    assert np.array(p2s).tobytes() == np.array(expected).tobytes()
    # each draw consumed exactly one double of the stream
    shadow.random(len(p2s))
    assert rng.random() == shadow.random()


def test_initial_state_defaults():
    state = initial_state(P, np.random.default_rng(0))
    assert state.V1 == P.v1_start == 1.0
    assert state.q3 == 0.0
    assert P.p2_range[0] <= state.p2 <= P.p2_range[1]


# ---------------------------------------------------------------------------
# observations, codecs, features
# ---------------------------------------------------------------------------

def test_observations_are_pure_projections():
    state = power_flow(1.45, 0.725, 1.0, 0.28, 1.02, P)
    assert defender_observation(state) == (state.V1, state.V2, state.V3,
                                           state.P1, state.Q1)
    assert attacker_observation(state) == (state.V2, state.V3, state.p3,
                                           state.q3)


def test_records_refuse_attribute_assignment():
    state = power_flow(1.45, 0.725, 1.0, 0.28, 1.02, P)
    d_mem = initial_defender_memory(defender_observation(state), P)
    a_mem = initial_attacker_memory(attacker_observation(state), P)
    for record, field in ((state, "V1"), (d_mem, "v1"), (a_mem, "q3")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        assert hash(record) == hash(tuple(record))


def test_feature_normalization_anchors():
    mem = initial_defender_memory((1.0, 1.0, 1.0, 0.4, 0.7), P)
    feats = encode_defender_features(mem, P)
    assert feats[0] == 0.0  # V1 = 1.0 maps to the affine center
    mem_high = initial_defender_memory((1.10, 1.0, 1.0, 0.4, 0.7), P)
    assert encode_defender_features(mem_high, P)[0] == pytest.approx(1.0)
    a_mem = initial_attacker_memory((1.0, 1.0, 1.0, 0.0), P)
    max_metric = a_mem._replace(terms=(1.0,) * (P.memory_window + 1))
    assert encode_attacker_features(max_metric, P)[4] == pytest.approx(1.0)


any_finite = st.floats(allow_nan=False, allow_infinity=False)
window_terms = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=2,
                        max_size=6).map(tuple)


@settings(max_examples=300, deadline=None)
@given(d_fields=st.tuples(*[any_finite] * 5),
       d_action=st.integers(0, DEFENDER_ACTIONS - 1), d_terms=window_terms,
       a_fields=st.tuples(*[any_finite] * 4),
       a_action=st.integers(0, ATTACKER_ACTIONS - 1), a_terms=window_terms,
       q3_max=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10)))
def test_encoders_are_bitwise_the_composed_normalizations(
        d_fields, d_action, d_terms, a_fields, a_action, a_terms, q3_max):
    params = GridParams(q3_max=q3_max, memory_window=len(a_terms) - 1)
    v1, v2, v3, p1, q1 = d_fields
    d_mem = DefenderMemory(v1, v2, v3, p1, q1, d_action, d_terms)
    expected = np.array([norm_voltage(v1), norm_voltage(v2), norm_voltage(v3),
                         norm_flow(p1), norm_flow(q1), d_mem.metric,
                         norm_action(d_action, DEFENDER_ACTIONS)])
    assert encode_defender_features(d_mem, params).tobytes() == expected.tobytes()
    v2, v3, p3, q3 = a_fields
    a_mem = AttackerMemory(v2, v3, p3, q3, a_action, a_terms)
    expected = np.array([norm_voltage(v2), norm_voltage(v3), norm_flow(p3),
                         q3 / q3_max if q3_max > 0 else 0.0,
                         a_mem.metric / len(a_terms),
                         norm_action(a_action, ATTACKER_ACTIONS)])
    assert encode_attacker_features(a_mem, params).tobytes() == expected.tobytes()


def test_feature_dimensions_match_encoders():
    priors = level0_policies(P)
    d_prior, a_prior = priors[DEFENDER], priors[ATTACKER]
    state = power_flow(1.4, 0.7, 1.0, 0.0, 1.0, P)
    d_mem = initial_defender_memory(defender_observation(state), P)
    a_mem = initial_attacker_memory(attacker_observation(state), P)
    assert d_prior.encoder({"defender_memory": d_mem}).shape == (d_prior.feature_dim,)
    assert a_prior.encoder({"attacker_memory": a_mem}).shape == (a_prior.feature_dim,)


def test_q3_feature_zero_when_capability_is_zero():
    params = GridParams(q3_max=0.0)
    a_mem = initial_attacker_memory((1.0, 1.0, 1.0, 0.0), params)
    assert encode_attacker_features(a_mem, params)[3] == 0.0


# ---------------------------------------------------------------------------
# net encoding
# ---------------------------------------------------------------------------

def test_emitted_game_with_a_renamed_binding_source_is_refused():
    game = as_netform(P)
    pairs = dict(game.binding)
    pairs["stat"] = pairs.pop(scenario.STATE_NODE)
    with pytest.raises(ValueError) as info:
        replace(game, binding=pairs)
    message = str(info.value)
    for label in ("base->kernel", "kernel->kernel"):
        assert f"{label}: binding source 'stat' not in preceding net" in message


def test_kernel_has_one_decision_node_per_player():
    game = as_netform(P)
    decisions = [n for n in game.kernel.nodes
                 if isinstance(n.kind, netform.Decision)]
    assert [d.kind.owner for d in decisions] == [DEFENDER, ATTACKER]
    assert game.kernel.players == (DEFENDER, ATTACKER)


def test_netform_rollout_matches_native_loop():
    game = as_netform(P, horizon=60)
    traj = netform.rollout(game, level0_policies(P), np.random.default_rng(17))
    records = simulate(P, level0_policies(P), 60, np.random.default_rng(17))
    for t, rec in enumerate(records):
        assert traj.slices[t][scenario.STATE_NODE] == rec.state
        assert traj.slices[t][scenario.DEFENDER_MEMORY_NODE] == \
            rec.defender_memory
        assert traj.slices[t][scenario.ATTACKER_MEMORY_NODE] == \
            rec.attacker_memory
        assert traj.rewards[DEFENDER][t] == rec.defender_reward
        assert traj.rewards[ATTACKER][t] == rec.attacker_reward


def _exploring(inner, action_count, epsilon):
    """A test-side policy that draws from the rng at every decision: with
    probability `epsilon` a uniform action, else `inner`'s."""
    def policy(parent_values, rng):
        if rng.random() < epsilon:
            return int(rng.integers(action_count))
        return inner(parent_values, rng)
    return policy


@st.composite
def battle_policies(draw, params):
    """One policy per player: level-0, a random-network greedy QPolicy, or
    either of them wrapped to explore."""
    policies = {}
    for player, prior in level0_policies(params).items():
        inner = prior
        if draw(st.booleans()):
            spec = NetworkSpec(prior.feature_dim, (4,), prior.action_count)
            net_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            inner = QPolicy(init(spec, 1.0, 0.0, net_rng), prior.encoder)
        if draw(st.booleans()):
            inner = _exploring(inner, prior.action_count,
                               draw(st.floats(0.1, 0.9)))
        policies[player] = inner
    return policies


@st.composite
def greedy_policies(draw, params):
    """One policy per player that `NativeBattle.play` plays in
    lockstep: the level-0 prior, or a greedy QPolicy over its encoder with
    random hidden layers, `()` included."""
    policies = {}
    for player, prior in level0_policies(params).items():
        policies[player] = prior
        if draw(st.booleans()):
            hidden = tuple(draw(st.lists(st.integers(1, 16), max_size=2)))
            spec = NetworkSpec(prior.feature_dim, hidden, prior.action_count)
            net_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            policies[player] = QPolicy(
                init(spec, draw(st.floats(0.1, 2.0)), 0.0, net_rng),
                prior.encoder)
    return policies


@st.composite
def grids(draw):
    lo = draw(st.floats(1.0, 1.6))
    return GridParams(
        q3_max=draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0))),
        memory_window=draw(st.integers(1, 8)),
        p2_range=(lo, lo + draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))))


@st.composite
def battles(draw, policies=battle_policies):
    params = draw(grids())
    return (params, draw(policies(params)), draw(st.integers(1, 30)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(battles())
def test_netform_rollout_and_native_loop_agree_bit_for_bit(battle):
    """Whatever the policies draw, both paths consume the rng in the same
    order and produce the same bits (repr is exact for floats)."""
    params, policies, horizon, seed = battle
    net_rng, native_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    traj = netform.rollout(as_netform(params, horizon), policies, net_rng)
    records = simulate(params, policies, horizon, native_rng)
    assert len(records) == len(traj.slices) == horizon
    for t, rec in enumerate(records):
        inst = traj.slices[t]
        assert repr(inst[scenario.STATE_NODE]) == repr(rec.state)
        assert repr(inst[scenario.DEFENDER_MEMORY_NODE]) == \
            repr(rec.defender_memory)
        assert repr(inst[scenario.ATTACKER_MEMORY_NODE]) == \
            repr(rec.attacker_memory)
        assert repr(traj.rewards[DEFENDER][t]) == repr(rec.defender_reward)
        assert repr(traj.rewards[ATTACKER][t]) == repr(rec.attacker_reward)
    assert net_rng.bit_generator.state == native_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(battles(), st.integers(1, 4))
def test_native_scorer_equals_evaluate_on_the_net_bit_for_bit(battle, episodes):
    """`evaluate` on `NativeBattle`, the scorer of `sweep` and `eval`, plays
    `simulate` but reports what it reports on the net: the same per-episode
    means, in order and keyed alike, the same overall means, and the same
    rng end state."""
    params, policies, horizon, seed = battle
    net_rng, native_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = evaluate(as_netform(params, horizon), policies, episodes, net_rng)
    report = evaluate(NativeBattle(params, horizon), policies, episodes,
                      native_rng)
    assert repr(report.per_episode) == repr(expected.per_episode)
    assert repr(report.mean_reward_per_step) == \
        repr(expected.mean_reward_per_step)
    assert net_rng.bit_generator.state == native_rng.bit_generator.state


def _simulated(params, policies, horizon, episodes, rng):
    """The rewards of `episodes` runs of `simulate` in the form of `play`,
    with lists for arrays: per player, a row per episode."""
    runs = [simulate(params, policies, horizon, rng) for _ in range(episodes)]
    return {DEFENDER: [[rec.defender_reward for rec in run] for run in runs],
            ATTACKER: [[rec.attacker_reward for rec in run] for run in runs]}


def _lists(rewards):
    """A match's rewards from `play`, with lists for arrays."""
    assert all(values.dtype == np.float64 for values in rewards.values())
    return {player: values.tolist() for player, values in rewards.items()}


@settings(max_examples=100, deadline=None)
@given(battles(greedy_policies), st.integers(1, 8))
def test_play_plays_greedy_episodes_in_lockstep_bit_for_bit(battle, episodes):
    """On level-0 and greedy network policies `NativeBattle.play` never
    calls `simulate`, yet gives what `simulate` gives episode after
    episode, and `evaluate` on it what it gives on the net: the same
    rewards, per-episode and overall means, and rng end state."""
    params, policies, horizon, seed = battle
    game = NativeBattle(params, horizon)
    loop_rng, net_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _simulated(params, policies, horizon, episodes, loop_rng)
    expected_report = evaluate(as_netform(params, horizon), policies, episodes,
                               net_rng)
    lockstep_rng, report_rng = (np.random.default_rng(seed),
                                np.random.default_rng(seed))

    def refuse(*args):
        raise AssertionError("the lockstep path called simulate")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "simulate", refuse)
        played = game.play([(policies, episodes, lockstep_rng)])[0]
        report = evaluate(game, policies, episodes, report_rng)
    assert repr(_lists(played)) == repr(expected)
    assert repr(report.per_episode) == repr(expected_report.per_episode)
    assert repr(report.mean_reward_per_step) == \
        repr(expected_report.mean_reward_per_step)
    for rng in (lockstep_rng, report_rng, net_rng):
        assert rng.bit_generator.state == loop_rng.bit_generator.state


@st.composite
def lockstep_matches(draw):
    """One to four matches on one grid, each with its own seed and one to
    five episodes.  A match's policy for a player is drawn anew or taken
    from an earlier match, so matches share policy objects or do not; the
    grid may have no attacker reach (q3_max 0 or subnormal) or x1 = 0."""
    params = replace(draw(grids()), **draw(st.sampled_from(
        [{}, {"x1": 0.0}, {"q3_max": 1e-310}])))
    matches = []
    for _ in range(draw(st.integers(1, 4))):
        policies = draw(greedy_policies(params))
        for player in policies:
            if matches and draw(st.booleans()):
                policies[player] = draw(st.sampled_from(matches))[0][player]
        matches.append((policies, draw(st.integers(1, 5)),
                        draw(st.integers(0, 2 ** 32 - 1))))
    return params, matches, draw(st.integers(1, 30))


@settings(max_examples=100, deadline=None)
@given(lockstep_matches())
def test_lockstep_plays_each_match_as_simulate_plays_it_alone(case):
    """`NativeBattle.play` plays all its greedy matches in one lockstep,
    where each player's episodes decide in groups of one policy object;
    yet every match gets exactly what `simulate` gives it alone, and its
    rng ends where `simulate` leaves it."""
    params, matches, horizon = case
    loop_rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    expected = [_simulated(params, policies, horizon, episodes, rng)
                for (policies, episodes, _), rng in zip(matches, loop_rngs)]
    rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    real_lockstep, calls = scenario._lockstep, []

    def lockstep(*args):
        calls.append(args)
        return real_lockstep(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "simulate", None)  # the lockstep calls no simulate
        patch.setattr(scenario, "_lockstep", lockstep)
        played = NativeBattle(params, horizon).play(
            [(policies, episodes, rng)
             for (policies, episodes, _), rng in zip(matches, rngs)])
    assert len(calls) == 1
    assert repr([_lists(rewards) for rewards in played]) == repr(expected)
    for rng, loop_rng in zip(rngs, loop_rngs):
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_play_sends_every_episode_of_a_call_to_simulate_unless_all_batch():
    """`NativeBattle.play` routes a whole call at once: beside a match whose
    attacker is another grid's prior, and so cannot be batched, a greedy
    match goes through `simulate` too, episode by episode.  Each match still
    gets what `simulate` gives it, and its rng ends where `simulate` leaves
    it.  An empty call plays nothing."""
    horizon = 6
    greedy = level0_policies(P)
    other = {DEFENDER: greedy[DEFENDER],
             ATTACKER: level0_policies(replace(P, q3_max=1.2))[ATTACKER]}
    matches = [(greedy, 3, 5), (other, 2, 6)]
    loop_rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    expected = [_simulated(P, policies, horizon, episodes, rng)
                for (policies, episodes, _), rng in zip(matches, loop_rngs)]
    rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    real_simulate, simulated = scenario.simulate, []

    def counted(params, policies, *args):
        simulated.append(policies)
        return real_simulate(params, policies, *args)

    def refuse(*args):
        raise AssertionError("the call went to the lockstep")
    game = NativeBattle(P, horizon)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "simulate", counted)
        patch.setattr(scenario, "_lockstep", refuse)
        played = game.play([(policies, episodes, rng)
                            for (policies, episodes, _), rng in zip(matches, rngs)])
        assert game.play([]) == []
    assert simulated == [greedy] * 3 + [other] * 2
    assert repr([_lists(rewards) for rewards in played]) == repr(expected)
    for rng, loop_rng in zip(rngs, loop_rngs):
        assert rng.bit_generator.state == loop_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(battles(), st.sampled_from([DEFENDER, ATTACKER]), st.integers(1, 5),
       st.floats(0.0, 1.0))
def test_training_on_the_native_battle_equals_training_on_the_net_bit_for_bit(
        battle, trainee, episodes, epsilon):
    """`train_level` on `NativeBattle`, the game of `train`, learns the
    weights it learns on the net, byte for byte, against any opponent, and
    leaves the rng in the same state."""
    params, policies, horizon, seed = battle
    opponents = {player: policy for player, policy in policies.items()
                 if player != trainee}
    level0s = level0_policies(params)
    config = TrainConfig(episodes=episodes, epsilon_start=epsilon,
                         epsilon_end=0.0, optimistic_bias=1.0)
    net_rng, native_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = train_level(as_netform(params, horizon), trainee, opponents,
                           level0s, config, net_rng)
    policy = train_level(NativeBattle(params, horizon), trainee, opponents,
                         level0s, config, native_rng)
    assert policy.params.to_vector().tobytes() == \
        expected.params.to_vector().tobytes()
    assert net_rng.bit_generator.state == native_rng.bit_generator.state


def _twin_unit_policy(player, seed, first, second):
    """A greedy QPolicy for `player` whose output units `first` and `second`
    have the same weights and bias.  `forward`'s matrix-vector product may
    still round the two 1 ulp apart, so they tie exactly or nearly."""
    prior = level0_policies(P)[player]
    spec = NetworkSpec(prior.feature_dim, (8,), prior.action_count)
    params = init(spec, 1.0, 0.0, np.random.default_rng(seed))
    params.weights[-1][second] = params.weights[-1][first]
    params.biases[-1][second] = params.biases[-1][first] = 0.5
    return QPolicy(params, prior.encoder)


def _spy_on_greedy_and_forward(monkeypatch):
    """The columns each `GreedyStack.greedy` call decides, `sum(sizes)`, and
    a 1 for each `neural.forward` call."""
    decided, exact = [], []
    real_greedy, real_forward = neural.GreedyStack.greedy, neural.forward
    monkeypatch.setattr(neural.GreedyStack, "greedy", lambda self, xs, sizes: (
        decided.append(sum(sizes)), real_greedy(self, xs, sizes))[1])
    monkeypatch.setattr(neural, "forward", lambda params, x: (
        exact.append(1), real_forward(params, x))[1])
    return decided, exact


def test_lockstep_plays_tied_output_units_as_simulate_plays_them(monkeypatch):
    """A decision between two twin output units is never certified from the
    stacked product: it goes to `forward`, whose argmax is what `simulate`
    picks, the lower unit on an exact tie.  The other decisions are
    certified.  Episode for episode, the rewards are `simulate`'s."""
    policies = {DEFENDER: _twin_unit_policy(DEFENDER, 3, 1, 2),
                ATTACKER: _twin_unit_policy(ATTACKER, 4, 2, 6)}
    loop_rng, play_rng = np.random.default_rng(9), np.random.default_rng(9)
    expected = _simulated(P, policies, 40, 6, loop_rng)
    decided, exact = _spy_on_greedy_and_forward(monkeypatch)
    monkeypatch.setattr(scenario, "simulate", None)
    played = NativeBattle(P, 40).play([(policies, 6, play_rng)])[0]
    assert repr(_lists(played)) == repr(expected)
    assert play_rng.bit_generator.state == loop_rng.bit_generator.state
    assert 0 < sum(exact) < sum(decided)


def _tied_policy(player, bias):
    """A greedy QPolicy for `player` with zero weights and every output
    bias `bias`: all its Q-values tie, so no decision is certified."""
    prior = level0_policies(P)[player]
    params = init(NetworkSpec(prior.feature_dim, (4,), prior.action_count),
                  0.0, bias, np.random.default_rng(0))
    return QPolicy(params, prior.encoder)


def test_lockstep_plays_a_stack_of_all_tied_columns_as_simulate_plays_it(
        monkeypatch):
    """Two all-tied networks per player, in matches of 2 and 5 episodes, so
    each player's stack pads the smaller group: every real column goes to
    `forward`, exactly once, and no padding column does.  Episode for
    episode, the rewards are `simulate`'s, and each rng ends where
    `simulate` leaves it."""
    matches = [({DEFENDER: _tied_policy(DEFENDER, bias),
                 ATTACKER: _tied_policy(ATTACKER, -bias)}, episodes, seed)
               for bias, episodes, seed in [(0.5, 2, 31), (-1.0, 5, 32)]]
    loop_rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    expected = [_simulated(P, policies, 20, episodes, rng)
                for (policies, episodes, _), rng in zip(matches, loop_rngs)]
    decided, exact = _spy_on_greedy_and_forward(monkeypatch)
    monkeypatch.setattr(scenario, "simulate", None)
    rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    played = NativeBattle(P, 20).play(
        [(policies, episodes, rng)
         for (policies, episodes, _), rng in zip(matches, rngs)])
    assert repr([_lists(rewards) for rewards in played]) == repr(expected)
    for rng, loop_rng in zip(rngs, loop_rngs):
        assert rng.bit_generator.state == loop_rng.bit_generator.state
    # one call per player and step but the last, on 2 + 5 real columns
    assert decided == [2 + 5] * 2 * (20 - 1)
    assert len(exact) == sum(decided)


def _network_policy(player, hidden, seed):
    prior = level0_policies(P)[player]
    spec = NetworkSpec(prior.feature_dim, hidden, prior.action_count)
    return QPolicy(init(spec, 1.0, 0.0, np.random.default_rng(seed)),
                   prior.encoder)


def test_lockstep_stacks_each_players_networks_by_layer_shape(monkeypatch):
    """A player whose matches use its prior and networks of two hidden
    widths decides in two stacks, one per width, beside the prior's rule;
    every match still gets what `simulate` gives it alone, and its rng
    ends where `simulate` leaves it."""
    defenders = [level0_policies(P)[DEFENDER], _network_policy(DEFENDER, (8,), 1),
                 _network_policy(DEFENDER, (5, 3), 2),
                 _network_policy(DEFENDER, (8,), 3)]
    attackers = [_network_policy(ATTACKER, (6,), 4), level0_policies(P)[ATTACKER],
                 _network_policy(ATTACKER, (6,), 5),
                 _network_policy(ATTACKER, (4,), 6)]
    matches = [({DEFENDER: defender, ATTACKER: attacker}, episodes, seed)
               for defender, attacker, episodes, seed
               in zip(defenders + defenders[::-1], attackers + attackers,
                      [3, 1, 4, 2, 5, 2, 1, 3], range(20, 28))]
    loop_rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    expected = [_simulated(P, policies, 25, episodes, rng)
                for (policies, episodes, _), rng in zip(matches, loop_rngs)]
    stacked, real_init = [], neural.GreedyStack.__init__

    def init_spy(self, nets):
        stacked.append(sorted(net.spec.hidden_layers for net in nets))
        real_init(self, nets)
    monkeypatch.setattr(neural.GreedyStack, "__init__", init_spy)
    monkeypatch.setattr(scenario, "simulate", None)
    rngs = [np.random.default_rng(seed) for _, _, seed in matches]
    played = NativeBattle(P, 25).play(
        [(policies, episodes, rng)
         for (policies, episodes, _), rng in zip(matches, rngs)])
    assert sorted(stacked) == [[(4,)], [(5, 3)], [(6,), (6,)], [(8,), (8,)]]
    assert repr([_lists(rewards) for rewards in played]) == repr(expected)
    for rng, loop_rng in zip(rngs, loop_rngs):
        assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("beside", [0, 4])
def test_play_gives_a_zero_episode_match_empty_reward_arrays(beside):
    """A match of zero episodes, with network policies of its own, played
    beside a match of `beside` episodes: it gets (0, horizon) arrays and
    draws nothing, and the other match gets what `simulate` gives it."""
    empty = {DEFENDER: _network_policy(DEFENDER, (8,), 7),
             ATTACKER: _network_policy(ATTACKER, (8,), 8)}
    other = {DEFENDER: _network_policy(DEFENDER, (8,), 9),
             ATTACKER: level0_policies(P)[ATTACKER]}
    loop_rng = np.random.default_rng(10)
    expected = _simulated(P, other, 12, beside, loop_rng)
    empty_rng, other_rng = np.random.default_rng(11), np.random.default_rng(10)
    empty_state = empty_rng.bit_generator.state
    played = NativeBattle(P, 12).play([(empty, 0, empty_rng),
                                       (other, beside, other_rng)])
    assert {player: rewards.shape for player, rewards in played[0].items()} \
        == {DEFENDER: (0, 12), ATTACKER: (0, 12)}
    assert empty_rng.bit_generator.state == empty_state
    assert repr(_lists(played[1])) == repr(expected)
    assert other_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("network", [False, True])
@pytest.mark.parametrize("other", [GridParams(q3_max=0.5),
                                   GridParams(q3_max=0.7, x1=0.04)])
def test_play_goes_through_simulate_for_a_prior_of_another_grid(
        monkeypatch, other, network):
    """`NativeBattle(P, h).play` knows a policy by its identity with
    `level0_policies(P)`.  The prior of another grid, or a network over that
    prior's encoder, is not one: every episode goes through `simulate` and
    gives its rewards and rng end state."""
    attacker = level0_policies(other)[ATTACKER]
    if network:
        spec = NetworkSpec(attacker.feature_dim, (4,), attacker.action_count)
        attacker = QPolicy(init(spec, 1.0, 0.0, np.random.default_rng(2)),
                           attacker.encoder)
    policies = {DEFENDER: level0_policies(P)[DEFENDER], ATTACKER: attacker}
    loop_rng, play_rng = np.random.default_rng(8), np.random.default_rng(8)
    expected = _simulated(P, policies, 12, 3, loop_rng)
    calls = []
    monkeypatch.setattr(scenario, "simulate", lambda *args: (
        calls.append(args), simulate(*args))[1])
    assert repr(_lists(NativeBattle(P, 12).play([(policies, 3, play_rng)])[0])) \
        == repr(expected)
    assert len(calls) == 3
    assert play_rng.bit_generator.state == loop_rng.bit_generator.state


def test_native_battle_is_the_nets_game():
    game = NativeBattle(P, 7)
    assert game.players == as_netform(P, 7).players == (DEFENDER, ATTACKER)
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        NativeBattle(P, 0)


def _fixed(defender, attacker):
    """Policies that always play the given actions."""
    return {DEFENDER: lambda parent_values, rng: defender,
            ATTACKER: lambda parent_values, rng: attacker}


@pytest.mark.parametrize("player, policies, shown", [
    (DEFENDER, _fixed(3, 5), "3"),
    (ATTACKER, _fixed(1, -1), "-1"),
    (ATTACKER, _fixed(1, 1.7), "1.7"),
    (ATTACKER, _fixed(1, 11), "11"),
])
def test_simulate_refuses_an_action_outside_its_players_space(player, policies,
                                                              shown):
    with pytest.raises(ValueError, match=rf"action {shown} for player "
                       rf"'{player}' is outside its space"):
        simulate(P, policies, 3, np.random.default_rng(0))


def test_simulate_stores_a_numpy_integer_action_as_a_plain_int():
    records = simulate(P, _fixed(np.int64(2), np.int64(7)), 2,
                       np.random.default_rng(0))
    for memory in (records[1].defender_memory, records[1].attacker_memory):
        assert type(memory.prev_action) is int
    assert (records[1].defender_memory.prev_action,
            records[1].attacker_memory.prev_action) == (2, 7)


def test_simulate_records_expose_what_run_trace_reads():
    rec = simulate(P, level0_policies(P), 3, np.random.default_rng(5))[-1]
    assert rec._fields == ("t", "state", "defender_memory", "attacker_memory",
                           "defender_reward", "attacker_reward")
    assert rec.t == 3
    assert isinstance(rec.state, scenario.GridState)
    assert isinstance(rec.defender_memory.metric, float)
    assert isinstance(rec.attacker_memory.metric, int)
    assert isinstance(rec.defender_reward, float)
    assert isinstance(rec.attacker_reward, float)


GRID_FLOAT_FIELDS = ("r1", "r2", "x1", "x2", "v0", "tap_step", "v1_min",
                     "v1_max", "band_halfwidth", "strike_threshold", "q3_max",
                     "p3", "q2_factor", "v1_start")


@pytest.mark.parametrize("value", [
    float("inf"), -float("inf"), float("nan"),
    pytest.param(10 ** 400, id="10**400"),  # beyond the float range
    pytest.param(-10 ** 400, id="-10**400")])
@pytest.mark.parametrize("field",
                         GRID_FLOAT_FIELDS + ("p2_range[0]", "p2_range[1]"))
def test_grid_params_refuse_a_non_finite_constant_naming_it(field, value):
    if field.startswith("p2_range"):
        entries = [1.35, 1.5]
        entries[int(field[-2])] = value
        kwargs, message = {"p2_range": tuple(entries)}, "p2_range width"
    else:
        kwargs, message = {field: value}, f"{field}"
    with pytest.raises(ValueError, match=f"^{message} must be finite, got "):
        GridParams(**kwargs)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GridParams(strike_threshold=0.04)  # must exceed the band halfwidth
    with pytest.raises(ValueError):
        GridParams(v1_min=1.2)
    with pytest.raises(ValueError):
        GridParams(q3_max=-0.1)
    for q3_max in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="q3_max must be finite"):
            GridParams(q3_max=q3_max)
    for p2_range in ((-1e308, 1e308), (0.0, float("inf"))):
        with pytest.raises(ValueError, match="p2_range width must be finite"):
            GridParams(p2_range=p2_range)
    # built in code, not by the config loader, which hands over a checked pair
    for p2_range in ([1.35, 1.5], (1.35,), (1.35, 1.4, 1.5), ("a", "b")):
        with pytest.raises(ValueError, match=r"^p2_range must be a tuple of two"):
            GridParams(p2_range=p2_range)
    with pytest.raises(ValueError):
        GridParams(memory_window=0)


def _signed(low, high):
    """0, or +/-10**e for e drawn from [low, high]."""
    return st.one_of(st.just(0.0), st.builds(
        lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
        st.floats(low, high)))


def _positive(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def large_grids(draw):
    """Grid constants up to about 1e160, and q3_max up to 1e308, most of
    which `GridParams` refuses."""
    v1_min = draw(_signed(-3, 160))
    v1_max = max(v1_min + draw(_positive(-3, 160)), math.nextafter(v1_min, 2e308))
    band = draw(_positive(-160, 2))
    p2_lo = draw(_signed(-3, 160))
    kwargs = dict(
        r1=draw(_signed(-3, 160)), r2=draw(_signed(-3, 160)),
        x1=draw(_signed(-3, 160)), x2=draw(_signed(-3, 160)),
        v0=draw(_positive(-10, 10)), tap_step=draw(_positive(-160, 2)),
        v1_min=v1_min, v1_max=v1_max, band_halfwidth=band,
        strike_threshold=band * (1 + draw(_positive(-3, 3))),
        q3_max=draw(st.one_of(st.just(0.0), _positive(-3, 308))),
        p3=draw(_signed(-3, 160)),
        p2_range=(p2_lo, p2_lo + draw(st.one_of(st.just(0.0),
                                                 _positive(-3, 160)))),
        q2_factor=draw(_signed(-3, 160)), memory_window=draw(st.integers(1, 6)),
        v1_start=draw(st.floats(v1_min, v1_max)),
        defender_start_action=draw(st.integers(0, DEFENDER_ACTIONS - 1)),
        attacker_start_action=draw(st.integers(0, ATTACKER_ACTIONS - 1)))
    try:
        return GridParams(**kwargs)
    except ValueError as exc:
        assert str(exc).startswith("the grid's constants can overflow")
        return None


@settings(max_examples=100, deadline=None)
@given(grid=large_grids(), seed=st.integers(0, 2 ** 32 - 1))
# a subnormal V1 underflows in the lockstep's tap quotient, to a finite value
@example(grid=GridParams(r1=0, r2=0, x1=0, x2=0, tap_step=10, v1_min=0, v1_max=1,
                         band_halfwidth=1, strike_threshold=2, q3_max=0, p3=0,
                         p2_range=(0, 0), q2_factor=0, memory_window=1,
                         v1_start=5e-324, defender_start_action=0,
                         attacker_start_action=0),
         seed=0)
def test_an_accepted_grid_never_overflows_the_circuit(grid, seed):
    """Random valid actions in `simulate`, and the priors in the lockstep,
    under numpy's strictest error handling but for underflow, which gives a
    finite value: every state, memory metric and reward of a grid that
    `GridParams` accepts is finite."""
    assume(grid is not None)
    random = {DEFENDER: lambda parents, rng: int(rng.integers(DEFENDER_ACTIONS)),
              ATTACKER: lambda parents, rng: int(rng.integers(ATTACKER_ACTIONS))}
    with np.errstate(all="raise", under="ignore"):
        for rec in simulate(grid, random, 30, np.random.default_rng(seed)):
            assert np.isfinite([*rec.state, rec.defender_memory.metric,
                                rec.attacker_memory.metric,
                                rec.defender_reward, rec.attacker_reward]).all()
        played, = NativeBattle(grid, 30).play(
            [(level0_policies(grid), 4, np.random.default_rng(seed))])
    assert np.isfinite([played[DEFENDER], played[ATTACKER]]).all()


@pytest.mark.parametrize("kwargs", [
    dict(r1=1e300),
    dict(x2=1e308),
    dict(r1=9.481e152, q3_max=0.7),
    dict(band_halfwidth=1e-160),  # a reward squares |V - 1| / band_halfwidth
    dict(tap_step=1e-300, v0=1e-10),  # the attacker's tap quotient only
    # p2 - p3 overflows, and r1 = 0 makes the bound NaN, as V2 would be
    dict(r1=0.0, r2=0.0, x1=0.0, x2=0.0, p3=-1e308, p2_range=(1e308, 1e308)),
    # q3_max * (k - 5) overflows for the attacker's outer levels, though
    # the line drop is 0 or tiny
    dict(x1=0.0, x2=0.0, q3_max=8e307),
    dict(x1=1e-300, x2=0.0, q3_max=8e307),
], ids=["r1", "x2", "r1-q3max", "band", "taps", "nan", "q3max", "q3max-x1"])
def test_grid_params_refuse_constants_that_can_overflow_the_circuit(kwargs):
    with pytest.raises(ValueError, match=r"^the grid's constants can overflow "
                       r"the circuit at q3_max=.*; these four must be < 1e150$"):
        GridParams(**kwargs)
