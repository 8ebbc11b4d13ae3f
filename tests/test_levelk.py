import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridgame import levelk, neural
from gridgame.levelk import (FeatureEncoder, QPolicy, TrainConfig,
                             Transition, build_hierarchy, epsilon_schedule,
                             episode_transitions, evaluate, select_action,
                             semi_batch_update, train_level)
from gridgame.neural import NetworkParams, NetworkSpec
from toy_games import PLAYER, single_state_game, single_state_prior

from gridgame import scenario
from gridgame.scenario import ATTACKER, DEFENDER, GridParams


def fixed_q_policy(q_values, epsilon=0.0):
    """QPolicy whose network always outputs `q_values` (zero-weight net)."""
    q_values = np.asarray(q_values, dtype=float)
    spec = NetworkSpec(1, (), q_values.size)
    params = NetworkParams([np.zeros((q_values.size, 1))], [q_values.copy()])
    encoder = FeatureEncoder(1, lambda parents: np.zeros(1))
    return QPolicy(spec, params, epsilon, encoder, q_values.size)


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------

def test_epsilon_schedule_starts_at_epsilon_start():
    cfg = TrainConfig(epsilon_start=0.4, epsilon_end=0.05, epsilon_decay=0.99)
    assert epsilon_schedule(0, cfg) == 0.4


def test_epsilon_schedule_constant_when_decay_is_one():
    cfg = TrainConfig(epsilon_start=0.3, epsilon_end=0.1, epsilon_decay=1.0)
    assert all(epsilon_schedule(i, cfg) == 0.3 for i in (0, 10, 5000))


def test_epsilon_schedule_exponential_value():
    cfg = TrainConfig(epsilon_start=0.5, epsilon_end=0.01, epsilon_decay=0.999)
    expected = 0.01 + 0.49 * 0.999 ** 2000
    assert epsilon_schedule(2000, cfg) == pytest.approx(expected, abs=1e-15)
    assert epsilon_schedule(2000, cfg) == pytest.approx(0.0763, abs=5e-4)


def test_epsilon_schedule_monotone_non_increasing():
    rng = np.random.default_rng(0)
    for _ in range(50):
        end = float(rng.uniform(0, 0.5))
        start = float(rng.uniform(end, 1.0))
        cfg = TrainConfig(epsilon_start=start, epsilon_end=end,
                          epsilon_decay=float(rng.uniform(0, 1)))
        values = [epsilon_schedule(i, cfg) for i in range(300)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epsilon_start=0.1, epsilon_end=0.5)
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------

def test_select_action_pure_argmax():
    policy = fixed_q_policy([1.0, 3.0, 2.0])
    rng = np.random.default_rng(0)
    assert select_action(policy, np.zeros(1), rng) == 1


def test_select_action_tie_breaks_to_lowest_index():
    policy = fixed_q_policy([2.0, 2.0, 1.0])
    rng = np.random.default_rng(0)
    assert select_action(policy, np.zeros(1), rng) == 0


def test_select_action_fully_random_is_uniform():
    policy = fixed_q_policy([5.0, 0.0, 0.0], epsilon=1.0)
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    draws = 100_000
    for _ in range(draws):
        counts[select_action(policy, np.zeros(1), rng)] += 1
    freq = counts / draws
    assert np.abs(freq - 1 / 3).max() < 0.01


# ---------------------------------------------------------------------------
# semi-batch update
# ---------------------------------------------------------------------------

def test_semi_batch_empty_is_identity():
    policy = fixed_q_policy([1.0, 2.0])
    updated = semi_batch_update(policy.params, [], 0.9, 0.1)
    assert updated is policy.params


def test_semi_batch_zero_residual_no_change():
    policy = fixed_q_policy([1.0, 2.0])
    feats = np.zeros(1)
    # terminal transition with target equal to the current Q-value
    tr = Transition(feats, 1, 2.0, feats, 0, True)
    updated = semi_batch_update(policy.params, [tr], 0.9, 0.1)
    assert updated.equals(policy.params)


def test_semi_batch_two_transition_hand_example():
    # one linear unit: Q(s) = w*s + b with w=0.5, b=0.2; gamma=0.5, lr=0.1
    params = NetworkParams([np.array([[0.5]])], [np.array([0.2])])
    t1 = Transition(np.array([1.0]), 0, 1.0, np.array([2.0]), 0, False)
    t2 = Transition(np.array([2.0]), 0, 0.0, np.array([1.0]), 0, True)
    # targets against pre-update params: t1 -> 1 + 0.5*Q(2)=1.6; t2 -> 0
    # residuals: 1.6 - 0.7 = 0.9 ; 0.0 - 1.2 = -1.2
    # grads: (-0.9*1, -0.9) and (1.2*2, 1.2); mean (0.75, 0.15)
    updated = semi_batch_update(params, [t1, t2], 0.5, 0.1)
    assert updated.weights[0][0, 0] == pytest.approx(0.5 - 0.1 * 0.75, abs=1e-15)
    assert updated.biases[0][0] == pytest.approx(0.2 - 0.1 * 0.15, abs=1e-15)


def test_semi_batch_targets_use_pre_update_network():
    # two identical non-terminal transitions: both targets must be computed
    # from the same (initial) network, so the update is exactly twice the
    # single-transition average gradient direction.
    params = NetworkParams([np.array([[0.0]])], [np.array([1.0])])
    tr = Transition(np.array([1.0]), 0, 0.5, np.array([1.0]), 0, False)
    updated_pair = semi_batch_update(params, [tr, tr], 0.8, 0.1)
    updated_single = semi_batch_update(params, [tr], 0.8, 0.1)
    assert updated_pair.equals(updated_single)


def loop_semi_batch_update(params, transitions, gamma, learning_rate):
    """Per-transition reference for `semi_batch_update`: one forward and one
    single-input `td_gradient` call per transition, summed in order."""
    if not transitions:
        return params
    total = np.zeros(params.to_vector().shape)
    for tr in transitions:
        if tr.terminal:
            target = tr.r
        else:
            target = tr.r + gamma * float(neural.forward(params, tr.s_next)[tr.a_next])
        if not math.isfinite(target):
            raise levelk.TrainingDiverged(f"non-finite TD target {target!r}")
        total += neural.td_gradient(params, tr.s, tr.a, target)
    return neural.apply_update(params, total / len(transitions), learning_rate)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40),
       hidden=st.lists(st.integers(1, 8), max_size=3),
       gamma=st.floats(0.0, 0.99), learning_rate=st.floats(1e-3, 1.0))
@example(seed=7, steps=5, hidden=[], gamma=0.9, learning_rate=0.1)
def test_semi_batch_matches_per_transition_loop(seed, steps, hidden, gamma,
                                                learning_rate):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(int(rng.integers(1, 6)), tuple(hidden),
                       int(rng.integers(1, 5)))
    params = neural.init(spec, 0.8, float(rng.normal()), rng)
    transitions = [
        Transition(rng.normal(size=spec.input_dim),
                   int(rng.integers(spec.output_dim)), float(rng.normal()),
                   rng.normal(size=spec.input_dim),
                   int(rng.integers(spec.output_dim)), bool(rng.integers(2)))
        for _ in range(steps)]
    batched = semi_batch_update(params, transitions, gamma, learning_rate)
    looped = loop_semi_batch_update(params, transitions, gamma, learning_rate)
    assert np.abs(batched.to_vector() - looped.to_vector()).max() <= 1e-12
    # Targets come from the pre-update network, so repeating a transition
    # leaves the averaged step as it is (bit for bit only where, as in
    # test_semi_batch_targets_use_pre_update_network, no sum is reordered).
    tr = transitions[0]
    twice = semi_batch_update(params, [tr, tr], gamma, learning_rate)
    once = semi_batch_update(params, [tr], gamma, learning_rate)
    assert np.abs(twice.to_vector() - once.to_vector()).max() <= 1e-12


def test_non_finite_target_raises():
    policy = fixed_q_policy([1.0, 2.0])
    tr = Transition(np.zeros(1), 0, float("inf"), np.zeros(1), 0, True)
    with pytest.raises(levelk.TrainingDiverged):
        semi_batch_update(policy.params, [tr], 0.9, 0.1)


def test_episode_transitions_pairing_and_rewards():
    records = [(np.array([float(i)]), i % 2) for i in range(4)]
    rewards = [10.0, 11.0, 12.0, 13.0]
    transitions = episode_transitions(records, rewards)
    assert len(transitions) == 3
    assert [tr.r for tr in transitions] == [11.0, 12.0, 13.0]
    assert [tr.terminal for tr in transitions] == [False, False, True]
    assert transitions[0].a == 0 and transitions[0].a_next == 1
    with pytest.raises(ValueError):
        episode_transitions(records[:3], rewards)


# ---------------------------------------------------------------------------
# train_level mechanics
# ---------------------------------------------------------------------------

def test_zero_episodes_returns_optimistic_policy():
    game = single_state_game(10)
    cfg = TrainConfig(episodes=0, optimistic_bias=7.5, init_scale=0.0,
                      hidden_layers=(4,), epsilon_eval=0.0)
    policy = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                         np.random.default_rng(0))
    assert np.array_equal(policy.q_values(np.zeros(1)), [7.5, 7.5])
    assert policy.epsilon == 0.0


def test_train_level_is_deterministic_given_seed():
    game = single_state_game(20)
    cfg = TrainConfig(episodes=5, hidden_layers=(4,), optimistic_bias=1.0)
    a = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                    np.random.default_rng(3))
    b = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                    np.random.default_rng(3))
    assert a.params.equals(b.params)


def test_train_config_horizon_overrides_game_horizon():
    game = single_state_game(50)
    prior = single_state_prior()
    short = TrainConfig(episodes=1, horizon=7, hidden_layers=())
    a = train_level(game, PLAYER, {}, {PLAYER: prior}, short,
                    np.random.default_rng(0))
    b = train_level(game, PLAYER, {}, {PLAYER: prior}, short,
                    np.random.default_rng(0))
    assert a.params.equals(b.params)
    full = TrainConfig(episodes=1, hidden_layers=())
    c = train_level(game, PLAYER, {}, {PLAYER: prior}, full,
                    np.random.default_rng(0))
    assert not a.params.equals(c.params)


def test_opponent_parameters_untouched_by_training():
    params = GridParams(q3_max=0.7)
    game = scenario.as_netform(params, horizon=10)
    level0s = scenario.level0_policies(params)
    opponent = QPolicy(NetworkSpec(6, (), 11),
                       NetworkParams([np.zeros((11, 6))], [np.arange(11.0)]),
                       0.0, scenario.attacker_feature_encoder(params), 11)
    before = opponent.params.copy()
    cfg = TrainConfig(episodes=3, hidden_layers=(4,))
    train_level(game, DEFENDER, {ATTACKER: opponent}, level0s, cfg,
                np.random.default_rng(0))
    assert opponent.params.equals(before)


# ---------------------------------------------------------------------------
# hierarchy bookkeeping
# ---------------------------------------------------------------------------

def _tiny_scenario_game():
    params = GridParams(q3_max=0.7)
    return scenario.as_netform(params, horizon=5), scenario.level0_policies(params)


def test_hierarchy_k0_contains_only_level0(monkeypatch):
    game, level0s = _tiny_scenario_game()
    hierarchy = build_hierarchy(game, level0s, 0, TrainConfig(episodes=1),
                                np.random.default_rng(0))
    assert hierarchy.max_level == 0
    assert hierarchy.policy(DEFENDER, 0) is level0s[DEFENDER]
    assert hierarchy.policy(ATTACKER, 0) is level0s[ATTACKER]


def test_hierarchy_training_count_and_order(monkeypatch):
    game, level0s = _tiny_scenario_game()
    runs = []

    def fake_train(game_, trainee, opponents, level0s_, config, rng):
        runs.append((trainee, {k: v for k, v in opponents.items()}))
        return f"{trainee}_L{len(runs)}"

    monkeypatch.setattr(levelk, "train_level", fake_train)
    hierarchy = build_hierarchy(game, level0s, 2, TrainConfig(),
                                np.random.default_rng(0))
    assert [player for player, _ in runs] == [DEFENDER, ATTACKER,
                                              DEFENDER, ATTACKER]
    # K=1 trainings face the stored level-0s; K=2 the stored level-1s
    assert runs[0][1][ATTACKER] is level0s[ATTACKER]
    assert runs[1][1][DEFENDER] is level0s[DEFENDER]
    assert runs[2][1][ATTACKER] == hierarchy.policy(ATTACKER, 1)
    assert runs[3][1][DEFENDER] == hierarchy.policy(DEFENDER, 1)


def test_hierarchy_k1_two_runs(monkeypatch):
    game, level0s = _tiny_scenario_game()
    runs = []
    monkeypatch.setattr(
        levelk, "train_level",
        lambda g, trainee, opp, l0, cfg, rng: runs.append(trainee) or trainee)
    build_hierarchy(game, level0s, 1, TrainConfig(), np.random.default_rng(0))
    assert runs == [DEFENDER, ATTACKER]


def test_hierarchy_accepts_per_player_configs(monkeypatch):
    game, level0s = _tiny_scenario_game()
    seen = {}

    def fake_train(game_, trainee, opponents, level0s_, config, rng):
        seen[trainee] = config.optimistic_bias
        return trainee

    monkeypatch.setattr(levelk, "train_level", fake_train)
    configs = {DEFENDER: TrainConfig(optimistic_bias=0.0),
               ATTACKER: TrainConfig(optimistic_bias=40.0)}
    build_hierarchy(game, level0s, 1, configs, np.random.default_rng(0))
    assert seen == {DEFENDER: 0.0, ATTACKER: 40.0}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_zero_reward_game():
    game = single_state_game(10)
    game = type(game)(game.base, game.kernel, game.binding, game.horizon,
                      {PLAYER: lambda inst: 0.0})
    report = evaluate(game, {PLAYER: single_state_prior()}, 4,
                      np.random.default_rng(0))
    assert report.mean_reward_per_step[PLAYER] == 0.0
    assert report.per_episode[PLAYER] == [0.0] * 4


def test_evaluate_single_episode_equals_rollout_mean():
    game = single_state_game(25)
    policy = fixed_q_policy([0.0, 1.0])  # greedy always plays action 1
    report = evaluate(game, {PLAYER: policy}, 1, np.random.default_rng(5))
    from gridgame.netform import rollout
    traj = rollout(game, {PLAYER: policy.greedy_copy()}, np.random.default_rng(5))
    assert report.per_episode[PLAYER][0] == pytest.approx(
        sum(traj.rewards[PLAYER]) / game.horizon, abs=0)


def test_evaluate_same_seed_identical_report():
    params = GridParams(q3_max=1.2)
    game = scenario.as_netform(params, horizon=20)
    level0s = scenario.level0_policies(params)
    a = evaluate(game, level0s, 5, np.random.default_rng(11))
    b = evaluate(game, level0s, 5, np.random.default_rng(11))
    assert a.mean_reward_per_step == b.mean_reward_per_step
    assert a.per_episode == b.per_episode


def test_evaluate_uses_greedy_copies_without_mutating_inputs():
    policy = fixed_q_policy([0.0, 1.0], epsilon=0.7)
    game = single_state_game(10)
    evaluate(game, {PLAYER: policy}, 2, np.random.default_rng(0))
    assert policy.epsilon == 0.7


def test_evaluate_reward_accounting_against_recomputation():
    params = GridParams(q3_max=1.6)
    game = scenario.as_netform(params, horizon=30)
    level0s = scenario.level0_policies(params)
    report = evaluate(game, level0s, 6, np.random.default_rng(21))
    from gridgame.netform import rollout
    rng = np.random.default_rng(21)
    for episode in range(6):
        traj = rollout(game, level0s, rng)
        for player in (DEFENDER, ATTACKER):
            expected = sum(traj.rewards[player]) / game.horizon
            assert report.per_episode[player][episode] == expected


def test_evaluate_requires_positive_episodes():
    game = single_state_game(5)
    with pytest.raises(ValueError):
        evaluate(game, {PLAYER: single_state_prior()}, 0,
                 np.random.default_rng(0))
