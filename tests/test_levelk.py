import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridgame import levelk, neural
from gridgame.levelk import (PriorPolicy, QPolicy, TrainConfig,
                             build_hierarchy, epsilon_schedule, evaluate,
                             select_action, semi_batch_update, train_level)
from gridgame.netform import (FiniteDiscrete, IteratedGame, SemiBayesNet,
                              boundary_kernel, chance, constant_kernel,
                              decision)
from gridgame.neural import NetworkParams, NetworkSpec
from oracles import assert_draws_nothing, params_equal
from toy_games import PLAYER, single_state_game, single_state_prior

from gridgame import scenario
from gridgame.scenario import ATTACKER, DEFENDER, GridParams


def fixed_q_policy(q_values):
    """QPolicy whose network always outputs `q_values` (zero-weight net)."""
    q_values = np.asarray(q_values, dtype=float)
    params = NetworkParams([np.zeros((q_values.size, 1))], [q_values.copy()])
    return QPolicy(params, lambda parents: np.zeros(1))


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
    assert select_action(policy.params, 0.0, np.zeros(1), rng) == 1


def test_select_action_tie_breaks_to_lowest_index():
    policy = fixed_q_policy([2.0, 2.0, 1.0])
    rng = np.random.default_rng(0)
    assert select_action(policy.params, 0.0, np.zeros(1), rng) == 0


def test_select_action_fully_random_is_uniform():
    policy = fixed_q_policy([5.0, 0.0, 0.0])
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    draws = 100_000
    for _ in range(draws):
        counts[select_action(policy.params, 1.0, np.zeros(1), rng)] += 1
    freq = counts / draws
    assert np.abs(freq - 1 / 3).max() < 0.01


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       hidden=st.lists(st.integers(1, 6), max_size=2))
def test_select_action_at_epsilon_zero_is_the_greedy_policy(seed, hidden):
    # Training's step at epsilon 0 plays exactly what the trained policy
    # plays, and neither draws from the rng.
    net_rng = np.random.default_rng(seed)
    spec = NetworkSpec(int(net_rng.integers(1, 6)), tuple(hidden),
                       int(net_rng.integers(1, 6)))
    params = neural.init(spec, 1.0, float(net_rng.normal()), net_rng)
    policy = QPolicy(params, lambda parents: parents["x"])
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    for _ in range(20):
        x = net_rng.normal(size=spec.input_dim)
        assert select_action(params, 0.0, x, rng) == policy({"x": x}, rng)
    assert rng.bit_generator.state == state


def test_q_policy_is_frozen():
    policy = fixed_q_policy([1.0, 2.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.params = fixed_q_policy([2.0, 1.0]).params


# ---------------------------------------------------------------------------
# semi-batch update
# ---------------------------------------------------------------------------

def test_semi_batch_empty_is_identity():
    policy = fixed_q_policy([1.0, 2.0])
    # one decision point and no reward: no transition
    updated = semi_batch_update(policy.params, np.zeros((1, 1)), [0], [],
                                0.9, 0.1)
    assert updated is policy.params


def test_semi_batch_zero_residual_no_change():
    policy = fixed_q_policy([1.0, 2.0])
    feats = np.zeros((2, 1))
    # terminal transition with target equal to the current Q-value
    updated = semi_batch_update(policy.params, feats, [1, 0], [2.0], 0.9, 0.1)
    assert params_equal(updated, policy.params)


def test_semi_batch_two_transition_hand_example():
    # one linear unit: Q(s) = w*s + b with w=0.5, b=0.2; gamma=0.5, lr=0.1
    params = NetworkParams([np.array([[0.5]])], [np.array([0.2])])
    # transitions s=1 -> s'=2 (reward 1) and the terminal s=2 -> 1 (reward 0)
    features = np.array([[1.0], [2.0], [1.0]])
    # targets against pre-update params: t1 -> 1 + 0.5*Q(2)=1.6; t2 -> 0
    # residuals: 1.6 - 0.7 = 0.9 ; 0.0 - 1.2 = -1.2
    # grads: (-0.9*1, -0.9) and (1.2*2, 1.2); mean (0.75, 0.15)
    updated = semi_batch_update(params, features, [0, 0, 0], [1.0, 0.0],
                                0.5, 0.1)
    assert updated.weights[0][0, 0] == pytest.approx(0.5 - 0.1 * 0.75, abs=1e-15)
    assert updated.biases[0][0] == pytest.approx(0.2 - 0.1 * 0.15, abs=1e-15)


def test_semi_batch_targets_use_pre_update_network():
    # A non-terminal transition whose target r + gamma * Q(s', a') equals the
    # terminal one's bare reward, from and to the same state: both targets
    # and both gradients must come from the same (initial) network, so the
    # pair's averaged update is exactly the single terminal transition's.
    params = NetworkParams([np.array([[0.0]])], [np.array([1.0])])
    # Q = 1 everywhere: 0.0 + 0.5 * 1.0 == 0.5 exactly
    updated_pair = semi_batch_update(params, np.ones((3, 1)), [0, 0, 0],
                                     [0.0, 0.5], 0.5, 0.1)
    updated_single = semi_batch_update(params, np.ones((2, 1)), [0, 0],
                                       [0.5], 0.5, 0.1)
    assert params_equal(updated_pair, updated_single)


def loop_semi_batch_update(params, features, actions, rewards, gamma,
                           learning_rate):
    """Per-transition reference for `semi_batch_update`: transition i goes
    from decision point i to i+1 and earns rewards[i], the last one is
    terminal; one forward and one single-input `td_gradient` call per
    transition, summed in order."""
    if not len(rewards):
        return params
    total = np.zeros(params.to_vector().shape)
    for i, r in enumerate(rewards):
        if i == len(rewards) - 1:
            target = r
        else:
            q_next = neural.forward(params, features[i + 1])
            target = r + gamma * float(q_next[actions[i + 1]])
        if not math.isfinite(target):
            raise levelk.TrainingDiverged(f"non-finite TD target {target!r}")
        total += neural.td_gradient(params, features[i], actions[i], target)
    return neural.apply_update(params, total / len(rewards), learning_rate)


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
    # steps + 1 decision points, steps rewards
    features = rng.normal(size=(steps + 1, spec.input_dim))
    actions = [int(a) for a in rng.integers(spec.output_dim, size=steps + 1)]
    rewards = [float(r) for r in rng.normal(size=steps)]
    batched = semi_batch_update(params, features, actions, rewards, gamma,
                                learning_rate)
    looped = loop_semi_batch_update(params, features, actions, rewards, gamma,
                                    learning_rate)
    assert np.abs(batched.to_vector() - looped.to_vector()).max() <= 1e-12
    # Targets come from the pre-update network, so repeating a transition
    # leaves the averaged step as it is (bit for bit only where, as in
    # test_semi_batch_targets_use_pre_update_network, no sum is reordered):
    # the first transition, then once more as the terminal one with its
    # bootstrapped target as the bare reward.
    s, a, r = features[0], actions[0], rewards[0]
    target = r + gamma * float(neural.forward(params, s)[a])
    twice = semi_batch_update(params, np.array([s, s, s]), [a, a, a],
                              [r, target], gamma, learning_rate)
    once = semi_batch_update(params, np.array([s, s]), [a, a], [target],
                             gamma, learning_rate)
    assert np.abs(twice.to_vector() - once.to_vector()).max() <= 1e-12


def test_semi_batch_needs_one_more_decision_than_rewards():
    policy = fixed_q_policy([1.0, 2.0])
    with pytest.raises(ValueError, match="need 3 of each"):
        semi_batch_update(policy.params, np.zeros((2, 1)), [0, 0], [1.0, 1.0],
                          0.9, 0.1)
    with pytest.raises(ValueError, match="need 2 of each"):
        semi_batch_update(policy.params, np.zeros((2, 1)), [0], [1.0],
                          0.9, 0.1)


def test_non_finite_target_raises():
    policy = fixed_q_policy([1.0, 2.0])
    with pytest.raises(levelk.TrainingDiverged):
        semi_batch_update(policy.params, np.zeros((2, 1)), [0, 0],
                          [float("inf")], 0.9, 0.1)


def clock_game(horizon):
    """Kernel slice i (from 0) shows the trainee the feature [i] and pays it
    10 + i."""
    clock = FiniteDiscrete(horizon + 1)
    kernel = SemiBayesNet([
        chance("clock_prev", clock, boundary_kernel("clock_prev")),
        chance("clock", clock, lambda parents, rng: parents["clock_prev"] + 1,
               parents=("clock_prev",)),
        decision("action", FiniteDiscrete(2), PLAYER, parents=("clock",)),
    ])
    base = SemiBayesNet([chance("clock", clock, constant_kernel(0))])
    game = IteratedGame(base, kernel, {"clock": "clock_prev"}, horizon,
                        {PLAYER: lambda inst: 9.0 + inst["clock"]})
    return game, PriorPolicy(
        2, 1, lambda parents: np.array([parents["clock"] - 1.0]),
        lambda parents, rng: 0)


def test_episode_transitions_pairing_and_rewards(monkeypatch):
    # train_level hands semi_batch_update every decision point of the
    # episode and the rewards from the second slice on: the decision at
    # slice t earns the reward of slice t+1, and the last decision only
    # bootstraps the terminal transition.
    seen = []

    def spy(params, features, actions, rewards, gamma, learning_rate):
        seen.append((features, list(actions), list(rewards)))
        return real_update(params, features, actions, rewards, gamma,
                           learning_rate)

    real_update = levelk.semi_batch_update
    monkeypatch.setattr(levelk, "semi_batch_update", spy)
    monkeypatch.setattr(levelk, "select_action",
                        lambda params, epsilon, features, rng: int(features[0]) % 2)
    game, prior = clock_game(4)
    config = TrainConfig(episodes=1, hidden_layers=())
    train_level(game, PLAYER, {}, {PLAYER: prior}, config,
                np.random.default_rng(0))
    ((features, actions, rewards),) = seen
    assert len(rewards) == 3
    assert rewards == [11.0, 12.0, 13.0]
    assert np.array_equal(features, [[0.0], [1.0], [2.0], [3.0]])
    # transition i runs from row i to row i+1, so the last decision point is
    # only the s' of the last, terminal transition (whose bare-reward target
    # test_semi_batch_two_transition_hand_example checks)
    assert len(features) == len(actions) == len(rewards) + 1
    assert actions[0] == 0 and actions[1] == 1
    # a game that scores one slice fewer than the trainee decided in
    play = IteratedGame.play
    monkeypatch.setattr(IteratedGame, "play", lambda *args: [
        [{player: rewards[:-1] for player, rewards in episode.items()}
         for episode in match] for match in play(*args)])
    with pytest.raises(ValueError, match="4 decision records for 3 slices"):
        train_level(game, PLAYER, {}, {PLAYER: prior}, config,
                    np.random.default_rng(0))


# ---------------------------------------------------------------------------
# train_level mechanics
# ---------------------------------------------------------------------------

def test_zero_episodes_returns_optimistic_policy():
    game = single_state_game(10)
    cfg = TrainConfig(episodes=0, optimistic_bias=7.5, init_scale=0.0,
                      hidden_layers=(4,))
    policy = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                         np.random.default_rng(0))
    assert np.array_equal(policy.q_values(np.zeros(1)), [7.5, 7.5])


@pytest.mark.parametrize("player", [DEFENDER, ATTACKER])
def test_trained_policy_never_draws_from_the_rng(player):
    grid = GridParams(q3_max=0.7)
    level0s = scenario.level0_policies(grid)
    opponents = {other: level0s[other] for other in level0s if other != player}
    policy = train_level(scenario.as_netform(grid, horizon=10), player,
                         opponents, level0s,
                         TrainConfig(episodes=3, hidden_layers=(4,)),
                         np.random.default_rng(0))
    assert_draws_nothing(policy, grid, player)


def test_train_level_is_deterministic_given_seed():
    game = single_state_game(20)
    cfg = TrainConfig(episodes=5, hidden_layers=(4,), optimistic_bias=1.0)
    a = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                    np.random.default_rng(3))
    b = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                    np.random.default_rng(3))
    assert params_equal(a.params, b.params)


def test_opponent_parameters_untouched_by_training():
    params = GridParams(q3_max=0.7)
    game = scenario.as_netform(params, horizon=10)
    level0s = scenario.level0_policies(params)
    opponent = QPolicy(NetworkParams([np.zeros((11, 6))], [np.arange(11.0)]),
                       level0s[ATTACKER].encoder)
    before = opponent.params.to_vector().copy()
    cfg = TrainConfig(episodes=3, hidden_layers=(4,))
    train_level(game, DEFENDER, {ATTACKER: opponent}, level0s, cfg,
                np.random.default_rng(0))
    assert np.array_equal(opponent.params.to_vector(), before)


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
    traj = rollout(game, {PLAYER: policy}, np.random.default_rng(5))
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


def _spy_on_play_episodes(monkeypatch):
    """The episodes of every `NativeBattle.play` call, summed over its
    matches."""
    calls = []
    play = scenario.NativeBattle.play
    monkeypatch.setattr(scenario.NativeBattle, "play",
                        lambda game, matches: (
                            calls.append(sum(n for _, n, _ in matches)),
                            play(game, matches))[1])
    return calls


def test_evaluate_plays_in_blocks_with_the_bytes_of_one_play(monkeypatch):
    """`evaluate` asks `play` for at most 1,000 episodes at a time, which
    bounds its memory, and reports what one unblocked call gives."""
    grid = GridParams(q3_max=0.7)
    game, level0s = scenario.NativeBattle(grid, 3), scenario.level0_policies(grid)
    calls = _spy_on_play_episodes(monkeypatch)
    block_rng, whole_rng = np.random.default_rng(5), np.random.default_rng(5)
    blocked = evaluate(game, level0s, 2500, block_rng)
    assert calls == [1000, 1000, 500]
    monkeypatch.setattr(levelk, "_PLAY_BLOCK", 2500)
    whole = evaluate(game, level0s, 2500, whole_rng)
    assert calls[3:] == [2500]
    assert repr(blocked) == repr(whole)
    assert block_rng.bit_generator.state == whole_rng.bit_generator.state


def test_evaluate_requires_positive_episodes():
    game = single_state_game(5)
    with pytest.raises(ValueError):
        evaluate(game, {PLAYER: single_state_prior()}, 0,
                 np.random.default_rng(0))
