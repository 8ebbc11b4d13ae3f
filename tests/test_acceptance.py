"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The training-based criteria (7 and 8) dominate the
runtime at roughly two minutes each on one core.
"""

import time

import numpy as np
import pytest

from gridgame import levelk, netform, scenario
from gridgame.cli import main
from gridgame.experiment import config_from_dict, player_train_configs
from gridgame.levelk import TrainConfig, build_hierarchy, evaluate, train_level
from gridgame.neural import td_gradient
from gridgame.scenario import (ACTION_HOLD, ACTION_UP, ATTACKER, DEFENDER,
                               GridParams, as_netform, attacker_levels,
                               attacker_reward, defender_reward,
                               level0_attacker, level0_defender,
                               level0_policies, power_flow, simulate)
from oracles import (attacker_memory_metric, defender_memory_metric,
                     defender_move_domain)
from test_neural import finite_difference_gradient, random_network
from toy_games import (PLAYER, chain_game, chain_prior, single_state_game,
                       single_state_prior, value_iteration_chain,
                       value_iteration_single)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def d0_a0_scores(q3_max, seed, episodes=50, horizon=100):
    params = GridParams(q3_max=q3_max)
    game = as_netform(params, horizon=horizon)
    rng = np.random.default_rng([seed, 102, int(q3_max * 10 ** 6), 0, 0])
    rep = evaluate(game, level0_policies(params), episodes, rng)
    return rep


def test_criterion_01_physics_oracle():
    start = time.time()
    params = GridParams(q3_max=0.7)
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        p2, q2, p3, q3 = rng.uniform(-2, 2, size=4)
        v1 = rng.uniform(0.9, 1.1)
        flow = power_flow(p2, q2, p3, q3, v1, params)
        expected = (-p3, -q3, -p3 + p2, -q3 + q2)
        v2 = v1 - (params.r1 * expected[2] + params.x1 * expected[3])
        v3 = v2 - (params.r2 * expected[0] + params.x2 * expected[1])
        worst = max(worst,
                    abs(flow.P2 - expected[0]), abs(flow.Q2 - expected[1]),
                    abs(flow.P1 - expected[2]), abs(flow.Q1 - expected[3]),
                    abs(flow.V2 - v2), abs(flow.V3 - v3))
    one = power_flow(1.4, 0.7, 1.0, 0.0, 1.0, params)
    worst = max(worst, abs(one.P2 + 1), abs(one.Q2), abs(one.P1 - 0.4),
                abs(one.Q1 - 0.7), abs(one.V2 - 0.967), abs(one.V3 - 0.997))
    two = power_flow(1.5, 0.75, 1.0, 1.0, 1.02, params)
    worst = max(worst, abs(two.P2 + 1), abs(two.Q2 + 1), abs(two.P1 - 0.5),
                abs(two.Q1 + 0.25), abs(two.V2 - 1.0125), abs(two.V3 - 1.0725))
    zero = power_flow(0.0, 0.0, 0.0, 0.0, 1.0, params)
    worst = max(worst, abs(zero.V2 - 1.0), abs(zero.V3 - 1.0))
    elapsed = time.time() - start
    report(1, "physics-oracle", worst <= 1e-12 and elapsed < 1.0,
           f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_deterministic_layer_oracles():
    start = time.time()
    p = GridParams(q3_max=0.7)
    checks = []
    # rewards
    checks.append(defender_reward(1.0, 1.0, p) == 0.0)
    checks.append(abs(defender_reward(1.05, 0.95, p) + 2.0) <= 1e-12)
    checks.append(abs(defender_reward(0.967, 0.997, p) + 0.4392) <= 1e-12)
    checks.append(attacker_reward(1.00, p) == 0.0)
    checks.append(attacker_reward(1.06, p) == 1.0)
    checks.append(attacker_reward(0.93, p) == 1.0)
    # decision domains
    checks.append(defender_move_domain(1.00, p) == (0.98, 1.00, 1.02))
    checks.append(defender_move_domain(1.10, p) == (1.08, 1.10))
    checks.append(defender_move_domain(0.90, p) == (0.90, 0.92))
    levels = attacker_levels(p)
    checks.append(levels[5] == 0.0 and levels[0] == -0.7 and levels[10] == 0.7)
    checks.append(attacker_levels(GridParams(q3_max=0.0)) == (0.0,) * 11)
    # defender memory
    ramp = [1.0 + 0.01 * i for i in range(p.memory_window + 2)]
    checks.append(defender_memory_metric(ramp, ramp, p.memory_window) == 1.0)
    checks.append(defender_memory_metric(ramp, [2 - v for v in ramp],
                                         p.memory_window) == -1.0)
    checks.append(defender_memory_metric([1.00, 1.02, 1.00, 1.00],
                                         [0.99, 1.01, 1.02, 1.02], 2) == 0.0)
    # attacker memory
    frozen = GridParams(q3_max=0.7, p2_range=(1.4, 1.4))
    q3s = [0.0, 0.14, 0.28]
    v3s = [power_flow(1.4, 0.7, 1.0, q, 1.0, frozen).V3 for q in q3s]
    checks.append(attacker_memory_metric(v3s, q3s, frozen) == 0)
    taps = [power_flow(1.4, 0.7, 1.0, 0.14, v1, frozen).V3 for v1 in (1.0, 0.98)]
    checks.append(attacker_memory_metric(taps, [0.14, 0.14], frozen) == -1)
    checks.append(attacker_memory_metric([1.0] * 7, [0.0] * 7, p) == 0)
    # level-0 policies
    checks.append(level0_defender(1.0, 1.0, 1.0, p) == ACTION_HOLD)
    checks.append(level0_defender(1.00, 0.96, 0.99, p) == ACTION_UP)
    checks.append(level0_defender(1.10, 0.90, 0.93, p) == ACTION_HOLD)
    checks.append(level0_attacker(0.97, 0.7, p) == 0)
    checks.append(level0_attacker(0.98, 0.14, p) == 7)
    checks.append(level0_attacker(1.01, 0.0, GridParams(q3_max=0.2)) == 4)
    elapsed = time.time() - start
    report(2, "deterministic-layer-oracles",
           all(checks) and elapsed < 1.0,
           f"{sum(checks)}/{len(checks)} exact, {elapsed:.2f}s")


def test_criterion_03_gradient_check():
    start = time.time()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        spec, params = random_network(rng)
        x = rng.normal(size=spec.input_dim)
        action = int(rng.integers(spec.output_dim))
        target = float(rng.normal())
        analytic = td_gradient(params, x, action, target)
        numeric = finite_difference_gradient(params, x, action, target,
                                             step=1e-5)
        denom = max(np.abs(numeric).max(), 1e-8)
        worst = max(worst, np.abs(analytic - numeric).max() / denom)
    elapsed = time.time() - start
    report(3, "gradient-check", worst < 1e-4 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_quiescent_regime():
    start = time.time()
    params = GridParams(q3_max=0.2)
    rng = np.random.default_rng([1, 102, int(0.2 * 10 ** 6), 0, 0])
    attacker_total = 0.0
    v2_low, v2_high = np.inf, -np.inf
    for _ in range(50):
        records = simulate(params, level0_policies(params), 100, rng)
        attacker_total += sum(r.attacker_reward for r in records)
        v2s = [r.state.V2 for r in records]
        v2_low = min(v2_low, min(v2s))
        v2_high = max(v2_high, max(v2s))
    elapsed = time.time() - start
    ok = attacker_total == 0.0 and v2_low >= 0.95 and v2_high <= 1.05 \
        and elapsed < 5.0
    report(4, "quiescent-regime", ok,
           f"attacker total {attacker_total}, V2 in [{v2_low:.4f}, "
           f"{v2_high:.4f}], {elapsed:.1f}s")


def test_criterion_05_oscillation_regime():
    start = time.time()
    scores = [d0_a0_scores(1.6, seed).mean_reward_per_step[ATTACKER]
              for seed in (1, 2, 3)]
    elapsed = time.time() - start
    report(5, "oscillation-regime",
           all(s > 0.05 for s in scores) and elapsed < 10.0,
           f"attacker {['%.3f' % s for s in scores]}, {elapsed:.1f}s")


def test_criterion_06_monotonicity():
    grid = (0.2, 0.7, 1.2, 1.6)
    tolerance = 0.02
    rows = {seed: [d0_a0_scores(q, seed).mean_reward_per_step for q in grid]
            for seed in (1, 2, 3)}
    ok = True
    details = []
    for seed, series in rows.items():
        attacker = [s[ATTACKER] for s in series]
        defender = [s[DEFENDER] for s in series]
        att_ok = all(b >= a - tolerance for a, b in zip(attacker, attacker[1:]))
        def_ok = all(b <= a + tolerance for a, b in zip(defender, defender[1:]))
        ok = ok and att_ok and def_ok
        details.append(f"seed {seed}: A={['%.3f' % a for a in attacker]} "
                       f"D={['%.3f' % d for d in defender]}")
    report(6, "monotonicity-in-q3max", ok, "; ".join(details))


@pytest.fixture(scope="module")
def trained_d1_at_1_2():
    params = GridParams(q3_max=1.2)
    game = as_netform(params)
    level0s = level0_policies(params)
    config = config_from_dict({})
    cfg = player_train_configs(config)[DEFENDER]
    policies = []
    for seed in (1, 2, 3):
        policies.append(train_level(game, DEFENDER,
                                    {ATTACKER: level0s[ATTACKER]}, level0s,
                                    cfg, np.random.default_rng(seed)))
    return params, game, level0s, policies


def test_criterion_07_d1_training_gain(trained_d1_at_1_2):
    start = time.time()
    params, game, level0s, d1_policies = trained_d1_at_1_2
    base = evaluate(game, level0s, 50, np.random.default_rng(77))
    d0_score = base.mean_reward_per_step[DEFENDER]
    a0_vs_d0 = base.mean_reward_per_step[ATTACKER]
    d1_scores, a0_scores = [], []
    for seed, d1 in zip((1, 2, 3), d1_policies):
        rep = evaluate(game, {DEFENDER: d1, ATTACKER: level0s[ATTACKER]}, 50,
                       np.random.default_rng(10_000 + seed))
        d1_scores.append(rep.mean_reward_per_step[DEFENDER])
        a0_scores.append(rep.mean_reward_per_step[ATTACKER])
    required = d0_score + 0.25 * abs(d0_score)
    mean_d1 = float(np.mean(d1_scores))
    mean_a0_vs_d1 = float(np.mean(a0_scores))
    ok = mean_d1 >= required and mean_a0_vs_d1 < a0_vs_d0
    elapsed = time.time() - start
    report(7, "d1-training-gain", ok,
           f"D0 {d0_score:+.3f}, mean D1 {mean_d1:+.3f} (need >= "
           f"{required:+.3f}); A0-vs-D0 {a0_vs_d0:.3f} -> A0-vs-D1 "
           f"{mean_a0_vs_d1:.3f}; eval {elapsed:.0f}s")


def test_criterion_08_a1_training_gain():
    start = time.time()
    params = GridParams(q3_max=0.7)
    game = as_netform(params)
    level0s = level0_policies(params)
    config = config_from_dict({})
    cfg = player_train_configs(config)[ATTACKER]
    wins = 0
    scores = []
    for seed in (1, 2, 3):
        a1 = train_level(game, ATTACKER, {DEFENDER: level0s[DEFENDER]},
                         level0s, cfg, np.random.default_rng(seed))
        rep = evaluate(game, {DEFENDER: level0s[DEFENDER], ATTACKER: a1}, 50,
                       np.random.default_rng(10_000 + seed))
        scores.append(rep.mean_reward_per_step[ATTACKER])
        wins += scores[-1] > 0.01
    elapsed = time.time() - start
    report(8, "a1-training-gain", wins >= 2,
           f"A1 {['%.3f' % s for s in scores]}, {wins}/3 seeds > 0.01, "
           f"{elapsed:.0f}s")


def test_criterion_09_toy_mdp_sarsa_soundness():
    start = time.time()
    # continuing two-armed problem
    game = single_state_game(400)
    cfg = TrainConfig(episodes=800, gamma=0.9, learning_rate=1.0,
                      epsilon_start=0.5, epsilon_end=0.005, epsilon_decay=0.99,
                      optimistic_bias=10.0, init_scale=0.0, hidden_layers=())
    policy = train_level(game, PLAYER, {}, {PLAYER: single_state_prior()}, cfg,
                         np.random.default_rng(7))
    learned = policy.q_values(np.zeros(1))
    exact = value_iteration_single(0.9)
    single_rel = float(np.max(np.abs(learned - exact) / np.abs(exact)))
    single_ok = learned.argmax() == exact.argmax() and single_rel < 0.05
    # five-state chain; on-policy exploration decays, so value accuracy is
    # asserted on the greedy actions it converges along
    chain = chain_game(160)
    chain_cfg = TrainConfig(episodes=3500, gamma=0.65, learning_rate=0.65,
                            epsilon_start=0.5, epsilon_end=0.015,
                            epsilon_decay=0.9985, optimistic_bias=3.0,
                            init_scale=0.0, hidden_layers=())
    chain_policy = train_level(chain, PLAYER, {}, {PLAYER: chain_prior()},
                               chain_cfg, np.random.default_rng(7))
    q_exact = value_iteration_chain(0.65)
    q_learned = np.array([chain_policy.q_values(np.eye(5)[s]) for s in range(5)])
    greedy_ok = (q_learned.argmax(axis=1) == q_exact.argmax(axis=1)).all()
    chain_rel = max(abs(q_learned[s, q_learned[s].argmax()] - q_exact[s].max())
                    / q_exact[s].max() for s in range(5))
    chain_ok = bool(greedy_ok) and chain_rel < 0.05
    elapsed = time.time() - start
    report(9, "toy-mdp-sarsa-soundness",
           single_ok and chain_ok and elapsed < 30.0,
           f"single Q={np.round(learned, 2)} rel {single_rel:.3f}; chain "
           f"greedy ok={bool(greedy_ok)} rel {chain_rel:.3f}; {elapsed:.0f}s")


def test_criterion_10_hierarchy_bookkeeping(monkeypatch):
    params = GridParams(q3_max=0.7)
    game = as_netform(params, horizon=10)
    level0s = level0_policies(params)
    cfg = TrainConfig(episodes=2, hidden_layers=(4,))
    runs = []
    real_train = levelk.train_level

    def spy(game_, trainee, opponents, level0s_, config, rng):
        snapshots = {player: policy.params.to_vector().copy()
                     for player, policy in opponents.items()
                     if isinstance(policy, levelk.QPolicy)}
        result = real_train(game_, trainee, opponents, level0s_, config, rng)
        for player, before in snapshots.items():
            assert np.array_equal(opponents[player].params.to_vector(), before)
        runs.append((trainee, len(runs) // 2 + 1))
        return result

    monkeypatch.setattr(levelk, "train_level", spy)
    hierarchy = build_hierarchy(game, level0s, 2, cfg, np.random.default_rng(0))
    expected = [(DEFENDER, 1), (ATTACKER, 1), (DEFENDER, 2), (ATTACKER, 2)]
    ok = runs == expected and hierarchy.max_level == 2
    report(10, "hierarchy-bookkeeping", ok,
           f"runs {[f'{p[0]}{p[1]}' for p in runs]}")


def test_criterion_11_sweep_determinism(tmp_path):
    import json
    config = {
        "train": {"episodes": 1},
        "experiment": {"k_max": 0, "q3max_values": [0.2, 0.7],
                       "pairings": [[0, 0]], "eval_episodes": 5,
                       "horizon": 50, "seeds": [1, 2]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for run in ("one", "two"):
        code = main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path / run)])
        assert code == 0
    first = (tmp_path / "one" / "sweep.csv").read_bytes()
    second = (tmp_path / "two" / "sweep.csv").read_bytes()
    report(11, "sweep-determinism", first == second and len(first) > 0,
           f"{len(first)} bytes, byte-identical={first == second}")


def test_criterion_12_cross_oracle():
    params = GridParams(q3_max=0.7)
    game = as_netform(params, horizon=100)
    mismatches = 0
    for seed in range(10):
        traj = netform.rollout(game, level0_policies(params),
                               np.random.default_rng(seed))
        records = simulate(params, level0_policies(params), 100,
                           np.random.default_rng(seed))
        for t, rec in enumerate(records):
            same = (
                traj.slices[t][scenario.STATE_NODE] == rec.state
                and traj.slices[t][scenario.DEFENDER_MEMORY_NODE]
                == rec.defender_memory
                and traj.slices[t][scenario.ATTACKER_MEMORY_NODE]
                == rec.attacker_memory
                and traj.rewards[DEFENDER][t] == rec.defender_reward
                and traj.rewards[ATTACKER][t] == rec.attacker_reward)
            if not same:
                mismatches += 1
    report(12, "netform-native-cross-oracle", mismatches == 0,
           f"10 seeds x 100 slices, {mismatches} mismatches")
