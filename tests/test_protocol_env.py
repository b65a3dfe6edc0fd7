"""Protocol-construction environment: episode mechanics and reward wiring."""

import dataclasses

import numpy as np
import pytest

from qmridesign import AcquisitionProtocol, CohortSpec, EvalConfig, ScannerConfig, SimulationEnv, Task
from qmridesign.config import default_tissue_path, load_tissue_distributions
from qmridesign.ivim import ADHOC_B_VALUES
from qmridesign.protocol_env import B_STEP, N_ACTIONS, OBSERVATION_SIZE, ProtocolEnv, StepAfterDoneError


@pytest.fixture
def env():
    sim_env = SimulationEnv(
        distributions=load_tissue_distributions(default_tissue_path()),
        cohort_spec=CohortSpec(),
        scanner=ScannerConfig(),
    )
    eval_config = dataclasses.replace(EvalConfig(), n_repeats_reward=1)
    return ProtocolEnv(sim_env, Task.MULTICLASS, eval_config, master_seed=77)


def test_observation_encoding_at_reset(env):
    obs = env.reset()
    assert obs.shape == (OBSERVATION_SIZE,)
    np.testing.assert_allclose(obs[:10], np.asarray(ADHOC_B_VALUES) / 1000.0)
    assert obs[0] == 0.0          # pinned b = 0 slot
    assert obs[10] == pytest.approx(0.1)   # cursor 1/10
    assert obs[11] == pytest.approx(25.0 / 50.0)
    assert np.all((obs >= 0.0) & (obs <= 1.0))


def test_reset_is_deterministic(env):
    a = env.reset()
    b = env.reset()
    np.testing.assert_array_equal(a, b)


def test_episode_is_nine_decisions_with_sparse_reward(env):
    env.reset()
    rewards = []
    for step in range(9):
        obs, reward, done, info = env.step(10 + step)
        rewards.append(reward)
        assert done == (step == 8)
    assert rewards[:-1] == [0.0] * 8
    assert 0.0 <= rewards[-1] <= 1.0
    assert "b_values" in info
    assert info["b_values"][0] == 0.0
    assert info["b_values"] == tuple(sorted(info["b_values"]))


def test_step_after_done_raises(env):
    env.reset()
    for step in range(9):
        env.step(10)
    with pytest.raises(StepAfterDoneError):
        env.step(10)


def test_action_range_checked(env):
    env.reset()
    with pytest.raises(ValueError):
        env.step(N_ACTIONS)
    with pytest.raises(ValueError):
        env.step(-1)


def test_action_writes_b_step_times_its_index(env):
    """Action a writes b = B_STEP * a: the grid 0, 10, ..., 1000 s/mm^2 with
    its 101 actions; 101 and -1 are refused."""
    assert N_ACTIONS == 101
    env.reset()
    obs, _, _, _ = env.step(100)
    assert obs[1] == 1.0  # slot 1 holds b = 1000
    for action in (0, 37, 1, 99, 50, 100, 7):
        env.step(action)
    _, _, done, info = env.step(63)
    assert done
    assert info["b_values"] == (0.0, 0.0, 10.0, 70.0, 370.0, 500.0, 630.0, 990.0, 1000.0, 1000.0)
    assert all(b % B_STEP == 0.0 for b in info["b_values"])
    env.reset()
    for refused in (101, -1):
        with pytest.raises(ValueError):
            env.step(refused)


def test_replay_reproduces_reward(env):
    actions = [90, 4, 23, 51, 70, 12, 83, 6, 38]
    env.reset()
    for a in actions[:-1]:
        env.step(a)
    _, first, _, info = env.step(actions[-1])
    first_episode = info["episode"]

    # fresh env, same seed: episode 1 replayed with the same actions
    sim_env = env.sim_env
    replay = ProtocolEnv(env.sim_env, env.task, env.eval_config, master_seed=77)
    replay.reset()
    for a in actions[:-1]:
        replay.step(a)
    _, again, _, info2 = replay.step(actions[-1])
    assert info2["episode"] == first_episode
    assert again == first


def test_rewards_vary_across_episodes(env):
    actions = [15, 25, 35, 45, 55, 65, 75, 85, 95]
    env.reset()
    terminal = []
    for _ in range(3):
        for a in actions[:-1]:
            env.step(a)
        _, reward, _, _ = env.step(actions[-1])
        terminal.append(reward)
        env.reset()
    assert len(set(terminal)) > 1  # fresh cohort draws per episode


def test_snr_above_scale_warns():
    sim_env = SimulationEnv(
        distributions=load_tissue_distributions(default_tissue_path()),
        cohort_spec=CohortSpec(),
        scanner=ScannerConfig(snr=80.0),
    )
    with pytest.warns(UserWarning, match="snr"):
        env = ProtocolEnv(sim_env, Task.MULTICLASS, EvalConfig(), master_seed=1)
    obs = env.reset()
    assert obs[11] == 1.0


def test_initial_protocol_is_baseline(env):
    assert env.initial_protocol == AcquisitionProtocol.adhoc()


def test_adhoc_actions_reward_tracks_adhoc_accuracy(env):
    """Writing the baseline b-values back into slots 1..9 scores the
    baseline protocol; a single-cohort estimate, so the band is loose."""
    from qmridesign.experiments import evaluate_accuracy

    rewards = []
    env.reset()
    for _ in range(12):
        for b in ADHOC_B_VALUES[1:-1]:
            env.step(int(b // B_STEP))
        _, reward, done, info = env.step(int(ADHOC_B_VALUES[-1] // B_STEP))
        assert done
        assert info["b_values"] == ADHOC_B_VALUES
        rewards.append(reward)
        env.reset()
    reference, _ = evaluate_accuracy(
        AcquisitionProtocol.adhoc(), env.task, env.sim_env, env.eval_config,
        master_seed=3, n_repeats=12,
    )
    assert abs(float(np.mean(rewards)) - reference) < 0.08
