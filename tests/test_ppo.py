"""Policy optimization: loss gradients vs finite differences, clipping
semantics, GAE values, bandit convergence, checkpoint round-trips.

The finite-difference check of the full loss on a tiny agent is the
load-bearing test here: every other property rides on those gradients.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmridesign.nets import log_softmax
from qmridesign.protocol_env import ProtocolEnv
from qmridesign.ppo import (
    CLIP_RANGE,
    VF_COEF,
    PpoAgent,
    PpoConfig,
    PpoNanError,
    gae,
    load_checkpoint,
    ppo_loss,
    ppo_update,
    rollout_arrays,
    rollout_greedy,
    save_checkpoint,
    train,
)


#: one BLAS/OpenMP thread, the pins of the benchmark's perfbench/run.py
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class TwoArmedBandit:
    """One-step episodes; arm 0 pays 1.0, arm 1 pays 0.2."""

    observation_size = 3
    n_actions = 2

    def __init__(self):
        self._obs = np.zeros(3)

    def reset(self):
        return self._obs.copy()

    def step(self, action):
        reward = 1.0 if action == 0 else 0.2
        return self._obs.copy(), reward, True, {}


def small_config(**overrides):
    base = dict(
        total_steps=0,
        rollout_steps=64,
        minibatch_size=16,
        n_epochs=3,
        hidden_size=8,
        learning_rate=3e-3,
    )
    base.update(overrides)
    return PpoConfig(**base)


class TestAgent:
    def test_initial_policy_near_uniform(self):
        rng = np.random.default_rng(0)
        agent = PpoAgent(12, 1001, rng, PpoConfig())
        probs, value = agent.policy_forward(np.full(12, 0.5))
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert probs.max() / probs.min() < 3.0  # small-gain head
        assert np.isfinite(value)

    def test_act_uses_distribution(self):
        rng = np.random.default_rng(1)
        agent = PpoAgent(3, 4, rng, small_config())
        actions = [agent.act(np.zeros(3), rng)[0] for _ in range(200)]
        assert set(actions) == {0, 1, 2, 3}

    @pytest.mark.parametrize("n_actions, head_scale", [(ProtocolEnv.n_actions, 1.0), (1001, 1.0), (4, 400.0)])
    def test_act_draws_what_generator_choice_draws(self, n_actions, head_scale):
        """``act`` inverts the cumulative distribution as
        ``Generator.choice(n, p=probs)`` does: for each observation the same
        action, and the two streams stay in step. The first case is the head
        the protocol environment needs, the second a wider one; the last
        scales the head so that some probabilities are near 0 and one near 1."""
        agent = PpoAgent(12, n_actions, np.random.default_rng(3), small_config(hidden_size=16))
        agent.actor.weights[-1][...] *= head_scale
        rng_act, rng_choice = np.random.default_rng(5), np.random.default_rng(5)
        for obs in np.random.default_rng(4).uniform(-2.0, 2.0, size=(2000, 12)):
            action, log_prob, value = agent.act(obs, rng_act)
            probs, expected_value = agent.policy_forward(obs)
            assert action == rng_choice.choice(n_actions, p=probs)
            assert log_prob == float(np.log(probs[action])) and value == expected_value
            assert rng_act.bit_generator.state == rng_choice.bit_generator.state

    def test_networks_are_views_of_one_vector(self):
        """Actor then critic parameters fill ``agent.params``, and one optimizer
        step on that vector moves both networks."""
        agent = PpoAgent(3, 4, np.random.default_rng(2), small_config())
        assert agent.params.size == agent.actor.params.size + agent.critic.params.size
        assert np.shares_memory(agent.actor.params, agent.params)
        assert np.shares_memory(agent.critic.params, agent.params)
        actor, critic = agent.actor.params.copy(), agent.critic.params.copy()
        agent.optimizer.step(np.ones_like(agent.params))
        assert np.all(agent.actor.params != actor)
        assert np.all(agent.critic.params != critic)


def reference_gae(rewards, values, dones, last_value, gamma, gae_lambda):
    """The backward GAE loop as the rollout buffer class wrote it, kept as
    the reference that ``gae`` must equal bit for bit."""
    n = len(rewards)
    advantages = np.zeros(n)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        non_terminal = 0.0 if dones[t] else 1.0
        next_value = last_value if t == n - 1 else values[t + 1]
        delta = rewards[t] + gamma * next_value * non_terminal - values[t]
        gae = delta + gamma * gae_lambda * non_terminal * gae
        advantages[t] = gae
    return advantages, advantages + values[:n]


class TestGae:
    def test_single_episode_terminal_reward(self):
        """Hand-computed backward recursion on a 3-step episode."""
        values = np.array([0.5, 0.4, 0.3])
        gamma, lam = 0.9, 0.8
        advantages, returns = gae(np.array([0.0, 0.0, 1.0]), values, np.array([False, False, True]),
                                  99.0, gamma, lam)  # bootstrap masked
        delta2 = 1.0 - 0.3
        delta1 = 0.9 * 0.3 - 0.4
        delta0 = 0.9 * 0.4 - 0.5
        a2 = delta2
        a1 = delta1 + gamma * lam * a2
        a0 = delta0 + gamma * lam * a1
        np.testing.assert_allclose(advantages, [a0, a1, a2], rtol=1e-12)
        np.testing.assert_allclose(returns, advantages + values, rtol=1e-12)

    def test_bootstrap_used_when_truncated(self):
        advantages, _ = gae(np.zeros(2), np.array([0.2, 0.1]), np.zeros(2, dtype=bool), 0.7,
                            gamma=1.0, gae_lambda=1.0)
        assert advantages[1] == pytest.approx(0.7 - 0.1)
        assert advantages[0] == pytest.approx((0.1 - 0.2) + (0.7 - 0.1))

    @pytest.mark.parametrize("dones", ["scattered", "none", "all", "truncated"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_reference_loop(self, dones, seed):
        """On random step records ``gae`` equals the reference loop with ``==``:
        dones scattered (the last step among them), absent, on every step, or
        scattered with the last step cut off mid-episode."""
        rng = np.random.default_rng(seed)
        rollout = rollout_arrays(97, 2)
        rollout["reward"] = rng.normal(size=97)
        rollout["value"] = rng.normal(size=97)
        rollout["done"] = {
            "scattered": rng.random(97) < 0.2,
            "none": np.zeros(97, dtype=bool),
            "all": np.ones(97, dtype=bool),
            "truncated": rng.random(97) < 0.2,
        }[dones]
        rollout["done"][-1] = dones in ("scattered", "all")
        args = (rollout["reward"], rollout["value"], rollout["done"], float(rng.normal()), 0.99, 0.95)
        advantages, returns = gae(*args)
        expected_advantages, expected_returns = reference_gae(*args)
        np.testing.assert_array_equal(advantages, expected_advantages)
        np.testing.assert_array_equal(returns, expected_returns)


def fill_rollout(agent, rng, n=32, n_actions=5, obs_dim=4):
    rollout = rollout_arrays(n, obs_dim)
    for t in range(n):
        obs = rng.normal(size=obs_dim)
        action = int(rng.integers(0, n_actions))
        probs, value = agent.policy_forward(obs)
        rollout[t] = (obs, action, float(np.log(probs[action])), float(rng.normal()), value,
                      t % 8 == 7)
    return rollout


def ppo_loss_value(agent, batch):
    """Forward-only recomputation of the scalar loss for finite differencing."""
    obs, actions, logp_old, advantages, returns = batch
    logp_act = log_softmax(agent.actor(obs))[np.arange(len(actions)), actions]
    ratio = np.exp(logp_act - logp_old)
    clipped = np.clip(ratio, 1 - CLIP_RANGE, 1 + CLIP_RANGE)
    policy_loss = -np.minimum(ratio * advantages, clipped * advantages).mean()
    values = agent.critic(obs)[:, 0]
    value_loss = float(((values - returns) ** 2).mean())
    return policy_loss + VF_COEF * value_loss


def numeric_gradient(agent, loss, h=2e-6):
    """Central differences of ``loss()`` over ``agent.params`` (actor, then critic)."""
    params = agent.params
    numeric = np.empty_like(params)
    for i in range(params.size):
        saved = params[i]
        params[i] = saved + h
        loss_up = loss()
        params[i] = saved - h
        loss_down = loss()
        params[i] = saved
        numeric[i] = (loss_up - loss_down) / (2.0 * h)
    return numeric


class TestGradientCheck:
    def test_full_loss_gradients_match_finite_differences(self):
        """4-hidden-unit agent, fixed batch: analytic vs central differences
        within 1e-4 relative (the acceptance-level gradient check)."""
        rng = np.random.default_rng(7)
        config = PpoConfig(total_steps=0, hidden_size=4, learning_rate=0.0)
        agent = PpoAgent(4, 5, rng, config)
        n = 12
        obs = rng.normal(size=(n, 4))
        actions = rng.integers(0, 5, size=n)
        probs0 = np.exp(log_softmax(agent.actor(obs)))
        logp_old = np.log(probs0[np.arange(n), actions]) + rng.normal(0, 0.3, n)
        advantages = rng.normal(size=n) + 0.3
        returns = rng.normal(size=n)
        batch = (obs, actions, logp_old, advantages, returns)

        _, analytic = ppo_loss(agent, *batch)
        numeric = numeric_gradient(agent, lambda: ppo_loss_value(agent, batch))

        scale = np.abs(numeric).max()
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-4 * scale)


class TestPpoUpdate:
    def test_zero_advantage_leaves_policy_term_inactive(self):
        """Zero advantages: no actor gradient (the value term moves only the critic)."""
        rng = np.random.default_rng(8)
        agent = PpoAgent(4, 5, rng, small_config())
        rollout = fill_rollout(agent, rng)
        n = len(rollout)
        batch = (rollout["obs"], rollout["action"], rollout["log_prob"])
        actor = slice(agent.n_actor_params)
        grad = ppo_loss(agent, *batch, np.zeros(n), rollout["reward"])[1]
        assert np.all(grad[actor] == 0.0)
        grad = ppo_loss(agent, *batch, np.ones(n), rollout["reward"])[1]
        assert np.any(grad[actor] != 0.0)

    def test_clipping_definition(self):
        """A sample whose ratio exceeds 1 + clip under a positive advantage
        contributes the clipped 1.2 * advantage and no policy gradient."""
        rng = np.random.default_rng(16)
        agent = PpoAgent(4, 5, rng, small_config())
        obs = rng.normal(size=(2, 4))
        actions = np.array([1, 3])
        logp_act = log_softmax(agent.actor(obs))[np.arange(2), actions]
        logp_old = logp_act - np.log([2.0, 1.0])  # ratios 2 and 1
        returns = np.zeros(2)
        actor = slice(agent.n_actor_params)
        losses, grad = ppo_loss(agent, obs, actions, logp_old, np.ones(2), returns)
        assert losses["policy_loss"] == pytest.approx(-(1.2 + 1.0) / 2)
        _, without_first = ppo_loss(agent, obs, actions, logp_old, np.array([0.0, 1.0]), returns)
        np.testing.assert_array_equal(grad[actor], without_first[actor])

    def test_update_returns_stats_and_keeps_simplex(self):
        rng = np.random.default_rng(9)
        config = small_config(total_steps=0)
        agent = PpoAgent(4, 5, rng, config)
        rollout = fill_rollout(agent, rng)
        stats = ppo_update(agent, rollout, last_value=0.0, rng=rng, config=config)
        assert set(stats) == {"policy_loss", "value_loss", "entropy", "approx_kl"}
        probs, _ = agent.policy_forward(np.zeros(4))
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(probs >= 0.0)

    def test_nan_rewards_abort(self):
        rng = np.random.default_rng(10)
        config = small_config()
        agent = PpoAgent(4, 5, rng, config)
        rollout = fill_rollout(agent, rng)
        rollout["reward"][3] = np.nan
        with pytest.raises(PpoNanError):
            ppo_update(agent, rollout, last_value=0.0, rng=rng, config=config)

    def test_one_update_pinned(self):
        """One update of a tiny agent on a fixed seeded rollout: the returned
        statistics and a few weights, as the buffer-class implementation gave
        them. Three minibatches per epoch (the last one short), gradient
        clipping active. A change to the update's arithmetic moves these,
        while a one-round train digest, taken before any update acts, does
        not. Pinned without an entropy bonus: these are the values the
        earlier code gave at ``ent_coef = 0``, bit for bit."""
        rng = np.random.default_rng(21)
        config = small_config()
        agent = PpoAgent(4, 5, rng, config)
        rollout = fill_rollout(agent, rng, n=40)
        stats = ppo_update(agent, rollout, last_value=0.3, rng=rng, config=config)
        assert stats == pytest.approx({
            "policy_loss": 0.019767390355971318,
            "value_loss": 2.991759345752752,
            "entropy": 1.6092939994633315,
            "approx_kl": -0.002058841945365588,
        }, rel=1e-9)
        assert agent.optimizer.t == 9
        assert agent.n_actor_params == 157 and agent.params.size == 278
        pinned = {0: 0.1876351087123062, 7: -0.20103035996753224, 156: -0.001072025471165596,
                  157: -0.9640283381195894, 277: 0.020533990986998422}
        assert {i: agent.params[i] for i in pinned} == pytest.approx(pinned, rel=1e-9)
        assert agent.params.sum() == pytest.approx(-3.422098466259877, rel=1e-9)


class TestTraining:
    def test_zero_budget_returns_initial(self):
        env = TwoArmedBandit()
        rng = np.random.default_rng(11)
        result = train(env, small_config(total_steps=0), rng)
        assert result.episodes == 0
        assert result.curve == []
        assert result.best_protocol is None  # bandit has no protocol notion

    def test_bandit_convergence_across_seeds(self):
        """After 5000 steps the policy puts >= 0.9 on the best arm in at
        least 9 of 10 seeded runs (runtime well under a minute)."""
        config = PpoConfig(
            total_steps=5000, rollout_steps=256, minibatch_size=64, n_epochs=10,
            hidden_size=16, learning_rate=3e-3,
        )
        wins = 0
        for seed in range(10):
            env = TwoArmedBandit()
            result = train(env, config, np.random.default_rng(seed))
            probs, _ = result.agent.policy_forward(env.reset())
            wins += probs[0] >= 0.9
        assert wins >= 9

    def test_short_last_round(self):
        """A budget that rollout_steps does not divide ends with a shorter
        round: 100 steps at 64 per round give rounds of 64 and 36."""
        env = TwoArmedBandit()
        result = train(env, small_config(total_steps=100, rollout_steps=64),
                       np.random.default_rng(19))
        assert [row[0] for row in result.curve] == [64, 100]
        assert len(result.update_stats) == 2
        assert result.episodes == 100

    def test_best_seen_curve_monotone(self):
        env = TwoArmedBandit()
        rng = np.random.default_rng(12)
        result = train(env, small_config(total_steps=512, rollout_steps=128), rng)
        best = [row[2] for row in result.curve]
        assert all(a <= b for a, b in zip(best, best[1:]))
        assert result.best_reward == best[-1] == 1.0

    def test_weights_finite_after_training(self):
        env = TwoArmedBandit()
        rng = np.random.default_rng(13)
        result = train(env, small_config(total_steps=256), rng)
        result.agent.check_finite()

    def test_two_round_train_digest_pinned(self):
        """Two 256-step rounds at the default network sizes (12 -> 64 -> 64 ->
        101) on a seeded protocol environment: one sha256 over the bytes of
        the parameters and both Adam moments, and the repr of the update
        statistics, the curve and the best reward. Unlike the first-round
        digests, taken before any update acts, this sees every bit of the
        act, loss, backward, clipping and Adam arithmetic of both updates.

        The train runs in a child process with one BLAS/OpenMP thread, as the
        benchmark runs, because a threaded product may split its sums
        otherwise; the digest is then the same whatever thread settings the
        suite runs under. It is still tied to the host's BLAS: the 64-wide
        products round as the numpy/OpenBLAS kernel dispatched on the CPU
        does, so a correct program may give another digest on another CPU or
        build. Compare against the parent commit on the same host before
        reading a mismatch as a regression. The host-independent checks of
        the same arithmetic are the exact forward and act tests and the
        gradient checks."""
        import qmridesign

        package_root = Path(qmridesign.__file__).resolve().parents[1]
        env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(package_root))
        child = ("import importlib.util, sys; spec = importlib.util.spec_from_file_location('test_ppo', sys.argv[1]); "
                 "module = importlib.util.module_from_spec(spec); spec.loader.exec_module(module); "
                 "print(module.two_round_train_digest())")
        done = subprocess.run([sys.executable, "-c", child, __file__], env=env, capture_output=True, text=True,
                              timeout=600)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "d8b09b07d7c747a24d990b0fb5bbaa95af02945f3c9990ce7d925fbb75b21c93", (
            "train digest moved; the pin is tied to this host's BLAS, so check the parent on the same host")


def two_round_train_digest() -> str:
    """The sha256 of test_two_round_train_digest_pinned's two-round train."""
    from qmridesign import CohortSpec, EvalConfig, ScannerConfig, SimulationEnv, Task
    from qmridesign.config import default_tissue_path, load_tissue_distributions

    sim_env = SimulationEnv(
        distributions=load_tissue_distributions(default_tissue_path()),
        cohort_spec=CohortSpec(),
        scanner=ScannerConfig(),
    )
    env = ProtocolEnv(sim_env, Task.MULTICLASS, EvalConfig(), master_seed=31)
    result = train(env, PpoConfig(total_steps=512, rollout_steps=256), np.random.default_rng(32))
    agent = result.agent
    assert agent.actor.sizes == (12, 64, 64, 101) and len(result.update_stats) == 2
    digest = hashlib.sha256()
    for array in (agent.params, agent.optimizer.m, agent.optimizer.v):
        digest.update(array.tobytes())
    digest.update(repr((result.update_stats, result.curve, result.best_reward)).encode())
    return digest.hexdigest()


class TestGreedyAndCheckpoint:
    def test_greedy_rollout_deterministic(self):
        env = TwoArmedBandit()
        rng = np.random.default_rng(14)
        agent = PpoAgent(env.observation_size, env.n_actions, rng, small_config())
        a = rollout_greedy(agent, env)
        b = rollout_greedy(agent, env)
        assert a[1] == b[1]

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        config = small_config(total_steps=128)
        env = TwoArmedBandit()
        result = train(env, config, rng)
        path = tmp_path / "agent.npz"
        save_checkpoint(path, result.agent, {"config_hash": "abc", "seed": 7})
        restored, meta = load_checkpoint(path)
        assert (meta["config_hash"], meta["seed"]) == ("abc", 7)
        obs = np.full(3, 0.2)
        np.testing.assert_array_equal(
            restored.policy_forward(obs)[0], result.agent.policy_forward(obs)[0]
        )
        np.testing.assert_array_equal(restored.params, result.agent.params)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_other_checkpoint_version_refused(self, tmp_path, version):
        """Every earlier format is refused by its version, read before any
        other field or entry, not misread: version 1 stored one entry per
        weight matrix, version 2 a vector and two Adam moments per network,
        and versions 3 to 5 the weights, both moments, the step counts and a
        PpoConfig copy, whose fields changed from one version to the next."""
        path = tmp_path / "old.npz"
        save_checkpoint(path, PpoAgent(3, 2, np.random.default_rng(17), small_config()), {})
        with np.load(path) as data:
            entries = dict(data)
        meta = json.loads(str(entries["meta"]))
        meta["checkpoint_version"] = version
        entries["meta"] = np.array(json.dumps(meta, sort_keys=True))
        np.savez(path, **entries)
        with pytest.raises(ValueError, match=f"checkpoint version {version} not supported"):
            load_checkpoint(path)

    def test_checkpoint_entries(self, tmp_path):
        """The policy's weights and what rebuilds its network, with the run's stamp."""
        path = tmp_path / "agent.npz"
        agent = PpoAgent(3, 2, np.random.default_rng(17), small_config(hidden_size=5))
        save_checkpoint(path, agent, {"config_hash": "abc", "seed": 7})
        with np.load(path) as data:
            assert sorted(data.files) == ["meta", "params"]
            assert data["params"].shape == agent.params.shape
            assert json.loads(str(data["meta"])) == {
                "checkpoint_version": 6, "observation_size": 3, "n_actions": 2, "hidden_size": 5,
                "config_hash": "abc", "seed": 7}

    def test_wrong_shaped_entry_rejected(self, tmp_path):
        path = tmp_path / "agent.npz"
        agent = PpoAgent(3, 2, np.random.default_rng(17), small_config())
        save_checkpoint(path, agent, {})
        with np.load(path) as data:
            entries = dict(data)
        entries["params"] = np.zeros(1)
        np.savez(path, **entries)
        with pytest.raises(ValueError, match="params"):
            load_checkpoint(path)


def test_zero_budget_protocol_env_returns_baseline():
    from qmridesign import AcquisitionProtocol, CohortSpec, EvalConfig, ScannerConfig, SimulationEnv, Task
    from qmridesign.config import default_tissue_path, load_tissue_distributions

    sim_env = SimulationEnv(
        distributions=load_tissue_distributions(default_tissue_path()),
        cohort_spec=CohortSpec(),
        scanner=ScannerConfig(),
    )
    env = ProtocolEnv(sim_env, Task.MULTICLASS, EvalConfig(), master_seed=5)
    result = train(env, small_config(total_steps=0), np.random.default_rng(0))
    assert result.best_protocol == AcquisitionProtocol.adhoc()
