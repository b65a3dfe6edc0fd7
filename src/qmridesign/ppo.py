"""Clipped-surrogate policy optimization over discrete action spaces.

Actor and critic are two-hidden-layer tanh networks (64 units each by
default) trained with Adam at learning rate 1e-3. Updates follow the
standard recipe: generalized advantage estimation (GAMMA = 0.99,
GAE_LAMBDA = 0.95), batch-level advantage normalization, ten epochs of
shuffled minibatches of 64, ratio clip CLIP_RANGE = 0.2, Adam's ADAM_EPS,
value-loss weight VF_COEF = 0.5, global gradient-norm clip
MAX_GRAD_NORM = 0.5 and no entropy bonus; the capitalized names are
module constants. All gradients are computed by explicit reverse
accumulation in nets.Mlp; the test suite checks them against central
finite differences, which is the load-bearing numerical test here.
Each round stores its steps in one record array (rollout_arrays); the
last round is shorter when rollout_steps does not divide the budget.

Environments are duck-typed: ``reset() -> obs``,
``step(action) -> (obs, reward, done, info)``, plus ``observation_size``
and ``n_actions`` attributes. On terminal steps the info dict may carry
``b_values``; the trainer tracks the best terminal reward ever seen and
its protocol.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ivim import AcquisitionProtocol
from .nets import Adam, Mlp, log_softmax, softmax

__all__ = [
    "PpoConfig",
    "PpoAgent",
    "rollout_arrays",
    "gae",
    "PpoNanError",
    "ppo_loss",
    "ppo_update",
    "train",
    "rollout_greedy",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 6

GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_RANGE = 0.2
ADAM_EPS = 1.0e-5
VF_COEF = 0.5
MAX_GRAD_NORM = 0.5


class PpoNanError(RuntimeError):
    """Loss or weights became non-finite; training aborted with diagnostics."""


@dataclass(frozen=True)
class PpoConfig:
    """Training settings; GAMMA, GAE_LAMBDA, CLIP_RANGE, ADAM_EPS, VF_COEF and MAX_GRAD_NORM are fixed."""

    total_steps: int = 100_000
    rollout_steps: int = 2048
    minibatch_size: int = 64
    n_epochs: int = 10
    learning_rate: float = 1.0e-3
    hidden_size: int = 64

    def __post_init__(self) -> None:
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.rollout_steps < 1 or self.minibatch_size < 1 or self.n_epochs < 1:
            raise ValueError("rollout_steps, minibatch_size and n_epochs must be >= 1")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not self.learning_rate >= 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")


class PpoAgent:
    """Actor/critic pair sharing nothing but their input. Both are views
    into one ``params`` vector (actor then critic) that the optimizer steps."""

    def __init__(
        self,
        observation_size: int,
        n_actions: int,
        rng: np.random.Generator,
        config: PpoConfig,
    ):
        self.observation_size = observation_size
        self.n_actions = n_actions
        self.config = config
        actor_sizes, critic_sizes = self.layer_sizes(observation_size, n_actions, config.hidden_size)
        self.n_actor_params = Mlp.n_params(actor_sizes)
        self.params = np.zeros(self.n_actor_params + Mlp.n_params(critic_sizes))
        # small-gain head keeps the initial policy near uniform
        self.actor = Mlp(actor_sizes, self.params[: self.n_actor_params], rng, out_gain=0.01)
        self.critic = Mlp(critic_sizes, self.params[self.n_actor_params :], rng, out_gain=1.0)
        self.optimizer = Adam(self.params, lr=config.learning_rate, eps=ADAM_EPS)

    @staticmethod
    def layer_sizes(observation_size: int, n_actions: int, hidden_size: int):
        """(actor, critic) layer sizes of an agent of this shape."""
        return ((observation_size, hidden_size, hidden_size, n_actions),
                (observation_size, hidden_size, hidden_size, 1))

    def policy_forward(self, observation: np.ndarray):
        """(action probabilities, value estimate) for a single observation vector."""
        x = observation[None, :]
        return softmax(self.actor(x))[0], float(self.critic(x)[0, 0])

    def act(self, observation: np.ndarray, rng: np.random.Generator):
        """Sample an action; returns (action, log_probability, value).

        The draw inverts the normalized cumulative distribution at one
        uniform double, as ``rng.choice(n_actions, p=probs)`` does, so it
        takes the same action and consumes the same stream.
        """
        probs, value = self.policy_forward(observation)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        action = int(cdf.searchsorted(rng.random(), side="right"))
        return action, float(np.log(probs[action])), value

    def greedy_action(self, observation: np.ndarray) -> int:
        probs, _ = self.policy_forward(observation)
        return int(np.argmax(probs))

    def check_finite(self) -> None:
        if not np.isfinite(self.params).all():
            raise PpoNanError("non-finite network weights after update")


def rollout_arrays(n: int, observation_size: int) -> np.ndarray:
    """One round's step records, written ``rollout[t] = (obs, action, log_prob,
    reward, value, done)`` and read by field name."""
    return np.empty(n, dtype=[("obs", float, (observation_size,)), ("action", int), ("log_prob", float),
                              ("reward", float), ("value", float), ("done", bool)])


def gae(rewards, values, dones, last_value: float, gamma: float, gae_lambda: float):
    """Backward generalized-advantage recursion; returns (advantages, returns).

    ``last_value`` bootstraps the state following the final step; it is
    masked out when that step ended its episode.
    """
    advantages = np.zeros(len(rewards))
    next_values = np.append(values[1:], last_value)
    running = 0.0
    for t in reversed(range(len(rewards))):
        non_terminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_values[t] * non_terminal - values[t]
        running = delta + gamma * gae_lambda * non_terminal * running
        advantages[t] = running
    returns = advantages + values
    if not (np.isfinite(advantages).all() and np.isfinite(returns).all()):
        raise PpoNanError("non-finite advantages in rollout")
    return advantages, returns


def _clip_global_norm(grad: np.ndarray, n_actor_params: int) -> None:
    # scales in place; actor and critic sums of squares added as two floats: one sum over the
    # whole vector would group the additions differently and round differently
    actor, critic = grad[:n_actor_params], grad[n_actor_params:]
    total = np.sqrt(float((actor**2).sum()) + float((critic**2).sum()))
    if total > MAX_GRAD_NORM:
        grad *= MAX_GRAD_NORM / total


def ppo_loss(agent: PpoAgent, obs, actions, logp_old, advantages, returns):
    """Clipped-surrogate loss of one minibatch and its gradient.

    Returns (losses, grad): ``losses`` maps policy_loss, value_loss,
    entropy and approx_kl to floats; the total minimized is
    policy_loss + VF_COEF * value_loss (the entropy is reported, not
    minimized), and ``grad`` is laid out like ``agent.params``. Raises
    PpoNanError if the total is non-finite.
    """
    batch = len(actions)
    logits, actor_cache = agent.actor.forward(obs)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    rows = np.arange(batch)
    logp_act = logp_all[rows, actions]
    ratio = np.exp(logp_act - logp_old)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - CLIP_RANGE, 1.0 + CLIP_RANGE) * advantages
    policy_loss = -np.minimum(unclipped, clipped).mean()

    entropy = (-(probs * logp_all).sum(axis=1)).mean()

    values, critic_cache = agent.critic.forward(obs)
    value_err = values[:, 0] - returns
    value_loss = float((value_err**2).mean())

    if not np.isfinite(policy_loss + VF_COEF * value_loss):
        raise PpoNanError(f"non-finite loss (policy={policy_loss}, value={value_loss}, entropy={entropy})")

    # d(policy_loss)/d(logp_act): the clipped branch has zero slope
    active = unclipped <= clipped
    dlogp_act = np.where(active, ratio * advantages, 0.0) * (-1.0 / batch)
    # d(logp_act)/d(logits) = onehot(action) - probs
    dlogits = -probs * dlogp_act[:, None]
    dlogits[rows, actions] += dlogp_act
    dvalues = (2.0 * VF_COEF / batch) * value_err[:, None]

    losses = {
        "policy_loss": float(policy_loss),
        "value_loss": value_loss,
        "entropy": float(entropy),
        "approx_kl": float((logp_old - logp_act).mean()),
    }
    grad = np.empty_like(agent.params)
    agent.actor.backward(actor_cache, dlogits, grad[: agent.n_actor_params])
    agent.critic.backward(critic_cache, dvalues, grad[agent.n_actor_params :])
    return losses, grad


def ppo_update(agent: PpoAgent, rollout: np.ndarray, last_value: float,
               rng: np.random.Generator, config: PpoConfig):
    """One full optimization phase over a round's step records (see rollout_arrays).

    Runs n_epochs of shuffled minibatches with one Adam step each and
    returns mean loss statistics. Raises PpoNanError if any loss or
    weight goes non-finite.
    """
    n = len(rollout)
    if n == 0:
        raise ValueError("cannot update from an empty rollout")
    advantages, returns = gae(rollout["reward"], rollout["value"], rollout["done"], last_value,
                              GAMMA, GAE_LAMBDA)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1.0e-8)

    minibatch_losses = []
    for _ in range(config.n_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            idx = order[start : start + config.minibatch_size]
            losses, grad = ppo_loss(agent, rollout["obs"][idx], rollout["action"][idx], rollout["log_prob"][idx],
                                    advantages[idx], returns[idx])
            _clip_global_norm(grad, agent.n_actor_params)
            agent.optimizer.step(grad)
            agent.check_finite()
            minibatch_losses.append(losses)
    return {key: float(np.mean([losses[key] for losses in minibatch_losses]))
            for key in minibatch_losses[0]}


@dataclass
class TrainResult:
    agent: PpoAgent
    best_reward: float
    best_protocol: AcquisitionProtocol | None
    curve: list = field(default_factory=list)  # (env_step, mean_episode_reward, best_reward)
    episodes: int = 0
    update_stats: list = field(default_factory=list)


def _protocol_from_info(info: dict) -> AcquisitionProtocol | None:
    b_values = info.get("b_values")
    return AcquisitionProtocol(tuple(b_values)) if b_values is not None else None


def train(env, config: PpoConfig, rng: np.random.Generator, agent: PpoAgent | None = None) -> TrainResult:
    """Rounds of ``rollout_steps`` env steps, each followed by one update,
    until the step budget is spent; each curve row is taken at a round's end.

    Tracks the best terminal reward ever seen (and its protocol, when the
    environment reports one). A zero-step budget returns the freshly
    initialized agent with the environment's initial protocol.
    """
    if agent is None:
        agent = PpoAgent(env.observation_size, env.n_actions, rng, config)
    result = TrainResult(agent, best_reward=-np.inf, best_protocol=getattr(env, "initial_protocol", None))
    obs = env.reset()
    episode_return = 0.0
    for start in range(0, config.total_steps, config.rollout_steps):
        horizon = min(config.rollout_steps, config.total_steps - start)
        rollout = rollout_arrays(horizon, env.observation_size)
        episode_rewards = []
        for t in range(horizon):
            action, log_prob, value = agent.act(obs, rng)
            next_obs, reward, done, info = env.step(action)
            rollout[t] = (obs, action, log_prob, reward, value, done)
            episode_return += reward
            if done:
                result.episodes += 1
                episode_rewards.append(episode_return)
                if episode_return > result.best_reward:
                    result.best_reward = episode_return
                    protocol = _protocol_from_info(info)
                    if protocol is not None:
                        result.best_protocol = protocol
                episode_return = 0.0
                next_obs = env.reset()
            obs = next_obs
        _, last_value = agent.policy_forward(obs)
        result.update_stats.append(ppo_update(agent, rollout, last_value, rng, config))
        mean_reward = float(np.mean(episode_rewards)) if episode_rewards else np.nan
        best = result.best_reward if np.isfinite(result.best_reward) else np.nan
        result.curve.append((start + horizon, mean_reward, best))
    return result


def rollout_greedy(agent: PpoAgent, env):
    """One argmax-policy episode; returns (protocol_or_None, total_reward)."""
    obs = env.reset()
    done = False
    total = 0.0
    while not done:
        obs, reward, done, info = env.step(agent.greedy_action(obs))
        total += reward
    return _protocol_from_info(info), total


def save_checkpoint(path, agent: PpoAgent, stamp: dict) -> None:
    """The policy's weights (``params``) and the network's shape with the
    run's provenance ``stamp`` (``meta``)."""
    meta = dict(stamp, checkpoint_version=CHECKPOINT_VERSION, observation_size=agent.observation_size,
                n_actions=agent.n_actions, hidden_size=agent.config.hidden_size)
    arrays = {"meta": np.array(json.dumps(meta, sort_keys=True)), "params": agent.params}
    # write the npz container by hand with pinned entry timestamps, so a
    # rerun with the same seed produces byte-identical checkpoints
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.save(buffer, array)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, buffer.getvalue())


def load_checkpoint(path):
    """Rebuild (agent, meta) from a checkpoint file: the stored weights in a
    network of the stored shape, under an optimizer that starts afresh. One
    that is not an intact npz archive, or whose meta holds a field of the
    wrong type, raises ValueError naming it."""
    try:
        with zipfile.ZipFile(path) as archive:  # a bare .npy array or a cut file is no zip archive
            if archive.testzip() is not None:  # every entry's CRC, checked before numpy parses one
                raise zipfile.BadZipFile("an entry fails its CRC check")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta["checkpoint_version"] != CHECKPOINT_VERSION:
                raise ValueError(f"checkpoint version {meta['checkpoint_version']} not supported "
                                 f"(expected {CHECKPOINT_VERSION})")
            config = PpoConfig(hidden_size=meta["hidden_size"])
            # the weights must fit the stored shape before a network of that shape is allocated
            shape = (sum(map(Mlp.n_params, PpoAgent.layer_sizes(meta["observation_size"], meta["n_actions"],
                                                                 config.hidden_size))),)
            params = data["params"]
            if params.shape != shape:
                raise ValueError(f"checkpoint entry params has shape {params.shape}, expected {shape}")
            agent = PpoAgent(meta["observation_size"], meta["n_actions"], np.random.default_rng(0), config)
            agent.params[...] = params
    except (zipfile.BadZipFile, TypeError) as err:  # TypeError: a meta field of the wrong type
        raise ValueError(f"{path} is not a readable checkpoint: {err}") from err
    return agent, meta
