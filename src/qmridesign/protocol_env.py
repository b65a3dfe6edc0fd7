"""Sequential protocol-construction environment for the policy-gradient search.

One episode builds one protocol: starting from the clinical baseline, the
agent writes multiples of ``B_STEP`` into slots 1..9 (slot 0 stays pinned at
b = 0 so segmented fitting always has its anchor), one slot per step. The
reward is sparse: zero until the last slot is written, then the
cross-validated task accuracy of the completed, sorted protocol.

The observation is a 12-vector: the ten slot values scaled by 1/1000, the
cursor scaled by 1/10, and the acquisition SNR scaled by 1/50 so a single
agent can in principle condition on the noise level.
"""

from __future__ import annotations

import warnings

import numpy as np

from .classify import EvalConfig, SimulationEnv, Task, task_objective
from .ivim import ADHOC_B_VALUES, B_VALUE_MAX, PROTOCOL_LENGTH, AcquisitionProtocol
from .seeds import derive_rng

__all__ = ["ProtocolEnv", "StepAfterDoneError", "OBSERVATION_SIZE", "N_ACTIONS", "B_STEP"]

OBSERVATION_SIZE = PROTOCOL_LENGTH + 2
#: action a writes b = B_STEP * a: the grid 0, 10, ..., 1000 s/mm^2, all multiples of B_STEP
B_STEP = 10.0
N_ACTIONS = int(B_VALUE_MAX // B_STEP) + 1

_SNR_SCALE = 50.0


class StepAfterDoneError(RuntimeError):
    """step() was called on a finished episode; call reset() first."""


class ProtocolEnv:
    """Markov decision process over ten b-value slots.

    Episode rewards are deterministic given the master seed: episode k
    scores its protocol with the stream derived from (seed, "reward", k),
    so replaying a stored action sequence reproduces the stored reward.
    """

    observation_size = OBSERVATION_SIZE
    n_actions = N_ACTIONS

    def __init__(
        self,
        sim_env: SimulationEnv,
        task: Task,
        eval_config: EvalConfig,
        master_seed: int,
    ):
        self.sim_env = sim_env
        self.task = task
        self.eval_config = eval_config
        self.master_seed = master_seed
        if sim_env.scanner.snr > _SNR_SCALE:
            warnings.warn(
                f"snr {sim_env.scanner.snr} exceeds the observation scale {_SNR_SCALE}; "
                "the snr entry will clip to 1.0",
                stacklevel=2,
            )
        self._snr_obs = min(sim_env.scanner.snr, _SNR_SCALE) / _SNR_SCALE
        self._episode = 0
        self._slots = np.asarray(ADHOC_B_VALUES, dtype=float)
        self._cursor = PROTOCOL_LENGTH  # force reset() before stepping

    @property
    def initial_protocol(self) -> AcquisitionProtocol:
        """Protocol every episode starts from (the clinical baseline)."""
        return AcquisitionProtocol.adhoc()

    def _observation(self) -> np.ndarray:
        obs = np.empty(OBSERVATION_SIZE)
        obs[:PROTOCOL_LENGTH] = self._slots / B_VALUE_MAX
        obs[PROTOCOL_LENGTH] = self._cursor / PROTOCOL_LENGTH
        obs[PROTOCOL_LENGTH + 1] = self._snr_obs
        return obs

    def reset(self) -> np.ndarray:
        """Start a new episode from the clinical baseline protocol."""
        self._slots = np.asarray(ADHOC_B_VALUES, dtype=float)
        self._cursor = 1  # slot 0 is pinned to b = 0
        self._episode += 1
        return self._observation()

    def step(self, action: int):
        """Write the b-value ``B_STEP * action`` into the current slot.

        Returns (observation, reward, done, info); info carries the sorted
        b-values once the episode completes.
        """
        if self._cursor >= PROTOCOL_LENGTH:
            raise StepAfterDoneError("episode finished; call reset() before stepping again")
        action = int(action)
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action must lie in [0, {N_ACTIONS - 1}], got {action}")
        self._slots[self._cursor] = B_STEP * action
        self._cursor += 1
        if self._cursor < PROTOCOL_LENGTH:
            return self._observation(), 0.0, False, {}
        protocol = AcquisitionProtocol(tuple(self._slots))
        reward_rng = derive_rng(self.master_seed, "reward", self._episode)
        reward = task_objective(protocol, self.task, self.sim_env, self.eval_config, reward_rng)
        info = {"b_values": protocol.b_values, "episode": self._episode}
        return self._observation(), float(reward), True, info
