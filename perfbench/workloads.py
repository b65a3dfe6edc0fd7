"""One benchmark workload, run in a process of its own by ``run.py``.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/workloads.py --workload report --seed 1 --seconds 10 \
        --spawned-at <time.monotonic() of the parent at spawn> [--trace 1] [--setup-only]

A workload is a closed loop of rounds: each round is one fixed-size piece
of work whose inputs derive from (seed, round index), and the next round
starts when the previous one returns. Rounds repeat while one more is
expected to end within ``--seconds``; every run completes at least one.
Each round's outputs are checked outside the timed region. Times are
scaled to the reference machine speed by ``calibration.Clock``, which
calibrates between rounds and, untraced, at checkpoints inside them. The
process prints one JSON line.

``--spawned-at`` carries the parent's CLOCK_MONOTONIC reading (what
``time.monotonic()`` returns on Linux) taken just before it started this
process, so the set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from qmridesign import classify, crlb, experiments, fitting, ivim, ppo, seeds
from qmridesign.config import load_experiment_config
from qmridesign.protocol_env import ProtocolEnv
from calibration import Clock
from tracer import FIT_FLAGS, Tracer

HERE = Path(__file__).resolve().parent
CONFIG_PATH = Path("configs/repro.json")
REFERENCE_PATH = HERE / "reference.json"
#: expected means for the output checks; written by make_reference.py
REFERENCE = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}

#: published comparison protocols, plus a clustered design whose only
#: b >= 200 acquisition trips the two-point high-b fallback of the fit
PANEL = {
    "adhoc": ivim.ADHOC_B_VALUES,
    "crlb_mc": (0, 0, 7, 7, 7, 7, 52, 52, 52, 478),
    "rl_mc": (0, 175, 229, 336, 540, 595, 603, 618, 629, 881),
    "clustered": (0, 0, 0, 100, 100, 100, 100, 1000, 1000, 1000),
}

#: a measured mean may differ from its reference by this many standard
#: errors, and always by TOLERANCE_FLOOR (an AUC of exactly 1.0 has sd 0)
TOLERANCE_Z = 6.0
TOLERANCE_FLOOR = 0.01

#: noiseless round-trip draws per report round (C01's ranges and bounds)
ROUNDTRIP_DRAWS = 200

#: rl_search calibrates after every this many finished episodes (about
#: ten times per 2048-step rollout), so a change of machine speed inside a
#: round is caught
CHECKPOINT_EPISODES = 23

#: stream purposes, the last key of every SeedSequence the benchmark makes
ROUND_INPUTS, WARM_UP, CHECKS = 0, 1, 2


def stream(seed: int, round_index: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, round_index, purpose])


def master_seed(seed: int, round_index: int, purpose: int = ROUND_INPUTS) -> int:
    """The program's master seed for one round: distinct inputs every round."""
    return int(stream(seed, round_index, purpose).generate_state(1)[0])


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def within(value: float, reference: list, n: int) -> bool:
    """``value`` (a mean over n samples) within TOLERANCE_Z standard errors of
    ``reference`` = [mean, per-sample standard deviation]."""
    mean, sd = reference
    tolerance = max(TOLERANCE_Z * sd / math.sqrt(n), TOLERANCE_FLOOR)
    return math.isfinite(value) and abs(value - mean) <= tolerance


def protocol_problems(b_values) -> list:
    b = list(b_values)
    ok = (
        len(b) == ivim.PROTOCOL_LENGTH
        and b == sorted(b)
        and b[0] == 0.0
        and all(0.0 <= v <= ivim.B_VALUE_MAX and v == int(v) for v in b)
    )
    return [] if ok else [f"invalid protocol {b}"]


def no_checkpoint() -> None:
    """Traced runs calibrate between rounds only, never inside a span."""


class RecordingEnv(ProtocolEnv):
    """ProtocolEnv that keeps (episode, reward, b-values) of each finished episode
    and calls ``checkpoint`` after every CHECKPOINT_EPISODES of them."""

    def __init__(self, *args, checkpoint=no_checkpoint, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []
        self.checkpoint = checkpoint

    def step(self, action):
        out = super().step(action)
        if out[2]:
            self.records.append((out[3]["episode"], out[1], list(out[3]["b_values"])))
            if len(self.records) % CHECKPOINT_EPISODES == 0:
                self.checkpoint()
        return out


class RlSearch:
    """PPO ``train()`` on ProtocolEnv; one round is one rollout and its update."""

    def __init__(self, config, seed: int, tiny: bool):
        self.config = config
        self.seed = seed
        self.sim_env = config.sim_env()
        steps = 90 if tiny else config.ppo.rollout_steps
        self.ppo_config = dataclasses.replace(config.ppo, total_steps=steps, rollout_steps=steps)
        self.cohort_size = config.cohort.restricted(config.task.classes).total

    def _env(self, master: int, checkpoint=no_checkpoint) -> RecordingEnv:
        return RecordingEnv(self.sim_env, self.config.task, self.config.eval, master_seed=master,
                            checkpoint=checkpoint)

    def warm_up(self) -> None:
        master = master_seed(self.seed, 0, WARM_UP)
        env = self._env(master)
        rng = seeds.derive_rng(master, "optimize-rl")
        agent = ppo.PpoAgent(env.observation_size, env.n_actions, rng, self.ppo_config)
        obs, done = env.reset(), False
        while not done:
            obs, _, done, _ = env.step(agent.act(obs, rng)[0])

    def run_round(self, round_index: int, tracer, checkpoint):
        master = master_seed(self.seed, round_index)
        env = self._env(master, checkpoint)
        rng = seeds.derive_rng(master, "optimize-rl")
        agent = ppo.PpoAgent(env.observation_size, env.n_actions, rng, self.ppo_config)
        if tracer is not None:
            tracer.wrap_env(env)
            tracer.wrap_agent(agent)
        result = ppo.train(env, self.ppo_config, rng, agent=agent)
        return {"master": master, "records": env.records, "result": result}

    def units(self, out) -> int:
        return len(out["records"])

    def check(self, out) -> list:
        records, result = out["records"], out["result"]
        steps_per_episode = ivim.PROTOCOL_LENGTH - 1
        expected = self.ppo_config.total_steps // steps_per_episode
        if result.episodes != expected or len(records) != expected:
            return [f"{result.episodes} episodes, expected {expected}"]
        rewards = [reward for _, reward, _ in records]
        problems = [f"reward {r} outside [0, 1]" for r in rewards if not 0.0 <= r <= 1.0]
        best = int(np.argmax(rewards))
        episode, best_reward, best_b = records[best]
        if result.best_reward != best_reward or list(result.best_protocol.b_values) != best_b:
            problems.append("train() best differs from the best recorded episode")
        problems += protocol_problems(best_b)
        rescored = classify.task_objective(
            ivim.AcquisitionProtocol(tuple(best_b)),
            self.config.task,
            self.sim_env,
            self.config.eval,
            seeds.derive_rng(out["master"], "reward", episode),
        )
        if rescored != best_reward:
            problems.append(f"best episode re-scores to {rescored}, recorded {best_reward}")
        mean = float(np.mean(rewards))
        if not within(mean, REFERENCE["rl_search"]["mean_reward"], len(rewards)):
            problems.append(f"mean reward {mean:.4f} off reference")
        if len(result.update_stats) != 1:
            problems.append(f"{len(result.update_stats)} updates, expected 1")
        return problems

    def counts(self, out) -> dict:
        steps = self.ppo_config.total_steps
        episodes = len(out["records"])
        updates = len(out["result"].update_stats)
        minibatches = self.ppo_config.n_epochs * math.ceil(steps / self.ppo_config.minibatch_size)
        return {
            "round": 1,
            "ppo.act": steps,
            "protocol_env.step_terminal": episodes,
            "protocol_env.step_nonterminal": steps - episodes,
            "classify.task_objective": episodes,
            "classify.cross_val_accuracy": episodes,
            "cohort.sample_cohort": episodes,
            "cohort.simulate_dataset": episodes,
            "fitting.fit_dataset": episodes,
            "fit.rows": episodes * self.cohort_size,
            "ppo.ppo_update": updates,
            "ppo.minibatches": updates * minibatches,
        }

    def outputs(self, out):
        result = out["result"]
        return [[e, repr(r), b] for e, r, b in out["records"]] + [
            repr(result.best_reward),
            list(result.best_protocol.b_values),
        ]


class Report:
    """``evaluate_accuracy`` over the protocol panel x snr_list, then ``auc_matrix``."""

    def __init__(self, config, seed: int, tiny: bool):
        self.config = config
        self.seed = seed
        base = config.sim_env()
        self.envs = {snr: base.with_snr(snr) for snr in config.snr_list}
        self.validation_env = base.with_snr(config.eval.validation_snr)
        self.protocols = {name: ivim.AcquisitionProtocol(b) for name, b in PANEL.items()}
        self.repeats = 2 if tiny else config.eval.n_repeats_report
        self.roundtrip_draws = 20 if tiny else ROUNDTRIP_DRAWS
        self.task_size = config.cohort.restricted(config.task.classes).total
        self.binary_sizes = [config.cohort.restricted(t.classes).total for t in experiments.BINARY_TASKS]

    def warm_up(self) -> None:
        experiments.evaluate_accuracy(
            self.protocols["adhoc"], self.config.task, self.envs[self.config.snr_list[0]],
            self.config.eval, master_seed(self.seed, 0, WARM_UP), n_repeats=1,
        )

    def run_round(self, round_index: int, tracer, checkpoint):
        master = master_seed(self.seed, round_index)
        cells = {}
        for name, protocol in self.protocols.items():
            for snr, env in self.envs.items():
                cells[(name, snr)] = experiments.evaluate_accuracy(
                    protocol, self.config.task, env, self.config.eval, master, n_repeats=self.repeats
                )
                checkpoint()
        auc = experiments.auc_matrix(
            self.protocols["adhoc"], self.validation_env, self.config.eval, master,
            n_repeats=self.repeats,
        )
        return {"round": round_index, "cells": cells, "auc": auc}

    def units(self, out) -> int:
        return (len(out["cells"]) + len(out["auc"])) * self.repeats

    def check(self, out) -> list:
        reference = REFERENCE["report"]
        problems = []
        for (name, snr), (mean, std) in out["cells"].items():
            if not (within(mean, reference["accuracy"][name][repr(snr)], self.repeats)
                    and math.isfinite(std)):
                problems.append(f"accuracy {name} snr {snr:g}: {mean:.4f} off reference")
        for task, params in out["auc"].items():
            for param, (mean, std) in params.items():
                if not (within(mean, reference["auc"][task][param], self.repeats)
                        and math.isfinite(std)):
                    problems.append(f"auc {task} {param}: {mean:.4f} off reference")
        return problems + self.roundtrip_problems(out["round"])

    def roundtrip_problems(self, round_index: int) -> list:
        """Noiseless adhoc fits recover (s0, f, d, d*) within C01's 5 % / 10 % bounds."""
        rng = np.random.default_rng(stream(self.seed, round_index, CHECKS))
        protocol = self.protocols["adhoc"]
        scanner = self.config.scanner
        te = protocol.echo_time(scanner)
        n = self.roundtrip_draws
        f = rng.uniform(0.03, 0.30, n)
        d = rng.uniform(1.5e-4, 1.0e-3, n)
        dstar = rng.uniform(np.maximum(2.2e-2, 25.0 * d), 8e-2)
        signals = np.array([
            ivim.ivim_signal(ivim.IvimParams(1.0, *p), protocol.b_array, te, scanner.t2)
            for p in zip(f, d, dstar)
        ])
        features, _ = fitting.segmented_fit_batch(signals, protocol.b_array, self.config.fit_bounds)
        s0_eff = math.exp(-te / scanner.t2)
        truth = np.column_stack([np.full(n, s0_eff), f, d, dstar])
        tolerance = np.column_stack([np.full((n, 3), 0.05), np.where(f < 0.05, 0.10, 0.05)])
        bad = (np.abs(features - truth) > tolerance * truth).any(axis=1)
        return [f"noiseless round-trip: {int(bad.sum())}/{n} draws outside C01 bounds"] if bad.any() else []

    def counts(self, out) -> dict:
        experiments_run = len(out["cells"]) * self.repeats
        auc_repeats = len(out["auc"]) * self.repeats
        fits = experiments_run + auc_repeats
        return {
            "round": 1,
            "experiments.evaluate_accuracy": len(out["cells"]),
            "experiments.auc_matrix": 1,
            "classify.cross_val_accuracy": experiments_run,
            "classify.parameter_auc": auc_repeats * len(experiments.AUC_PARAMS),
            "cohort.sample_cohort": fits,
            "cohort.simulate_dataset": fits,
            "fitting.fit_dataset": fits,
            "fit.rows": experiments_run * self.task_size + self.repeats * sum(self.binary_sizes),
        }

    def outputs(self, out):
        cells = [[name, repr(snr), repr(m), repr(s)] for (name, snr), (m, s) in out["cells"].items()]
        auc = [[t, p, repr(m), repr(s)] for t, ps in out["auc"].items() for p, (m, s) in ps.items()]
        return cells + auc


class CrlbAnneal:
    """``optimize_crlb`` over multiclass tissue samples at a fixed iteration count."""

    def __init__(self, config, seed: int, tiny: bool):
        self.config = config
        self.seed = seed
        self.crlb_config = dataclasses.replace(config.crlb, iterations=50 if tiny else 2000)
        self.classes = config.task.classes
        self.distributions = config.distributions()
        self.standalone = [ivim.AcquisitionProtocol(PANEL[name]) for name in ("adhoc", "crlb_mc")]

    def _samples(self, rng):
        return crlb.draw_tissue_samples(
            self.classes, self.distributions, self.crlb_config.n_tissue_samples, rng
        )

    def warm_up(self) -> None:
        samples = self._samples(np.random.default_rng(stream(self.seed, 0, WARM_UP)))
        crlb.crlb_objective(self.standalone[0], samples, self.config.scanner, self.crlb_config)

    def run_round(self, round_index: int, tracer, checkpoint):
        rng = np.random.default_rng(stream(self.seed, round_index, ROUND_INPUTS))
        samples = self._samples(rng)
        protocol, cost, trace = crlb.optimize_crlb(
            self.classes, self.distributions, self.config.scanner, self.crlb_config, rng,
            tissue_samples=samples,
        )
        standalone = [
            crlb.crlb_objective(p, samples, self.config.scanner, self.crlb_config)
            for p in [protocol, *self.standalone]
        ]
        return {"protocol": protocol, "cost": cost, "trace": trace, "standalone": standalone}

    def units(self, out) -> int:
        return self.crlb_config.iterations

    def check(self, out) -> list:
        cost, trace, (rescored, initial, _) = out["cost"], out["trace"], out["standalone"]
        problems = protocol_problems(out["protocol"].b_values)
        if not (math.isfinite(cost) and cost < crlb.SINGULAR_PENALTY):
            problems.append(f"best cost {cost} not finite")
        if abs(rescored - cost) > 1e-12 * abs(cost):
            problems.append(f"crlb_objective re-scores the best protocol to {rescored}, not {cost}")
        if cost > initial:
            problems.append(f"best cost {cost} worse than the initial design's {initial}")
        if len(trace) != self.crlb_config.iterations or trace[-1] != cost or (np.diff(trace) > 0).any():
            problems.append("best-cost trace is not monotone or does not end at the best cost")
        return problems

    def counts(self, out) -> dict:
        return {
            "round": 1,
            "cohort.sample_cohort": 1,
            "crlb.optimize_crlb": 1,
            "crlb.crlb_objective": len(out["standalone"]),
        }

    def outputs(self, out):
        return [list(out["protocol"].b_values), repr(out["cost"])] + [repr(c) for c in out["standalone"]]


WORKLOADS = {"rl_search": RlSearch, "report": Report, "crlb_anneal": CrlbAnneal}


def machine_facts() -> dict:
    cpu_model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_affinity": "none set: processes may run on any CPU, and the machine may be shared",
    }


def run(args) -> dict:
    config = load_experiment_config(CONFIG_PATH)
    workload = WORKLOADS[args.workload](config, args.seed, args.tiny)
    workload.warm_up()
    raw_setup_s = time.monotonic() - args.spawned_at
    clock = Clock()
    setup = {"setup_s": clock.scale(raw_setup_s), "raw_setup_s": raw_setup_s}
    if args.setup_only:
        return setup

    tracer = None
    checkpoint = clock.checkpoint
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}-{time.time_ns()}")
        tracer.install()
        checkpoint = no_checkpoint

    problems, round_s = [], []
    units = 0
    started = time.monotonic()
    while True:
        round_index = len(round_s)
        span = nullcontext()
        if tracer is not None:
            tracer.round, tracer.paused = round_index, False
            span = tracer.span("round")
        t0 = time.monotonic()
        clock.start()
        with span:
            out = workload.run_round(round_index, tracer, checkpoint)
        clock.stop()
        round_s.append(time.monotonic() - t0)
        if tracer is not None:
            tracer.paused = True
        units += workload.units(out)
        problems += [f"round {round_index}: {p}" for p in workload.check(out)]
        if round_index == 0:
            first_digest, counts = digest(workload.outputs(out)), workload.counts(out)
        expected_end = time.monotonic() + sum(round_s) / len(round_s)
        if expected_end - started > args.seconds:
            break

    result = {
        **setup,
        "rounds": len(round_s),
        "units": units,
        "work_s": clock.raw_s,
        "protocols_per_s": units / clock.scaled_s,
        "raw_protocols_per_s": units / clock.raw_s,
        "calibration_ms": clock.median_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems[:20],
        "counts": counts,
        "digest": first_digest,
        "facts": machine_facts(),
    }
    if tracer is not None:
        result.update(traced_results(tracer, result))
    return result


def traced_results(tracer, result) -> dict:
    rounds = result["rounds"]
    first = tracer.round_counts(0)
    rows = first.get("fit.rows", 0)
    counters = {
        f"fit.{flag}_frac": first.get(f"fit.{flag}", 0) / rows if rows else 0.0
        for flag in FIT_FLAGS
    }
    anneal_s = tracer.total_s("crlb.optimize_crlb")
    counters.update({
        "fit.rows": rows,
        "protocol_env.reward_share": tracer.total_s("classify.task_objective") / result["work_s"],
        "ppo.episodes": first.get("protocol_env.step_terminal", 0),
        "ppo.updates": first.get("ppo.ppo_update", 0),
        "ppo.minibatches": first.get("ppo.minibatches", 0),
        "ppo.update_share": tracer.total_s("ppo.ppo_update") / result["work_s"],
        # crlb_anneal's units are anneal iterations; the other workloads run none
        "crlb.iter_us": anneal_s / result["units"] * 1e6 if anneal_s else 0.0,
    })
    span_dir = HERE / "out"
    span_dir.mkdir(exist_ok=True)
    span_file = span_dir / f"spans-{tracer.run_id}.jsonl"
    tracer.write(span_file, {"facts": result["facts"], "rounds": rounds})
    return {
        "layers": tracer.layer_stats(rounds),
        "counters": counters,
        "traced_counts": first,
        "span_file": os.path.relpath(span_file),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-check sizes, not for measuring")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
