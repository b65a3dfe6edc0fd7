"""Spans and counters around the calls into qmridesign's layers.

Only the traced run uses this module. It never edits the package: it
replaces the function object each caller looks up (a module attribute
such as ``qmridesign.classify.fit_dataset``, or a method on an instance
the benchmark passes in, such as the agent given to ``train()``) with a
wrapper that records a span and then calls the original.

Spans stay in memory and are written once, when the run ends. A span is
(name, start, end, parent, round); the run id is stamped on every line
of the span file.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, function) pairs whose every lookup site inside the package gets a span
MODULE_BOUNDARIES = (
    ("qmridesign.cohort", "sample_cohort"),
    ("qmridesign.cohort", "simulate_dataset"),
    ("qmridesign.fitting", "fit_dataset"),
    ("qmridesign.classify", "task_objective"),
    ("qmridesign.classify", "cross_val_accuracy"),
    ("qmridesign.classify", "parameter_auc"),
    ("qmridesign.experiments", "evaluate_accuracy"),
    ("qmridesign.experiments", "auc_matrix"),
    ("qmridesign.ppo", "ppo_update"),
    ("qmridesign.crlb", "optimize_crlb"),
    ("qmridesign.crlb", "crlb_objective"),
)

#: every span name a traced run reports, in report order
BOUNDARIES = (
    "round",
    "cohort.sample_cohort",
    "cohort.simulate_dataset",
    "fitting.fit_dataset",
    "classify.task_objective",
    "classify.cross_val_accuracy",
    "classify.parameter_auc",
    "experiments.evaluate_accuracy",
    "experiments.auc_matrix",
    "protocol_env.step_terminal",
    "protocol_env.step_nonterminal",
    "ppo.act",
    "ppo.ppo_update",
    "crlb.optimize_crlb",
    "crlb.crlb_objective",
)

#: fit flag columns, in the order fit_dataset stores them
FIT_FLAGS = ("deficient", "f_clamped", "dstar_at_bound")

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def tail_value(sorted_values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would lie under the
    median, and the median is returned instead.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(sorted_values)
    return sorted_values[n - 1 - TAIL_BEYOND]


class Tracer:
    """In-memory span recorder; ``round`` tags every span and counter."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round = 0
        self.paused = False
        # each span: [name, start_ns, end_ns, parent_index, round]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict = defaultdict(int)  # (round, counter name) -> count

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()
        self.counts[(self.round, record[0])] += 1

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn, name_from_result=None, on_result=None):
        """Wrapper recording one span per call of ``fn``.

        ``name_from_result`` may rename the span after the call returns;
        ``on_result`` sees each result, to count what it carries.
        """

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(record)
                raise
            if name_from_result is not None:
                record[0] = name_from_result(result)
            self._close(record)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        if not self.paused:
            self.counts[(self.round, name)] += amount

    def counter(self, name: str, fn):
        """Wrapper that only counts calls of ``fn`` (no span, no clock read)."""

        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count_fit_flags(self, dataset) -> None:
        flags = dataset.fit_flags
        self.count("fit.rows", int(flags.shape[0]))
        for column, flag in enumerate(FIT_FLAGS):
            self.count(f"fit.{flag}", int(flags[:, column].sum()))

    def install(self) -> None:
        """Wrap every lookup site of MODULE_BOUNDARIES inside the package."""
        package = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "qmridesign"}
        for module_name, attr in MODULE_BOUNDARIES:
            original = getattr(package[module_name], attr)
            on_result = self._count_fit_flags if attr == "fit_dataset" else None
            wrapper = self.wrap(f"{module_name.split('.')[1]}.{attr}", original, on_result=on_result)
            for module in package.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def wrap_agent(self, agent) -> None:
        """Span each ``act`` and count each minibatch (one Adam step)."""
        agent.act = self.wrap("ppo.act", agent.act)
        agent.optimizer.step = self.counter("ppo.minibatches", agent.optimizer.step)

    def wrap_env(self, env) -> None:
        """Span each ``step``, named by whether it ended the episode."""
        env.step = self.wrap(
            "protocol_env.step_nonterminal",
            env.step,
            name_from_result=lambda out: (
                "protocol_env.step_terminal" if out[2] else "protocol_env.step_nonterminal"
            ),
        )

    def round_counts(self, round_index: int = 0) -> dict:
        """Counters and span calls of one round, keyed by name."""
        return {name: n for (r, name), n in self.counts.items() if r == round_index}

    def layer_stats(self, rounds: int) -> dict:
        """Per boundary: calls in round 0, samples, self time per round, p50, tail."""
        durations = defaultdict(list)
        self_ns = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[index]
            duration = end - start
            durations[name].append(duration)
            self_ns[name] += duration - child_ns[index]
            if parent >= 0:
                child_ns[parent] += duration
        first = self.round_counts(0)
        stats = {}
        for name in BOUNDARIES:
            values = sorted(durations.get(name, ()))
            stats[name] = {
                "calls": first.get(name, 0),
                "samples": len(values),
                "self_s": self_ns.get(name, 0) / 1e9 / max(rounds, 1),
                "p50_ms": statistics.median(values) / 1e6 if values else 0.0,
                "tail_ms": tail_value(values) / 1e6,
            }
        return stats

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) / 1e9

    def write(self, path, header: dict) -> None:
        """Write the run's spans as JSON lines after one header line."""
        lines = [json.dumps({"run": self.run_id, **header})]
        for index, (name, start, end, parent, round_index) in enumerate(self.spans):
            lines.append(
                json.dumps(
                    {
                        "run": self.run_id,
                        "id": index,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": parent if parent >= 0 else None,
                        "round": round_index,
                    }
                )
            )
        path.write_text("\n".join(lines) + "\n")
