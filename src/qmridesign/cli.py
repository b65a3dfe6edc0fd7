"""Command-line interface.

Subcommands: validate, calibrate, evaluate (alias sweep-snr), optimize,
plot, report. Each takes only the flags it reads. Every command but
report resolves one JSON config (flags override individual fields) once;
``main`` pairs its hash with the master seed in the run's one provenance
stamp. A command computes its result, then one writer per format stamps
and writes it, making the output directory. A refused command, an unreadable
input or an unwritable output ends in one line before any work, writing nothing.
Concurrent invocations must target distinct output directories.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibrate import DEFAULT_AUC_TARGETS, calibrate_distributions
from .classify import Task
from .cohort import CohortError
from .config import (
    ExperimentConfig,
    OPTIMIZER_CHOICES,
    config_hash,
    load_experiment_config,
    save_tissue_distributions,
    with_file_values,
    write_json,
)
from .crlb import optimize_crlb
from .experiments import auc_matrix, evaluate_accuracy, protocol_id
from .ivim import AcquisitionProtocol, PROTOCOL_LENGTH
from .plotting import plot_accuracy_vs_snr
from .ppo import load_checkpoint, rollout_greedy, save_checkpoint, train
from .protocol_env import EPISODE_STEPS, ProtocolEnv
from .reports import (
    ReportRow,
    append_report_rows,
    load_protocol_artifact,
    read_report,
    save_protocol_artifact,
    write_anneal_trace,
    write_csv,
    write_curve,
)
from .seeds import derive_rng

__all__ = ["main"]


#: flags shared by several subcommands, as add_argument keywords; a flag whose
#: dest is an ExperimentConfig field overrides that field of the config
_FLAGS = {
    "config": dict(type=Path, help="experiment config JSON"),
    "seed": dict(type=int, help="master seed override"),
    "out": dict(dest="out_dir", type=Path, help="output directory override"),
    "task": dict(choices=[t.token for t in Task], help="task override"),
    "snr": dict(dest="snr_list", type=lambda text: [_number(value) for value in text.split(",")],
                help="comma-separated SNR list override, e.g. 5,15,25,35"),
    "optimizer": dict(choices=OPTIMIZER_CHOICES, help="protocol source or optimizer override"),
    "report": dict(type=Path, required=True, help="input report.csv"),
}


def _number(text: str):
    """``text`` as a float, or as it is if it is not one: a float config field refuses it in one line."""
    try:
        return float(text)
    except ValueError:
        return text


def _budget(text: str) -> int:
    """A ``--budget`` value: a whole number, not negative."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmridesign",
        description="Task-driven acquisition protocol design for quantitative diffusion MRI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, summary, flags, **kwargs):
        p = sub.add_parser(name, help=summary, **kwargs)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(run=run)
        return p

    common = ("config", "seed", "out")
    add("validate", cmd_validate, "per-parameter AUC matrix for the binary tasks", common)

    p = add("calibrate", cmd_calibrate, "fit tissue distributions to the AUC target matrix", common)
    p.add_argument("--budget", type=_budget, default=6, help="coordinate-descent rounds")

    p = add("evaluate", cmd_evaluate, "accuracy of a protocol at the requested SNRs",
            (*common, "task", "snr", "optimizer"), aliases=["sweep-snr"])
    source = p.add_mutually_exclusive_group()
    source.add_argument("--protocol", help=f"literal protocol: {PROTOCOL_LENGTH} comma-separated b-values")
    source.add_argument("--protocol-file", type=Path, help="stored protocol artifact (JSON)")
    source.add_argument("--checkpoint", type=Path, help="agent checkpoint; evaluates its greedy protocol")
    p.add_argument("--label", help="method label for report rows")

    p = add("optimize", cmd_optimize, "search for a protocol (crlb or rl)",
            (*common, "task", "optimizer"))
    p.add_argument("--budget", type=_budget, help="step/iteration budget override")

    add("plot", cmd_plot, "accuracy-vs-SNR chart from a report CSV", ("config", "out", "report"))
    add("report", cmd_report, "print a report CSV as an aggregated table", ("report",))
    return parser


#: the (section, field) that ``optimize --budget`` overrides, per optimizer
_BUDGET_FIELDS = {"crlb": ("crlb", "iterations"), "rl": ("ppo", "total_steps")}


def _resolve_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the command's override flags applied.

    ``optimize --budget`` overrides the chosen optimizer's budget field, so the
    hash and the config snapshot record the budget that runs. An rl search
    whose budget completes no episode is refused.
    """
    config = load_experiment_config(args.config) if args.config else ExperimentConfig()
    config = with_file_values(config, {name: value for name, value in vars(args).items() if value is not None})
    if args.command == "optimize" and args.budget is not None and config.optimizer in _BUDGET_FIELDS:
        section, name = _BUDGET_FIELDS[config.optimizer]
        config = replace(config, **{section: replace(getattr(config, section), **{name: args.budget})})
    if args.command == "optimize" and config.optimizer == "rl" and config.ppo.total_steps < EPISODE_STEPS:
        # it would write the untouched baseline as the rl protocol
        raise ValueError(f"ppo.total_steps is {config.ppo.total_steps}, but an rl search completes "
                         f"no episode in fewer than {EPISODE_STEPS} steps")
    return config


def _parse_protocol_literal(text: str) -> AcquisitionProtocol:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise SystemExit(f"malformed protocol literal {text!r}: {err}") from err
    try:
        return AcquisitionProtocol(values)
    except ValueError as err:
        raise SystemExit(f"invalid protocol {text!r}: {err}") from err


def _read(load, path):
    """``load(path)``; a file that is missing or not of the expected kind ends
    the command with one line naming it."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as err:
        raise SystemExit(f"cannot read {path}: {err}") from err


def _protocol_source(args, config: ExperimentConfig, sim_env):
    """Resolve (protocol, method_label) from the source flags; a checkpoint rolls out in ``sim_env``."""
    if args.protocol:
        return _parse_protocol_literal(args.protocol), args.label or "custom"
    if args.protocol_file:
        protocol, payload = _read(load_protocol_artifact, args.protocol_file)
        return protocol, args.label or payload.get("method", "artifact")
    if args.checkpoint:
        agent, _ = _read(load_checkpoint, args.checkpoint)
        shape = (agent.observation_size, agent.n_actions)
        expected = (ProtocolEnv.observation_size, ProtocolEnv.n_actions)
        if shape != expected:
            raise SystemExit(f"cannot use {args.checkpoint}: its agent has (observation_size, n_actions) "
                             f"= {shape}, the protocol environment needs {expected}")
        env = ProtocolEnv(sim_env, config.task, config.eval, master_seed=config.seed)
        protocol, _ = rollout_greedy(agent, env)
        return protocol, args.label or "rl"
    if config.optimizer == "adhoc":
        return AcquisitionProtocol.adhoc(), args.label or "adhoc"
    raise SystemExit(
        "no protocol source: pass --protocol, --protocol-file, --checkpoint or --optimizer adhoc"
    )


def cmd_validate(args, config: ExperimentConfig, out: Path, stamp: dict) -> int:
    started = time.perf_counter()
    matrix = auc_matrix(AcquisitionProtocol.adhoc(), config.validation_env(), config.eval, config.seed)
    elapsed = time.perf_counter() - started

    path = out / "auc_report.csv"
    write_csv(path, ["task", "param", "mean_auc", "std_auc", "n_repeats", *stamp], (
        [task_token, param, repr(mean), repr(std), config.eval.n_repeats_report, *stamp.values()]
        for task_token, params in matrix.items() for param, (mean, std) in params.items()
    ))
    for task_token, params in matrix.items():
        cells = "  ".join(f"{p}={mean:.2f}+/-{std:.2f}" for p, (mean, std) in params.items())
        print(f"{task_token:16s} {cells}")
    print(f"wrote {path} ({elapsed:.1f}s)")
    return 0


def cmd_calibrate(args, config: ExperimentConfig, out: Path, stamp: dict) -> int:
    result = calibrate_distributions(config.validation_env(), config.eval, config.seed, max_rounds=args.budget)
    tissue_path = out / "tissue_calibrated.json"
    save_tissue_distributions(tissue_path, result.distributions)
    write_json(out / "calibration_report.json", {
        "converged": result.converged,
        "loss": result.loss,
        "evaluations": result.evaluations,
        "max_rounds": args.budget,
        "achieved": result.achieved,
        "targets": DEFAULT_AUC_TARGETS,
        **stamp,
    })
    if not result.converged:
        warnings.warn("calibration budget exhausted before reaching targets; wrote best found")
    print(f"calibration loss {result.loss:.4f} (converged={result.converged}); wrote {tissue_path}")
    return 0


def cmd_evaluate(args, config: ExperimentConfig, out: Path, stamp: dict) -> int:
    path = out / "report.csv"
    if path.exists():  # the rows are appended to it: one it cannot read is refused before any scoring
        _read(read_report, path)
    base = config.sim_env()
    protocol, label = _protocol_source(args, config, base)
    rows = []
    for snr in config.snrs():
        env = base.with_snr(snr)
        started = time.perf_counter()
        mean, std = evaluate_accuracy(protocol, config.task, env, config.eval, config.seed)
        elapsed = time.perf_counter() - started
        rows.append(ReportRow(
            task=config.task.token, method=label, protocol_id=protocol_id(protocol),
            b_values=protocol.b_values, te_s=protocol.echo_time(env.scanner), snr=float(snr),
            mean_accuracy=mean, std_accuracy=std, n_repeats=config.eval.n_repeats_report,
            **stamp, wall_clock_s=elapsed,
        ))
    append_report_rows(path, rows)
    for row in rows:
        print(f"{row.task} {row.method} snr={row.snr:g}: "
              f"{row.mean_accuracy:.3f} +/- {row.std_accuracy:.3f} (n={row.n_repeats})")
    print(f"appended {len(rows)} row(s) to {path}")
    return 0


def cmd_optimize(args, config: ExperimentConfig, out: Path, stamp: dict) -> int:
    method = config.optimizer
    if method not in ("crlb", "rl"):
        raise SystemExit("optimize requires --optimizer crlb or --optimizer rl")

    rng = derive_rng(config.seed, f"optimize-{method}")
    if method == "crlb":
        protocol, objective, trace = optimize_crlb(config.task.classes, config.distributions(), config.scanner,
                                                   config.crlb, rng)
        extra, summary = {}, f"cost={objective:.4g}"
        write_anneal_trace(out / "anneal.csv", trace)
    else:
        env = ProtocolEnv(config.sim_env(), config.task, config.eval, master_seed=config.seed)
        result = train(env, config.ppo, rng)
        protocol, objective = result.best_protocol, result.best_reward
        extra = {"episodes": result.episodes, "total_steps": config.ppo.total_steps}
        summary = f"best_reward={objective:.3f} ({result.episodes} episodes)"
        write_curve(out / "curve.csv", result.curve, result.update_stats)
        save_checkpoint(out / "checkpoint.npz", result.agent, stamp)
    write_json(out / "config_snapshot.json", config.to_dict())
    artifact = out / f"protocol_{method}.json"
    save_protocol_artifact(artifact, protocol, method, config.scanner, stamp,
                           objective if np.isfinite(objective) else None, extra)
    print(f"{method} protocol {list(protocol.b_values)} {summary}; wrote {artifact}")
    return 0


def cmd_plot(args, config: ExperimentConfig, out: Path, stamp: dict) -> int:
    rows = _read(read_report, args.report)
    tasks = sorted({row["task"] for row in rows})
    if len(tasks) > 1:  # a series is one method's results; across tasks they are not one curve
        raise SystemExit(f"cannot plot {args.report}: it mixes the tasks {tasks}; a chart shows one task")
    path = out / "accuracy_vs_snr.svg"
    # the plotted rows' own provenance, under the stamp's keys, not the config given to plot
    provenance = " ".join(
        f"{key}=" + ",".join(str(value) for value in sorted({row[key] for row in rows}))
        for key in stamp
    )
    try:
        plot_accuracy_vs_snr(rows, path, comment=provenance)
    except ValueError as err:  # an empty report, two results for one cell, or "--" in the provenance
        raise SystemExit(f"cannot plot {args.report}: {err}") from err
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    rows = _read(read_report, args.report)
    if not rows:
        print("report is empty")
        return 0
    print(f"{'task':16s} {'method':10s} {'snr':>6s} {'accuracy':>16s} {'n':>4s}")
    for row in sorted(rows, key=lambda r: (r["task"], r["method"], r["snr"])):
        print(f"{row['task']:16s} {row['method']:10s} {row['snr']:6g} "
              f"{row['mean_accuracy']:.3f} +/- {row['std_accuracy']:.3f} {row['n_repeats']:4d}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if "config" not in args:
        return args.run(args)
    try:
        config = _resolve_config(args)
        stamp = {"config_hash": config_hash(config), "seed": config.seed}  # reads the tissue file
    except (ValueError, TypeError, OSError) as err:
        raise SystemExit(f"invalid configuration: {err}") from err
    out = Path(config.out_dir)
    blocking = next(path for path in (out, *out.parents) if path.exists())
    if not blocking.is_dir():  # no writer could make the output directory
        raise SystemExit(f"cannot write to {out}: {blocking} is not a directory")
    try:
        return args.run(args, config, out, stamp)
    except CohortError as err:  # the command samples a class the config lacks or cannot sample
        raise SystemExit(f"{args.command}: {err}") from err


if __name__ == "__main__":
    sys.exit(main())
