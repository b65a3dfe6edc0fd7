"""Command-line interface.

Subcommands: validate, calibrate, evaluate (alias sweep-snr), optimize,
plot, report. Every command reads one JSON config (flags override individual
fields) and writes artifacts stamped with the config hash and master seed
into the output directory. Concurrent invocations must target distinct
output directories.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibrate import DEFAULT_AUC_TARGETS, calibrate_distributions
from .classify import Task
from .config import (
    ExperimentConfig,
    OPTIMIZER_CHOICES,
    config_hash,
    load_experiment_config,
    save_tissue_distributions,
)
from .crlb import optimize_crlb
from .experiments import AUC_PARAMS, auc_matrix, evaluate_accuracy, protocol_id
from .ivim import AcquisitionProtocol, PROTOCOL_LENGTH
from .plotting import plot_accuracy_vs_snr
from .ppo import load_checkpoint, rollout_greedy, save_checkpoint, train
from .protocol_env import ProtocolEnv
from .reports import (
    ReportRow,
    append_report_rows,
    load_protocol_artifact,
    read_report,
    save_protocol_artifact,
    write_curve,
)
from .seeds import derive_rng

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmridesign",
        description="Task-driven acquisition protocol design for quantitative diffusion MRI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, summary, **kwargs):
        p = sub.add_parser(name, help=summary, **kwargs)
        p.add_argument("--config", type=Path, help="experiment config JSON")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", type=Path, help="output directory override")
        p.add_argument("--task", help="task override: " + "|".join(t.token for t in Task))
        p.add_argument("--snr", help="comma-separated SNR list override, e.g. 5,15,25,35")
        p.set_defaults(run=run)
        return p

    add("validate", cmd_validate, "per-parameter AUC matrix for the binary tasks")

    p = add("calibrate", cmd_calibrate, "fit tissue distributions to the AUC target matrix")
    p.add_argument("--budget", type=int, default=6, help="coordinate-descent rounds")

    p = add("evaluate", cmd_evaluate, "accuracy of a protocol at the requested SNRs",
            aliases=["sweep-snr"])
    _add_protocol_source(p)

    p = add("optimize", cmd_optimize, "search for a protocol (crlb or rl)")
    p.add_argument("--optimizer", choices=OPTIMIZER_CHOICES)
    p.add_argument("--budget", type=int, help="step/iteration budget override")

    p = add("plot", cmd_plot, "accuracy-vs-SNR chart from a report CSV")
    p.add_argument("--report", type=Path, required=True, help="input report.csv")

    p = add("report", cmd_report, "print a report CSV as an aggregated table")
    p.add_argument("--report", type=Path, required=True, help="input report.csv")
    return parser


def _add_protocol_source(p) -> None:
    p.add_argument("--protocol", help=f"literal protocol: {PROTOCOL_LENGTH} comma-separated b-values")
    p.add_argument("--protocol-file", type=Path, help="stored protocol artifact (JSON)")
    p.add_argument("--checkpoint", type=Path, help="agent checkpoint; evaluates its greedy protocol")
    p.add_argument("--optimizer", choices=OPTIMIZER_CHOICES, help="adhoc evaluates the baseline protocol")
    p.add_argument("--label", help="method label for report rows")


def _resolve_config(args) -> ExperimentConfig:
    config = load_experiment_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = str(args.out)
    if getattr(args, "task", None):
        overrides["task"] = Task.from_token(args.task)
    if getattr(args, "snr", None):
        overrides["snr_list"] = tuple(float(s) for s in args.snr.split(","))
    if getattr(args, "optimizer", None):
        overrides["optimizer"] = args.optimizer
    return replace(config, **overrides)


def _parse_protocol_literal(text: str) -> AcquisitionProtocol:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise SystemExit(f"malformed protocol literal {text!r}: {err}") from err
    try:
        return AcquisitionProtocol(values)
    except ValueError as err:
        raise SystemExit(f"invalid protocol {text!r}: {err}") from err


def _protocol_source(args, config: ExperimentConfig):
    """Resolve (protocol, method_label) from the CLI source flags."""
    if args.protocol:
        return _parse_protocol_literal(args.protocol), args.label or "custom"
    if args.protocol_file:
        protocol, payload = load_protocol_artifact(args.protocol_file)
        return protocol, args.label or payload.get("method", "artifact")
    if args.checkpoint:
        agent, _, _ = load_checkpoint(args.checkpoint)
        env = ProtocolEnv(config.sim_env(), config.task, config.eval, master_seed=config.seed)
        protocol, _, _ = rollout_greedy(agent, env)
        return protocol, args.label or "rl"
    optimizer = args.optimizer or config.optimizer
    if optimizer == "adhoc":
        return AcquisitionProtocol.adhoc(), args.label or "adhoc"
    raise SystemExit(
        "no protocol source: pass --protocol, --protocol-file, --checkpoint or --optimizer adhoc"
    )


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    digest = config_hash(config)
    protocol = AcquisitionProtocol.adhoc()
    started = time.perf_counter()
    matrix = auc_matrix(protocol, config.validation_env(), config.eval, config.seed)
    elapsed = time.perf_counter() - started

    path = out / "auc_report.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["task", "param", "mean_auc", "std_auc", "n_repeats", "config_hash", "seed"])
        for task_token, params in matrix.items():
            for param in AUC_PARAMS:
                mean, std = params[param]
                writer.writerow(
                    [task_token, param, repr(mean), repr(std), config.eval.n_repeats_report,
                     digest, config.seed]
                )
    for task_token, params in matrix.items():
        cells = "  ".join(f"{p}={params[p][0]:.2f}+/-{params[p][1]:.2f}" for p in AUC_PARAMS)
        print(f"{task_token:16s} {cells}")
    print(f"wrote {path} ({elapsed:.1f}s)")
    return 0


def cmd_calibrate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    result = calibrate_distributions(
        config.distributions(),
        config.validation_env(),
        config.eval,
        config.seed,
        targets=DEFAULT_AUC_TARGETS,
        max_rounds=args.budget,
    )
    tissue_path = out / "tissue_calibrated.json"
    save_tissue_distributions(tissue_path, result.distributions)
    report = {
        "converged": result.converged,
        "loss": result.loss,
        "evaluations": result.evaluations,
        "achieved": result.achieved,
        "targets": DEFAULT_AUC_TARGETS,
        "config_hash": config_hash(config),
        "seed": config.seed,
    }
    (out / "calibration_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not result.converged:
        warnings.warn("calibration budget exhausted before reaching targets; wrote best found")
    print(f"calibration loss {result.loss:.4f} (converged={result.converged}); wrote {tissue_path}")
    return 0


def _evaluate_rows(config: ExperimentConfig, protocol: AcquisitionProtocol, label: str, snrs):
    digest = config_hash(config)
    rows = []
    for snr in snrs:
        env = config.sim_env(snr=snr)
        started = time.perf_counter()
        mean, std = evaluate_accuracy(protocol, config.task, env, config.eval, config.seed)
        elapsed = time.perf_counter() - started
        rows.append(
            ReportRow(
                task=config.task.token,
                method=label,
                protocol_id=protocol_id(protocol),
                b_values=protocol.b_values,
                te_s=protocol.echo_time(env.scanner),
                snr=float(snr),
                mean_accuracy=mean,
                std_accuracy=std,
                n_repeats=config.eval.n_repeats_report,
                config_hash=digest,
                seed=config.seed,
                wall_clock_s=elapsed,
            )
        )
    return rows


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    protocol, label = _protocol_source(args, config)
    rows = _evaluate_rows(config, protocol, label, config.snrs())
    path = out / "report.csv"
    append_report_rows(path, rows)
    for row in rows:
        print(
            f"{row.task} {row.method} snr={row.snr:g}: "
            f"{row.mean_accuracy:.3f} +/- {row.std_accuracy:.3f} (n={row.n_repeats})"
        )
    print(f"appended {len(rows)} row(s) to {path}")
    return 0


def cmd_optimize(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    digest = config_hash(config)
    optimizer = config.optimizer
    if optimizer not in ("crlb", "rl"):
        raise SystemExit("optimize requires --optimizer crlb or --optimizer rl")

    (out / "config_snapshot.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    if optimizer == "crlb":
        crlb_config = config.crlb
        if args.budget is not None:
            crlb_config = replace(crlb_config, iterations=args.budget)
        rng = derive_rng(config.seed, "optimize-crlb")
        protocol, cost, _ = optimize_crlb(
            config.task.classes, config.distributions(), config.scanner, crlb_config, rng
        )
        artifact = out / "protocol_crlb.json"
        save_protocol_artifact(
            artifact, protocol, protocol.echo_time(config.scanner), "crlb",
            protocol_id(protocol), digest, config.seed, objective_value=cost,
        )
        print(f"crlb protocol {list(protocol.b_values)} cost={cost:.4g}; wrote {artifact}")
        return 0

    ppo_config = config.ppo
    if args.budget is not None:
        ppo_config = replace(ppo_config, total_steps=args.budget)
    env = ProtocolEnv(config.sim_env(), config.task, config.eval, master_seed=config.seed)
    rng = derive_rng(config.seed, "optimize-rl")
    result = train(env, ppo_config, rng)
    protocol = result.best_protocol or AcquisitionProtocol.adhoc()
    artifact = out / "protocol_rl.json"
    save_protocol_artifact(
        artifact, protocol, protocol.echo_time(config.scanner), "rl",
        protocol_id(protocol), digest, config.seed,
        objective_value=result.best_reward if np.isfinite(result.best_reward) else None,
        extra={"episodes": result.episodes, "total_steps": ppo_config.total_steps},
    )
    write_curve(out / "curve.csv", result.curve)
    save_checkpoint(out / "checkpoint.npz", result.agent, ppo_config.total_steps,
                    extra={"config_hash": digest, "seed": config.seed})
    print(
        f"rl protocol {list(protocol.b_values)} best_reward={result.best_reward:.3f} "
        f"({result.episodes} episodes); wrote {artifact}"
    )
    return 0


def cmd_plot(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(config)
    rows = read_report(args.report)
    if not rows:
        raise SystemExit(f"report {args.report} has no rows")
    path = out / "accuracy_vs_snr.svg"
    plot_accuracy_vs_snr(
        rows, path, comment=f"config_hash={config_hash(config)} seed={config.seed}"
    )
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    rows = read_report(args.report)
    if not rows:
        print("report is empty")
        return 0
    print(f"{'task':16s} {'method':10s} {'snr':>6s} {'accuracy':>16s} {'n':>4s}")
    for row in sorted(rows, key=lambda r: (r["task"], r["method"], r["snr"])):
        print(
            f"{row['task']:16s} {row['method']:10s} {row['snr']:6g} "
            f"{row['mean_accuracy']:.3f} +/- {row['std_accuracy']:.3f} {row['n_repeats']:4d}"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
