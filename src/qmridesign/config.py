"""Experiment configuration: file schema, loading, resolution and hashing.

A single JSON file drives every command. Sections are optional; omitted
fields fall back to the package defaults. The resolved configuration
(including the tissue-distribution values it references) is hashed, and
that hash plus the master seed are embedded in every artifact so each
output is reproducible from the pair alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Mapping

from .classify import EvalConfig, SimulationEnv, Task
from .cohort import CohortSpec, TissueClass, TissueDistribution
from .crlb import CrlbConfig
from .fitting import FitBounds
from .ivim import ScannerConfig
from .ppo import PpoConfig

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "TISSUE_SCHEMA_VERSION",
    "OPTIMIZER_CHOICES",
    "ExperimentConfig",
    "load_experiment_config",
    "load_tissue_distributions",
    "save_tissue_distributions",
    "default_tissue_path",
    "config_hash",
]

CONFIG_SCHEMA_VERSION = 1
TISSUE_SCHEMA_VERSION = 1

#: protocol sources / optimizers the harness understands
OPTIMIZER_CHOICES = ("adhoc", "crlb", "rl")


def default_tissue_path() -> Path:
    """Path of the tissue-distribution file shipped with the package."""
    return Path(str(resources.files("qmridesign").joinpath("data/tissue_classes.json")))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1234
    scanner: ScannerConfig = field(default_factory=ScannerConfig)
    tissue_file: str = ""
    cohort: CohortSpec = field(default_factory=CohortSpec)
    task: Task = Task.MULTICLASS
    eval: EvalConfig = field(default_factory=EvalConfig)
    fit_bounds: FitBounds = field(default_factory=FitBounds)
    crlb: CrlbConfig = field(default_factory=CrlbConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    optimizer: str = "adhoc"
    snr_list: tuple = ()
    out_dir: str = "runs/out"

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZER_CHOICES:
            raise ValueError(f"optimizer must be one of {OPTIMIZER_CHOICES}, got {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolved_tissue_file(self) -> Path:
        return Path(self.tissue_file) if self.tissue_file else default_tissue_path()

    def distributions(self) -> dict:
        return load_tissue_distributions(self.resolved_tissue_file())

    def validation_env(self) -> SimulationEnv:
        """Simulation env at the separability-validation SNR."""
        return self.sim_env(snr=self.eval.validation_snr)

    def sim_env(self, snr: float | None = None) -> SimulationEnv:
        scanner = self.scanner if snr is None else self.scanner.with_snr(snr)
        return SimulationEnv(
            distributions=self.distributions(),
            cohort_spec=self.cohort,
            scanner=scanner,
            fit_bounds=self.fit_bounds,
        )

    def snrs(self) -> tuple:
        """SNR values to evaluate; defaults to the scanner's own."""
        return self.snr_list if self.snr_list else (self.scanner.snr,)

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "seed": self.seed,
            "scanner": asdict(self.scanner),
            "tissue_file": str(self.tissue_file),
            "cohort": {label.value: n for label, n in self.cohort.counts.items()},
            "task": self.task.token,
            "eval": asdict(self.eval),
            "fit_bounds": asdict(self.fit_bounds),
            "crlb": asdict(self.crlb),
            "ppo": asdict(self.ppo),
            "optimizer": self.optimizer,
            "snr_list": list(self.snr_list),
            "out_dir": str(self.out_dir),
        }


def _build(section: dict, cls, **renames):
    return cls(**{renames.get(k, k): v for k, v in section.items()})


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a config file; missing sections take package defaults."""
    raw = json.loads(Path(path).read_text())
    version = raw.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"config schema version {version} not supported")
    kwargs: dict = {}
    if "seed" in raw:
        kwargs["seed"] = int(raw["seed"])
    if "scanner" in raw:
        kwargs["scanner"] = _build(raw["scanner"], ScannerConfig)
    if "tissue_file" in raw:
        tissue = Path(raw["tissue_file"])
        if not tissue.is_absolute():
            tissue = Path(path).parent / tissue
        if not tissue.exists():
            raise FileNotFoundError(f"tissue file {tissue} does not exist")
        kwargs["tissue_file"] = str(tissue)
    if "cohort" in raw:
        kwargs["cohort"] = CohortSpec(
            {TissueClass(label): int(n) for label, n in raw["cohort"].items()}
        )
    if "task" in raw:
        kwargs["task"] = Task.from_token(raw["task"])
    if "eval" in raw:
        kwargs["eval"] = _build(raw["eval"], EvalConfig)
    if "fit_bounds" in raw:
        kwargs["fit_bounds"] = _build(raw["fit_bounds"], FitBounds)
    if "crlb" in raw:
        section = dict(raw["crlb"])
        if "scored_params" in section:
            section["scored_params"] = tuple(section["scored_params"])
        kwargs["crlb"] = _build(section, CrlbConfig)
    if "ppo" in raw:
        kwargs["ppo"] = _build(raw["ppo"], PpoConfig)
    if "optimizer" in raw:
        kwargs["optimizer"] = raw["optimizer"]
    if "snr_list" in raw:
        kwargs["snr_list"] = tuple(float(s) for s in raw["snr_list"])
    if "out_dir" in raw:
        kwargs["out_dir"] = raw["out_dir"]
    return ExperimentConfig(**kwargs)


#: per-class values a tissue file stores, in TissueDistribution field order
_TISSUE_FIELDS = tuple(f.name for f in fields(TissueDistribution) if f.name != "class_label")


def _tissue_records(distributions: Mapping[TissueClass, TissueDistribution]) -> dict:
    """{class token: {field: value}}, the tissue file's "classes" block."""
    return {
        label.value: {name: getattr(dist, name) for name in _TISSUE_FIELDS}
        for label, dist in distributions.items()
    }


def load_tissue_distributions(path) -> dict:
    """Read a tissue-distribution file into {TissueClass: TissueDistribution}."""
    raw = json.loads(Path(path).read_text())
    version = raw.get("schema_version")
    if version != TISSUE_SCHEMA_VERSION:
        raise ValueError(
            f"tissue file schema version {version} not supported (expected {TISSUE_SCHEMA_VERSION})"
        )
    return {
        TissueClass(label): TissueDistribution(
            TissueClass(label), **{name: block[name] for name in _TISSUE_FIELDS}
        )
        for label, block in raw["classes"].items()
    }


def save_tissue_distributions(path, distributions: Mapping[TissueClass, TissueDistribution]) -> None:
    payload = {"schema_version": TISSUE_SCHEMA_VERSION, "classes": _tissue_records(distributions)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def config_hash(config: ExperimentConfig) -> str:
    """Short digest over the resolved config and the tissue values it uses.

    Covering the distribution contents (not just the file path) keeps the
    hash honest when the same path holds different values. Artifact
    locations (out_dir, tissue file path) are excluded: the hash names the
    experiment, not where its inputs and outputs live.
    """
    payload = config.to_dict()
    payload["out_dir"] = ""
    payload["tissue_values"] = _tissue_records(config.distributions())
    payload["tissue_file"] = ""  # content, not location, defines the experiment
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
