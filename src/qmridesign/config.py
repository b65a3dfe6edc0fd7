"""Experiment configuration: file schema, loading, resolution and hashing.

A single JSON file drives every command. Sections are optional; omitted
fields fall back to the package defaults. Each field of ExperimentConfig
declares how it is written to and read from that file; to_dict, the
loader and the command-line overrides all walk those declarations. The
resolved configuration (including the tissue-distribution values it
references) is hashed, and that hash plus the master seed are embedded in
every artifact so each output is reproducible from the pair alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Mapping

from .classify import N_FOLDS, EvalConfig, SimulationEnv, Task
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
    "with_file_values",
    "load_tissue_distributions",
    "save_tissue_distributions",
    "default_tissue_path",
    "config_hash",
    "write_json",
]

CONFIG_SCHEMA_VERSION = 1
TISSUE_SCHEMA_VERSION = 1

#: protocol sources / optimizers the harness understands
OPTIMIZER_CHOICES = ("adhoc", "crlb", "rl")


def default_tissue_path() -> Path:
    """Path of the tissue-distribution file shipped with the package."""
    return Path(str(resources.files("qmridesign").joinpath("data/tissue_classes.json")))


def _stored(dump, load, **default):
    """Field written to the config file as ``dump(value)`` and read back by ``load``."""
    return field(**default, metadata={"json": (dump, load)})


def _json_object(raw) -> Mapping:
    """``raw`` if it is a JSON object; any other value is refused."""
    if not isinstance(raw, Mapping):
        raise TypeError(f"expected a JSON object, got {json.dumps(raw)}")
    return raw


def _json_list(raw) -> list:
    """``raw`` if it is a JSON list; any other value is refused."""
    if not isinstance(raw, list):
        raise TypeError(f"expected a JSON list, got {json.dumps(raw)}")
    return raw


def _known(raw, names) -> Mapping:
    """The JSON object ``raw``; keys that are not in ``names`` are refused all together."""
    unknown = set(_json_object(raw)) - set(names)
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    return raw


def _whole_number(raw) -> int:
    """``raw`` as an int; a fractional number, a boolean or a string is refused, not converted."""
    whole = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not whole:
        raise ValueError(f"expected a whole number, got {json.dumps(raw)}")
    return int(raw)


def _real_number(raw):
    """``raw`` as it is if it is a finite number a float can hold; a boolean, a
    string, NaN, an infinity or an integer too large for a float is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not abs(raw) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {json.dumps(raw)}")
    return raw


#: how a JSON object's value is read into a dataclass field of each declared type
_READERS = {"int": _whole_number, "float": _real_number,
            "float | None": lambda raw: raw if raw is None else _real_number(raw)}


def _record(cls, raw):
    """``cls`` built from the JSON object ``raw``, whose values are read by
    their field types' readers; keys that name no field are refused all together."""
    readers = {f.name: _READERS[f.type] for f in fields(cls)}
    return cls(**{name: _read(name, readers[name], value) for name, value in _known(raw, readers).items()})


def _section(cls):
    """Section held in one frozen dataclass, stored as the JSON object of its fields."""
    return _stored(asdict, functools.partial(_record, cls), default_factory=cls)


@dataclass(frozen=True)
class ExperimentConfig:
    """The config file's schema: each field's metadata says how it is written
    and read back; a field without one is a string stored as it is."""

    seed: int = _stored(int, _whole_number, default=1234)
    scanner: ScannerConfig = _section(ScannerConfig)
    tissue_file: str = ""
    cohort: CohortSpec = _stored(
        lambda spec: {label.value: n for label, n in spec.counts.items()},
        lambda raw: CohortSpec({TissueClass(label): _whole_number(n) for label, n in _json_object(raw).items()}),
        default_factory=CohortSpec,
    )
    task: Task = _stored(lambda task: task.token, Task.from_token, default=Task.MULTICLASS)
    eval: EvalConfig = _section(EvalConfig)
    fit_bounds: FitBounds = _section(FitBounds)
    crlb: CrlbConfig = _section(CrlbConfig)
    ppo: PpoConfig = _section(PpoConfig)
    optimizer: str = "adhoc"
    snr_list: tuple = _stored(list, lambda raw: tuple(float(_real_number(s)) for s in _json_list(raw)), default=())
    out_dir: str = "runs/out"

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZER_CHOICES:
            raise ValueError(f"optimizer must be one of {OPTIMIZER_CHOICES}, got {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not all(snr > 1 for snr in self.snr_list):
            raise ValueError(f"every snr_list entry must exceed 1, got {list(self.snr_list)}")
        short = {label.value: n for label, n in self.cohort.counts.items() if n < N_FOLDS}
        if short:
            raise ValueError(f"cohort classes {short} have fewer subjects than N_FOLDS = {N_FOLDS}")

    def resolved_tissue_file(self) -> Path:
        return Path(self.tissue_file) if self.tissue_file else default_tissue_path()

    def distributions(self) -> dict:
        return load_tissue_distributions(self.resolved_tissue_file())

    def validation_env(self) -> SimulationEnv:
        """Simulation env at the separability-validation SNR."""
        env = self.sim_env()
        return env if self.eval.validation_snr is None else env.with_snr(self.eval.validation_snr)

    def sim_env(self) -> SimulationEnv:
        """Simulation env at the scanner's SNR; ``with_snr`` derives the others."""
        return SimulationEnv(self.distributions(), self.cohort, self.scanner, self.fit_bounds)

    def snrs(self) -> tuple:
        """SNR values to evaluate; defaults to the scanner's own."""
        return self.snr_list if self.snr_list else (self.scanner.snr,)

    def to_dict(self) -> dict:
        """The config file's content; load_experiment_config reads it back."""
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            **{f.name: _codec(f)[0](getattr(self, f.name)) for f in fields(self)},
        }


def _codec(f) -> tuple:
    """(dump, load) of one ExperimentConfig field."""
    return f.metadata.get("json", (str, str))


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a config file; missing fields and sections take package defaults.

    A relative tissue file is resolved against the config file's directory
    and kept as an absolute path, so a written to_dict() loads from anywhere;
    an empty one is the packaged default. A top-level key that names no
    field (nor ``schema_version``) raises, so a misspelt field is not
    silently left at its default. A file that is not a JSON object, or a
    value of the wrong shape or range, raises ValueError naming the file.
    """
    path = Path(path)
    try:
        raw = _json_object(json.loads(path.read_text()))
        version = raw.get("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(f"config schema version {version} not supported")
        _known(raw, {f.name for f in fields(ExperimentConfig)} | {"schema_version"})
        if raw.get("tissue_file"):
            tissue = (path.parent / raw["tissue_file"]).resolve()
            if not tissue.exists():
                raise FileNotFoundError(f"tissue file {tissue} does not exist")
            raw["tissue_file"] = str(tissue)
        return with_file_values(ExperimentConfig(), raw)
    except (ValueError, TypeError) as err:
        raise ValueError(f"{path}: {err}") from err


def with_file_values(config: ExperimentConfig, values: Mapping) -> ExperimentConfig:
    """``config`` with each field named in ``values`` replaced, the value given
    as the config file stores it; keys that name no field are ignored. A
    value that cannot be read raises ValueError naming its field."""
    return replace(config, **{
        f.name: _read(f.name, _codec(f)[1], values[f.name]) for f in fields(config) if f.name in values
    })


def _read(name: str, load, raw):
    """``load(raw)``; a value it cannot read raises ValueError naming ``name``."""
    try:
        return load(raw)
    except (ValueError, TypeError) as err:
        raise ValueError(f"{name}: {err}") from err


def _tissue_records(distributions: Mapping[TissueClass, TissueDistribution]) -> dict:
    """{class token: {field: value}}, the tissue file's "classes" block."""
    return {label.value: asdict(dist) for label, dist in distributions.items()}


def load_tissue_distributions(path) -> dict:
    """Read a tissue-distribution file into {TissueClass: TissueDistribution}.

    A file that is not JSON, has another schema version, lacks a field or
    holds an unknown key, a value that is not a finite number or an invalid
    value raises ValueError naming the file.
    """
    text = Path(path).read_text()
    try:
        raw = _known(json.loads(text), ("schema_version", "classes"))
        version = raw.get("schema_version")
        if version != TISSUE_SCHEMA_VERSION:
            raise ValueError(
                f"schema version {version} not supported (expected {TISSUE_SCHEMA_VERSION})"
            )
        return {
            TissueClass(label): _read(label, functools.partial(_record, TissueDistribution), block)
            for label, block in raw["classes"].items()
        }
    except KeyError as err:
        raise ValueError(f"tissue file {path} lacks the key {err}") from err
    except (ValueError, TypeError, AttributeError) as err:
        raise ValueError(f"tissue file {path}: {err}") from err


def write_json(path, payload) -> None:
    """Write a JSON artifact (config snapshot, tissue file, calibration report,
    protocol artifact): indented, keys sorted, newline-terminated."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_tissue_distributions(path, distributions: Mapping[TissueClass, TissueDistribution]) -> None:
    write_json(path, {"schema_version": TISSUE_SCHEMA_VERSION, "classes": _tissue_records(distributions)})


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
