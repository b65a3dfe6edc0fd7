"""Report CSV schema and protocol artifacts.

The report schema is versioned; appending to a file whose header does not
match the current schema is refused rather than silently mixed. Its
columns are the fields of ``ReportRow``, which both the writer and the
reader walk. Floats are written with full repr precision so re-runs are
byte-comparable (wall-clock is the one intentionally varying column).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .config import write_json
from .ivim import AcquisitionProtocol

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "REPORT_COLUMNS",
    "ReportRow",
    "SchemaMismatchError",
    "append_report_rows",
    "read_report",
    "save_protocol_artifact",
    "load_protocol_artifact",
    "write_curve",
]

REPORT_SCHEMA_VERSION = 1


class SchemaMismatchError(ValueError):
    """Existing report header does not match the current schema."""


@dataclass(frozen=True)
class ReportRow:
    """One report row. The fields, in order, are the report's columns after
    ``schema_version``; each field's type picks its cell format in ``_CELLS``."""

    task: str
    method: str
    protocol_id: str
    b_values: tuple
    te_s: float
    snr: float
    mean_accuracy: float
    std_accuracy: float
    n_repeats: int
    config_hash: str
    seed: int
    wall_clock_s: float = field(metadata={"write": "{:.3f}".format})

    def as_record(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **{f.name: _cell(f)[0](getattr(self, f.name)) for f in fields(self)},
        }


#: (write, read) of a report cell per ReportRow field type; floats keep full repr precision
_CELLS = {
    "str": (str, str),
    "int": (str, int),
    "float": (repr, float),
    "tuple": (lambda values: ";".join(repr(float(v)) for v in values),
              lambda text: tuple(float(v) for v in text.split(";"))),
}


def _cell(f) -> tuple:
    write, read = _CELLS[f.type]
    return f.metadata.get("write", write), read


REPORT_COLUMNS = ("schema_version", *(f.name for f in fields(ReportRow)))


def _check_header(path, header) -> None:
    if header != list(REPORT_COLUMNS):
        raise SchemaMismatchError(f"report {path} has header {header}, expected {list(REPORT_COLUMNS)}")


def append_report_rows(path, rows) -> None:
    path = Path(path)
    exists = path.exists()
    if exists:
        with path.open(newline="") as handle:
            _check_header(path, next(csv.reader(handle), None))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=REPORT_COLUMNS)
        if not exists:
            writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())


def read_report(path):
    """Rows as dicts with numeric fields parsed back."""
    records = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        _check_header(path, reader.fieldnames)
        for record in reader:
            if int(record["schema_version"]) != REPORT_SCHEMA_VERSION:
                raise SchemaMismatchError(
                    f"row schema version {record['schema_version']} not supported"
                )
            records.append({**record, **{f.name: _cell(f)[1](record[f.name]) for f in fields(ReportRow)}})
    return records


ARTIFACT_SCHEMA_VERSION = 1


def save_protocol_artifact(
    path,
    protocol: AcquisitionProtocol,
    te_s: float,
    method: str,
    protocol_id: str,
    config_hash: str,
    seed: int,
    objective_value: float | None = None,
    extra: dict | None = None,
) -> None:
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "protocol_id": protocol_id,
        "method": method,
        "b_values": list(protocol.b_values),
        "te_s": te_s,
        "objective_value": objective_value,
        "config_hash": config_hash,
        "seed": seed,
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def load_protocol_artifact(path):
    payload = json.loads(Path(path).read_text())
    if payload.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(f"protocol artifact schema {payload.get('schema_version')} not supported")
    return AcquisitionProtocol(tuple(payload["b_values"])), payload


def write_curve(path, curve) -> None:
    """Training curve rows (step, mean_episode_reward, best_reward) as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "mean_episode_reward", "best_reward"])
        for step, mean_reward, best in curve:
            writer.writerow([step, repr(float(mean_reward)), repr(float(best))])
