"""Report CSV schema, protocol artifacts and the other CSV writers.

The report schema is versioned; appending to a file whose header does not
match the current schema is refused rather than silently mixed. Its
columns are the fields of ``ReportRow``, which both the writer and the
reader walk. Floats are written with full repr precision so re-runs are
byte-comparable (wall-clock is the one intentionally varying column).
A protocol artifact's id and echo time are derived here from the protocol
and the scanner. Every writer makes its file's directory.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .config import _json_list, _real_number, write_json
from .experiments import protocol_id
from .ivim import AcquisitionProtocol, ScannerConfig

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "REPORT_COLUMNS",
    "ReportRow",
    "SchemaMismatchError",
    "append_report_rows",
    "read_report",
    "save_protocol_artifact",
    "load_protocol_artifact",
    "write_csv",
    "write_curve",
    "write_anneal_trace",
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
    """Rows as dicts with numeric fields parsed back; blank lines are skipped,
    and a row with more or fewer cells than the header is refused."""
    records = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        _check_header(path, next(reader, None))
        for cells in filter(None, reader):
            if len(cells) != len(REPORT_COLUMNS):
                raise ValueError(f"line {reader.line_num} has {len(cells)} cells, "
                                 f"not the header's {len(REPORT_COLUMNS)}")
            record = dict(zip(REPORT_COLUMNS, cells))
            if int(record["schema_version"]) != REPORT_SCHEMA_VERSION:
                raise SchemaMismatchError(
                    f"row schema version {record['schema_version']} not supported"
                )
            records.append({**record, **{f.name: _cell(f)[1](record[f.name]) for f in fields(ReportRow)}})
    return records


ARTIFACT_SCHEMA_VERSION = 1


def save_protocol_artifact(path, protocol: AcquisitionProtocol, method: str, scanner: ScannerConfig,
                           stamp: dict, objective_value: float | None, extra: dict) -> None:
    """Write ``protocol`` with its id, its echo time on ``scanner``, the method
    that chose it, its objective value, the run's provenance ``stamp``
    (config hash and seed) and the method's ``extra`` fields."""
    write_json(path, {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "protocol_id": protocol_id(protocol),
        "method": method,
        "b_values": list(protocol.b_values),
        "te_s": protocol.echo_time(scanner),
        "objective_value": objective_value,
        **stamp,
        **extra,
    })


def load_protocol_artifact(path):
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(f"protocol artifact schema {version} not supported")
    try:
        b_values = tuple(map(_real_number, _json_list(payload.get("b_values"))))
    except (ValueError, TypeError) as err:
        raise ValueError(f"protocol artifact b_values must be a list of numbers: {err}") from err
    return AcquisitionProtocol(b_values), payload


def write_csv(path, header, rows) -> None:
    """A CSV artifact: ``header``, then one line per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_curve(path, curve, update_stats) -> None:
    """Training curve rows (step, mean_episode_reward, best_reward), each with
    its round's update statistics (``TrainResult.update_stats``), as CSV."""
    stats = ("policy_loss", "value_loss", "entropy", "approx_kl")
    write_csv(path, ["step", "mean_episode_reward", "best_reward", *stats],
              ([step, *(repr(float(v)) for v in (mean_reward, best, *(update[k] for k in stats)))]
               for (step, mean_reward, best), update in zip(curve, update_stats, strict=True)))


def write_anneal_trace(path, trace) -> None:
    """The anneal's best-cost trace as CSV rows (iteration, best_cost), where
    iteration i counts proposals from 0: iteration 0 and each iteration at
    which the best cost fell. The trace never rises, so these rows give it whole."""
    costs = [float(cost) for cost in trace]
    write_csv(path, ["iteration", "best_cost"],
              ([i, repr(cost)] for i, cost in enumerate(costs) if i == 0 or cost < costs[i - 1]))
