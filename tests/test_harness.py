"""Config/report/plot/CLI layer: schemas, persistence, determinism."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import xml.dom.minidom
import zipfile
from pathlib import Path

import numpy as np
import pytest

from qmridesign import (
    AcquisitionProtocol,
    CohortSpec,
    EvalConfig,
    PpoAgent,
    PpoConfig,
    ScannerConfig,
    Task,
    TissueClass,
)
from qmridesign.calibrate import CalibrationResult
from qmridesign.cli import main
from qmridesign.config import (
    ExperimentConfig,
    config_hash,
    default_tissue_path,
    load_experiment_config,
    load_tissue_distributions,
    save_tissue_distributions,
    with_file_values,
    write_json,
)
from qmridesign.experiments import protocol_id
from qmridesign.plotting import plot_accuracy_vs_snr
from qmridesign.ppo import load_checkpoint, save_checkpoint
from qmridesign.protocol_env import EPISODE_STEPS
from qmridesign.reports import (
    REPORT_COLUMNS,
    ReportRow,
    SchemaMismatchError,
    append_report_rows,
    load_protocol_artifact,
    read_report,
    save_protocol_artifact,
    write_anneal_trace,
    write_csv,
    write_curve,
)


#: a JSON integer too large for a float (400 digits)
_HUGE = int("1" * 400)


@pytest.fixture
def tiny_config(tmp_path):
    """Config small enough for CLI round-trips in seconds."""
    payload = {
        "seed": 424242,
        "task": "active-chronic",
        "eval": {"n_repeats_report": 4, "n_repeats_reward": 1},
        "crlb": {"iterations": 150, "n_tissue_samples": 10},
        "ppo": {"total_steps": 54, "rollout_steps": 27, "minibatch_size": 16,
                "n_epochs": 2, "hidden_size": 8},
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_defaults_resolve(self):
        config = ExperimentConfig()
        assert config.resolved_tissue_file() == default_tissue_path()
        dists = config.distributions()
        assert set(dists) == set(TissueClass)

    def test_load_overrides_sections(self, tiny_config):
        config = load_experiment_config(tiny_config)
        assert config.seed == 424242
        assert config.task is Task.ACTIVE_VS_CHRONIC
        assert config.eval.n_repeats_report == 4
        assert config.ppo.total_steps == 54

    def test_missing_tissue_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tissue_file": "nope.json"}))
        with pytest.raises(FileNotFoundError):
            load_experiment_config(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError):
            load_experiment_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        """A misspelt field raises and names the key; the CLI override path
        (with_file_values) still skips names that are not fields."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seeds": 7}))
        with pytest.raises(ValueError, match="seeds"):
            load_experiment_config(path)
        assert with_file_values(ExperimentConfig(), {"seeds": 7, "budget": 3}) == ExperimentConfig()

    def test_hash_covers_tissue_values(self, tmp_path):
        base = ExperimentConfig()
        digest_a = config_hash(base)
        dists = dict(load_tissue_distributions(default_tissue_path()))
        active = dists[TissueClass.ACTIVE]
        dists[TissueClass.ACTIVE] = type(active)(
            mean_f=active.mean_f + 0.01,
            std_f=active.std_f, mean_d=active.mean_d, std_d=active.std_d,
            mean_dstar=active.mean_dstar, std_dstar=active.std_dstar,
        )
        other = tmp_path / "tissue.json"
        save_tissue_distributions(other, dists)
        digest_b = config_hash(dataclasses.replace(base, tissue_file=str(other)))
        assert digest_a != digest_b

    def test_hash_ignores_tissue_location(self, tmp_path):
        base = ExperimentConfig()
        copied = tmp_path / "copy.json"
        copied.write_text(default_tissue_path().read_text())
        assert config_hash(base) == config_hash(dataclasses.replace(base, tissue_file=str(copied)))

    def test_hash_pinned(self):
        """Frozen digests: refactoring the config layer must not move them.
        A change to the config schema moves both, and re-pins them openly."""
        assert config_hash(ExperimentConfig()) == "37782d78332a5592"
        repro = Path(__file__).resolve().parents[1] / "configs" / "repro.json"
        assert config_hash(load_experiment_config(repro)) == "9d16bfcbaed80baa"

    @pytest.mark.parametrize("which", ["default", "repro", "explicit_tissue"])
    def test_dumped_config_loads_back(self, which, tmp_path):
        """A written to_dict() is a config file: loading it gives the same
        to_dict() and config_hash (an empty tissue_file is the packaged default)."""
        if which == "default":
            config = ExperimentConfig()
        elif which == "repro":
            config = load_experiment_config(Path(__file__).resolve().parents[1] / "configs" / "repro.json")
        else:
            tissue = tmp_path / "tissue.json"
            tissue.write_text(default_tissue_path().read_text())
            config = ExperimentConfig(tissue_file=str(tissue), seed=9, snr_list=(5.0, 15.0))
        dumped = tmp_path / "snapshot" / "config.json"
        dumped.parent.mkdir()
        dumped.write_text(json.dumps(config.to_dict()))
        loaded = load_experiment_config(dumped)
        assert loaded.to_dict() == config.to_dict()
        assert config_hash(loaded) == config_hash(config)

    def test_relative_tissue_file_survives_a_snapshot(self, tmp_path, monkeypatch):
        """A tissue file named relative to a config file given by a relative
        path still loads from a snapshot written to another directory."""
        monkeypatch.chdir(tmp_path)
        Path("exp").mkdir()
        Path("exp", "tissue.json").write_text(default_tissue_path().read_text())
        Path("exp", "config.json").write_text(json.dumps({"tissue_file": "tissue.json", "seed": 5}))
        config = load_experiment_config("exp/config.json")
        snapshot = Path("elsewhere", "config_snapshot.json")
        snapshot.parent.mkdir()
        snapshot.write_text(json.dumps(config.to_dict()))
        assert load_experiment_config(snapshot).to_dict() == config.to_dict()

    def test_cohort_class_smaller_than_the_folds_refused(self):
        """Stratified CV deals each class across ``N_FOLDS`` folds, so a
        class with fewer subjects than folds is refused with the config."""
        with pytest.raises(ValueError, match=r"\{'active': 4\} have fewer subjects than N_FOLDS = 5"):
            ExperimentConfig(cohort=CohortSpec({TissueClass.ACTIVE: 4, TissueClass.CHRONIC: 21}))
        with pytest.raises(ValueError, match="'healthy': 4"):
            ExperimentConfig(cohort=CohortSpec({TissueClass.ACTIVE: 5, TissueClass.HEALTHY: 4}))
        cohort = CohortSpec({TissueClass.ACTIVE: 5, TissueClass.HEALTHY: 5})
        assert ExperimentConfig(cohort=cohort).cohort == cohort

    def test_int_fields_read_as_whole_numbers(self, tmp_path):
        """An int field of a section is read like ``seed``: a whole float loads
        as an int, a fractional one is refused naming its section and field."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"eval": {"n_repeats_report": 4.0}}))
        assert type(load_experiment_config(path).eval.n_repeats_report) is int
        path.write_text(json.dumps({"eval": {"n_repeats_report": 2.5}}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: eval: n_repeats_report: expected a whole number, got 2.5")):
            load_experiment_config(path)

    @pytest.mark.parametrize("payload, message", [
        ({"scanner": {"t2": True}}, "scanner: t2: expected a finite number, got true"),
        ({"ppo": {"learning_rate": True}}, "ppo: learning_rate: expected a finite number, got true"),
        ({"crlb": {"ridge_rel": "1e-12"}}, 'crlb: ridge_rel: expected a finite number, got "1e-12"'),
        ({"eval": {"validation_snr": float("inf")}}, "eval: validation_snr: expected a finite number, got Infinity"),
        ({"snr_list": [25, float("inf")]}, "snr_list: expected a finite number, got Infinity"),
        ({"snr_list": [True]}, "snr_list: expected a finite number, got true"),
        ({"snr_list": [5, "15"]}, 'snr_list: expected a finite number, got "15"'),
        ({"snr_list": [_HUGE]}, f"snr_list: expected a finite number, got {_HUGE}"),
        ({"scanner": {"t2": _HUGE}}, f"scanner: t2: expected a finite number, got {_HUGE}"),
        ({"ppo": {"learning_rate": _HUGE}}, f"ppo: learning_rate: expected a finite number, got {_HUGE}"),
    ], ids=["boolean-t2", "boolean-learning-rate", "string-ridge-rel", "infinite-validation-snr",
            "infinite-snr", "boolean-snr", "string-snr", "huge-snr", "huge-t2", "huge-learning-rate"])
    def test_float_fields_read_as_finite_numbers(self, payload, message, tmp_path):
        """A float setting is a finite JSON number: a boolean, a string, an
        infinity or an integer too large for a float is refused naming its
        field, not converted."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_experiment_config(path)

    def test_float_fields_keep_their_json_values(self, tmp_path):
        """A whole number in a float field is kept as written, so the hash of
        a file that holds one does not move; an SNR is read as a float."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scanner": {"t2": 1}, "eval": {"validation_snr": None}, "snr_list": [5, 15.0]}))
        config = load_experiment_config(path)
        assert (config.scanner.t2, config.eval.validation_snr, config.snr_list) == (1, None, (5.0, 15.0))
        assert type(config.scanner.t2) is int

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["classes"]["active"].update(std_f=True), "active: std_f: expected a finite number, got true"),
        (lambda raw: raw["classes"]["healthy"].update(mean_d=float("nan")),
         "healthy: mean_d: expected a finite number, got NaN"),
        (lambda raw: raw["classes"]["active"].update(mean_s0=0.5), "active: unknown keys: ['mean_s0']"),
        (lambda raw: raw.update(notes="x", source=1), "unknown keys: ['notes', 'source']"),
        (lambda raw: raw["classes"]["active"].update(std_f=_HUGE),
         f"active: std_f: expected a finite number, got {_HUGE}"),
    ], ids=["boolean-std-f", "nan-mean-d", "unknown-class-key", "unknown-top-level-keys", "huge-std-f"])
    def test_tissue_file_values_and_keys_refused(self, edit, message, tmp_path):
        """A tissue value is a finite number and every key names a field, in a
        class block and at the top level; the message names the file and the
        class."""
        path = tmp_path / "tissue.json"
        path.write_text(_edited_tissue_file(edit))
        with pytest.raises(ValueError, match=re.escape(f"tissue file {path}: {message}")):
            load_tissue_distributions(path)

    def test_validation_env_uses_knob(self):
        config = ExperimentConfig(eval=EvalConfig(validation_snr=200.0))
        assert config.validation_env().scanner.snr == 200.0
        assert config.sim_env().scanner.snr == 25.0


class TestReports:
    def row(self, **overrides):
        base = dict(
            task="multiclass", method="adhoc", protocol_id="p0",
            b_values=AcquisitionProtocol.adhoc().b_values, te_s=0.0698, snr=25.0,
            mean_accuracy=0.5, std_accuracy=0.05, n_repeats=50,
            config_hash="abc", seed=1, wall_clock_s=1.0,
        )
        base.update(overrides)
        return ReportRow(**base)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "report.csv"
        append_report_rows(path, [self.row(), self.row(snr=35.0)])
        rows = read_report(path)
        assert len(rows) == 2
        assert rows[0]["b_values"] == AcquisitionProtocol.adhoc().b_values
        assert rows[1]["snr"] == 35.0

    def test_file_format_pinned(self, tmp_path):
        """The columns come from ReportRow's fields: pin the bytes they produce."""
        path = tmp_path / "report.csv"
        row = self.row(te_s=0.07, wall_clock_s=1.23456)
        append_report_rows(path, [row])
        assert path.read_text().splitlines() == [
            "schema_version,task,method,protocol_id,b_values,te_s,snr,mean_accuracy,"
            "std_accuracy,n_repeats,config_hash,seed,wall_clock_s",
            "1,multiclass,adhoc,p0,0.0;10.0;20.0;30.0;50.0;80.0;100.0;200.0;400.0;800.0,"
            "0.07,25.0,0.5,0.05,50,abc,1,1.235",
        ]
        (record,) = read_report(path)
        assert record == {"schema_version": "1", **dataclasses.asdict(row), "wall_clock_s": 1.235}

    def test_append_preserves_existing(self, tmp_path):
        path = tmp_path / "report.csv"
        append_report_rows(path, [self.row()])
        append_report_rows(path, [self.row(method="rl")])
        rows = read_report(path)
        assert [r["method"] for r in rows] == ["adhoc", "rl"]

    def test_schema_mismatch_refused(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("totally,different,header\n1,2,3\n")
        with pytest.raises(SchemaMismatchError):
            append_report_rows(path, [self.row()])
        with pytest.raises(SchemaMismatchError):
            read_report(path)

    def test_protocol_artifact_roundtrip(self, tmp_path):
        protocol = AcquisitionProtocol((0, 0, 143, 329, 364, 551, 631, 635, 664, 784))
        path = tmp_path / "protocol.json"
        scanner = ScannerConfig()
        save_protocol_artifact(path, protocol, "crlb", scanner, {"config_hash": "deadbeef", "seed": 3},
                               1.25, {"iterations": 9})
        loaded, payload = load_protocol_artifact(path)
        assert loaded == protocol
        assert payload["method"] == "crlb"
        assert payload["objective_value"] == 1.25
        assert payload["te_s"] == protocol.echo_time(scanner)
        assert payload["protocol_id"] == protocol_id(protocol)
        assert (payload["config_hash"], payload["seed"], payload["iterations"]) == ("deadbeef", 3, 9)

    @pytest.mark.parametrize("b_values", [5, "0,10,20", ["0", 10], [True] * 10, {"b": 0}, None,
                                          [0] * 9 + [_HUGE]])
    def test_protocol_artifact_without_a_list_of_numbers_refused(self, tmp_path, b_values):
        path = tmp_path / "protocol.json"
        payload = {"schema_version": 1} if b_values is None else {"schema_version": 1, "b_values": b_values}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="b_values must be a list of numbers"):
            load_protocol_artifact(path)

    @pytest.mark.parametrize("writer", [
        lambda path: write_json(path, {}),
        lambda path: save_tissue_distributions(path, load_tissue_distributions(default_tissue_path())),
        lambda path: append_report_rows(path, [TestReports().row()]),
        lambda path: write_csv(path, ["a"], [[1]]),
        lambda path: write_curve(path, [(1, 0.5, 0.5)],
                                 [{"policy_loss": 0.0, "value_loss": 1.0, "entropy": 4.6, "approx_kl": 0.0}]),
        lambda path: write_anneal_trace(path, np.array([2.0, 1.0])),
        lambda path: save_protocol_artifact(path, AcquisitionProtocol.adhoc(), "adhoc", ScannerConfig(), {},
                                            None, {}),
        lambda path: save_checkpoint(path, PpoAgent(3, 2, np.random.default_rng(0), PpoConfig()), {}),
        lambda path: plot_accuracy_vs_snr(TestPlot().rows(), path),
    ], ids=["write_json", "save_tissue_distributions", "append_report_rows", "write_csv",
            "write_curve", "write_anneal_trace", "save_protocol_artifact", "save_checkpoint", "plot_accuracy_vs_snr"])
    def test_every_writer_makes_its_directory(self, writer, tmp_path):
        """The CLI makes no output directory of its own: each writer makes its file's."""
        directory = tmp_path / "new" / "nested"
        writer(directory / "artifact")
        assert len(list(directory.iterdir())) == 1

    def test_curve_io(self, tmp_path):
        """Each round's row carries that round's update statistics, written by
        ``repr`` so that they read back bit for bit."""
        path = tmp_path / "curve.csv"
        stats = [{"policy_loss": 0.019767390355971318, "value_loss": 2.991759345752752,
                  "entropy": 1.6092939994633315, "approx_kl": -0.002058841945365588},
                 {"policy_loss": -0.5, "value_loss": 0.1 + 0.2, "entropy": 4.6, "approx_kl": 1e-12}]
        write_curve(path, [(2048, 0.4, 0.5), (4096, 0.45, 0.52)], stats)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,mean_episode_reward,best_reward,policy_loss,value_loss,entropy,approx_kl"
        assert lines[2] == "4096,0.45,0.52,-0.5,0.30000000000000004,4.6,1e-12"
        assert len(lines) == 3
        with pytest.raises(ValueError):
            write_curve(path, [(2048, 0.4, 0.5)], stats)

    def test_anneal_trace_keeps_the_first_iteration_and_each_fall(self, tmp_path):
        path = tmp_path / "anneal.csv"
        write_anneal_trace(path, np.array([5.0, 5.0, 0.1 + 0.2, 0.1 + 0.2, 1e12 ** -1]))
        assert path.read_text().splitlines() == [
            "iteration,best_cost", "0,5.0", "2,0.30000000000000004", "4,1e-12"]


class TestPlot:
    def rows(self):
        out = []
        for method, offset in (("adhoc", 0.0), ("rl", 0.1)):
            for snr in (5.0, 15.0, 25.0, 35.0):
                out.append({
                    "method": method, "snr": snr,
                    "mean_accuracy": 0.4 + offset + snr / 200.0,
                    "std_accuracy": 0.05,
                })
        return out

    def test_series_and_points_present(self, tmp_path):
        path = tmp_path / "plot.svg"
        plot_accuracy_vs_snr(self.rows(), path)
        svg = path.read_text()
        assert svg.count("<polyline") == 2   # one line per method
        assert svg.count("<circle") == 8     # 2 series x 4 SNRs
        assert "adhoc" in svg and "rl" in svg

    def test_missing_cell_draws_gap_and_warns(self, tmp_path, caplog):
        rows = [r for r in self.rows() if not (r["method"] == "rl" and r["snr"] == 15.0)]
        with caplog.at_level("WARNING"):
            plot_accuracy_vs_snr(rows, tmp_path / "gap.svg")
        assert any("gap" in message for message in caplog.messages)
        svg = (tmp_path / "gap.svg").read_text()
        # rl's isolated point at snr=5 draws no line; its 25-35 run does
        assert svg.count("<polyline") == 2
        assert svg.count("<circle") == 7  # every present point still marked

    @pytest.mark.parametrize("drop_rl_15, comment, digest", [
        (False, "config_hash=x seed=1",
         "08bad97f9ae4103456d3408055d2554ba916d8a20e1e64872f48843ab4aa2be2"),
        (True, "", "9e7c9ca93ef33f66f57e33ce2a32ef6df2ba20bebc50609d1a9754613a27e82c"),
    ], ids=["full", "gap-no-comment"])
    def test_golden_markup_pinned(self, drop_rl_15, comment, digest, tmp_path):
        """The markup's sha256 is pinned, so any byte that moves between
        versions fails here, not only one that moves between two renders."""
        rows = [r for r in self.rows() if not (drop_rl_15 and r["method"] == "rl" and r["snr"] == 15.0)]
        path = tmp_path / "golden.svg"
        plot_accuracy_vs_snr(rows, path, comment=comment)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_labels_are_escaped(self, tmp_path):
        """A method label holding XML's special characters is drawn as
        written, in markup that parses."""
        rows = [{**row, "method": "a<b & c"} if row["method"] == "rl" else row for row in self.rows()]
        path = tmp_path / "escaped.svg"
        plot_accuracy_vs_snr(rows, path)
        labels = [node.firstChild.data for node in xml.dom.minidom.parse(str(path)).getElementsByTagName("text")]
        assert "a<b & c" in labels

    def test_conflicting_cell_refused(self, tmp_path):
        rows = self.rows()
        held = (rows[1]["mean_accuracy"], rows[1]["std_accuracy"])
        rows.append({**rows[1], "mean_accuracy": 0.6, "std_accuracy": 0.01})
        path = tmp_path / "conflict.svg"
        with pytest.raises(ValueError, match=re.escape(f"'adhoc' at snr 15: {held} and (0.6, 0.01)")):
            plot_accuracy_vs_snr(rows, path)
        assert not path.exists()

    def test_identical_duplicate_cell_drawn_once(self, tmp_path):
        once, twice = tmp_path / "once.svg", tmp_path / "twice.svg"
        plot_accuracy_vs_snr(self.rows(), once)
        plot_accuracy_vs_snr(self.rows() + [dict(self.rows()[1])], twice)
        assert once.read_bytes() == twice.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plot_accuracy_vs_snr([], tmp_path / "x.svg")


#: PpoConfig fields and values it refuses
_BAD_PPO_VALUES = (
    ("hidden_size", 0), ("learning_rate", -0.001), ("learning_rate", float("nan")), ("rollout_steps", 0),
    ("minibatch_size", 0), ("n_epochs", 0),
)

#: config sections, as a file of an earlier schema may hold them, that set a
#: field which is now a module constant
_REMOVED_FIELDS = ({"ppo": {"clip_range": 0.2}}, {"scanner": {"gyromagnetic_ratio": 2.675e8}},
                   {"ppo": {"gamma": 0.9, "clip_range": 0.2}}, {"eval": {"n_folds": 2.5}},
                   {"crlb": {"perturb_width": -3.0}}, {"fit_bounds": {"grid_points": 0}},
                   {"fit_bounds": {"refine_rel_tol": 0.0}}, {"crlb": {"t_initial": -1.0}},
                   {"ppo": {"vf_coef": -1.0}}, {"ppo": {"ent_coef": -0.01}}, {"ppo": {"max_grad_norm": -1.0}})


def _edited_tissue_file(edit) -> str:
    """The shipped tissue file's text after ``edit`` changed its parsed JSON."""
    raw = json.loads(default_tissue_path().read_text())
    edit(raw)
    return json.dumps(raw)


#: malformed tissue files, by file name
_BAD_TISSUE_FILES = {
    "schema-9.json": _edited_tissue_file(lambda raw: raw.update(schema_version=9)),
    "no-std-d.json": _edited_tissue_file(lambda raw: raw["classes"]["chronic"].pop("std_d")),
    "mean-f-1.5.json": _edited_tissue_file(lambda raw: raw["classes"]["active"].update(mean_f=1.5)),
    "not-json.json": "active: 0.15\n",
}


def _rewrite_checkpoint_meta(source, target, edit) -> None:
    """Copy the checkpoint ``source`` to ``target`` after ``edit`` changed its parsed metadata."""
    with zipfile.ZipFile(source) as archive, zipfile.ZipFile(target, "w") as out:
        for name in archive.namelist():
            data = archive.read(name)
            if name == "meta.npy":
                meta = json.loads(str(np.load(io.BytesIO(data))))
                edit(meta)
                buffer = io.BytesIO()
                np.save(buffer, np.array(json.dumps(meta)))
                data = buffer.getvalue()
            out.writestr(name, data)


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["optimize", "--optimizer", "crlb", "--snr", "15"],
        ["validate", "--task", "multiclass"],
        ["report", "--seed", "1"],
    ], ids=["optimize-snr", "validate-task", "report-seed"])
    def test_flags_a_command_does_not_read_are_refused(self, argv, tiny_config, tmp_path, capsys):
        report = tmp_path / "report.csv"
        append_report_rows(report, [TestReports().row()])
        args = [argv[0], "--report", str(report)] if argv[0] == "report" else [
            argv[0], "--config", str(tiny_config)]
        with pytest.raises(SystemExit) as exit_info:
            main(args + argv[1:])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err

    def test_override_flags_replace_config_fields(self, run_cli, tiny_config, tmp_path):
        run_cli(["evaluate", "--config", str(tiny_config), "--optimizer", "adhoc", "--seed", "3",
                 "--task", "active-healthy", "--snr", "40", "--out", str(tmp_path / "other")],
                tmp_path, check=True)
        (row,) = read_report(tmp_path / "other" / "report.csv")
        assert (row["seed"], row["task"], row["snr"]) == (3, "active-healthy", 40.0)
        expected = dataclasses.replace(
            load_experiment_config(tiny_config), seed=3, task=Task.ACTIVE_VS_HEALTHY,
            snr_list=(40.0,), out_dir=str(tmp_path / "other"),
        )
        assert row["config_hash"] == config_hash(expected)

    def test_plot_stamps_the_rows_provenance(self, run_cli, tiny_config, tmp_path):
        run_cli(["evaluate", "--config", str(tiny_config), "--optimizer", "adhoc"], tmp_path,
                check=True)
        report = tmp_path / "out" / "report.csv"
        (row,) = read_report(report)
        assert row["config_hash"] == config_hash(load_experiment_config(tiny_config))
        assert row["config_hash"] != config_hash(ExperimentConfig())
        run_cli(["plot", "--report", str(report), "--out", str(tmp_path / "fig")], tmp_path,
                check=True)
        svg = (tmp_path / "fig" / "accuracy_vs_snr.svg").read_text()
        assert f"<!-- config_hash={row['config_hash']} seed=424242 -->" in svg

        # a report mixing runs names each distinct hash and seed, sorted
        append_report_rows(report, [TestReports().row(task=row["task"], config_hash="0000", seed=10, snr=35.0)])
        run_cli(["plot", "--report", str(report), "--out", str(tmp_path / "fig")], tmp_path,
                check=True)
        svg = (tmp_path / "fig" / "accuracy_vs_snr.svg").read_text()
        assert f"<!-- config_hash=0000,{row['config_hash']} seed=10,424242 -->" in svg

    def test_plot_refuses_a_report_with_two_results_for_one_cell(self, run_cli, tiny_config, tmp_path):
        """One task evaluated with one method under two seeds into one report
        gives two results per (method, snr) cell: plot exits non-zero, names
        the cell and both values, and writes no chart. An empty report takes
        the same path."""
        for seed in ("424242", "7"):
            run_cli(["evaluate", "--config", str(tiny_config), "--optimizer", "adhoc",
                     "--seed", seed, "--snr", "15,25"], tmp_path, check=True)
        report = tmp_path / "out" / "report.csv"
        first = read_report(report)[0]
        plot = run_cli(["plot", "--report", str(report), "--out", str(tmp_path / "fig")], tmp_path)
        assert plot.returncode != 0
        assert "'adhoc' at snr 15" in plot.stderr
        assert str((first["mean_accuracy"], first["std_accuracy"])) in plot.stderr
        assert not (tmp_path / "fig" / "accuracy_vs_snr.svg").exists()

        empty = tmp_path / "empty.csv"
        append_report_rows(empty, [])
        plot = run_cli(["plot", "--report", str(empty), "--out", str(tmp_path / "fig")], tmp_path)
        assert plot.returncode != 0
        assert "no report rows to plot" in plot.stderr
        assert not (tmp_path / "fig" / "accuracy_vs_snr.svg").exists()

    def test_plot_refuses_a_provenance_holding_two_dashes(self, run_cli, tmp_path):
        """The provenance comment cannot hold "--": plot names the report in
        one line and writes no chart."""
        report = tmp_path / "report.csv"
        append_report_rows(report, [TestReports().row(config_hash="00--11")])
        plot = run_cli(["plot", "--report", str(report), "--out", str(tmp_path / "fig")], tmp_path)
        assert plot.returncode != 0
        assert plot.stderr == (f"cannot plot {report}: an SVG comment cannot hold '--', "
                               "and the provenance is 'config_hash=00--11 seed=1'\n")
        assert not (tmp_path / "fig").exists()

    def test_plot_refuses_a_report_that_mixes_tasks(self, run_cli, tiny_config, tmp_path):
        """A chart shows one task: rows of two tasks, even at SNRs that never
        meet, would join into one polyline per method, so plot names the
        tasks in one line and writes no chart."""
        for task, snrs in (("active-chronic", "5,15"), ("multiclass", "25,35")):
            run_cli(["evaluate", "--config", str(tiny_config), "--optimizer", "adhoc",
                     "--task", task, "--snr", snrs], tmp_path, check=True)
        report = tmp_path / "out" / "report.csv"
        plot = run_cli(["plot", "--report", str(report), "--out", str(tmp_path / "fig")], tmp_path)
        assert plot.returncode != 0
        assert plot.stderr == (f"cannot plot {report}: it mixes the tasks ['active-chronic', 'multiclass']; "
                               "a chart shows one task\n")
        assert not (tmp_path / "fig").exists()

    def test_config_snapshot_drives_a_command(self, run_cli, tiny_config, tmp_path):
        run_cli(["optimize", "--config", str(tiny_config), "--optimizer", "crlb"], tmp_path,
                check=True)
        snapshot = tmp_path / "out" / "config_snapshot.json"
        _, payload = load_protocol_artifact(tmp_path / "out" / "protocol_crlb.json")
        assert config_hash(load_experiment_config(snapshot)) == payload["config_hash"]
        run_cli(["evaluate", "--config", str(snapshot),
                 "--protocol-file", str(tmp_path / "out" / "protocol_crlb.json")], tmp_path,
                check=True)
        (row,) = read_report(tmp_path / "out" / "report.csv")
        assert row["config_hash"] == payload["config_hash"]

    def test_optimize_budget_is_a_config_override(self, tmp_path):
        """``optimize --budget`` is recorded in the snapshot and the hash, and
        the snapshot alone re-runs the same anneal."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"crlb": {"iterations": 50, "n_tissue_samples": 10}}))
        runs = {name: tmp_path / name for name in ("budget", "file", "snapshot")}
        main(["optimize", "--config", str(config), "--optimizer", "crlb", "--budget", "10",
              "--out", str(runs["budget"])])
        main(["optimize", "--config", str(config), "--optimizer", "crlb", "--out", str(runs["file"])])
        snapshot = runs["budget"] / "config_snapshot.json"
        assert json.loads(snapshot.read_text())["crlb"]["iterations"] == 10
        assert json.loads((runs["file"] / "config_snapshot.json").read_text())["crlb"]["iterations"] == 50
        hashes = {name: load_protocol_artifact(out / "protocol_crlb.json")[1]["config_hash"]
                  for name, out in runs.items() if name != "snapshot"}
        assert hashes["budget"] != hashes["file"]
        assert hashes["budget"] == config_hash(load_experiment_config(snapshot))
        main(["optimize", "--config", str(snapshot), "--out", str(runs["snapshot"])])
        artifact = (runs["budget"] / "protocol_crlb.json").read_bytes()
        assert (runs["snapshot"] / "protocol_crlb.json").read_bytes() == artifact

    def test_rl_budget_below_one_episode_refused(self, tiny_config, tmp_path):
        """An rl search whose budget, from ``--budget`` or the config file,
        completes no episode would write the baseline as its protocol: it is
        refused in one line and writes nothing. One episode's steps are
        enough, and the library keeps a zero-step ``PpoConfig`` valid."""
        payload = json.loads(tiny_config.read_text())
        payload["ppo"]["total_steps"] = EPISODE_STEPS - 1
        short = tmp_path / "short.json"
        short.write_text(json.dumps(payload))
        out = tmp_path / "run"
        message = (f"^invalid configuration: ppo.total_steps is {EPISODE_STEPS - 1}, but an rl search "
                   f"completes no episode in fewer than {EPISODE_STEPS} steps$")
        for argv in (["--config", str(tiny_config), "--budget", str(EPISODE_STEPS - 1)], ["--config", str(short)]):
            with pytest.raises(SystemExit, match=message):
                main(["optimize", "--optimizer", "rl", *argv, "--out", str(out)])
            assert not out.exists()
        main(["optimize", "--optimizer", "rl", "--config", str(short), "--budget", str(EPISODE_STEPS),
              "--out", str(out)])
        assert load_protocol_artifact(out / "protocol_rl.json")[1]["episodes"] == 1
        assert PpoConfig(total_steps=0).total_steps == 0

    def test_calibration_report_records_the_budget(self, tiny_config, tmp_path, monkeypatch):
        """``calibrate --budget`` is not a config field, so the hash and seed
        alone do not say which budget wrote the tissue file: the report does.
        The descent is stubbed; only what the command records is under test."""
        rounds = []

        def descent(env, eval_config, master_seed, max_rounds):
            rounds.append(max_rounds)
            return CalibrationResult(env.distributions, {}, 0.0, True, 1)

        monkeypatch.setattr("qmridesign.cli.calibrate_distributions", descent)
        reports = {}
        for budget in (1, 6):
            out = tmp_path / f"budget{budget}"
            main(["calibrate", "--config", str(tiny_config), "--budget", str(budget),
                  "--out", str(out)])
            reports[budget] = json.loads((out / "calibration_report.json").read_text())
        assert rounds == [1, 6]
        assert reports[1]["config_hash"] == reports[6]["config_hash"]
        assert reports[1]["seed"] == reports[6]["seed"]
        assert (reports[1]["max_rounds"], reports[6]["max_rounds"]) == (1, 6)

    def test_evaluate_writes_report(self, run_cli, tiny_config, tmp_path):
        result = run_cli(
            ["evaluate", "--config", str(tiny_config), "--optimizer", "adhoc"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        rows = read_report(tmp_path / "out" / "report.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "adhoc"
        assert rows[0]["n_repeats"] == 4

    def test_evaluate_negative_zero_literal_scores_as_adhoc(self, run_cli, tiny_config, tmp_path):
        """A literal b-value of -0 is adhoc's b = 0: the row has adhoc's id,
        b-values, mean and std, and writes no -0."""
        rows = {}
        for name, source in (("literal", ["--protocol=-0,10,20,30,50,80,100,200,400,800"]),
                             ("adhoc", ["--optimizer", "adhoc"])):
            out = tmp_path / name
            run_cli(["evaluate", "--config", str(tiny_config), *source, "--out", str(out)], tmp_path, check=True)
            assert "-0" not in (out / "report.csv").read_text()
            [row] = read_report(out / "report.csv")
            rows[name] = [row[key] for key in ("protocol_id", "b_values", "mean_accuracy", "std_accuracy")]
        assert rows["literal"] == rows["adhoc"]

    def test_evaluate_protocol_literal_and_malformed(self, run_cli, tiny_config, tmp_path):
        good = run_cli(
            ["evaluate", "--config", str(tiny_config),
             "--protocol", "0,10,20,30,50,80,100,200,400,800", "--label", "custom"],
            tmp_path,
        )
        assert good.returncode == 0, good.stderr
        bad = run_cli(
            ["evaluate", "--config", str(tiny_config), "--protocol", "0,10,twenty"], tmp_path
        )
        assert bad.returncode != 0
        assert "malformed" in bad.stderr
        nan = run_cli(
            ["evaluate", "--config", str(tiny_config), "--protocol", "0,nan,10,20,30,50,80,100,200,800",
             "--out", str(tmp_path / "nan")], tmp_path
        )
        assert nan.returncode != 0
        assert "Traceback" not in nan.stderr
        assert "b-values must lie within [0, 1000], got nan" in nan.stderr
        assert not (tmp_path / "nan").exists()

    def test_evaluate_refuses_two_protocol_sources(self, run_cli, tiny_config, tmp_path):
        """--protocol, --protocol-file and --checkpoint exclude each other: a
        command naming several is a usage error, before any file is opened."""
        result = run_cli(
            ["evaluate", "--config", str(tiny_config),
             "--protocol", "0,10,20,30,50,80,100,200,400,800",
             "--protocol-file", str(tmp_path / "missing.json"),
             "--checkpoint", str(tmp_path / "missing.npz")],
            tmp_path,
        )
        assert result.returncode == 2
        assert "not allowed with argument" in result.stderr
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--budget", "-2"],
        ["optimize", "--optimizer", "rl", "--budget", "-5"],
        ["optimize", "--optimizer", "crlb", "--budget", "1.5"],
    ], ids=["calibrate-negative", "optimize-negative", "optimize-fractional"])
    def test_budget_not_a_whole_number_is_a_usage_error(self, run_cli, argv, tiny_config, tmp_path):
        """Either ``--budget`` flag takes a whole number >= 0; any other value
        is refused by the parser, naming the flag, before a run starts."""
        out = tmp_path / "run"
        result = run_cli([*argv, "--config", str(tiny_config), "--out", str(out)], tmp_path)
        assert result.returncode == 2
        assert f"argument --budget: expected a whole number >= 0, got '{argv[-1]}'" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        (["evaluate", "--snr", "5,abc"], None),
        (["optimize", "--optimizer", "crlb", "--budget", "0"], None),
        (["optimize", "--optimizer", "rl", "--budget", "8"], None),
        (["evaluate"], {"eval": {"k_neighbours": 3}}),
        (["evaluate", "--snr", "0.5"], None),
        (["evaluate", "--snr", "25,inf"], None),
        (["evaluate", "--snr", "25,25"], None),
        (["evaluate", "--optimizer", "adhoc"], {"snr_list": [5, 15, 5.0]}),
        (["evaluate", "--optimizer", "adhoc"], {"scanner": {"t2": True}}),
        (["evaluate", "--optimizer", "adhoc"], {"cohort": {"active": 4, "chronic": 21, "healthy": 21}}),
        (["optimize", "--optimizer", "crlb"], {"crlb": {"n_tissue_samples": 0}}),
        (["optimize", "--optimizer", "crlb"], {"crlb": {"ridge_rel": -1e-12}}),
        (["optimize", "--optimizer", "crlb"], {"crlb": {"ridge_rel": 0.0}}),
        (["evaluate", "--optimizer", "adhoc"], {"fit_bounds": {"d_min": 0.0}}),
        (["evaluate", "--optimizer", "adhoc"], {"fit_bounds": {"d_min": 0.01}}),
        (["evaluate", "--optimizer", "adhoc"], {"fit_bounds": {"dstar_max": 1.0e-6}}),
        (["evaluate", "--optimizer", "adhoc"], {"fit_bounds": {"dstar_max": 1.0e-3}}),
        *((["optimize", "--optimizer", "rl", "--budget", "36"], {"ppo": {name: value}})
          for name, value in _BAD_PPO_VALUES),
        *((["evaluate", "--optimizer", "adhoc"], {"tissue_file": name}) for name in _BAD_TISSUE_FILES),
        (["evaluate", "--optimizer", "adhoc"], [1, 2]),
        (["evaluate", "--optimizer", "adhoc"], {"cohort": 5}),
        (["evaluate", "--optimizer", "adhoc"], "seed: 3\n"),
        (["evaluate", "--optimizer", "adhoc"], {"seed": 1.5}),
        (["evaluate", "--optimizer", "adhoc"], {"seed": True}),
        (["evaluate", "--optimizer", "adhoc"], {"cohort": {"active": 20.7, "chronic": 21, "healthy": 21}}),
        (["evaluate", "--optimizer", "adhoc"], {"eval": {"n_repeats_reward": 2.5}}),
        (["evaluate", "--optimizer", "adhoc"], {"eval": {"n_repeats_report": 2.5}}),
        (["optimize", "--optimizer", "crlb"], {"crlb": {"iterations": 100.5}}),
        (["optimize", "--optimizer", "rl", "--budget", "36"], {"ppo": {"rollout_steps": 18.5}}),
        (["evaluate", "--optimizer", "adhoc"], {"snr_list": "25"}),
        (["evaluate", "--optimizer", "adhoc"], {"snr_list": "135"}),
        (["evaluate", "--optimizer", "adhoc"], {"seed": "5"}),
        (["evaluate", "--optimizer", "adhoc"], {"eval": {"n_repeats_reward": "5"}}),
        *((["evaluate", "--optimizer", "adhoc"], config) for config in _REMOVED_FIELDS),
    ], ids=["snr-not-a-number", "zero-anneal-budget", "rl-budget-below-one-episode", "misspelt-section-key", "snr-below-one",
            "snr-infinite", "snr-repeated", "snr-list-repeated", "boolean-t2",
            "fewer-subjects-than-folds", "zero-tissue-samples",
            "negative-ridge-rel", "zero-ridge-rel", "zero-d-min", "d-min-above-d-max",
            "dstar-max-below-d-min", "dstar-max-below-d-max",
            *(f"ppo-{name}-{value}" for name, value in _BAD_PPO_VALUES),
            *(f"tissue-{name.removesuffix('.json')}" for name in _BAD_TISSUE_FILES),
            "config-a-list", "cohort-not-an-object", "config-not-json", "fractional-seed",
            "boolean-seed", "fractional-cohort-count", "fractional-n-repeats-reward",
            "fractional-n-repeats-report", "fractional-crlb-iterations", "fractional-rollout-steps",
            "snr-list-a-string", "snr-list-a-digit-string", "string-seed", "string-n-repeats-reward",
            "removed-ppo-clip-range", "removed-scanner-gyromagnetic-ratio", "removed-ppo-gamma-clip-range",
            "fractional-n-folds", "negative-perturb-width", "zero-grid-points", "zero-refine-tol",
            "negative-t-initial", "ppo-vf_coef--1.0", "ppo-ent_coef--0.01", "ppo-max_grad_norm--1.0"])
    def test_bad_config_values_exit_without_traceback(self, run_cli, argv, config, tmp_path):
        """A config value the program cannot use ends the command with a
        one-line message, before the output directory is made. A malformed
        tissue file is named in that message, and so is a config file whose
        own content is refused (a string ``config`` is the file's text). A
        section setting a field that is now a constant is refused by its
        section and the names of all such fields."""
        for name, text in _BAD_TISSUE_FILES.items():
            (tmp_path / name).write_text(text)
        if config is not None:
            (tmp_path / "config.json").write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "config.json")]
        out = tmp_path / "run"
        result = run_cli([*argv, "--out", str(out)], tmp_path)
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert "invalid configuration" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        if isinstance(config, dict) and "tissue_file" in config:
            assert config["tissue_file"] in result.stderr
        elif config is not None:
            assert f"invalid configuration: {tmp_path / 'config.json'}: " in result.stderr
        if config in _REMOVED_FIELDS:
            [(section, values)] = config.items()
            assert f"config.json: {section}: unknown keys: {sorted(values)}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, needle", [
        (["report", "--report", "{missing}.csv"], "{missing}.csv"),
        (["report", "--report", "{foreign_csv}"], "{foreign_csv}"),
        (["plot", "--report", "{missing}.csv"], "{missing}.csv"),
        (["plot", "--report", "{foreign_csv}"], "{foreign_csv}"),
        (["evaluate", "--protocol-file", "{missing}.json"], "{missing}.json"),
        (["evaluate", "--protocol-file", "{foreign_csv}"], "{foreign_csv}"),
        (["evaluate", "--checkpoint", "{missing}.npz"], "{missing}.npz"),
        (["evaluate", "--checkpoint", "{foreign_json}"], "{foreign_json}"),
        (["evaluate", "--protocol-file", "{json_list}"], "{json_list}"),
        (["evaluate", "--protocol-file", "{scalar_b_values}"], "{scalar_b_values}"),
        (["evaluate", "--checkpoint", "{npy}"], "{npy}"),
        (["evaluate", "--checkpoint", "{empty}"], "cannot read {empty}: {empty} is not a readable checkpoint"),
        (["evaluate", "--checkpoint", "{truncated}"],
         "cannot read {truncated}: {truncated} is not a readable checkpoint: File is not a zip file"),
        (["evaluate", "--checkpoint", "{corrupt}"],
         "cannot read {corrupt}: {corrupt} is not a readable checkpoint: an entry fails its CRC check"),
        (["evaluate", "--checkpoint", "{version_5}"],
         "cannot read {version_5}: checkpoint version 5 not supported (expected 6)"),
        (["evaluate", "--checkpoint", "{text_hidden_size}"],
         "cannot read {text_hidden_size}: {text_hidden_size} is not a readable checkpoint: "
         "'<' not supported between instances of 'str' and 'int'"),
        (["evaluate", "--checkpoint", "{small_agent}"],
         "cannot use {small_agent}: its agent has (observation_size, n_actions) = (3, 2), "
         "the protocol environment needs (12, 101)"),
        (["evaluate", "--checkpoint", "{huge_hidden_size}"],
         "cannot read {huge_hidden_size}: checkpoint entry params has shape (9027,), expected (200000130000003,)"),
        (["evaluate", "--checkpoint", "{wide_agent}"],
         "cannot use {wide_agent}: its agent has (observation_size, n_actions) = (12, 1001), "
         "the protocol environment needs (12, 101)"),
        (["optimize", "--optimizer", "adhoc"], "optimize requires --optimizer crlb or --optimizer rl"),
        (["evaluate", "--optimizer", "rl"],
         "no protocol source: pass --protocol, --protocol-file, --checkpoint or --optimizer adhoc"),
        (["report", "--report", "{v2_report}"], "cannot read {v2_report}: row schema version 2 not supported"),
        (["report", "--report", "{short_row}"], "cannot read {short_row}: line 2 has 3 cells, not the header's 13"),
        (["plot", "--report", "{short_row}"], "cannot read {short_row}: line 2 has 3 cells, not the header's 13"),
        (["report", "--report", "{long_row}"], "cannot read {long_row}: line 2 has 14 cells, not the header's 13"),
        (["evaluate", "--optimizer", "adhoc", "--out", "{plain_file}"],
         "cannot write to {plain_file}: {plain_file} is not a directory"),
        (["validate", "--out", "{plain_file}"], "cannot write to {plain_file}: {plain_file} is not a directory"),
        (["optimize", "--optimizer", "crlb", "--out", "{plain_file}/run"],
         "cannot write to {plain_file}/run: {plain_file} is not a directory"),
        (["evaluate", "--optimizer", "adhoc", "--out", "{old_run}"],
         "cannot read {old_run}/report.csv: report {old_run}/report.csv has header ['a', 'b'], expected"),
    ], ids=["report-missing", "report-foreign", "plot-missing", "plot-foreign",
            "protocol-file-missing", "protocol-file-foreign", "checkpoint-missing",
            "checkpoint-foreign", "protocol-file-not-an-object", "protocol-file-scalar-b-values",
            "checkpoint-npy", "checkpoint-empty", "checkpoint-truncated", "checkpoint-corrupt",
            "checkpoint-version-5", "checkpoint-text-hidden-size", "checkpoint-other-shape",
            "checkpoint-huge-hidden-size", "checkpoint-1001-actions", "optimize-adhoc",
            "evaluate-no-protocol-source",
            "report-row-schema-version-2", "report-short-row", "plot-short-row", "report-long-row",
            "evaluate-out-a-file", "validate-out-a-file", "optimize-crlb-out-under-a-file",
            "evaluate-report-foreign-header"])
    def test_unreadable_input_or_refused_command_exits_cleanly(self, run_cli, argv, needle, tmp_path):
        """A missing input file, or one of another kind (an ``auc_report.csv``,
        a config file, a JSON list, a protocol artifact whose ``b_values`` is
        not a list, a bare ``.npy`` array, an empty, truncated or corrupt
        checkpoint, one of an earlier format version or one whose metadata
        holds a field of the wrong type or a size its weights do not fit, the
        checkpoint of an agent shaped for another environment (among them a
        1001-action agent of the 1 s/mm^2 grid), a report row
        of another schema version or
        with more or fewer cells than the header), ends the command with one
        line naming it; like a refused command, it leaves no output
        directory. So does an output the command could not write: an
        ``--out`` that is a file or lies under one, or a report to append to
        whose header is another schema's; these are refused before any
        scoring. No file is written or changed."""
        names = {"missing": str(tmp_path / "missing"),
                 "foreign_csv": str(tmp_path / "auc_report.csv"),
                 "foreign_json": str(tmp_path / "config.json"),
                 "json_list": str(tmp_path / "list.json"),
                 "scalar_b_values": str(tmp_path / "scalar.json"),
                 "npy": str(tmp_path / "array.npy"),
                 "empty": str(tmp_path / "empty.npz"),
                 "truncated": str(tmp_path / "truncated.npz"),
                 "corrupt": str(tmp_path / "corrupt.npz"),
                 "version_5": str(tmp_path / "version_5.npz"),
                 "text_hidden_size": str(tmp_path / "text_hidden_size.npz"),
                 "small_agent": str(tmp_path / "small.npz"),
                 "huge_hidden_size": str(tmp_path / "huge_hidden_size.npz"),
                 "wide_agent": str(tmp_path / "wide.npz"),
                 "v2_report": str(tmp_path / "v2.csv"),
                 "short_row": str(tmp_path / "short.csv"),
                 "long_row": str(tmp_path / "long.csv"),
                 "plain_file": str(tmp_path / "notes.txt"),
                 "old_run": str(tmp_path / "old_run")}
        (tmp_path / "auc_report.csv").write_text(
            "task,param,mean_auc,std_auc,n_repeats,config_hash,seed\nactive-chronic,f,0.5,0.1,3,abc,1\n")
        (tmp_path / "config.json").write_text(json.dumps({"seed": 1}))
        (tmp_path / "list.json").write_text(json.dumps([0, 10, 20]))
        (tmp_path / "scalar.json").write_text(json.dumps({"schema_version": 1, "b_values": 5}))
        np.save(tmp_path / "array.npy", np.zeros(3))
        save_checkpoint(tmp_path / "small.npz", PpoAgent(3, 2, np.random.default_rng(0), PpoConfig()), {})
        save_checkpoint(tmp_path / "wide.npz", PpoAgent(12, 1001, np.random.default_rng(0), PpoConfig()), {})
        archive = (tmp_path / "small.npz").read_bytes()
        (tmp_path / "empty.npz").write_bytes(b"")
        (tmp_path / "truncated.npz").write_bytes(archive[: len(archive) // 2])
        middle = len(archive) // 2  # a byte of an array's data: its entry's CRC no longer matches
        (tmp_path / "corrupt.npz").write_bytes(
            archive[:middle] + bytes([archive[middle] ^ 0xFF]) + archive[middle + 1:])
        _rewrite_checkpoint_meta(tmp_path / "small.npz", tmp_path / "version_5.npz",
                                 lambda meta: meta.update(checkpoint_version=5))
        _rewrite_checkpoint_meta(tmp_path / "small.npz", tmp_path / "text_hidden_size.npz",
                                 lambda meta: meta.update(hidden_size="64"))
        _rewrite_checkpoint_meta(tmp_path / "small.npz", tmp_path / "huge_hidden_size.npz",
                                 lambda meta: meta.update(hidden_size=10_000_000))
        append_report_rows(tmp_path / "v2.csv", [TestReports().row()])
        (tmp_path / "v2.csv").write_text((tmp_path / "v2.csv").read_text().replace("\n1,", "\n2,"))
        (tmp_path / "short.csv").write_text(",".join(REPORT_COLUMNS) + "\n1,multiclass,adhoc\n")
        append_report_rows(tmp_path / "long.csv", [TestReports().row()])
        (tmp_path / "long.csv").write_text((tmp_path / "long.csv").read_text().rstrip() + ",extra\n")
        (tmp_path / "notes.txt").write_text("notes\n")
        (tmp_path / "old_run").mkdir()
        (tmp_path / "old_run" / "report.csv").write_text("a,b\n1,2\n")
        before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
        out = tmp_path / "run"
        outputs = [] if argv[0] == "report" or "--out" in argv else ["--out", str(out)]
        result = run_cli([arg.format(**names) for arg in argv] + outputs, tmp_path)
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert needle.format(**names) in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()
        assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before

    def test_report_of_a_header_only_file_is_empty(self, run_cli, tmp_path):
        path = tmp_path / "report.csv"
        append_report_rows(path, [])
        result = run_cli(["report", "--report", str(path)], tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, "report is empty\n", "")

    def test_command_sampling_a_class_the_cohort_lacks_exits_cleanly(self, run_cli, tmp_path):
        """``validate`` scores all three binary tasks, so a cohort without
        healthy subjects cannot run it: one line naming the class, no
        output directory."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"task": "active-chronic", "cohort": {"active": 20, "chronic": 21},
                                      "eval": {"n_repeats_report": 1}}))
        out = tmp_path / "run"
        result = run_cli(["validate", "--config", str(config), "--out", str(out)], tmp_path)
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert result.stderr.strip() == "validate: no subject counts for classes: ['healthy']"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["classes"].pop("chronic"), "evaluate: no tissue distribution configured for chronic"),
        (lambda raw: raw["classes"]["active"].update(mean_dstar=0.001125, std_dstar=0.0),
         "evaluate: cannot sample tissue class active: rejection sampling failed to satisfy ["),
    ], ids=["missing-class", "unsampleable-class"])
    def test_command_sampling_a_class_it_cannot_draw_exits_cleanly(self, run_cli, edit, message, tmp_path):
        """A tissue file that loads may still not give a cohort: a class it
        lacks, or one whose d_star prior (here half its mean d, no spread)
        never lands above d. The command ends in one line naming the class
        by its token, and makes no output directory."""
        (tmp_path / "tissue.json").write_text(_edited_tissue_file(edit))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tissue_file": "tissue.json", "eval": {"n_repeats_report": 1}}))
        out = tmp_path / "run"
        result = run_cli(["evaluate", "--config", str(config), "--optimizer", "adhoc", "--out", str(out)], tmp_path)
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(message)
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["crlb", "rl"])
    def test_protocol_artifact_fields_come_from_the_run(self, run_cli, method, tiny_config, tmp_path):
        """The writer derives the echo time and id from the protocol and the
        scanner, and stamps the run's config hash and seed, as the checkpoint
        does."""
        run_cli(["optimize", "--config", str(tiny_config), "--optimizer", method], tmp_path, check=True)
        protocol, payload = load_protocol_artifact(tmp_path / "out" / f"protocol_{method}.json")
        config = dataclasses.replace(load_experiment_config(tiny_config), optimizer=method)
        assert payload["te_s"] == protocol.echo_time(config.scanner)
        assert payload["protocol_id"] == protocol_id(protocol)
        stamp = {"config_hash": config_hash(config), "seed": 424242}
        assert {key: payload[key] for key in stamp} == stamp
        if method == "rl":
            _, meta = load_checkpoint(tmp_path / "out" / "checkpoint.npz")
            assert {key: meta[key] for key in stamp} == stamp

    def test_optimize_crlb_and_rl_artifacts(self, run_cli, tiny_config, tmp_path):
        crlb = run_cli(
            ["optimize", "--config", str(tiny_config), "--optimizer", "crlb"], tmp_path
        )
        assert crlb.returncode == 0, crlb.stderr
        protocol, payload = load_protocol_artifact(tmp_path / "out" / "protocol_crlb.json")
        assert len(protocol.b_values) == 10
        assert payload["seed"] == 424242
        with (tmp_path / "out" / "anneal.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["iteration", "best_cost"] and rows[1][0] == "0"
        iterations = [int(row[0]) for row in rows[1:]]
        costs = [float(row[1]) for row in rows[1:]]
        assert iterations == sorted(set(iterations)) and iterations[-1] < 150
        assert all(later < earlier for earlier, later in zip(costs, costs[1:]))
        assert costs[-1] == payload["objective_value"]

        rl = run_cli(["optimize", "--config", str(tiny_config), "--optimizer", "rl"], tmp_path)
        assert rl.returncode == 0, rl.stderr
        with (tmp_path / "out" / "curve.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][3:] == ["policy_loss", "value_loss", "entropy", "approx_kl"]
        assert len(rows) > 1 and all(len(row) == 7 and np.isfinite([float(v) for v in row[3:]]).all()
                                     for row in rows[1:])
        assert (tmp_path / "out" / "checkpoint.npz").exists()
        assert (tmp_path / "out" / "config_snapshot.json").exists()

    def test_rl_artifacts_do_not_depend_on_the_blas_threads(self, run_cli, monkeypatch, tmp_path):
        """Importing the package pins the BLAS/OpenMP threads to one unless
        the caller set them, so a run whose environment leaves them unset
        writes the bytes of one that sets them to 1. Unpinned on a host with
        two or more cores, the weights round differently within a round."""
        repro = Path(__file__).resolve().parents[1] / "configs" / "repro.json"
        digests = []
        for threads in (None, "1"):
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                if threads is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, threads)
            out = tmp_path / f"threads-{threads}"
            run_cli(["optimize", "--config", str(repro), "--optimizer", "rl", "--seed", "3", "--budget", "2048",
                     "--out", str(out)], tmp_path, check=True)
            digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("checkpoint.npz", "curve.csv", "protocol_rl.json")})
        assert digests[0] == digests[1]

    def test_evaluate_from_artifact_and_checkpoint(self, run_cli, tiny_config, tmp_path):
        run_cli(["optimize", "--config", str(tiny_config), "--optimizer", "crlb"], tmp_path)
        run_cli(["optimize", "--config", str(tiny_config), "--optimizer", "rl"], tmp_path)
        from_artifact = run_cli(
            ["evaluate", "--config", str(tiny_config),
             "--protocol-file", str(tmp_path / "out" / "protocol_crlb.json")],
            tmp_path,
        )
        assert from_artifact.returncode == 0, from_artifact.stderr
        from_ckpt = run_cli(
            ["evaluate", "--config", str(tiny_config),
             "--checkpoint", str(tmp_path / "out" / "checkpoint.npz")],
            tmp_path,
        )
        assert from_ckpt.returncode == 0, from_ckpt.stderr
        methods = {r["method"] for r in read_report(tmp_path / "out" / "report.csv")}
        assert {"crlb", "rl"} <= methods

    def test_sweep_plot_report_pipeline(self, run_cli, tiny_config, tmp_path):
        sweep = run_cli(
            ["sweep-snr", "--config", str(tiny_config), "--optimizer", "adhoc",
             "--snr", "15,25"],
            tmp_path,
        )
        assert sweep.returncode == 0, sweep.stderr
        rows = read_report(tmp_path / "out" / "report.csv")
        assert sorted(r["snr"] for r in rows) == [15.0, 25.0]
        plot = run_cli(
            ["plot", "--config", str(tiny_config), "--report",
             str(tmp_path / "out" / "report.csv")],
            tmp_path,
        )
        assert plot.returncode == 0, plot.stderr
        assert (tmp_path / "out" / "accuracy_vs_snr.svg").exists()
        # re-running one cell with the same method appends an identical row:
        # still one point per cell
        run_cli(["evaluate", "--config", str(tiny_config), "--optimizer", "adhoc", "--snr", "15"],
                tmp_path, check=True)
        assert len(read_report(tmp_path / "out" / "report.csv")) == 3
        run_cli(["plot", "--config", str(tiny_config), "--report",
                 str(tmp_path / "out" / "report.csv")], tmp_path, check=True)
        assert (tmp_path / "out" / "accuracy_vs_snr.svg").read_text().count("<circle") == 2
        report = run_cli(["report", "--report", str(tmp_path / "out" / "report.csv")], tmp_path)
        assert report.returncode == 0
        assert "adhoc" in report.stdout

    def test_validate_emits_auc_csv(self, run_cli, tiny_config, tmp_path):
        result = run_cli(["validate", "--config", str(tiny_config)], tmp_path)
        assert result.returncode == 0, result.stderr
        text = (tmp_path / "out" / "auc_report.csv").read_text()
        assert text.startswith("task,param,mean_auc")
        assert text.count("\n") == 10  # header + 3 tasks x 3 params


def load_artifact_digests():
    """``tools/artifact_digests.py``, the definition of C06's check."""
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("stray", [None, "stray.txt"])
def test_artifact_digests_refuse_an_undigested_artifact(tmp_path, stray):
    """The digest tool gives one line per listed artifact, and fails when the
    command sequence leaves a file in ``out`` that it does not list."""
    tool = load_artifact_digests()
    out = tmp_path / "out"

    def run(args, cwd):
        # stands in for the CLI: writes every listed artifact, and the stray file after the last command
        out.mkdir(exist_ok=True)
        for name in tool.ARTIFACTS:
            (out / name).write_text({"report.csv": "wall_clock_s\n1.5\n", "config_snapshot.json": "{}"}.get(name, name))
        if stray and args[0] == "report":
            (out / stray).write_text("")
        return " ".join(args)

    if stray:
        with pytest.raises(ValueError, match=stray):
            tool.digest_lines(run, tmp_path)
    else:
        lines = tool.digest_lines(run, tmp_path)
        assert [line.split()[-1] for line in lines] == [*tool.ARTIFACTS, "stdout"]
