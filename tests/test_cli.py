"""Command-line workflow: scenario parsing, subcommands, exit codes, outputs."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import sparsewatch.geometry as geometry
from sparsewatch import gen_stream, save_basis_csv, save_stream_csv
from sparsewatch.cli import CliError, load_scenario, main


def _scenario_doc(**over):
    doc = {
        "p": 6,
        "m": 3,
        "basis": {
            "background": {"type": "fourier", "k": 2},
            "anomaly": {
                "type": "bspline", "order": 2, "n_knots": 6, "normalize_columns": False,
            },
        },
        "model": {
            "sigma_e": 0.1,
            "sigma_b": 0.5,
            "sigma_j": 2.0,
            "w": 0.2,
            "v": 1e-6,
            "decay": 0.1,
        },
        "horizon": 60,
        "tau": None,
        "arl0_target": 12.0,
    }
    doc.update(over)
    return doc


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_scenario_doc()))
    return path


def _write_scenario(tmp_path, name="scenario.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_scenario_doc(**over)))
    return path


class TestLoadScenario:
    def test_happy_path(self, scenario_file):
        scenario, sampler, raw = load_scenario(scenario_file)
        assert scenario.dictionary.p == 6
        assert scenario.dictionary.k_b == 2
        assert scenario.dictionary.k_a == 4
        assert scenario.cfg.m == 3
        assert scenario.tau is None
        assert sampler == "thompson"
        assert raw["arl0_target"] == 12.0

    def test_material_fields_have_no_defaults(self, tmp_path):
        for field in ("p", "m", "basis", "model", "horizon", "tau"):
            doc = _scenario_doc()
            del doc[field]
            path = tmp_path / f"missing_{field}.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(CliError, match=f"'{field}'"):
                load_scenario(path)

    def test_model_fields_have_no_defaults(self, tmp_path):
        for field in ("sigma_e", "sigma_b", "sigma_j", "w", "v", "decay"):
            doc = _scenario_doc()
            del doc["model"][field]
            path = tmp_path / f"missing_{field}.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(CliError, match=f"'{field}'"):
                load_scenario(path)

    def test_bspline_column_scaling_has_no_default(self, tmp_path):
        doc = _scenario_doc()
        del doc["basis"]["anomaly"]["normalize_columns"]
        path = tmp_path / "missing_normalize_columns.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CliError, match="'normalize_columns' in anomaly basis"):
            load_scenario(path)
        doc["basis"]["anomaly"]["normalize_columns"] = "false"
        path.write_text(json.dumps(doc))
        with pytest.raises(CliError, match="must be true or false"):
            load_scenario(path)
        doc["basis"]["anomaly"]["normalize_columns"] = True
        path.write_text(json.dumps(doc))
        scenario, _, _ = load_scenario(path)
        np.testing.assert_allclose(np.linalg.norm(scenario.dictionary.b_a, axis=0), 1.0)

    def test_vector_hyperparameters_broadcast_or_match(self, tmp_path):
        path = _write_scenario(
            tmp_path, model=dict(_scenario_doc()["model"], w=[0.1, 0.2, 0.3, 0.4])
        )
        scenario, _, _ = load_scenario(path)
        np.testing.assert_allclose(scenario.cfg.w, [0.1, 0.2, 0.3, 0.4])
        bad = _write_scenario(
            tmp_path, name="bad.json",
            model=dict(_scenario_doc()["model"], w=[0.1, 0.2]),
        )
        with pytest.raises(CliError, match="'w' has 2 entries"):
            load_scenario(bad)

    def test_identity_and_csv_bases(self, tmp_path, rng):
        mat = rng.normal(size=(6, 2))
        csv_path = tmp_path / "bb.csv"
        save_basis_csv(csv_path, mat)
        path = _write_scenario(
            tmp_path,
            basis={
                "background": {"type": "csv", "path": str(csv_path)},
                "anomaly": {"type": "identity"},
            },
            m=2,
        )
        scenario, _, _ = load_scenario(path)
        np.testing.assert_allclose(scenario.dictionary.b_b, mat)
        np.testing.assert_array_equal(scenario.dictionary.b_a, np.eye(6))

    def test_kron_basis(self, tmp_path):
        path = _write_scenario(
            tmp_path,
            basis={
                "background": {
                    "type": "kron",
                    "factors": [
                        {"type": "fourier", "k": 2, "p": 3},
                        {"type": "identity", "p": 2},
                    ],
                },
                "anomaly": {"type": "identity"},
            },
            m=2,
        )
        scenario, _, _ = load_scenario(path)
        assert scenario.dictionary.b_b.shape == (6, 4)

    def test_empty_background_allowed_empty_anomaly_refused(self, tmp_path):
        path = _write_scenario(
            tmp_path,
            basis={
                "background": {"type": "none"},
                "anomaly": {"type": "identity"},
            },
        )
        scenario, _, _ = load_scenario(path)
        assert scenario.dictionary.k_b == 0
        bad = _write_scenario(
            tmp_path, name="bad.json",
            basis={
                "background": {"type": "fourier", "k": 2},
                "anomaly": {"type": "none"},
            },
        )
        with pytest.raises(CliError, match="may not be empty"):
            load_scenario(bad)

    def test_csv_row_count_checked(self, tmp_path, rng):
        csv_path = tmp_path / "bb.csv"
        save_basis_csv(csv_path, rng.normal(size=(5, 2)))
        path = _write_scenario(
            tmp_path,
            basis={
                "background": {"type": "csv", "path": str(csv_path)},
                "anomaly": {"type": "identity"},
            },
        )
        with pytest.raises(CliError, match="5 rows, scenario says p=6"):
            load_scenario(path)

    def test_unknown_sampler_and_basis_type(self, tmp_path):
        with pytest.raises(CliError, match="unknown sampler"):
            load_scenario(_write_scenario(tmp_path, sampler="random"))
        with pytest.raises(CliError, match="unknown anomaly basis type"):
            load_scenario(
                _write_scenario(
                    tmp_path, name="b.json",
                    basis={
                        "background": {"type": "none"},
                        "anomaly": {"type": "wavelet"},
                    },
                )
            )

    @pytest.mark.parametrize(
        "over",
        [
            {"change": 5},
            {"change": [5]},
            {"tau": [3]},
            {"p": None},
            {"horizon": {"steps": 60}},
            {"model": dict(_scenario_doc()["model"], sigma_e=None)},
            {"model": dict(_scenario_doc()["model"], w={"all": 0.2})},
            {"basis": 5},
            {"basis": {"background": {"type": "fourier", "k": None}, "anomaly": {"type": "identity"}}},
            {"basis": {"background": {"type": "kron", "factors": [1, 2]}, "anomaly": {"type": "identity"}}},
        ],
        ids=[
            "change-number", "change-entry-number", "tau-list", "p-null",
            "horizon-object", "sigma_e-null", "w-object", "basis-number",
            "basis-k-null", "kron-factor-number",
        ],
    )
    def test_wrong_json_types_are_invalid_scenarios(self, tmp_path, capsys, over):
        path = _write_scenario(tmp_path, **over)
        with pytest.raises(CliError, match="invalid scenario"):
            load_scenario(path)
        out = tmp_path / "out"
        assert main(["calibrate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid scenario")
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"p": 6.5}, "'p' in scenario"),
            ({"m": 2.7}, "'m' in scenario"),
            ({"m": True}, "'m' in scenario"),
            ({"m": "3"}, "'m' in scenario"),
            ({"horizon": 60.5}, "'horizon' in scenario"),
            ({"tau": 5.9}, "'tau' in scenario"),
            ({"tau": float("inf")}, "'tau' in scenario"),
            ({"change": [[1.8, 1.0]]}, "'change' in scenario"),
            ({"random_change_basis": "false"}, "'random_change_basis' in scenario"),
            ({"random_change_basis": 0}, "'random_change_basis' in scenario"),
            (
                {"basis": {"background": {"type": "fourier", "k": 2.5}, "anomaly": {"type": "identity"}}},
                "'k' in background basis",
            ),
            (
                {"basis": {"background": {"type": "none"}, "anomaly": {
                    "type": "bspline", "order": 2.2, "n_knots": 6, "normalize_columns": False}}},
                "'order' in anomaly basis",
            ),
            (
                {"basis": {"background": {"type": "none"}, "anomaly": {
                    "type": "bspline", "order": 2, "n_knots": 14.9, "normalize_columns": False}}},
                "'n_knots' in anomaly basis",
            ),
            (
                {"basis": {"background": {"type": "none"}, "anomaly": {"type": "kron", "factors": [
                    {"type": "identity", "p": 2.5}, {"type": "identity", "p": 3}]}}},
                "'p' in anomaly kron factor",
            ),
        ],
        ids=[
            "p", "m", "m-bool", "m-string", "horizon", "tau", "tau-inf", "change-column",
            "random_change_basis-string", "random_change_basis-int", "fourier-k",
            "bspline-order", "bspline-n_knots", "kron-factor-p",
        ],
    )
    def test_counts_must_be_whole_and_switches_boolean(self, tmp_path, capsys, over, field):
        """A fractional count or index is refused, not truncated, and a
        switch must be a JSON boolean; the error names the field."""
        path = _write_scenario(tmp_path, **over)
        with pytest.raises(CliError, match=f"invalid scenario: field {field}"):
            load_scenario(path)
        out = tmp_path / "out"
        assert main(["calibrate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid scenario: field {field}")
        assert not out.exists()

    def test_whole_numbers_written_as_floats_are_accepted(self, tmp_path):
        path = _write_scenario(tmp_path, m=3.0, horizon=60.0, tau=20.0, change=[[1.0, 0.5]])
        scenario, _, _ = load_scenario(path)
        assert (scenario.cfg.m, scenario.horizon, scenario.tau) == (3, 60, 20)
        assert scenario.change == ((1, 0.5),)

    @pytest.mark.parametrize(
        "over, field",
        [
            ({"sigma_e": "0.1"}, "'sigma_e' in model"),
            ({"sigma_b": True}, "'sigma_b' in model"),
            ({"v": "1e-6"}, "'v' in model"),
            ({"decay": False}, "'decay' in model"),
            ({"sigma_j": "2.0"}, "'sigma_j' in model"),
            ({"sigma_j": [2.0, 2.0, "2.0", 2.0]}, "'sigma_j' in model"),
            ({"w": True}, "'w' in model"),
            ({"w": [0.2, 0.2, 0.2, False]}, "'w' in model"),
            ({"w": [[0.2, 0.2, 0.2, 0.2]]}, "'w' in model"),
            ({"change": [[1, "0.5"]]}, "'change' in scenario"),
            ({"change": [[1, True]]}, "'change' in scenario"),
            ({"sigma_b": 10**400}, "'sigma_b' in model"),
            ({"w": [0.2, 10**400, 0.2, 0.2]}, "'w' in model"),
            ({"change": [[1, 10**400]]}, "'change' in scenario"),
        ],
        ids=[
            "sigma_e-string", "sigma_b-bool", "v-string", "decay-bool", "sigma_j-string",
            "sigma_j-entry-string", "w-bool", "w-entry-bool", "w-nested", "phi-string",
            "phi-bool", "sigma_b-huge", "w-entry-huge", "phi-huge",
        ],
    )
    def test_real_fields_must_be_json_numbers(self, tmp_path, capsys, over, field):
        """A real-valued field is refused unless it is a JSON number within
        float range: a string or a boolean is not coerced.  The error names
        the field."""
        change = over.pop("change", None)
        doc = _scenario_doc(model=dict(_scenario_doc()["model"], **over))
        if change is not None:
            doc.update(tau=20, change=change)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(
            CliError, match=f"invalid scenario: field {field} (must be a number|is too large)"
        ):
            load_scenario(path)
        out = tmp_path / "out"
        assert main(["calibrate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid scenario: field {field}")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["12", True, None])
    @pytest.mark.parametrize("command", ["calibrate", "table1"])
    def test_arl0_target_must_be_a_json_number(self, tmp_path, capsys, command, target):
        path = _write_scenario(tmp_path, arl0_target=target, tau=20, change=[[1, 0.5]])
        out = tmp_path / "out"
        grid = ["--phis", "0.5", "--ms", "3"] if command == "table1" else []
        assert main([command, "--scenario", str(path), "--out", str(out), *grid]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid scenario: field 'arl0_target' in scenario must be a number"
        )
        assert not out.exists()

    def test_integers_accepted_for_real_fields(self, tmp_path):
        model = dict(_scenario_doc()["model"], sigma_b=1, sigma_j=[2, 2.0, 3, 2])
        path = _write_scenario(tmp_path, model=model, tau=20, change=[[1, 2]])
        scenario, _, _ = load_scenario(path)
        assert scenario.cfg.sigma_b == 1.0 and scenario.change == ((1, 2.0),)
        assert scenario.cfg.sigma_j.tolist() == [2.0, 2.0, 3.0, 2.0]

    @pytest.mark.parametrize("phi, text", [(math.nan, "NaN"), (math.inf, "Infinity")])
    def test_non_finite_change_magnitude_is_an_invalid_scenario(self, tmp_path, phi, text):
        """Python's json reads NaN and Infinity; the scenario refuses them."""
        path = _write_scenario(tmp_path, tau=20, change=[[1, phi]])
        assert f"[[1, {text}]]" in path.read_text()
        with pytest.raises(
            CliError, match=rf"invalid scenario: change entry \(1, {phi}\) has a non-finite"
        ):
            load_scenario(path)

    def test_change_without_a_change_point_is_an_invalid_scenario(self, tmp_path, capsys):
        """A null tau with a change list once monitored a null stream."""
        path = _write_scenario(tmp_path, tau=None, change=[[1, 5.0]])
        out = tmp_path / "out"
        assert main(["calibrate", "--scenario", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario") and "tau is None" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "basis, message",
        [
            ({"background": 5, "anomaly": {"type": "identity"}},
             "background basis spec must be an object"),
            ({"background": {"type": "none"},
              "anomaly": {"type": "kron", "factors": [{"type": "identity", "p": 6}]}},
             "anomaly kron basis needs exactly two factor specs"),
            ({"background": {"type": "none"}, "anomaly": {"type": "kron", "factors": [
                {"type": "identity", "p": 2}, {"type": "identity", "p": 2}]}},
             "anomaly kron basis has 4 rows, scenario says p=6"),
        ],
        ids=["spec-number", "one-kron-factor", "kron-rows"],
    )
    def test_bad_basis_specs_named(self, tmp_path, basis, message):
        with pytest.raises(CliError, match=message):
            load_scenario(_write_scenario(tmp_path, basis=basis))

    def test_unreadable_file_reported(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        with pytest.raises(CliError, match="cannot read scenario file"):
            load_scenario(path)
        out = tmp_path / "out"
        assert main(["calibrate", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read scenario file")
        assert not out.exists()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CliError, match="not valid JSON"):
            load_scenario(path)


class TestCalibrate:
    def test_writes_threshold_document(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "calibrate",
                "--scenario", str(scenario_file),
                "--out", str(out),
                "--reps", "20",
                "--tol-rel", "0.3",
                "--seed", "5",
            ]
        )
        assert code == 0
        doc = json.loads((out / "threshold.json").read_text())
        assert math.isfinite(doc["h"])
        assert abs(doc["achieved_arl"] - 12.0) / 12.0 <= 0.3
        assert doc["n_reps"] == 20
        assert doc["horizon"] == 60
        assert doc["sampler"] == "thompson"
        assert doc["manifest"]["command"] == "calibrate"
        assert doc["manifest"]["flags"]["seed"] == 5
        assert "workers" not in doc["manifest"]["flags"]
        assert "threshold" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path, scenario_file):
        args = [
            "calibrate", "--scenario", str(scenario_file),
            "--reps", "15", "--tol-rel", "0.3",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/threshold.json").read_bytes() == (
            tmp_path / "b/threshold.json"
        ).read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        args = [
            "calibrate", "--scenario", str(scenario_file),
            "--out", str(out), "--reps", "15", "--tol-rel", "0.3",
        ]
        assert main(args) == 0
        before = (out / "threshold.json").read_bytes()
        assert main(args) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert (out / "threshold.json").read_bytes() == before
        assert main(args + ["--force"]) == 0

    def test_horizon_guard(self, tmp_path, scenario_file, capsys):
        code = main(
            [
                "calibrate", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "out"),
                "--reps", "10", "--horizon", "20",
            ]
        )
        assert code == 1
        assert "twice the target" in capsys.readouterr().err
        path = _write_scenario(tmp_path, "change.json", tau=5, change=[[0, 1.0]])
        code = main(
            [
                "table1", "--scenario", str(path), "--out", str(tmp_path / "t"),
                "--phis", "1.0", "--ms", "2", "--calib-reps", "10",
                "--calib-horizon", "20",
            ]
        )
        assert code == 1
        assert "twice the target" in capsys.readouterr().err

    @pytest.mark.parametrize("tol_rel", ["nan", "0", "-0.1"])
    def test_bad_tolerance_rejected_before_simulating(
        self, tmp_path, scenario_file, capsys, monkeypatch, tol_rel
    ):
        import sparsewatch.engine as engine

        def simulate(*args, **kwargs):
            raise AssertionError("the null replications were simulated")

        monkeypatch.setattr(engine, "collect_h0_trajectories", simulate)
        out = tmp_path / "out"
        code = main(
            [
                "calibrate", "--scenario", str(scenario_file),
                "--out", str(out), "--reps", "10", "--tol-rel", tol_rel,
            ]
        )
        assert code == 1
        assert "tol_rel must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_target_rejected(self, tmp_path, capsys):
        doc = _scenario_doc()
        del doc["arl0_target"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert (
            main(
                [
                    "calibrate", "--scenario", str(path),
                    "--out", str(tmp_path / "out"), "--reps", "10",
                ]
            )
            == 1
        )
        assert "arl0_target" in capsys.readouterr().err

    def test_nonpositive_reps_rejected(self, tmp_path, scenario_file, capsys):
        code = main(
            [
                "calibrate", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "out"), "--reps", "0",
            ]
        )
        assert code == 1
        assert "--reps" in capsys.readouterr().err


class TestEvaluate:
    def _calibrate(self, tmp_path, scenario_file):
        out = tmp_path / "calib"
        assert (
            main(
                [
                    "calibrate", "--scenario", str(scenario_file),
                    "--out", str(out), "--reps", "20", "--tol-rel", "0.3",
                ]
            )
            == 0
        )
        return out / "threshold.json"

    def test_threshold_file_round_trip(self, tmp_path, scenario_file):
        threshold_path = self._calibrate(tmp_path, scenario_file)
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate", "--scenario", str(scenario_file),
                "--out", str(out), "--threshold", str(threshold_path),
                "--reps", "10",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["h"] == json.loads(threshold_path.read_text())["h"]
        assert summary["n_reps"] == 10
        assert summary["add"] is None
        assert summary["arl0"] > 0
        lines = (out / "delays.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "rep,T,false_alarm,delay"
        assert len(lines) == 12

    def test_numeric_threshold_and_change_scenario(self, tmp_path):
        path = _write_scenario(
            tmp_path, tau=5, change=[[1, 2.5]], horizon=50
        )
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate", "--scenario", str(path), "--out", str(out),
                "--threshold", "0.25", "--reps", "8",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["arl0"] is None
        rows = (out / "delays.csv").read_text().strip().split("\n")[2:]
        assert len(rows) == 8
        for row in rows:
            rep, t_alarm, false_alarm, delay = row.split(",")
            if delay:
                assert int(t_alarm) == 5 + int(delay)

    def test_summary_reports_the_sweep_histogram(self, tmp_path, capsys):
        """summary.json counts every step of every replication by its fit's
        sweeps, and the command prints the nonzero counts."""
        path = _write_scenario(tmp_path, tau=5, change=[[1, 2.5]], horizon=50)
        out = tmp_path / "eval"
        args = ["evaluate", "--scenario", str(path), "--out", str(out),
                "--threshold", "0.25", "--reps", "8"]
        assert main(args) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = (out / "delays.csv").read_text().strip().split("\n")[2:]
        steps = sum(min(int(row.split(",")[1]), 50) for row in rows)
        histogram = summary["sweep_histogram"]
        assert sum(histogram) == steps and histogram[-1] > 0
        printed = ", ".join(f"{k}: {n}" for k, n in enumerate(histogram, 1) if n)
        assert f"steps by fit sweeps: {printed}\n" in capsys.readouterr().out

    def test_worker_count_leaves_no_trace(self, tmp_path, scenario_file):
        """Outputs are byte-identical across --workers values."""
        for name, workers in (("w1", "1"), ("w2", "2")):
            assert (
                main(
                    [
                        "evaluate", "--scenario", str(scenario_file),
                        "--out", str(tmp_path / name),
                        "--threshold", "1.5", "--reps", "6",
                        "--workers", workers,
                    ]
                )
                == 0
            )
        for fname in ("delays.csv", "summary.json"):
            assert (tmp_path / "w1" / fname).read_bytes() == (
                tmp_path / "w2" / fname
            ).read_bytes()

    def test_bad_threshold_rejected(self, tmp_path, scenario_file, capsys):
        code = main(
            [
                "evaluate", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "out"),
                "--threshold", str(tmp_path / "nope.json"), "--reps", "5",
            ]
        )
        assert code == 1
        assert "--threshold" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["evaluate", "monitor"])
    @pytest.mark.parametrize("threshold", ["inf", "-inf", "nan", "file-infinity"])
    def test_non_finite_threshold_rejected_before_any_work(
        self, tmp_path, scenario_file, capsys, command, threshold
    ):
        if threshold == "file-infinity":
            threshold = str(tmp_path / "threshold.json")
            (tmp_path / "threshold.json").write_text('{"h": Infinity}')
        stream = tmp_path / "stream.csv"
        save_stream_csv(stream, np.zeros((3, 6)))
        out = tmp_path / "out"
        args = [
            command, "--scenario", str(scenario_file), "--out", str(out),
            f"--threshold={threshold}",
        ]
        args += ["--reps", "3"] if command == "evaluate" else ["--stream", str(stream)]
        assert main(args) == 1
        assert "--threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "monitor"])
    @pytest.mark.parametrize("h", ["true", '"0.5"', "null", "[0.5]"])
    def test_threshold_file_h_must_be_a_json_number(
        self, tmp_path, scenario_file, capsys, command, h
    ):
        """A threshold file's ``h`` is read as a scenario's reals are: a
        boolean or a string is refused, naming the file and the field,
        before any work."""
        path = tmp_path / "threshold.json"
        path.write_text(f'{{"h": {h}}}')
        stream = tmp_path / "stream.csv"
        save_stream_csv(stream, np.zeros((3, 6)))
        out = tmp_path / "out"
        args = [command, "--scenario", str(scenario_file), "--out", str(out), "--threshold", str(path)]
        args += ["--reps", "3"] if command == "evaluate" else ["--stream", str(stream)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"error: invalid threshold file: field 'h' in {path} must be a number" in err
        assert not out.exists()


class TestMonitor:
    def _stream(self, tmp_path, scenario_file, tau=10, phi=3.0, horizon=50):
        scenario, _, _ = load_scenario(scenario_file)
        from sparsewatch import Scenario

        sc = Scenario(
            dictionary=scenario.dictionary,
            cfg=scenario.cfg,
            tau=tau,
            change=((1, phi),) if tau is not None else (),
            horizon=horizon,
        )
        stream = gen_stream(sc, np.random.SeedSequence(77))
        path = tmp_path / "stream.csv"
        save_stream_csv(path, stream)
        return path

    def test_alarm_exits_two_and_logs(self, tmp_path, scenario_file, capsys):
        stream_path = self._stream(tmp_path, scenario_file)
        out = tmp_path / "mon"
        code = main(
            [
                "monitor", "--scenario", str(scenario_file),
                "--out", str(out), "--stream", str(stream_path),
                "--threshold", "0.5",
            ]
        )
        assert code == 2
        assert "alarm at step" in capsys.readouterr().out
        lines = (out / "detection_log.jsonl").read_text().strip().split("\n")
        head = json.loads(lines[0])
        assert head["manifest"]["command"] == "monitor"
        records = [json.loads(line) for line in lines[1:]]
        assert all(not rec["alarmed"] for rec in records[:-1])
        assert records[-1]["alarmed"]
        assert records[-1]["step"] == len(records)

    def test_quiet_stream_exits_zero(self, tmp_path, scenario_file, capsys):
        stream_path = self._stream(tmp_path, scenario_file, tau=None, horizon=30)
        out = tmp_path / "mon"
        code = main(
            [
                "monitor", "--scenario", str(scenario_file),
                "--out", str(out), "--stream", str(stream_path),
                "--threshold", "1e300",
            ]
        )
        assert code == 0
        assert "no alarm in 30 steps" in capsys.readouterr().out
        lines = (out / "detection_log.jsonl").read_text().strip().split("\n")
        assert len(lines) == 31

    def test_steps_read_the_scenarios_table(self, tmp_path, scenario_file, monkeypatch):
        """The monitor builds its combination's geometry table before the
        first step, so no step builds a subset alone."""
        stream_path = self._stream(tmp_path, scenario_file, tau=None, horizon=30)
        built, build = [], geometry._build
        monkeypatch.setattr(
            geometry, "_build", lambda *args: built.append(np.ndim(args[2])) or build(*args)
        )
        geometry.clear_geometry_cache()
        try:
            code = main(
                [
                    "monitor", "--scenario", str(scenario_file),
                    "--out", str(tmp_path / "mon"), "--stream", str(stream_path),
                    "--threshold", "1e300",
                ]
            )
            table = geometry._CACHE.table
        finally:
            geometry.clear_geometry_cache()
        scenario, _, _ = load_scenario(scenario_file)
        cfg = scenario.cfg
        assert code == 0
        assert table.key == geometry._key(scenario.dictionary, cfg, cfg.m)
        assert built and set(built) == {2}

    def test_column_mismatch_rejected(self, tmp_path, scenario_file, capsys):
        path = tmp_path / "stream.csv"
        save_stream_csv(path, np.zeros((10, 4)))
        code = main(
            [
                "monitor", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "mon"), "--stream", str(path),
                "--threshold", "1.0",
            ]
        )
        assert code == 1
        assert "4 variables" in capsys.readouterr().err

    def test_missing_planned_value_fails_cleanly(
        self, tmp_path, scenario_file, capsys
    ):
        stream = np.zeros((5, 6))
        stream[0] = math.nan
        path = tmp_path / "stream.csv"
        save_stream_csv(path, stream)
        code = main(
            [
                "monitor", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "mon"), "--stream", str(path),
                "--threshold", "1.0",
            ]
        )
        assert code == 1
        assert "step 1" in capsys.readouterr().err


class TestTable1:
    def test_micro_grid(self, tmp_path, capsys):
        path = _write_scenario(tmp_path, tau=5, horizon=60, change=[[0, 1.0]])
        out = tmp_path / "table"
        code = main(
            [
                "table1", "--scenario", str(path), "--out", str(out),
                "--phis", "2.0,3.0", "--ms", "2,3",
                "--calib-reps", "15", "--reps", "6", "--tol-rel", "0.3",
            ]
        )
        assert code == 0
        lines = (out / "table1.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "phi,thompson_m2,thompson_m3"
        assert [row.split(",")[0] for row in lines[2:]] == ["0", "2", "3"]
        sweep = (out / "sweep.csv").read_text().strip().split("\n")
        assert sweep[1] == (
            "sampler,m,phi,h,add,add_stderr,std_dd,n_censored,n_false_alarm,n_reps,"
            "n_nonconverged"
        )
        assert len(sweep) == 6
        for row in sweep[2:]:
            n_nonconverged = row.split(",")[-1]
            assert n_nonconverged.isdigit(), row
        thresholds = json.loads((out / "thresholds.json").read_text())
        assert set(thresholds["thresholds"]) == {"thompson_m2", "thompson_m3"}
        for entry in thresholds["thresholds"].values():
            assert abs(entry["achieved_arl"] - 12.0) / 12.0 <= 0.3

    def test_worker_count_leaves_no_trace(self, tmp_path):
        path = _write_scenario(tmp_path, tau=5, horizon=60, change=[[0, 1.0]])
        grid = [
            "--phis", "2.0,3.0", "--ms", "2,3", "--samplers", "thompson,oracle",
            "--calib-reps", "15", "--reps", "6", "--tol-rel", "0.3",
        ]
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(
                ["table1", "--scenario", str(path), "--out", str(out), "--workers", workers]
                + grid
            ) == 0
        for name in ("table1.csv", "sweep.csv", "thresholds.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_runs_the_scenarios_sampler_without_the_flag(self, tmp_path):
        """A scenario's "sampler" was dropped: the table ran Thompson and its
        manifest recorded both "samplers": "thompson" and "sampler": "oracle"."""
        path = _write_scenario(tmp_path, tau=5, change=[[0, 1.0]], sampler="oracle")
        out = tmp_path / "t"
        assert main(
            [
                "table1", "--scenario", str(path), "--out", str(out),
                "--phis", "2.0", "--ms", "2", "--calib-reps", "15", "--reps", "6",
                "--tol-rel", "0.3",
            ]
        ) == 0
        lines = (out / "table1.csv").read_text().split("\n")
        manifest = json.loads(lines[0].removeprefix("# manifest: "))
        assert lines[1] == "phi,oracle_m2"
        assert manifest["flags"]["samplers"] == "oracle"

    def test_needs_change_point(self, tmp_path, scenario_file, capsys):
        code = main(
            [
                "table1", "--scenario", str(scenario_file),
                "--out", str(tmp_path / "t"),
                "--phis", "1.0", "--ms", "2", "--calib-reps", "10",
            ]
        )
        assert code == 1
        assert "change point" in capsys.readouterr().err

    def test_bad_lists_rejected(self, tmp_path, capsys):
        path = _write_scenario(tmp_path, tau=5, change=[[0, 1.0]])
        base = [
            "table1", "--scenario", str(path), "--out", str(tmp_path / "t"),
        ]
        assert main(base + ["--phis", "abc", "--ms", "2"]) == 1
        assert main(base + ["--phis", "1.0", "--ms", "2", "--samplers", "x"]) == 1
        err = capsys.readouterr().err
        assert "--phis" in err and "unknown sampler" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--phis", "1.0", "--ms", "5.5"], "whole-number"),
            (["--phis", "1.0", "--ms", "inf"], "whole-number"),
            (["--phis", "1.0", "--ms", "2,3,2"], "--ms lists a value more than once"),
            (["--phis", "1.0,2.0,1", "--ms", "2"], "--phis lists a value more than once"),
            (["--phis", "0,1.0", "--ms", "2"], "--phis may not list 0"),
            (
                ["--phis", "1.0", "--ms", "2", "--samplers", "oracle,oracle"],
                "--samplers lists a value more than once",
            ),
            (["--phis", "1.0", "--ms", "2,7"], "--ms budgets must lie in [1, 6]"),
            (["--phis", "1.0", "--ms", "2,0"], "--ms budgets must lie in [1, 6]"),
            (["--phis", "nan", "--ms", "2"], "change entry (0, nan) has a non-finite magnitude"),
            (["--phis", "1.0,inf", "--ms", "2"], "change entry (0, inf) has a non-finite"),
            (["--phis", ",", "--ms", "2"], "--phis must list at least one value"),
            (["--phis", "1.0", "--ms", " , "], "--ms must list at least one value"),
            (["--phis", "1.0", "--ms", "2", "--samplers", ","], "--samplers must list at least one value"),
        ],
        ids=[
            "fraction", "infinite", "repeated-m", "repeated-phi", "zero-phi", "repeated-sampler",
            "budget-above-p", "zero-budget", "nan-phi", "infinite-phi", "no-phi", "no-budget",
            "no-sampler",
        ],
    )
    def test_bad_grid_values_rejected(self, tmp_path, capsys, monkeypatch, flags, message):
        """Refused before any replication runs, so nothing is printed or
        written."""
        import sparsewatch.engine as engine

        def refused(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(engine, "_map_reps", refused)
        path = _write_scenario(tmp_path, tau=5, change=[[0, 1.0]])
        out = tmp_path / "t"
        code = main(
            ["table1", "--scenario", str(path), "--out", str(out), "--calib-reps", "10"]
            + flags
        )
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_nonpositive_calibration_reps_rejected(self, tmp_path, capsys):
        path = _write_scenario(tmp_path, tau=5, change=[[0, 1.0]])
        code = main(
            [
                "table1", "--scenario", str(path), "--out", str(tmp_path / "t"),
                "--phis", "1.0", "--ms", "2", "--calib-reps", "0",
            ]
        )
        assert code == 1
        assert "--calib-reps" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "flag, value, least",
        [("--seed", "-1", 0), ("--reps", "2.5", 1), ("--workers", "0", 1),
         ("--calib-horizon", "0", 1)],
    )
    def test_integer_flags_refused_by_name(self, tmp_path, capsys, flag, value, least):
        """``--seed -1`` ran to numpy's "expected non-negative integer",
        which names no flag; each integer flag is now refused by name as it
        is parsed, before any output directory is made."""
        path = _write_scenario(tmp_path, tau=5, change=[[0, 1.0]])
        code = main(
            [
                "table1", "--scenario", str(path), "--out", str(tmp_path / "t"),
                "--phis", "1.0", "--ms", "2", "--calib-reps", "10", flag, value,
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument {flag}: the value must be an integer of at least {least}, got" in err
        assert not (tmp_path / "t").exists()


class TestEntryPoint:
    def test_unknown_command_is_an_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_an_error(self, capsys, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path)]) == 1
        assert "--scenario" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "sparsewatch" in capsys.readouterr().out
