import json

import pytest

import merocon.atlas
import merocon.cli
import merocon.fields
from merocon.cli import (
    build_report,
    main,
    parse_field_file,
    parse_trajectory_csv,
    run_checks,
    trajectory_csv,
    trajectory_svg,
)
from merocon.fields import HomogeneousField, connection_data, model_connection
from merocon.flow import ChartState, IntegratorConfig, integrate


def write_field(tmp_path, name, degree, q1, q2):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "degree": degree,
                "Q1": [[c.real, c.imag] for c in map(complex, q1)],
                "Q2": [[c.real, c.imag] for c in map(complex, q2)],
            }
        )
    )
    return str(path)


@pytest.fixture
def three_thirds_file(tmp_path):
    return write_field(tmp_path, "field.json", 2, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))


class TestFieldFile:
    def test_round_trip(self, three_thirds_file):
        q = parse_field_file(three_thirds_file)
        assert q.nu == 1
        assert abs(q.q1[0] + 1 / 3) < 1e-15

    def test_length_mismatch_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 2, "Q1": [[1, 0]], "Q2": [[0, 0]]}))
        assert main(["classify", str(path)]) == 2
        assert "Q1" in capsys.readouterr().err

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["classify", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/field.json"]) == 2


class TestClassifyCommand:
    def test_report_contents(self, three_thirds_file, capsys):
        assert main(["classify", three_thirds_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nu"] == 1 and not report["dicritical"]
        res = [d["residue"] for d in report["directions"]]
        for re_im in res:
            assert abs(re_im[0] - 1 / 3) < 1e-9 and abs(re_im[1]) < 1e-9
        assert report["atlas"]["label"]["name"] == "C3rhotau1"
        assert report["monodromy"]["finite_cyclic"]

    def test_report_json_round_trip(self, three_thirds_file):
        q = parse_field_file(three_thirds_file)
        report = build_report(q)
        assert json.loads(json.dumps(report)) == report

    def test_report_builds_connection_data_once(self, three_thirds_file, monkeypatch):
        calls = {"connection_data": 0, "monodromy_info": 0}
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(merocon.fields, name)):
                calls[_name] += 1
                return _fn(*args)

            for module in (merocon.fields, merocon.atlas, merocon.cli):
                monkeypatch.setattr(module, name, counted)
        report = build_report(parse_field_file(three_thirds_file))
        assert report["atlas"]["label"]["name"] == "C3rhotau1"
        # one monodromy_info for the report, one for the atlas dossier
        assert calls == {"connection_data": 1, "monodromy_info": 2}

    def test_dicritical_reduced_report(self, tmp_path, capsys):
        path = write_field(tmp_path, "dic.json", 2, (1, 0, 0), (0, 1, 0))
        assert main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dicritical"] is True
        assert "leaf_dynamics" in report
        assert "directions" not in report


class TestSimulateCommand:
    def test_model_two_intersections_then_escape(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--model", "1", "0.1",
                "--state", "0,1,1+1i",
                "--tmax", "60",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        crossings = [l for l in text.splitlines() if "EVENT self_intersection" in l]
        escapes = [l for l in text.splitlines() if "EVENT escape" in l]
        assert len(crossings) == 2
        assert escapes

    def test_csv_shape(self, three_thirds_file, capsys):
        code = main(
            ["simulate", three_thirds_file, "--from", "0.9,0.4", "--tmax", "1.0"]
        )
        assert code == 0
        rows = parse_trajectory_csv(capsys.readouterr().out)
        assert rows[0]["t"] == 0.0
        ts = [r["t"] for r in rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(r["chart"] in ("0", "inf") for r in rows)

    def test_csv_17_digit_round_trip(self):
        cd = model_connection(1, 0.5)
        cfg = IntegratorConfig(t_max=1.0, record_stride=0.1, zeta_escape_radius=100.0)
        traj = integrate(cd, ChartState("0", 0.3 + 0.1j, 1.0, 0.0), cfg)
        rows = parse_trajectory_csv(trajectory_csv(traj))
        assert len(rows) == len(traj.samples)
        for row, s in zip(rows, traj.samples):
            assert row["t"] == s.t
            assert row["zeta"] == s.zeta
            assert row["v"] == s.v

    def test_missing_initial_data(self, three_thirds_file, capsys):
        assert main(["simulate", three_thirds_file]) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--state", "0,1"), ("--state", "0,1,1,1"), ("--from", "1")]
    )
    def test_wrong_value_count_is_input_error(self, three_thirds_file, capsys, flag, value):
        assert main(["simulate", three_thirds_file, flag, value]) == 2
        assert "input error" in capsys.readouterr().err

    def test_config_file_sets_tolerances(self, tmp_path, three_thirds_file, capsys):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"tmax": 0.5, "stride": 0.25}))
        code = main(
            ["simulate", three_thirds_file, "--from", "0.9,0.4", "--config", str(cfg)]
        )
        assert code == 0
        rows = parse_trajectory_csv(capsys.readouterr().out)
        assert abs(rows[-1]["t"] - 0.5) < 1e-9
        # explicit flags win over the config file
        code = main(
            [
                "simulate", three_thirds_file, "--from", "0.9,0.4",
                "--config", str(cfg), "--tmax", "0.25",
            ]
        )
        assert code == 0
        rows = parse_trajectory_csv(capsys.readouterr().out)
        assert abs(rows[-1]["t"] - 0.25) < 1e-9

    def test_config_file_unknown_key(self, tmp_path, three_thirds_file, capsys):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(
            ["simulate", three_thirds_file, "--from", "0.9,0.4", "--config", str(cfg)]
        )
        assert code == 2

    def test_svg_deterministic(self, tmp_path):
        cd = model_connection(1, 0.5)
        cfg = IntegratorConfig(t_max=2.0, record_stride=0.05)
        traj = integrate(cd, ChartState("0", 0.4, 1.0, 0.0), cfg)
        a = trajectory_svg(traj, cd)
        b = trajectory_svg(traj, cd)
        assert a == b
        assert a.startswith("<svg") and "polyline" in a


class TestSweepCommand:
    def test_outputs_in_order(self, tmp_path, three_thirds_file, capsys):
        inits = tmp_path / "inits.json"
        inits.write_text(json.dumps([[[0.9, 0.0], [0.4, 0.0]], [[0.5, 0.1], [0.3, -0.2]]]))
        out_dir = tmp_path / "runs"
        code = main(
            [
                "sweep",
                three_thirds_file,
                "--inits", str(inits),
                "--out-dir", str(out_dir),
                "--tmax", "1.0",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert [s["index"] for s in summary] == [0, 1]
        assert (out_dir / "traj_0000.csv").exists()
        assert (out_dir / "traj_0001.csv").exists()

    def test_error_carried_in_band(self, tmp_path, three_thirds_file, capsys):
        inits = tmp_path / "inits.json"
        inits.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]]]))
        out_dir = tmp_path / "runs"
        code = main(
            [
                "sweep", three_thirds_file,
                "--inits", str(inits), "--out-dir", str(out_dir), "--tmax", "1.0",
            ]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert "error" in summary[0]

    @pytest.mark.parametrize(
        "entries",
        [
            [[[1], [2, 3]]],
            [[["a", 1], [1, 2]]],
            [[[1, 2], [3, 4, 5]]],
            {"start": [[1, 2], [3, 4]]},
            7,
        ],
    )
    def test_malformed_inits_are_input_errors(
        self, tmp_path, three_thirds_file, capsys, entries
    ):
        inits = tmp_path / "inits.json"
        inits.write_text(json.dumps(entries))
        out_dir = tmp_path / "runs"
        code = main(
            [
                "sweep", three_thirds_file,
                "--inits", str(inits), "--out-dir", str(out_dir), "--tmax", "1.0",
            ]
        )
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not out_dir.exists()


class TestAtlasCommand:
    def test_dossier(self, three_thirds_file, capsys):
        assert main(["atlas", three_thirds_file]) == 0
        dossier = json.loads(capsys.readouterr().out)
        assert dossier["label"]["name"] == "C3rhotau1"
        assert len(dossier["directions"]) == 3

    def test_builds_connection_data_once(self, three_thirds_file, monkeypatch, capsys):
        calls = []
        original = merocon.fields.connection_data

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (merocon.fields, merocon.atlas, merocon.cli):
            monkeypatch.setattr(module, "connection_data", counted)
        assert main(["atlas", three_thirds_file]) == 0
        assert json.loads(capsys.readouterr().out)["label"]["name"] == "C3rhotau1"
        assert len(calls) == 1

    def test_dicritical_field_is_an_error(self, tmp_path, capsys):
        path = write_field(tmp_path, "dic.json", 2, (1, 0, 0), (0, 1, 0))
        assert main(["atlas", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: every direction of a dicritical field is characteristic\n"


class TestCheckCommand:
    def test_all_pass(self, three_thirds_file, capsys):
        assert main(["check", three_thirds_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "residue_sum_connection" in out

    def test_random_quartic_field(self, tmp_path, capsys):
        path = write_field(
            tmp_path, "f3.json", 3,
            (0.3, -0.2, 0.7, 0.1), (0.9, 0.2, -0.4, 0.5),
        )
        assert main(["check", path]) == 0

    def test_corrupted_connection_fails(self):
        # negative control: corrupt one residue and re-run the table
        from dataclasses import replace

        q = HomogeneousField(1, (-1 / 3, 2 / 3, 0), (0, 2 / 3, -1 / 3))
        cd = connection_data(q)
        bad_dir = replace(cd.directions[0], residue=cd.directions[0].residue + 0.5)
        bad = replace(cd, directions=(bad_dir,) + cd.directions[1:])
        results = run_checks(q, bad)
        table = {name: ok for name, ok, _ in results}
        assert not table["residue_sum_connection"]
