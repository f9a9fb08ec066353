import json

import numpy as np
import pytest

from fockfuse.cli import main
from fockfuse.dsl import serialize_circuit
from fockfuse.circuits import build_fusion_circuit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFuseCommand:
    def test_logical_basis_run(self, capsys):
        code, out, _ = run_cli(capsys, "fuse", "--psi", "1,0", "--phi", "0,1")
        assert code == 0
        assert "0.031250" in out  # 1/32 per branch
        assert "total success probability = 0.125000" in out
        assert "target fidelity = 1.000000" in out

    def test_auto_normalization(self, capsys):
        code, out, _ = run_cli(capsys, "fuse", "--psi", "1,1", "--phi", "1,-1")
        assert code == 0
        assert "target fidelity = 1.000000" in out

    def test_entangled_input(self, capsys):
        code, out, _ = run_cli(capsys, "fuse", "--entangled", "1,0,0,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        amps = payload["tables"]["fused amplitudes (t1H, t1V, t2H, t2V)"]
        values = [complex(a["re"], a["im"]) for a in amps]
        assert abs(abs(values[0]) - 1 / np.sqrt(2)) < 1e-9
        assert abs(abs(values[3]) - 1 / np.sqrt(2)) < 1e-9

    def test_requires_amplitudes(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuse", "--psi", "1,0"])

    def test_rejects_nan_amplitude(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--psi", "nan,1", "--phi", "1,0"])
        assert exc.value.code == 2
        assert "error: argument --psi: amplitudes must be finite" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "fuse", "--psi", "0.6,0.8", "--phi", "1,0", "--format", "json")
        _, second, _ = run_cli(capsys, "fuse", "--psi", "0.6,0.8", "--phi", "1,0", "--format", "json")
        assert first == second

    def test_report_embeds_parameters_and_version(self, capsys):
        import fockfuse

        _, out, _ = run_cli(capsys, "fuse", "--psi", "0.6,0.8", "--phi", "1,0", "--format", "json")
        payload = json.loads(out)
        assert payload["version"] == fockfuse.__version__
        assert payload["parameters"]["psi"] == [{"im": 0.0, "re": 0.6}, {"im": 0.0, "re": 0.8}]


class TestFissionCommand:
    def test_basic_run(self, capsys):
        code, out, _ = run_cli(capsys, "fission", "--amps", "1,0,0,0")
        assert code == 0
        assert out.count("0.031250") >= 4
        assert "fidelity=1.000000" in out


class TestAbstractCommands:
    def test_abstract_fuse(self, capsys):
        code, out, _ = run_cli(
            capsys, "abstract-fuse", "--psi", "1,1", "--phi", "1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tables"]["plus branch"]["probability"] == pytest.approx(0.5)
        minus = payload["tables"]["minus branch"]["corrected"]
        values = [complex(a["re"], a["im"]) for a in minus]
        assert np.allclose(values, [0.5, 0.5, 0.5, 0.5])

    def test_abstract_fission(self, capsys):
        code, out, _ = run_cli(
            capsys, "abstract-fission", "--amps", "1,0,0,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        branch = payload["tables"]["success branch"]
        assert branch["probability"] == pytest.approx(0.5)


class TestBasisScan:
    def test_json_contains_both_matrices_and_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis-scan", "--basis", "ii", "--p", "0.77", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        sim = np.array(payload["tables"]["simulated"]["entries"])
        closed = np.array(payload["tables"]["closed form"]["entries"])
        assert np.abs(sim - closed).max() < 1e-10
        assert any("3(1-p)" in note for note in payload["notes"])

    def test_identity_at_p_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis-scan", "--basis", "i", "--p", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert np.allclose(payload["tables"]["simulated"]["entries"], np.eye(4))

    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys,
            "basis-scan", "--basis", "iv", "--p", "0.5",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.count("input/output") == 2
        assert "simulated" in text and "closed form" in text


class TestFidelityCurve:
    def test_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelity-curve", "--steps", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == pytest.approx(1 / 3, abs=1e-10)
        assert float(last[1]) == pytest.approx(1.0, abs=1e-10)
        # law and simulation agree column-wise
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            assert cells[1] == pytest.approx(cells[2], abs=1e-10)

    def test_rejects_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "fidelity-curve", "--p-min", "0.9", "--p-max", "0.1")
        assert code == 2
        assert "error" in err


class TestFitP:
    def test_fit_from_csv(self, capsys, tmp_path):
        scan = tmp_path / "scan.csv"
        run_cli(capsys, "basis-scan", "--basis", "ii", "--p", "0.77",
                "--format", "csv", "--out", str(scan))
        observed = [
            line for line in scan.read_text().splitlines() if not line.startswith("#")
        ][:5]
        obs_path = tmp_path / "observed.csv"
        obs_path.write_text("\n".join(observed) + "\n")
        code, out, _ = run_cli(
            capsys, "fit-p", "--input", str(obs_path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tables"]["fit"]["p"] == pytest.approx(0.77, abs=1e-3)

    def test_fit_from_json(self, capsys, tmp_path):
        from fockfuse.distinguishability import closed_form_matrix

        path = tmp_path / "observed.json"
        path.write_text(json.dumps(closed_form_matrix("ii", 0.5).to_json_obj()))
        code, out, _ = run_cli(capsys, "fit-p", "--input", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["tables"]["fit"]["p"] == pytest.approx(0.5, abs=1e-3)

    def test_json_without_entries_reports_error(self, capsys, tmp_path):
        path = tmp_path / "observed.json"
        path.write_text(json.dumps({"basis": "ii"}))
        code, out, err = run_cli(capsys, "fit-p", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'entries'" in err
        assert len(err.splitlines()) == 1

    def test_nan_count_reports_error(self, capsys, tmp_path):
        path = tmp_path / "observed.csv"
        rows = ["input/output,a,b,c,d", "r0,nan,1,1,1"] + [f"r{i},1,1,1,1" for i in (1, 2, 3)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit-p", "--input", str(path))
        assert code == 2 and out == ""
        assert err == "error: observed matrix entries must be finite\n"


class TestRunCommand:
    def test_run_shipped_fusion(self, capsys, tmp_path):
        path = tmp_path / "fusion.lop"
        path.write_text(serialize_circuit(build_fusion_circuit()))
        code, out, _ = run_cli(
            capsys, "run", str(path), "--bind", "psi=1,0", "--bind", "phi=1,0"
        )
        assert code == 0
        assert out.count("0.031250") == 4

    def test_unbound_slot_reports_error(self, capsys, tmp_path):
        path = tmp_path / "fusion.lop"
        path.write_text(serialize_circuit(build_fusion_circuit()))
        code, _, err = run_cli(capsys, "run", str(path), "--bind", "psi=1,0")
        assert code == 2
        assert "phi" in err

    def test_zero_binding_reports_error(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "fusion.lop", "--bind", "psi=0,0", "--bind", "phi=1,0"
        )
        assert code == 2 and out == ""
        assert err == "error: --bind psi: amplitudes are all zero\n"

    def test_parse_error_is_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.lop"
        path.write_text("mode a\npbs a a a\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "line 2" in err

    def test_dump_state(self, capsys, tmp_path):
        path = tmp_path / "fusion.lop"
        path.write_text(serialize_circuit(build_fusion_circuit()))
        code, out, _ = run_cli(
            capsys, "run", str(path), "--bind", "psi=1,0", "--bind", "phi=1,0",
            "--dump-state", "--format", "json",
        )
        payload = json.loads(out)
        assert "state dump" in payload["tables"]
        dumped = json.loads(payload["tables"]["state dump"]["outcome 0"])
        assert isinstance(dumped, list) and dumped


class TestTolerance:
    def test_env_override_is_read(self, monkeypatch):
        from fockfuse.verify import comparison_tol

        assert comparison_tol() == 1e-10
        monkeypatch.setenv("FOCKFUSE_TOL", "1e-6")
        assert comparison_tol() == 1e-6
