import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockfuse
from fockfuse.cli import main
from fockfuse.dsl import ParseError, parse_circuit, serialize_circuit
from fockfuse.circuits import build_fusion_circuit
from fockfuse.verify import CHECKS


BAD_FILES = sorted((Path(__file__).parent / "data").glob("bad_*.lop"))


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

    @pytest.mark.parametrize("qubits", [["--psi=1,0", "--phi=1,0"], ["--phi=1,0"]])
    def test_rejects_entangled_with_qubits(self, capsys, qubits):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", *qubits, "--entangled=1,0,0,0"])
        assert exc.value.code == 2
        assert "--entangled alone" in capsys.readouterr().err

    def test_rejects_nan_amplitude(self, capsys):
        """A NaN or unreadable amplitude option exits 2 with one message."""
        for argv, message in [
            (["fuse", "--psi", "nan,1", "--phi", "1,0"], "error: argument --psi: amplitudes must be finite"),
            (["fuse", "--psi=abc", "--phi=1,0"], "error: argument --psi: cannot parse amplitudes from 'abc'"),
            (
                ["abstract-fuse", "--psi=1,0", "--phi=1,0", "--vacuum-amp=x"],
                "error: argument --vacuum-amp: cannot parse complex number 'x'",
            ),
            (
                ["abstract-fuse", "--psi=1,0", "--phi=1,0", "--vacuum-amp=nan"],
                "error: argument --vacuum-amp: complex number must be finite, got 'nan'",
            ),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

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

    def test_split_amplitudes_are_the_normalized_input(self, capsys):
        code, out, _ = run_cli(capsys, "fission", "--amps", "1,2,3j,-4", "--format", "json")
        assert code == 0
        table = json.loads(out)["tables"]["split two-photon amplitudes (tH cH, tV cH, tH cV, tV cV)"]
        got = np.array([complex(a["re"], a["im"]) for a in table])
        assert np.abs(got - np.array([1, 2, 3j, -4]) / np.sqrt(30)).max() < 1e-10


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

    @pytest.mark.parametrize("psi", ["1e200,0", "1e-200,0"])
    def test_amplitude_scale_is_irrelevant(self, capsys, psi):
        want = run_cli(capsys, "abstract-fuse", "--psi=1,0", "--phi=1,0")
        assert run_cli(capsys, "abstract-fuse", f"--psi={psi}", "--phi=1,0") == want

    def test_abstract_fission(self, capsys):
        code, out, _ = run_cli(
            capsys, "abstract-fission", "--amps", "1,0,0,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        branch = payload["tables"]["success branch"]
        assert branch["probability"] == pytest.approx(0.5)

    @pytest.mark.parametrize("argv", [
        ["abstract-fuse", "--psi", "1,1", "--phi", "1,0"],
        ["abstract-fission", "--amps", "1,1,1,1"],
    ], ids=["abstract-fuse", "abstract-fission"])
    @pytest.mark.parametrize("amp", ["1e300", "1.0000001", "-0.8+0.8j"])
    def test_a_passthrough_modulus_above_one_is_refused(self, capsys, argv, amp):
        """A modulus above 1 would report an infinite or above-one probability."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--vacuum-amp", amp])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        message = f"error: argument --vacuum-amp: passthrough amplitude must have modulus at most 1, got {amp!r}"
        assert [line for line in err.splitlines() if "error:" in line] == [f"fockfuse {argv[0]}: {message}"]
        code, out, err = run_cli(capsys, *argv, "--vacuum-amp", "-0.6-0.8j")
        assert (code, err) == (0, "") and "inf" not in out

    @pytest.mark.parametrize("argv", [
        ["abstract-fuse", "--psi", "1,1", "--phi", "1,0"],
        ["abstract-fission", "--amps", "1,1,1,1"],
    ], ids=["abstract-fuse", "abstract-fission"])
    def test_the_modulus_bound_is_exact(self, capsys, argv):
        """A unit phase typed at full repr precision passes; one ulp above 1 is refused."""
        for phase in (cmath.rect(1, 0.7), complex(0.5 ** 0.5, 0.5 ** 0.5)):
            code, out, err = run_cli(capsys, *argv, f"--vacuum-amp={phase!r}")
            assert (code, err) == (0, "") and "inf" not in out
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--vacuum-amp", repr(1.0000000000000002)])
        assert exc.value.code == 2 and "modulus at most 1" in capsys.readouterr().err


class TestNegativeAmplitudes:
    """A value that starts with a minus sign may follow its option as a
    separate argument, and reads as the ``--option=value`` form."""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("fuse", [("--psi", "-0.6,0.8"), ("--phi", "-1j,0.5")]),
            ("fuse", [("--entangled", "-1.3-1.8j,0.4,0.2,1")]),
            ("fission", [("--amps", "-1.3-1.8j,0.4,0.2,1")]),
            (
                "abstract-fuse",
                [("--psi", "-0.6,0.8"), ("--phi", "-.5,1"), ("--vacuum-amp", "-0.5+0.8j")],
            ),
            ("abstract-fission", [("--amps", "-1,2j,0,1"), ("--vacuum-amp", "-0.6-0.3j")]),
        ],
    )
    def test_separate_value_gives_the_equals_report(self, capsys, command, options):
        joined = [f"{option}={value}" for option, value in options]
        separate = [arg for pair in options for arg in pair]
        code, expected, _ = run_cli(capsys, command, *joined, "--format", "json")
        assert code == 0
        code, out, err = run_cli(capsys, command, *separate, "--format", "json")
        assert (code, err) == (0, "")
        assert out == expected


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
        code, out, err = run_cli(capsys, "fidelity-curve", "--p-min", "0.9", "--p-max", "0.1")
        assert code == 2 and out == ""
        assert err == "error: need 0 <= p-min <= p-max <= 1 and steps >= 2\n"


class TestVerifyCommand:
    def test_last_line_counts_every_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0 and err == ""
        assert out.splitlines()[-1].startswith(f"{len(CHECKS)}/{len(CHECKS)} checks passed")


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
        assert err == f"error: {path}: observed matrix entries must be finite\n"

    def test_csv_cell_that_is_no_number_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "observed.csv"
        rows = ["input/output,a,b,c,d", "r0,0.25,x,1,1"] + [f"r{i},1,1,1,1" for i in (1, 2, 3)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit-p", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: expected a matrix of real numbers, got ")
        assert "'x'" in err and err.count(str(path)) == 1 and len(err.splitlines()) == 1

    @pytest.mark.parametrize("labels,needle", [
        ({"row_labels": 5}, "row labels must be four strings, got 5"),
        ({"col_labels": ["a", "b", "c"]}, "column labels must be four strings"),
        ({"row_labels": ["a", "b", "c", 4]}, "row labels must be four strings"),
        ({"basis": 5}, "basis must be a string, got 5"),
    ])
    def test_json_bad_labels_report_error(self, capsys, tmp_path, labels, needle):
        path = tmp_path / "observed.json"
        path.write_text(json.dumps({"basis": "ii", "entries": [[0.25] * 4] * 4, **labels}))
        code, out, err = run_cli(capsys, "fit-p", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and needle in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("entries", [
        0.25, [[0.25] * 4] * 3 + [[0.25] * 3], "0.25", None, {"a": 1}, [[{}] + [0.25] * 3] * 4,
    ], ids=["scalar", "ragged", "string", "null", "object", "object cell"])
    def test_json_malformed_entries_report_error(self, capsys, tmp_path, entries):
        path = tmp_path / "observed.json"
        path.write_text(json.dumps({"basis": "ii", "entries": entries}))
        code, out, err = run_cli(capsys, "fit-p", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: expected a ")
        assert len(err.splitlines()) == 1

    def test_json_basis_must_match_option(self, capsys, tmp_path):
        from fockfuse.distinguishability import closed_form_matrix

        path = tmp_path / "observed.json"
        path.write_text(json.dumps(closed_form_matrix("iii", 0.5).to_json_obj()))
        code, out, err = run_cli(capsys, "fit-p", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: file basis 'iii' differs from --basis ii\n"
        code, out, _ = run_cli(capsys, "fit-p", "--input", str(path), "--basis", "iii", "--format", "json")
        assert code == 0
        assert json.loads(out)["tables"]["fit"]["p"] == pytest.approx(0.5, abs=1e-3)


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

    def test_undeclared_slot_reports_error(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "fusion.lop", "--bind", "psi=1,0", "--bind", "phi=1,0", "--bind", "zeta=1,0"
        )
        assert code == 2 and out == ""
        assert err == "error: no input slot named 'zeta'\n"

    def test_slot_bound_twice_reports_error(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "fusion.lop", "--bind", "psi=1,0", "--bind", "phi=1,0", "--bind", "psi=0,1"
        )
        assert code == 2 and out == ""
        assert err == "error: --bind psi: slot bound twice\n"

    def test_missing_named_circuit_reports_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "nosuch.lop")
        assert code == 2 and out == ""
        assert err == "error: no such circuit file 'nosuch.lop'\n"

    def test_wrong_arity_binding_names_its_slot(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "fusion.lop", "--bind", "psi=1,0,0", "--bind", "phi=1,0"
        )
        assert code == 2 and out == ""
        assert err == "error: slot 'psi': expected 2 amplitudes, got 3\n"
        code, out, err = run_cli(capsys, "run", "fusion.lop", "--bind", "psi", "--bind", "phi=1,0")
        assert code == 2 and out == ""
        assert err == "error: --bind needs name=a0,a1,... (got 'psi')\n"

    def test_zero_binding_reports_error(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "fusion.lop", "--bind", "psi=0,0", "--bind", "phi=1,0"
        )
        assert code == 2 and out == ""
        assert err == "error: --bind psi: amplitudes are all zero\n"

    @pytest.mark.parametrize("path", BAD_FILES, ids=[path.name for path in BAD_FILES])
    def test_parse_error_is_reported(self, capsys, path):
        with pytest.raises(ParseError) as excinfo:
            parse_circuit(path.read_text())
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {excinfo.value}\n"

    def test_non_finite_angle_reports_error(self, capsys, tmp_path):
        path = tmp_path / "nan.lop"
        path.write_text("mode a\nphoton a H\nhwp a nan\ndetect a any\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2 and out == ""
        assert err == "error: line 3, column 7: angle must be finite, got nan\n"

    def test_huge_finite_angle_runs(self, capsys, tmp_path):
        path = tmp_path / "huge.lop"
        path.write_text("mode a\nphoton a H\nhwp a 1e308\ndetect a any\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 0 and err == ""
        assert "1.000000" in out

    def test_five_photons_run(self, capsys, tmp_path):
        path = tmp_path / "five.lop"
        path.write_text(
            "".join(f"mode m{i}\nphoton m{i} H\n" for i in range(5))
            + "pbs m0 m1 m0 m1\nhwp m4 22.5\ndetect m4 H\n"
        )
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 0 and err == ""
        assert "0.500000" in out

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



def imported_by_child(*argv):
    """The modules a child interpreter run with ``argv`` imports, in order."""
    src = str(Path(fockfuse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return [line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()]


@pytest.mark.parametrize("argv", [
    ["-c", "import fockfuse"],
    ["-m", "fockfuse.cli", "fuse", "--psi", "1,0", "--phi", "0,1"],
], ids=["import", "fuse"])
def test_runs_without_numpy(argv):
    """The package runs on the standard library: a child never imports numpy."""
    imported = imported_by_child(*argv)
    assert "fockfuse" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize("argv, unused", [
    (["fuse", "--psi", "1,0", "--phi", "0,1"],
     ["fockfuse.rails", "fockfuse.distinguishability", "fockfuse.verify", "dataclasses", "inspect"]),
    (["abstract-fuse", "--psi", "1,0", "--phi", "0,1"], ["fockfuse.distinguishability", "fockfuse.verify"]),
    (["basis-scan", "--basis", "ii", "--p", "0.5"], ["fockfuse.rails", "fockfuse.verify"]),
    (["verify"], ["importlib.resources", "inspect"]),
], ids=["fuse", "abstract-fuse", "basis-scan", "verify"])
def test_a_subcommand_imports_only_what_it_runs(argv, unused):
    """A CLI child leaves out every module its subcommand does not run, of
    those that a bare interpreter does not import anyway; ``-S`` keeps out
    what a ``.pth`` file of the environment's ``site`` imports."""
    bare = set(imported_by_child("-S", "-c", "pass"))
    imported = imported_by_child("-S", "-m", "fockfuse.cli", *argv)
    assert "fockfuse.circuits" in imported
    assert [name for name in unused if name not in bare and name in imported] == []


def test_every_export_resolves():
    """Each name of ``__all__`` resolves, ``import *`` binds them all, and
    ``dir`` lists them, although the package imports its modules lazily."""
    for name in fockfuse.__all__:
        assert getattr(fockfuse, name) is not None, name
    namespace = {}
    exec("from fockfuse import *", namespace)
    assert set(fockfuse.__all__) <= namespace.keys()
    assert set(fockfuse.__all__) <= set(dir(fockfuse))
    assert fockfuse.rail_fuse is fockfuse.rails.fuse and fockfuse.BASIS_KEYS == ("i", "ii", "iii", "iv")
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        fockfuse.missing


def test_cli_resolves_what_its_handlers_import_lazily():
    """The names a handler imports on first use are attributes of ``cli``,
    and a handler calls the one bound there."""
    import fockfuse.cli as cli

    assert cli.run_verification is fockfuse.verify.run_verification
    assert cli.rail_fuse is fockfuse.rails.fuse and cli.fit_p is fockfuse.distinguishability.fit_p
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        cli.missing
    calls = []
    original = cli.run_verification
    cli.run_verification = lambda seed: calls.append(seed) or 0
    try:
        assert main(["verify", "--seed", "7"]) == 0
    finally:
        cli.run_verification = original
    assert calls == [7]
