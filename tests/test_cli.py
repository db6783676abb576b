"""CLI surface: commands, exit codes, reproducible JSON."""

import json

import pytest

from affinelie.cli import build_parser, load_session, main


@pytest.fixture
def a1_file(tmp_path):
    p = tmp_path / "a1.alg"
    p.write_text("schema: 1\ntype: A\nrank: 1\n")
    return str(p)


@pytest.fixture
def a2_twisted_file(tmp_path):
    p = tmp_path / "a2t.alg"
    p.write_text("schema: 1\ntype: A\nrank: 2\nperm: 2 1\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstruct:
    def test_twisted_text(self, capsys, a2_twisted_file):
        code, out = run(capsys, "construct", "--algebra", a2_twisted_file,
                        "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "g: 8, g_0: 3, g_1: 5, h0: 1"

    def test_split_text(self, capsys, a1_file):
        code, out = run(capsys, "construct", "--algebra", a1_file,
                        "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "g: 3, h0: 1"

    def test_json_shape(self, capsys, a2_twisted_file):
        code, out = run(capsys, "construct", "--algebra", a2_twisted_file)
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["dims"]["g"] == 8
        assert payload["dims"]["g_i"] == [3, 5]

    def test_d4_triality_over_zeta3(self, capsys, tmp_path):
        p = tmp_path / "d4.alg"
        p.write_text("schema: 1\ntype: D\nrank: 4\nperm: 3 2 4 1\n")
        code, out = run(capsys, "construct", "--algebra", str(p),
                        "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "g: 28, g_0: 14, g_1: 7, g_2: 7, h0: 2"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.alg"
        p.write_text("schema: 1\nbroken\n")
        code, _ = run(capsys, "construct", "--algebra", str(p))
        assert code == 2

    def test_unsupported_type_exits_3(self, capsys, tmp_path):
        p = tmp_path / "e8.alg"
        p.write_text("schema: 1\ntype: E\nrank: 8\n")
        code, _ = run(capsys, "construct", "--algebra", str(p))
        assert code == 3

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, "construct", "--algebra", str(tmp_path / "nope.alg"))
        assert code == 2


class TestVerify:
    def test_jacobi_passes(self, capsys, a1_file):
        code, out = run(capsys, "verify", "jacobi", "--algebra", a1_file,
                        "--seed", "42")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_form_passes(self, capsys, a2_twisted_file):
        code, out = run(capsys, "verify", "form", "--algebra", a2_twisted_file,
                        "--seed", "42", "--samples", "60")
        assert code == 0

    def test_lifts_passes(self, capsys, a1_file):
        code, _ = run(capsys, "verify", "lifts", "--algebra", a1_file,
                      "--seed", "1", "--samples", "50")
        assert code == 0

    def test_exactseq_passes(self, capsys, a1_file):
        code, _ = run(capsys, "verify", "exactseq", "--algebra", a1_file,
                      "--seed", "1", "--samples", "50")
        assert code == 0

    def test_spectral_with_explicit_x(self, capsys, a1_file):
        code, out = run(capsys, "verify", "spectral", "--algebra", a1_file,
                        "--x", "H_1*t^0 + d")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"]["spectral"]["decomposition"]["complete"]

    def test_mad_passes(self, capsys, a2_twisted_file):
        code, _ = run(capsys, "verify", "mad", "--algebra", a2_twisted_file)
        assert code == 0

    def test_beta_flag(self, capsys, a1_file):
        code, _ = run(capsys, "verify", "form", "--algebra", a1_file,
                      "--beta", "5/2", "--samples", "40")
        assert code == 0

    def test_zero_beta_rejected(self, capsys, a1_file):
        code, _ = run(capsys, "verify", "form", "--algebra", a1_file,
                      "--beta", "0")
        assert code == 2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_rejected(self, capsys, a1_file, samples):
        code = main(["verify", "form", "--algebra", a1_file,
                     "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--samples" in captured.err
        assert "Traceback" not in captured.err

    def test_mad_missing_spec_exits_2(self, capsys, a1_file, tmp_path):
        code = main(["verify", "mad", "--algebra", a1_file,
                     "--word", "vshift(2) @ hat",
                     "--spec", str(tmp_path / "nope.txt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read spec file" in err
        assert "Traceback" not in err

    def test_mad_diagonalizes_once(self, monkeypatch, a1_file):
        from affinelie import cli, mad
        original = mad.is_diagonalizable
        calls = []

        def counted(spec, window):
            calls.append(spec)
            return original(spec, window)

        monkeypatch.setattr(cli, "is_diagonalizable", counted)
        monkeypatch.setattr(mad, "is_diagonalizable", counted)
        session = load_session(build_parser().parse_args(
            ["verify", "mad", "--algebra", a1_file]))
        report = cli.suite_mad(session)
        assert not report["failures"]
        assert len(calls) == 1


class TestSpectrumAndConjugate:
    def test_spectrum_dump(self, capsys, a1_file):
        code, out = run(capsys, "spectrum", "--algebra", a1_file,
                        "--x", "H_1*t^0 + d")
        assert code == 0
        weights = json.loads(out)["reports"]["spectral"]["decomposition"]["weights"]
        assert {"w": "0", "dim": 5, "series_id": 0, "interior": True} in weights

    def test_conjugate_verdict(self, capsys, a1_file, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("H_1*t^0\nc\nd\n")
        code, out = run(capsys, "conjugate", "--algebra", a1_file,
                        "--word", "vshift(2) @ hat", "--spec", str(spec))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_conjugate_failure_exits_1(self, capsys, a1_file, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("H_1*t^0\nc\nd\n")
        code, out = run(capsys, "conjugate", "--algebra", a1_file,
                        "--word", "rootexp(a1, t^0) @ hat", "--spec", str(spec))
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_conjugate_missing_spec_exits_2(self, a1_file, tmp_path):
        import subprocess
        import sys
        cmd = [sys.executable, "-m", "affinelie", "conjugate",
               "--algebra", a1_file, "--word", "vshift(2) @ hat",
               "--spec", str(tmp_path / "nope.txt")]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cannot read spec file" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_subprocess_byte_identical(self, a1_file):
        import subprocess
        import sys
        cmd = [sys.executable, "-m", "affinelie", "verify", "form",
               "--algebra", a1_file, "--seed", "11", "--samples", "40"]
        out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
        out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert out1 == out2 and out1

    def test_same_seed_byte_identical(self, capsys, a2_twisted_file):
        _, out1 = run(capsys, "verify", "form", "--algebra", a2_twisted_file,
                      "--seed", "7", "--samples", "50")
        _, out2 = run(capsys, "verify", "form", "--algebra", a2_twisted_file,
                      "--seed", "7", "--samples", "50")
        assert out1 == out2

    def test_different_seed_differs(self, capsys, a1_file):
        _, out1 = run(capsys, "verify", "form", "--algebra", a1_file,
                      "--seed", "1", "--samples", "30")
        _, out2 = run(capsys, "verify", "form", "--algebra", a1_file,
                      "--seed", "2", "--samples", "30")
        # reports agree on pass but the sampled checks must not be replayed
        assert json.loads(out1)["pass"] and json.loads(out2)["pass"]
