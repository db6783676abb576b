"""CLI surface: commands, exit codes, reproducible JSON."""

import json
import os
import subprocess
import sys

import pytest

from affinelie import cli
from affinelie.affine import bracket_affine
from affinelie.cli import Session, build_parser, load_session, main
from affinelie.rootsys import build_chevalley, build_diagram_auto
from affinelie.scalars import CycScalar


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


def run_subprocess(*argv):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    return subprocess.run([sys.executable, "-m", "affinelie", *argv],
                          capture_output=True, text=True)


def tampered_session(kind, rank, perm, lo, hi):
    """A session on a fresh algebra with one structure constant doubled."""
    alg = build_chevalley(kind, rank)
    auto = build_diagram_auto(alg, perm)
    key = min(alg.table)
    row = dict(alg.table[key])
    first = min(row)
    row[first] = 2 * row[first]
    alg.table = dict(alg.table)
    alg.table[key] = row
    return Session(alg, auto, (lo, hi), seed=0, beta=CycScalar(auto.m, 1),
                   samples=1, window_explicit=True)


def reference_jacobi(basis):
    """The direct triple loop: six nested brackets per triple, the list cut
    after it first exceeds 10 failures, the rest counted."""
    checked, failures, omitted = 0, [], 0
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            checked += 1
            anti = (bracket_affine(basis[i], basis[j])
                    + bracket_affine(basis[j], basis[i]))
            if anti:
                failures.append({
                    "inputs": [basis[i].render(), basis[j].render()],
                    "lhs": anti.render(), "rhs": "0"})
    cut = False
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                bi, bj, bk = basis[i], basis[j], basis[k]
                checked += 1
                s = (bracket_affine(bi, bracket_affine(bj, bk))
                     + bracket_affine(bj, bracket_affine(bk, bi))
                     + bracket_affine(bk, bracket_affine(bi, bj)))
                if not s:
                    continue
                if cut:
                    omitted += 1
                    continue
                failures.append({
                    "inputs": [bi.render(), bj.render(), bk.render()],
                    "lhs": s.render(), "rhs": "0"})
                cut = len(failures) > 10
    report = {"checked": checked, "failures": failures}
    if omitted:
        report["failures_omitted"] = omitted
    return report


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

    def test_mad_empty_spec_exits_3(self, a1_file, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("# no element lines\n\n")
        proc = run_subprocess("verify", "mad", "--algebra", a1_file,
                              "--word", "vshift(2) @ hat", "--spec", str(spec))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "at least one generator" in proc.stderr
        assert "Traceback" not in proc.stderr

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


    @pytest.mark.parametrize("kind, rank, perm, lo, hi", [
        ("A", 2, (0, 1), -1, 1),
        ("A", 2, (1, 0), -2, 2),
    ])
    def test_jacobi_matches_direct_loop_on_tampered_table(
            self, kind, rank, perm, lo, hi):
        session = tampered_session(kind, rank, perm, lo, hi)
        report = cli.suite_jacobi(session)
        assert report == reference_jacobi(session.window().basis)
        assert report["failures_omitted"] > 0

    def test_jacobi_brackets_fewer_than_triples(self, monkeypatch,
                                                a2_twisted_file):
        calls = []

        def counted(x, y):
            calls.append(None)
            return bracket_affine(x, y)

        monkeypatch.setattr(cli, "bracket_affine", counted)
        session = load_session(build_parser().parse_args(
            ["verify", "jacobi", "--algebra", a2_twisted_file,
             "--window", "-2", "2"]))
        report = cli.suite_jacobi(session)
        n = session.window().size()
        pairs = n * (n + 1) // 2
        triples = n * (n + 1) * (n + 2) // 6
        assert report == {"checked": pairs + triples, "failures": []}
        assert len(calls) < triples

    @pytest.mark.parametrize("argv", [
        ["verify", "jacobi"],
        ["verify", "spectral"],
        ["verify", "mad"],
    ])
    def test_unread_spec_exits_2(self, a1_file, tmp_path, argv):
        spec = tmp_path / "spec.txt"
        spec.write_text("H_1*t^0\nc\nd\n")
        proc = run_subprocess(*argv, "--algebra", a1_file,
                              "--spec", str(spec))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--spec" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, option", [
        (["verify", "jacobi", "--x", "garbage (("], "--x"),
        (["verify", "form", "--x", "H_1*t^0 + d"], "--x"),
        (["verify", "mad", "--x", "H_1*t^0 + d"], "--x"),
        (["verify", "jacobi", "--word", "nonsense"], "--word"),
        (["verify", "spectral", "--word", "vshift(2) @ hat"], "--word"),
        (["verify", "jacobi", "--x", "garbage ((", "--word", "nonsense"],
         "--x"),
    ])
    def test_unread_option_exits_2(self, a1_file, argv, option):
        proc = run_subprocess(*argv, "--algebra", a1_file)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{option} is read only by" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_reverification_exits_4(self, capsys, monkeypatch, a1_file):
        from affinelie import spectral
        from affinelie.affine import AffineElt

        def off_by_c(x, y):
            return bracket_affine(x, y) + AffineElt.c_elt(x.alg, x.m)

        monkeypatch.setattr(spectral, "bracket_affine", off_by_c)
        code = main(["verify", "spectral", "--algebra", a1_file])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "form", "--beta", "1/0"],
        ["verify", "spectral", "--x", "1/0*H_1*t^0 + d"],
        ["verify", "spectral", "--x", "H_1*t^(1/0) + d"],
    ])
    def test_zero_denominator_exits_2(self, a1_file, argv):
        proc = run_subprocess(*argv, "--algebra", a1_file)
        assert proc.returncode == 2
        assert "zero" in proc.stderr and "denominator" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", [
        "schema: 1\ntype: A\nrank: x\n",
        "schema: 1\ntype: A\nrank: 2\nperm: a b\n",
        "schema: 1\ntype: table\nrank: x\n",
    ])
    def test_non_integer_field_exits_2(self, tmp_path, text):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        proc = run_subprocess("construct", "--algebra", str(path))
        assert proc.returncode == 2
        assert "expected an integer" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_word_diagram_not_a_permutation_exits_3(self, tmp_path):
        path = tmp_path / "a2.alg"
        path.write_text("schema: 1\ntype: A\nrank: 2\n")
        proc = run_subprocess("verify", "mad", "--algebra", str(path),
                              "--word", "diagram(3,1) @ hat")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "not a permutation" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_word_non_integer_argument_exits_2(self, tmp_path):
        path = tmp_path / "a2.alg"
        path.write_text("schema: 1\ntype: A\nrank: 2\n")
        proc = run_subprocess("verify", "mad", "--algebra", str(path),
                              "--word", "cochar(1,x) @ hat")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cochar: expected an integer" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSpectrumAndConjugate:
    def test_spectrum_dump(self, capsys, a1_file):
        code, out = run(capsys, "spectrum", "--algebra", a1_file,
                        "--x", "H_1*t^0 + d")
        assert code == 0
        weights = json.loads(out)["reports"]["spectral"]["decomposition"]["weights"]
        assert {"w": "0", "dim": 5, "series_id": 0, "interior": True} in weights

    def test_root_search_stays_bounded(self, tmp_path):
        # the interior characteristic polynomial of this x has a constant
        # term too large for a divisor search, its diagonal blocks do not
        alg = tmp_path / "a2.alg"
        alg.write_text("schema: 1\ntype: A\nrank: 2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "affinelie", "spectrum", "--algebra", str(alg),
             "--x", "3*H_1*t^0 + 5*H_2*t^0 + X_a1*t^1 + X_a2*t^-1 + d"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode in (0, 1)
        assert json.loads(proc.stdout)["command"] == "spectrum"

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
        proc = run_subprocess("conjugate", "--algebra", a1_file,
                              "--word", "vshift(2) @ hat",
                              "--spec", str(tmp_path / "nope.txt"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cannot read spec file" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_subprocess_byte_identical(self, a1_file):
        cmd =[sys.executable, "-m", "affinelie", "verify", "form",
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


class TestClosedStdout:
    def test_closed_pipe_exits_141_without_traceback(self, a1_file):
        # the read end is closed before the child writes, as `| head -c 5`
        # does once it has its bytes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "affinelie", "verify", "form",
                 "--algebra", a1_file, "--samples", "5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_PIPE == 141
        assert "Traceback" not in proc.stderr
