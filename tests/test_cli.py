"""CLI surface: commands, exit codes, reproducible JSON."""

import ast
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from affinelie import affine, cli
from affinelie.affine import AffineElt, bracket_affine, flat, flat_bracket
from affinelie.cli import Session, build_parser, load_session, main
from affinelie.loop import LoopElt, Window
from affinelie.rootsys import build_chevalley, build_diagram_auto

from conftest import C2_TABLE, MALFORMED_TABLES, MALFORMED_TYPED, g_loop

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "algebras").glob("*.alg"))


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


def tampered_session(kind, rank, perm, lo, hi, table="table"):
    """A session on a fresh algebra with one entry of one table doubled: a
    structure constant, or with table="killing_table" the first Killing
    entry (i, j) with i < j, and (j, i) left as it was."""
    alg = build_chevalley(kind, rank)
    auto = build_diagram_auto(alg, perm)
    if table == "table":
        key = min(alg.table)
        row = dict(alg.table[key])
        first = min(row)
        row[first] = 2 * row[first]
        alg.table = dict(alg.table)
        alg.table[key] = row
    else:
        alg.killing_table = dict(alg.killing_table)
        alg.killing_table[min(k for k in alg.killing_table if k[0] < k[1])] *= 2
    return Session(auto, (lo, hi), seed=0, samples=1)


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

    @pytest.mark.parametrize("text, error", MALFORMED_TABLES + MALFORMED_TYPED)
    def test_malformed_table_exits_2(self, capsys, tmp_path, text, error):
        p = tmp_path / "table.alg"
        p.write_text(text)
        code = main(["verify", "spectral", "--algebra", str(p)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert re.fullmatch(f"parse error: {error}\n", err)

    @pytest.mark.parametrize("argv", [["construct"]]
                             + [["verify", suite] for suite in cli.SUITES])
    def test_c2_table_passes_every_suite(self, capsys, tmp_path, argv):
        """sp(4) from its Chevalley table, with N = +-2 and a long coroot."""
        p = tmp_path / "c2.alg"
        p.write_text(C2_TABLE)
        code, _ = run(capsys, *argv, "--algebra", str(p), "--window", "-2",
                      "2", "--seed", "7")
        assert code == 0

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

        monkeypatch.setattr(mad, "is_diagonalizable", counted)
        session = load_session(build_parser().parse_args(
            ["verify", "mad", "--algebra", a1_file]))
        report = cli.suite_mad(session)
        assert not report["failures"]
        assert len(calls) == 1


    def test_mad_word_builds_one_standard_mad_and_one_solver(
            self, monkeypatch, capsys, a2_twisted_file):
        from affinelie import mad
        specs, solvers = [], []
        init, span_solver = mad.SubalgebraSpec.__init__, mad.SubalgebraSpec.span_solver

        def counted_init(self, generators):
            specs.append(None)
            init(self, generators)

        def counted_solver(self, window):
            solvers.append(None)
            return span_solver(self, window)

        monkeypatch.setattr(mad.SubalgebraSpec, "__init__", counted_init)
        monkeypatch.setattr(mad.SubalgebraSpec, "span_solver", counted_solver)
        code, _ = run(capsys, "verify", "mad", "--algebra", a2_twisted_file,
                      "--word", "vshift(2) @ hat")
        assert code == 0
        assert (len(specs), len(solvers)) == (1, 1)

    @pytest.mark.parametrize("kind, rank, perm, lo, hi", [
        ("A", 2, (0, 1), -1, 1),
        ("A", 2, (1, 0), -2, 2),
        ("D", 4, (2, 1, 3, 0), -1, 1),
    ])
    def test_jacobi_matches_direct_loop_on_tampered_table(
            self, kind, rank, perm, lo, hi):
        session = tampered_session(kind, rank, perm, lo, hi)
        report = cli.suite_jacobi(session)
        assert report == reference_jacobi(session.window.basis)
        assert report["failures_omitted"] > 0
        if session.m == 3:  # the sums reach the zeta parts of the pairs
            assert any("z" in f["lhs"] for f in report["failures"])

    def test_jacobi_renders_the_c_part_of_an_asymmetric_cocycle(self):
        """(H_1, H_2) doubled but not (H_2, H_1): the cocycle term of
        [H_1 t^p, H_2 t^-p] + [H_2 t^-p, H_1 t^p] is a multiple of c."""
        session = tampered_session("A", 2, (0, 1), -1, 1, "killing_table")
        report = cli.suite_jacobi(session)
        assert report == reference_jacobi(session.window.basis)
        assert any(re.search(r"\bc$", f["lhs"]) for f in report["failures"])

    def test_jacobi_brackets_fewer_than_triples(self, monkeypatch,
                                                a2_twisted_file):
        calls = []

        def counted(alg, x, y):
            calls.append(None)
            return flat_bracket(alg, x, y)

        # jacobi_sums takes every bracket of its sums from flat_bracket
        monkeypatch.setattr(affine, "flat_bracket", counted)
        session = load_session(build_parser().parse_args(
            ["verify", "jacobi", "--algebra", a2_twisted_file,
             "--window", "-2", "2"]))
        report = cli.suite_jacobi(session)
        n = session.window.size()
        pairs = n * (n + 1) // 2
        triples = n * (n + 1) * (n + 2) // 6
        assert report == {"checked": pairs + triples, "failures": []}
        # every ordered pair once, and far fewer brackets than triples
        assert n * n <= len(calls) < triples

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
        # a fault in the slice coordinates, under the columns of ad(x) on a
        # window and of ad s on g, that the flat re-verification
        # (`spectral.reverify`, which never reads coordinates) sees
        from affinelie.loop import TwistedContext
        real = TwistedContext.decompose_slice

        def off_by_one(self, pairs, degree):
            coords = real(self, pairs, degree)
            return coords if coords is None else {**coords, 0: (1, 0)}

        monkeypatch.setattr(TwistedContext, "decompose_slice", off_by_one)
        code = main(["verify", "spectral", "--algebra", a1_file])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name", ["a1", "a2_twisted"])
    def test_a_coordinate_fault_under_the_slice_matrices_exits_4(
            self, capsys, monkeypatch, request, name):
        # a default x has degree reach 0, so it is decided on g: the slice
        # matrices of ad s are read in window coordinates as well, and a
        # spurious coordinate there fails the re-verification of a lift
        real = Window.to_vector

        def spurious(self, f):
            vec = real(self, f)
            return vec if vec is None else {**vec, 0: (1, 0)}

        monkeypatch.setattr(Window, "to_vector", spurious)
        algebra = request.getfixturevalue(f"{name}_file")
        code = main(["verify", "spectral", "--algebra", algebra])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "spectral"]])
    def test_empty_x_exits_2(self, capsys, a1_file, command):
        # an empty --x is an element to parse, not the default x
        code = main([*command, "--algebra", a1_file, "--x", ""])
        assert (code, *capsys.readouterr()) == (
            2, "", "parse error: unexpected end of input\n")

    @pytest.mark.parametrize("argv", [
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

    def test_word_vshift_extra_argument_exits_2(self, a1_file):
        proc = run_subprocess("verify", "mad", "--algebra", a1_file,
                              "--word", "vshift(2, 7) @ hat")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "vshift takes (scale)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_word_unknown_level_exits_2(self, a1_file):
        proc = run_subprocess("verify", "mad", "--algebra", a1_file,
                              "--word", "rootexp(a1, 1*t^1) @ hatt")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "parse error: unknown level 'hatt'\n"

    @pytest.mark.parametrize("name", ["vshift", "torus", "nilexp", "cochar",
                                      "diagram"])
    def test_word_empty_arguments_exit_2(self, capsys, a1_file, name):
        # an empty cochar, torus or diagram would reach its constructor's
        # ValueError (exit 3) if the parser let it through
        code = main(["verify", "mad", "--algebra", a1_file,
                     "--word", f"{name}() @ hat"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{name} takes (" in err

    @pytest.mark.parametrize("option, value, column", [
        ("--x", "(H_1)*t^0 + d", " (column 1)"),
        ("--word", "vshift(t^1) @ hat", ""),
    ], ids=["parenthesised_factor", "word_scalar"])
    def test_a_scalar_with_a_symbol_is_one_parse_error(self, capsys, a1_file,
                                                       option, value, column):
        # a parenthesised factor and a scalar argument of a word are
        # summed by one helper, with one message
        suite = "spectral" if option == "--x" else "mad"
        code = main(["verify", suite, "--algebra", a1_file, option, value])
        assert (code, *capsys.readouterr()) == (
            2, "", f"parse error: expected a scalar expression{column}\n")


class TestWindow:
    """Every run reports the one window it ran on."""

    def test_default_jacobi_window_is_reported(self, capsys, a1_file):
        code, out = run(capsys, "verify", "jacobi", "--algebra", a1_file)
        assert code == 0
        assert json.loads(out)["window"] == [-2, 2]

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "spectral"]])
    def test_spectral_runs_on_the_given_window(self, capsys, a2_twisted_file,
                                               command):
        code, out = run(capsys, *command, "--algebra", a2_twisted_file,
                        "--x", "H_1*t^0 + H_2*t^0 + d", "--window", "-2", "2")
        assert code == 0
        payload = json.loads(out)
        report = payload["reports"]["spectral"]
        assert payload["window"] == report["decomposition"]["window"] == [-2, 2]
        assert report["checked"] == 119
        assert report["decomposition"]["complete"]

    def test_form_gram_windows_ignore_the_run_window(self, capsys,
                                                     a2_twisted_file):
        code, out = run(capsys, "verify", "form", "--algebra", a2_twisted_file,
                        "--window", "-1", "1", "--samples", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == [-1, 1]
        assert [g["window"] for g in payload["reports"]["form"]["gram"]] == [
            [-2, 2], [-4, 4], [-6, 6]]

    @pytest.mark.parametrize("name, argv", [
        ("a1", ["--x", "H_1*t^0 + d", "--window", "0", "1"]),
        ("a2", ["--window", "0", "2"]),
    ])
    def test_asymmetric_window_compares_only_mirrored_weights(self, capsys,
                                                              name, argv):
        # the standard x: a weight whose opposite the window cannot hold
        # is no counterexample to dim A_w = dim A_-w
        code, out = run(capsys, "spectrum", "--algebra",
                        str(SHIPPED[0].parent / f"{name}.alg"), *argv)
        assert code == 0
        report = json.loads(out)["reports"]["spectral"]
        assert report["failures"] == []
        assert report["decomposition"]["checks"]["opposite"]["checked"] > 0

    @pytest.mark.parametrize("window", [["5", "5"], ["1", "3"], ["-3", "-1"]])
    def test_form_window_without_opposite_degrees_exits_3(self, capsys, a1_file,
                                                          window):
        # every sampled pairing would join degrees that do not sum to 0
        code = main(["verify", "form", "--algebra", a1_file, "--window", *window])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("unsupported input:") == 1
        assert "opposite degrees" in captured.err

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "spectral"]])
    def test_spectral_window_without_a_shift_exits_3(self, capsys, a1_file,
                                                     command):
        # at reach 1 the interior of [-1, 1] is degree 0 alone: no t-shift
        # stays inside, and the windowed shift lemma would check nothing
        code = main([*command, "--algebra", a1_file, "--window", "-1", "1",
                     "--x", "H_1*t^0 + X_a1*t^1 + d"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("unsupported input:") == 1
        assert "window [-1, 1]" in captured.err

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "spectral"]])
    def test_degree_zero_spectral_needs_no_shift_room(self, capsys, a1_file,
                                                      command):
        # decided on g, the lemmas hold on every degree: [0, 0] dumps its
        # one degree, and the shift lemma counts its re-verified lifts
        code = main([*command, "--algebra", a1_file, "--window", "0", "0"])
        dump = json.loads(capsys.readouterr().out)["reports"]["spectral"][
            "decomposition"]
        assert code == 0
        assert dump["complete"] and dump["window"] == [0, 0]
        assert dump["checks"]["shift"] == {"checked": 3, "pass": True}
        assert {w["scope"] for w in dump["weights"]} == {"g"}


class TestSpectrumAndConjugate:
    def test_spectrum_dump(self, capsys, a1_file):
        code, out = run(capsys, "spectrum", "--algebra", a1_file,
                        "--x", "H_1*t^0 + d")
        assert code == 0
        weights = json.loads(out)["reports"]["spectral"]["decomposition"]["weights"]
        assert {"w": "0", "dim": 5, "series_id": 0, "scope": "g"} in weights

    @pytest.mark.parametrize("x", ["H_1*t^0 + 2*d", "H_1*t^0 - d",
                                   "1/2*H_1*t^0 + 1/2*d", "c", "0"])
    def test_d_coefficient_other_than_one_exits_3(self, capsys, a1_file, x):
        # the shift rule A_{w+m} = t A_w holds only for x = x' + d, so a
        # report on any other x would FAIL or pass without a counterexample
        code = main(["spectrum", "--algebra", a1_file, "--x", x])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "x' + d" in captured.err

    def test_central_part_allowed(self, capsys, a1_file):
        code, out = run(capsys, "spectrum", "--algebra", a1_file,
                        "--x", "H_1*t^0 + d + 3*c")
        assert code == 0
        assert json.loads(out)["pass"] is True

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


A1_ALG = str(Path(__file__).resolve().parent.parent / "algebras" / "a1.alg")
A1_SPEC = str(Path(__file__).resolve().parent / "a1_conjugate.spec")
NESTED = "(" * 1000 + "1" + ")" * 1000  # deeper than the recursion limit
LONG = "1" * 5000  # more digits than int() converts


class TestUnreadableText:
    """Text the element reader cannot read is a parse error, exit 2, on
    every entry: `--x`, a word argument and a spec line."""

    @pytest.mark.parametrize("argv, error", [
        (["spectrum", "--x", f"{NESTED}*d"], "expression nested too deeply"),
        (["verify", "mad", "--word", f"vshift({NESTED}) @ hat"],
         "expression nested too deeply"),
        (["spectrum", "--x", f"{LONG}*d"], "numeral too long (column 1)"),
        (["spectrum", "--x", f"H_1*t^{LONG} + d"],
         "numeral too long (column 7)"),
        (["spectrum", "--x", f"H_1*t^(1/{LONG}) + d"],
         "numeral too long (column 10)"),
    ], ids=["x_nested", "word_nested", "x_numeral", "x_exponent",
            "x_exponent_denominator"])
    def test_exits_2_with_one_line(self, capsys, argv, error):
        code = main([*argv, "--algebra", A1_ALG])
        assert (code, *capsys.readouterr()) == (2, "", f"parse error: {error}\n")

    def test_nested_spec_line_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"H_1*t^0\n{NESTED}*c\nd\n")
        code = main(["conjugate", "--algebra", A1_ALG,
                     "--word", "vshift(2) @ hat", "--spec", str(spec)])
        assert (code, *capsys.readouterr()) == (
            2, "", "parse error: spec line 2: expression nested too deeply\n")

    def test_spec_error_names_its_file_line(self, capsys, tmp_path):
        # the comment and the blank line count: the bad element is the
        # second element but the fourth line
        spec = tmp_path / "spec.txt"
        spec.write_text("# the standard MAD, broken\nH_1*t^0\n\nc + 1/0*d\nd\n")
        code = main(["conjugate", "--algebra", A1_ALG,
                     "--word", "vshift(2) @ hat", "--spec", str(spec)])
        assert (code, *capsys.readouterr()) == (
            2, "", "parse error: spec line 4: zero denominator (column 7)\n")

    @pytest.mark.parametrize("option", ["--algebra", "--spec"])
    def test_a_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, option):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"H_1*t^0\n\xff\n")
        files = {"--algebra": A1_ALG, "--spec": A1_SPEC, option: str(path)}
        code = main(["conjugate", "--word", "vshift(2) @ hat",
                     *(arg for item in files.items() for arg in item)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(
            f"parse error: cannot read {option[2:]} file: 'utf-8' codec")

    def test_word_error_gives_its_column_in_the_word(self, capsys):
        code = main(["verify", "mad", "--algebra", A1_ALG, "--word",
                     "cochar(1) . rootexp(a1, 1/0*t^1) @ hat"])
        assert (code, *capsys.readouterr()) == (
            2, "", "parse error: zero denominator (column 27)\n")

    # the tokens of the element and word grammars, run together as drawn,
    # alone and as the argument of one word generator
    GENERATORS = ["rootexp", "nilexp", "diagram", "cochar", "torus", "ring",
                  "vshift"]
    LEVELS = ["loop", "tilde", "hat"]
    SOUP = st.lists(st.sampled_from(
        ["H_1", "X_a1", "X_ma1", "a1", "c", "d", "z", "t^", "0", "1", "2",
         "12", "(", ")", "+", "-", "*", "/", "@", ".", ",", " ", "id",
         *GENERATORS, *LEVELS]), max_size=16).map("".join)
    TEXT = st.one_of(SOUP, st.builds("{}({}) @ {}".format, st.sampled_from(
        GENERATORS), SOUP, st.sampled_from(LEVELS)))

    @settings(max_examples=120, deadline=None)
    @given(TEXT)
    @example(NESTED)
    @example(f"vshift({NESTED}) @ hat")
    def test_every_text_ends_in_an_exit_code(self, text):
        # `--x=text` keeps argparse from reading a leading '-' as an option
        runs = [["spectrum", "--window", "-1", "1", f"--x={text}"],
                ["verify", "mad", "--window", "-2", "2", f"--word={text}"]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--algebra", A1_ALG])
            assert code in range(5)


def _file_tokens(text):
    """An algebra file as tokens a mutation moves whole: words, the
    separators `:`, `;`, `,` and `#`, and line ends."""
    return re.findall(r"[^\s:;,#]+|[:;,#]|\n", text)


class TestFileExitCodes:
    """Mutated algebra files and random spec files end in an exit code of
    the contract, 0-4, and raise nothing."""

    SEEDS = [_file_tokens(text) for text in
             [path.read_text() for path in SHIPPED]
             + [param.values[0] for param in MALFORMED_TABLES + MALFORMED_TYPED]
             + [C2_TABLE]]
    POOL = sorted({tok for seed in SEEDS for tok in seed})

    @staticmethod
    def exit_code(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    @st.composite
    def mutated(draw, seeds=SEEDS, pool=POOL):
        """A seed file after one to three token deletions, insertions and
        swaps."""
        tokens = list(draw(st.sampled_from(seeds)))
        for _ in range(draw(st.integers(1, 3))):
            op = draw(st.sampled_from(["delete", "insert", "swap"]))
            spot = st.integers(0, max(len(tokens) - 1, 0))
            if op == "insert":
                tokens.insert(draw(spot), draw(st.sampled_from(pool)))
            elif tokens and op == "delete":
                del tokens[draw(spot)]
            elif tokens:
                i, j = draw(spot), draw(spot)
                tokens[i], tokens[j] = tokens[j], tokens[i]
        return " ".join(tokens)

    def test_unmutated_shipped_files_load(self, tmp_path):
        # the tokens joined by spaces are the same file to the reader
        path = tmp_path / "seed.alg"
        for seed in self.SEEDS[:len(SHIPPED)]:
            path.write_text(" ".join(seed))
            assert self.exit_code(["construct", "--algebra", str(path)]) == 0

    @settings(max_examples=150, deadline=None)
    @given(text=mutated())
    def test_mutated_algebra_file(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mutated.alg"
        path.write_text(text)
        assert self.exit_code(["construct", "--algebra", str(path)]) in range(5)

    LINE = st.one_of(
        st.just(""), st.just("# a comment"),
        st.sampled_from(["H_1*t^0", "c", "d", "H_1*t^0 + d", "X_a1*t^1"]),
        st.lists(st.sampled_from(
            ["H_1", "X_a1", "X_ma1", "c", "d", "z", "t^", "0", "1", "2", "(",
             ")", "+", "-", "*", "/", " ", "#", "$"]), max_size=10).map("".join))

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(LINE, max_size=5))
    def test_random_spec_file(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "random.spec"
        path.write_text("\n".join(lines))
        argv = ["conjugate", "--algebra", A1_ALG, "--window", "-2", "2",
                "--word", "vshift(2) @ hat", "--spec", str(path)]
        assert self.exit_code(argv) in range(5)


def composed_sample_loop(session, rng):
    """The sampler composed term by term: zero, then + coef * e (x) s^j
    for each drawn term."""
    out = LoopElt.zero(session.alg, session.m)
    for _ in range(2):
        j = rng.randint(session.lo, session.hi)
        basis = session.ctx.slice_basis(j)
        if not basis:
            continue
        e = basis[rng.randrange(len(basis))]
        coef = rng.randint(-5, 5)
        out = out + g_loop(session.alg, session.m, e, j, coef)
    return out


class TestSampler:
    @pytest.mark.parametrize("window", [[], ["--window", "0", "0"]],
                             ids=["default", "window_0_0"])
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_one_pass_sampler_draws_the_composed_element(self, path, window):
        # at [0, 0] both terms share a degree, and often a slot, and cancel
        session = load_session(build_parser().parse_args(
            ["verify", "form", "--algebra", str(path), "--seed", "3", *window]))
        composed = random.Random(3)
        for _ in range(200):
            assert session.sample_loop() == flat(composed_sample_loop(
                session, composed))
            assert session.rng.getstate() == composed.getstate()
            x = AffineElt(composed_sample_loop(session, composed),
                          c=composed.randint(-5, 5), d=composed.randint(-5, 5))
            assert session.sample_affine() == flat(x)
            assert session.rng.getstate() == composed.getstate()

    def test_cancelling_terms_draw_zero(self):
        session = load_session(build_parser().parse_args(
            ["verify", "form", "--algebra", str(SHIPPED[0]), "--seed", "3",
             "--window", "0", "0"]))
        assert session.alg.datum.label == "A1"
        draws = [session.sample_loop() for _ in range(200)]
        assert any(terms == {} for terms, _, _ in draws)


class TestStartup:
    """A run compiles only the modules it uses: `spectral` is imported by
    the spectral suite alone (and by `mad`, which runs it)."""

    @pytest.mark.parametrize("argv, imported", [
        (["construct"], False),
        (["verify", "jacobi"], False),
        (["verify", "form"], False),
        (["verify", "lifts"], False),
        (["verify", "exactseq"], False),
        (["verify", "spectral"], True),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else str(v))
    def test_spectral_is_imported_only_where_it_runs(self, a1_file, argv,
                                                     imported):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "affinelie", *argv,
             "--algebra", a1_file, "--window", "-1", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-500:]
        names = set(re.findall(r"\| +(affinelie\.\w+)$", proc.stderr, re.M))
        assert "affinelie.cli" in names
        assert ("affinelie.spectral" in names) is imported


OBJECTS = {"CycScalar", "LaurentElt", "LoopElt", "AffineElt", "unflat",
           "as_scalar"}


class TestObjectBoundary:
    """The verdict paths read flat forms and pairs: `cli`, `spectral`,
    `slices`, `rootsys` and `linalg` import none of the element classes or
    the conversions into them, nor reach one as a name or an attribute."""

    @pytest.mark.parametrize("module", ["cli", "spectral", "slices", "rootsys",
                                        "linalg"])
    def test_no_object_class_is_imported_or_named(self, module):
        path = Path(cli.__file__).resolve().parent / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        assert imported and not imported & OBJECTS
        assert not named & OBJECTS


class TestFieldBoundary:
    """A pair carries its field and a generator holds its algebra: no
    `linalg` function takes the order m, no `autos` action takes `alg` or
    `m`, and `Cochar.x_phi` takes nothing."""

    @staticmethod
    def functions(module):
        path = Path(cli.__file__).resolve().parent / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return [(node, {a.arg for a in node.args.args + node.args.kwonlyargs})
                for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def test_no_linalg_function_takes_m(self):
        found = self.functions("linalg")
        assert {node.name for node, _ in found} >= {"kernel_basis", "__init__"}
        assert [node.name for node, args in found if "m" in args] == []

    def test_no_autos_action_takes_alg_or_m(self):
        acts = [args for node, args in self.functions("autos")
                if node.name == "act"]
        assert len(acts) == 8 and not any(args & {"alg", "m"} for args in acts)

    def test_x_phi_takes_no_parameter(self):
        (args,) = [args for node, args in self.functions("autos")
                   if node.name == "x_phi"]
        assert args == {"self"}


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
