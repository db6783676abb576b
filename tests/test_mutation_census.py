"""Every mutant of the mutation census (`tests/mutation_census.py`) is
caught: some run of its fast subset, which passes on the real program,
reports a FAIL under the mutant."""

import pytest

from mutation_census import FAST, MUTANTS, census, mutated, outcome


@pytest.fixture(scope="module")
def fast_runs():
    assert [outcome(argv)[0] for argv in FAST] == [0] * len(FAST)
    return FAST


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(fast_runs, name):
    with mutated(name):
        assert any(outcome(argv)[0] == 1 for argv in fast_runs)


def test_census_names_the_failing_family_and_the_unfailed_checks():
    report = census(
        [argv for argv in FAST if argv[1] == "exactseq"],
        ["v-shift does nothing"])
    caught = report["mutants"]["v-shift does nothing"]["caught"]
    assert [c["families"] for c in caught] == [["exactseq:kernel-recovery"]] * 2
    assert report["escaped"] == []
    # the mutant moves only d, and loop samples have no d-part, so under it
    # alone the core-fixing checks of part (iii) are reached and never fail
    assert any(site.startswith("autos.verify_exact_sequence:")
               for site in report["never_failed"])


def test_jacobi_triples_catch_the_d_action_mutant():
    """[d, X t^p] = |p| X t^p keeps every bracket antisymmetric, so no
    `Report.check` fails: the FAIL comes from the Jacobi triple sums."""
    name = "d-action graded by |degree|"
    runs = [argv for argv in FAST if argv[1] == "jacobi"]
    report = census(runs, [name])
    caught = report["mutants"][name]["caught"]
    assert [c["run"].split()[3] for c in caught] == [
        "algebras/a1.alg", "algebras/a2_twisted.alg"]
    assert all(c["families"] == ["jacobi"] and c["checks"] == []
               for c in caught)


def test_exactseq_section_and_kernel_catch_a_lift_branch_mutant():
    """A lifted cochar whose loop terms differ from its loop action is
    caught by the section and kernel checks of `verify exactseq`, so that
    check site leaves the census's `never_failed` list."""
    name = "lifted cochar shifts one root by phi(alpha) + 1"
    runs = [argv for argv in FAST if argv[1] == "exactseq"]
    report = census(runs, [name])
    caught = report["mutants"][name]["caught"]
    assert [c["run"].split()[3] for c in caught] == [
        "algebras/a1.alg", "algebras/a2_twisted.alg"]
    assert all({"exactseq:section", "exactseq:kernel"} <= set(c["families"])
               for c in caught)
    failed = {site for c in caught for site in c["checks"]}
    assert any(site.startswith("autos.verify_exact_sequence:")
               for site in failed)
    assert not failed & set(report["never_failed"])


def test_jacobi_antisymmetry_catches_the_symmetric_cocycle():
    """A c-term weighted by |p| keeps its sign when x and y swap, so
    [x, y] + [y, x] keeps a c-part: the antisymmetry check of `verify
    jacobi` fails on both algebras (no other mutant fails it), and so do
    the form and lift checks."""
    name = "cocycle symmetric in x, y"
    runs = [argv for argv in FAST if argv[1] in ("jacobi", "form", "lifts")]
    report = census(runs, [name])
    caught = report["mutants"][name]["caught"]
    assert sorted((c["run"].split()[1], c["run"].split()[3]) for c in caught) == [
        (suite, f"algebras/{alg}.alg") for suite in ("form", "jacobi", "lifts")
        for alg in ("a1", "a2_twisted")]
    jacobi = [c for c in caught if c["run"].split()[1] == "jacobi"]
    for c in jacobi:
        assert c["families"] == ["jacobi"]
        assert len(c["checks"]) == 1
        assert c["checks"][0].startswith("cli.suite_jacobi:")
    assert not {c["checks"][0] for c in jacobi} & set(report["never_failed"])


def test_rspan_series_count_catches_split_series():
    """Series ids split per weight give the nine weights of a1 at [-2, 2]
    nine series, more than dim g = 3: the series-count check of `verify
    spectral` fails (no other mutant fails it), so that check site leaves
    the census's `never_failed` list."""
    name = "series ids split per weight"
    runs = [argv for argv in FAST if argv[1] == "spectral"]
    report = census(runs, [name])
    caught = report["mutants"][name]["caught"]
    assert [c["run"].split()[3] for c in caught] == ["algebras/a1.alg"]
    assert caught[0]["families"] == ["spectral:decomposition:checks:rspan",
                                     "spectral:rspan"]
    failed = caught[0]["checks"]
    assert len(failed) == 1
    assert failed[0].startswith("spectral.rspan_isomorphism_check:")
    assert failed[0] not in report["never_failed"]


def test_exactseq_core_fixing_catches_first_order_nilexp():
    """Part (iii) of `verify exactseq` checks that v_auto(a) . g . g^-1
    fixes each loop sample, with g the root exponential for a = 0.  Cut
    after its linear term, exp(ad z) is no longer undone by exp(-ad z):
    the core-fixing check fails on both algebras (and no other check of
    theirs does), so that check site leaves the census's `never_failed`
    list."""
    name = "nilexp to first order only"
    runs = [argv for argv in FAST if argv[1] == "exactseq"]
    report = census(runs, [name])
    caught = report["mutants"][name]["caught"]
    assert [c["run"].split()[3] for c in caught] == [
        "algebras/a1.alg", "algebras/a2_twisted.alg"]
    for c in caught:
        assert c["families"] == ["exactseq:kernel-recovery"]
        assert len(c["checks"]) == 1
        assert c["checks"][0].startswith("autos.verify_exact_sequence:")
        assert c["checks"][0] not in report["never_failed"]


def test_shift_and_rspan_dimensions_catch_a_short_loop_basis():
    """A_w at loop level one vector short, its span kept: every shifted
    vector still lies in its target, so only the dimension comparisons of
    the shift and rspan lemmas fail, on every FAST spectral run."""
    name = "A_w at loop level drops its last independent vector"
    runs = [argv for argv in FAST if argv[1] == "spectral"]
    report = census(runs, [name])
    caught = report["mutants"][name]["caught"]
    assert [c["run"].split()[3] for c in caught] == [
        "algebras/a1.alg", "algebras/a2_twisted.alg"]
    for c in caught:
        assert {"spectral:shift", "spectral:rspan"} <= set(c["families"])
        assert [site.split(":")[0] for site in c["checks"]] == [
            "spectral.rspan_isomorphism_check", "spectral.verify_shift"]
