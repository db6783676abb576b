"""The reachability census (`tests/reach_census.py`) on two a1 runs."""

import sys

import reach_census


def test_census_lists_what_no_run_reaches():
    previous = sys.gettrace()
    a1 = ["--algebra", "algebras/a1.alg"]
    unreached = reach_census.census([["verify", "jacobi", *a1, "--window", "-1", "1"],
                                     ["construct", *a1]])
    assert sys.gettrace() is previous
    assert "cli.suite_jacobi" not in unreached
    assert unreached["affine.core_and_derived"] > 10
    assert "cli.suite_mad" in unreached and "cli.main" not in unreached
