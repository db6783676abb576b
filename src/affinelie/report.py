"""The one report shape of every check.

A report is the JSON object `{"checked": n, "failures": [...]}`, where
each failure records the rendered `inputs`, `lhs` and `rhs` of one
counterexample (plus keys such as `part`).  `Report` is a `dict`, so it
serializes as that object and reads like one; suites may add plain keys
of their own (`gram`, `decomposition`, `dim`, ...).
"""

from __future__ import annotations


class Report(dict):
    """`{"checked": checked, "failures": []}` and the four ways to fill it.

    Render a failure only once its check fails, so a passing check
    builds no strings: `if not rep.check(ok): rep.fail(...)`.
    """

    def __init__(self, checked=0):
        super().__init__(checked=checked, failures=[])

    def check(self, ok):
        """Count one check; return `ok`."""
        self["checked"] += 1
        return ok

    def fail(self, inputs, lhs, rhs, **extra):
        """Record one failure."""
        self["failures"].append({"inputs": inputs, "lhs": lhs, "rhs": rhs,
                                 **extra})

    def merge(self, other, part):
        """Add `other`'s count and its failures, each tagged with `part`."""
        self["checked"] += other["checked"]
        self["failures"].extend(dict(f, part=part) for f in other["failures"])

    @property
    def passed(self):
        return not self["failures"]
