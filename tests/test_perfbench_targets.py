"""The benchmark tracer (`perfbench/tracer.py`) patches affinelie functions
and methods by name.  Every name it lists must still resolve, or a traced
benchmark run would first fail with a crash."""

import importlib
import importlib.util
from pathlib import Path

from affinelie import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    targets = tracer.SPANS + tracer.COUNTERS
    missing = []
    for name, module, path in targets:
        home = importlib.import_module(f"affinelie.{module}")
        if "." in path:
            # a method is replaced in its class's own namespace
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, path, None))
        if not found:
            missing.append(f"{name}: affinelie.{module}.{path}")
    assert len(targets) > 40
    assert missing == []


def test_a_traced_run_prints_what_an_untraced_one_does(capsys):
    """The tracer's notes read the arguments of what they wrap (loop
    coefficients' `terms` in `_affine_key`, the rows handed to `rref` in
    `_note_rref`), so a traced run must reach them and still print the same
    bytes with the same exit codes."""
    a1 = str(TRACER.parent.parent / "algebras" / "a1.alg")
    runs = [["verify", "spectral"],
            ["verify", "mad", "--word", "vshift(2) @ hat"],
            ["verify", "form", "--samples", "20"]]

    def outputs():
        return [(cli.main([*argv, "--algebra", a1]), capsys.readouterr().out)
                for argv in runs]

    untraced = outputs()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = outputs()
    finally:
        tracer.uninstall()
    assert [code for code, _ in untraced] == [0, 0, 0]
    assert traced == untraced
    metrics = tracer.layer_metrics()
    assert metrics["affine.bracket.calls"] > 0
    assert metrics["linalg.rref.cells"] > 0
