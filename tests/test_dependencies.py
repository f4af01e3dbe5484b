"""What the package depends on, and what depends on the package.

The package and its tests import only the standard library and pytest:
numpy, sympy or hypothesis may be installed where the tests run, so an
accidental import of one would pass there, and the first test reads the
imports instead of running them.  The package runs from src/ alone, with
nothing of tests/ on the path.  Every public function and method of the
package is run by some subcommand, unless it is kept for a stated reason:
code that only tests use lives in tests/.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import graphtower
from graphtower.cli import _HANDLERS, main

from conftest import LOOP_CONFIG, MU2_CONFIG, abelian_pin_config

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"graphtower", "pytest", "conftest"}


def _top_level_imports(path):
    """The top-level module of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_only_stdlib_and_pytest_are_imported():
    files = sorted([*ROOT.glob("src/graphtower/*.py"),
                    *ROOT.glob("tests/*.py")])
    assert len(files) > 20
    outside = [f"{path.relative_to(ROOT)}: {module}" for path in files
               for module in sorted(set(_top_level_imports(path)) - ALLOWED)]
    assert not outside


def test_package_runs_from_src_alone(tmp_path):
    """The CI packaging step's check, offline: outside the checkout, with
    only src/ on the path, the CLI starts and runs a zeta, a fitting, an
    lfun and a check-interpolation job, so no package module imports a
    helper kept under tests/, not even inside a function that only a job
    enters."""
    (tmp_path / "job.json").write_text(json.dumps(LOOP_CONFIG))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    reports = {}
    for argv in (["--help"], *([subcommand, "--config", "job.json",
                                "--level", "1"]
                               for subcommand in ("zeta", "fitting", "lfun",
                                                  "check-interpolation"))):
        run = subprocess.run([sys.executable, "-m", "graphtower.cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        if argv[0] != "--help":
            reports[argv[0]] = json.loads(run.stdout)
    assert reports["zeta"]["det_part"] == [1, 0, 0, -2, 0, 0, 1]
    assert reports["fitting"]["regular_det"] == 0
    assert len(reports["fitting"]["components"]) == 3
    assert len(reports["lfun"]["l_functions"]) == 3
    assert reports["check-interpolation"]["all_pass"] is True


# Public callables that no subcommand enters, each with what keeps it.  A
# class name covers its methods.
REACHED_ELSEWHERE = {
    "polynomials.PolynomialRing":
        "perfbench/layertrace.py LAYER_CLASSES wraps it by name",
    "polynomials.LaurentRing":
        "perfbench/layertrace.py LAYER_CLASSES wraps it by name",
    "groups.TowerGroupSpec.multiply":
        "perfbench/layertrace.py LAYER_CLASSES wraps it by name",
    "cli.build_parser": "runs once, when graphtower.cli is imported",
}


def _is_public(name):
    return not name.startswith("_") or (name.startswith("__") and
                                         name.endswith("__"))


def _public_definitions(package_dir):
    """(file, first line) → qualified name of every public module-level
    function and every public method of a public class.

    Python 3.10 code objects have no co_qualname, so a code object is
    matched by its file and co_firstlineno, the line of its first decorator.
    """
    definitions = {}
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_public(node.name):
                scopes = [(f"{path.stem}.{node.name}", item)
                          for item in node.body]
            else:
                scopes = [(path.stem, node)]
            for owner, item in scopes:
                if isinstance(item, ast.FunctionDef) and _is_public(item.name):
                    first = min([item.lineno] +
                                [d.lineno for d in item.decorator_list])
                    definitions[(str(path.resolve()), first)] = \
                        f"{owner}.{item.name}"
    return definitions


def _covers(kept, name):
    return name == kept or name.startswith(kept + ".")


def _cli_jobs():
    """(config, argv) pairs: every subcommand on the one-loop Z_3 config,
    the metacyclic MU2 config and three seeded abelian configs."""
    configs = [LOOP_CONFIG, MU2_CONFIG]
    for seed, (p, rank, level) in enumerate([(2, 1, 2), (3, 2, 1),
                                             (2, 2, 1)]):
        data = abelian_pin_config(random.Random(seed), p, rank, level, 3, 4)
        data["quotient"] = {"exponents": [1] + [0] * (rank - 1)}
        configs.append(data)
    for data in configs:
        for subcommand in sorted(_HANDLERS):
            yield data, [subcommand, "--level", "1", "--max-level", "2"]
        yield data, ["jacobian", "--level", "0"]
        yield data, ["zeta", "--level", "0"]


def test_every_public_callable_is_reached(tmp_path, capsys):
    """Every public function and method of the package is entered by some
    subcommand, or is listed in REACHED_ELSEWHERE."""
    package_dir = Path(graphtower.__file__).resolve().parent
    definitions = _public_definitions(package_dir)
    stale = [kept for kept in REACHED_ELSEWHERE
             if not any(_covers(kept, name) for name in definitions.values())]
    assert not stale
    entered = set()
    paths = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename not in paths:
                paths[code.co_filename] = str(Path(code.co_filename).resolve())
            entered.add((paths[code.co_filename], code.co_firstlineno))

    succeeded = set()
    config = tmp_path / "job.json"
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for data, argv in _cli_jobs():
            config.write_text(json.dumps(data))
            if main([*argv, "--config", str(config)]) == 0:
                succeeded.add(argv[0])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert succeeded == set(_HANDLERS)
    never = sorted(name for key, name in definitions.items()
                   if key not in entered and
                   not any(_covers(kept, name) for kept in REACHED_ELSEWHERE))
    assert not never, "never entered: " + ", ".join(never)
