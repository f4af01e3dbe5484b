import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import prod
from pathlib import Path

import pytest

import graphtower
from graphtower.cli import _HANDLERS, _json_text, main, parse_config
from graphtower.cyclotomic import CyclotomicInteger
from graphtower.errors import ConfigError, GraphTowerError
from graphtower.linalg import poly_product

from conftest import (LOOP_CONFIG, MU2_CONFIG, abelian_pin_config, derive,
                      spanning_tree_count)

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_config_valid(tmp_path):
    job = parse_config(write_config(tmp_path, LOOP_CONFIG))
    assert job.alpha.base.num_edges == 1
    assert job.quotient is not None
    assert len(job.config_hash) == 64


def test_parse_config_missing_voltage(tmp_path):
    bad = dict(LOOP_CONFIG, voltage={})
    with pytest.raises(ConfigError, match="no voltage"):
        parse_config(write_config(tmp_path, bad))


def test_parse_config_nonprime(tmp_path):
    bad = dict(LOOP_CONFIG, group={"kind": "abelian", "p": 4, "rank": 1})
    with pytest.raises(ConfigError, match="prime"):
        parse_config(write_config(tmp_path, bad))


def test_parse_config_unknown_generator(tmp_path):
    bad = dict(LOOP_CONFIG, voltage={"e": [[5, 1]]})
    with pytest.raises(ConfigError, match="generator"):
        parse_config(write_config(tmp_path, bad))


def test_config_error_exit_code(tmp_path, capsys):
    bad = dict(LOOP_CONFIG, voltage={})
    assert main(["tower", "--config", write_config(tmp_path, bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_tower_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--max-level", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["e"] == [0, 1, 2, 3]


def test_iwasawa_fit_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["iwasawa-fit", "--config", path, "--max-level", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fit"] == {"mu": 0, "lambda": 1, "nu": 0, "stable": True,
                             "residuals": [0, 0, 0, 0]}


def test_mhg_subcommand_mu2_example(tmp_path, capsys):
    path = write_config(tmp_path, MU2_CONFIG)
    assert main(["mhg-check", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "HOLDS"
    assert report["mu1"] == 2
    assert report["lambda1_det"]["f_coeffs"] == [0, 0, -18]


def test_check_subcommands(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["check-interpolation", "--config", path, "--level", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert main(["check-factorization", "--config", path, "--level", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_derive_jacobian_zeta_lfun_fitting(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["derive", "--config", path, "--level", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_vertices"] == 9 and report["connected"]
    assert main(["jacobian", "--config", path, "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["jacobian"]["torsion"] == [9]
    assert main(["zeta", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["det_part"] == [1, -2, 1]
    assert main(["lfun", "--config", path, "--level", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["l_functions"]) == 3
    assert main(["fitting", "--config", path, "--level", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["components"]) == 3


def test_precondition_exit_code(tmp_path, capsys):
    disconnected = dict(LOOP_CONFIG, voltage={"e": []})
    path = write_config(tmp_path, disconnected)
    assert main(["tower", "--config", path]) == 2
    assert "precondition" in capsys.readouterr().err


def test_bound_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["derive", "--config", path, "--level", "9"]) == 3
    assert "bound" in capsys.readouterr().err


def test_deterministic_output_and_report_files(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    out_dir = tmp_path / "reports"
    assert main(["tower", "--config", path, "--out", str(out_dir)]) == 0
    first = capsys.readouterr().out
    assert main(["tower", "--config", path, "--out", str(out_dir)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert (out_dir / "tower.json").read_text() == first
    tsv = (out_dir / "tower.tsv").read_text()
    assert "e\t[0, 1, 2, 3]" in tsv


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--out", path]) == 1
    assert "cannot write report" in capsys.readouterr().err


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    """A reader that closes the pipe after one line, as `| head -1` does,
    while a 1.4 MB lfun report is still being written: exit 1 with a
    message, and no traceback, also not at interpreter shutdown."""
    path = write_config(tmp_path, Z125_CONFIG)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphtower.cli", "lfun", "--config", path,
         "--level", "3"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.startswith("cannot write report: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_tsv_format(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("subcommand\t")


# -- malformed configs and flags: exit 1 with a message, never a traceback

def _replace(path, value):
    """A copy of LOOP_CONFIG with the node at `path` replaced by `value`."""
    data = copy.deepcopy(LOOP_CONFIG)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


_MALFORMED_CONFIGS = [
    (_replace(("quotient",), [1]), "quotient"),
    (_replace(("group", "rank"), "x"), "rank"),
    (_replace(("group", "rank"), True), "rank"),
    (_replace(("group", "p"), True), "prime"),
    (_replace(("graph", "vertices"), [["v"]]), "vertex ids"),
    (_replace(("graph", "vertices"), []), "no vertices"),
    (_replace(("graph", "edges", 0, "ends"), ["v", ["v"]]), "edge 0"),
    (_replace(("voltage", "e"), 5), "malformed voltage word"),
    (_replace(("voltage", "e"), [[0, True]]), "malformed voltage word"),
    (_replace(("quotient", "exponents"), [True]), "quotient"),
    (_replace(("max_level",), True), "max_level"),
    (_replace(("max_level",), -1), "max_level"),
    ([LOOP_CONFIG], "JSON object"),
    # the voltage under key "1" would go to both edges
    (dict(LOOP_CONFIG, graph={"vertices": ["v"], "edges": [
        {"id": 1, "ends": ["v", "v"]}, {"id": "1", "ends": ["v", "v"]}]},
          voltage={"1": [[0, 1]]}), "edge ids"),
]


@pytest.mark.parametrize("data, message", _MALFORMED_CONFIGS, ids=[
    "quotient-list", "rank-str", "rank-bool", "p-bool", "list-vertex",
    "no-vertices", "list-end", "word-int", "exponent-bool", "quotient-bool",
    "max-level-bool", "max-level-negative", "list-root", "edge-id-collision"])
def test_malformed_config_exits_1(tmp_path, capsys, data, message):
    path = write_config(tmp_path, data)
    assert main(["tower", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("flag", ["--level", "--max-level"])
def test_negative_level_flag_exits_1(tmp_path, capsys, flag):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, flag, "-1"]) == 1
    assert "nonnegative" in capsys.readouterr().err


# "{}" stands for the path of a valid config
@pytest.mark.parametrize("argv", [
    ["tower", "--config", "{}", "--level", "x"],
    ["tower", "--config", "{}", "--max-level", "1.5"],
    pytest.param(["tower", "--config", "{}", "--max-level", "9" * 5000],
                 marks=pytest.mark.skipif(
                     not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                     reason="no limit on int-to-str conversion")),
    ["tower", "--config", "{}", "--format", "xml"],
    ["tower", "--config", "{}", "--format=xml"],
    ["tower", "--config", "{}", "--levels", "1"],
    ["tower", "--conf", "{}"],
    ["tower", "--config", "{}", "-x"],
    ["tower", "--config", "{}", "--level"],
    ["tower", "--level", "--config", "{}"],
    ["--config", "{}", "--level", "1"],
    ["towers", "--config", "{}"],
    ["tower", "zeta", "--config", "{}"],
    ["tower", "--level", "1"],
    [],
], ids=["level-word", "max-level-float", "max-level-past-int-limit",
        "format-xml", "format-xml-equals",
        "unknown-flag", "prefix", "short-flag", "no-value-at-end",
        "no-value-before-flag", "no-subcommand", "unknown-subcommand",
        "two-subcommands", "no-config", "empty"])
def test_malformed_command_line_exits_1(tmp_path, capsys, argv):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main([path if word == "{}" else word for word in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage(capsys, flag):
    assert main(["tower", flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: graphtower SUBCOMMAND --config PATH")
    assert err == ""
    for word in [*_HANDLERS, "--config", "--level", "--max-level", "--out",
                 "--format", "json|tsv"]:
        assert word in out


def test_flags_in_any_order_and_either_form(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    outputs = []
    for argv in (["iwasawa-fit", "--config", path, "--max-level", "4"],
                 [f"--config={path}", "--max-level=4", "iwasawa-fit"],
                 ["--max-level", "4", "--config", path, "iwasawa-fit"],
                 ["--format=json", "iwasawa-fit", f"--config={path}",
                  "--max-level", "4"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    assert json.loads(outputs[0])["e"] == [0, 1, 2, 3, 4]


def test_invalid_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(b'{"graph": "\xff"}')
    assert main(["tower", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


_FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 3, "", "x", "1+p", "v",
                [], {}, [0], [0, 1], [[0, 1]], [1, 0], {"exponents": [1]}]
# replacements of the same JSON type, which more often keep a config valid
_FUZZ_SAME_TYPE = {int: [-1, 0, 1, 2, 3, 4], str: ["v", "w", "e0", "abelian",
                                                   "metacyclic", "1+p"],
                   list: [[], [0, 1], [[0, 1]], [[1, 2]], [[0, 1], [1, -1]]]}


def _json_paths(node, path=()):
    """The path of every JSON node below the root."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _fuzz_cases():
    """(config, argv without --config) of each of 300 seeded mutants of
    LOOP_CONFIG and MU2_CONFIG: one JSON node replaced or deleted."""
    rng = random.Random(20240611)
    # at max-level 2, tower jobs on MU2_CONFIG reach its 162-vertex cover
    bases = [(LOOP_CONFIG, "2"), (MU2_CONFIG, "2")]
    subcommands = sorted(_HANDLERS)
    for case in range(300):
        base, max_level = bases[case % 2]
        data = copy.deepcopy(base)
        target = rng.choice(list(_json_paths(data)))
        parent = data
        for key in target[:-1]:
            parent = parent[key]
        same_type = _FUZZ_SAME_TYPE.get(type(parent[target[-1]]))
        roll = rng.random()
        if roll < 0.2:
            del parent[target[-1]]
        elif roll < 0.6 and same_type:
            parent[target[-1]] = copy.deepcopy(rng.choice(same_type))
        else:
            parent[target[-1]] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
        yield data, [rng.choice(subcommands), "--level", "1",
                     "--max-level", max_level]


def test_mutation_fuzz_never_raises(tmp_path, capsys):
    """Replace or delete one JSON node per case; main must exit 0-3."""
    path = tmp_path / "job.json"
    for data, argv in _fuzz_cases():
        path.write_text(json.dumps(data))
        code = main([*argv, "--config", str(path)])
        assert code in (0, 1, 2, 3), (argv, data)
    capsys.readouterr()


def _parse_outcome(path):
    """parse_config's outcome on a file: its error, or the parsed job."""
    try:
        job = parse_config(path)
    except GraphTowerError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((job.config_hash, job.alpha, job.quotient, job.max_level))


# SHA-256 over the parse outcomes of the fuzz mutants, the malformed configs
# above and the valid test configs, one line each, recorded with the parser
# that walked each node through generic type helpers
_PARSE_OUTCOMES_SHA256 = (
    "0155a73762755a46f767e10feb35d603a3fb044ea62d8dc50e15a7540405d063")


def test_parse_config_outcomes_are_pinned(tmp_path):
    """Every check, message and constructor call of parse_config keeps its
    outcome: the error on each of the 300 fuzz mutants and the malformed
    configs, and the job parsed from each valid config of the tests."""
    valid = [LOOP_CONFIG, MU2_CONFIG, CLIFF_128_CONFIG, Z125_CONFIG,
             P727_CONFIG, _METACYCLIC_P2_CONFIG, _INT_ID_CONFIG,
             _ESCAPED_ID_CONFIG]
    path = tmp_path / "job.json"
    outcomes = []
    mutants = [data for data, _ in [*_fuzz_cases(), *_MALFORMED_CONFIGS]]
    for data in mutants + valid:
        path.write_text(json.dumps(data))
        outcomes.append(_parse_outcome(path))
    assert sum(o.startswith("('") for o in outcomes) > len(valid)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == _PARSE_OUTCOMES_SHA256


# -- no Smith normal form cliff on large covers

# A seeded 128-vertex Z/32 cover (p = 2, level 5) over a 4-vertex base.  The
# dense divisibility-enforcing elimination (now `dense_smith_reference` in
# test_smith.py) did not finish its Jacobian in 15 minutes.
CLIFF_128_CONFIG = {
    "graph": {"vertices": [0, 1, 2, 3],
              "edges": [{"id": "e1", "ends": [1, 0]}, {"id": "e2", "ends": [2, 0]},
                        {"id": "e3", "ends": [3, 2]}, {"id": "x0", "ends": [0, 3]},
                        {"id": "x1", "ends": [2, 3]}, {"id": "x2", "ends": [0, 2]}]},
    "group": {"kind": "abelian", "p": 2, "rank": 1},
    "voltage": {"e1": [[0, 13]], "e2": [], "e3": [[0, 4]], "x0": [[0, 19]],
                "x1": [[0, 26]], "x2": [[0, 8]]},
}


def test_mu2_tower_at_level_2_has_no_cliff(tmp_path, capsys):
    path = write_config(tmp_path, MU2_CONFIG)
    start = time.perf_counter()
    assert main(["tower", "--config", path, "--max-level", "2"]) == 0
    assert time.perf_counter() - start < 10
    report = json.loads(capsys.readouterr().out)
    cover = derive(parse_config(path).alpha, 2)
    assert cover.num_vertices == 162
    assert prod(report["jacobians"][2]) == spanning_tree_count(cover)


def test_jacobian_of_a_128_vertex_cover_has_no_cliff(tmp_path, capsys):
    path = write_config(tmp_path, CLIFF_128_CONFIG)
    start = time.perf_counter()
    assert main(["jacobian", "--config", path, "--level", "5"]) == 0
    assert time.perf_counter() - start < 2
    report = json.loads(capsys.readouterr().out)
    cover = derive(parse_config(path).alpha, 5)
    assert cover.num_vertices == 128
    assert report["order"] == spanning_tree_count(cover)
    assert prod(report["jacobian"]["torsion"]) == report["order"]


# A seeded 729-vertex Z/243 cover (p = 3, level 5) over a 3-vertex base
# with a loop, `perfbench/configs.make_config(random.Random(4), _ab(3, 1,
# 3, 2, 5))`.  Its ±1 pivots leave a 94-row core; the Smith form takes
# about 0.4 s, and 1.6 times as long when the elimination does not push
# again the keys of the rows that got shorter.
CLIFF_729_CONFIG = {
    "graph": {"vertices": ["v0", "v1", "v2"],
              "edges": [{"id": "e0", "ends": ["v1", "v0"]},
                        {"id": "e1", "ends": ["v2", "v1"]},
                        {"id": "e2", "ends": ["v0", "v2"]},
                        {"id": "e3", "ends": ["v1", "v1"]}]},
    "group": {"kind": "abelian", "p": 3, "rank": 1},
    "voltage": {"e0": [], "e1": [[0, 138]], "e2": [[0, 200]],
                "e3": [[0, 28]]},
}


def test_jacobian_of_a_729_vertex_cover_has_no_cliff(tmp_path, capsys):
    """The invariant factors are pinned by the SHA-256 of the report's
    jacobian object, as the sparse Smith form first computed them."""
    path = write_config(tmp_path, CLIFF_729_CONFIG)
    start = time.perf_counter()
    assert main(["jacobian", "--config", path, "--level", "5"]) == 0
    assert time.perf_counter() - start < 10
    report = json.loads(capsys.readouterr().out)
    assert report["e_n"] == 6
    assert prod(report["jacobian"]["torsion"]) == report["order"]
    assert hashlib.sha256(json.dumps(
        report["jacobian"], sort_keys=True).encode()).hexdigest() == (
        "437b3846bb0106326040567d08c0d98212274252d78ef238a2cecfe15a5072b3")


# -- preconditions and internal errors

def test_metacyclic_lfun_is_a_precondition_violation(tmp_path, capsys):
    path = write_config(tmp_path, MU2_CONFIG)
    assert main(["lfun", "--config", path, "--level", "1"]) == 2
    assert "abelian" in capsys.readouterr().err


def test_metacyclic_check_factorization_is_a_precondition_violation(
        tmp_path, capsys):
    path = write_config(tmp_path, MU2_CONFIG)
    assert main(["check-factorization", "--config", path, "--level", "1"]) == 2
    assert "abelian" in capsys.readouterr().err


def test_iwasawa_fit_needs_three_levels(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["iwasawa-fit", "--config", path, "--max-level", "1"]) == 2
    assert "three levels" in capsys.readouterr().err


def test_arithmetic_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(rows, cols):
        raise ArithmeticError("inexact division 7 / 2")

    monkeypatch.setattr(graphtower.jacobian, "smith_invariant_factors", broken)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--max-level", "2"]) == 4
    assert capsys.readouterr().err.startswith("internal error: inexact")


@pytest.fixture
def int_str_limit():
    """Python's default limit on int-to-str conversion, 4300 digits, for
    the test's duration."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-str conversion")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_a_report_integer_past_the_str_limit_exits_3(
        tmp_path, capsys, monkeypatch, int_str_limit, fmt):
    """A report integer longer than the int-to-str limit, as the order of
    the Jacobian of a large enough cover can be, exits 3 with a message
    naming the limit, prints nothing and writes no --out file."""
    monkeypatch.setitem(_HANDLERS, "jacobian",
                        lambda job, args: {"order": 10 ** 5000})
    path = write_config(tmp_path, LOOP_CONFIG)
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        argv = ["jacobian", "--config", path, "--format", fmt, *extra]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource bound exceeded: ")
        assert f"{int_str_limit}-digit limit" in captured.err
    assert not out.exists()


# -- each job computes each intermediate once

def _count_calls(monkeypatch, fn):
    """Wrap fn in every package module that binds it; returns the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("graphtower") and
                vars(module).get(fn.__name__) is fn):
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_mhg_check_computes_lambda1_determinant_once(tmp_path, capsys,
                                                      monkeypatch):
    calls = _count_calls(monkeypatch, graphtower.iwasawa.lambda1_determinant)
    assert main(["mhg-check", "--config", write_config(tmp_path, MU2_CONFIG)]) == 0
    assert len(calls) == 1


def _count_multigraphs(monkeypatch):
    """Record the vertex count of every Multigraph built; returns the log."""
    sizes = []
    check = graphtower.graphs.Multigraph.__post_init__

    def counted(graph):
        sizes.append(graph.num_vertices)
        check(graph)

    monkeypatch.setattr(graphtower.graphs.Multigraph, "__post_init__",
                        counted)
    return sizes


def test_check_factorization_and_zeta_build_no_cover(tmp_path, capsys,
                                                     monkeypatch):
    """Both sides of check-factorization, and zeta of a cover, come from
    one set of voltage translations: no χ(A_α) over Z[ζ], and no Multigraph
    larger than the base."""
    path = write_config(tmp_path, LOOP_CONFIG)
    for subcommand in ("check-factorization", "zeta"):
        with monkeypatch.context() as patch:
            adjacency = _count_calls(
                patch, graphtower.grouprings.character_adjacency)
            translations = _count_calls(patch,
                                        graphtower.voltage.edge_translations)
            graphs = _count_multigraphs(patch)
            assert main([subcommand, "--config", path, "--level", "2"]) == 0
        assert (len(adjacency), len(translations)) == (0, 1)
        assert graphs == [len(LOOP_CONFIG["graph"]["vertices"])]


@pytest.mark.parametrize("subcommand", sorted(_HANDLERS))
@pytest.mark.parametrize("level", [0, 2])
def test_no_job_builds_a_multigraph_larger_than_the_base(
        tmp_path, capsys, monkeypatch, subcommand, level):
    """Every subcommand reads X_n off the base and its voltage translations,
    at level 0, the trivial cover, as at level 2: the only Multigraph a job
    builds is the base."""
    graphs = _count_multigraphs(monkeypatch)
    path = write_config(tmp_path, LOOP_CONFIG)
    code = main([subcommand, "--level", str(level), "--max-level", str(level),
                 "--config", path])
    # a fit needs three levels
    assert code == (2 if (subcommand, level) == ("iwasawa-fit", 0) else 0)
    assert graphs == [len(LOOP_CONFIG["graph"]["vertices"])]


@pytest.mark.parametrize("argv", [["tower", "--max-level", "2"],
                                  ["iwasawa-fit", "--max-level", "2"],
                                  ["jacobian", "--level", "2"]])
def test_level_jacobians_build_no_cover(tmp_path, capsys, monkeypatch, argv):
    """Each level's Laplacian comes from the voltage translations: no
    Multigraph larger than the base."""
    graphs = _count_multigraphs(monkeypatch)
    path = write_config(tmp_path, MU2_CONFIG)
    assert main([*argv, "--config", path]) == 0
    base_size = len(MU2_CONFIG["graph"]["vertices"])
    assert graphs and all(size == base_size for size in graphs)


def _factorization_report(tmp_path, capsys):
    path = write_config(tmp_path, abelian_pin_config(
        random.Random(3), 2, 2, 1, 3, 4))
    assert main(["check-factorization", "--config", path,
                 "--level", "1"]) == 0
    return json.loads(capsys.readouterr().out)


def test_check_factorization_fails_on_a_wrong_orbit_norm(tmp_path, capsys,
                                                         monkeypatch):
    """One orbit norm times (1 + u) breaks the check, which still exits 0
    and says so."""
    assert _factorization_report(tmp_path, capsys)["pass"] is True
    norm = graphtower.zeta.artin_l_norm
    calls = []

    def wrong(*args):
        calls.append(args)
        value = norm(*args)
        return poly_product([value, (1, 1)]) if len(calls) == 1 else value

    monkeypatch.setattr(graphtower.zeta, "artin_l_norm", wrong)
    report = _factorization_report(tmp_path, capsys)
    assert len(calls) > 1
    assert report["pass"] is False
    assert report["polynomial_match"] is False


def test_check_factorization_fails_on_a_dropped_cover_edge(tmp_path, capsys,
                                                           monkeypatch):
    """A cover side missing one edge breaks the check, which still exits 0
    and says so."""
    pairs = graphtower.zeta.cover_index_pairs

    def dropped(alpha, n):
        num_vertices, edges = pairs(alpha, n)
        return num_vertices, edges[1:]

    monkeypatch.setattr(graphtower.zeta, "cover_index_pairs", dropped)
    report = _factorization_report(tmp_path, capsys)
    assert report["pass"] is False
    assert report["polynomial_match"] is False
    assert report["exponent_match"] is False


def _loop_free_fibre_config(rng):
    """A 2-vertex (Z/4)² config whose vertex v0 has no loop: 1-3 edges
    v0–v1 and 1-2 loops at v1, with random voltages.  At level 2 the fibre
    over v0 is 16 of the cover's 32 vertices, pairwise non-adjacent."""
    ends = [[0, 1]] * rng.randint(1, 3) + [[1, 1]] * rng.randint(1, 2)
    return {"graph": {"vertices": [0, 1],
                      "edges": [{"id": f"e{i}", "ends": e}
                                for i, e in enumerate(ends)]},
            "group": {"kind": "abelian", "p": 2, "rank": 2},
            "voltage": {f"e{i}": [[g, rng.randrange(4)] for g in range(2)]
                        for i in range(len(ends))}}


@pytest.mark.parametrize("subcommand", ["zeta", "check-factorization"])
def test_cover_determinant_takes_one_fibre_out(tmp_path, capsys, monkeypatch,
                                               subcommand):
    """The Schur complement over the fibre of v0 leaves the cover a
    16-row matrix, not 32; the orbit norms have at most 4 rows."""
    calls = _count_calls(monkeypatch, graphtower.linalg.det_int_poly_matrix)
    path = write_config(tmp_path, _loop_free_fibre_config(random.Random(6)))
    assert main([subcommand, "--config", path, "--level", "2"]) == 0
    assert max(len(rows) for rows, in calls) == 16
    if subcommand == "check-factorization":
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_check_factorization_fails_on_a_corrupted_reduced_entry(
        tmp_path, capsys, monkeypatch):
    """One coefficient of a diagonal entry of the reduced cover matrix off
    by one changes its determinant by a power of u times a principal minor
    with constant term 1, so the check fails, exits 0 and says so."""
    kernel = graphtower.zeta.det_int_poly_matrix
    rng = random.Random(84)
    for seed in range(6):
        path = write_config(tmp_path,
                            _loop_free_fibre_config(random.Random(seed)))
        corrupted = []

        def corrupting(rows):
            if len(rows) == 16:  # the cover's reduced matrix
                t = rng.randrange(16)
                rows[t][t][rng.randrange(1, 5)] += 1
                corrupted.append(t)
            return kernel(rows)

        with monkeypatch.context() as patch:
            patch.setattr(graphtower.zeta, "det_int_poly_matrix", corrupting)
            assert main(["check-factorization", "--config", path,
                         "--level", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(corrupted) == 1
        assert report["pass"] is False
        assert report["polynomial_match"] is False
        assert report["exponent_match"] is True


# a 6-cycle with one edge of voltage 1 over Z/3^6: X_6 is a 4374-cycle
CYCLE_4374_CONFIG = {
    "graph": {"vertices": list(range(6)),
              "edges": [{"id": f"e{i}", "ends": [i, (i + 1) % 6]}
                        for i in range(6)]},
    "group": {"kind": "abelian", "p": 3, "rank": 1},
    "voltage": {f"e{i}": [[0, 1]] if i == 0 else [] for i in range(6)},
}


@pytest.mark.parametrize("argv", [["jacobian", "--level", "6"],
                                  ["tower", "--max-level", "6"]])
def test_4374_vertex_jacobian_is_cheap(tmp_path, capsys, argv):
    """At the vertex bound the Jacobian costs well under a second and
    50 MB, measured untraced for time and under tracemalloc for memory."""
    path = write_config(tmp_path, CYCLE_4374_CONFIG)
    started = time.perf_counter()
    assert main([*argv, "--config", path]) == 0
    assert time.perf_counter() - started < 1
    report = json.loads(capsys.readouterr().out)
    tracemalloc.start()
    try:
        assert main([*argv, "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    torsion = (report["jacobian"]["torsion"] if argv[0] == "jacobian"
               else report["jacobians"][-1])
    assert torsion == [4374]
    assert json.loads(capsys.readouterr().out) == report


def test_check_factorization_uses_no_cyclotomic_arithmetic(tmp_path, capsys,
                                                            monkeypatch):
    """The orbit norms are integer determinants: no reduction modulo Φ and
    no element of Z[ζ] is made."""
    images = _count_calls(monkeypatch, graphtower.cyclotomic.galois_images)
    elements = []
    post_init = CyclotomicInteger.__post_init__

    def counted(x):
        elements.append(x)
        return post_init(x)

    monkeypatch.setattr(CyclotomicInteger, "__post_init__", counted)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["check-factorization", "--config", path, "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(images) == len(elements) == 0


@pytest.mark.parametrize("subcommand", ["lfun", "check-interpolation"])
def test_character_jobs_derive_no_cover(tmp_path, capsys, monkeypatch,
                                        subcommand):
    """A_α over Z[G^(n)] is all these jobs need of X_n: they take no
    translations of G^(n)."""
    translations = _count_calls(monkeypatch,
                                graphtower.voltage.edge_translations)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main([subcommand, "--config", path, "--level", "2"]) == 0
    assert len(translations) == 0


@pytest.mark.parametrize("subcommand", ["lfun", "check-interpolation"])
def test_character_jobs_keep_the_cover_bound(tmp_path, capsys, subcommand):
    """A 7-cycle over Z/3^6: the 729 characters are within their bound, the
    5103-vertex cover is not, and the job stops before building A_α."""
    data = {"graph": {"vertices": list(range(7)),
                      "edges": [{"id": f"e{i}", "ends": [i, (i + 1) % 7]}
                                for i in range(7)]},
            "group": {"kind": "abelian", "p": 3, "rank": 1},
            "voltage": {f"e{i}": [[0, 1]] for i in range(7)}}
    path = write_config(tmp_path, data)
    started = time.monotonic()
    assert main([subcommand, "--config", path, "--level", "6"]) == 3
    assert time.monotonic() - started < 1
    assert "derived graph would have 7·3^6" in capsys.readouterr().err


def _count_normal_forms(monkeypatch):
    """Record every VoltageAssignment.normal_forms call; returns the log."""
    calls = []
    normal_forms = graphtower.VoltageAssignment.normal_forms

    def counted(alpha, n):
        calls.append(n)
        return normal_forms(alpha, n)

    monkeypatch.setattr(graphtower.VoltageAssignment, "normal_forms",
                        counted)
    return calls


def test_check_interpolation_builds_each_intermediate_once(tmp_path, capsys,
                                                          monkeypatch):
    """check-interpolation lists the characters once and takes one lifted
    integer determinant per Galois orbit on each side; fitting and lfun
    take one per orbit, whose packed integer determinant is its only
    det_int; no job builds a character past the 9 that ``characters``
    lists, so none per conjugate; and all three read the voltages' normal
    forms once per job.  LOOP_CONFIG at level 2 has 9 characters in 3
    orbits."""
    path = write_config(tmp_path, LOOP_CONFIG)
    for subcommand in ("check-interpolation", "fitting", "lfun"):
        with monkeypatch.context() as patch:
            characters = _count_calls(patch,
                                      graphtower.grouprings.characters)
            normal_forms = _count_normal_forms(patch)
            lifted = _count_calls(patch, graphtower.linalg.det_int_poly_matrix)
            integer = _count_calls(patch, graphtower.linalg.det_int)
            built = []
            post_init = graphtower.Character.__post_init__
            patch.setattr(graphtower.Character, "__post_init__",
                          lambda chi: built.append(chi) or post_init(chi))
            assert main([subcommand, "--config", path, "--level", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        if subcommand == "check-interpolation":
            assert report["all_pass"] is True
            assert len(lifted) == len(integer) == 6
        if subcommand == "fitting":
            assert report["regular_det"] == 0
        if subcommand in ("fitting", "lfun"):
            assert len(lifted) == len(integer) == 3
        assert len(characters) == 1 and len(built) == 9
        assert normal_forms == [2]


@pytest.mark.parametrize("seed", range(6))
def test_check_interpolation_fails_on_a_corrupted_character_adjacency(
        tmp_path, capsys, monkeypatch, seed):
    """Entry (0, 0) of χ(A_α) off by one, for every character, in every
    module that binds the builder, whose sparse coordinates lack the entry
    when it is 0: the transpose leaves that entry in place, so two
    determinants over the builder would still agree; the lifted side does
    not read the builder, so the check fails, and passes unpatched."""
    rng = random.Random(seed)
    p, rank, level = rng.choice([(2, 1, 2), (3, 1, 1), (3, 2, 1),
                                 (5, 1, 1), (2, 2, 2)])
    path = write_config(tmp_path, abelian_pin_config(
        rng, p, rank, level, rng.randint(1, 4), 4))
    assert main(["check-interpolation", "--config", path,
                 "--level", str(level)]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    original = graphtower.grouprings.character_adjacency

    def corrupted(chi, edges):
        entries = original(chi, edges)
        coords = list(entries.get((0, 0), [0]))
        coords[0] -= 1
        entries[0, 0] = coords
        return entries

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("graphtower") and
                vars(module).get("character_adjacency") is original):
            monkeypatch.setattr(module, "character_adjacency", corrupted)
    assert main(["check-interpolation", "--config", path,
                 "--level", str(level)]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


@pytest.mark.parametrize("level", [1, 2])
def test_check_interpolation_compares_every_conjugate(tmp_path, capsys,
                                                      monkeypatch, level):
    """The image at the unit a = 2 of the orbit of the characters of order
    5, Z/5 ⊂ Z/5^level, off by one in every module that binds
    ``galois_images``: χ^2 meets the corrupted h-value and χ^3 = χ^−2 the
    corrupted component, so exactly those two characters fail; a check
    that compared one character per orbit, or only χ and χ̄, would pass.
    Unpatched, every character passes."""
    path = write_config(tmp_path, Z125_CONFIG)
    argv = ["check-interpolation", "--config", path, "--level", str(level)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    original = graphtower.cyclotomic.galois_images

    def corrupted(p, n, j, poly, units):
        images = original(p, n, j, poly, units)
        return [(image[0] + 1, *image[1:]) if p ** j == 5 and a == 2
                else image for a, image in zip(units, images)]

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("graphtower") and
                vars(module).get("galois_images") is original):
            monkeypatch.setattr(module, "galois_images", corrupted)
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    order_5 = 5 ** (level - 1)
    assert report["all_pass"] is False
    assert [item["character"] for item in report["per_character"]
            if not item["pass"]] == [[2 * order_5], [3 * order_5]]


# Z/125 (φ = 100) on a 3-vertex base, and Z/727 on a triangle with a loop:
# with one Z[ζ] Bareiss per character, whose pivots here are not rational,
# fitting took 24-26 s and over 200 s, check-interpolation 31 s and over
# 20 minutes (wall, one core of a shared 2-vCPU host)
Z125_CONFIG = {
    "graph": {"vertices": [0, 1, 2],
              "edges": [{"id": f"e{i}", "ends": ends} for i, ends in
                        enumerate([[1, 0], [2, 0], [0, 0], [2, 0], [1, 1]])]},
    "group": {"kind": "abelian", "p": 5, "rank": 1},
    "voltage": {f"e{i}": [[0, v]] for i, v in enumerate([0, 27, 119, 124,
                                                         110])},
}
P727_CONFIG = {
    "graph": {"vertices": ["a", "b", "c"],
              "edges": [{"id": "ab", "ends": ["a", "b"]},
                        {"id": "bc", "ends": ["b", "c"]},
                        {"id": "ca", "ends": ["c", "a"]},
                        {"id": "aa", "ends": ["a", "a"]}]},
    "group": {"kind": "abelian", "p": 727, "rank": 1},
    "voltage": {"ab": [[0, 1]], "bc": [[0, 5]], "ca": [[0, 100]],
                "aa": [[0, 3]]},
}

# SHA-256 of the stdout; the Z/125 fitting one recorded with the Bareiss,
# the lfun ones with one Z[ζ] determinant per character, which took 0.3 s
# and 18-23 s for lfun
_CLIFF_SHA256 = {
    (5, "fitting"):
        "79c41dbcd95cd5491b991aa0953a47356bae96b4d4b3c6d5b5bd68714a7e916a",
    (727, "fitting"):
        "989023e763d58ce32a2caf18053cc736d7786f7aaad4a91695643a0bffa8caff",
    (5, "lfun"):
        "2487d63507ea17a18d25921c4040a1169917671e2c99384b423c0cb01274ee2f",
    (727, "lfun"):
        "58fb6164ee02341ba2c60f1aaa695c621df1dd49ebc713b67feda88eb51711e2",
}


@pytest.mark.parametrize("data, level, subcommand, seconds", [
    (Z125_CONFIG, 3, "fitting", 2), (Z125_CONFIG, 3, "check-interpolation", 2),
    (Z125_CONFIG, 3, "lfun", 2),
    (P727_CONFIG, 1, "fitting", 4), (P727_CONFIG, 1, "check-interpolation", 2),
    (P727_CONFIG, 1, "lfun", 10),
], ids=["z125-fitting", "z125-check-interpolation", "z125-lfun",
        "p727-fitting", "p727-check-interpolation", "p727-lfun"])
def test_character_jobs_have_no_cyclotomic_cliff(tmp_path, capsys, data,
                                                 level, subcommand, seconds):
    path = write_config(tmp_path, data)
    started = time.perf_counter()
    assert main([subcommand, "--config", path, "--level", str(level)]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    if subcommand == "check-interpolation":
        assert json.loads(out)["all_pass"] is True
    else:
        assert (hashlib.sha256(out.encode()).hexdigest() ==
                _CLIFF_SHA256[data["group"]["p"], subcommand])
    assert elapsed < seconds


def test_fitting_lists_characters_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, graphtower.grouprings.characters)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["fitting", "--config", path, "--level", "2"]) == 0
    assert len(calls) == 1


# subcommands that exit 3 past a level bound, at levels whose group order
# p^n has more than 4300 digits (Python's int-to-str limit) or would take
# minutes to build
_LEVEL_BOUNDED = ("derive", "jacobian", "zeta", "lfun", "fitting",
                  "check-interpolation", "check-factorization")
_HUGE_LEVELS = (10 ** 4, 10 ** 9)
# subcommands that take every level up to --max-level; level 7 is the first
# past the order-729 bound on LOOP_CONFIG
_MAX_LEVEL_BOUNDED = ("tower", "iwasawa-fit")


@pytest.mark.parametrize("argv, voltage", [
    (["fitting", "--level", "8"], [[0, 1]]),
    (["check-interpolation", "--level", "7"], [[0, 1]]),
    (["lfun", "--level", "7"], [[0, 1]]),
    (["check-factorization", "--level", "7"], [[0, 1]]),
    (["mhg-check"], [[0, 10000]]),
    (["mhg-check"], [[0, 10 ** 12]]),
    *[([cmd, "--level", str(level)], [[0, 1]])
      for cmd in _LEVEL_BOUNDED for level in _HUGE_LEVELS],
    *[([cmd, "--max-level", str(level)], [[0, 1]])
      for cmd in _MAX_LEVEL_BOUNDED for level in (7, *_HUGE_LEVELS)],
], ids=["fitting", "check-interpolation", "lfun", "check-factorization",
        "mhg-check", "mhg-check-huge",
        *[f"{cmd}-level-{level}" for cmd in _LEVEL_BOUNDED
          for level in _HUGE_LEVELS],
        *[f"{cmd}-max-level-{level}" for cmd in _MAX_LEVEL_BOUNDED
          for level in (7, *_HUGE_LEVELS)]])
def test_bounds_stop_jobs_at_once(tmp_path, capsys, argv, voltage):
    path = write_config(tmp_path, dict(LOOP_CONFIG, voltage={"e": voltage}))
    started = time.monotonic()
    assert main([*argv, "--config", path]) == 3
    assert time.monotonic() - started < 1
    assert "bound" in capsys.readouterr().err


# a path on 5001 vertices: past the 5000-vertex cover bound at level 0,
# where X_0 = X is the trivial cover
_PATH_5001_CONFIG = {
    "graph": {"vertices": list(range(5001)),
              "edges": [{"id": i, "ends": [i, i + 1]} for i in range(5000)]},
    "group": {"kind": "abelian", "p": 2},
    "voltage": {str(i): [] for i in range(5000)},
}


@pytest.mark.parametrize("argv", [["jacobian", "--level", "0"],
                                  ["zeta", "--level", "0"],
                                  ["derive", "--level", "0"],
                                  ["tower", "--max-level", "0"]])
def test_level_0_meets_the_cover_bound(tmp_path, capsys, argv):
    path = write_config(tmp_path, _PATH_5001_CONFIG)
    started = time.monotonic()
    assert main([*argv, "--config", path]) == 3
    assert time.monotonic() - started < 1
    assert "5001" in capsys.readouterr().err


def test_tower_checks_connectivity_once_per_job(tmp_path, capsys,
                                                monkeypatch):
    calls = _count_calls(monkeypatch,
                         graphtower.voltage.connectivity_criterion)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--max-level", "3"]) == 0
    assert len(calls) == 1


def test_tower_past_the_bound_derives_no_level(tmp_path, capsys,
                                               monkeypatch):
    calls = _count_calls(monkeypatch, graphtower.voltage.edge_translations)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--max-level", "7"]) == 3
    assert "enumeration bound" in capsys.readouterr().err
    assert len(calls) == 0


@pytest.mark.parametrize("level", [3, *_HUGE_LEVELS])
def test_metacyclic_fitting_past_the_regular_bound(tmp_path, capsys, level):
    """Level 3 is the first past the size-300 regular representation."""
    path = write_config(tmp_path, MU2_CONFIG)
    started = time.monotonic()
    assert main(["fitting", "--config", path, "--level", str(level)]) == 0
    assert time.monotonic() - started < 1
    assert json.loads(capsys.readouterr().out)["regular_det"] is None


def test_huge_p_exits_3_before_the_primality_check(tmp_path, capsys):
    data = dict(LOOP_CONFIG,
                group={"kind": "abelian", "p": 100000000000000003, "rank": 1})
    started = time.monotonic()
    assert main(["jacobian", "--config", write_config(tmp_path, data),
                 "--level", "0"]) == 3
    assert time.monotonic() - started < 1
    assert "2^40" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["tower", "--max-level", "0"],
                                  ["fitting", "--level", "0"]])
def test_huge_rank_exits_3_at_once(tmp_path, capsys, argv):
    data = {"graph": LOOP_CONFIG["graph"], "voltage": {"e": []},
            "group": {"kind": "abelian", "p": 3, "rank": 3 * 10 ** 8}}
    started = time.monotonic()
    assert main([*argv, "--config", write_config(tmp_path, data)]) == 3
    assert time.monotonic() - started < 1
    assert "rank 300000000 exceeds bound 729" in capsys.readouterr().err


def _lfun_pin_config(seed):
    """A seeded abelian config of 2-4 base vertices and the level to run
    lfun at."""
    rng = random.Random(seed)
    p, rank, level = [(2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 2),
                      (7, 1, 1)][seed % 5]
    return abelian_pin_config(rng, p, rank, level, rng.randint(2, 4), 6), level


# SHA-256 of the lfun stdout, recorded with Bareiss over Z[ζ][u]
_LFUN_SHA256 = {
    1: "658a4e95d21bc524898961404666baf14961dcbff4e87b30f0c175a12656c097",
    2: "5ae1cf50e5208187de9e730224a844816735d605f83adb31281d4fad649aec60",
    3: "e27ad8f050b13986d0840930f720e0aabf8e028a5bc282f86247630b97f05a5e",
    4: "939209b7f6f258068e12136fc0521a219087c921775416ef11e2baf1612a0a04",
    5: "fa228a9163f6314681e7e37c85354d114db9fb7a651b9b530cec8d63f70fbcc0",
}


@pytest.mark.parametrize("seed", sorted(_LFUN_SHA256))
def test_lfun_output_is_pinned(tmp_path, capsys, seed):
    data, level = _lfun_pin_config(seed)
    path = write_config(tmp_path, data)
    assert main(["lfun", "--config", path, "--level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _LFUN_SHA256[seed]


# (p, rank, level, base vertices): covers of 16, 32, 27, 32, 45 and 64
# vertices
_ZETA_PIN_SHAPES = {1: (2, 1, 3, 2), 2: (2, 2, 2, 2), 3: (3, 1, 2, 3),
                    4: (2, 3, 1, 4), 5: (3, 2, 1, 5), 6: (2, 2, 2, 4)}

# SHA-256 of the zeta stdout, recorded with eager row scaling in det_int
_ZETA_SHA256 = {
    1: "1c8cb83a2860bea04045e76a79a52b8c665ba2395c0366827f0f5b70d5b663de",
    2: "70b0d76850f399d5555729d242fc331d30bbe13de185fcc546ba5ddb8f96e8fa",
    3: "b7f20c9cc759ce90a1b1ee1812a4c0542d4349e5725d11405dea4514d0911d68",
    4: "d08042d240fb888033d36d68f4be563e17c030dd13f6ab925b7689a9dbb3828a",
    5: "e5c7fea0d405e70c3259471fbc8d30158b2ad9c1744eb93cad1ef90c8f37fef0",
    6: "4f0506c5cb2a2fc60bfb27574e83f3b164fdbaf5d29a7fb1e88dd274ce1c5619",
}


# (p, rank, level, base vertices) by seed, and the rows of the cover's
# packed matrix after the Schur complement over a loop-free fibre: 32
# vertices with |S| = |T| and c = 1 + 4u², 27 with |S| = 2|T| and 45 with
# |S| = 3|T|/2, both with c = 1 + u²
_REDUCED_ZETA_PIN_SHAPES = {3: ((2, 1, 4, 2), 16), 4: ((3, 1, 2, 3), 9),
                            13: ((3, 2, 1, 5), 18)}

# SHA-256 of the zeta stdout, recorded with the whole cover matrix packed
_REDUCED_ZETA_SHA256 = {
    3: "3f4501e0bcbd7bbcabcf854a9ecba3b2bc86f8a6bc999c98e049286b4978ede3",
    4: "7f5d46150ebd9e55f502f2fba54fa6f74b2c7f27cb41bd03d662f39fa37b5c73",
    13: "50e975f94a93fe49281752feceacb7df3b7711aed06dd31fd832ec73d3adbd6b",
}


def _zeta_digest(tmp_path, capsys, seed, shape):
    p, rank, level, nv = shape
    data = abelian_pin_config(random.Random(seed), p, rank, level, nv, 4)
    path = write_config(tmp_path, data)
    assert main(["zeta", "--config", path, "--level", str(level)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(_ZETA_SHA256))
def test_zeta_output_is_pinned(tmp_path, capsys, seed):
    assert (_zeta_digest(tmp_path, capsys, seed, _ZETA_PIN_SHAPES[seed]) ==
            _ZETA_SHA256[seed])


@pytest.mark.parametrize("seed", sorted(_REDUCED_ZETA_SHA256))
def test_reduced_zeta_output_is_pinned(tmp_path, capsys, monkeypatch, seed):
    shape, rows = _REDUCED_ZETA_PIN_SHAPES[seed]
    calls = _count_calls(monkeypatch, graphtower.linalg.det_int_poly_matrix)
    assert (_zeta_digest(tmp_path, capsys, seed, shape) ==
            _REDUCED_ZETA_SHA256[seed])
    assert [len(args[0]) for args in calls] == [rows]


# -- bipartite covers: the cover determinant packed in w = u²

def _bipartite_config(rng, p, rank, level, ends, colours):
    """A config over the base edges `ends` whose level-`level` cover is
    bipartite, coloured (v, g) ↦ colours[v] + g₀ mod 2.  For p = 2 the
    first coordinate of each voltage is odd exactly on the edges whose ends
    share a colour; for odd p every edge must join two colours."""
    mod = p ** level
    words = []
    for i, j in ends:
        word = [[g, rng.randrange(mod)] for g in range(rank)]
        if p == 2:
            word[0][1] = (2 * rng.randrange(mod // 2) +
                          (1 + colours[i] + colours[j]) % 2)
        words.append(word)
    return {"graph": {"vertices": list(range(len(colours))),
                      "edges": [{"id": f"e{k}", "ends": list(e)}
                                for k, e in enumerate(ends)]},
            "group": {"kind": "abelian", "p": p, "rank": rank},
            "voltage": {f"e{k}": word for k, word in enumerate(words)}}


def _bipartite_case(kind, seed):
    """(config, level, rows packed) of a seeded bipartite cover of a kind:
    1: 32 vertices over Z/4 x Z/4 and a 2-vertex base whose v0 has no loop,
       so the Schur complement over the fibre of v0 leaves 16 rows;
    2: the same group over a 2-vertex base with odd-voltage loops at both
       vertices, which has no loop-free fibre;
    3: 36 vertices over Z/9 and a 4-cycle with two more edges between its
       parts;
    4: 24 vertices over Z/8 and a triangle with odd voltages, a
       bipartite cover of a base that is not."""
    rng = random.Random(seed)
    if kind == 1:
        ends = [(0, 1)] * rng.randint(1, 3) + [(1, 1)] * rng.randint(1, 2)
        return _bipartite_config(rng, 2, 2, 2, ends, (0, 1)), 2, 16
    if kind == 2:
        ends = [(0, 1)] * rng.randint(1, 2) + [(0, 0), (1, 1), (1, 1)]
        return _bipartite_config(rng, 2, 2, 2, ends, (0, 0)), 2, 32
    if kind == 3:
        ends = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1), (2, 3)]
        return _bipartite_config(rng, 3, 1, 2, ends, (0, 1, 0, 1)), 2, 18
    ends = [(0, 1), (1, 2), (2, 0), (0, 1)]
    return _bipartite_config(rng, 2, 1, 3, ends, (0, 0, 0)), 3, 24


def _packed_lengths(calls):
    """The coefficient counts of the entries of every packed matrix."""
    return {len(entry) for rows, in calls for row in rows
            for entry in row.values()}


# SHA-256 of the zeta stdout of kind and seed `seed`, recorded with the
# cover matrix packed in u
_BIPARTITE_ZETA_SHA256 = {
    1: "867497e5d8d586882713b8e2423259e1c5e6b0ee6077652f0b59e761495c9e2d",
    2: "ffb3a8ab023a7ce995160c6a2035f6d7d74428f5af40ac89f4187a34461f0c4d",
    3: "b2399ec3c9fdfe3ac4e96e5584796ae502cba26ed4e1c6497684cb5479948fa4",
    4: "b75c9c5ec7cf794e6fdf06e6af49fbce5484a9ff52358c811baa8d8a179a8da4",
}


@pytest.mark.parametrize("seed", sorted(_BIPARTITE_ZETA_SHA256))
def test_bipartite_zeta_output_is_pinned(tmp_path, capsys, monkeypatch,
                                         seed):
    """The cover side is packed in w = u², every entry of at most 3
    coefficients, and prints the polynomial it printed packed in u."""
    data, level, rows = _bipartite_case(seed, seed)
    calls = _count_calls(monkeypatch, graphtower.linalg.det_int_poly_matrix)
    path = write_config(tmp_path, data)
    assert main(["zeta", "--config", path, "--level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _BIPARTITE_ZETA_SHA256[seed]
    assert [len(args[0]) for args in calls] == [rows]
    assert _packed_lengths(calls) <= {1, 2, 3}


# SHA-256 of the zeta stdout of the 128-vertex Z/64 cover below, recorded
# with the cover matrix packed in u
_Z64_ZETA_SHA256 = (
    "7bdc9f17a3a8e4385d98de175c09bc0099b286bbaa0625544b3e7b132f4f9505")


def test_128_vertex_bipartite_cover_is_packed_in_w(tmp_path, capsys,
                                                   monkeypatch):
    """Z/64 over three odd-voltage edges v0–v1: the Schur complement leaves
    the 64 rows over v1, packed in w = u²."""
    data = _bipartite_config(random.Random(7), 2, 1, 6, [(0, 1)] * 3, (0, 0))
    calls = _count_calls(monkeypatch, graphtower.linalg.det_int_poly_matrix)
    path = write_config(tmp_path, data)
    assert main(["zeta", "--config", path, "--level", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _Z64_ZETA_SHA256
    assert [len(args[0]) for args in calls] == [64]
    assert _packed_lengths(calls) <= {1, 2, 3}
    assert not any(json.loads(out)["det_part"][1::2])


def test_check_factorization_fails_on_a_flipped_colour(tmp_path, capsys,
                                                       monkeypatch):
    """One vertex over v1 given the wrong colour loses its off-diagonal
    entries in the packed matrix, so on seeded bipartite covers, with and
    without the Schur complement, the check fails, exits 0 and says so.
    The colouring is computed once per job, and never for an orbit norm."""
    colouring = graphtower.zeta._two_colouring
    norm = graphtower.zeta.artin_l_norm
    rng = random.Random(86)
    in_norm = []

    def traced_norm(*args):
        in_norm.append(args)
        try:
            return norm(*args)
        finally:
            in_norm.pop()

    monkeypatch.setattr(graphtower.zeta, "artin_l_norm", traced_norm)
    for seed in range(6):
        data, level, _ = _bipartite_case(1 + seed % 2, 100 + seed)
        path = write_config(tmp_path, data)
        for flip in (False, True):
            calls = []

            def flipped(neighbours):
                calls.append(bool(in_norm))
                colour = colouring(neighbours)
                if flip:
                    v = rng.randrange(len(colour) // 2, len(colour))
                    colour[v] = 1 - colour[v]
                return colour

            with monkeypatch.context() as patch:
                patch.setattr(graphtower.zeta, "_two_colouring", flipped)
                assert main(["check-factorization", "--config", path,
                             "--level", str(level)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert calls == [False]
            assert report["pass"] is not flip
            assert report["polynomial_match"] is not flip
            assert report["exponent_match"] is True


# the cells of the perfbench cover_zeta mix, as (p, rank, base vertices,
# extra edges, level): covers of 10-32 vertices
_COVER_ZETA_CELLS = [
    (5, 1, 2, 2, 1), (2, 2, 3, 2, 1), (2, 1, 2, 3, 3), (3, 2, 2, 2, 1),
    (2, 2, 2, 2, 2), (3, 1, 2, 2, 2), (2, 3, 2, 3, 1), (2, 1, 2, 2, 3),
    (2, 2, 2, 2, 2), (3, 1, 2, 3, 2), (2, 3, 2, 2, 1), (7, 1, 3, 2, 1),
    (2, 3, 3, 2, 1), (2, 1, 3, 2, 3), (3, 1, 3, 2, 2), (2, 2, 2, 2, 2),
]

# SHA-256 of the zeta stdout over three seeded configs per cell, recorded
# at the parent commit
_COVER_ZETA_CELLS_SHA256 = (
    "4814e32229458d61b705249b52b45d0ca77fb1b91bc7fa7547b0a19da140ee86")


def test_zeta_output_over_the_cover_zeta_cells_is_pinned(tmp_path, capsys):
    """The timed cover_zeta output, a check-factorization report, holds
    only booleans; this pins the polynomials of 48 covers of its shapes."""
    rng = random.Random(17)
    digest = hashlib.sha256()
    for p, rank, nv, extra, level in _COVER_ZETA_CELLS * 3:
        path = write_config(tmp_path, abelian_pin_config(rng, p, rank, level,
                                                         nv, extra))
        assert main(["zeta", "--config", path, "--level", str(level)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _COVER_ZETA_CELLS_SHA256


# (p, rank, level, base vertices): groups of order 16, 9, 25, 7 and 81; on
# seed 5 the regular representation (size 324) is past its bound
_FITTING_PIN_SHAPES = {1: (2, 2, 2, 2), 2: (3, 1, 2, 3), 3: (5, 2, 1, 2),
                       4: (7, 1, 1, 3), 5: (3, 2, 2, 4)}

# metacyclic p = 2 with u = 1 + p = 3, on two vertices with a loop
_METACYCLIC_P2_CONFIG = {
    "graph": {"vertices": ["v", "w"],
              "edges": [{"id": "a", "ends": ["v", "w"]},
                        {"id": "b", "ends": ["v", "w"]},
                        {"id": "c", "ends": ["w", "v"]},
                        {"id": "d", "ends": ["v", "v"]}]},
    "group": {"kind": "metacyclic", "p": 2, "action_unit": "1+p"},
    "voltage": {"a": [[0, 1]], "b": [[1, 1]], "c": [[0, -1], [1, 3]],
                "d": [[1, 1], [0, 1]]},
}

# metacyclic fitting jobs, by name: (config, level); only the regular
# representation is printed, at sizes 18, 162, 8 and 32
_METACYCLIC_FITTING_PINS = {
    "mu2-level-1": (MU2_CONFIG, 1), "mu2-level-2": (MU2_CONFIG, 2),
    "metacyclic-p2-level-1": (_METACYCLIC_P2_CONFIG, 1),
    "metacyclic-p2-level-2": (_METACYCLIC_P2_CONFIG, 2),
}

# SHA-256 of the fitting stdout: the abelian seeds recorded at the parent
# of their test, the metacyclic jobs with the regular representation built
# from GroupRingMatrix entries
_FITTING_SHA256 = {
    1: "6e3a2792da9a783202a34b8ce7f12a1fd3d716a73430064d621f645212f931b2",
    2: "bb1c500f13a08e940fe453b5231d0d284cf8a44fc2ad35f967e83b55c7050939",
    3: "eb477479c3d6b0f611250936d2d0410a24ece74ef4d7bff55db101579ea83d69",
    4: "2f513d29324815dd02db49e8c8fa7e49f3c441ce5a15e45997b63ccec81fec00",
    5: "3d4e7583a503b4d9de46e6854cfea32dd2c5d85e9131e83cf475b8c19ee31d43",
    "mu2-level-1":
        "38e7ec8db27a8c4ee7dd26913530c1622c1744a3f5b3b41f55f8643387d6043b",
    "mu2-level-2":
        "a7d6c4f17862184a1f1bbbd0d181bbd9ce0549cd81f535c320533014e44fb3ac",
    "metacyclic-p2-level-1":
        "cefd00b2da726a6ade2145159ec81265be819618945b58739567dd0b1b8dc47f",
    "metacyclic-p2-level-2":
        "0a28bb5203de2631ecc70d1a64ebc767a458b1f9d537593eea486cc4e3b076fd",
}


@pytest.mark.parametrize("seed", list(_FITTING_SHA256))
def test_fitting_output_is_pinned(tmp_path, capsys, seed):
    if seed in _METACYCLIC_FITTING_PINS:
        data, level = _METACYCLIC_FITTING_PINS[seed]
    else:
        p, rank, level, nv = _FITTING_PIN_SHAPES[seed]
        data = abelian_pin_config(random.Random(seed), p, rank, level, nv, 4)
    path = write_config(tmp_path, data)
    assert main(["fitting", "--config", path, "--level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _FITTING_SHA256[seed]


# (kind, p, rank, level, base vertices): covers of 24, 81, 50, 32 and 32
# vertices at the top level; seed 6 is MU2_CONFIG at level 2 (162 vertices)
_TOWER_PIN_SHAPES = {1: ("abelian", 2, 1, 4, 3), 2: ("abelian", 3, 1, 3, 3),
                     3: ("abelian", 5, 1, 2, 2), 4: ("abelian", 2, 2, 2, 2),
                     5: ("metacyclic", 2, 2, 2, 2)}


def _tower_pin_config(seed):
    """A seeded config and the level to run iwasawa-fit and jacobian at."""
    if seed not in _TOWER_PIN_SHAPES:
        return MU2_CONFIG, 2
    kind, p, rank, level, nv = _TOWER_PIN_SHAPES[seed]
    data = abelian_pin_config(random.Random(seed), p, rank, level, nv, 4)
    if kind == "metacyclic":
        data["group"] = {"kind": "metacyclic", "p": p, "action_unit": "1+p"}
    return data, level


# SHA-256 of the iwasawa-fit stdout, recorded with each level's Jacobian
# taken from the dense Laplacian of the derived graph
_TOWER_SHA256 = {
    1: "0dcaf9b2e004ea4be70a1c386ddb4bc19a53ecf9f5fcc391012bb20e15648013",
    2: "2fda5887145a3bfc3910860d9f1dde136b76d4f03b6f1165823db26ef42eedd6",
    3: "a64ebf08255814e57bfc056b46f194bd87d570983505de9694dc4202b03e11ae",
    4: "94a716e80b6db111f17c3e5c6ea5cb540c9bbcbfc56cf22b9690a980e65e66ba",
    5: "abad842c7ac7178cf310d1a6bd0d279c6daee73253dee805b2ee22d01099a34f",
    6: "9dce5a2e2f0370d85b16da9fb2183e46f27cc047851136055df97f512485bf7b",
}

# SHA-256 of the jacobian stdout at the same levels, recorded likewise
_JACOBIAN_SHA256 = {
    1: "2186b932c6d2a6c49080834c0658d63cedf593291af3feb9c4c853e392416d51",
    2: "5fc9404562b1208053270cc8538a42481bc4b21ddafed8306743531eca9874dc",
    3: "43e5d9945a8a0408c6fd5daa0b307ccc0fa2e3d99c2cf328e3c362db4078b0fd",
    4: "4a83d398a1fe250c25c0f93ca5252f35f37402d13464c82e4622104c77c8f7ae",
    5: "4cfd0b15586daf8fbd69fd9e61fab151da165bdd1567c0fe0a2df97caa906284",
    6: "a13c6ecc59bae0fd1a0fa2a03375851be70b1539c360edf211432efddcc787a3",
}


@pytest.mark.parametrize("seed", sorted(_TOWER_SHA256))
def test_tower_output_is_pinned(tmp_path, capsys, seed):
    data, level = _tower_pin_config(seed)
    path = write_config(tmp_path, data)
    assert main(["iwasawa-fit", "--config", path,
                 "--max-level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _TOWER_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(_JACOBIAN_SHA256))
def test_jacobian_output_is_pinned(tmp_path, capsys, seed):
    data, level = _tower_pin_config(seed)
    path = write_config(tmp_path, data)
    assert main(["jacobian", "--config", path, "--level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _JACOBIAN_SHA256[seed]


def _mhg_pin_config(seed):
    """The tower pin config of a seed with a quotient map onto Z_p: the
    first generator's exponent for abelian towers, τ's for metacyclic ones.
    Seed 7 is seed 1 with every edge doubled, so that every coefficient of
    its level-1 Laplacian is even and the content bound is positive."""
    if seed == 7:
        data = copy.deepcopy(_mhg_pin_config(1))
        edges = data["graph"]["edges"]
        data["graph"]["edges"] = edges + [
            {"id": e["id"] + "'", "ends": e["ends"]} for e in edges]
        data["voltage"].update(
            {name + "'": word for name, word in list(data["voltage"].items())})
        return data
    data, _ = _tower_pin_config(seed)
    if seed in _TOWER_PIN_SHAPES:
        rank = _TOWER_PIN_SHAPES[seed][2]
        data["quotient"] = {"exponents": ([0, 1] if data["group"]["kind"] ==
                                          "metacyclic" else
                                          [1] + [0] * (rank - 1))}
    return data


# SHA-256 of the mhg-check stdout, recorded with the content bound read off
# voltage_laplacian(alpha, 1) and the criterion on β-values by `multiply`
_MHG_SHA256 = {
    1: "e617601b05e1d79730ab9ec194b248e3ee24ec6dd0756fe82885c3f3ff5acd5d",
    2: "133048b6c739ed817d32438c6b7193bfeda98aeff025083fba6df591e7629c1a",
    3: "066992789b5eea0192f7e1f8df59917e799a0b7b4c0192ecf9a85bafc03dadd2",
    4: "ce1aca53249d1b52fdfad2727fa434ab22ae72d09ce664ebbfb9d0731ed7e91e",
    5: "335cec27ef461a5ae067794b3d9ce21a643b5c39df20ce2efbfd9bb830148832",
    6: "3b3b5e88107a530e50b4cda302532e32bd09da3cccdadea2aad10fa376116598",
    7: "4f9f838b4d32c668acb2741522ac97c3526ce741f4c923da649c61797a4dabfb",
}


@pytest.mark.parametrize("seed", sorted(_MHG_SHA256))
def test_mhg_output_is_pinned(tmp_path, capsys, seed):
    path = write_config(tmp_path, _mhg_pin_config(seed))
    assert main(["mhg-check", "--config", path]) == 0
    out = capsys.readouterr().out
    if seed == 7:
        assert json.loads(out)["mu_lower_bound"] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == _MHG_SHA256[seed]


# two parallel edges with voltages 1 and σ² over Z_2: both have image 0 in
# G/G^2, so X_1 is two copies of the base and no level is connected
_CRITERION_FAILING_CONFIG = {
    "graph": {"vertices": ["v", "w"],
              "edges": [{"id": "a", "ends": ["v", "w"]},
                        {"id": "b", "ends": ["v", "w"]}]},
    "group": {"kind": "abelian", "p": 2, "rank": 1},
    "voltage": {"a": [], "b": [[0, 2]]},
    "quotient": {"exponents": [1]},
}


@pytest.mark.parametrize("argv", [["tower", "--max-level", "2"],
                                  ["iwasawa-fit", "--max-level", "2"],
                                  ["mhg-check"]])
def test_every_tower_subcommand_enforces_the_criterion(tmp_path, capsys,
                                                       argv):
    path = write_config(tmp_path, _CRITERION_FAILING_CONFIG)
    assert main([*argv, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "connectivity criterion" in captured.err


@pytest.mark.parametrize("seed, max_level", [(4, 3), (6, 2)])
def test_tower_job_builds_no_group_element_arithmetic(tmp_path, capsys,
                                                      monkeypatch, seed,
                                                      max_level):
    """iwasawa-fit then mhg-check, an abelian rank-2 tower and MU2_CONFIG:
    the levels and the level-1 data come from integer normal forms, so no
    `multiply` call, and mhg-check takes no character of A_α and lists no
    group, as the regular representation of the tests' oracle would."""
    products = []
    multiply = graphtower.TowerGroupSpec.multiply

    def counted(spec, n, a, b):
        products.append((a, b))
        return multiply(spec, n, a, b)

    monkeypatch.setattr(graphtower.TowerGroupSpec, "multiply", counted)
    path = write_config(tmp_path, _mhg_pin_config(seed))
    assert main(["iwasawa-fit", "--config", path,
                 "--max-level", str(max_level)]) == 0
    groups = []
    enumerate_group = graphtower.TowerGroupSpec.enumerate_group
    monkeypatch.setattr(graphtower.TowerGroupSpec, "enumerate_group",
                        lambda spec, n: groups.append(n) or
                        enumerate_group(spec, n))
    adjacencies = _count_calls(monkeypatch,
                               graphtower.grouprings.character_adjacency)
    assert main(["mhg-check", "--config", path]) == 0
    assert len(products) == 0
    assert len(groups) == 0 and len(adjacencies) == 0


# integer vertex and edge ids, over (Z/2^n)^2
_INT_ID_CONFIG = {
    "graph": {"vertices": [0, 1, 2],
              "edges": [{"id": 10, "ends": [0, 1]}, {"id": 11, "ends": [1, 2]},
                        {"id": 12, "ends": [2, 0]}, {"id": 13, "ends": [0, 0]}]},
    "group": {"kind": "abelian", "p": 2, "rank": 2},
    "voltage": {"10": [[0, 1]], "11": [[1, 1]], "12": [],
                "13": [[0, 1], [1, 3]]},
}

# string ids holding a quote, a backslash, a tab and non-ASCII letters,
# which the report prints escaped
_ESCAPED_ID_CONFIG = {
    "graph": {"vertices": ['q"v', "b\\w", "é"],
              "edges": [{"id": 'a"', "ends": ['q"v', "b\\w"]},
                        {"id": "c\\d", "ends": ["b\\w", "é"]},
                        {"id": "t\tñ", "ends": ["é", 'q"v']},
                        {"id": "ёж", "ends": ["é", "é"]}]},
    "group": {"kind": "metacyclic", "p": 3, "action_unit": "1+p"},
    "voltage": {'a"': [[0, 1]], "c\\d": [[1, 1]], "t\tñ": [],
                "ёж": [[0, 2], [1, 1]]},
}

# reports no other pin covers, by name: (config, argv)
_REPORT_PINS = {
    "derive-int-ids": (_INT_ID_CONFIG, ["derive", "--level", "2"]),
    "derive-escaped-ids": (_ESCAPED_ID_CONFIG, ["derive", "--level", "1"]),
    # u = 4 ≢ 1 mod 9: the metacyclic group order where it is not abelian
    "derive-escaped-ids-level-2": (_ESCAPED_ID_CONFIG,
                                   ["derive", "--level", "2"]),
    "jacobian-level-0": (_INT_ID_CONFIG, ["jacobian", "--level", "0"]),
    # TSV keeps the handler's key order, which the sorted JSON does not show
    "jacobian-level-0-tsv": (_INT_ID_CONFIG,
                             ["jacobian", "--level", "0", "--format", "tsv"]),
    "jacobian-level-2-tsv": (_ESCAPED_ID_CONFIG,
                             ["jacobian", "--level", "2", "--format", "tsv"]),
    "check-interpolation": (_INT_ID_CONFIG,
                            ["check-interpolation", "--level", "2"]),
    "check-factorization": (_INT_ID_CONFIG,
                            ["check-factorization", "--level", "2"]),
    "iwasawa-fit": (LOOP_CONFIG, ["iwasawa-fit"]),
    "fitting-tsv": (_INT_ID_CONFIG,
                    ["fitting", "--level", "1", "--format", "tsv"]),
}

# SHA-256 of their stdout, recorded with json.dumps(report, indent=2,
# sort_keys=True) as the JSON renderer
_REPORT_SHA256 = {
    "derive-int-ids":
        "21246a8c5c842c6e5aa92d4fcd53e056d7922ad585384cf455547f4ae93c931d",
    "derive-escaped-ids":
        "10b25fbfa2ab14dea0dd25e03129be041696a1eea8b857e9ee0d6791b3b75bca",
    "derive-escaped-ids-level-2":
        "79f99ede1efc069f489e24894ecf9ee46a3f5dd67e44c77ddcfe051eec004386",
    "jacobian-level-0":
        "f46a5c35d592997925d3d55ea6e134f36e18daeb0b9616f506ee59f847c08867",
    "jacobian-level-0-tsv":
        "a5b4c4d7237dfa9257f97cdb0206af405cdcabab9993b6c8ee54365e54ef87c5",
    "jacobian-level-2-tsv":
        "682441917b6be4f5a1a08e734fdfb5c291abc73f4d44517ec6af57976d39c9b2",
    "check-interpolation":
        "48edb41961feffcae56bec2a1c8889ab9df142e53dd6d53217e85fc18f7e9d67",
    "check-factorization":
        "bf019b236a4d03fbdd262efe3fefe92fc42c583558f1d17d7b0d46a68fa6032d",
    "iwasawa-fit":
        "9b5b32f7c65a4161660432574e3af3a60c946838b6360915bed4bae039bf0c59",
    "fitting-tsv":
        "9d97b10aec9b718ea89a9b3bebb38296073362c103eb7fe6225de64fe5ae8f88",
}


@pytest.mark.parametrize("name", list(_REPORT_PINS))
def test_report_output_is_pinned(tmp_path, capsys, name):
    data, argv = _REPORT_PINS[name]
    assert main([*argv, "--config", write_config(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _REPORT_SHA256[name]


# (config, level, subcommands): every subcommand on the test configs, and
# fitting over Z/727, at levels each finishes quickly at
_ORACLE_JOBS = [(LOOP_CONFIG, 2, list(_HANDLERS)),
                (MU2_CONFIG, 1, list(_HANDLERS)),
                (Z125_CONFIG, 1, list(_HANDLERS)),
                (_METACYCLIC_P2_CONFIG, 2, list(_HANDLERS)),
                (P727_CONFIG, 1, ["fitting"])]


def test_json_reports_match_json_dumps(tmp_path, capsys):
    """The JSON renderer prints what json.dumps(report, indent=2,
    sort_keys=True) prints, on every report that succeeds; a job that fails
    prints nothing."""
    succeeded = set()
    for data, level, subcommands in _ORACLE_JOBS:
        path = write_config(tmp_path, data)
        for subcommand in subcommands:
            code = main([subcommand, "--config", path, "--level", str(level),
                         "--max-level", str(max(level, 2))])
            out = capsys.readouterr().out
            if code == 0:
                succeeded.add(subcommand)
                assert out == json.dumps(json.loads(out), indent=2,
                                         sort_keys=True) + "\n"
            else:
                assert out == ""
    assert succeeded == set(_HANDLERS)


_AWKWARD_TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ж", "€",
                 "\U0001f600", "\ud800", "a", "id", " "]


def _random_text(rng):
    return "".join(rng.choice(_AWKWARD_TEXT) for _ in range(rng.randrange(4)))


def _random_leaf(rng):
    return rng.choice([
        True, False, None, 0, -1, rng.randint(-10 ** 6, 10 ** 6),
        rng.randint(2 ** 64, 2 ** 200), -rng.randint(2 ** 64, 2 ** 200),
        0.5, -1e-7, _random_text(rng)])


def _random_report(rng, depth):
    """A nested value of dicts with string keys, lists, ints and leaves."""
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return _random_leaf(rng)
    if kind == 1:  # ints, now and then a bool or None among them
        return [rng.choice([rng.randint(-2 ** 70, 2 ** 70), True, None])
                if rng.random() < 0.1 else rng.randint(-99, 99)
                for _ in range(rng.randrange(5))]
    if kind == 2:
        return rng.choice([[], {}, [[]], [{}], [[1, 2], []]])
    if kind == 3:
        return [_random_report(rng, depth - 1)
                for _ in range(rng.randrange(4))]
    return {_random_text(rng): _random_report(rng, depth - 1)
            for _ in range(rng.randrange(5))}


def test_json_text_matches_json_dumps_on_random_values():
    rng = random.Random(22)
    for _ in range(2000):
        value = _random_report(rng, rng.randrange(5))
        assert _json_text(value) == json.dumps(value, indent=2,
                                               sort_keys=True)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on int-to-str conversion")
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [x],
                                  lambda x: {"a": [True, x]}])
def test_json_text_keeps_the_int_to_str_limit(wrap):
    value = wrap(10 ** sys.get_int_max_str_digits())
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(ValueError):
        _json_text(value)
