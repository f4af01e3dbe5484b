import copy
import hashlib
import json
import random
import sys
import time
from math import prod

import pytest

import graphtower
from graphtower.cli import _HANDLERS, main, parse_config
from graphtower.cyclotomic import CyclotomicInteger
from graphtower.errors import ConfigError
from graphtower.graphs import spanning_tree_count
from graphtower.voltage import derive

from conftest import LOOP_CONFIG, MU2_CONFIG, abelian_pin_config


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
    report = json.loads((out_dir / "tower.json").read_text())
    assert report["config_hash"] == json.loads(first)["config_hash"]
    tsv = (out_dir / "tower.tsv").read_text()
    assert "e\t[0, 1, 2, 3]" in tsv


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--out", path]) == 1
    assert "cannot write report" in capsys.readouterr().err


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


@pytest.mark.parametrize("data, message", [
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
], ids=["quotient-list", "rank-str", "rank-bool", "p-bool", "list-vertex",
        "no-vertices", "list-end", "word-int", "exponent-bool",
        "quotient-bool", "max-level-bool", "max-level-negative", "list-root",
        "edge-id-collision"])
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


def test_mutation_fuzz_never_raises(tmp_path, capsys):
    """Replace or delete one JSON node per case; main must exit 0-3."""
    rng = random.Random(20240611)
    # at max-level 2, tower jobs on MU2_CONFIG reach its 162-vertex cover
    bases = [(LOOP_CONFIG, "2"), (MU2_CONFIG, "2")]
    subcommands = sorted(_HANDLERS)
    path = tmp_path / "job.json"
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
        path.write_text(json.dumps(data))
        argv = [rng.choice(subcommands), "--config", str(path),
                "--level", "1", "--max-level", max_level]
        code = main(argv)
        assert code in (0, 1, 2, 3), (argv, data)
    capsys.readouterr()


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
    cover = derive(parse_config(path).alpha, 2).graph
    assert cover.num_vertices == 162
    assert prod(report["jacobians"][2]) == spanning_tree_count(cover)


def test_jacobian_of_a_128_vertex_cover_has_no_cliff(tmp_path, capsys):
    path = write_config(tmp_path, CLIFF_128_CONFIG)
    start = time.perf_counter()
    assert main(["jacobian", "--config", path, "--level", "5"]) == 0
    assert time.perf_counter() - start < 2
    report = json.loads(capsys.readouterr().out)
    cover = derive(parse_config(path).alpha, 5).graph
    assert cover.num_vertices == 128
    assert report["order"] == spanning_tree_count(cover)
    assert prod(report["jacobian"]["torsion"]) == report["order"]


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
    def broken(matrix):
        raise ArithmeticError("inexact division 7 / 2")

    monkeypatch.setattr(graphtower.jacobian, "smith_invariant_factors", broken)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--max-level", "2"]) == 4
    assert capsys.readouterr().err.startswith("internal error: inexact")


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


def test_check_factorization_derives_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, graphtower.voltage.derive)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["check-factorization", "--config", path, "--level", "2"]) == 0
    assert len(calls) == 1


def test_check_factorization_uses_no_cyclotomic_arithmetic(tmp_path, capsys,
                                                            monkeypatch):
    bareiss = _count_calls(monkeypatch, graphtower.cyclotomic.det_cyclotomic)
    products = []
    mul = CyclotomicInteger.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(CyclotomicInteger, "__mul__", counted)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["check-factorization", "--config", path, "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(bareiss) == 0
    assert len(products) == 0


@pytest.mark.parametrize("subcommand", ["lfun", "check-interpolation"])
def test_character_jobs_derive_no_cover(tmp_path, capsys, monkeypatch,
                                        subcommand):
    """A_α over Z[G^(n)] is all these jobs need of X_n."""
    calls = _count_calls(monkeypatch, graphtower.voltage.derive)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main([subcommand, "--config", path, "--level", "2"]) == 0
    assert len(calls) == 0


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


def test_check_interpolation_builds_each_intermediate_once(tmp_path, capsys,
                                                          monkeypatch):
    characters = _count_calls(monkeypatch, graphtower.grouprings.characters)
    adjacency = _count_calls(monkeypatch, graphtower.voltage.voltage_adjacency)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["check-interpolation", "--config", path, "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert len(characters) == 1
    assert len(adjacency) == 1


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


def test_tower_checks_connectivity_once_per_job(tmp_path, capsys,
                                                monkeypatch):
    calls = _count_calls(monkeypatch, graphtower.graphs.is_connected)
    path = write_config(tmp_path, LOOP_CONFIG)
    assert main(["tower", "--config", path, "--max-level", "3"]) == 0
    assert len(calls) == 1  # the base, in the criterion


def test_tower_past_the_bound_derives_no_level(tmp_path, capsys,
                                               monkeypatch):
    calls = _count_calls(monkeypatch, graphtower.voltage.derive)
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


@pytest.mark.parametrize("seed", sorted(_ZETA_SHA256))
def test_zeta_output_is_pinned(tmp_path, capsys, seed):
    p, rank, level, nv = _ZETA_PIN_SHAPES[seed]
    data = abelian_pin_config(random.Random(seed), p, rank, level, nv, 4)
    path = write_config(tmp_path, data)
    assert main(["zeta", "--config", path, "--level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _ZETA_SHA256[seed]


# (p, rank, level, base vertices): groups of order 16, 9, 25, 7 and 81; on
# seed 5 the regular representation (size 324) is past its bound
_FITTING_PIN_SHAPES = {1: (2, 2, 2, 2), 2: (3, 1, 2, 3), 3: (5, 2, 1, 2),
                       4: (7, 1, 1, 3), 5: (3, 2, 2, 4)}

# SHA-256 of the fitting stdout, recorded at the parent commit
_FITTING_SHA256 = {
    1: "6e3a2792da9a783202a34b8ce7f12a1fd3d716a73430064d621f645212f931b2",
    2: "bb1c500f13a08e940fe453b5231d0d284cf8a44fc2ad35f967e83b55c7050939",
    3: "eb477479c3d6b0f611250936d2d0410a24ece74ef4d7bff55db101579ea83d69",
    4: "2f513d29324815dd02db49e8c8fa7e49f3c441ce5a15e45997b63ccec81fec00",
    5: "3d4e7583a503b4d9de46e6854cfea32dd2c5d85e9131e83cf475b8c19ee31d43",
}


@pytest.mark.parametrize("seed", sorted(_FITTING_SHA256))
def test_fitting_output_is_pinned(tmp_path, capsys, seed):
    p, rank, level, nv = _FITTING_PIN_SHAPES[seed]
    data = abelian_pin_config(random.Random(seed), p, rank, level, nv, 4)
    path = write_config(tmp_path, data)
    assert main(["fitting", "--config", path, "--level", str(level)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _FITTING_SHA256[seed]
